"""Game configuration, quenched strategy disorder, and its exact compiles.

N agents each hold two binary look-up tables over p = round(alpha*N)
information patterns.  Only the half-difference xi and half-sum omega of the
two tables enter the batch dynamics; omega appears through the pattern bias
Omega_mu = N^(-1/2) sum_i omega_i^mu.  Because the batch valuation update is
affine in the normalized positions phi, a quenched sample can be compiled once
into the couplings

    J_ij = (2/N) X_ij with X = xi xi^T       (agent-agent coupling)
    h_i  = (2/sqrt(N)) sum_mu xi_i^mu Omega_mu
    b_i  = (2/sqrt(N)) sum_mu xi_i^mu        (response to the external bid)
    d_i  = (2/N) sum_mu (xi_i^mu)^2          (self-coupling, J_ii)

after which one batch step of the simulator's coupling route is a single
matrix-vector product over the exact integer matrix X (integer_couplings).
That compile reads the draw's row blocks once and keeps xi only as two
packed bit planes, so it never holds the int8 N x p table, and it sums X
inside X's own buffer.  The Gram route's compile (gram_band) sums
G = xi^T xi from the same blocks inside G's own buffer in the same way: both
hold their matrix's upper triangle, packed in row panels of BAND rows
(_upper_panels), and add float32 upper-triangle panel products (exact below
FLOAT32_EXACT_TERMS terms) into it through one routine (_panel_sum).  G is
then reduced in those panels to the band B = Q^T G Q of bandwidth BAND
(_reduce_to_band), so the packed layout never leaves this module.

A sample and its start depend on (N, p, seed) alone.  The seed splits into
two independent sub-streams, read only here: one draws the tables over
row_blocks, the one row partition of the N x p table, which the field h of
the compile and every whole-sample feed cut the same way; the other draws
the start's signs (init_state).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

# Budget for one quenched sample: N*p int8 entries per table.
MAX_TABLE_ENTRIES = 2**28

# Entries of one block of row_blocks (at least 8 rows whatever p).
BLOCK_ENTRIES = 2**18

# Rows of the float32 upper-triangle products that sum X and G, of the
# chunks in which the coupling compile unpacks xi, and the fewest columns of
# its stage (a multiple of 8, whole bytes of the packed planes): at
# p = 900-2100 (warm, 2-vCPU Xeon) products of 64-256 rows summed G within
# about 10% of each other, and of 320 rows, which leave the stage fewer
# rows, 26% slower at p = 900.
TILE = 160

# Rows of the panels in which both compiles hold their matrix's upper
# triangle, and the bandwidth of the Gram route's band B = Q^T G Q (a divisor
# of TILE, so that each product of TILE rows covers whole panels).
BAND = 32

# float32 holds every integer of magnitude up to 2^24 exactly, so sums of
# products of entries in {-1, 0, 1} stay exact in float32 below this many terms.
FLOAT32_EXACT_TERMS = 2**24

# Shortest measurement window of a run that gives stable estimates.
MIN_MEASURE_STEPS = 16

# Sub-stream indices derived from GameParams.seed, so that strategy draws and
# initial-condition draws come from independent generators.
_STREAM_DISORDER = 0
_STREAM_INIT = 1


class ContractError(ValueError):
    """A caller violated an interface precondition (shape, range, or order)."""


class ResourceBudgetError(MemoryError):
    """Requested strategy tables exceed the configured allocation budget."""


class DegenerateStateError(RuntimeError):
    """The valuation vector became exactly zero, or its mean square overflowed
    float64, so phi = q/lambda is undefined."""


def check_alpha(alpha: float) -> None:
    """Raise unless the pattern-to-agent ratio alpha is finite and > 0."""
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ContractError(f"alpha must be finite and > 0, got {alpha}")


def check_kappa(kappa: float) -> None:
    """Raise unless the self-impact correction kappa lies in [0, 1]."""
    if not 0.0 <= kappa <= 1.0:
        raise ContractError(f"kappa must lie in [0, 1], got {kappa}")


def check_init_scale(init_scale: float) -> None:
    """Raise unless the start's scale init_scale is finite and > 0."""
    if not (init_scale > 0.0 and np.isfinite(init_scale)):
        raise ContractError(f"init_scale must be > 0, got {init_scale}")


def rng_stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent, reproducible generator for one purpose under one seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


@dataclass(frozen=True)
class ExternalBid:
    """External additive contribution to the total market bid.

    A_e(t) = amplitude * (-1)^(zeta*t): a constant offset for zeta=0, a
    period-2 alternation for zeta=1.  amplitude=0 reproduces the unperturbed
    game for either zeta.  amplitude is at most 1e76: the theory's
    R = (3 + 2 A^2)^2 / (2 + 2 A^2) overflows from A ~ 8.2e76, and at 1e76
    every engine still runs or fails by its own checks.
    """

    zeta: int = 0
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.zeta not in (0, 1):
            raise ContractError(f"zeta must be 0 or 1, got {self.zeta!r}")
        if not 0.0 <= self.amplitude <= 1e76:
            raise ContractError(f"amplitude must lie in [0, 1e76], got {self.amplitude!r}")

    def series(self, n_steps: int) -> np.ndarray:
        """A_e(t) at times t = 0, 1, ..., n_steps-1."""
        out = np.full(n_steps, self.amplitude, dtype=np.float64)
        if self.zeta == 1:
            out[1::2] *= -1.0
        return out


@dataclass(frozen=True)
class GameParams:
    """Full experiment configuration for one quenched run.

    n_agents == N; the pattern count is p = round(alpha*N), floored at 1, and
    realized_alpha = p/N is what theory comparisons should use.  kappa in
    [0, 1] is the degree of self-impact correction.  init_scale is the
    magnitude of the initial valuations (1 = biased start, 1e-4 = unbiased
    start), whose signs are fair coins.
    """

    n_agents: int
    alpha: float
    kappa: float = 0.0
    external: ExternalBid = field(default_factory=ExternalBid)
    init_scale: float = 1.0
    t_equilibrate: int = 1000
    t_measure: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ContractError(f"n_agents must be >= 1, got {self.n_agents}")
        check_alpha(self.alpha)
        if not np.isfinite(self.alpha * self.n_agents):
            raise ContractError(
                f"alpha * n_agents must be finite, got {self.alpha} * {self.n_agents}")
        check_kappa(self.kappa)
        check_init_scale(self.init_scale)
        if self.t_equilibrate < 0:
            raise ContractError("t_equilibrate must be >= 0")
        if self.t_measure < MIN_MEASURE_STEPS:
            raise ContractError(f"t_measure must be >= {MIN_MEASURE_STEPS} for stable estimates")
        if not 0 <= self.seed < 2**64:
            raise ContractError("seed must be a 64-bit unsigned integer")

    @property
    def n_patterns(self) -> int:
        return max(1, int(round(self.alpha * self.n_agents)))

    @property
    def realized_alpha(self) -> float:
        return self.n_patterns / self.n_agents


@dataclass(frozen=True)
class DisorderSample:
    """One quenched strategy realization.

    xi is the (N, p) int8 half-difference of two +-1 tables, with entries in
    {-1, 0, +1}.  Their half-sum omega enters only through the length-p float
    vector Omega = N^(-1/2) sum_i omega_i^mu, so omega itself is not kept.
    """

    xi: np.ndarray
    Omega: np.ndarray


def row_blocks(n: int, p: int) -> list[slice]:
    """The one row partition of an N x p table: whole groups of 8 rows, at
    least 8, and the most within BLOCK_ENTRIES entries; only the last block
    may be shorter.

    The disorder draw yields its blocks over it, so every block but the last
    ends on a uint32 boundary of the raw stream, and the coupling compile
    takes h over it, one float64 matrix-vector product per block.  Those
    products have the same bits on 1 and 2 BLAS threads at every p, where
    one product over the whole matrix does not (at N = 1500, alpha = 2), nor
    do products of one row each (at N = 100, alpha = 1400).
    """
    rows = max(8, BLOCK_ENTRIES // p // 8 * 8)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def disorder_blocks(params: GameParams) -> tuple[Iterator[tuple[slice, np.ndarray]], np.ndarray]:
    """xi of the sample of params over row_blocks(N, p), and its Omega, which
    holds its values once the blocks are exhausted.

    Each {0, 1} table is the draw rng.integers(0, 2, size=(n, p),
    dtype=np.int8), taken from the raw stream: that draw reads consecutive
    uint32 outputs byte by byte, low byte first, keeps the top bit of each
    byte and drops the bytes left over in the last output.  The second table
    follows the first's ceil(n p / 4) outputs in the stream; a second
    generator on the same seed is advanced past them (PCG64 yields two uint32
    outputs per step), so both tables are drawn block by block, side by
    side: a block of whole groups of 8 rows takes whole outputs of either
    generator.  Each yielded int8 block is fresh and is not written again.
    The table budget is checked at the call, before any draw.
    """
    n, p = params.n_agents, params.n_patterns
    if n * p > MAX_TABLE_ENTRIES:
        raise ResourceBudgetError(
            f"disorder sample needs {n * p} entries/table, budget is {MAX_TABLE_ENTRIES}"
        )
    first = rng_stream(params.seed, _STREAM_DISORDER)
    second = rng_stream(params.seed, _STREAM_DISORDER)
    words = -(-n * p // 4)
    second.bit_generator.advance(words // 2)
    if words % 2:
        second.integers(0, 2**32, dtype=np.uint32)
    # with the tables 2 r - 1 for draws r in {0, 1}: xi = r1 - r2, omega = r1 + r2 - 1,
    # so the column sums of omega are exact integer sums of the draws (int32
    # within a block, int64 over the blocks)
    omega_sums = np.full(p, -n, dtype=np.int64)
    Omega = np.empty(p)

    def coins(rng: np.random.Generator, m: int) -> np.ndarray:
        raw = rng.integers(0, 2**32, size=-(-m * p // 4), dtype=np.uint32).astype("<u4", copy=False)
        table = raw.view(np.uint8)
        np.right_shift(table, 7, out=table)
        return table[:m * p].view(np.int8).reshape(m, p)

    def blocks() -> Iterator[tuple[slice, np.ndarray]]:
        for rows in row_blocks(n, p):
            r1 = coins(first, rows.stop - rows.start)
            r2 = coins(second, rows.stop - rows.start)
            np.add(omega_sums, r1.sum(axis=0, dtype=np.int32), out=omega_sums)
            np.add(omega_sums, r2.sum(axis=0, dtype=np.int32), out=omega_sums)
            xi = np.subtract(r1, r2, out=r1)
            del r2  # so the next block's draws join at most the block yielded now
            yield rows, xi
        np.divide(omega_sums, np.sqrt(n), out=Omega)

    return blocks(), Omega


def generate_disorder(params: GameParams) -> DisorderSample:
    """Draw the two +-1 look-up tables and reduce them to (xi, Omega).

    Every table entry is an independent fair coin.  The draw is a pure
    function of params.seed: identical seeds give bit-identical samples.
    The tables are drawn in row blocks, so only xi is held whole.
    """
    blocks, Omega = disorder_blocks(params)
    xi = np.empty((params.n_agents, params.n_patterns), dtype=np.int8)
    for rows, block in blocks:
        xi[rows] = block
    xi.flags.writeable = Omega.flags.writeable = False
    return DisorderSample(xi=xi, Omega=Omega)


@dataclass(frozen=True)
class AgentState:
    """Microscopic state at t = 0: valuations q, constraint force lam,
    positions phi=q/lam."""

    q: np.ndarray
    lam: float
    phi: np.ndarray


def init_state(params: GameParams) -> AgentState:
    """Random +-init_scale valuations; lambda(0) = init_scale exactly.  The
    signs are fair coins of the seed's second sub-stream, independent of the
    disorder draw's."""
    rng = rng_stream(params.seed, _STREAM_INIT)
    signs = np.where(rng.random(params.n_agents) < 0.5, 1.0, -1.0)
    q = params.init_scale * signs
    return AgentState(q=q, lam=params.init_scale, phi=signs.copy())


def _packed(blocks: Iterable[tuple[slice, np.ndarray]], n: int, p: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """The bit planes xi > 0 and xi < 0 of the (rows, int8 xi[rows]) blocks,
    packed along the patterns (N p / 4 bytes), and the exact integer row
    sums of xi (int32 holds them: p <= MAX_TABLE_ENTRIES < 2^31)."""
    planes = np.empty((2, n, -(-p // 8)), dtype=np.uint8)
    sums = np.empty(n, dtype=np.int32)
    for rows, xi in blocks:
        planes[0, rows] = np.packbits(xi > 0, axis=1)
        planes[1, rows] = np.packbits(xi < 0, axis=1)
        xi.sum(axis=1, dtype=np.int32, out=sums[rows])
    return planes, sums


def _unpack(planes: np.ndarray, rows: slice, start: int, out: np.ndarray) -> None:
    """xi[rows, start:start + out.shape[1]] into out, for start a multiple of 8."""
    width = out.shape[1]
    cols = slice(start // 8, -(-(start + width) // 8))
    xi, negative = np.unpackbits(planes[:, rows, cols], axis=2, count=width)
    xi -= negative  # -1 wraps to 255
    np.copyto(out, xi.view(np.int8))


def _upper_products(S: np.ndarray, height: int, out: np.ndarray
                    ) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, S[:, i0:i1]^T S[:, i0:]) for the row panels i0:i1 of height rows
    of S^T S, each product the panel's part from column i0 on, computed into
    the flat float32 buffer out (height * S.shape[1] entries) and valid until
    the next is yielded: one triangle, as in a symmetric rank-k update (SYRK;
    Dongarra, Du Croz, Hammarling & Duff, ACM TOMS 16, 1990)."""
    n = S.shape[1]
    for i0 in range(0, n, height):
        i1 = min(i0 + height, n)
        yield i0, np.matmul(S[:, i0:i1].T, S[:, i0:],
                            out=out[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0))


def _upper_size(p: int) -> int:
    """Entries of _upper_panels over p columns: p (p + BAND) / 2, less
    r (BAND - r) / 2 for a last panel of r rows."""
    r = (p - 1) % BAND + 1
    return (p * (p + BAND) - r * (BAND - r)) // 2


def _upper_panels(G: np.ndarray, p: int) -> list[np.ndarray]:
    """The upper triangle of a symmetric p x p matrix held in the flat array
    G (_upper_size(p) entries) as its row panels of BAND rows, in order:
    panel k is the C-contiguous (min(BAND, p - k0), p - k0) view of rows
    k0 = k BAND on and columns k0 on, its diagonal block whole."""
    panels, start = [], 0
    for k0 in range(0, p, BAND):
        rows, width = min(BAND, p - k0), p - k0
        panels.append(G[start:start + rows * width].reshape(rows, width))
        start += rows * width
    return panels


def _panel_sum(acc: np.ndarray, spare: np.ndarray, p: int
               ) -> tuple[Callable[[np.ndarray], None], np.ndarray]:
    """The sum of the staged rows S (p columns) of S^T S into the panels of
    _upper_panels over acc (_upper_size(p) entries, from zeros): flush(S)
    adds S's products of min(TILE, p) rows from _upper_products, each into
    the BAND-row panels it covers.  Where the flat float32 spare leaves at
    least that many rows of p beside one such product, the product is held
    from spare's start, and otherwise in a buffer of its own; returned
    beside flush is the rest of spare, the space for the stage."""
    panels, height = _upper_panels(acc, p), min(TILE, p)
    if 2 * height * p <= spare.size:
        product, spare = spare[:height * p], spare[height * p:]
    else:
        product = np.empty(height * p, dtype=np.float32)

    def flush(S: np.ndarray) -> None:
        for i0, prod in _upper_products(S, height, product):
            for k0 in range(i0, i0 + prod.shape[0], BAND):
                panel = panels[k0 // BAND]
                panel += prod[k0 - i0:k0 - i0 + panel.shape[0], k0 - i0:]

    return flush, spare


def integer_couplings(blocks: Iterable[tuple[slice, np.ndarray]], n: int, Omega: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exact integer matrix X = xi xi^T, with h, b and d of the couplings,
    from the (rows, int8 xi[rows]) blocks of a sample of n agents whose
    pattern bias Omega holds its values once the blocks are read.

    xi is kept only as its two packed bit planes, and b comes from the exact
    row sums taken while packing.  h is taken first, before X exists, over
    row_blocks(n, p) of xi, whatever partition the blocks read came in,
    unpacked in float64 into a buffer of its own, one float64
    matrix-vector product per block.  X is then summed inside its own n^2
    entries: the first _upper_size(n) hold X's upper triangle as the
    panels of _panel_sum, and the bytes after them, viewed as float32, are
    its spare space, which holds the product from N = 672 on (at BAND = 32
    and TILE = 160).  The rest is the stage where it holds at least TILE
    columns of xi (from N = 352 on), and otherwise the stage is a buffer of
    TILE columns of its own.
    xi is unpacked into the stage in float32, TILE rows at a time, one
    column block at a time, each block as wide as the stage holds in whole
    bytes of the planes (224 columns at N = 800, 1320 at N = 3000; only the
    last may be narrower), and each block blk is flushed as S = blk^T.  At
    the end the panels are expanded in place into X's dense rows, the last
    panel first, and each is mirrored into the lower triangle, so no N x N
    product is held.  A product sums at most a block's width of terms in
    {-1, 0, 1}, exact in float32; the sum over blocks is an integer bounded
    by p, accumulated in float32 for p < FLOAT32_EXACT_TERMS and in float64
    from there on, so any stage gives the same bits.  d is X's diagonal.
    """
    p = Omega.shape[0]
    planes, sums = _packed(blocks, n, p)
    rows = row_blocks(n, p)
    field = np.empty(rows[0].stop * p)
    h = np.empty(n)
    for r in rows:
        block = field[:(r.stop - r.start) * p].reshape(-1, p)
        _unpack(planes, r, 0, block)
        h[r] = (2.0 / np.sqrt(n)) * (block @ Omega)
    del field, block
    b = (2.0 / np.sqrt(n)) * sums
    X = np.zeros((n, n), dtype=np.float32 if p < FLOAT32_EXACT_TERMS else np.float64)
    acc = X.reshape(-1)[:_upper_size(n)]
    flush, spare = _panel_sum(acc, X.reshape(-1).view(np.float32)[acc.nbytes // 4:], n)
    width = max(TILE, spare.size // n // 8 * 8)
    stage = spare if n * width <= spare.size else np.empty(n * width, dtype=np.float32)
    for start in range(0, p, width):
        blk = stage[:n * min(width, p - start)].reshape(n, -1)
        for i0 in range(0, n, TILE):
            _unpack(planes, slice(i0, i0 + TILE), start, blk[i0:i0 + TILE])
        flush(blk.T)
    for k0, panel in reversed(list(zip(range(0, n, BAND), _upper_panels(acc, n)))):
        k1 = k0 + panel.shape[0]
        X[k0:k1, k0:] = panel
        X[k1:, k0:k1] = X[k0:k1, k1:].T
    d = (2.0 / n) * X.diagonal().astype(np.float64)
    return X, h, b, d


def _integer_gram(blocks: Iterable[tuple[slice, np.ndarray]], p: int, phi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The exact Gram matrix G = xi^T xi in float64, its upper triangle
    packed in the flat array of _upper_panels (_upper_size(p) entries), and
    xi^T phi, of the (rows, int8 xi[rows]) blocks of a sample with p
    patterns, for positions phi, exact where phi is integer (+-1 at a run's
    start); the blocks are read once, in any partition of the rows.

    G's float64 buffer is viewed as two float32 halves of _upper_size(p)
    entries: the first sums G's panels through _panel_sum, and the second
    is its spare space, which holds the product from p = 608 on.  The rest
    of the spare half is the stage: the rows of the blocks are cast into
    it one after another, a block split where the stage fills, and
    whenever it is full, and once at the end, the staged rows are flushed
    into the panels.  The sum is then widened to float64 in place.  From
    N = FLOAT32_EXACT_TERMS on G itself is the sum and the spare half a
    float32 buffer of its own."""
    # float32 products and sums of integers bounded by N are exact below
    # 2^24, so G has the same bits for any row blocks and any stage.  The
    # sum is widened from the last entries down, in chunks [ceil(b/2), b)
    # whose float64 destination starts where their float32 source ends or
    # later, so the source entries still to come stay intact.  xi^T phi is
    # taken from each staged piece: its sums within and over the pieces are
    # exact integers, so it too has the same bits for any blocks
    n, size = phi.shape[0], _upper_size(p)
    G, xt_phi = np.zeros(size), np.zeros(p)
    acc, spare = ((G.view(np.float32)[:size], G.view(np.float32)[size:])
                  if n < FLOAT32_EXACT_TERMS else (G, np.empty(size, dtype=np.float32)))
    flush, spare = _panel_sum(acc, spare, p)
    stage = spare[:spare.size // p * p].reshape(-1, p)
    phi32, filled = phi.astype(np.float32), 0
    for rows, xi in blocks:
        phi_rows = phi32[rows]
        while len(xi):
            part = stage[filled:filled + len(xi)]
            np.copyto(part, xi[:len(part)])
            xt_phi += phi_rows[:len(part)] @ part
            xi, phi_rows, filled = xi[len(part):], phi_rows[len(part):], filled + len(part)
            if filled == len(stage):
                flush(stage)
                filled = 0
    if filled:
        flush(stage[:filled])
    if acc is not G:
        b = size
        while b > 1:
            a = (b + 1) // 2
            G[a:b] = acc[a:b]
            b = a
        G[0] = acc[0]
    return G, xt_phi


def _reduce_to_band(panels: list[np.ndarray], vectors: np.ndarray) -> np.ndarray:
    """The (nb, b, 3b) row blocks [B_{k,k-1} | D_k | B_{k,k+1}] of
    B = Q^T A Q of bandwidth b = BAND, nb = ceil(p / b), zero-padded past p
    and at both ends, for a symmetric float64 A held as the row panels of
    its upper triangle (_upper_panels), reduced in place by the first stage
    of two-stage reduction (Bischof, Lang & Sun, ACM TOMS 26, 2000); each
    row v of vectors becomes Q^T v.  The reduction leaves panel k holding
    B's diagonal block D_k in its first b columns and right of them R_k^T,
    the transposed upper triangular sub-diagonal block, and nothing else of
    the panels is meaningful: B_{k,k+1} = R_k^T comes from panel k,
    B_{k,k-1} = R_{k-1} is its transpose in block row k + 1, and each D_k
    comes from its upper triangle, so that B is exactly symmetric.  The
    blocks are allocated once the reduction's buffers are freed.

    The part of panel k right of its diagonal block, U[:, b:] =
    A[k1:, k0:k1]^T, is split by LAPACK's Householder QR of its transpose,
    A[k1:, k0:k1] = (I - Y T Y^T) R, with T from dlarft's recurrence
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989), so that
    tau = 0 gives H = I.  The later panels, the upper triangle of the
    trailing matrix A22, then take A22 -= Y Z^T + Z Y^T = [Y Z] [Z Y]^T,
    with P = A22 Y T and Z = P - (1/2) Y (Y T)^T P, from one (p - b, 3b)
    buffer [Y | Z | Y].  A22 Y takes two products per later panel V: its
    own rows are V times Y's rows from V's first column on, and the rows
    below it gain the lower triangle's share, V's part right of its
    diagonal block, transposed, times V's rows of Y.  Each later panel takes
    its own rows of the update, one product of depth 2b, so the update does
    half the flops of one over the whole of A22.  A22 Y is summed in a
    contiguous (p - b, b) buffer of its own, as adds into the strided Z
    took half as long again, and one scratch buffer of as many entries
    takes the shares and the panels' updates.
    """
    p, b = panels[0].shape[1], BAND
    W, (ay, scratch) = np.empty((max(p - b, 0), 3 * b)), np.empty((2, max(p - b, 0) * b))
    for k, U in enumerate(panels[:-1]):
        m, later = p - (k + 1) * b, panels[k + 1:]
        Wk = W[:m]
        Y, Z = Wk[:, :b], Wk[:, b:2 * b]
        h, tau = np.linalg.qr(U[:, b:].T, mode="raw")
        Y[:] = h.T
        del h  # one m x b copy of the panel at a time
        U[:, b:2 * b] = np.triu(Y[:b]).T
        Y[:b] = np.tril(Y[:b], -1)
        np.fill_diagonal(Y, 1.0)
        Wk[:, 2 * b:] = Y
        YtY, T = Y.T @ Y, np.zeros((b, b))
        for j, tau_j in enumerate(tau):  # dlarft, forward and columnwise
            T[j, j] = tau_j
            T[:j, j] = -tau_j * (T[:j, :j] @ YtY[:j, j])
        AY = ay[:m * b].reshape(m, b)
        for i in range(len(later) - 1, -1, -1):  # rows are written before shares reach them
            V, r0 = later[i], i * b
            r1 = r0 + V.shape[0]
            np.matmul(V, Y[r0:], out=AY[r0:r1])
            if r1 < m:
                AY[r1:] += np.matmul(V[:, b:].T, Y[r0:r1],
                                     out=scratch[:(m - r1) * b].reshape(m - r1, b))
        np.matmul(AY, T, out=Z)
        Z -= Y @ (0.5 * T.T @ (Y.T @ Z))
        tail = vectors[:, p - m:]
        tail -= ((tail @ Y) @ T) @ Y.T
        for i, V in enumerate(later):
            V -= np.matmul(Wk[i * b:i * b + V.shape[0], :2 * b], Wk[i * b:, b:].T,
                           out=scratch[:V.size].reshape(V.shape))
        del Wk, Y, Z, AY
    del W, ay, scratch
    blocks = np.zeros((len(panels), b, 3 * b))
    for k, U in enumerate(panels):
        r = U.shape[0]
        D, right = U[:, :r], U[:, r:r + b]
        blocks[k, :r, b:b + r] = np.triu(D) + np.triu(D, 1).T
        blocks[k, :r, 2 * b:2 * b + right.shape[1]] = right
    blocks[1:, :, :b] = blocks[:-1, :, 2 * b:].transpose(0, 2, 1)
    return blocks


def gram_band(blocks: Iterable[tuple[slice, np.ndarray]], Omega: np.ndarray, state: AgentState
              ) -> tuple[np.ndarray, np.ndarray]:
    """The Gram route's compile, from the (rows, int8 xi[rows]) blocks of a
    sample with pattern bias Omega, for runs from state: the row blocks
    (_reduce_to_band) of the band B = Q^T G Q of G = xi^T xi, and the rows
    Q^T 1, Q^T Omega and Q^T u with u = lam xi^T phi = xi^T q0, each
    zero-padded with BAND entries in front and (nb + 1) BAND - p behind,
    nb = ceil(p / BAND).  G is summed exactly by _integer_gram, as the
    packed panels of its upper triangle, reduced to the band in them as 1,
    Omega and u are rotated, and dropped once B's blocks are copied out."""
    p, b = Omega.shape[0], BAND
    G, u = _integer_gram(blocks, p, state.phi)
    u *= state.lam
    vectors = np.zeros((3, (-(-p // b) + 2) * b))
    vectors[0, b:b + p] = 1.0
    vectors[1:, b:b + p] = Omega, u
    return _reduce_to_band(_upper_panels(G, p), vectors[:, b:b + p]), vectors


def precompute_couplings(sample: DisorderSample
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coupling route's compile of a whole sample: (X, h, b, d) of
    integer_couplings over the sample's row_blocks, so J = (2/N) X."""
    n, p = sample.xi.shape
    return integer_couplings(((rows, sample.xi[rows]) for rows in row_blocks(n, p)), n,
                             sample.Omega)
