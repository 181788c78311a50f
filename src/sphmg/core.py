"""Game configuration, quenched strategy disorder, and compiled couplings.

N agents each hold two binary look-up tables over p = round(alpha*N)
information patterns.  Only the half-difference xi and half-sum omega of the
two tables enter the batch dynamics; omega appears through the pattern bias
Omega_mu = N^(-1/2) sum_i omega_i^mu.  Because the batch valuation update is
affine in the normalized positions phi, a quenched sample can be compiled once
into dense couplings

    J_ij = (2/N) sum_mu xi_i^mu xi_j^mu      (agent-agent coupling)
    h_i  = (2/sqrt(N)) sum_mu xi_i^mu Omega_mu
    b_i  = (2/sqrt(N)) sum_mu xi_i^mu        (response to the external bid)
    d_i  = (2/N) sum_mu (xi_i^mu)^2          (self-coupling, J_ii)

after which one batch step is a single matrix-vector product.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

# Budget for one quenched sample: N*p int8 entries per table.
MAX_TABLE_ENTRIES = 2**28

# Entries of xi cast to float at a time where a product runs over row blocks.
BLOCK_ENTRIES = 2**18

# float32 holds every integer of magnitude up to 2^24 exactly, so sums of
# products of entries in {-1, 0, 1} stay exact in float32 below this many terms.
FLOAT32_EXACT_TERMS = 2**24

# Sub-stream indices derived from GameParams.seed, so that strategy draws and
# initial-condition draws come from independent generators.
_STREAM_DISORDER = 0
_STREAM_INIT = 1


class ContractError(ValueError):
    """A caller violated an interface precondition (shape, range, or order)."""


class ResourceBudgetError(MemoryError):
    """Requested strategy tables exceed the configured allocation budget."""


class DegenerateStateError(RuntimeError):
    """The valuation vector became exactly zero, so phi = q/lambda is undefined."""


def rng_stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent, reproducible generator for one purpose under one seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose,)))


@dataclass(frozen=True)
class ExternalBid:
    """External additive contribution to the total market bid.

    value_at(t) = amplitude * (-1)^(zeta*t): a constant offset for zeta=0, a
    period-2 alternation for zeta=1.  amplitude=0 reproduces the unperturbed
    game for either zeta.
    """

    zeta: int = 0
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.zeta not in (0, 1):
            raise ContractError(f"zeta must be 0 or 1, got {self.zeta!r}")
        if not (self.amplitude >= 0.0 and np.isfinite(self.amplitude)):
            raise ContractError(f"amplitude must be finite and >= 0, got {self.amplitude!r}")

    def value_at(self, t: int) -> float:
        if self.zeta == 1 and t % 2 == 1:
            return -self.amplitude
        return self.amplitude

    def series(self, n_steps: int) -> np.ndarray:
        """Values at times 0, 1, ..., n_steps-1."""
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
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ContractError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ContractError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not (self.init_scale > 0.0 and np.isfinite(self.init_scale)):
            raise ContractError(f"init_scale must be > 0, got {self.init_scale}")
        if self.t_equilibrate < 0:
            raise ContractError("t_equilibrate must be >= 0")
        if self.t_measure < 1:
            raise ContractError("t_measure must be >= 1")
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

    @property
    def n_agents(self) -> int:
        return self.xi.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.xi.shape[1]


@dataclass(frozen=True)
class Couplings:
    """Dense coupling tables compiled from one DisorderSample (float64)."""

    J: np.ndarray
    h: np.ndarray
    b: np.ndarray
    d: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.h.shape[0]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def disorder_blocks(params: GameParams, entries: int = 0
                    ) -> tuple[Iterator[tuple[slice, np.ndarray]], np.ndarray]:
    """xi of the sample of params in row blocks of about max(BLOCK_ENTRIES,
    entries) entries, and its Omega, which holds its values once the blocks
    are exhausted.

    Each {0, 1} table is the draw rng.integers(0, 2, size=(n, p),
    dtype=np.int8), taken from the raw stream: that draw reads consecutive
    uint32 outputs byte by byte, low byte first, keeps the top bit of each
    byte and drops the bytes left over in the last output.  The second table
    follows the first's ceil(n p / 4) outputs in the stream; a second
    generator on the same seed is advanced past them (PCG64 yields two uint32
    outputs per step), so both tables are drawn block by block, side by
    side.  A block holds whole groups of 8 rows, so every block but the last
    ends on a uint32 boundary.  Each yielded int8 block is fresh and is not
    written again.  The table budget is checked at the call, before any draw.
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
    rows = max(8, max(BLOCK_ENTRIES, entries) // p // 8 * 8)
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
        for start in range(0, n, rows):
            block = slice(start, min(start + rows, n))
            r1 = coins(first, block.stop - start)
            r2 = coins(second, block.stop - start)
            np.add(omega_sums, r1.sum(axis=0, dtype=np.int32), out=omega_sums)
            np.add(omega_sums, r2.sum(axis=0, dtype=np.int32), out=omega_sums)
            xi = np.subtract(r1, r2, out=r1)
            del r2  # so the next block's draws join at most the block yielded now
            yield block, xi
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
    _freeze(xi, Omega)
    return DisorderSample(xi=xi, Omega=Omega)


def self_couplings(xi: np.ndarray) -> np.ndarray:
    """Diagonal d_i = (2/N) sum_mu |xi_i^mu| that the kappa term feeds back."""
    return (2.0 / xi.shape[0]) * np.abs(xi).sum(axis=1, dtype=np.int64).astype(np.float64)


def row_blocks(xi: np.ndarray) -> list[slice]:
    """Row slices of xi of about BLOCK_ENTRIES entries each.

    Blocks of more than 8 rows hold whole groups of 8, so that a matrix-vector
    product over the blocks gives each row the same BLAS kernel path, and the
    same bits, as one product over the whole matrix.
    """
    n, p = xi.shape
    rows = max(1, BLOCK_ENTRIES // p)
    if rows > 8:
        rows -= rows % 8
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _integer_couplings(sample: DisorderSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact integer matrix X = xi xi^T, with h and b of the couplings.

    X is accumulated over column blocks of xi min(N, p) wide, cast into one
    reused float32 buffer, so no full float copy of xi is held and the
    scratch is bounded by N^2 entries; narrower blocks make OpenBLAS's syrk,
    which numpy takes for block @ block.T, slow.  A block's products sum at
    most min(N, p) terms in {-1, 0, 1}, exact in float32 under the table
    budget; the sum over blocks is an integer bounded by p, accumulated in
    float32 for p < FLOAT32_EXACT_TERMS and in float64 from there on.  h is
    taken over row blocks of xi, one float64 dot product per agent, and b
    from exact integer row sums.
    """
    n, xi = sample.n_agents, sample.xi
    p = xi.shape[1]
    width, acc = min(n, p), np.float32 if p < FLOAT32_EXACT_TERMS else np.float64
    buf = np.empty((n, width), dtype=np.float32)
    X = tmp = None
    for start in range(0, p, width):
        block = buf[:, :min(width, p - start)]
        np.copyto(block, xi[:, start:start + width])
        tmp = np.matmul(block, block.T, out=tmp)
        if X is None:  # the first product becomes X, cast only for a float64 sum
            X, tmp = tmp.astype(acc, copy=False), None
        else:
            X += tmp
    del buf, block, tmp  # free the float32 scratch before h's float64 row blocks
    h = np.empty(n)
    for rows in row_blocks(xi):
        h[rows] = (2.0 / np.sqrt(n)) * (xi[rows].astype(np.float64) @ sample.Omega)
    b = (2.0 / np.sqrt(n)) * xi.sum(axis=1, dtype=np.int64)
    return X, h, b


def precompute_couplings(sample: DisorderSample) -> Couplings:
    """Compile (J, h, b, d) in float64 so that one batch step is an O(N^2)
    product: J = (2/N) X with the exact integer X = xi xi^T, and d its
    diagonal."""
    X, h, b = _integer_couplings(sample)
    J = X.astype(np.float64)
    J *= 2.0 / sample.n_agents
    d = J.diagonal().copy()
    _freeze(J, h, b, d)
    return Couplings(J=J, h=h, b=b, d=d)
