import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphmg import (
    ContractError,
    ExternalBid,
    GameParams,
    KernelParams,
    ResourceBudgetError,
    classify_phase,
    generate_disorder,
    precompute_couplings,
)
from sphmg import core
from oracles import (
    disorder_from_pm_tables,
    halve_tables,
    pm_tables,
    sample_from_tables,
    whole_table_disorder,
)
from tracing import traced_peak


def test_external_bid_values():
    static = ExternalBid(zeta=0, amplitude=1.5)
    assert static.series(4).tolist() == [1.5, 1.5, 1.5, 1.5]
    osc = ExternalBid(zeta=1, amplitude=2.0)
    assert np.array_equal(osc.series(5), [2.0, -2.0, 2.0, -2.0, 2.0])
    off = ExternalBid(zeta=1, amplitude=0.0)
    assert off.series(6).tolist() == [0.0] * 6
    # the sign flip leaves -0.0 at odd t, bit for bit what the simulator steps with
    assert np.signbit(off.series(4)).tolist() == [False, True, False, True]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(zeta=2, amplitude=1.0),
        dict(zeta=0, amplitude=-0.5),
        dict(zeta=1, amplitude=2e76),
    ],
)
def test_external_bid_rejects(kwargs):
    with pytest.raises(ContractError):
        ExternalBid(**kwargs)


def test_params_pattern_count_and_realized_alpha():
    p = GameParams(n_agents=100, alpha=1.0)
    assert p.n_patterns == 100 and p.realized_alpha == 1.0
    p = GameParams(n_agents=3, alpha=0.1)  # round(0.3) = 0 floored at 1
    assert p.n_patterns == 1
    assert p.realized_alpha == pytest.approx(1 / 3)
    p = GameParams(n_agents=1000, alpha=2.5004)
    assert p.n_patterns == 2500 and p.realized_alpha == 2.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_agents=0, alpha=1.0),
        dict(n_agents=10, alpha=0.0),
        dict(n_agents=10, alpha=1.0, kappa=-0.1),
        dict(n_agents=10, alpha=1.0, kappa=1.5),
        dict(n_agents=10, alpha=1.0, init_scale=0.0),
        dict(n_agents=10, alpha=1.0, t_equilibrate=-1),
        dict(n_agents=10, alpha=1.0, t_measure=0),
        dict(n_agents=10, alpha=1.0, seed=-1),
        dict(n_agents=10, alpha=1.0, seed=2**64),
        dict(n_agents=8, alpha=1e308),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ContractError):
        GameParams(**kwargs)


def test_alpha_zero_is_refused_alike_by_every_engine():
    errors = []
    for refuse in (lambda: KernelParams(alpha=0.0), lambda: GameParams(n_agents=10, alpha=0.0),
                   lambda: classify_phase(0.0, 0.0, 0.0, 0)):
        with pytest.raises(ContractError) as info:
            refuse()
        errors.append(str(info.value))
    assert errors == ["alpha must be finite and > 0, got 0.0"] * 3


def test_two_agent_hand_example():
    # tables R1 = (+1, +1), R2 = (+1, -1) over a single pattern
    sample = sample_from_tables([[1], [1]], [[1], [-1]])
    assert sample.xi[:, 0].tolist() == [0, 1]
    assert halve_tables([[1], [1]], [[1], [-1]])[1][:, 0].tolist() == [1, 0]
    assert sample.Omega[0] == pytest.approx(1 / np.sqrt(2))
    X, _, b, d = precompute_couplings(sample)
    assert X.tolist() == [[0.0, 0.0], [0.0, 1.0]]  # J = (2/N) X = X at N = 2
    assert d.tolist() == [0.0, 1.0]
    assert b.tolist() == [0.0, pytest.approx(2 / np.sqrt(2))]


def test_xi_omega_exclusivity():
    params = GameParams(n_agents=100, alpha=1.0, seed=5)
    xi, omega = halve_tables(*pm_tables(params))
    assert np.all(xi * omega == 0)
    assert np.all(np.abs(xi) + np.abs(omega) == 1)
    assert set(np.unique(generate_disorder(params).xi)) <= {-1, 0, 1}


def test_seed_determinism_and_independence():
    p = GameParams(n_agents=64, alpha=2.0, seed=123)
    s1 = generate_disorder(p)
    s2 = generate_disorder(p)
    assert np.array_equal(s1.xi, s2.xi) and np.array_equal(s1.Omega, s2.Omega)
    s3 = generate_disorder(GameParams(n_agents=64, alpha=2.0, seed=124))
    assert not np.array_equal(s1.xi, s3.xi)


@pytest.mark.parametrize("n_agents, alpha, seed", [(1, 1.0, 0), (7, 0.5, 1), (64, 2.0, 123),
                                                  (300, 0.3, 7919), (129, 3.1, 2**63),
                                                  (125, 0.2, 2), (30, 0.5, 3), (45, 1 / 3, 4),
                                                  (1999, 1.5, 5)])
def test_disorder_draw_matches_pm_table_oracle(n_agents, alpha, seed):
    # N p = 1, 2 and 3 mod 4 leave 3, 2 and 1 bytes of the last raw draw
    # unused; the last case is a 6 MB table
    params = GameParams(n_agents=n_agents, alpha=alpha, seed=seed)
    sample, ref = generate_disorder(params), disorder_from_pm_tables(params)
    for name in ("xi", "Omega"):
        got, want = getattr(sample, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# (N, alpha): N p = 1, 7, 36, 450, 675, 3125, 8192, 51600 and 5993002, so
# N p mod 4 = 1, 3, 0, 2, 3, 1, 0, 0, 2 and ceil(N p / 4) raw words 1, 2, 9,
# 113, 169, 782, 2048, 12900, 1498251: N = 1, p = 1, every remainder, and odd
# and even word counts
DRAW_SHAPES = [(1, 1.0), (7, 0.1), (12, 0.25), (30, 0.5), (45, 1 / 3), (125, 0.2), (64, 2.0),
               (129, 3.1), (1999, 1.5)]


@pytest.mark.parametrize("n_agents, alpha", DRAW_SHAPES)
@pytest.mark.parametrize("block_entries", [8, 24, 2**18])
def test_block_draw_matches_whole_table_draw(n_agents, alpha, block_entries, monkeypatch):
    # blocks of 8 rows (many, the last one partial), of 24 // p rows in whole
    # groups of 8, and of the default size
    monkeypatch.setattr(core, "BLOCK_ENTRIES", block_entries)
    params = GameParams(n_agents=n_agents, alpha=alpha, seed=n_agents)
    ref = whole_table_disorder(params)
    sample = generate_disorder(params)
    for name in ("xi", "Omega"):
        got, want = getattr(sample, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("n_agents, alpha", [*DRAW_SHAPES, (20, 2000.0)])
@pytest.mark.parametrize("budget", [0, 40, 2**18, 2**19])
def test_disorder_blocks_are_whole_groups_of_eight_rows(n_agents, alpha, budget, monkeypatch):
    # under any BLOCK_ENTRIES budget the draw's blocks are core.row_blocks,
    # every block but the last holds a multiple of 8 rows, and Omega holds
    # once they are drawn; p = 40000 > 2^15 takes 8-row blocks at the
    # shipping budget 2^18
    monkeypatch.setattr(core, "BLOCK_ENTRIES", budget)
    params = GameParams(n_agents=n_agents, alpha=alpha, seed=7)
    ref = whole_table_disorder(params)
    n, p = ref.xi.shape
    blocks, Omega = core.disorder_blocks(params)
    got = list(blocks)
    stops = [r.stop for r, _ in got]
    assert [r.start for r, _ in got] == [0, *stops[:-1]] and stops[-1] == n
    assert [r for r, _ in got] == core.row_blocks(n, p)
    for r, _ in got[:-1]:  # the most whole groups of 8 rows within the budget, at least one
        rows = r.stop - r.start
        assert rows % 8 == 0 and (rows == 8 or rows * p <= budget < (rows + 8) * p)
    for r, xi in got:
        assert xi.dtype == np.int8 and np.array_equal(xi, ref.xi[r])
    assert np.array_equal(Omega, ref.Omega)


def test_sign_frequencies():
    # P(xi = +1) = P(R1=+1, R2=-1) = 1/4, within sampling noise
    sample = generate_disorder(GameParams(n_agents=100, alpha=1.0, seed=7))
    freq_plus = np.mean(sample.xi == 1)
    freq_minus = np.mean(sample.xi == -1)
    tol = 5.0 * np.sqrt(0.25 * 0.75 / sample.xi.size)
    assert abs(freq_plus - 0.25) < tol
    assert abs(freq_minus - 0.25) < tol


def test_coupling_identities_and_mean_d():
    p = GameParams(n_agents=500, alpha=2.0, seed=17)
    sample = generate_disorder(p)
    X, _, _, d = precompute_couplings(sample)
    n, n_patterns = sample.xi.shape
    assert np.array_equal(X, X.T)
    assert np.array_equal((2.0 / n) * np.diag(X).astype(np.float64), d)
    assert d.min() >= 0.0
    assert d.max() <= 2.0 * n_patterns / n
    # E[xi^2] = 1/2 so E[d] = alpha
    assert abs(d.mean() - p.alpha) / p.alpha < 0.05


def test_coupling_matrix_matches_definition():
    sample = generate_disorder(GameParams(n_agents=8, alpha=0.5, seed=3))
    X, h, _, _ = precompute_couplings(sample)
    n, p = sample.xi.shape
    for i in range(n):
        for j in range(n):
            jij = 2.0 / n * sum(float(sample.xi[i, mu]) * float(sample.xi[j, mu]) for mu in range(p))
            assert 2.0 / n * float(X[i, j]) == pytest.approx(jij, abs=1e-12)
        hi = 2.0 / np.sqrt(n) * sum(float(sample.xi[i, mu]) * sample.Omega[mu] for mu in range(p))
        assert h[i] == pytest.approx(hi, abs=1e-12)


def test_field_and_drive_response_over_row_blocks(monkeypatch):
    # read in 21 blocks of two rows, the last one short, and with h over
    # row_blocks of 8 rows, the last one short: h and b still match the
    # whole-matrix float64 products
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 50)
    sample = generate_disorder(GameParams(n_agents=41, alpha=0.5, seed=6))
    pairs = [slice(i, i + 2) for i in range(0, 41, 2)]
    assert len(pairs) == 21 and len(core.row_blocks(*sample.xi.shape)) == 6
    _, h, b, _ = core.integer_couplings(((r, sample.xi[r]) for r in pairs), 41, sample.Omega)
    xd = sample.xi.astype(np.float64)
    scale = 2.0 / np.sqrt(sample.xi.shape[0])
    assert np.allclose(h, scale * (xd @ sample.Omega), rtol=0.0, atol=1e-12)
    assert np.array_equal(b, scale * xd.sum(axis=1))


def test_field_bits_do_not_depend_on_the_blas_thread_count():
    # at N = 1500, alpha = 2 (80-row blocks) one float64 product over the
    # whole matrix gives other bits on 2 OpenBLAS threads than on 1, and at
    # N = 100, alpha = 1400 (p = 140000) so do products of one row each; h,
    # taken over row_blocks, gives the same bits on both
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(core.__file__).resolve().parents[1])

    def h_digest(threads, n_agents, alpha):
        script = ("import hashlib, sphmg; "
                  f"params = sphmg.GameParams(n_agents={n_agents}, alpha={alpha}, seed=3); "
                  "s = sphmg.generate_disorder(params); "
                  "print(hashlib.md5(sphmg.precompute_couplings(s)[1].tobytes()).hexdigest())")
        return subprocess.run([sys.executable, "-c", script],
                              env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
                              text=True, timeout=120, check=True).stdout

    for shape in ((1500, 2.0), (100, 1400.0)):
        assert h_digest("1", *shape) == h_digest("2", *shape), shape


def _compiled(xi, Omega):
    """precompute_couplings of the sample (xi, Omega)."""
    return precompute_couplings(core.DisorderSample(xi=xi, Omega=Omega))


def _exact(xi, Omega):
    """X = xi xi^T, b and d from int64 sums, and h as float64 products over
    the row blocks, one dot product per agent."""
    n, p = xi.shape
    x, scale = xi.astype(np.int64), 2.0 / np.sqrt(n)
    h = np.concatenate([scale * (xi[rows].astype(np.float64) @ Omega)
                        for rows in core.row_blocks(n, p)])
    return x @ x.T, h, scale * x.sum(axis=1), (2.0 / n) * np.abs(x).sum(axis=1)


def _assert_compiled_exactly(xi, Omega, dtype=np.float32):
    """The compile of (xi, Omega), once it matches _exact bit for bit."""
    got, want = _compiled(xi, Omega), _exact(xi, Omega)
    assert got[0].dtype == dtype and got[0].flags.c_contiguous
    for name, a, b in zip("Xhbd", got, want):
        assert np.array_equal(a, b), name
    return got


def _recorded_flushes(monkeypatch):
    """The list into which every later call of core._upper_products, one a
    flush of the stage, records (S, its product buffer)."""
    flushes, products = [], core._upper_products

    def recorded(S, height, out):
        flushes.append((S, out))
        return products(S, height, out)

    monkeypatch.setattr(core, "_upper_products", recorded)
    return flushes


def _assert_paths(X, flushes, own_product, own_stage, count):
    """count flushes, each of a stage and a product held in X's buffer or
    in buffers of their own."""
    assert len(flushes) == count
    for S, out in flushes:
        assert np.shares_memory(S, X) is not own_stage
        assert np.shares_memory(out, X) is not own_product


@pytest.mark.parametrize("n_agents, alpha", [(41, 1.5), (10, 4.55), (20, 3.0), (41, 0.5)])
def test_self_product_over_column_blocks_is_exact(n_agents, alpha, monkeypatch):
    # panels of 4 rows and products of 8: X's spare space holds the product
    # beside 8 columns of stage at N = 41, only the stage at N = 20, and
    # neither at N = 10, where the stage is a buffer of 8 columns of its
    # own; so p = 62 runs over 7 x 8 + 6 columns, p = 46 over 5 x 8 + 6,
    # p = 60 over 7 x 8 + 4 and p = 20 < N over 2 x 8 + 4.  The last panel
    # is short at N = 41 and 10
    monkeypatch.setattr(core, "BAND", 4)
    monkeypatch.setattr(core, "TILE", 8)
    sample = generate_disorder(GameParams(n_agents=n_agents, alpha=alpha, seed=7))
    flushes = _recorded_flushes(monkeypatch)
    X = _assert_compiled_exactly(sample.xi, sample.Omega)[0]
    # (own product, own stage, flushes)
    paths = {(41, 1.5): (False, False, 8), (10, 4.55): (True, True, 6),
             (20, 3.0): (True, False, 8), (41, 0.5): (False, False, 3)}[n_agents, alpha]
    _assert_paths(X, flushes, *paths)


@pytest.mark.parametrize("n_agents, n_patterns, float64_sum, own_product, own_stage, count", [
    (1, 3, False, True, True, 1), (1, 200, False, True, True, 2),
    (351, 170, False, True, True, 2), (352, 170, False, True, False, 2),
    (671, 330, False, True, False, 2), (672, 330, False, False, False, 3),
    (191, 170, True, True, True, 2), (192, 170, True, True, False, 2),
    (352, 170, True, False, False, 2)])
def test_coupling_matrix_is_exact_on_both_sides_of_each_fallback(
        n_agents, n_patterns, float64_sum, own_product, own_stage, count, monkeypatch):
    # at the shipping TILE and BAND: X's spare space, the bytes after its
    # packed upper panels, holds the stage where it leaves at least TILE
    # columns (from N = 352 on), and the product of TILE rows as well where
    # it then still leaves them (from N = 672); below that each is a buffer
    # of its own, the stage TILE columns wide.  The stage is 160 columns at
    # N = 352 and 672 and 312 at N = 671 (one or several flushes).  A
    # float64 X, summed from p = FLOAT32_EXACT_TERMS on, spares twice the
    # float32 entries: the stage from N = 192 and both from N = 352.  The
    # last panel is short at N = 351, 671, 191 and 1
    rng = np.random.default_rng(n_agents * n_patterns)
    xi = rng.integers(-1, 2, size=(n_agents, n_patterns), dtype=np.int8)
    Omega = rng.normal(size=n_patterns)
    if float64_sum:
        monkeypatch.setattr(core, "FLOAT32_EXACT_TERMS", n_patterns)
    flushes = _recorded_flushes(monkeypatch)
    X = _assert_compiled_exactly(xi, Omega, np.float64 if float64_sum else np.float32)[0]
    _assert_paths(X, flushes, own_product, own_stage, count)


@pytest.mark.parametrize("n_agents, n_patterns", [(41, 20), (40, 40), (41, 62), (20, 60), (10, 46),
                                                  (13, 48), (1, 3), (1, 17), (9, 1), (300, 1800)])
@pytest.mark.parametrize("panel_rows", [0, 6])
def test_packed_compile_is_exact(n_agents, n_patterns, panel_rows, monkeypatch):
    # p < N, p = N, N < p <= 2N, p > 2N, p not a multiple of 8 and N = 1.
    # The shipping TILE and BAND take one column block in a stage of 160
    # columns of its own, except at N = 300, p = 1800: eleven such blocks
    # and a short last one, with products of 160 rows (160 + 140) in
    # panels of 32 rows, the last one short.  Panels of 6 rows with
    # products of 24 take a stage of 24 columns of its own below N = 300,
    # so several blocks at p = 40, 62, 60, 46 and 48 with a short last one
    # where p is not a multiple of 24, and at N = 300 a stage of 120
    # columns in X's spare space (15 blocks); the last panel is short for
    # N = 41, 20, 13, 10 and 9
    if panel_rows:
        monkeypatch.setattr(core, "BAND", panel_rows)
        monkeypatch.setattr(core, "TILE", 4 * panel_rows)
    rng = np.random.default_rng(n_agents * n_patterns)
    xi = rng.integers(-1, 2, size=(n_agents, n_patterns), dtype=np.int8)
    _assert_compiled_exactly(xi, rng.normal(size=n_patterns))


@pytest.mark.parametrize("offset, dtype", [(1, np.float32), (0, np.float64), (-1, np.float64)])
def test_self_product_accumulates_in_float64_from_the_exactness_limit(offset, dtype, monkeypatch):
    # float32 sums of p terms in {-1, 0, 1} are exact only below p = 2^24; the
    # limit is lowered here because a sample at the real one needs ~1 GB.
    # With panels of 4 rows and products of 8, p = 60 runs over eight
    # column blocks of at most 8 columns, in X's spare space
    monkeypatch.setattr(core, "BAND", 4)
    monkeypatch.setattr(core, "TILE", 8)
    sample = generate_disorder(GameParams(n_agents=20, alpha=3.0, seed=3))
    p = sample.xi.shape[1]
    monkeypatch.setattr(core, "FLOAT32_EXACT_TERMS", p + offset)
    _assert_compiled_exactly(sample.xi, sample.Omega, dtype)


def test_integer_couplings_free_their_float32_scratch_before_the_field_pass():
    # the compile holds X and the packed planes (N p / 4 bytes), and sums X
    # with its stage and product inside X's own buffer; h's float64 row
    # blocks are freed before X.  No int8 table, no N x N product and no
    # column block beside X; the slack of a product of TILE rows is kept
    sample = generate_disorder(GameParams(n_agents=800, alpha=6.0, seed=1))
    n, p = sample.xi.shape
    _, peak = traced_peak(lambda: _compiled(sample.xi, sample.Omega))
    assert peak <= 4 * n * n + 4 * n * core.TILE + n * p // 4 + 2**19


def test_resource_budget(monkeypatch):
    p = GameParams(n_agents=100, alpha=1.0)
    monkeypatch.setattr(core, "MAX_TABLE_ENTRIES", 100)
    with pytest.raises(ResourceBudgetError):
        generate_disorder(p)


def test_arrays_are_locked():
    sample = generate_disorder(GameParams(n_agents=16, alpha=1.0, seed=1))
    with pytest.raises(ValueError):
        sample.xi[0, 0] = 0
    with pytest.raises(ValueError):
        sample.Omega[0] = 0.0
