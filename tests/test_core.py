import numpy as np
import pytest

from sphmg import (
    ContractError,
    ExternalBid,
    GameParams,
    ResourceBudgetError,
    generate_disorder,
    precompute_couplings,
)
from sphmg import core
from oracles import disorder_from_pm_tables, sample_from_tables


def test_external_bid_values():
    static = ExternalBid(zeta=0, amplitude=1.5)
    assert [static.value_at(t) for t in range(4)] == [1.5, 1.5, 1.5, 1.5]
    osc = ExternalBid(zeta=1, amplitude=2.0)
    assert [osc.value_at(t) for t in range(4)] == [2.0, -2.0, 2.0, -2.0]
    assert np.array_equal(osc.series(5), [2.0, -2.0, 2.0, -2.0, 2.0])
    assert np.array_equal(osc.series(3, t0=1), [-2.0, 2.0, -2.0])
    off = ExternalBid(zeta=1, amplitude=0.0)
    assert off.series(6).tolist() == [0.0] * 6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(zeta=2, amplitude=1.0),
        dict(zeta=0, amplitude=-0.5),
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
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ContractError):
        GameParams(**kwargs)


def test_two_agent_hand_example():
    # tables R1 = (+1, +1), R2 = (+1, -1) over a single pattern
    sample = sample_from_tables([[1], [1]], [[1], [-1]])
    assert sample.xi[:, 0].tolist() == [0, 1]
    assert sample.omega[:, 0].tolist() == [1, 0]
    assert sample.Omega[0] == pytest.approx(1 / np.sqrt(2))
    coup = precompute_couplings(sample)
    assert np.allclose(coup.J, [[0.0, 0.0], [0.0, 1.0]])
    assert coup.d.tolist() == [0.0, 1.0]
    assert coup.b.tolist() == [0.0, pytest.approx(2 / np.sqrt(2))]


def test_xi_omega_exclusivity():
    sample = generate_disorder(GameParams(n_agents=100, alpha=1.0, seed=5))
    assert np.all(sample.xi * sample.omega == 0)
    assert np.all(np.abs(sample.xi) + np.abs(sample.omega) == 1)
    assert set(np.unique(sample.xi)) <= {-1, 0, 1}


def test_seed_determinism_and_independence():
    p = GameParams(n_agents=64, alpha=2.0, seed=123)
    s1 = generate_disorder(p)
    s2 = generate_disorder(p)
    assert np.array_equal(s1.xi, s2.xi) and np.array_equal(s1.omega, s2.omega)
    s3 = generate_disorder(GameParams(n_agents=64, alpha=2.0, seed=124))
    assert not np.array_equal(s1.xi, s3.xi)


@pytest.mark.parametrize("n_agents, alpha, seed", [(1, 1.0, 0), (7, 0.5, 1), (64, 2.0, 123),
                                                  (300, 0.3, 7919), (129, 3.1, 2**63)])
def test_disorder_draw_matches_pm_table_oracle(n_agents, alpha, seed):
    params = GameParams(n_agents=n_agents, alpha=alpha, seed=seed)
    sample, ref = generate_disorder(params), disorder_from_pm_tables(params)
    for name in ("xi", "omega", "Omega"):
        got, want = getattr(sample, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


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
    coup = precompute_couplings(sample)
    assert np.array_equal(coup.J, coup.J.T)
    assert np.allclose(np.diag(coup.J), coup.d, atol=1e-15)
    assert coup.d.min() >= 0.0
    assert coup.d.max() <= 2.0 * sample.n_patterns / sample.n_agents
    # E[xi^2] = 1/2 so E[d] = alpha
    assert abs(coup.d.mean() - p.alpha) / p.alpha < 0.05


def test_coupling_matrix_matches_definition():
    sample = generate_disorder(GameParams(n_agents=8, alpha=0.5, seed=3))
    coup = precompute_couplings(sample)
    n, p = sample.xi.shape
    for i in range(n):
        for j in range(n):
            jij = 2.0 / n * sum(float(sample.xi[i, mu]) * float(sample.xi[j, mu]) for mu in range(p))
            assert coup.J[i, j] == pytest.approx(jij, abs=1e-12)
        hi = 2.0 / np.sqrt(n) * sum(float(sample.xi[i, mu]) * sample.Omega[mu] for mu in range(p))
        assert coup.h[i] == pytest.approx(hi, abs=1e-12)


def test_field_and_drive_response_over_row_blocks(monkeypatch):
    # blocks of a few rows, the last one short: h and b still match the
    # whole-matrix float64 products
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 50)
    sample = generate_disorder(GameParams(n_agents=41, alpha=0.5, seed=6))
    assert len(core.row_blocks(sample.xi)) == 21
    coup = precompute_couplings(sample)
    xd = sample.xi.astype(np.float64)
    scale = 2.0 / np.sqrt(sample.n_agents)
    assert np.allclose(coup.h, scale * (xd @ sample.Omega), rtol=0.0, atol=1e-12)
    assert np.array_equal(coup.b, scale * xd.sum(axis=1))


@pytest.mark.parametrize("block_entries", [41, 400, 2**24])
def test_self_product_over_column_blocks_is_exact(block_entries, monkeypatch):
    # blocks of one column, of a few columns with a short last one, and one block
    monkeypatch.setattr(core, "COLUMN_BLOCK_ENTRIES", block_entries)
    sample = generate_disorder(GameParams(n_agents=41, alpha=1.5, seed=7))
    X, h, b = core._integer_couplings(sample)
    xi = sample.xi.astype(np.int64)
    assert X.dtype == np.float32
    assert np.array_equal(X, xi @ xi.T)
    coup = precompute_couplings(sample)
    assert coup.J.dtype == np.float64
    assert np.array_equal(coup.J, (xi @ xi.T).astype(np.float64) * (2.0 / sample.n_agents))
    assert np.array_equal(coup.h, h) and np.array_equal(coup.b, b)


@pytest.mark.parametrize("offset, dtype", [(1, np.float32), (0, np.float64), (-1, np.float64)])
def test_self_product_accumulates_in_float64_from_the_exactness_limit(offset, dtype, monkeypatch):
    # float32 sums of p terms in {-1, 0, 1} are exact only below p = 2^24; the
    # limit is lowered here because a sample at the real one needs ~1 GB
    sample = generate_disorder(GameParams(n_agents=20, alpha=3.0, seed=3))
    p = sample.n_patterns
    monkeypatch.setattr(core, "FLOAT32_EXACT_TERMS", p + offset)
    monkeypatch.setattr(core, "COLUMN_BLOCK_ENTRIES", 200)
    X, _, _ = core._integer_couplings(sample)
    assert X.dtype == dtype
    xi = sample.xi.astype(np.int64)
    assert np.array_equal(X, xi @ xi.T)
    coup = precompute_couplings(sample)
    assert np.array_equal(np.diagonal(coup.J), coup.d)
    assert np.array_equal(coup.d, core.self_couplings(sample.xi))


def test_resource_budget():
    p = GameParams(n_agents=100, alpha=1.0)
    with pytest.raises(ResourceBudgetError):
        generate_disorder(p, max_entries=100)


def test_arrays_are_locked():
    sample = generate_disorder(GameParams(n_agents=16, alpha=1.0, seed=1))
    with pytest.raises(ValueError):
        sample.xi[0, 0] = 0
    coup = precompute_couplings(sample)
    with pytest.raises(ValueError):
        coup.J[0, 0] = 1.0
