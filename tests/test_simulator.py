import math

import numpy as np
import pytest

from sphmg import (
    ContractError,
    DegenerateStateError,
    ExternalBid,
    GameParams,
    batch_step,
    frozen_solution,
    generate_disorder,
    init_state,
    measure_c0,
    precompute_couplings,
    run_experiment,
    stationary_solution,
)
from sphmg import core, simulator
from sphmg.simulator import AgentState
from oracles import (
    brute_force_bids,
    brute_force_step,
    brute_force_trajectory,
    market_bids,
    mirrored_sample,
    sample_from_tables,
)


def _state_from_q(q):
    q = np.asarray(q, dtype=np.float64)
    lam = float(np.sqrt(np.mean(q**2)))
    return AgentState(q=q, lam=lam, phi=q / lam, t=0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_state_all_plus():
    p = GameParams(n_agents=8, alpha=1.0, sign_bias=1.0, init_scale=1.0, seed=0)
    st = init_state(p)
    assert st.lam == 1.0
    assert np.all(st.phi == 1.0) and np.all(st.q == 1.0)


def test_init_state_unbiased_scale():
    p = GameParams(n_agents=100, alpha=1.0, init_scale=1e-4, seed=2)
    st = init_state(p)
    assert st.lam == 1e-4
    assert np.all(np.abs(st.q) == 1e-4)
    assert np.mean(st.phi**2) == pytest.approx(1.0, abs=1e-12)
    assert set(np.unique(st.phi)) <= {-1.0, 1.0}


def test_init_state_deterministic():
    p = GameParams(n_agents=50, alpha=1.0, seed=9)
    assert np.array_equal(init_state(p).q, init_state(p).q)


# ---------------------------------------------------------------------------
# market bids
# ---------------------------------------------------------------------------


def test_market_bids_zero_positions():
    sample = generate_disorder(GameParams(n_agents=6, alpha=0.5, seed=1))
    st = AgentState(q=np.zeros(6), lam=1.0, phi=np.zeros(6), t=0)
    bids = market_bids(st, sample, a_e=1.5)
    assert np.allclose(bids, 1.5 + sample.Omega)


def test_market_bids_two_agent_example():
    sample = sample_from_tables([[1], [1]], [[1], [-1]])
    st = _state_from_q([1.0, 1.0])
    bids = market_bids(st, sample, a_e=0.0)
    # Omega_1 = 1/sqrt(2) plus internal bid 1/sqrt(2)
    assert bids[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_market_bids_matches_brute_force():
    rng = np.random.default_rng(3)
    sample = generate_disorder(GameParams(n_agents=7, alpha=0.5, seed=8))
    st = _state_from_q(rng.normal(size=7))
    bids = market_bids(st, sample, a_e=0.7)
    assert np.allclose(bids, brute_force_bids(st.phi, sample, 0.7), atol=1e-12)


def test_market_bids_dimension_mismatch():
    sample = generate_disorder(GameParams(n_agents=6, alpha=0.5, seed=1))
    st = _state_from_q(np.ones(5))
    with pytest.raises(ContractError):
        market_bids(st, sample, 0.0)


# ---------------------------------------------------------------------------
# batch step
# ---------------------------------------------------------------------------


def test_full_impact_correction_cancels_self_coupling():
    # single agent, single pattern, xi = 1: J_11 = d_1 = 2, so at kappa = 1
    # the -J phi and +kappa d phi terms cancel and only the drive acts
    sample = sample_from_tables([[1]], [[-1]])
    assert sample.xi[0, 0] == 1 and sample.Omega[0] == 0.0
    coup = precompute_couplings(sample)
    assert coup.J[0, 0] == 2.0 and coup.d[0] == 2.0
    p = GameParams(n_agents=1, alpha=1.0, kappa=1.0, seed=0)
    st = _state_from_q([0.7])
    new = batch_step(st, coup, p)
    assert new.q[0] == pytest.approx(0.7, abs=1e-15)


def test_coupling_route_cancels_self_coupling_at_full_impact():
    # the float32 route keeps d in float64: at kappa = 1 only the drive acts
    sample = sample_from_tables([[1, 1, -1]], [[-1, -1, 1]])
    route = simulator._route(sample, 1.0)
    assert isinstance(route, simulator._Coupled)
    assert route.d[0] == 6.0 and route.h[0] == 0.0
    p = GameParams(n_agents=1, alpha=3.0, kappa=1.0, seed=0)
    new, _, _ = route.step(_state_from_q([0.7]), p)
    assert new.q[0] == 0.7


def test_batch_step_trajectory_matches_per_pattern_oracle():
    p = GameParams(n_agents=4, alpha=0.5, kappa=0.3,
                   external=ExternalBid(zeta=1, amplitude=0.8), seed=21)
    sample = generate_disorder(p)
    assert sample.n_patterns == 2
    coup = precompute_couplings(sample)
    st = init_state(p)
    qs = brute_force_trajectory(st.q.tolist(), sample, p.external.value_at, p.kappa, 3)
    for step in range(3):
        st = batch_step(st, coup, p)
        assert np.allclose(st.q, qs[step + 1], atol=1e-12)
        assert np.mean(st.phi**2) == pytest.approx(1.0, abs=1e-10)


def test_spherical_constraint_holds_along_a_run():
    p = GameParams(n_agents=60, alpha=2.0, kappa=0.25, seed=4)
    sample = generate_disorder(p)
    coup = precompute_couplings(sample)
    st = init_state(p)
    for _ in range(40):
        st = batch_step(st, coup, p)
        assert abs(np.mean(st.phi**2) - 1.0) < 1e-10
        assert st.lam == pytest.approx(np.sqrt(np.mean(st.q**2)))


def test_sign_symmetry_without_pattern_bias():
    # The update is odd in (q, phi) only when both the external drive and the
    # pattern bias field vanish; a mirrored sample enforces Omega = h = 0.
    base = generate_disorder(GameParams(n_agents=30, alpha=1.0, seed=14))
    sample = mirrored_sample(base)
    coup = precompute_couplings(sample)
    assert np.all(coup.h == 0.0)
    p = GameParams(n_agents=60, alpha=0.5, kappa=0.4, seed=0)
    rng = np.random.default_rng(11)
    q0 = rng.normal(size=60)
    plus, minus = _state_from_q(q0), _state_from_q(-q0)
    for _ in range(6):
        plus = batch_step(plus, coup, p)
        minus = batch_step(minus, coup, p)
        assert np.array_equal(plus.q, -minus.q)
        assert plus.lam == minus.lam


def test_degenerate_state_raises():
    # one agent with xi = 1 and q = 2: q' = q - J phi = 2 - 2 = 0 exactly
    sample = sample_from_tables([[1]], [[-1]])
    coup = precompute_couplings(sample)
    p = GameParams(n_agents=1, alpha=1.0, kappa=0.0, seed=0)
    with pytest.raises(DegenerateStateError):
        batch_step(_state_from_q([2.0]), coup, p)


# ---------------------------------------------------------------------------
# c0 estimator
# ---------------------------------------------------------------------------


def test_measure_c0_constant_positions():
    phi = np.tile(np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0]), (12, 1))
    assert measure_c0(phi) == pytest.approx(1.0, abs=1e-12)


def test_measure_c0_alternating_positions():
    base = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    phi = np.array([base * (-1.0) ** t for t in range(12)])
    assert measure_c0(phi) == pytest.approx(0.0, abs=1e-12)


def test_measure_c0_synthetic_mixture():
    # phi(t) = sqrt(0.6) u + (-1)^t sqrt(0.4) v with u, v orthonormal under
    # the N-average gives the lag curve 0.6 + 0.4 (-1)^tau exactly
    n = 64
    u = np.ones(n)
    v = np.tile([1.0, -1.0], n // 2)
    assert u @ v == 0.0
    phi = np.array(
        [math.sqrt(0.6) * u + (-1.0) ** t * math.sqrt(0.4) * v for t in range(16)]
    )
    assert measure_c0(phi) == pytest.approx(0.6, abs=1e-10)


def test_measure_c0_needs_history():
    with pytest.raises(ContractError):
        measure_c0(np.ones((7, 10)))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_experiment_rejects_short_measurement():
    p = GameParams(n_agents=20, alpha=1.0, t_equilibrate=0, t_measure=8)
    with pytest.raises(ContractError):
        run_experiment(p)


def test_run_frozen_point_small():
    p = GameParams(n_agents=500, alpha=1.0, seed=0, t_equilibrate=400, t_measure=800)
    obs = run_experiment(p)
    th = frozen_solution(1.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(1.0, abs=0.02)
    assert obs.sigma == pytest.approx(th.sigma, rel=0.10)
    assert obs.frozen_flag
    # finite-N bias in the growth rate is a few percent at N=500
    assert obs.lambda_slope == pytest.approx(th.Lambda, rel=0.15)


def test_run_oscillating_point_small():
    p = GameParams(n_agents=500, alpha=4.0, seed=0, t_equilibrate=400, t_measure=800)
    obs = run_experiment(p)
    th = stationary_solution(4.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(th.c0, abs=0.05)
    assert obs.sigma == pytest.approx(th.sigma, rel=0.10)
    assert not obs.frozen_flag
    assert obs.lambda_mean == pytest.approx(th.lam, rel=0.10)
    assert abs(obs.lambda_slope) < 5e-4


def test_streaming_mode_matches_theory_too(monkeypatch):
    # p >= 0.7 N here, so the per-pattern route has to be forced
    monkeypatch.setattr(simulator, "_route_kind",
                        lambda n_agents, n_patterns, kappa: simulator._Patterns)
    p = GameParams(n_agents=300, alpha=4.0, seed=1, t_equilibrate=300, t_measure=600)
    obs = run_experiment(p)
    th = stationary_solution(4.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(th.c0, abs=0.07)
    assert obs.sigma == pytest.approx(th.sigma, rel=0.10)


def test_run_experiment_builds_couplings_only_from_p_of_0_7_n(monkeypatch):
    def refuse(sample):
        raise AssertionError(f"J built at N={sample.n_agents}, p={sample.n_patterns}")

    monkeypatch.setattr(simulator._Coupled, "build", refuse)
    for n_agents, alpha, kappa in [(200, 0.5, 0.0), (100, 0.69, 0.0), (100, 0.69, 0.25)]:
        obs = run_experiment(GameParams(n_agents=n_agents, alpha=alpha, kappa=kappa, seed=2,
                                        t_equilibrate=50, t_measure=64))
        assert math.isfinite(obs.sigma) and math.isfinite(obs.c0_hat)
    for kappa in (0.0, 0.25):
        with pytest.raises(AssertionError, match="N=100, p=70"):
            run_experiment(GameParams(n_agents=100, alpha=0.7, kappa=kappa, seed=2,
                                      t_equilibrate=50, t_measure=64))


def _forced_route(monkeypatch, kind, sample, kappa):
    """The route of the given kind, built through _route."""
    with monkeypatch.context() as m:
        m.setattr(simulator, "_route_kind", lambda n_agents, n_patterns, kappa: kind)
        return simulator._route(sample, kappa)


def _float64_coupled(sample, kappa=None):
    """The float64 coupling step over precompute_couplings, with the bias
    sums of the sample (kappa is unused: the signature of _route)."""
    return simulator._Coupled.from_couplings(precompute_couplings(sample), sample)


@pytest.mark.parametrize("n_agents, alpha", [(60, 2.0), (80, 0.5)])
def test_coupling_and_per_pattern_routes_agree(n_agents, alpha, monkeypatch):
    # float32 pattern products: 1e-5 is ~100 float32 epsilons
    p = GameParams(n_agents=n_agents, alpha=alpha, kappa=0.25,
                   external=ExternalBid(zeta=1, amplitude=1.0), seed=3)
    sample = generate_disorder(p)
    coup = _float64_coupled(sample)
    patterns = _forced_route(monkeypatch, simulator._Patterns, sample, p.kappa)
    assert isinstance(coup, simulator._Coupled) and isinstance(patterns, simulator._Patterns)
    a = b = init_state(p)
    for _ in range(20):
        bids = market_bids(a, sample, p.external.value_at(a.t))
        a, sum_a, sum_a2 = coup.step(a, p)
        b, sum_b, sum_b2 = patterns.step(b, p)
        # coupling-route moments are exact: compare with the float64 bids
        scale = math.sqrt(sample.n_patterns * sum_a2)  # bounds sum_mu |A^mu|
        assert sum_a == pytest.approx(bids.sum(), abs=1e-12 * scale)
        assert sum_a2 == pytest.approx(bids @ bids, rel=1e-12)
        assert np.allclose(b.q, a.q, rtol=0.0, atol=1e-5 * np.abs(a.q).max())
        assert sum_b == pytest.approx(sum_a, abs=1e-5 * scale)
        assert sum_b2 == pytest.approx(sum_a2, rel=1e-5)


@pytest.mark.parametrize("n_agents, alpha, block_entries", [(80, 0.5, 200), (400, 0.3, 2**20),
                                                          (150, 0.7, 2**20)])
@pytest.mark.parametrize("zeta", [0, 1])
@pytest.mark.parametrize("init_scale", [1.0, 1e-4])
def test_gram_and_coupling_routes_agree(n_agents, alpha, block_entries, zeta, init_scale,
                                        monkeypatch):
    # both routes are float64; the Gram route reorders the sums, nothing else
    monkeypatch.setattr(core, "BLOCK_ENTRIES", block_entries)
    p = GameParams(n_agents=n_agents, alpha=alpha, external=ExternalBid(zeta, 1.0),
                   init_scale=init_scale, seed=12)
    sample = generate_disorder(p)
    coup = _float64_coupled(sample)
    gram = _forced_route(monkeypatch, simulator._Gram, sample, 0.0)  # p = 0.7 N takes couplings
    assert isinstance(gram, simulator._Gram)
    a = init_state(p)
    g = gram.start(a)
    for _ in range(120):
        a, sum_a, sum_a2 = coup.step(a, p)
        g, sum_g, sum_g2 = gram.step(g, p)
        assert g.t == a.t
        assert g.lam == pytest.approx(a.lam, rel=1e-12)
        q = gram.valuations([g])[0]
        assert np.allclose(q, a.q, rtol=0.0, atol=1e-12 * np.abs(a.q).max())
        scale = math.sqrt(sample.n_patterns * sum_a2)  # bounds sum_mu |A^mu|
        assert sum_g == pytest.approx(sum_a, abs=1e-12 * scale)
        assert sum_g2 == pytest.approx(sum_a2, rel=1e-12)
    assert np.allclose(gram.positions([g])[0], a.phi, rtol=0.0, atol=1e-12 * np.abs(a.phi).max())


def test_gram_route_run_matches_coupling_route(monkeypatch):
    p = GameParams(n_agents=300, alpha=0.4, external=ExternalBid(1, 0.5), seed=8,
                   t_equilibrate=100, t_measure=200)
    gram = run_experiment(p)
    monkeypatch.setattr(simulator, "_route", _float64_coupled)
    coup = run_experiment(p)
    assert gram.frozen_flag == coup.frozen_flag
    for name in ("c0_hat", "sigma", "sigma_fl", "lambda_mean", "lambda_slope",
                 "bid_mean", "bid_staggered"):
        assert getattr(gram, name) == pytest.approx(getattr(coup, name), rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("n_agents, alpha", [(60, 2.0), (80, 4.0)])
@pytest.mark.parametrize("kappa", [0.0, 0.25])
@pytest.mark.parametrize("zeta", [0, 1])
@pytest.mark.parametrize("init_scale", [1.0, 1e-4])
def test_float32_coupling_route_matches_float64_step(n_agents, alpha, kappa, zeta, init_scale):
    # the route takes J phi from the integer xi xi^T and phi in float32:
    # 1e-5 is ~100 float32 epsilons
    p = GameParams(n_agents=n_agents, alpha=alpha, kappa=kappa, external=ExternalBid(zeta, 1.0),
                   init_scale=init_scale, seed=3)
    sample = generate_disorder(p)
    route = simulator._route(sample, kappa)
    assert isinstance(route, simulator._Coupled) and route.M.dtype == np.float32
    xi = sample.xi.astype(np.int64)
    X = xi @ xi.T
    assert np.array_equal(route.M + np.diag(np.diagonal(X)), X)
    exact = _float64_coupled(sample)
    a = b = init_state(p)
    for _ in range(120):
        a, sum_a, sum_a2 = exact.step(a, p)
        b, sum_b, sum_b2 = route.step(b, p)
        assert b.t == a.t
        assert np.allclose(b.q, a.q, rtol=0.0, atol=1e-5 * np.abs(a.q).max())
        assert b.lam == pytest.approx(a.lam, rel=1e-5)
        scale = math.sqrt(sample.n_patterns * sum_a2)  # bounds sum_mu |A^mu|
        assert sum_b == pytest.approx(sum_a, abs=1e-5 * scale)
        assert sum_b2 == pytest.approx(sum_a2, rel=1e-5)


@pytest.mark.parametrize("kappa, zeta, alpha", [(0.25, 1, 2.0), (0.0, 0, 4.0), (0.0, 1, 1.2)])
def test_float32_coupling_run_matches_float64_run(kappa, zeta, alpha, monkeypatch):
    p = GameParams(n_agents=200, alpha=alpha, kappa=kappa, external=ExternalBid(zeta, 1.0),
                   seed=4, t_equilibrate=100, t_measure=200)
    obs = run_experiment(p)
    monkeypatch.setattr(simulator, "_route", _float64_coupled)
    exact = run_experiment(p)
    assert obs.frozen_flag == exact.frozen_flag
    for name in ("c0_hat", "sigma", "sigma_fl", "lambda_mean", "lambda_slope",
                 "bid_mean", "bid_staggered"):
        assert getattr(obs, name) == pytest.approx(getattr(exact, name), rel=1e-6, abs=1e-9)


def test_coupling_route_holds_no_float64_square_matrix():
    sample = generate_disorder(GameParams(n_agents=50, alpha=3.0, seed=1))
    route = simulator._route(sample, 0.25)
    assert isinstance(route, simulator._Coupled)
    for value in vars(route).values():
        if isinstance(value, np.ndarray):
            assert value.ndim == 1 or value.dtype == np.float32
    # the diagonal of J is d, kept in float64
    assert np.all(np.diagonal(route.M) == 0.0)
    assert np.array_equal(route.d, precompute_couplings(sample).d)


def test_route_rule():
    kind = simulator._route_kind
    assert kind(1000, 1, 0.0) is simulator._Gram
    assert kind(1000, 699, 0.0) is simulator._Gram
    for kappa in (1e-9, 0.25, 1.0):
        for n_patterns in (1, 300, 699):
            assert kind(1000, n_patterns, kappa) is simulator._Patterns
    for kappa in (0.0, 0.25):
        for n_patterns in (700, 749, 1199, 1200):
            assert kind(1000, n_patterns, kappa) is simulator._Coupled


def test_run_experiment_takes_gram_route_only_at_kappa_zero(monkeypatch):
    def refuse(kind):
        def build(sample):
            raise AssertionError(f"{kind} route at N={sample.n_agents}, p={sample.n_patterns}")
        return build

    def run(kappa, alpha):
        return run_experiment(GameParams(n_agents=100, alpha=alpha, kappa=kappa, seed=2,
                                         t_equilibrate=20, t_measure=32))

    monkeypatch.setattr(simulator._Patterns, "build", refuse("per-pattern"))
    assert math.isfinite(run(0.0, 0.5).sigma)
    with pytest.raises(AssertionError, match="per-pattern route at N=100, p=50"):
        run(0.25, 0.5)
    monkeypatch.undo()
    monkeypatch.setattr(simulator._Gram, "build", refuse("Gram"))
    assert math.isfinite(run(0.25, 0.5).sigma)
    assert math.isfinite(run(0.0, 1.0).sigma)


def test_sigma_never_below_fluctuation_part():
    p = GameParams(n_agents=300, alpha=2.5, external=ExternalBid(1, 1.0), seed=5,
                   t_equilibrate=300, t_measure=600)
    obs = run_experiment(p)
    assert obs.sigma**2 >= obs.sigma_fl**2 - 1e-12
    assert -1.05 <= obs.c0_hat <= 1.05


def test_frozen_drive_independence_at_alpha_one():
    # alpha = 1 sits in the frozen window for any oscillating amplitude
    for amp in (0.0, 2.0):
        p = GameParams(n_agents=500, alpha=1.0, external=ExternalBid(1, amp),
                       seed=2, t_equilibrate=400, t_measure=800)
        obs = run_experiment(p)
        assert obs.frozen_flag and obs.c0_hat > 0.95


def test_lambda_trajectory_fit_quality_by_phase():
    # frozen phase: near-perfect linear growth; oscillating phase: a slope
    # statistically indistinguishable from zero
    from sphmg.estimators import fit_line

    def lambda_history(alpha, n_steps):
        p = GameParams(n_agents=400, alpha=alpha, seed=6)
        sample = generate_disorder(p)
        coup = precompute_couplings(sample)
        st = init_state(p)
        lams = []
        for _ in range(n_steps):
            st = batch_step(st, coup, p)
            lams.append(st.lam)
        return np.array(lams[n_steps // 2 :])  # measurement half

    lam_frozen = lambda_history(1.0, 600)
    fit = fit_line(np.arange(lam_frozen.size, dtype=float), lam_frozen)
    assert fit.slope > 0.0 and fit.r2 > 0.99

    lam_osc = lambda_history(4.0, 600)
    fit = fit_line(np.arange(lam_osc.size, dtype=float), lam_osc)
    assert abs(fit.slope) <= 5.0 * max(fit.slope_stderr, 1e-12)


def test_run_is_seed_deterministic():
    p = GameParams(n_agents=100, alpha=1.5, seed=33, t_equilibrate=50, t_measure=64)
    a, b = run_experiment(p), run_experiment(p)
    assert a == b


@pytest.mark.slow
def test_run_frozen_point_large_n():
    # biased start at N = 3000; growth rate of the constraint force matches
    # the frozen closed form and the volatility its fluctuation part
    p = GameParams(n_agents=3000, alpha=1.0, seed=0, t_equilibrate=500, t_measure=1000)
    obs = run_experiment(p)
    th = frozen_solution(1.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(1.0, abs=0.02)
    assert obs.sigma == pytest.approx(th.sigma, rel=0.10)
    assert obs.lambda_slope == pytest.approx(th.Lambda, rel=0.10)
    assert obs.frozen_flag


@pytest.mark.slow
def test_run_oscillating_point_large_n():
    p = GameParams(n_agents=3000, alpha=4.0, seed=0, t_equilibrate=300, t_measure=704)
    obs = run_experiment(p)
    th = stationary_solution(4.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(th.c0, rel=0.10)
    assert not obs.frozen_flag
