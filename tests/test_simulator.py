import dataclasses
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from sphmg import (
    ContractError,
    DegenerateStateError,
    ExternalBid,
    GameParams,
    ResourceBudgetError,
    generate_disorder,
    precompute_couplings,
    run_experiment,
    stationary_solution,
)
from sphmg import core, simulator
from sphmg.estimators import persistent_correlation
from sphmg.core import AgentState, init_state
from oracles import (
    brute_force_bids,
    lift,
    market_bids,
    mirrored_sample,
    packed_upper,
    pattern_space_run,
    sample_from_tables,
)
from tracing import route_build_growth, traced_peak


def _state_from_q(q):
    q = np.asarray(q, dtype=np.float64)
    lam = float(np.sqrt(np.mean(q**2)))
    return AgentState(q=q, lam=lam, phi=q / lam)


def _blocks(sample):
    """The row blocks (core.row_blocks) of a whole sample."""
    return ((rows, sample.xi[rows]) for rows in core.row_blocks(*sample.xi.shape))


def _sliced(xi, rows):
    """(rows, xi[rows]) blocks of rows rows each, the last one short."""
    return ((slice(i, i + rows), xi[i:i + rows]) for i in range(0, xi.shape[0], rows))


def _built(kind, sample, state):
    """The route of kind fed the row blocks of a whole sample, for runs from
    state."""
    return kind.build(_blocks(sample), sample.Omega, state)


def _integer_gram(sample, phi):
    """G, packed in its upper triangle's panels, and xi^T phi as the Gram
    route sums them from the row blocks of a whole sample, for runs from
    positions phi."""
    return core._integer_gram(_blocks(sample), sample.xi.shape[1], phi)


def _gram_basis(sample, state):
    """The Gram route's basis Q of sample, with B = Q^T G Q banded, in the
    padded layout of the route's vectors (column j at b + j of (nb + 2) b,
    b = BAND): the identity carried through the route's reduction of G."""
    G, _ = _integer_gram(sample, state.phi)
    p, b = sample.xi.shape[1], core.BAND
    Q = np.zeros((p, (-(-p // b) + 2) * b))
    Q[:, b:b + p] = np.eye(p)
    core._reduce_to_band(core._upper_panels(G, p), Q[:, b:b + p])
    return Q


def _dense_band(blocks, p):
    """The p x p matrix B of the Gram route's (nb, b, 3b) row blocks."""
    nb, b, _ = blocks.shape
    B = np.zeros(((nb + 2) * b, (nb + 2) * b))
    for k in range(nb):
        B[(k + 1) * b:(k + 2) * b, k * b:(k + 3) * b] = blocks[k]
    return B[b:b + p, b:b + p]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_state_signs_are_fair_coins_of_the_init_stream():
    p = GameParams(n_agents=64, alpha=1.0, init_scale=0.25, seed=5)
    st = init_state(p)
    plus = core.rng_stream(p.seed, core._STREAM_INIT).random(p.n_agents) < 0.5
    assert st.lam == 0.25
    assert np.array_equal(st.q, np.where(plus, 0.25, -0.25))
    assert np.array_equal(st.phi, np.where(plus, 1.0, -1.0))
    assert 0 < plus.sum() < p.n_agents


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
    st = AgentState(q=np.zeros(6), lam=1.0, phi=np.zeros(6))
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
# one batch step on the routes
# ---------------------------------------------------------------------------


def test_coupling_route_cancels_self_coupling_at_full_impact():
    # the float32 route keeps d in float64: at kappa = 1 only the drive acts
    sample, state = sample_from_tables([[1, 1, -1]], [[-1, -1, 1]]), _state_from_q([0.7])
    route = _built(simulator._Coupled, sample, state)  # the route of N = 1, p = 3 (test_route_rule)
    assert route.d[0] == 6.0 and route.h[0] == 0.0
    p = GameParams(n_agents=1, alpha=3.0, kappa=1.0, seed=0)
    run = route.start(state)
    simulator._window(route, run, p, 1)
    assert run.q[0] == 0.7


def test_spherical_constraint_holds_along_a_run():
    # every route; the Gram route's q is lifted from its (z, B z) at kappa = 0
    sample = generate_disorder(GameParams(n_agents=60, alpha=2.0, seed=4))
    for kind, kappa in ((simulator._Coupled, 0.25), (simulator._Patterns, 0.25),
                        (simulator._Gram, 0.0)):
        p = GameParams(n_agents=60, alpha=2.0, kappa=kappa, seed=4)
        state = init_state(p)
        route = _built(kind, sample, state)
        Q = _gram_basis(sample, state)
        run = route.start(state)
        for _ in range(40):
            simulator._window(route, run, p, 1)
            q = lift(state.q, sample.xi, run.q[0], Q) if kind is simulator._Gram else run.q
            assert abs(np.mean((q / run.lam)**2) - 1.0) < 1e-10, kind
            assert run.lam == pytest.approx(np.sqrt(np.mean(q**2))), kind


def test_sign_symmetry_without_pattern_bias():
    # The update is odd in (q, phi) only when both the external drive and the
    # pattern bias field vanish; a mirrored sample enforces Omega = h = 0.
    base = generate_disorder(GameParams(n_agents=30, alpha=1.0, seed=14))
    sample = mirrored_sample(base)
    p = GameParams(n_agents=60, alpha=0.5, kappa=0.4, seed=0)
    rng = np.random.default_rng(11)
    q0 = rng.normal(size=60)
    for kind in (simulator._Coupled, simulator._Patterns):
        route = _built(kind, sample, _state_from_q(q0))
        assert kind is simulator._Patterns or np.all(route.h == 0.0)
        plus, minus = route.start(_state_from_q(q0)), route.start(_state_from_q(-q0))
        for _ in range(6):
            simulator._window(route, plus, p, 1)
            simulator._window(route, minus, p, 1)
            assert np.array_equal(plus.q, -minus.q), kind
            assert plus.lam == minus.lam, kind


@pytest.mark.parametrize("kind", [simulator._Coupled, simulator._Patterns, simulator._Gram])
def test_degenerate_state_raises_on_every_route(kind):
    # the same one-agent game on each route: q = 2, lambda = 2 steps to q = 0,
    # and q = 1e200 to a q^2 beyond float64, with no warning: pytest.ini turns
    # one into an error
    sample = sample_from_tables([[1]], [[-1]])
    p = GameParams(n_agents=1, alpha=1.0, kappa=0.0, seed=0)
    for q0, error in ((2.0, "all valuations vanished"), (1e200, "valuations overflowed")):
        state = AgentState(q=np.array([q0]), lam=q0, phi=np.array([1.0]))
        route = _built(kind, sample, state)
        run = route.start(state)
        assert run.lam == q0
        with pytest.raises(DegenerateStateError, match=f"^{error} at t=1$"):
            simulator._window(route, run, p, 1)


# ---------------------------------------------------------------------------
# c0 estimator
# ---------------------------------------------------------------------------


def _c0_of_positions(phi):
    """c0 of consecutive position snapshots phi, from their overlaps
    phi_s.phi_t / N as the coupling and per-pattern routes form them."""
    return persistent_correlation(phi @ phi.T / phi.shape[1])


def test_measure_c0_constant_positions():
    phi = np.tile(np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0]), (12, 1))
    assert _c0_of_positions(phi) == pytest.approx(1.0, abs=1e-12)


def test_measure_c0_alternating_positions():
    base = np.array([1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    phi = np.array([base * (-1.0) ** t for t in range(12)])
    assert _c0_of_positions(phi) == pytest.approx(0.0, abs=1e-12)


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
    assert _c0_of_positions(phi) == pytest.approx(0.6, abs=1e-10)


def test_measure_c0_needs_history():
    with pytest.raises(ContractError):
        _c0_of_positions(np.ones((7, 10)))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_experiment_rejects_short_measurement():
    # the params of a run refuse the window before any run starts
    with pytest.raises(ContractError, match="t_measure must be >= 16"):
        GameParams(n_agents=20, alpha=1.0, t_equilibrate=0, t_measure=8)


def test_run_frozen_point_small():
    p = GameParams(n_agents=500, alpha=1.0, seed=0, t_equilibrate=400, t_measure=800)
    obs = run_experiment(p)
    th = stationary_solution(1.0, 0.0, 0.0, 0)
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
    monkeypatch.setattr(simulator, "_route",
                        lambda params, state: simulator._Patterns.build(
                            *core.disorder_blocks(params), state))
    p = GameParams(n_agents=300, alpha=4.0, seed=1, t_equilibrate=300, t_measure=600)
    obs = run_experiment(p)
    th = stationary_solution(4.0, 0.0, 0.0, 0)
    assert obs.c0_hat == pytest.approx(th.c0, abs=0.07)
    assert obs.sigma == pytest.approx(th.sigma, rel=0.10)


def test_run_experiment_builds_couplings_only_from_p_of_0_7_n(monkeypatch):
    def refuse(blocks, Omega, state):
        raise AssertionError(f"J built at N={state.q.shape[0]}, p={Omega.shape[0]}")

    monkeypatch.setattr(simulator._Coupled, "build", refuse)
    for n_agents, alpha, kappa in [(200, 0.5, 0.0), (100, 0.69, 0.0), (100, 0.69, 0.25)]:
        obs = run_experiment(GameParams(n_agents=n_agents, alpha=alpha, kappa=kappa, seed=2,
                                        t_equilibrate=50, t_measure=64))
        assert math.isfinite(obs.sigma) and math.isfinite(obs.c0_hat)
    for kappa in (0.0, 0.25):
        with pytest.raises(AssertionError, match="N=100, p=70"):
            run_experiment(GameParams(n_agents=100, alpha=0.7, kappa=kappa, seed=2,
                                      t_equilibrate=50, t_measure=64))


def _recorded_step(route, run, params):
    """One one-step window: its record and the step's bid moments."""
    rec = simulator._window(route, run, params, 1)
    return rec, rec.sum_a[0], rec.sum_a2[0]


def _float64_coupled(sample, state):
    """The coupling route with its matrix in float64."""
    route = _built(simulator._Coupled, sample, state)
    return dataclasses.replace(route, M=route.M.astype(np.float64))


def _float64_route(params, state):
    """_route forced onto the float64 coupling route."""
    return _float64_coupled(generate_disorder(params), state)


@pytest.mark.parametrize("n_agents, alpha", [(60, 2.0), (80, 0.5)])
def test_coupling_and_per_pattern_routes_agree(n_agents, alpha):
    # float32 pattern products: 1e-5 is ~100 float32 epsilons
    p = GameParams(n_agents=n_agents, alpha=alpha, kappa=0.25,
                   external=ExternalBid(zeta=1, amplitude=1.0), seed=3)
    sample = generate_disorder(p)
    coup = _float64_coupled(sample, init_state(p))
    patterns = _built(simulator._Patterns, sample, init_state(p))
    a, b = coup.start(init_state(p)), patterns.start(init_state(p))
    a_e = p.external.series(20)
    for _ in range(20):
        bids = market_bids(AgentState(a.q, a.lam, a.q / a.lam), sample, a_e[a.t])
        _, sum_a, sum_a2 = _recorded_step(coup, a, p)
        _, sum_b, sum_b2 = _recorded_step(patterns, b, p)
        # coupling-route moments are exact: compare with the float64 bids
        scale = math.sqrt(sample.xi.shape[1] * sum_a2)  # bounds sum_mu |A^mu|
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
    coup = _float64_coupled(sample, init_state(p))
    # _route would take couplings at p = 0.7 N
    gram = _built(simulator._Gram, sample, init_state(p))
    Q, q0 = _gram_basis(sample, init_state(p)), init_state(p).q
    a, g = coup.start(init_state(p)), gram.start(init_state(p))
    for _ in range(120):
        _, sum_a, sum_a2 = _recorded_step(coup, a, p)
        _, sum_g, sum_g2 = _recorded_step(gram, g, p)
        assert g.t == a.t
        assert g.lam == pytest.approx(a.lam, rel=1e-12)
        q = lift(q0, sample.xi, g.q[0], Q)  # the run carries (z, B z) as g.q
        assert np.allclose(q, a.q, rtol=0.0, atol=1e-12 * np.abs(a.q).max())
        scale = math.sqrt(sample.xi.shape[1] * sum_a2)  # bounds sum_mu |A^mu|
        assert sum_g == pytest.approx(sum_a, abs=1e-12 * scale)
        assert sum_g2 == pytest.approx(sum_a2, rel=1e-12)
    # c0 from the overlaps of the recorded (z, B z) against the coupling
    # route's c0 of its own recorded positions
    rec = simulator._window(gram, g, p, 16)
    phi = lift(q0, sample.xi, rec.snaps[:, 0], Q) / rec.snap_lam[:, np.newaxis]
    assert gram.c0(rec) == pytest.approx(coup.c0(simulator._window(coup, a, p, 16)),
                                         rel=1e-12)
    assert np.allclose(phi[-1], a.q / a.lam, rtol=0.0, atol=1e-12 * np.abs(phi[-1]).max())


def test_gram_route_run_matches_coupling_route(monkeypatch):
    p = GameParams(n_agents=300, alpha=0.4, external=ExternalBid(1, 0.5), seed=8,
                   t_equilibrate=100, t_measure=200)
    gram = run_experiment(p)
    monkeypatch.setattr(simulator, "_route", _float64_route)
    coup = run_experiment(p)
    assert gram.frozen_flag == coup.frozen_flag
    for name in ("c0_hat", "sigma", "sigma_fl", "lambda_mean", "lambda_slope",
                 "bid_mean", "bid_staggered"):
        assert getattr(gram, name) == pytest.approx(getattr(coup, name), rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("kind, alpha, kappa", [(simulator._Coupled, 2.0, 0.25),
                                                (simulator._Coupled, 1.0, 0.0),
                                                (simulator._Patterns, 0.5, 0.25),
                                                (simulator._Gram, 0.5, 0.0)])
@pytest.mark.parametrize("zeta", [0, 1])
def test_window_equals_one_step_windows(kind, alpha, kappa, zeta):
    # a window keeps its state in locals and scratch buffers between steps;
    # stepping one window at a time must not move a bit
    p = GameParams(n_agents=90, alpha=alpha, kappa=kappa, external=ExternalBid(zeta, 1.0), seed=6)
    route = _built(kind, generate_disorder(p), init_state(p))
    whole, single = (route.start(init_state(p)) for _ in range(2))
    rec = simulator._window(route, whole, p, 60)
    steps = [simulator._window(route, single, p, 1) for _ in range(60)]
    assert rec.snaps.shape[0] == 60
    for name in ("lam", "sum_a", "sum_a2", "snaps", "snap_lam"):
        stepped = np.concatenate([getattr(s, name) for s in steps])
        assert np.array_equal(getattr(rec, name), stepped), name
    assert (single.t, single.lam) == (whole.t, whole.lam) == (60, rec.snap_lam[-1])
    assert np.array_equal(single.q, whole.q)  # (z, B z) on the Gram route
    assert np.array_equal(single.q / single.lam, whole.q / whole.lam)


def test_observables_are_plain_python_values():
    for n_agents, alpha, kappa in [(60, 2.0, 0.25), (100, 0.5, 0.0), (100, 0.5, 0.25)]:
        obs = run_experiment(GameParams(n_agents=n_agents, alpha=alpha, kappa=kappa, seed=3,
                                        external=ExternalBid(1, 0.5), t_equilibrate=20,
                                        t_measure=32))
        for field in dataclasses.fields(obs):
            want = bool if field.name == "frozen_flag" else float
            assert type(getattr(obs, field.name)) is want, field.name


def test_gram_matrix_is_the_same_for_any_row_blocks():
    params = GameParams(n_agents=203, alpha=0.4, seed=9)
    sample = generate_disorder(params)
    xi, (n, p) = sample.xi.astype(np.int64), sample.xi.shape
    exact = packed_upper((xi.T @ xi).astype(np.float64), core.BAND)
    for rows in (n, 5):  # one block; 41 blocks of 5 rows, the last short
        G, _ = core._integer_gram(_sliced(sample.xi, rows), p, init_state(params).phi)
        assert G.dtype == np.float64 and np.array_equal(G, exact), rows
    assert len(list(_sliced(sample.xi, 5))) == 41


@pytest.mark.parametrize("n_agents, p, own_product, whole_blocks", [
    (800, 240, True, 0), (800, 440, True, 0), (1000, 607, True, 0), (1000, 608, False, 0),
    (1000, 880, False, 0), (1000, 881, False, 1), (1500, 900, False, 1), (1000, 1170, False, 1),
    (1000, 1171, False, 2)])
def test_gram_matrix_is_exact_on_both_sides_of_each_fallback(n_agents, p, own_product,
                                                              whole_blocks, monkeypatch):
    # at the shipping TILE, BAND and BLOCK_ENTRIES, against float64 products
    # of xi (exact integers below 2^53, so the int64 xi^T xi): below p = 608
    # the spare half cannot hold a product of TILE[0] rows beside as many
    # stage rows, so the product is a buffer of its own; from p = 881 the
    # stage beside it holds one whole block of the draw (296 rows), from
    # p = 1171 two (2 x 216 of 441 rows), and below that each block is split
    # where the stage fills.  Every case flushes the stage more than once
    flushes, products = [], core._upper_products

    def recorded(S, height, out):
        flushes.append((S, out))
        return products(S, height, out)

    monkeypatch.setattr(core, "_upper_products", recorded)
    params = GameParams(n_agents=n_agents, alpha=p / n_agents, seed=9)
    sample, phi = generate_disorder(params), init_state(params).phi
    assert params.n_patterns == p
    xi = sample.xi.astype(np.float64)
    G, xt_phi = _integer_gram(sample, phi)
    assert G.dtype == np.float64 and np.array_equal(G, packed_upper(xi.T @ xi, core.BAND))
    assert np.array_equal(xt_phi, phi @ xi)
    S, out = flushes[0]
    assert np.shares_memory(S, G) and np.shares_memory(out, G) is not own_product
    assert S.shape[0] < n_agents
    assert S.shape[0] // core.row_blocks(n_agents, p)[0].stop == whole_blocks


@pytest.mark.parametrize("n_agents, n_patterns", [(7, 1), (9, 2), (11, 3), (40, 17), (300, 96),
                                                  (250, 173), (61, 22)])
@pytest.mark.parametrize("rows", [1, 3, 8, 64, 10**4])
@pytest.mark.parametrize("float64_sum", [False, True])
def test_gram_matrix_built_in_its_own_buffer_is_exact(n_agents, n_patterns, rows, float64_sum,
                                                       monkeypatch):
    # the float32 sum and the spare half share G's float64 bytes and the sum
    # is widened in place; FLOAT32_EXACT_TERMS = 1 forces the float64 sum,
    # with a spare float32 buffer of its own.  Panels of 4 rows and products
    # of 8: up to p = 22 the spare half cannot hold a product beside 8 stage
    # rows, so the product is a buffer of its own and the stage is the whole
    # spare half (3 rows at p = 3, 10 at p = 17); from p = 96 on the product
    # sits in the spare half (42 stage rows beside it at p = 96, 80 at
    # p = 173).  Blocks of 1 and 3 rows fill the stage several times, larger
    # ones are split where it fills, and the last flush holds what is left
    # (4 x 10 rows at (40, 17) and 5 x 12 + 1 at (61, 22) in any blocks).
    # G spans 1 to 44 panels, the last one short at p = 17, 22 and 173.
    # xi^T phi is the exact integer sums of the +-1 positions
    monkeypatch.setattr(core, "BAND", 4)
    monkeypatch.setattr(core, "TILE", 8)
    if float64_sum:
        monkeypatch.setattr(core, "FLOAT32_EXACT_TERMS", 1)
    rng = np.random.default_rng(n_agents * n_patterns + rows)
    xi = rng.integers(-1, 2, size=(n_agents, n_patterns), dtype=np.int8)
    signs = rng.choice([-1, 1], size=n_agents)
    G, xt_phi = core._integer_gram(_sliced(xi, rows), n_patterns, signs.astype(np.float64))
    xi = xi.astype(np.int64)
    assert G.dtype == np.float64 and G.flags.c_contiguous
    assert np.array_equal(G, packed_upper((xi.T @ xi).astype(np.float64), 4))
    assert np.array_equal(xt_phi, (signs @ xi).astype(np.float64))


def _symmetric(p, kind, rng):
    """A random symmetric p x p matrix; with kind "zero-column" its first row
    and column vanish, and "block-diagonal" splits it into blocks of
    min(p, 5) and p - 5 rows, so that the first panel's reflectors of
    columns 0 to 4 are the identity, as column 0's is in the zero-column
    case."""
    x = rng.normal(size=(p, p))
    A = x + x.T
    if kind == "zero-column":
        A[0], A[:, 0] = 0.0, 0.0
    elif kind == "block-diagonal":
        A[:5, 5:], A[5:, :5] = 0.0, 0.0
    return A


_B = core.BAND


@pytest.mark.parametrize("p, kind, band", [(1, "random", None), (2, "random", None),
                                           (_B - 1, "random", None), (_B, "random", None),
                                           (_B + 1, "random", None),
                                           (2 * _B + 1, "random", None),
                                           (4 * _B + 1, "random", None),
                                           (300, "random", None), (300, "random", 7),
                                           (2 * _B + 1, "zero-column", None),
                                           (2 * _B + 8, "block-diagonal", None),
                                           (2 * _B + 8, "block-diagonal", 3)])
def test_band_reduction(p, kind, band, monkeypatch):
    # the identity carried through the reduction of A's packed upper
    # panels is Q, with B = Q^T A Q of bandwidth b = BAND, exactly symmetric
    # although the panels' update forms (i, j) and (j, i) of a diagonal
    # block by different sums; band patches BAND, the panels' height.
    # p = 2b + 1 and 4b + 1 end on a panel of one row, 300 on one of 12 (of
    # 6 in panels of 7 rows); a zero first column and the block-diagonal
    # split make the first reflectors of the first panel the identity
    # (tau = 0), and in panels of 3 rows those of the second panel's first
    # two columns
    if band:
        monkeypatch.setattr(core, "BAND", band)
    b = core.BAND
    A = _symmetric(p, kind, np.random.default_rng(p))
    Q = np.eye(p)
    panels = core._upper_panels(packed_upper(A, b), p)
    blocks = core._reduce_to_band(panels, Q)
    B = _dense_band(blocks, p)
    scale, (i, j) = np.abs(A).max(), np.indices((p, p))
    assert np.abs(Q.T @ A @ Q - B).max() <= 1e-13 * scale
    assert not B[np.abs(i - j) > b].any()
    assert (B == B.T).all()
    assert not np.tril(blocks[:, :, :b], -1).any()  # each R_{k-1} upper triangular
    assert np.abs(Q.T @ Q - np.eye(p)).max() <= 1e-14
    assert np.allclose(np.linalg.eigvalsh(B), np.linalg.eigvalsh(A), rtol=0.0, atol=1e-12 * scale)
    if kind != "random":  # tau = 0 leaves the columns' sub-diagonal block exactly 0
        cols = 1 if kind == "zero-column" else 5
        assert not B[max(b, cols):, :cols].any()


def test_band_step_matches_the_dense_product():
    # p = 100 is no multiple of b: the step's stacked product of B's row
    # blocks with z's windows against B @ z, and the padding of z and B z
    # exactly 0 over a window of 50 steps
    p = GameParams(n_agents=250, alpha=0.4, external=ExternalBid(1, 1.0), seed=3)
    route = _built(simulator._Gram, generate_disorder(p), init_state(p))
    n, b = p.n_patterns, core.BAND
    assert n % b and route.qt_u.shape == ((-(-n // b) + 2) * b,)
    B, run = _dense_band(route.blocks, n), route.start(init_state(p))
    for _ in range(50):
        simulator._window(route, run, p, 1)
        z, bz = run.q
        assert np.allclose(bz[b:b + n], B @ z[b:b + n], rtol=0.0,
                           atol=1e-13 * np.abs(B).sum(axis=1).max() * np.abs(z).max())
        assert not z[:b].any() and not z[b + n:].any()
        assert not bz[:b].any() and not bz[b + n:].any()


@pytest.mark.parametrize("zeta", [0, 1])
def test_gram_route_matches_the_pattern_space_step_at_large_p(zeta):
    # p = 900: the route's block step in the banded basis of G
    # against the former step's p x p product G y (oracles.pattern_space_run)
    # over an equilibration and a measurement window of 200 steps each
    p = GameParams(n_agents=3000, alpha=0.3, external=ExternalBid(zeta, 1.0), seed=7,
                   t_equilibrate=200, t_measure=200)
    state, sample = init_state(p), generate_disorder(p)
    assert p.n_patterns == 900
    xi = sample.xi.astype(np.float64)  # exact integer products below 2^53
    ref = pattern_space_run(xi.T @ xi, state.lam * (state.phi @ xi), sample.Omega, state.q,
                            state.lam, p.external.series(400), simulator.C0_SNAPSHOTS)
    route = _built(simulator._Gram, sample, state)
    run = route.start(state)
    simulator._window(route, run, p, 200)
    rec = simulator._window(route, run, p, 200)
    for name in ("lam", "sum_a", "sum_a2"):
        assert getattr(rec, name) == pytest.approx(ref[name][200:], rel=1e-12), name
    assert route.c0(rec) == pytest.approx(persistent_correlation(ref["C"]), rel=1e-12)


def test_gram_route_footprint(monkeypatch):
    # tracemalloc sees numpy's buffers.  Through the draw and G's sums the
    # run holds G's packed upper panels (8 p (p + b) / 2 bytes) and three
    # int8 blocks of the draw, never the N x p table nor a p x p array: at
    # p = 900 the blocks are cast to float32 into the stage in G's spare
    # half, beside the product, with no buffer of their own.  Then the build
    # holds G, the reduction's (p - b, 3b) panel buffer [Y | Z | Y], its
    # scratch of (p - b) b entries and a panel's QR, which set the build's
    # bound.  After the build the route holds B's row blocks (24 b^2 ceil(p/b)
    # bytes) and padded p-vectors, no p x p array, and the run's state two
    # more; the windows and c0 add less than 64 N-vectors
    p = GameParams(n_agents=3000, alpha=0.3, external=ExternalBid(0, 1.0), seed=1,
                   t_equilibrate=100, t_measure=200)
    entries, state = core.BLOCK_ENTRIES, init_state(p)
    g_bytes = 4 * p.n_patterns * (p.n_patterns + core.BAND)
    _, sums_peak = traced_peak(
        lambda: core._integer_gram(core.disorder_blocks(p)[0], p.n_patterns, state.phi))
    assert sums_peak <= g_bytes + 3 * entries + 2**19, sums_peak - g_bytes
    peaks, routes, step_window = [], [], simulator._window

    def window(route, *args, **kwargs):
        if not peaks:
            routes.append(route)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            peaks.append(tracemalloc.get_traced_memory()[0])
        return step_window(route, *args, **kwargs)

    monkeypatch.setattr(simulator, "_window", window)
    obs, run_peak = traced_peak(lambda: run_experiment(p))
    build_peak, before = peaks
    assert build_peak <= g_bytes + 4 * entries + 3 * entries + 2**19, build_peak - g_bytes
    b, nb = core.BAND, -(-p.n_patterns // core.BAND)
    vectors = [v for v in vars(routes[0]).values() if isinstance(v, np.ndarray)]
    assert routes[0].blocks.nbytes <= 24 * b * b * nb
    assert all(v.shape == ((nb + 2) * b,) for v in vectors if v is not routes[0].blocks)
    # held when the windows start: the blocks, the route's three padded
    # vectors and the run's four, and the state's q and phi
    assert before <= 24 * b * b * nb + 8 * 7 * (nb + 2) * b + 8 * 2 * p.n_agents + 2**16
    assert run_peak - before < 8 * simulator.C0_SNAPSHOTS * p.n_agents
    assert obs.c0_hat == pytest.approx(1.0, abs=0.02)  # phase F


def test_gram_route_build_raises_the_resident_peak_by_less_than_a_whole_g():
    # after a warm-up build at N = 400, one build at N = 4000, alpha = 0.3
    # (p = 1200) raises the resident peak by less than 8 p^2 bytes
    # (11.0 MiB), the whole float64 G it no longer holds.  On a 2-vCPU Xeon
    # the packed G raised it by 9.0-9.4 MiB (5.6 MiB of them G), the whole
    # G by 15.3-15.4 MiB
    kind, grown = route_build_growth((400, 0.3), (4000, 0.3))
    assert kind == "_Gram"
    assert grown < 8 * 1200**2, grown / 2**20


def test_coupling_route_footprint():
    # from the draw through the build the route holds X and the packed
    # planes (N p / 4 bytes), and sums X with its stage and product inside
    # X's own buffer: no column block of xi beside X, never the int8 N x p
    # table nor an N x N product; the slack of a product of TILE rows is
    # kept
    for n, alpha in ((800, 6.0), (1600, 1.5)):
        params = GameParams(n_agents=n, alpha=alpha, kappa=0.25, seed=1)
        p = params.n_patterns
        route, peak = traced_peak(lambda: simulator._route(params, init_state(params)))
        assert isinstance(route, simulator._Coupled) and route.M.nbytes == 4 * n * n
        assert peak <= 4 * n * n + 4 * n * core.TILE + n * p // 4 + 2**19, n


def test_coupling_route_build_raises_the_resident_peak_by_little_more_than_x():
    # after a warm-up build at N = 400, one build at N = 1600, alpha = 1.5
    # raises the resident peak by at most X (4 N^2 bytes, 9.8 MiB), the
    # packed planes (N p / 4 bytes, 0.9 MiB) and 1.5 MiB.  On a 2-vCPU Xeon
    # it rose by 10.5-10.6 MiB with X summed in its own buffer, and by
    # 14.2-14.3 MiB with a float32 column block of 480 columns and a
    # product of 160 rows beside X
    n, p = 1600, 2400
    kind, grown = route_build_growth((400, 1.5), (n, p / n))
    assert kind == "_Coupled"
    assert grown <= 4 * n * n + n * p // 4 + 3 * 2**19, grown / 2**20


def test_per_pattern_route_footprint():
    # the route fills its float32 table (4 N p bytes) block by block from the
    # draw, which holds three int8 blocks, with one boolean block for d
    params = GameParams(n_agents=2000, alpha=0.5, kappa=0.25, seed=1)
    n, p = params.n_agents, params.n_patterns
    route, peak = traced_peak(lambda: simulator._route(params, init_state(params)))
    assert isinstance(route, simulator._Patterns) and route.xi32.nbytes == 4 * n * p
    assert peak <= 4 * n * p + 4 * core.BLOCK_ENTRIES + 2**16


@pytest.mark.parametrize("kappa, alpha", [(0.25, 2.0), (0.0, 2.0), (0.25, 0.5), (0.0, 0.5)])
def test_run_experiment_drops_the_disorder_sample_before_the_windows(kappa, alpha, monkeypatch):
    # a weak reference to an int8 block, and to the buffer it views, dies
    # with the last strong one.  No route collects a sample: each reads the
    # draw's row blocks once, here one block of all N x p entries
    refs, draws, live, kinds, step_window = [], [], [], [], simulator._window

    def track(xi):
        refs.extend(weakref.ref(a) for a in (xi, xi.base) if a is not None)
        return xi

    def blocks(params):
        draws.append("blocks")
        it, Omega = core.disorder_blocks(params)
        return ((rows, track(xi)) for rows, xi in it), Omega

    def window(route, *args, **kwargs):
        live.append(any(ref() is not None for ref in refs))
        kinds.append(type(route))
        return step_window(route, *args, **kwargs)

    monkeypatch.setattr(simulator, "disorder_blocks", blocks)
    monkeypatch.setattr(simulator, "_window", window)
    run_experiment(GameParams(n_agents=100, alpha=alpha, kappa=kappa, seed=2, t_equilibrate=20,
                              t_measure=32))
    kind = (simulator._Coupled if alpha >= 0.7 else
            simulator._Gram if kappa == 0.0 else simulator._Patterns)
    assert draws == ["blocks"] and refs and kinds == [kind, kind]
    assert live == [False, False]


def test_gram_route_checks_the_table_budget_before_any_draw(monkeypatch):
    # the start's own sub-stream is drawn first, from the same module
    def refuse(seed, purpose):
        if purpose == core._STREAM_DISORDER:
            raise AssertionError("disorder drawn over budget")
        return stream(seed, purpose)

    stream = core.rng_stream

    monkeypatch.setattr(core, "MAX_TABLE_ENTRIES", 100)
    monkeypatch.setattr(core, "rng_stream", refuse)
    with pytest.raises(ResourceBudgetError, match="5000 entries/table"):
        run_experiment(GameParams(n_agents=100, alpha=0.5, seed=2, t_equilibrate=20,
                                  t_measure=32))


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
    route = simulator._route(p, init_state(p))
    assert isinstance(route, simulator._Coupled) and route.M.dtype == np.float32
    xi = sample.xi.astype(np.int64)
    X = xi @ xi.T
    assert np.array_equal(route.M + np.diag(np.diagonal(X)), X)
    exact = _float64_coupled(sample, init_state(p))
    a, b = exact.start(init_state(p)), route.start(init_state(p))
    for _ in range(120):
        _, sum_a, sum_a2 = _recorded_step(exact, a, p)
        _, sum_b, sum_b2 = _recorded_step(route, b, p)
        assert b.t == a.t
        assert np.allclose(b.q, a.q, rtol=0.0, atol=1e-5 * np.abs(a.q).max())
        assert b.lam == pytest.approx(a.lam, rel=1e-5)
        scale = math.sqrt(sample.xi.shape[1] * sum_a2)  # bounds sum_mu |A^mu|
        assert sum_b == pytest.approx(sum_a, abs=1e-5 * scale)
        assert sum_b2 == pytest.approx(sum_a2, rel=1e-5)


@pytest.mark.parametrize("kappa, zeta, alpha", [(0.25, 1, 2.0), (0.0, 0, 4.0), (0.0, 1, 1.2)])
def test_float32_coupling_run_matches_float64_run(kappa, zeta, alpha, monkeypatch):
    p = GameParams(n_agents=200, alpha=alpha, kappa=kappa, external=ExternalBid(zeta, 1.0),
                   seed=4, t_equilibrate=100, t_measure=200)
    obs = run_experiment(p)
    monkeypatch.setattr(simulator, "_route", _float64_route)
    exact = run_experiment(p)
    assert obs.frozen_flag == exact.frozen_flag
    for name in ("c0_hat", "sigma", "sigma_fl", "lambda_mean", "lambda_slope",
                 "bid_mean", "bid_staggered"):
        assert getattr(obs, name) == pytest.approx(getattr(exact, name), rel=1e-6, abs=1e-9)


def test_coupling_route_holds_no_float64_square_matrix():
    params = GameParams(n_agents=50, alpha=3.0, kappa=0.25, seed=1)
    sample = generate_disorder(params)
    route = simulator._route(params, init_state(params))
    assert isinstance(route, simulator._Coupled)
    for value in vars(route).values():
        if isinstance(value, np.ndarray):
            assert value.ndim == 1 or value.dtype == np.float32
    # the diagonal of J is d, kept in float64
    assert np.all(np.diagonal(route.M) == 0.0)
    assert np.array_equal(route.d, precompute_couplings(sample)[3])


def test_route_rule(monkeypatch):
    # each build returns its class, so the rule is read without a draw
    for cls in (simulator._Coupled, simulator._Patterns, simulator._Gram):
        monkeypatch.setattr(cls, "build", lambda *args, cls=cls: cls)
    monkeypatch.setattr(simulator, "disorder_blocks", lambda params: (None, None))

    def kind(n_agents, n_patterns, kappa):
        params = SimpleNamespace(n_agents=n_agents, n_patterns=n_patterns, kappa=kappa)
        return simulator._route(params, None)

    assert kind(1000, 1, 0.0) is simulator._Gram
    assert kind(1000, 699, 0.0) is simulator._Gram
    for kappa in (1e-9, 0.25, 1.0):
        for n_patterns in (1, 300, 699):
            assert kind(1000, n_patterns, kappa) is simulator._Patterns
    for kappa in (0.0, 0.25, 1.0):
        for n_patterns in (700, 749, 1199, 1200):
            assert kind(1000, n_patterns, kappa) is simulator._Coupled
    assert kind(1, 3, 1.0) is simulator._Coupled


def test_run_experiment_takes_gram_route_only_at_kappa_zero(monkeypatch):
    def refuse(kind):
        def build(blocks, Omega, state):
            raise AssertionError(f"{kind} route at N={state.q.shape[0]}, p={Omega.shape[0]}")
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


def test_static_drive_freezes_where_an_alternating_one_does_not():
    # the paper's contrast: at alpha = 3, A = 1 a static drive moves alpha_c2
    # to 2 (1 + A^2) = 4, so the game freezes (F, c0 = 1), while an
    # alternating one leaves the line at 2 (O, c0 = 0.5)
    def runs(zeta):
        return [run_experiment(GameParams(n_agents=500, alpha=3.0, external=ExternalBid(zeta, 1.0),
                                          seed=seed, t_equilibrate=300, t_measure=600))
                for seed in range(4)]

    static, alternating = runs(0), runs(1)
    assert all(obs.frozen_flag for obs in static)
    assert [obs.c0_hat for obs in static] == pytest.approx([1.0] * 4, abs=1e-12)
    assert not any(obs.frozen_flag for obs in alternating)
    c0 = np.array([obs.c0_hat for obs in alternating])
    th = stationary_solution(3.0, 0.0, 1.0, 1)
    assert str(th.phase) == "O" and str(stationary_solution(3.0, 0.0, 1.0, 0).phase) == "F"
    # the seed mean within three standard errors of theory's c0
    assert abs(c0.mean() - th.c0) < 3.0 * c0.std(ddof=1) / np.sqrt(c0.size)


def test_lambda_trajectory_fit_quality_by_phase():
    # frozen phase: near-perfect linear growth; oscillating phase: a slope
    # statistically indistinguishable from zero
    from sphmg.estimators import fit_line

    def lambda_history(alpha, n_steps):
        p = GameParams(n_agents=400, alpha=alpha, seed=6)
        route = simulator._route(p, init_state(p))
        run = route.start(init_state(p))
        simulator._window(route, run, p, n_steps // 2)
        return simulator._window(route, run, p, n_steps // 2).lam  # measurement half

    lam_frozen = lambda_history(1.0, 600)
    t = np.arange(lam_frozen.size, dtype=float)
    slope, _ = fit_line(t, lam_frozen)
    assert slope > 0.0 and np.corrcoef(t, lam_frozen)[0, 1] ** 2 > 0.99  # r2 of the line

    lam_osc = lambda_history(4.0, 600)
    slope, slope_stderr = fit_line(np.arange(lam_osc.size, dtype=float), lam_osc)
    assert abs(slope) <= 5.0 * max(slope_stderr, 1e-12)


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
    th = stationary_solution(1.0, 0.0, 0.0, 0)
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
