"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is deterministic (fixed seeds throughout).
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from sphmg import (
    ExternalBid,
    GameParams,
    KernelParams,
    alpha_c1,
    alpha_c2,
    extract_stationary,
    generate_disorder,
    iterate_kernels,
    run_experiment,
    stationary_solution,
)
from sphmg import core, simulator
from sphmg.core import init_state
from sphmg.theory import Phase
from oracles import (
    alpha_c2_via_c0,
    brute_force_trajectory,
    lift,
    sample_effective_process,
    stationary_residuals,
)

N_DESK = 1000
T_EQ, T_MEAS = 1000, 2000
SEEDS = (0, 1, 2, 3, 4)


@contextmanager
def criterion(number, name, runtime_limit=None):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] criterion {number} ({name}): {status} [{elapsed:.2f}s]")
    if runtime_limit is not None:
        assert elapsed < runtime_limit, f"runtime {elapsed:.2f}s exceeds {runtime_limit}s"


def _desk_run(alpha, kappa, A, zeta, seed):
    params = GameParams(
        n_agents=N_DESK,
        alpha=alpha,
        kappa=kappa,
        external=ExternalBid(zeta=zeta, amplitude=A),
        t_equilibrate=T_EQ,
        t_measure=T_MEAS,
        seed=seed,
    )
    return run_experiment(params)


def test_criterion_1_transition_line_identity():
    with criterion(1, "transition-line identity", runtime_limit=1.0):
        for kappa in np.arange(0.05, 0.951, 0.05):
            for a in (0.0, 1.0, 2.0, 3.0):
                for zeta in (0, 1):
                    direct = alpha_c2(a, kappa, zeta)
                    via_c0 = alpha_c2_via_c0(a, kappa, zeta)
                    assert abs(direct - via_c0) < 1e-9, (kappa, a, zeta)


def test_criterion_2_known_boundary_values():
    with criterion(2, "known boundary values"):
        assert abs(alpha_c1(0.0, 0) - 0.5) < 1e-12
        assert abs(alpha_c2(0.0, 0.0, 0) - 2.0) < 1e-12
        for a in (1.0, 2.0, 3.0):
            assert abs(alpha_c2(a, 0.0, 0) - 2.0 * (1.0 + a * a)) < 1e-12
        for a in (0.0, 1.0, 2.0, 3.0):
            assert abs(alpha_c1(a, 1) - alpha_c1(0.0, 1)) < 1e-12
            for kappa in (0.0, 0.25, 0.5):
                assert abs(alpha_c2(a, kappa, 1) - alpha_c2(0.0, kappa, 1)) < 1e-12


def test_criterion_3_stationary_residuals():
    with criterion(3, "stationary residuals", runtime_limit=1.0):
        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 200:
            kappa = rng.uniform(0.0, 0.9)
            a = rng.uniform(0.0, 3.0)
            zeta = int(rng.integers(0, 2))
            alpha = alpha_c2(a, kappa, zeta) * rng.uniform(1.001, 10.0)
            sol = stationary_solution(alpha, kappa, a, zeta)
            res = stationary_residuals(alpha, kappa, a, zeta, sol)
            assert np.max(np.abs(res)) < 1e-9, (alpha, kappa, a, zeta)
            checked += 1


def test_criterion_4_kernels_vs_theory():
    with criterion(4, "kernel-vs-theory", runtime_limit=120.0):
        for alpha, kappa, a, zeta in [(4, 0, 0, 0), (4, 0, 2, 1), (6, 0.25, 1, 0), (3, 0, 1, 1)]:
            state = iterate_kernels(
                KernelParams(alpha=alpha, kappa=kappa,
                             external=ExternalBid(zeta=zeta, amplitude=a), T=400)
            )
            tail = extract_stationary(state, 0.25)
            th = stationary_solution(alpha, kappa, a, zeta)
            assert abs(tail.c0 - th.c0) / abs(th.c0) < 0.02, (alpha, kappa, a, zeta)
            assert abs(tail.sigma_fl - th.sigma_fl) / th.sigma_fl < 0.02, (alpha, kappa, a, zeta)
            if th.phase is Phase.OSCILLATING:
                assert abs(tail.lam - th.lam) / th.lam < 0.02, (alpha, kappa, a, zeta)
            else:
                # frozen: theory lambda is infinite; the trajectory must
                # diverge at the predicted linear rate instead
                assert abs(tail.Lambda - th.Lambda) / th.Lambda < 0.05
                assert state.lambda_traj[-1] > 0.5 * th.Lambda * state.params.T
        for alpha, kappa in [(1.0, 0.0), (1.0, 0.25)]:
            state = iterate_kernels(KernelParams(alpha=alpha, kappa=kappa, T=400))
            tail = extract_stationary(state, 0.25)
            th = stationary_solution(alpha, kappa, 0.0, 0)
            assert abs(tail.Lambda - th.Lambda) / th.Lambda < 0.05, (alpha, kappa)


def test_criterion_5_simulation_vs_theory_desk_scale():
    with criterion(5, "simulation-vs-theory"):
        for alpha, expected_c0 in [(1.0, 1.0), (4.0, 1.0 / 3.0)]:
            th = stationary_solution(alpha, 0.0, 0.0, 0)
            runs = [_desk_run(alpha, 0.0, 0.0, 0, seed) for seed in SEEDS]
            c0 = float(np.mean([r.c0_hat for r in runs]))
            sigma = float(np.mean([r.sigma for r in runs]))
            assert abs(th.c0 - expected_c0) < 1e-12
            assert abs(c0 - th.c0) < 0.05, (alpha, c0)
            assert abs(sigma - th.sigma) / th.sigma < 0.10, (alpha, sigma)


def test_criterion_6_sigma_decomposition_under_oscillating_drive():
    with criterion(6, "sigma decomposition, oscillating drive"):
        th = stationary_solution(4.0, 0.0, 1.0, 1)
        assert abs(th.bid_staggered - 1.25) < 1e-12
        runs = [_desk_run(4.0, 0.0, 1.0, 1, seed) for seed in SEEDS]
        sigma2 = float(np.mean([r.sigma**2 for r in runs]))
        staggered = float(np.mean([r.bid_staggered for r in runs]))
        fluct2 = sigma2 - staggered**2
        assert abs(fluct2 - th.sigma_fl**2) / th.sigma_fl**2 < 0.10, fluct2
        assert abs(staggered - 1.25) / 1.25 < 0.10, staggered


def test_criterion_7_amplitude_invariance_of_oscillating_boundaries():
    with criterion(7, "amplitude invariance at zeta=1"):
        for a in (0.0, 2.0):
            obs = _desk_run(2.5, 0.0, a, 1, seed=0)
            assert obs.c0_hat < 0.95, (a, obs.c0_hat)
        for a in (0.0, 2.0):
            obs = _desk_run(1.5, 0.0, a, 1, seed=0)
            assert obs.frozen_flag and obs.c0_hat > 0.95, (a, obs.c0_hat)


def _route_trajectory(kind, sample, params, steps, float64=False):
    """q after each of steps batch steps of the route kind, built on the
    whole sample and run from init_state(params) one step window at a time;
    with float64 the coupling route's matrix is cast to float64, and the
    Gram route's (z, B z) is lifted to q = q0 + xi Q z, with Q the identity
    carried through the route's reduction of G in the padded layout of its
    vectors."""
    state = init_state(params)

    def blocks():
        return [(slice(0, sample.xi.shape[0]), sample.xi)]

    route = kind.build(blocks(), sample.Omega, state)
    if float64:
        route = dataclasses.replace(route, M=route.M.astype(np.float64))
    if kind is simulator._Gram:
        p, b = sample.xi.shape[1], core.BAND
        G, _ = core._integer_gram(blocks(), p, state.q / state.lam)
        Q = np.zeros((p, (-(-p // b) + 2) * b))
        Q[:, b:b + p] = np.eye(p)
        core._reduce_to_band(core._upper_panels(G, p), Q[:, b:b + p])
    run = route.start(state)
    for _ in range(steps):
        simulator._window(route, run, params, 1)
        yield lift(state.q, sample.xi, run.q[0], Q) if kind is simulator._Gram else run.q


def test_criterion_8_brute_force_equivalence():
    # Every route's own step against the brute-force per-pattern trajectory:
    # the coupling route with its matrix in float64, and the Gram route on a
    # kappa = 0 copy of each game, at atol 1e-12.  The float32 coupling and
    # per-pattern routes run as they are.  With unit roundoff u = 2^-24,
    # mean phi^2 = 1 (so sum_j |phi_j| <= N) and |A^mu| <= 2 + 2 sqrt(N),
    # a step's float32 casts and sums of at most max(N, p) terms move q by
    # at most 2 p (N + 2) u on the coupling route and
    # 2 p (N + 1) u + 8 p (p + 1) u on the per-pattern route.  The bound for
    # both is the larger, 2 p (N + 1 + 4 (p + 1)) u a step, added up over the
    # steps taken.
    with criterion(8, "brute-force equivalence", runtime_limit=1.0):
        rng = np.random.default_rng(31415)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 11))
            zeta = int(rng.integers(0, 2))
            params = GameParams(
                n_agents=n,
                alpha=p / n,
                kappa=float(rng.uniform(0.0, 1.0)),
                external=ExternalBid(zeta=zeta, amplitude=float(rng.uniform(0.0, 2.0))),
                seed=int(rng.integers(0, 2**32)),
            )
            sample = generate_disorder(params)
            assert sample.xi.shape[1] == p
            q0 = init_state(params).q.tolist()
            a_e = params.external.series(steps).tolist()
            oracle = brute_force_trajectory(q0, sample, a_e, params.kappa, steps)
            kappa0 = dataclasses.replace(params, kappa=0.0)
            oracle0 = brute_force_trajectory(q0, sample, a_e, 0.0, steps)
            runs = zip(_route_trajectory(simulator._Coupled, sample, params, steps, float64=True),
                       _route_trajectory(simulator._Gram, sample, kappa0, steps),
                       _route_trajectory(simulator._Coupled, sample, params, steps),
                       _route_trajectory(simulator._Patterns, sample, params, steps))
            per_step = 2 * p * (n + 1 + 4 * (p + 1)) * 2.0**-24
            for step, (coupled, gram, coupled32, patterns) in enumerate(runs):
                assert np.allclose(coupled, oracle[step + 1], rtol=0, atol=1e-12)
                assert np.allclose(gram, oracle0[step + 1], rtol=0, atol=1e-12)
                bound = (step + 1) * per_step
                for q in (coupled32, patterns):
                    assert np.abs(q - oracle[step + 1]).max() <= bound


def test_criterion_9_monte_carlo_validates_kernel_iteration():
    with criterion(9, "Monte Carlo kernel validation", runtime_limit=60.0):
        state = iterate_kernels(KernelParams(alpha=2.0, kappa=0.0, T=15))
        rng = np.random.default_rng(1234)
        c_mc, c_se = sample_effective_process(state, n_paths=100_000, rng=rng)
        bound = np.maximum(3.0 * c_se, 1e-10)
        assert np.all(np.abs(c_mc - state.C) < bound)
