import math

import numpy as np
import pytest

from sphmg import (
    ContractError,
    DegenerateStateError,
    ExternalBid,
    KernelParams,
    alpha_c2,
    extract_stationary,
    iterate_kernels,
    stationary_solution,
)
from oracles import (
    bid_mean_trajectory,
    cross_moments,
    cross_moments_by_recursion,
    kernel_moments,
    memory_rows,
    reference_kernels,
    response,
    sample_effective_process,
)
from tracing import traced_peak


def _params(alpha, kappa=0.0, A=0.0, zeta=0, T=200, init_scale=1.0):
    return KernelParams(
        alpha=alpha, kappa=kappa, external=ExternalBid(zeta=zeta, amplitude=A),
        init_scale=init_scale, T=T,
    )


def test_zero_alpha_limit_is_static():
    # alpha = 0 itself is refused, as the simulator and the theory refuse it
    state = iterate_kernels(_params(1e-12, A=2.0, zeta=1, T=30, init_scale=0.7))
    assert np.allclose(state.C, 1.0)
    assert np.allclose(state.lambda_traj, 0.7)


def test_structure_invariants():
    state = iterate_kernels(_params(3.0, kappa=0.2, A=1.0, zeta=1, T=60))
    assert np.abs(np.diag(state.C) - 1.0).max() < 1e-10
    assert np.array_equal(state.C, state.C.T)
    assert np.abs(state.C).max() <= 1.0 + 1e-8
    assert np.all(state.lambda_traj > 0.0)
    # causality: W is unit lower triangular, so G = W^(-1) - 1 is strictly so
    assert np.array_equal(np.diag(state.W), np.ones(61))
    assert np.abs(np.triu(state.W, 1)).max() == 0.0
    assert np.abs(np.triu(response(state))).max() == 0.0  # includes diagonal


@pytest.mark.parametrize("alpha, kappa, A, zeta", [(1.0, 0.0, 0.0, 0),    # frozen phase F
                                                   (4.0, 0.0, 0.0, 0),    # oscillating phase O
                                                   (3.0, 0.0, 1.0, 1),    # alternating drive
                                                   (2.4, 0.25, 1.0, 0)])  # partial self-impact
def test_iteration_matches_seven_array_recursion(alpha, kappa, A, zeta):
    # the iterator derives Sigma, K, g and the cross moments from C and W;
    # the reference holds all seven arrays and takes each row by its
    # defining product, so only the rounding differs
    params = _params(alpha, kappa, A, zeta, T=200)
    state = iterate_kernels(params)
    C, G, lam, Sigma, W = reference_kernels(params)
    for got, want in [(state.C, C), (response(state), G), (state.lambda_traj, lam), (state.W, W)]:
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("A, T, bounds", [(1e3, 300, (1.5e-10, 4e-12, 1e-11, 6e-11)),
                                          (1e4, 200, (1.5e-8, 3e-11, 1e-9, 6e-9))])
def test_strong_alternating_drive_keeps_its_digits(A, T, bounds):
    # against the seven-array recursion in long double.  A strong alternating
    # drive makes ra = W a_e and G ra = a_e - ra large with alternating
    # signs; G r1 and G ra are summed from W's rows, not subtracted from 1
    # and a_e.  The bounds are 2.6-3.1x the largest relative errors of the
    # five-product recursion that held G (C 5.1e-11 and 5.7e-9, lambda
    # 1.3e-12 and 9.9e-12, W 3.6e-12 and 3.4e-10, G 2.2e-11 and 2.1e-9);
    # the subtracted form misses them by 40x or more (C 6.6e-9 and 6.0e-6)
    params = _params(3.0, A=A, zeta=1, T=T)
    state = iterate_kernels(params)
    C, G, lam, _, W = reference_kernels(params, np.longdouble)
    for got, want, bound in zip((state.C, state.lambda_traj, state.W, response(state)),
                                (C, lam, W, G), bounds):
        assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_state_stores_only_underived_kernels():
    state = iterate_kernels(_params(2.5, kappa=0.2, A=1.0, zeta=1, T=40))
    stored = {k for k, v in vars(state).items() if isinstance(v, np.ndarray)}
    assert stored == {"C", "lambda_traj", "W"}


def test_kernel_footprint():
    # tracemalloc sees numpy's buffers: the iteration holds C and W, two
    # (T+1)^2 float64 arrays, and less than 64 (T+1)-vectors besides
    params = _params(2.4, kappa=0.25, A=1.0, zeta=1, T=400)
    n = params.T + 1
    _, peak = traced_peak(lambda: iterate_kernels(params))
    assert peak <= 2 * 8 * n * n + 64 * 8 * n


@pytest.mark.parametrize("alpha, init_scale", [(3.0, 1e300), (3.0, 1e200), (1e300, 1.0)])
def test_overflow_fails_at_its_own_step(alpha, init_scale):
    # K(1, 1) overflows; no numpy warning (pytest.ini makes one an error)
    with pytest.raises(DegenerateStateError, match=r"^<q\^2> overflowed at t=1$"):
        iterate_kernels(_params(alpha, T=40, init_scale=init_scale))


def test_cross_moments_satisfy_gaussian_identity():
    # cross_moments takes <eta(t) q(s)> from the state's Sigma and g by the
    # Gaussian identity sqrt(alpha) (Sigma g^T)_ts for the linear process;
    # cross_moments_by_recursion integrates the recursion of q instead.  K
    # must obey that recursion with the recursion's L at every (t, s), which
    # checks the cross moments the iteration consumed.  Exact, so tight
    # tolerance.
    for alpha, kappa, A, zeta in [(2.0, 0.0, 0.0, 0), (4.0, 0.3, 1.0, 1), (1.5, 0.0, 2.0, 0)]:
        state = iterate_kernels(_params(alpha, kappa, A, zeta, T=40))
        expected = cross_moments_by_recursion(state)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(cross_moments(state) - expected).max() / scale < 1e-12
        K = kernel_moments(state)
        ml = memory_rows(state.W, kappa, state.lambda_traj)
        K_next = K[:-1] - alpha * (ml[:-1] @ K) + math.sqrt(alpha) * expected[:-1]
        assert np.abs(K[1:] - K_next).max() / np.abs(K).max() < 1e-12


def test_monte_carlo_reproduces_the_correlation_matrix():
    state = iterate_kernels(_params(2.0, kappa=0.25, A=1.0, zeta=1, T=10))
    rng = np.random.default_rng(2024)
    c_mc, c_se = sample_effective_process(state, n_paths=200_000, rng=rng)
    bound = np.maximum(3.0 * c_se, 1e-10)
    assert np.all(np.abs(c_mc - state.C) < bound)


def test_oscillating_point_matches_theory():
    state = iterate_kernels(_params(4.0, T=400))
    tail = extract_stationary(state, 0.25)
    th = stationary_solution(4.0, 0.0, 0.0, 0)
    assert tail.c0 == pytest.approx(th.c0, rel=0.02)
    assert tail.lam == pytest.approx(th.lam, rel=0.02)
    assert tail.sigma_fl**2 == pytest.approx(th.sigma_fl**2, rel=0.03)
    assert abs(tail.Lambda) < 1e-3


def test_oscillating_point_with_drive_matches_theory():
    state = iterate_kernels(_params(3.0, A=1.0, zeta=1, T=300))
    tail = extract_stationary(state, 0.25)
    th = stationary_solution(3.0, 0.0, 1.0, 1)
    assert tail.c0 == pytest.approx(th.c0, rel=0.02)
    assert tail.lam == pytest.approx(th.lam, rel=0.02)
    assert tail.sigma_fl == pytest.approx(th.sigma_fl, rel=0.02)


def test_frozen_point_growth_rate_and_fluctuations():
    state = iterate_kernels(_params(1.0, T=400))
    tail = extract_stationary(state, 0.25)
    th = stationary_solution(1.0, 0.0, 0.0, 0)
    assert tail.Lambda == pytest.approx(th.Lambda, rel=0.05)
    assert tail.c0 == pytest.approx(1.0, abs=0.01)
    assert tail.sigma_fl == pytest.approx(th.sigma_fl, rel=0.05)
    # constraint force diverges: lambda grew linearly to O(Lambda * T)
    assert state.lambda_traj[-1] > 0.5 * th.Lambda * state.params.T


def test_tti_emerges_in_the_tail():
    state = iterate_kernels(_params(4.0, T=400))
    for lag in range(6):
        vals = [state.C[t, t - lag] for t in range(330, 401)]
        assert max(vals) - min(vals) < 1e-3


@pytest.mark.parametrize("kappa, A, zeta", [(0.0, 0.0, 0), (0.0, 1.0, 0), (0.0, 1.0, 1),
                                             (0.25, 1.0, 0), (0.25, 1.0, 1)])
def test_kernel_tail_finds_each_drives_transition_line(kappa, A, zeta):
    # a static drive moves alpha_c2 to 2(1 + A^2) at kappa = 0, an alternating
    # one leaves it at 2.  Probe at T = 400, tail 0.25: at 0.9 alpha_c2 the
    # tail Lambda (0.046-0.25) was within 0.89% of theory, the slow side being
    # zeta = 1, kappa = 0 (0.26% at T = 800); at 1.1 alpha_c2 it was <= 2.1e-5
    assert alpha_c2(1.0, 0.0, 0) == 4.0 and alpha_c2(1.0, 0.0, 1) == 2.0
    line = alpha_c2(A, kappa, zeta)
    for factor, phase in ((0.9, "F"), (1.1, "O")):
        th = stationary_solution(factor * line, kappa, A, zeta)
        tail = extract_stationary(iterate_kernels(_params(factor * line, kappa, A, zeta, T=400)))
        assert str(th.phase) == phase
        if phase == "F":
            assert tail.Lambda == pytest.approx(th.Lambda, rel=1.5e-2)
        else:
            assert th.Lambda == 0.0 and abs(tail.Lambda) < 1e-4


def test_bid_mean_trajectory_zero_drive():
    state = iterate_kernels(_params(2.5, T=50))
    assert np.all(bid_mean_trajectory(state) == 0.0)


def test_bid_mean_trajectory_static_drive():
    state = iterate_kernels(_params(6.0, A=1.0, zeta=0, T=300))
    traj = bid_mean_trajectory(state)
    # chi = 1/(alpha-1) = 0.2 at kappa = 0, so the tail approaches 1/1.2
    assert traj[-60:].mean() == pytest.approx(5.0 / 6.0, rel=0.02)


def test_bid_mean_trajectory_oscillating_drive():
    state = iterate_kernels(_params(4.0, A=1.0, zeta=1, T=300))
    traj = bid_mean_trajectory(state)
    t = np.arange(301)
    staggered = np.where(t % 2 == 0, 1.0, -1.0) * traj
    assert staggered[-60:].mean() == pytest.approx(1.25, rel=0.02)
    # plain average vanishes for a pure oscillation
    assert abs(traj[-60:].mean()) < 0.01


def test_extract_stationary_static_limit():
    state = iterate_kernels(_params(1e-12, T=60))
    tail = extract_stationary(state, 0.5)
    assert tail.c0 == pytest.approx(1.0, abs=1e-12)
    assert tail.Lambda == pytest.approx(0.0, abs=1e-12)


def test_contract_errors():
    with pytest.raises(ContractError):
        KernelParams(alpha=-1.0)
    with pytest.raises(ContractError):
        KernelParams(alpha=1.0, T=0)
    with pytest.raises(ContractError, match=r"^init_scale must be > 0, got 0\.0$"):
        KernelParams(alpha=1.0, init_scale=0.0)  # the message GameParams gives
    with pytest.raises(ContractError, match="kappa"):
        KernelParams(alpha=1.0, kappa=1.5)
    state = iterate_kernels(_params(1.0, T=20))
    with pytest.raises(ContractError):
        extract_stationary(state, 0.6)
    with pytest.raises(ContractError):
        extract_stationary(state, 0.1)  # only 2 tail points


def test_unbiased_scale_start_converges_to_the_same_tail():
    # init_scale is the simulation's start; the stationary tail of the
    # oscillating phase does not remember it
    tail_big = extract_stationary(iterate_kernels(_params(4.0, T=300, init_scale=1.0)), 0.2)
    tail_small = extract_stationary(iterate_kernels(_params(4.0, T=300, init_scale=1e-4)), 0.2)
    assert tail_big.c0 == pytest.approx(tail_small.c0, abs=5e-3)
    assert tail_big.lam == pytest.approx(tail_small.lam, rel=5e-3)
