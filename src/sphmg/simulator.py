"""Agent-level integration of the batch spherical minority game.

One batch step maps the valuation vector q(t) through

    q_i(t+1) = q_i(t) - b_i A_e(t) - h_i - sum_j J_ij phi_j(t) + kappa d_i phi_i(t)

followed by the spherical renormalization lambda(t+1) = sqrt(mean q^2) and
phi = q / lambda.  This is the exact regrouping of the per-pattern form

    q_i(t+1) = q_i(t) - (2/sqrt(N)) sum_mu xi_i^mu [A^mu(t) - (kappa/sqrt(N)) phi_i(t) xi_i^mu]
    A^mu(t)  = A_e(t) + Omega_mu + N^(-1/2) sum_j phi_j(t) xi_j^mu

so the coupling route and the per-pattern route agree to accumulation noise.
run_experiment integrates an equilibration and a measurement window on one
route, each measured step also yielding the bid moments sum_mu A^mu(t) and
sum_mu A^mu(t)^2, and reduces the history to the stationary observables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _STREAM_INIT,
    ContractError,
    Couplings,
    DegenerateStateError,
    DisorderSample,
    GameParams,
    generate_disorder,
    precompute_couplings,
    rng_stream,
    self_couplings,
)
from .estimators import fit_line, lag_correlations, persistent_correlation

# Snapshot window (unit stride, tail of the measurement window) for the c0
# estimator; 64 lags leave >= 31 consecutive-lag pairs in the upper half.
C0_SNAPSHOTS = 64

# Frozen-state proxy: lambda(t) declared divergent when the fitted slope
# exceeds this many standard errors and lambda grew by at least 2x.
FROZEN_SLOPE_SIGMAS = 5.0
FROZEN_GROWTH_FACTOR = 2.0

MIN_MEASURE_STEPS = 16


@dataclass(frozen=True)
class AgentState:
    """Microscopic state: valuations q, constraint force lam, positions phi=q/lam."""

    q: np.ndarray
    lam: float
    phi: np.ndarray
    t: int


@dataclass(frozen=True)
class RunObservables:
    """Stationary observables measured over one run's measurement window."""

    c0_hat: float
    sigma: float
    sigma_fl: float
    lambda_mean: float
    lambda_slope: float
    bid_mean: float
    bid_staggered: float
    frozen_flag: bool


def init_state(params: GameParams) -> AgentState:
    """Random +-init_scale valuations; lambda(0) = init_scale exactly."""
    rng = rng_stream(params.seed, _STREAM_INIT)
    p_plus = 0.5 * (1.0 + params.sign_bias)
    signs = np.where(rng.random(params.n_agents) < p_plus, 1.0, -1.0)
    q = params.init_scale * signs
    return AgentState(q=q, lam=params.init_scale, phi=signs.copy(), t=0)


def market_bids(state: AgentState, sample: DisorderSample, a_e: float) -> np.ndarray:
    """Total bid per pattern: A^mu = a_e + Omega_mu + N^(-1/2) sum_j phi_j xi_j^mu."""
    n = sample.n_agents
    if state.phi.shape[0] != n:
        raise ContractError(
            f"state has {state.phi.shape[0]} agents, sample has {n}"
        )
    internal = (state.phi @ sample.xi.astype(np.float64)) / np.sqrt(n)
    return a_e + sample.Omega + internal


def _renormalize(q: np.ndarray, t: int) -> AgentState:
    lam = float(np.sqrt(np.mean(q * q)))
    if lam == 0.0:
        raise DegenerateStateError(f"all valuations vanished at t={t}")
    return AgentState(q=q, lam=lam, phi=q / lam, t=t)


def _use_couplings(n_agents: int, n_patterns: int) -> bool:
    """Coupling route from p = 1.2 N on: the measured break-even of the two
    routes (README, Notes on numerics)."""
    return n_patterns >= 1.2 * n_agents


@dataclass(frozen=True)
class _Coupled:
    """What the coupling route reads: the compiled couplings and the pattern-
    bias sums p, sum_mu Omega_mu and sum_mu Omega_mu^2 of the bid moments."""

    c: Couplings
    n_patterns: int
    sum_omega: float
    omega_sq: float


@dataclass(frozen=True)
class _Patterns:
    """What the per-pattern route reads: xi in float32 (exact for entries in
    {-1, 0, 1}), the self-couplings d and the pattern bias Omega."""

    xi32: np.ndarray
    d: np.ndarray
    Omega: np.ndarray


def _route(sample: DisorderSample) -> _Coupled | _Patterns:
    Omega = sample.Omega
    if _use_couplings(sample.n_agents, sample.n_patterns):
        c = precompute_couplings(sample)
        return _Coupled(c, Omega.size, float(Omega.sum()), float(Omega @ Omega))
    return _Patterns(sample.xi.astype(np.float32), self_couplings(sample.xi), Omega)


def _step(
    route: _Coupled | _Patterns, state: AgentState, params: GameParams
) -> tuple[AgentState, float, float]:
    """One batch step: the renormalized next state and the moments
    (sum_mu A^mu, sum_mu (A^mu)^2) of the bids at time state.t.

    The coupling route takes the moments from J phi through O(N) dot
    products; the per-pattern route sums the explicit bids, whose pattern
    products run in float32 (exact to ~1e-7, far below measurement noise).
    """
    a_e = params.external.value_at(state.t)
    phi = state.phi
    if isinstance(route, _Coupled):
        c = route.c
        j_phi = c.J @ phi
        q = state.q - c.b * a_e - c.h - j_phi + params.kappa * (c.d * phi)
        p, b_phi = route.n_patterns, float(c.b @ phi)
        sum_a = p * a_e + route.sum_omega + 0.5 * b_phi
        sum_a2 = (p * a_e**2 + route.omega_sq + 2.0 * a_e * route.sum_omega
                  + a_e * b_phi + float(c.h @ phi) + 0.5 * float(phi @ j_phi))
    else:
        sqrt_n = np.sqrt(phi.shape[0])
        bids = a_e + route.Omega + (phi.astype(np.float32) @ route.xi32).astype(np.float64) / sqrt_n
        back = (route.xi32 @ bids.astype(np.float32)).astype(np.float64)
        q = state.q - (2.0 / sqrt_n) * back + params.kappa * (route.d * phi)
        sum_a, sum_a2 = float(bids.sum()), float(bids @ bids)
    return _renormalize(q, state.t + 1), sum_a, sum_a2


def batch_step(state: AgentState, couplings: Couplings, params: GameParams) -> AgentState:
    """One coupling-based batch step followed by the spherical renormalization."""
    if couplings.n_agents != state.q.shape[0]:
        raise ContractError("state and couplings disagree on the number of agents")
    # no sample here and the moments are discarded, so the bias sums stay 0
    return _step(_Coupled(couplings, 0, 0.0, 0.0), state, params)[0]


def measure_c0(phi_history: np.ndarray) -> float:
    """Persistent correlation from consecutive position snapshots.

    The stationary two-time correlation has the form c0 + (1 - c0)(-1)^tau;
    averaging lag pairs (tau, tau+1) over the upper half of the available
    lags cancels the staggered part and returns c0.
    """
    phi = np.asarray(phi_history, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] < 8:
        raise ContractError("need at least 8 unit-stride snapshots to estimate c0")
    return persistent_correlation(lag_correlations(phi))


def run_experiment(params: GameParams, sample: DisorderSample | None = None) -> RunObservables:
    """Equilibrate, measure, and reduce one quenched run to its observables.

    sigma^2 is the time-pattern variance of the recorded bids A^mu(t); the
    staggered bid mean is (1/tau) sum_t (-1)^t Abar(t) with Abar the pattern
    average and t the absolute batch time; sigma_fl^2 subtracts the squared
    staggered mean from sigma^2 (the plain mean is already removed).  The
    N x N couplings are built only when p >= 1.2 N.
    """
    if params.t_measure < MIN_MEASURE_STEPS:
        raise ContractError(f"t_measure must be >= {MIN_MEASURE_STEPS} for stable estimates")
    if sample is None:
        sample = generate_disorder(params)
    if sample.n_agents != params.n_agents:
        raise ContractError("sample size does not match params.n_agents")
    route = _route(sample)

    state = init_state(params)
    for _ in range(params.t_equilibrate):
        state = _step(route, state, params)[0]

    tau, p = params.t_measure, sample.n_patterns
    n_snap = min(C0_SNAPSHOTS, tau)
    phi_ring = np.empty((n_snap, sample.n_agents), dtype=np.float64)
    lam_hist = np.empty(tau)
    abar_hist = np.empty(tau)
    t_abs = np.arange(params.t_equilibrate, params.t_equilibrate + tau)
    sum_a = sum_a2 = 0.0
    for k in range(tau):
        lam_hist[k] = state.lam  # lambda(t) entering this step's positions
        state, step_a, step_a2 = _step(route, state, params)
        sum_a += step_a
        sum_a2 += step_a2
        abar_hist[k] = step_a / p
        phi_ring[k % n_snap] = state.phi
    # unroll the ring so rows are the last n_snap snapshots in time order
    phi_hist = phi_ring[np.arange(tau - n_snap, tau) % n_snap]

    mean_a = sum_a / (tau * p)
    sigma2 = sum_a2 / (tau * p) - mean_a**2
    sigma = float(np.sqrt(max(sigma2, 0.0)))
    signs = np.where(t_abs % 2 == 0, 1.0, -1.0)
    bid_staggered = float(np.mean(signs * abar_hist))
    sigma_fl = float(np.sqrt(max(sigma2 - bid_staggered**2, 0.0)))

    fit = fit_line(t_abs.astype(np.float64), lam_hist)
    frozen = (
        fit.slope > FROZEN_SLOPE_SIGMAS * fit.slope_stderr
        and lam_hist[-1] > FROZEN_GROWTH_FACTOR * lam_hist[0]
    )
    return RunObservables(
        c0_hat=measure_c0(phi_hist),
        sigma=sigma,
        sigma_fl=sigma_fl,
        lambda_mean=float(lam_hist.mean()),
        lambda_slope=fit.slope,
        bid_mean=mean_a,
        bid_staggered=bid_staggered,
        frozen_flag=bool(frozen),
    )
