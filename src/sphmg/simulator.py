"""Agent-level integration of the batch spherical minority game.

One batch step maps the valuation vector q(t) through

    q_i(t+1) = q_i(t) - b_i A_e(t) - h_i - sum_j J_ij phi_j(t) + kappa d_i phi_i(t)

followed by the spherical renormalization lambda(t+1) = sqrt(mean q^2) and
phi = q / lambda.  This is the exact regrouping of the per-pattern form

    q_i(t+1) = q_i(t) - (2/sqrt(N)) sum_mu xi_i^mu [A^mu(t) - (kappa/sqrt(N)) phi_i(t) xi_i^mu]
    A^mu(t)  = A_e(t) + Omega_mu + N^(-1/2) sum_j phi_j(t) xi_j^mu

so the coupling route and the per-pattern route agree to accumulation noise.
At kappa = 0 every update is q(t+1) = q(t) - (2/sqrt(N)) xi A(t), so q(t)
stays in q(0) + span(xi): the Gram route carries q(t) = q(0) + xi y(t) with a
p-vector y and takes a step through the exact p x p Gram matrix xi^T xi.
run_experiment integrates an equilibration and a measurement window on one
route, each measured step also yielding the bid moments sum_mu A^mu(t) and
sum_mu A^mu(t)^2, and reduces the history to the stationary observables.
"""

from __future__ import annotations

from collections import deque
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
    row_blocks,
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


def _renormalize(q: np.ndarray, t: int) -> AgentState:
    lam = float(np.sqrt(np.mean(q * q)))
    if lam == 0.0:
        raise DegenerateStateError(f"all valuations vanished at t={t}")
    return AgentState(q=q, lam=lam, phi=q / lam, t=t)


def _route_kind(n_agents: int, n_patterns: int, kappa: float) -> type:
    """The route of a run, from (N, p, kappa) alone: couplings from p = 1.2 N
    on, the Gram route at kappa = 0 below p = 0.75 N, per-pattern passes
    otherwise.  Both thresholds are measured break-evens (README, Notes on
    numerics)."""
    if n_patterns >= 1.2 * n_agents:
        return _Coupled
    if kappa == 0.0 and n_patterns < 0.75 * n_agents:
        return _Gram
    return _Patterns


def _route(sample: DisorderSample, kappa: float) -> _Coupled | _Patterns | _Gram:
    return _route_kind(sample.n_agents, sample.n_patterns, kappa).build(sample)


class _Direct:
    """A route whose state is the AgentState itself."""

    def start(self, state: AgentState) -> AgentState:
        return state

    def positions(self, states: list[AgentState]) -> np.ndarray:
        return np.array([s.phi for s in states])


@dataclass(frozen=True)
class _Coupled(_Direct):
    """What the coupling route reads: the compiled couplings and the pattern-
    bias sums p, sum_mu Omega_mu and sum_mu Omega_mu^2 of the bid moments."""

    c: Couplings
    n_patterns: int
    sum_omega: float
    omega_sq: float

    @classmethod
    def build(cls, sample: DisorderSample) -> _Coupled:
        Omega = sample.Omega
        return cls(precompute_couplings(sample), Omega.size, float(Omega.sum()),
                   float(Omega @ Omega))

    def step(self, state: AgentState, params: GameParams) -> tuple[AgentState, float, float]:
        """One batch step: the renormalized next state and the moments
        (sum_mu A^mu, sum_mu (A^mu)^2) of the bids at time state.t, taken
        from J phi through O(N) dot products."""
        a_e = params.external.value_at(state.t)
        phi, c = state.phi, self.c
        j_phi = c.J @ phi
        q = state.q - c.b * a_e - c.h - j_phi + params.kappa * (c.d * phi)
        p, b_phi = self.n_patterns, float(c.b @ phi)
        sum_a = p * a_e + self.sum_omega + 0.5 * b_phi
        sum_a2 = (p * a_e**2 + self.omega_sq + 2.0 * a_e * self.sum_omega
                  + a_e * b_phi + float(c.h @ phi) + 0.5 * float(phi @ j_phi))
        return _renormalize(q, state.t + 1), sum_a, sum_a2


@dataclass(frozen=True)
class _Patterns(_Direct):
    """What the per-pattern route reads: xi in float32 (exact for entries in
    {-1, 0, 1}), the self-couplings d and the pattern bias Omega."""

    xi32: np.ndarray
    d: np.ndarray
    Omega: np.ndarray

    @classmethod
    def build(cls, sample: DisorderSample) -> _Patterns:
        return cls(sample.xi.astype(np.float32), self_couplings(sample.xi), sample.Omega)

    def step(self, state: AgentState, params: GameParams) -> tuple[AgentState, float, float]:
        """One batch step from the explicit bids, whose pattern products run
        in float32 (exact to ~1e-7, far below measurement noise)."""
        a_e = params.external.value_at(state.t)
        phi = state.phi
        sqrt_n = np.sqrt(phi.shape[0])
        bids = a_e + self.Omega + (phi.astype(np.float32) @ self.xi32).astype(np.float64) / sqrt_n
        back = (self.xi32 @ bids.astype(np.float32)).astype(np.float64)
        q = state.q - (2.0 / sqrt_n) * back + params.kappa * (self.d * phi)
        return _renormalize(q, state.t + 1), float(bids.sum()), float(bids @ bids)


@dataclass(frozen=True)
class _GramState:
    """q(t) = q0 + xi y(t), carried as y and G y, with the run's constants
    q0, u = xi^T q0 and |q0|^2."""

    q0: np.ndarray
    u: np.ndarray
    q0_sq: float
    y: np.ndarray
    gy: np.ndarray
    lam: float
    t: int


@dataclass(frozen=True)
class _Gram:
    """What the Gram route reads at kappa = 0: xi (int8), the pattern bias
    Omega and the Gram matrix G = xi^T xi, an exact integer matrix in
    float64."""

    xi: np.ndarray
    Omega: np.ndarray
    G: np.ndarray

    @classmethod
    def build(cls, sample: DisorderSample) -> _Gram:
        # float32 products and sums of integers bounded by N are exact below 2^24
        xi, (n, p) = sample.xi, sample.xi.shape
        G = np.zeros((p, p), dtype=np.float32 if n < 2**24 else np.float64)
        for rows in row_blocks(xi):
            block = xi[rows].astype(np.float32)
            G += block.T @ block
        return cls(xi, sample.Omega, G.astype(np.float64, copy=False))

    def start(self, state: AgentState) -> _GramState:
        p = self.G.shape[0]
        u = np.zeros(p)
        for rows in row_blocks(self.xi):
            u += state.q[rows] @ self.xi[rows].astype(np.float64)
        return _GramState(q0=state.q, u=u, q0_sq=float(state.q @ state.q), y=np.zeros(p),
                          gy=np.zeros(p), lam=state.lam, t=state.t)

    def step(self, state: _GramState, params: GameParams) -> tuple[_GramState, float, float]:
        """One batch step in pattern space: the bids are
        A = a_e + Omega + (u + G y) / (sqrt(N) lambda), y moves by
        -(2/sqrt(N)) A, and N lambda^2 = |q0|^2 + 2 u.y + y.G y reuses G y,
        the one p x p product of the step."""
        a_e = params.external.value_at(state.t)
        n = self.xi.shape[0]
        sqrt_n = np.sqrt(n)
        bids = a_e + self.Omega + (state.u + state.gy) / (sqrt_n * state.lam)
        y = state.y - (2.0 / sqrt_n) * bids
        gy = self.G @ y
        lam_sq = (state.q0_sq + 2.0 * float(state.u @ y) + float(y @ gy)) / n
        if not lam_sq > 0.0:
            raise DegenerateStateError(f"all valuations vanished at t={state.t + 1}")
        nxt = _GramState(state.q0, state.u, state.q0_sq, y, gy, float(np.sqrt(lam_sq)), state.t + 1)
        return nxt, float(bids.sum()), float(bids @ bids)

    def valuations(self, states: list[_GramState]) -> np.ndarray:
        """Rows q = q0 + xi y of the given states, taken over row blocks of xi."""
        ys = np.array([s.y for s in states])
        q = np.empty((len(states), self.xi.shape[0]))
        for rows in row_blocks(self.xi):
            q[:, rows] = ys @ self.xi[rows].astype(np.float64).T
        q += states[0].q0
        return q

    def positions(self, states: list[_GramState]) -> np.ndarray:
        phi = self.valuations(states)
        phi /= np.array([[s.lam] for s in states])
        return phi


def batch_step(state: AgentState, couplings: Couplings, params: GameParams) -> AgentState:
    """One coupling-based batch step followed by the spherical renormalization."""
    if couplings.n_agents != state.q.shape[0]:
        raise ContractError("state and couplings disagree on the number of agents")
    # no sample here and the moments are discarded, so the bias sums stay 0
    return _Coupled(couplings, 0, 0.0, 0.0).step(state, params)[0]


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
    N x N couplings are built only when p >= 1.2 N; the positions of the c0
    snapshots are rebuilt from the route's state at the end.
    """
    if params.t_measure < MIN_MEASURE_STEPS:
        raise ContractError(f"t_measure must be >= {MIN_MEASURE_STEPS} for stable estimates")
    if sample is None:
        sample = generate_disorder(params)
    if sample.n_agents != params.n_agents:
        raise ContractError("sample size does not match params.n_agents")
    route = _route(sample, params.kappa)

    state = route.start(init_state(params))
    for _ in range(params.t_equilibrate):
        state = route.step(state, params)[0]

    tau, p = params.t_measure, sample.n_patterns
    snapshots = deque(maxlen=min(C0_SNAPSHOTS, tau))
    lam_hist = np.empty(tau)
    abar_hist = np.empty(tau)
    t_abs = np.arange(params.t_equilibrate, params.t_equilibrate + tau)
    sum_a = sum_a2 = 0.0
    for k in range(tau):
        lam_hist[k] = state.lam  # lambda(t) entering this step's positions
        state, step_a, step_a2 = route.step(state, params)
        sum_a += step_a
        sum_a2 += step_a2
        abar_hist[k] = step_a / p
        snapshots.append(state)
    phi_hist = route.positions(list(snapshots))

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
