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

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    _STREAM_INIT,
    FLOAT32_EXACT_TERMS,
    ContractError,
    Couplings,
    DegenerateStateError,
    DisorderSample,
    GameParams,
    _integer_couplings,
    generate_disorder,
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

# Entries of xi cast to float at a time for the Gram matrix xi^T xi, which
# runs over row blocks.
GRAM_BLOCK_ENTRIES = 2**20


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
    lam = float(np.sqrt(q @ q / q.shape[0]))
    if lam == 0.0:
        raise DegenerateStateError(f"all valuations vanished at t={t}")
    return AgentState(q=q, lam=lam, phi=q / lam, t=t)


def _route_kind(n_agents: int, n_patterns: int, kappa: float) -> type:
    """The route of a run, from (N, p, kappa) alone: couplings from p = 0.7 N
    on; below it the Gram route at kappa = 0 and per-pattern passes
    otherwise.  The threshold is a measured break-even against both other
    routes (README, Notes on numerics)."""
    if n_patterns >= 0.7 * n_agents:
        return _Coupled
    return _Gram if kappa == 0.0 else _Patterns


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
    """What the coupling route reads: the couplings J = scale M + diag(d),
    split into a matrix M with zero diagonal and the self-couplings d, the
    fields h and b, and the pattern-bias sums p, sum_mu Omega_mu and
    sum_mu Omega_mu^2 of the bid moments.

    run_experiment's route holds M as the exact integer matrix xi xi^T off its
    diagonal, in float32 (4N^2 bytes per step), with scale 2/N; batch_step
    holds the float64 J of Couplings off its diagonal, with scale 1.  The
    self-coupling stays in float64, so the kappa = 1 self-impact cancels
    exactly on both.
    """

    M: np.ndarray
    scale: float
    d: np.ndarray
    h: np.ndarray
    b: np.ndarray
    n_patterns: int = 0
    sum_omega: float = 0.0
    omega_sq: float = 0.0

    @classmethod
    def build(cls, sample: DisorderSample) -> _Coupled:
        X, h, b = _integer_couplings(sample)
        scale = 2.0 / sample.n_agents
        d = scale * X.diagonal().astype(np.float64)
        np.fill_diagonal(X, 0.0)
        return cls(X, scale, d, h, b, *_bias_sums(sample))

    @classmethod
    def from_couplings(cls, c: Couplings, sample: DisorderSample | None = None) -> _Coupled:
        """The float64 step over compiled couplings, with the bias sums of
        sample when the moments are wanted."""
        M = c.J.copy()
        np.fill_diagonal(M, 0.0)
        return cls(M, 1.0, c.d, c.h, c.b, *(_bias_sums(sample) if sample is not None else ()))

    def step(self, state: AgentState, params: GameParams,
             moments: bool = True) -> tuple[AgentState, float, float]:
        """One batch step: the renormalized next state and the moments
        (sum_mu A^mu, sum_mu (A^mu)^2) of the bids at time state.t, taken
        from J phi through O(N) dot products (NaN unless moments)."""
        a_e = params.external.value_at(state.t)
        phi = state.phi
        off_phi = np.multiply(self.M @ phi.astype(self.M.dtype, copy=False), self.scale,
                              dtype=np.float64)
        d_phi = self.d * phi
        q = state.q - self.b * a_e - self.h if a_e else state.q - self.h
        q -= off_phi
        q -= d_phi if params.kappa == 0.0 else (1.0 - params.kappa) * d_phi
        nxt = _renormalize(q, state.t + 1)
        if not moments:
            return nxt, math.nan, math.nan
        p, b_phi = self.n_patterns, float(self.b @ phi)
        sum_a = p * a_e + self.sum_omega + 0.5 * b_phi
        sum_a2 = (p * a_e**2 + self.omega_sq + 2.0 * a_e * self.sum_omega + a_e * b_phi
                  + float(self.h @ phi) + 0.5 * (float(phi @ off_phi) + float(phi @ d_phi)))
        return nxt, sum_a, sum_a2


def _moments_of(bids: np.ndarray, moments: bool) -> tuple[float, float]:
    """(sum_mu A^mu, sum_mu (A^mu)^2), or NaN for both unless moments."""
    if not moments:
        return math.nan, math.nan
    return float(bids.sum()), float(bids @ bids)


def _bias_sums(sample: DisorderSample) -> tuple[int, float, float]:
    Omega = sample.Omega
    return Omega.size, float(Omega.sum()), float(Omega @ Omega)


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

    def step(self, state: AgentState, params: GameParams,
             moments: bool = True) -> tuple[AgentState, float, float]:
        """One batch step from the explicit bids, whose pattern products run
        in float32 (exact to ~1e-7, far below measurement noise), and their
        moments (NaN unless moments)."""
        a_e = params.external.value_at(state.t)
        phi = state.phi
        sqrt_n = np.sqrt(phi.shape[0])
        bids = a_e + self.Omega + (phi.astype(np.float32) @ self.xi32).astype(np.float64) / sqrt_n
        back = (self.xi32 @ bids.astype(np.float32)).astype(np.float64)
        q = state.q - (2.0 / sqrt_n) * back + params.kappa * (self.d * phi)
        return _renormalize(q, state.t + 1), *_moments_of(bids, moments)


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
        # float32 products and sums of integers bounded by N are exact below
        # 2^24, so G has the same bits for any row blocks; one block buffer
        # and one product buffer are reused, and both are freed before the
        # float64 copy
        xi, (n, p) = sample.xi, sample.xi.shape
        blocks = row_blocks(xi, GRAM_BLOCK_ENTRIES)
        buf = np.empty((blocks[0].stop, p), dtype=np.float32)
        G = np.zeros((p, p), dtype=np.float32 if n < FLOAT32_EXACT_TERMS else np.float64)
        tmp = None
        for rows in blocks:
            block = buf[:rows.stop - rows.start]
            np.copyto(block, xi[rows])
            tmp = np.matmul(block.T, block, out=tmp)
            G += tmp
        del buf, tmp
        return cls(xi, sample.Omega, G.astype(np.float64, copy=False))

    def start(self, state: AgentState) -> _GramState:
        p = self.G.shape[0]
        u = np.zeros(p)
        for rows in row_blocks(self.xi):
            u += state.q[rows] @ self.xi[rows].astype(np.float64)
        return _GramState(q0=state.q, u=u, q0_sq=float(state.q @ state.q), y=np.zeros(p),
                          gy=np.zeros(p), lam=state.lam, t=state.t)

    def step(self, state: _GramState, params: GameParams,
             moments: bool = True) -> tuple[_GramState, float, float]:
        """One batch step in pattern space: the bids are
        A = a_e + Omega + (u + G y) / (sqrt(N) lambda), y moves by
        -(2/sqrt(N)) A, and N lambda^2 = |q0|^2 + 2 u.y + y.G y reuses G y,
        the one p x p product of the step.  The bid moments are NaN unless
        moments."""
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
        return nxt, *_moments_of(bids, moments)

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
    return _Coupled.from_couplings(couplings).step(state, params)[0]


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
    N x N couplings are built only when p >= 0.7 N; the positions of the c0
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
    for _ in range(params.t_equilibrate):  # the window reads no bid moments
        state = route.step(state, params, moments=False)[0]

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
