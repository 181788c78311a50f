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
route, each a loop that updates the run's state in place.  The measurement
window also records lambda(t), the bid moments sum_mu A^mu(t) and
sum_mu A^mu(t)^2 and the last positions, which reduce to the stationary
observables.
"""

from __future__ import annotations

import math
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


@dataclass(eq=False)
class _Run:
    """One run's state, advanced in place by a route's windows: q and
    phi = q / lam (y and G y on the Gram route), lam, t, and the route's
    constants and scratch buffers, allocated once per run."""

    q: np.ndarray
    phi: np.ndarray
    lam: float
    t: int
    work: tuple


class _Record:
    """What a recorded window writes at its step k: lam(t) entering the step,
    the bid moments sum_mu A^mu(t) and sum_mu A^mu(t)^2, and over the last
    C0_SNAPSHOTS steps the positions (y on the Gram route) and lam after it."""

    def __init__(self, steps: int, width: int) -> None:
        self.lam, self.sum_a, self.sum_a2 = np.empty((3, steps))
        self.snaps = np.empty((min(C0_SNAPSHOTS, steps), width))
        self.snap_lam = np.empty(self.snaps.shape[0])

    def put(self, k: int, lam: float, sum_a: float, sum_a2: float, vec: np.ndarray,
            lam_next: float) -> None:
        self.lam[k], self.sum_a[k], self.sum_a2[k] = lam, sum_a, sum_a2
        j = k - self.lam.shape[0] + self.snaps.shape[0]
        if j >= 0:
            self.snaps[j], self.snap_lam[j] = vec, lam_next


def _bias_sums(sample: DisorderSample) -> tuple[int, float, float]:
    Omega = sample.Omega
    return Omega.size, float(Omega.sum()), float(Omega @ Omega)


@dataclass(frozen=True)
class _Coupled:
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

    def start(self, state: AgentState) -> _Run:
        n, dtype = state.q.shape[0], self.M.dtype
        return _Run(state.q.astype(np.float64), state.phi.astype(np.float64), state.lam, state.t,
                    (np.empty(n, dtype), np.empty(n, dtype), *np.empty((3, n))))

    def window(self, run: _Run, params: GameParams, steps: int, record: bool = False):
        """steps batch steps in place, each q <- q - b a_e - h - scale M phi
        - (1 - kappa) d phi and phi = q / lam; the recorded bid moments come
        exactly from J phi through O(N) dot products."""
        q, phi, lam, t = run.q, run.phi, run.lam, run.t
        phi_in, mv, off_phi, d_phi, tmp = run.work
        M, scale, d, h, b, p = self.M, self.scale, self.d, self.h, self.b, self.n_patterns
        n, kappa, value_at = q.shape[0], params.kappa, params.external.value_at
        rec = _Record(steps, n) if record else None
        for k in range(steps):
            a_e = value_at(t)
            np.copyto(phi_in, phi)
            np.multiply(np.matmul(M, phi_in, out=mv), scale, out=off_phi, dtype=np.float64)
            np.multiply(d, phi, out=d_phi)
            if a_e:
                q -= np.multiply(b, a_e, out=tmp)
            q -= h
            q -= off_phi
            q -= d_phi if kappa == 0.0 else np.multiply(d_phi, 1.0 - kappa, out=tmp)
            if rec is not None:  # the bids at t read phi(t)
                b_phi = float(b @ phi)
                sum_a = p * a_e + self.sum_omega + 0.5 * b_phi
                sum_a2 = (p * a_e**2 + self.omega_sq + 2.0 * a_e * self.sum_omega + a_e * b_phi
                          + float(h @ phi) + 0.5 * (float(phi @ off_phi) + float(phi @ d_phi)))
            lam_next = math.sqrt(float(q @ q) / n)
            if lam_next == 0.0:
                raise DegenerateStateError(f"all valuations vanished at t={t + 1}")
            np.divide(q, lam_next, out=phi)
            if rec is not None:
                rec.put(k, lam, sum_a, sum_a2, phi, lam_next)
            lam, t = lam_next, t + 1
        run.lam, run.t = lam, t
        return rec

    def positions(self, run: _Run, rec: _Record) -> np.ndarray:
        return rec.snaps


@dataclass(frozen=True)
class _Patterns:
    """What the per-pattern route reads: xi in float32 (exact for entries in
    {-1, 0, 1}), the self-couplings d and the pattern bias Omega."""

    xi32: np.ndarray
    d: np.ndarray
    Omega: np.ndarray

    @classmethod
    def build(cls, sample: DisorderSample) -> _Patterns:
        return cls(sample.xi.astype(np.float32), self_couplings(sample.xi), sample.Omega)

    def start(self, state: AgentState) -> _Run:
        (n, p), f32 = self.xi32.shape, np.float32
        return _Run(state.q.astype(np.float64), state.phi.astype(np.float64), state.lam, state.t,
                    (np.empty(n, f32), np.empty(p, f32), *np.empty((2, p)), np.empty(p, f32),
                     np.empty(n, f32), *np.empty((2, n))))

    def window(self, run: _Run, params: GameParams, steps: int, record: bool = False):
        """steps batch steps in place from the explicit bids, whose pattern
        products run in float32 (exact to ~1e-7, far below measurement
        noise)."""
        q, phi, lam, t = run.q, run.phi, run.lam, run.t
        phi32, inner32, inner, bids, bids32, back32, back, kick = run.work
        n, kappa, value_at = q.shape[0], params.kappa, params.external.value_at
        xi32, d, Omega, sqrt_n = self.xi32, self.d, self.Omega, math.sqrt(n)
        rec = _Record(steps, n) if record else None
        for k in range(steps):
            np.copyto(phi32, phi)
            np.divide(np.matmul(phi32, xi32, out=inner32), sqrt_n, out=inner, dtype=np.float64)
            np.add(Omega, value_at(t), out=bids)
            bids += inner
            np.copyto(bids32, bids)
            q -= np.multiply(np.matmul(xi32, bids32, out=back32), 2.0 / sqrt_n, out=back,
                             dtype=np.float64)
            q += np.multiply(np.multiply(d, phi, out=kick), kappa, out=kick)
            lam_next = math.sqrt(float(q @ q) / n)
            if lam_next == 0.0:
                raise DegenerateStateError(f"all valuations vanished at t={t + 1}")
            np.divide(q, lam_next, out=phi)
            if rec is not None:
                rec.put(k, lam, float(bids.sum()), float(bids @ bids), phi, lam_next)
            lam, t = lam_next, t + 1
        run.lam, run.t = lam, t
        return rec

    def positions(self, run: _Run, rec: _Record) -> np.ndarray:
        return rec.snaps


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

    def start(self, state: AgentState) -> _Run:
        """A run at y = 0 with the constants q0 and u = xi^T q0."""
        p = self.G.shape[0]
        u = np.zeros(p)
        for rows in row_blocks(self.xi):
            u += state.q[rows] @ self.xi[rows].astype(np.float64)
        return _Run(np.zeros(p), np.zeros(p), state.lam, state.t, (state.q, u, *np.empty((2, p))))

    def window(self, run: _Run, params: GameParams, steps: int, record: bool = False):
        """steps batch steps in pattern space, in place: the bids are
        A = a_e + Omega + (u + G y) / (sqrt(N) lambda), y moves by
        -(2/sqrt(N)) A, and N lambda^2 = |q0|^2 + 2 u.y + y.G y reuses G y,
        the one p x p product of the step."""
        y, gy, lam, t, (q0, u, field, bids) = run.q, run.phi, run.lam, run.t, run.work
        G, Omega, n, value_at = self.G, self.Omega, self.xi.shape[0], params.external.value_at
        sqrt_n, q0_sq = math.sqrt(n), float(q0 @ q0)
        rec = _Record(steps, y.shape[0]) if record else None
        for k in range(steps):
            np.add(u, gy, out=field)
            field /= sqrt_n * lam
            np.add(Omega, value_at(t), out=bids)
            bids += field
            y -= np.multiply(bids, 2.0 / sqrt_n, out=field)
            np.matmul(G, y, out=gy)
            lam_sq = (q0_sq + 2.0 * float(u @ y) + float(y @ gy)) / n
            if not lam_sq > 0.0:
                raise DegenerateStateError(f"all valuations vanished at t={t + 1}")
            lam_next = math.sqrt(lam_sq)
            if rec is not None:
                rec.put(k, lam, float(bids.sum()), float(bids @ bids), y, lam_next)
            lam, t = lam_next, t + 1
        run.lam, run.t = lam, t
        return rec

    def positions(self, run: _Run, rec: _Record) -> np.ndarray:
        """The recorded positions (q0 + xi y) / lam, over row blocks of xi."""
        phi = np.empty((rec.snaps.shape[0], self.xi.shape[0]))
        for rows in row_blocks(self.xi):
            phi[:, rows] = rec.snaps @ self.xi[rows].astype(np.float64).T
        phi += run.work[0]
        phi /= rec.snap_lam[:, np.newaxis]
        return phi


def batch_step(state: AgentState, couplings: Couplings, params: GameParams) -> AgentState:
    """One coupling-based batch step followed by the spherical renormalization."""
    if couplings.n_agents != state.q.shape[0]:
        raise ContractError("state and couplings disagree on the number of agents")
    route = _Coupled.from_couplings(couplings)
    run = route.start(state)
    route.window(run, params, 1)
    return AgentState(q=run.q, lam=run.lam, phi=run.phi, t=run.t)


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
    run = route.start(init_state(params))
    route.window(run, params, params.t_equilibrate)
    tau, p = params.t_measure, sample.n_patterns
    rec = route.window(run, params, tau, record=True)
    lam_hist = rec.lam  # lambda(t) entering each step's positions
    t_abs = np.arange(params.t_equilibrate, params.t_equilibrate + tau)
    sum_a = sum_a2 = 0.0
    for step_a, step_a2 in zip(rec.sum_a.tolist(), rec.sum_a2.tolist()):  # in time order
        sum_a += step_a
        sum_a2 += step_a2

    mean_a = sum_a / (tau * p)
    sigma2 = sum_a2 / (tau * p) - mean_a**2
    sigma = float(np.sqrt(max(sigma2, 0.0)))
    signs = np.where(t_abs % 2 == 0, 1.0, -1.0)
    bid_staggered = float(np.mean(signs * (rec.sum_a / p)))
    sigma_fl = float(np.sqrt(max(sigma2 - bid_staggered**2, 0.0)))

    fit = fit_line(t_abs.astype(np.float64), lam_hist)
    frozen = (
        fit.slope > FROZEN_SLOPE_SIGMAS * fit.slope_stderr
        and lam_hist[-1] > FROZEN_GROWTH_FACTOR * lam_hist[0]
    )
    return RunObservables(
        c0_hat=measure_c0(route.positions(run, rec)),
        sigma=sigma,
        sigma_fl=sigma_fl,
        lambda_mean=float(lam_hist.mean()),
        lambda_slope=fit.slope,
        bid_mean=mean_a,
        bid_staggered=bid_staggered,
        frozen_flag=bool(frozen),
    )
