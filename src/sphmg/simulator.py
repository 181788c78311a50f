"""Agent-level integration of the batch spherical minority game.

One batch step maps the valuation vector q(t) through

    q_i(t+1) = q_i(t) - b_i A_e(t) - h_i - sum_j J_ij phi_j(t) + kappa d_i phi_i(t)

with phi = q / lambda, followed by the spherical renormalization
lambda(t+1) = sqrt(mean q(t+1)^2); the coupling route takes this formula
over the couplings compiled by core.integer_couplings.  It is the exact
regrouping of the per-pattern form

    q_i(t+1) = q_i(t) - (2/sqrt(N)) sum_mu xi_i^mu [A^mu(t) - (kappa/sqrt(N)) phi_i(t) xi_i^mu]
    A^mu(t)  = A_e(t) + Omega_mu + N^(-1/2) sum_j phi_j(t) xi_j^mu

so the coupling route and the per-pattern route agree to accumulation noise.
At kappa = 0 every update is q(t+1) = q(t) - (2/sqrt(N)) xi A(t), so q(t)
stays in q(0) + span(xi): the Gram route writes q(t) = q(0) + xi Q z(t),
where core.gram_band compiles the draw's row blocks into the band
B = Q^T G Q of G = xi^T xi and the rotated vectors, and steps (z, B z),
zero-padded p-vectors, through B's row blocks.
run_experiment runs an equilibration and a measurement window of the one step
loop, _window, on one of the three routes; a route holds only the arithmetic
of its step, which updates the run in place and returns lambda^2 and the bid
moments sum_mu A^mu(t) and sum_mu A^mu(t)^2.  Every window records lambda(t),
those moments and the last valuations; the measurement window's record
reduces to the stationary observables.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    AgentState,
    DegenerateStateError,
    GameParams,
    disorder_blocks,
    gram_band,
    init_state,
    integer_couplings,
)
from .estimators import fit_line, persistent_correlation

# Snapshot window (unit stride, tail of the measurement window) for the c0
# estimator; 64 lags leave >= 31 consecutive-lag pairs in the upper half.
C0_SNAPSHOTS = 64

# Frozen-state proxy: lambda(t) declared divergent when the fitted slope
# exceeds this many standard errors and lambda grew by at least 2x.
FROZEN_SLOPE_SIGMAS = 5.0
FROZEN_GROWTH_FACTOR = 2.0


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


def _route(params: GameParams, state: AgentState) -> _Coupled | _Patterns | _Gram:
    """The route of a run from state, chosen from (N, p, kappa) alone:
    couplings from p = 0.7 N on; below it the Gram route at kappa = 0 and
    per-pattern passes otherwise.  The run length is not part of the rule,
    so a short kappa = 0 run pays the Gram route's band reduction in full.
    For kappa > 0 the measured crossover lies lower, between 0.45 and
    0.6 N, and 0.7 N stays until a batched step is measured.  The costs
    behind the rule, and its revision, are ROADMAP item H.  Every route is
    built from the disorder draw's row blocks of BLOCK_ENTRIES entries, so
    no run holds the int8 N x p table."""
    n, p = params.n_agents, params.n_patterns
    kind = _Coupled if p >= 0.7 * n else _Gram if params.kappa == 0.0 else _Patterns
    return kind.build(*disorder_blocks(params), state)


@dataclass(eq=False)
class _Run:
    """One run's state, advanced in place by _window: q ((z, B z) on the
    Gram route), lam, t, and the route's scratch buffers, allocated once per
    run."""

    q: np.ndarray
    lam: float
    t: int
    work: tuple


class _Record:
    """What a window writes at its step k: lam(t) entering the step, the bid
    moments sum_mu A^mu(t) and sum_mu A^mu(t)^2, and over the last
    C0_SNAPSHOTS steps the run's q ((z, B z) on the Gram route) and lam
    after it."""

    def __init__(self, steps: int, shape: tuple[int, ...]) -> None:
        self.lam, self.sum_a, self.sum_a2 = np.empty((3, steps))
        self.snaps = np.empty((min(C0_SNAPSHOTS, steps), *shape))
        self.snap_lam = np.empty(self.snaps.shape[0])


def _window(route: _Coupled | _Patterns | _Gram, run: _Run, params: GameParams,
            steps: int) -> _Record:
    """steps batch steps of route, in place on run, and the window's _Record;
    lambda(t) comes from lambda(t)^2 = mean_i q_i(t)^2, which must be
    positive and finite.  numpy's overflow warnings are off in the steps:
    an overflow makes lambda^2 infinite (or NaN), which fails the run with
    DegenerateStateError."""
    lam, t, kappa = run.lam, run.t, params.kappa
    drive = params.external.series(t + steps)[t:].tolist()
    rec = _Record(steps, run.q.shape)
    with np.errstate(over="ignore"):
        for k in range(steps):
            lam_sq, rec.sum_a[k], rec.sum_a2[k] = route.step(run, lam, drive[k], kappa)
            rec.lam[k], t = lam, t + 1
            if not lam_sq > 0.0:
                raise DegenerateStateError(f"all valuations vanished at t={t}")
            if lam_sq == math.inf:
                raise DegenerateStateError(f"valuations overflowed at t={t}")
            lam = math.sqrt(lam_sq)
            j = k - steps + rec.snaps.shape[0]
            if j >= 0:
                rec.snaps[j], rec.snap_lam[j] = run.q, lam
    run.lam, run.t = lam, t
    return rec


@dataclass(frozen=True)
class _Coupled:
    """What the coupling route reads: J = (2/N) M + diag(d) split into the
    exact integer matrix M = xi xi^T off its diagonal, in float32 (4N^2 bytes
    per step), and the float64 self-couplings d, so the kappa = 1 self-impact
    cancels exactly; the fields h and b; and the pattern-bias sums p,
    sum_mu Omega_mu and sum_mu Omega_mu^2 of the bid moments."""

    M: np.ndarray
    d: np.ndarray
    h: np.ndarray
    b: np.ndarray
    n_patterns: int
    sum_omega: float
    omega_sq: float

    @classmethod
    def build(cls, blocks: Iterable[tuple[slice, np.ndarray]], Omega: np.ndarray,
              state: AgentState) -> _Coupled:
        """The route over the (rows, int8 xi[rows]) blocks of a sample with
        pattern bias Omega, for runs of state's N agents."""
        X, h, b, d = integer_couplings(blocks, state.q.shape[0], Omega)
        np.fill_diagonal(X, 0.0)
        return cls(X, d, h, b, Omega.size, float(Omega.sum()), float(Omega @ Omega))

    def start(self, state: AgentState) -> _Run:
        """A run from state."""
        n, dtype = state.q.shape[0], self.M.dtype
        return _Run(state.q.astype(np.float64), state.lam, 0,
                    (np.empty(n), np.empty(n, dtype), np.empty(n, dtype), *np.empty((3, n))))

    def step(self, run: _Run, lam: float, a_e: float, kappa: float):
        """One batch step in place, q <- q - b a_e - h - (2/N) M phi
        - (1 - kappa) d phi with phi = q / lam; the bid moments come exactly
        from J phi through O(N) dot products."""
        q, (phi, phi_in, mv, off_phi, d_phi, tmp) = run.q, run.work
        n, b, h = q.shape[0], self.b, self.h
        np.divide(q, lam, out=phi)
        np.copyto(phi_in, phi)
        np.multiply(np.matmul(self.M, phi_in, out=mv), 2.0 / n, out=off_phi, dtype=np.float64)
        np.multiply(self.d, phi, out=d_phi)
        if a_e:
            q -= np.multiply(b, a_e, out=tmp)
        q -= h
        q -= off_phi
        q -= d_phi if kappa == 0.0 else np.multiply(d_phi, 1.0 - kappa, out=tmp)
        lam_sq = float(q @ q) / n
        p, sum_omega, b_phi = self.n_patterns, self.sum_omega, float(b @ phi)
        return (lam_sq, p * a_e + sum_omega + 0.5 * b_phi,
                p * a_e**2 + self.omega_sq + 2.0 * a_e * sum_omega + a_e * b_phi
                + float(h @ phi) + 0.5 * (float(phi @ off_phi) + float(phi @ d_phi)))

    def c0(self, rec: _Record) -> float:
        """c0 of the recorded q, from the positions phi = q / lam, divided in
        place, and their overlaps phi_s.phi_t / N."""
        phi = np.divide(rec.snaps, rec.snap_lam[:, np.newaxis], out=rec.snaps)
        return persistent_correlation((phi @ phi.T) / phi.shape[1])


@dataclass(frozen=True)
class _Patterns:
    """What the per-pattern route reads: xi in float32 (exact for entries in
    {-1, 0, 1}), the self-couplings d and the pattern bias Omega."""

    xi32: np.ndarray
    d: np.ndarray
    Omega: np.ndarray

    @classmethod
    def build(cls, blocks: Iterable[tuple[slice, np.ndarray]], Omega: np.ndarray,
              state: AgentState) -> _Patterns:
        """The route over the (rows, int8 xi[rows]) blocks of a sample with
        pattern bias Omega, for runs of state's N agents: xi32 and
        d_i = (2/N) sum_mu |xi_i^mu| are filled block by block."""
        n = state.q.shape[0]
        xi32, d = np.empty((n, Omega.shape[0]), dtype=np.float32), np.empty(n)
        for rows, xi in blocks:
            np.copyto(xi32[rows], xi)
            d[rows] = np.count_nonzero(xi, axis=1)
        d *= 2.0 / n
        return cls(xi32, d, Omega)

    def start(self, state: AgentState) -> _Run:
        """A run from state."""
        (n, p), f32 = self.xi32.shape, np.float32
        return _Run(state.q.astype(np.float64), state.lam, 0,
                    (np.empty(n), np.empty(n, f32), np.empty(p, f32), *np.empty((2, p)),
                     np.empty(p, f32), np.empty(n, f32), *np.empty((2, n))))

    def step(self, run: _Run, lam: float, a_e: float, kappa: float):
        """One batch step in place from the explicit bids, whose pattern
        products run in float32 (exact to ~1e-7, far below measurement
        noise)."""
        q, (phi, phi32, inner32, inner, bids, bids32, back32, back, kick) = run.q, run.work
        xi32, n, sqrt_n = self.xi32, q.shape[0], math.sqrt(q.shape[0])
        np.divide(q, lam, out=phi)
        np.copyto(phi32, phi)
        np.divide(np.matmul(phi32, xi32, out=inner32), sqrt_n, out=inner, dtype=np.float64)
        np.add(self.Omega, a_e, out=bids)
        bids += inner
        np.copyto(bids32, bids)
        q -= np.multiply(np.matmul(xi32, bids32, out=back32), 2.0 / sqrt_n, out=back,
                         dtype=np.float64)
        q += np.multiply(np.multiply(self.d, phi, out=kick), kappa, out=kick)
        lam_sq = float(q @ q) / n
        return lam_sq, float(bids.sum()), float(bids @ bids)

    c0 = _Coupled.c0  # the run carries q, as on the coupling route


@dataclass(frozen=True)
class _Gram:
    """What the Gram route reads at kappa = 0, in the basis of the band
    B = Q^T G Q of the Gram matrix G = xi^T xi: B's (nb, b, 3b) row blocks
    [B_{k,k-1} | D_k | B_{k,k+1}] with b = BAND, 24 b^2 nb bytes, the
    rotated Q^T 1 and pattern bias Q^T Omega, N, and the constants Q^T u with
    u = xi^T q0 and |q0|^2 of the initial state q0 it was built for.  Every
    p-vector is held in the rotated basis, named qt_, and padded with b
    zeros in front and (nb + 1) b - p behind, so that row block k of B
    multiplies the (nb + 2) b-vector's entries k b to (k + 3) b."""

    blocks: np.ndarray
    qt_ones: np.ndarray
    qt_Omega: np.ndarray
    qt_u: np.ndarray
    n_agents: int
    q0_sq: float

    @classmethod
    def build(cls, blocks: Iterable[tuple[slice, np.ndarray]], Omega: np.ndarray,
              state: AgentState) -> _Gram:
        """The route over the (rows, int8 xi[rows]) blocks of a sample with
        pattern bias Omega, from state: B's row blocks and the rotated
        vectors of core.gram_band, and |q0|^2."""
        band, vectors = gram_band(blocks, Omega, state)
        with np.errstate(over="ignore"):  # an infinite |q0|^2 fails the first step
            q0_sq = float(state.q @ state.q)
        return cls(band, *vectors, state.q.shape[0], q0_sq)

    def start(self, state: AgentState) -> _Run:
        """A run at z = 0 with B z = 0, from the state the route was built
        for; its scratch holds B z's row blocks and z's windows as views."""
        nb, b, width = self.blocks.shape
        q = np.zeros((2, self.qt_u.shape[0]))
        windows = np.lib.stride_tricks.sliding_window_view(q[0], width)[::b, :, np.newaxis]
        return _Run(q, state.lam, 0,
                    (*np.zeros((2, q.shape[1])), windows, q[1, b:b + nb * b].reshape(nb, b, 1)))

    def step(self, run: _Run, lam: float, a_e: float, kappa: float):
        """One batch step in the rotated pattern space, in place, with
        y = Q z: the rotated bids are Q^T A = a_e Q^T 1 + Q^T Omega
        + (Q^T u + B z) / (sqrt(N) lambda), z moves by -(2/sqrt(N)) Q^T A,
        and N lambda^2 = |q0|^2 + 2 Q^T u.z + z.B z reuses the new B z, one
        stacked product of the row blocks with z's windows.  The bid moments
        are sum_mu A^mu = Q^T 1.Q^T A and sum_mu (A^mu)^2 = |Q^T A|^2; the
        padding of every term is 0, so it stays 0 in z and B z."""
        (z, bz), (field, bids, windows, bz_blocks), u = run.q, run.work, self.qt_u
        n, sqrt_n = self.n_agents, math.sqrt(self.n_agents)
        np.add(u, bz, out=field)
        field /= sqrt_n * lam
        np.multiply(self.qt_ones, a_e, out=bids)
        bids += self.qt_Omega
        bids += field
        z -= np.multiply(bids, 2.0 / sqrt_n, out=field)
        np.matmul(self.blocks, windows, out=bz_blocks)
        lam_sq = (self.q0_sq + 2.0 * float(u @ z) + float(z @ bz)) / n
        return lam_sq, float(self.qt_ones @ bids), float(bids @ bids)

    def c0(self, rec: _Record) -> float:
        """c0 of the recorded (z_s, B z_s) from the overlaps of q = q0 + xi Q z,
        q_s.q_t = |q0|^2 + Q^T u.z_s + Q^T u.z_t + z_s.B z_t, divided by
        N lam_s lam_t."""
        zs, bzs = rec.snaps[:, 0], rec.snaps[:, 1]
        zu = zs @ self.qt_u
        overlaps = zs @ bzs.T
        overlaps += zu[:, np.newaxis] + zu
        overlaps += self.q0_sq
        overlaps /= self.n_agents * np.outer(rec.snap_lam, rec.snap_lam)
        return persistent_correlation(overlaps)


def run_experiment(params: GameParams) -> RunObservables:
    """Equilibrate, measure, and reduce one quenched run to its observables.

    Only the measurement window's record is reduced; the equilibration
    window's is dropped.  sigma^2 is the time-pattern variance of its bids
    A^mu(t); the staggered bid mean is (1/tau) sum_t (-1)^t Abar(t) with
    Abar the pattern average and t the absolute batch time; sigma_fl^2
    subtracts the squared staggered mean from sigma^2 (the plain mean is
    already removed).  The N x N couplings are built only when p >= 0.7 N,
    the Gram route never holds the whole disorder table, and no route keeps
    it.  c0 is the route's persistent_correlation of the recorded snapshots'
    two-time window, on the Gram route from their p-space overlaps.
    """
    state = init_state(params)
    route = _route(params, state)
    run = route.start(state)
    _window(route, run, params, params.t_equilibrate)
    tau, p = params.t_measure, params.n_patterns
    rec = _window(route, run, params, tau)
    lam_hist = rec.lam  # lambda(t) entering each step's positions
    t_abs = np.arange(params.t_equilibrate, params.t_equilibrate + tau)
    # a strictly sequential sum, in time order
    sum_a, sum_a2 = np.add.accumulate([rec.sum_a, rec.sum_a2], axis=1)[:, -1].tolist()

    mean_a = sum_a / (tau * p)
    sigma2 = sum_a2 / (tau * p) - mean_a**2
    sigma = float(np.sqrt(max(sigma2, 0.0)))
    signs = np.where(t_abs % 2 == 0, 1.0, -1.0)
    bid_staggered = float(np.mean(signs * (rec.sum_a / p)))
    sigma_fl = float(np.sqrt(max(sigma2 - bid_staggered**2, 0.0)))

    slope, slope_stderr = fit_line(t_abs.astype(np.float64), lam_hist)
    frozen = (
        slope > FROZEN_SLOPE_SIGMAS * slope_stderr
        and lam_hist[-1] > FROZEN_GROWTH_FACTOR * lam_hist[0]
    )
    return RunObservables(
        c0_hat=route.c0(rec),
        sigma=sigma,
        sigma_fl=sigma_fl,
        lambda_mean=float(lam_hist.mean()),
        lambda_slope=slope,
        bid_mean=mean_a,
        bid_staggered=bid_staggered,
        frozen_flag=bool(frozen),
    )
