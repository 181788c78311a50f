"""Deterministic iteration of the exact two-time order-parameter dynamics.

The effective single-agent process behind the batch spherical game is linear,

    q(t+1) = q(t) - alpha sum_{t'<=t} M_tt' q(t')/lambda(t') + sqrt(alpha) eta(t)
    M      = W - kappa 1,   W = (1 + G)^(-1)   (restricted to the causal triangle)
    <eta(t) eta(t')> = Sigma_tt' = [W D W^T]_tt'
    D_tt'  = 1 + C_tt' + 2 A_e(t) A_e(t')

so every second moment obeys a closed causal recursion and no sampling is
needed.  The response is carried unnormalized, G_ts = g_ts / lambda(t), with

    g_{t+1,s} = g_{t,s} + delta_ts - alpha sum_{t'<=t} M_tt' g_{t',s}/lambda(t'),

so q(s) = (its value without noise) + sqrt(alpha) sum_u g_su eta(u).  The
start is independent of the Gaussian noise, so the cross moments follow from
the identity

    L_ts = <eta(t) q(s)> = sqrt(alpha) sum_{u<s} Sigma_tu g_su = sqrt(alpha) (Sigma g^T)_ts.

With K_tt' = <q(t) q(t')> one step grows the triangle by one row:

    K_{t+1,s}  = K_{t,s} - alpha sum_{t'<=t} M_tt' K_{t',s}/lambda(t') + sqrt(alpha) L_{t,s}
    K_{t+1,t+1} follows by applying the same update to the second factor,
    lambda(t+1) = sqrt(K_{t+1,t+1}),   C_{t+1,s} = K_{t+1,s} / (lambda(t+1) lambda(s))

which needs only the row L[t, :t+2], available once g has grown to row t+1.
(1+G) is unit lower triangular, so row t of W follows exactly by forward
substitution from row t of G, g(t)/lambda(t), and the rows of W above it.
W G = G W = 1 - W turns every other product with G into one with W, so the
iteration never forms G; G = W^(-1) - 1 follows from W.  Note that L is a
full matrix: eta is correlated across all time pairs, so <eta(t) q(s)> != 0
even for s <= t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ContractError, DegenerateStateError, ExternalBid, check_alpha,
                   check_init_scale, check_kappa)
from .estimators import fit_line, persistent_correlation


@dataclass(frozen=True)
class KernelParams:
    """Horizon and control parameters for one kernel iteration; it starts at
    lambda(0) = init_scale and C(0,0) = 1, the simulator's +-init_scale start."""

    alpha: float
    kappa: float = 0.0
    external: ExternalBid = field(default_factory=ExternalBid)
    init_scale: float = 1.0
    T: int = 400

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        check_kappa(self.kappa)
        check_init_scale(self.init_scale)
        if self.T < 1:
            raise ContractError(f"T must be >= 1, got {self.T}")


@dataclass(frozen=True)
class KernelState:
    """Two-time kernels on the grid {0..T}^2, T = params.T.

    C is symmetric with unit diagonal and W = (1+G)^(-1) unit lower
    triangular.  Only these and lambda are stored: G = W^(-1) - 1 follows,
    with K, D, Sigma and L, by the products in the module docstring.
    """

    params: KernelParams
    C: np.ndarray
    lambda_traj: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class KernelTail:
    """Stationary estimates extracted from the tail of a kernel state."""

    c0: float
    lam: float
    Lambda: float
    sigma_fl: float


def iterate_kernels(params: KernelParams) -> KernelState:
    """Grow the C, W, lambda trajectory step by step up to horizon T.

    Each entry of the kernels is computed exactly once and never revisited.
    Only C and W are held, with the O(T) vectors r1 = W 1, ra = W a_e,
    G r1 = 1 - r1 and G ra = a_e - ra, and the current row of g = lambda G.
    Row t of Sigma is r1_t r1 + W (C W_t^T) + 2 ra_t ra, and C W_t^T also
    gives the memory term of the K update.  W G = G W = 1 - W turns the
    response update's W_t G into e_t - W_t and the cross moments' G Sigma_t
    into (1 - W) C W_t^T + r1_t G r1 + 2 ra_t G ra, so a step makes three
    passes: G_t W, C W_t^T and W (C W_t^T).  G r1 and G ra are summed from
    W's rows without the unit diagonal, not subtracted from 1 and a_e, which
    would cancel under strong drives.  numpy's overflow warnings are off in
    the loop.  Raises DegenerateStateError, as the simulator does, if the
    diagonal moment <q^2> = lambda^2 is not positive (its closure failed) or
    not finite (it overflowed).
    """
    n = params.T + 1
    alpha, kappa = params.alpha, params.kappa
    a_e = params.external.series(n)

    C = np.eye(n)
    W = np.eye(n)  # (1+G)^(-1), grown by forward substitution
    lam, g = np.zeros((2, n))  # g: row t of the response to a valuation kick, G = g / lambda
    r1, ra, gr1, gra = np.zeros((4, n))  # W 1, W a_e, G r1 = 1 - r1 and G ra = a_e - ra
    lam[0] = params.init_scale

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            g_t = g[:t] / lam[t]  # row t of G
            W[t, :t] = -(g_t @ W[:t, :t])
            if t == params.T:
                break
            w = W[t, : t + 1]
            r1[t], gr1[t] = w.sum(), -W[t, :t].sum()
            ra[t], gra[t] = w @ a_e[: t + 1], -(W[t, :t] @ a_e[:t])
            c_t = C[t, : t + 1]
            v = C[: t + 1, : t + 1] @ w
            wv = W[: t + 1, : t + 1] @ v
            sigma = wv + (r1[t] * r1[: t + 1] + (2.0 * ra[t]) * ra[: t + 1])

            g[:t] += alpha * (W[t, :t] + kappa * g_t)
            g[t] = 1.0
            # K_{t+1,s} = lambda(s) x_s: the memory term is lambda(s) (v - kappa C_t)_s
            # and the cross moments sqrt(alpha) L_ts are alpha lambda(s) (G Sigma_t)_s
            g_sigma = (v - wv) + r1[t] * gr1[: t + 1] + (2.0 * ra[t]) * gra[: t + 1]
            x = lam[t] * c_t - alpha * (v - kappa * c_t) + alpha * g_sigma
            k_next = (lam[t] * x[t] - alpha * (w @ x - kappa * x[t])
                      + alpha * (g[: t + 1] @ sigma))
            if not np.isfinite(k_next):
                raise DegenerateStateError(f"<q^2> overflowed at t={t + 1}")
            if not k_next > 0.0:
                raise DegenerateStateError(f"<q^2> closure failed at t={t + 1}: K={k_next:.3e}, "
                                           f"lambda tail {lam[max(0, t - 3) : t + 1]}")
            lam[t + 1] = np.sqrt(k_next)
            C[t + 1, : t + 1] = x / lam[t + 1]
            C[: t + 1, t + 1] = C[t + 1, : t + 1]

    return KernelState(params=params, C=C, lambda_traj=lam, W=W)


def check_tail(tail: float) -> None:
    """Raise unless the tail window is a fraction in (0, 0.5] of the horizon."""
    if not 0.0 < tail <= 0.5:
        raise ContractError(f"tail must lie in (0, 0.5], got {tail}")


def extract_stationary(state: KernelState, tail: float = 0.25) -> KernelTail:
    """Tail-window estimates of c0, lambda, Lambda, and sigma_fl.

    c0 is the persistent_correlation of the tail block of C;
    Lambda is the fitted slope of lambda(t) over the tail; sigma_fl^2 is the
    tail average of diag[W (1 + C) W^T] / 2.
    """
    check_tail(tail)
    n = state.params.T + 1
    n_tail = int(round(tail * n))
    if n_tail < 8:
        raise ContractError(f"tail window has {n_tail} points, need >= 8")
    idx = np.arange(n - n_tail, n)

    c0 = persistent_correlation(state.C[np.ix_(idx, idx)])

    lam_tail = state.lambda_traj[idx]
    Lambda, _ = fit_line(idx.astype(np.float64), lam_tail)

    wt = state.W[n - n_tail :]  # diag[W (1 + C) W^T] with no (T+1)^2 temporary
    diag_tail = ((wt @ state.C) * wt).sum(axis=1) + wt.sum(axis=1) ** 2
    sigma_fl = float(np.sqrt(max(np.mean(diag_tail) / 2.0, 0.0)))

    return KernelTail(c0=c0, lam=float(lam_tail.mean()), Lambda=Lambda, sigma_fl=sigma_fl)
