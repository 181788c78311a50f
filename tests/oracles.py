"""Independent reference implementations used as test oracles.

Everything here is written from the defining sums with explicit Python loops,
direct stochastic sampling or a second closed form, deliberately sharing no
code path with the package implementations it checks.  Nothing is imported
from sphmg.theory: each theory oracle writes out its own a2 = A^2 d(zeta,0).
The derived kernels (G, K, D, Sigma, L) are formed from a KernelState's
stored C, lambda and W by their defining products, G = W^(-1) - 1 by one
triangular solve.  The package calls none of it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from sphmg.core import (
    _STREAM_DISORDER,
    AgentState,
    ContractError,
    DisorderSample,
    GameParams,
    rng_stream,
)
from sphmg.kernels import KernelParams, KernelState


def halve_tables(r1, r2) -> tuple[np.ndarray, np.ndarray]:
    """xi and omega: the half-difference and half-sum of two +-1 look-up tables."""
    r1 = np.asarray(r1, dtype=np.int8)
    r2 = np.asarray(r2, dtype=np.int8)
    assert set(np.unique(r1)) <= {-1, 1} and set(np.unique(r2)) <= {-1, 1}
    return ((r1 - r2) // 2).astype(np.int8), ((r1 + r2) // 2).astype(np.int8)


def sample_from_tables(r1, r2) -> DisorderSample:
    """Build a DisorderSample from explicit +-1 look-up tables."""
    xi, omega = halve_tables(r1, r2)
    return DisorderSample(xi=xi, Omega=omega.sum(axis=0) / math.sqrt(xi.shape[0]))


def pm_tables(params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """The disorder draw written out: the same two {0, 1} draws mapped to +-1 tables."""
    n, p = params.n_agents, params.n_patterns
    rng = rng_stream(params.seed, _STREAM_DISORDER)
    r1 = rng.integers(0, 2, size=(n, p), dtype=np.int8)
    r2 = rng.integers(0, 2, size=(n, p), dtype=np.int8)
    return (2 * r1 - 1).astype(np.int8), (2 * r2 - 1).astype(np.int8)


def whole_table_disorder(params: GameParams) -> DisorderSample:
    """The disorder draw taken whole from one generator: each {0, 1} table is
    the bytes of ceil(N p / 4) consecutive raw uint32 outputs shifted right
    by 7 (numpy's int8 draw), the second table's outputs following the
    first's, and Omega the int32 column sums of both tables less N."""
    n, p = params.n_agents, params.n_patterns
    rng = rng_stream(params.seed, _STREAM_DISORDER)

    def coin_table():
        raw = rng.integers(0, 2**32, size=-(-n * p // 4), dtype=np.uint32).astype("<u4")
        return (raw.view(np.uint8) >> 7)[:n * p].view(np.int8).reshape(n, p)

    r1, r2 = coin_table(), coin_table()
    Omega = (r1.sum(axis=0, dtype=np.int32) + r2.sum(axis=0, dtype=np.int32) - n) / np.sqrt(n)
    return DisorderSample(xi=r1 - r2, Omega=Omega)


def disorder_from_pm_tables(params: GameParams) -> DisorderSample:
    """The sample of pm_tables, halved into xi and omega and reduced to Omega."""
    xi, omega = halve_tables(*pm_tables(params))
    Omega = omega.sum(axis=0, dtype=np.int64) / np.sqrt(params.n_agents)
    return DisorderSample(xi=xi, Omega=Omega)


def market_bids(state: AgentState, sample: DisorderSample, a_e: float) -> np.ndarray:
    """Total bid per pattern in float64: A^mu = a_e + Omega_mu + N^(-1/2) sum_j phi_j xi_j^mu."""
    n = sample.xi.shape[0]
    if state.phi.shape[0] != n:
        raise ContractError(f"state has {state.phi.shape[0]} agents, sample has {n}")
    internal = (state.phi @ sample.xi.astype(np.float64)) / np.sqrt(n)
    return a_e + sample.Omega + internal


def lift(q0: np.ndarray, xi: np.ndarray, zs: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The valuations q0 + xi y in float64 of the Gram route's rotated
    pattern-space coordinates z, with y = Q z (one vector, or one per row
    of zs)."""
    return q0 + (zs @ Q.T) @ xi.astype(np.float64).T


def packed_upper(A: np.ndarray, band: int) -> np.ndarray:
    """The upper triangle of the symmetric matrix A as its row panels of
    band rows, panel k = A[k band:(k + 1) band, k band:], each flattened in
    row order and laid end to end."""
    return np.concatenate([A[k0:k0 + band, k0:].ravel() for k0 in range(0, A.shape[0], band)])


def pattern_space_run(G: np.ndarray, u: np.ndarray, Omega: np.ndarray, q0: np.ndarray,
                      lam: float, a_e: np.ndarray, snaps: int) -> dict[str, np.ndarray]:
    """A kappa = 0 run in the unrotated pattern-space coordinates y of
    q = q0 + xi y, one p x p product a step: the bids
    A = a_e + Omega + (u + G y) / (sqrt(N) lambda) with u = xi^T q0 and the
    Gram matrix G = xi^T xi, y moves by -(2/sqrt(N)) A, and
    N lambda^2 = |q0|^2 + 2 u.y + y.G y.  Over len(a_e) steps from y = 0 it
    returns lambda entering each step, the bid moments sum_mu A^mu and
    sum_mu (A^mu)^2 of each step, and C(s, t) = q_s.q_t / (N lam_s lam_t)
    over the valuations after the last snaps steps."""
    n, p = q0.shape[0], G.shape[0]
    q0_sq, sqrt_n = float(q0 @ q0), math.sqrt(q0.shape[0])
    y, gy = np.zeros(p), np.zeros(p)
    out = {key: np.empty(len(a_e)) for key in ("lam", "sum_a", "sum_a2")}
    ys, gys, lams = [], [], []
    for t, drive in enumerate(a_e):
        bids = drive + Omega + (u + gy) / (sqrt_n * lam)
        out["lam"][t], out["sum_a"][t], out["sum_a2"][t] = lam, bids.sum(), bids @ bids
        y = y - (2.0 / sqrt_n) * bids
        gy = G @ y
        lam = math.sqrt((q0_sq + 2.0 * (u @ y) + y @ gy) / n)
        if t >= len(a_e) - snaps:
            ys.append(y)
            gys.append(gy)
            lams.append(lam)
    ys, gys, lams = np.array(ys), np.array(gys), np.array(lams)
    yu = ys @ u
    overlaps = q0_sq + yu[:, np.newaxis] + yu + ys @ gys.T
    out["C"] = overlaps / (n * np.outer(lams, lams))
    return out


def mirrored_sample(sample: DisorderSample) -> DisorderSample:
    """Duplicate agents, the copies with negated omega rows: the omega column
    sums, and so the pattern bias, are exactly zero."""
    xi = np.concatenate([sample.xi, sample.xi])
    return DisorderSample(xi=xi, Omega=np.zeros(sample.xi.shape[1]))


def brute_force_bids(phi, sample: DisorderSample, a_e: float) -> list[float]:
    """Per-pattern total bids evaluated by literal summation."""
    n, p = sample.xi.shape
    sqrt_n = math.sqrt(n)
    bids = []
    for mu in range(p):
        inner = sum(phi[j] * float(sample.xi[j, mu]) for j in range(n))
        bids.append(a_e + float(sample.Omega[mu]) + inner / sqrt_n)
    return bids


def brute_force_step(q, phi, sample: DisorderSample, a_e: float, kappa: float):
    """One batch step evaluated pattern by pattern, then renormalized."""
    n, p = sample.xi.shape
    sqrt_n = math.sqrt(n)
    bids = brute_force_bids(phi, sample, a_e)
    q_new = []
    for i in range(n):
        acc = 0.0
        for mu in range(p):
            xi = float(sample.xi[i, mu])
            acc += xi * (bids[mu] - (kappa / sqrt_n) * phi[i] * xi)
        q_new.append(q[i] - (2.0 / sqrt_n) * acc)
    lam = math.sqrt(sum(v * v for v in q_new) / n)
    phi_new = [v / lam for v in q_new]
    return q_new, lam, phi_new


def brute_force_trajectory(q0, sample: DisorderSample, a_e, kappa: float, n_steps: int):
    """Iterate brute_force_step; a_e[t] is the drive at batch time t."""
    n = len(q0)
    lam = math.sqrt(sum(v * v for v in q0) / n)
    q = list(q0)
    phi = [v / lam for v in q]
    qs = [list(q)]
    for t in range(n_steps):
        q, lam, phi = brute_force_step(q, phi, sample, a_e[t], kappa)
        qs.append(list(q))
    return qs


def memory_rows(W: np.ndarray, kappa: float, lam: np.ndarray) -> np.ndarray:
    """Rows of [W - kappa 1] with columns pre-divided by lambda(t')."""
    ml = W.copy()
    ml[np.diag_indices_from(ml)] -= kappa
    ml /= lam[np.newaxis, :]
    return ml


def reference_kernels(params: KernelParams, dtype=np.float64) -> tuple[np.ndarray, ...]:
    """C, G, lambda, Sigma and W by the seven-array recursion of the moments.

    Every two-time array is held in full: K = <q q>, the noise source
    D = 1 + C + 2 a_e a_e^T, Sigma = W D W^T, the unnormalized response g
    and the cross moments L_t = sqrt(alpha) g Sigma_t, each row taken from
    its defining product, all in dtype.
    """
    n = params.T + 1
    alpha, kappa = dtype(params.alpha), dtype(params.kappa)
    sqrt_a = np.sqrt(alpha)
    a_e = params.external.series(n).astype(dtype)
    C, G, Sig, W, K, D, g = (np.zeros((n, n), dtype) for _ in range(7))
    lam = np.zeros(n, dtype)
    lam[0] = params.init_scale
    K[0, 0] = dtype(params.init_scale) ** 2
    C[0, 0] = 1.0
    W[0, 0] = 1.0
    for t in range(n):
        if t > 0:
            W[t, :t] = -(G[t, :t] @ W[:t, :t])
            W[t, t] = 1.0
        D[t, : t + 1] = 1.0 + C[t, : t + 1] + 2.0 * a_e[t] * a_e[: t + 1]
        D[: t + 1, t] = D[t, : t + 1]
        Sig[t, : t + 1] = (W[t, : t + 1] @ D[: t + 1, : t + 1]) @ W[: t + 1, : t + 1].T
        Sig[: t + 1, t] = Sig[t, : t + 1]
        if t == params.T:
            break
        ml = W[t, : t + 1].copy()  # memory row M_t. / lambda
        ml[t] -= kappa
        ml /= lam[: t + 1]
        g[t + 1, : t + 1] = g[t, : t + 1] - alpha * (ml @ g[: t + 1, : t + 1])
        g[t + 1, t] += 1.0
        L_t = sqrt_a * (g[: t + 2, : t + 1] @ Sig[t, : t + 1])
        K[t + 1, : t + 1] = (
            K[t, : t + 1] - alpha * (ml @ K[: t + 1, : t + 1]) + sqrt_a * L_t[: t + 1]
        )
        K[t + 1, t + 1] = K[t + 1, t] - alpha * (ml @ K[t + 1, : t + 1]) + sqrt_a * L_t[t + 1]
        K[: t + 1, t + 1] = K[t + 1, : t + 1]
        lam[t + 1] = np.sqrt(K[t + 1, t + 1])
        C[t + 1, : t + 2] = K[t + 1, : t + 2] / (lam[t + 1] * lam[: t + 2])
        C[: t + 2, t + 1] = C[t + 1, : t + 2]
        G[t + 1, : t + 1] = g[t + 1, : t + 1] / lam[t + 1]
    return C, G, lam, Sig, W


def response(state: KernelState) -> np.ndarray:
    """G = W^(-1) - 1, the strictly lower triangular response of the state's W."""
    eye = np.eye(state.params.T + 1)
    return solve_triangular(state.W, eye, lower=True, unit_diagonal=True) - eye


def kernel_moments(state: KernelState) -> np.ndarray:
    """K = <q(t) q(t')> = C_tt' lambda(t) lambda(t')."""
    return state.C * np.outer(state.lambda_traj, state.lambda_traj)


def noise_source(state: KernelState) -> np.ndarray:
    """D = 1 + C_tt' + 2 A_e(t) A_e(t')."""
    a_e = state.params.external.series(state.params.T + 1)
    return 1.0 + state.C + 2.0 * np.outer(a_e, a_e)


def noise_covariance(state: KernelState) -> np.ndarray:
    """Sigma = <eta(t) eta(t')> = W D W^T."""
    return state.W @ noise_source(state) @ state.W.T


def cross_moments(state: KernelState) -> np.ndarray:
    """L = <eta(t) q(t')> = sqrt(alpha) (Sigma g^T)_tt' with g = G lambda,
    the Gaussian identity for the linear process."""
    g = response(state) * state.lambda_traj[:, np.newaxis]
    return math.sqrt(state.params.alpha) * (noise_covariance(state) @ g.T)


def bid_mean_trajectory(state: KernelState) -> np.ndarray:
    """Bid-mean series sum_{t'} W_tt' a_e(t') of the state's drive.

    Under a stationary (alternating) drive, the plain (staggered) tail average
    approaches A/(1+chi) (A/(1+chi_hat)).
    """
    return state.W @ state.params.external.series(state.params.T + 1)


def cross_moments_by_recursion(state: KernelState) -> np.ndarray:
    """<eta(t) q(s)> integrated column by column along the valuation recursion.

    The start is independent of the noise, so L[t, 0] = 0, and multiplying
    the update of q(u+1) by eta(t) gives
    L[t, u+1] = L[t, u] - alpha sum_{t'<=u} M_ut' L[t, t']/lambda(t') + sqrt(alpha) Sigma_tu.
    """
    p = state.params
    n = state.params.T + 1
    ml = memory_rows(state.W, p.kappa, state.lambda_traj)
    sqrt_a = math.sqrt(p.alpha)
    sigma = noise_covariance(state)
    L = np.zeros((n, n))
    for u in range(n - 1):
        memory = L[:, : u + 1] @ ml[u, : u + 1]
        L[:, u + 1] = L[:, u] - p.alpha * memory + sqrt_a * sigma[:, u]
    return L


def sample_effective_process(state: KernelState, n_paths: int, rng: np.random.Generator):
    """Monte Carlo estimate of the correlation matrix of the effective process.

    Draws Gaussian noise paths with the kernel state's converged covariance,
    integrates the linear valuation recursion per path with the kernel
    state's (fixed) memory and lambda trajectory, and returns (C_mc, C_se),
    the entrywise mean and standard error of phi(t) phi(t').
    """
    p = state.params
    T = state.params.T
    eta = rng.multivariate_normal(np.zeros(T), noise_covariance(state)[:T, :T],
                                  size=n_paths, method="eigh")
    ml = memory_rows(state.W, p.kappa, state.lambda_traj)
    q = np.empty((n_paths, T + 1))
    q[:, 0] = p.init_scale * rng.choice([-1.0, 1.0], size=n_paths)
    sqrt_a = math.sqrt(p.alpha)
    for t in range(T):
        q[:, t + 1] = q[:, t] - p.alpha * (q[:, : t + 1] @ ml[t, : t + 1]) + sqrt_a * eta[:, t]
    phi = q / state.lambda_traj[np.newaxis, :]
    c_mc = (phi.T @ phi) / n_paths
    second = ((phi**2).T @ (phi**2)) / n_paths
    c_se = np.sqrt(np.maximum(second - c_mc**2, 0.0) / n_paths)
    return c_mc, c_se


def alpha_c2_via_c0(A_tilde: float, kappa: float, zeta: int) -> float:
    """The frozen-to-oscillating line from the c0 = 1 condition of the
    finite-lambda state.

    With Xi = sqrt((1 + 2 a2)^2 + 8 kappa (1 + a2)) the line reads

        2 (Xi - 1 - 2 a2) / [(Xi - 1 - 2 a2 - 2 kappa) (3 + 2 a2 - Xi)]

    whose differences cancel badly for large a2 and kappa near 1 (and is 0/0
    at kappa = 0).  Each difference reduces exactly against Xi^2, e.g.
    Xi^2 - (1 + 2 a2 + 2 kappa)^2 = 4 kappa (1 - kappa), which yields the
    cancellation-free equivalent evaluated here:

        (Xi + 1 + 2 a2 + 2 kappa) (3 + 2 a2 + Xi) / [2 (1-kappa)^2 (Xi + 1 + 2 a2)]

    This form is finite and exact down to kappa = 0, where it gives
    2 (1 + a2); it diverges at kappa = 1, returned as +inf.
    """
    a2 = A_tilde * A_tilde if zeta == 0 else 0.0
    if kappa == 1.0:
        return math.inf
    xi = math.sqrt((1.0 + 2.0 * a2) ** 2 + 8.0 * kappa * (1.0 + a2))
    num = (xi + 1.0 + 2.0 * a2 + 2.0 * kappa) * (3.0 + 2.0 * a2 + xi)
    den = 2.0 * (1.0 - kappa) ** 2 * (xi + 1.0 + 2.0 * a2)
    return num / den


def stationary_residuals(
    alpha: float, kappa: float, A_tilde: float, zeta: int, sol
) -> np.ndarray:
    """Residuals (LHS - RHS) of the four stationary order-parameter equations.

    For a time-translation invariant state (c0, chi, chi_hat, psi0, psi1) the
    reduced equations read

        c0 [alpha psi1 + (1+chi)^2 (1-psi0)]          = alpha psi1 chi (1 + 2 A^2 d(zeta,0))
        (1-c0) [alpha psi1 - (1+chi_hat)^2 (1+psi0)]  = 2 alpha psi1 chi_hat A^2 d(zeta,1)
        (1-psi0) chi (1+chi)                          = psi1 (1 + chi - alpha chi)
        -(1+psi0) chi_hat (1+chi_hat)                 = psi1 (1 + chi_hat - alpha chi_hat)

    and a valid oscillating-phase solution sol must satisfy all four to float
    accuracy.
    """
    a2 = A_tilde * A_tilde if zeta == 0 else 0.0
    a2_osc = A_tilde * A_tilde if zeta == 1 else 0.0
    c0, chi, ch, p0, p1 = sol.c0, sol.chi, sol.chi_hat, sol.psi0, sol.psi1
    r1 = c0 * (alpha * p1 + (1.0 + chi) ** 2 * (1.0 - p0)) - alpha * p1 * chi * (1.0 + 2.0 * a2)
    r2 = (1.0 - c0) * (alpha * p1 - (1.0 + ch) ** 2 * (1.0 + p0)) - 2.0 * alpha * p1 * ch * a2_osc
    r3 = (1.0 - p0) * chi * (1.0 + chi) - p1 * (1.0 + chi - alpha * chi)
    r4 = -(1.0 + p0) * ch * (1.0 + ch) - p1 * (1.0 + ch - alpha * ch)
    return np.array([r1, r2, r3, r4])
