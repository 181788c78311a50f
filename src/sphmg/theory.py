"""Exact stationary solutions of the batch spherical minority game.

Everything here is a closed form in the control parameters (alpha, kappa,
A, zeta) where A >= 0 is the external-bid amplitude and zeta selects a static
(zeta=0) or period-2 oscillating (zeta=1) drive.  Only A^2 * delta(zeta, 0)
enters the static formulas, abbreviated a2 below; the oscillating drive
enters only the staggered susceptibility chi_hat through 2 A^2 / (1 - c0).

Phases as a function of alpha, for fixed (kappa, A, zeta):

    alpha <= alpha_c1            anomalous (A):  c0 = 1, chi = inf
    alpha_c1 < alpha <= alpha_c2 frozen (F):     c0 = 1, lambda(t) ~ Lambda*t
    alpha > alpha_c2             oscillating (O): c0 < 1, lambda finite

with boundaries

    alpha_c1 = 1 / (2 (1 + a2))
    alpha_c2 = [R - 2(1-kappa) + sqrt(R^2 - 4(1-kappa) R)] / (2 (1-kappa)^2),
    R = (3 + 2 a2)^2 / (2 + 2 a2)

alpha_c2 is also the locus c0 = 1 of the finite-lambda solution; the tests
evaluate that second form independently and require agreement to 1e-9.

stationary_solution is the one solver.  classify_phase, which checks all
four inputs, decides the phase once; an exact boundary goes to the lower-alpha
phase, and so does a point above alpha_c2 whose oscillating c0 rounds to 1.

Frozen phase (diverging constraint force, growth rate Lambda):

    chi      = 1 / (sqrt(2 alpha (1 + a2)) - 1)         chi_hat = 0
    Lambda   = -1 - alpha (1-kappa) + sqrt(alpha) (3 + 2 a2) / sqrt(2 (1 + a2))
    sigma_fl = 1 - 1 / sqrt(2 alpha (1 + a2))

Oscillating phase (finite lambda = alpha (gamma - kappa) / 2):

    chi   = smaller root of  alpha kappa chi^2 + chi [1 + alpha (kappa-1)] + 1 = 0
    c0    = chi (1 + 2 a2) / (1 - kappa (1 + chi)^2)
    chi_hat(+-) = -1 / (1 +- s),  s = sqrt(alpha [1 + 2 A^2 d(zeta,1) / (1 - c0)])
    gamma = -[1 + chi_hat (1 - alpha)] / (alpha chi_hat (1 + chi_hat))
    sigma_fl^2 = (1 + c0) / (2 (1+chi)^2) + (1 - c0) / (2 (1+chi_hat)^2)

The physical staggered branch is chi_hat_plus (in-phase, high volatility).
The conventional volatility obeys sigma^2 = sigma_fl^2 + A^2/(1+chi_hat)^2
under an oscillating drive and sigma = sigma_fl under a static one, while the
bid averages are A/(1+chi) (plain, zeta=0) and A/(1+chi_hat) (staggered,
zeta=1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import ContractError, ExternalBid, check_alpha, check_kappa

class Phase(Enum):
    OSCILLATING = "O"
    FROZEN = "F"
    ANOMALOUS = "A"

    def __str__(self) -> str:  # compact form for tables
        return self.value


@dataclass(frozen=True)
class StationaryTheory:
    """Stationary observables; None marks quantities the theory leaves open.

    lam is the stationary constraint force (inf in the frozen phase), Lambda
    its linear growth rate (positive only in the frozen phase).  chi_hat is
    the physical (in-phase) staggered branch; the out-of-phase branch is kept
    in chi_hat_minus for diagnostics.
    """

    phase: Phase
    chi: float
    chi_hat: float | None = None
    chi_hat_minus: float | None = None
    c0: float | None = None
    lam: float | None = None
    Lambda: float | None = None
    gamma: float | None = None
    psi0: float | None = None
    psi1: float | None = None
    sigma_fl: float | None = None
    sigma: float | None = None
    bid_mean: float | None = None
    bid_staggered: float | None = None


def _static_a2(A_tilde: float, zeta: int) -> float:
    """A^2 if the drive is static, else 0 (only A^2 delta(zeta,0) enters);
    the drive is checked by building it."""
    ExternalBid(zeta=zeta, amplitude=A_tilde)
    return A_tilde * A_tilde if zeta == 0 else 0.0


def alpha_c1(A_tilde: float, zeta: int) -> float:
    """Ergodicity-breaking line (chi diverges): 1 / (2 (1 + A^2 d(zeta,0)))."""
    a2 = _static_a2(A_tilde, zeta)
    return 0.5 / (1.0 + a2)


def _big_r(a2: float) -> float:
    return (3.0 + 2.0 * a2) ** 2 / (2.0 + 2.0 * a2)


def alpha_c2(A_tilde: float, kappa: float, zeta: int) -> float:
    """Frozen-to-oscillating line: where the frozen growth rate Lambda hits 0.

    Plus-branch of the quadratic in alpha; the minus branch falls inside the
    nonergodic regime and is not physical.  Diverges at kappa = 1 (full
    self-impact correction), returned as +inf.
    """
    a2 = _static_a2(A_tilde, zeta)
    check_kappa(kappa)
    if kappa == 1.0:
        return math.inf
    r = _big_r(a2)  # r >= 4.5 > 4 (1 - kappa): the discriminant is positive
    disc = r * r - 4.0 * (1.0 - kappa) * r
    return (r - 2.0 * (1.0 - kappa) + math.sqrt(disc)) / (2.0 * (1.0 - kappa) ** 2)


def _chi_c0(alpha: float, kappa: float, a2: float) -> tuple[float, float]:
    """chi and c0 of the oscillating state, for alpha above the line alpha_c2.

    chi is the smaller root of  alpha kappa chi^2 + chi [1 + alpha (kappa-1)] + 1 = 0
    in the conjugate form 2 / (x + sqrt(x^2 - 4 alpha kappa)), which avoids
    cancellation and reduces to 1/(alpha-1) exactly at kappa = 0.  Above the
    line x = alpha (1-kappa) - 1 >= 1 and the discriminant is >= x^2 / 9.
    """
    x = alpha * (1.0 - kappa) - 1.0
    chi = 2.0 / (x + math.sqrt(x * x - 4.0 * alpha * kappa))
    return chi, chi * (1.0 + 2.0 * a2) / (1.0 - kappa * (1.0 + chi) ** 2)


def classify_phase(alpha: float, kappa: float, A_tilde: float, zeta: int) -> Phase:
    """Phase at (alpha, kappa, A, zeta), all four checked; boundaries go to the lower-alpha phase.

    A point above alpha_c2 whose oscillating c0 rounds to 1 lies on the line
    within rounding, so it is frozen too.
    """
    check_alpha(alpha)
    a2 = _static_a2(A_tilde, zeta)
    check_kappa(kappa)
    if alpha <= alpha_c1(A_tilde, zeta):
        return Phase.ANOMALOUS
    if alpha <= alpha_c2(A_tilde, kappa, zeta) or _chi_c0(alpha, kappa, a2)[1] >= 1.0:
        return Phase.FROZEN
    return Phase.OSCILLATING


def _frozen(alpha: float, kappa: float, A_tilde: float, zeta: int, a2: float
            ) -> tuple[dict, float]:
    """The frozen window alpha_c1 < alpha <= alpha_c2: its closed forms and
    sigma_fl^2."""
    root = math.sqrt(2.0 * alpha * (1.0 + a2))  # > 1 inside the window
    sigma_fl = 1.0 - 1.0 / root
    lam_rate = -1.0 - alpha * (1.0 - kappa) + math.sqrt(alpha) * (3.0 + 2.0 * a2) / math.sqrt(
        2.0 * (1.0 + a2)
    )
    forms = dict(chi=1.0 / (root - 1.0), chi_hat=0.0, c0=1.0, lam=math.inf, Lambda=lam_rate,
                 psi0=1.0, psi1=0.0, sigma_fl=sigma_fl)
    return forms, sigma_fl**2


def _oscillating(alpha: float, kappa: float, A_tilde: float, zeta: int, a2: float
                 ) -> tuple[dict, float]:
    """The finite-constraint-force solution for alpha > alpha_c2: its closed
    forms and sigma_fl^2."""
    chi, c0 = _chi_c0(alpha, kappa, a2)
    if not 0.0 <= c0 < 1.0:
        raise ContractError(f"persistent correlation c0={c0} outside [0, 1)")

    osc = 2.0 * A_tilde * A_tilde / (1.0 - c0) if zeta == 1 else 0.0
    s = math.sqrt(alpha * (1.0 + osc))  # > 1 since alpha > alpha_c2 >= 2/(1+a2) > 1
    chi_hat = -1.0 / (1.0 + s)
    gamma = -(1.0 + chi_hat * (1.0 - alpha)) / (alpha * chi_hat * (1.0 + chi_hat))
    lam = 0.5 * alpha * (gamma - kappa)
    if not lam > 0.0:
        raise ContractError(f"nonpositive stationary constraint force lam={lam}")

    sigma_fl2 = (1.0 + c0) / (2.0 * (1.0 + chi) ** 2) + (1.0 - c0) / (2.0 * (1.0 + chi_hat) ** 2)
    forms = dict(chi=chi, chi_hat=chi_hat, chi_hat_minus=-1.0 / (1.0 - s), c0=c0, lam=lam,
                 Lambda=0.0, gamma=gamma, psi0=(lam + alpha * kappa) / lam, psi1=1.0 / lam,
                 sigma_fl=math.sqrt(sigma_fl2))
    return forms, sigma_fl2


def stationary_solution(alpha: float, kappa: float, A_tilde: float, zeta: int) -> StationaryTheory:
    """The solution in the phase classify_phase gives; the anomalous phase
    carries only c0 = 1, chi = inf.

    The response to the drive is taken once for F and O: the bid mean
    A/(1+chi) under a static drive, the staggered bid A/(1+chi_hat) under an
    alternating one, and sigma^2 = sigma_fl^2 + (staggered bid)^2.
    """
    phase = classify_phase(alpha, kappa, A_tilde, zeta)
    if phase is Phase.ANOMALOUS:
        return StationaryTheory(phase=Phase.ANOMALOUS, chi=math.inf, c0=1.0)
    solve = _frozen if phase is Phase.FROZEN else _oscillating
    forms, sigma_fl2 = solve(alpha, kappa, A_tilde, zeta, _static_a2(A_tilde, zeta))
    stag = A_tilde / (1.0 + forms["chi_hat"]) if zeta == 1 else 0.0
    return StationaryTheory(phase=phase, **forms, sigma=math.sqrt(sigma_fl2 + stag**2),
                            bid_mean=A_tilde / (1.0 + forms["chi"]) if zeta == 0 else 0.0,
                            bid_staggered=stag)
