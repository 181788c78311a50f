import math

import numpy as np
import pytest

from sphmg import (
    ContractError,
    Phase,
    alpha_c1,
    alpha_c2,
    classify_phase,
    stationary_solution,
)
from sphmg.theory import _chi_c0
from oracles import alpha_c2_via_c0, stationary_residuals

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# transition lines
# ---------------------------------------------------------------------------


def test_alpha_c1_values():
    assert alpha_c1(0.0, 0) == pytest.approx(0.5, abs=1e-15)
    assert alpha_c1(1.0, 0) == pytest.approx(0.25, abs=1e-15)
    assert alpha_c1(7.0, 1) == pytest.approx(0.5, abs=1e-15)


def test_alpha_c2_values():
    assert alpha_c2(0.0, 0.0, 0) == pytest.approx(2.0, abs=1e-12)
    assert alpha_c2(0.0, 0.0, 1) == pytest.approx(2.0, abs=1e-12)
    assert alpha_c2(2.0, 0.0, 0) == pytest.approx(10.0, abs=1e-12)
    assert alpha_c2(2.0, 0.0, 1) == pytest.approx(2.0, abs=1e-12)
    assert alpha_c2(0.0, 1.0, 0) == math.inf
    with pytest.raises(ContractError):
        alpha_c2(0.0, 1.2, 0)


def test_alpha_c2_monotone_in_kappa():
    vals = [alpha_c2(1.0, k, 0) for k in np.linspace(0.0, 0.9, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_alpha_c2_via_c0_closed_values():
    # kappa = 0.25, no drive: (6 + 3 sqrt(3)) / 2.25
    expected = (6.0 + 3.0 * math.sqrt(3.0)) / 2.25
    assert expected == pytest.approx(4.97606, abs=5e-5)
    assert alpha_c2_via_c0(0.0, 0.25, 0) == pytest.approx(expected, abs=1e-12)
    assert alpha_c2_via_c0(0.0, 1e-12, 0) == pytest.approx(2.0, abs=1e-9)
    assert alpha_c2_via_c0(3.0, 0.5, 0) == pytest.approx(alpha_c2(3.0, 0.5, 0), abs=1e-9)
    assert alpha_c2_via_c0(0.0, 1.0, 0) == math.inf


def test_transition_routes_agree_on_grid():
    for kappa in np.arange(0.05, 0.951, 0.05):
        for a in (0.0, 1.0, 2.0, 3.0):
            for zeta in (0, 1):
                assert alpha_c2_via_c0(a, kappa, zeta) == pytest.approx(
                    alpha_c2(a, kappa, zeta), abs=1e-9, rel=1e-9
                )


def test_oscillating_lines_amplitude_independent():
    for a in (0.0, 0.5, 2.0, 7.0):
        assert alpha_c1(a, 1) == alpha_c1(0.0, 1)
        for kappa in (0.0, 0.3, 0.8):
            assert alpha_c2(a, kappa, 1) == alpha_c2(0.0, kappa, 1)


# ---------------------------------------------------------------------------
# phase classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,kappa,a,zeta,expected",
    [
        (1.0, 0.0, 0.0, 0, Phase.FROZEN),
        (0.3, 0.0, 0.0, 0, Phase.ANOMALOUS),
        (3.0, 0.0, 1.0, 0, Phase.FROZEN),  # alpha_c2(1,0) = 4
        (4.0, 0.0, 0.0, 0, Phase.OSCILLATING),
        (0.5, 0.0, 0.0, 0, Phase.ANOMALOUS),  # boundary goes to the lower phase
        (2.0, 0.0, 0.0, 0, Phase.FROZEN),
        (3.0, 1.0, 0.0, 0, Phase.FROZEN),  # kappa=1: no oscillating phase
    ],
)
def test_classify_phase(alpha, kappa, a, zeta, expected):
    assert classify_phase(alpha, kappa, a, zeta) is expected


# ---------------------------------------------------------------------------
# frozen phase
# ---------------------------------------------------------------------------


def test_frozen_at_boundary_alpha_two():
    sol = stationary_solution(2.0, 0.0, 0.0, 0)
    assert sol.phase is Phase.FROZEN
    assert sol.chi == pytest.approx(1.0, abs=1e-12)
    assert sol.sigma_fl == pytest.approx(0.5, abs=1e-12)
    assert sol.Lambda == pytest.approx(0.0, abs=1e-12)


def test_frozen_alpha_one():
    sol = stationary_solution(1.0, 0.0, 0.0, 0)
    assert sol.phase is Phase.FROZEN
    assert sol.chi == pytest.approx(1.0 + SQRT2, abs=1e-12)
    assert sol.sigma_fl == pytest.approx(1.0 - 1.0 / SQRT2, abs=1e-12)
    assert sol.Lambda == pytest.approx(3.0 / SQRT2 - 2.0, abs=1e-12)
    assert sol.c0 == 1.0 and sol.chi_hat == 0.0 and sol.lam == math.inf
    assert sol.psi0 == 1.0 and sol.psi1 == 0.0
    assert sol.sigma == pytest.approx(sol.sigma_fl)  # static drive adds nothing


def test_frozen_with_static_drive():
    sol = stationary_solution(1.0, 0.0, 1.0, 0)
    assert sol.phase is Phase.FROZEN
    assert sol.chi == pytest.approx(1.0, abs=1e-12)
    assert sol.sigma_fl**2 == pytest.approx(0.25, abs=1e-12)
    assert sol.bid_mean == pytest.approx(0.5, abs=1e-12)
    assert sol.bid_staggered == 0.0


def test_frozen_with_oscillating_drive():
    # chi_hat = 0 so the staggered bid average equals the raw amplitude and
    # sigma^2 = sigma_fl^2 + A^2
    sol = stationary_solution(1.0, 0.0, 2.0, 1)
    assert sol.phase is Phase.FROZEN
    assert sol.bid_staggered == pytest.approx(2.0)
    assert sol.sigma**2 == pytest.approx(sol.sigma_fl**2 + 4.0)
    assert sol.bid_mean == 0.0


# ---------------------------------------------------------------------------
# oscillating (ergodic) phase
# ---------------------------------------------------------------------------


def test_ergodic_alpha_four():
    sol = stationary_solution(4.0, 0.0, 0.0, 0)
    assert sol.phase is Phase.OSCILLATING
    assert sol.chi == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert sol.c0 == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert sol.chi_hat == pytest.approx(-1.0 / 3.0, abs=1e-14)
    assert sol.chi_hat_minus == pytest.approx(1.0, abs=1e-14)
    assert sol.sigma_fl**2 == pytest.approx(1.125, abs=1e-12)
    assert sol.gamma == pytest.approx(2.25, abs=1e-12)
    assert sol.lam == pytest.approx(4.5, abs=1e-12)
    assert sol.psi0 == pytest.approx(1.0) and sol.psi1 == pytest.approx(1.0 / 4.5)
    assert sol.Lambda == 0.0


def test_ergodic_oscillating_drive():
    sol = stationary_solution(4.0, 0.0, 1.0, 1)
    assert sol.phase is Phase.OSCILLATING
    assert sol.c0 == pytest.approx(1.0 / 3.0, abs=1e-14)  # amplitude-independent
    assert sol.chi_hat == pytest.approx(-0.2, abs=1e-14)
    assert sol.sigma**2 == pytest.approx(sol.sigma_fl**2 + 25.0 / 16.0, abs=1e-12)
    assert sol.bid_staggered == pytest.approx(1.25, abs=1e-12)
    assert sol.bid_mean == 0.0


def test_ergodic_large_alpha_asymptote():
    # expansion of the closed form: c0 = 1/(alpha (1-kappa)^2)
    #                                    + (1+2 kappa)/(alpha (1-kappa)^2)^2 + O(alpha^-3)
    kappa = 0.25
    for alpha in (1e3, 1e5):
        sol = stationary_solution(alpha, kappa, 0.0, 0)
        assert sol.phase is Phase.OSCILLATING
        lead = 1.0 / (alpha * (1.0 - kappa) ** 2)
        second = (1.0 + 2.0 * kappa) / (alpha * (1.0 - kappa) ** 2) ** 2
        assert abs(sol.c0 - lead - second) < 30.0 / alpha**3
        assert sol.c0 < 5.0 / alpha  # decays like 1/alpha


def test_stationary_solution_dispatch():
    assert stationary_solution(1.0, 0.0, 0.0, 0).phase is Phase.FROZEN
    assert stationary_solution(4.0, 0.0, 0.0, 0).phase is Phase.OSCILLATING
    anomalous = stationary_solution(0.3, 0.0, 0.0, 0)
    assert anomalous.phase is Phase.ANOMALOUS
    assert anomalous.chi == math.inf and anomalous.c0 == 1.0
    assert anomalous.sigma is None and anomalous.lam is None and anomalous.psi0 is None


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _random_oscillating_points(rng, count):
    pts = []
    while len(pts) < count:
        kappa = rng.uniform(0.0, 0.9)
        a = rng.uniform(0.0, 3.0)
        zeta = int(rng.integers(0, 2))
        ac2 = alpha_c2(a, kappa, zeta)
        alpha = ac2 * rng.uniform(1.001, 8.0)
        pts.append((alpha, kappa, a, zeta))
    return pts


def test_stationary_residuals_vanish_on_random_points():
    rng = np.random.default_rng(42)
    for alpha, kappa, a, zeta in _random_oscillating_points(rng, 50):
        sol = stationary_solution(alpha, kappa, a, zeta)
        assert sol.phase is Phase.OSCILLATING
        res = stationary_residuals(alpha, kappa, a, zeta, sol)
        assert np.max(np.abs(res)) < 1e-9, (alpha, kappa, a, zeta, res)


def test_quadratic_roots():
    for kappa in np.linspace(0.01, 0.9, 15):
        alpha = alpha_c2(0.0, kappa, 0) * 1.5
        sol = stationary_solution(alpha, kappa, 0.0, 0)
        assert sol.phase is Phase.OSCILLATING
        chi = sol.chi
        assert abs(alpha * kappa * chi**2 + chi * (1.0 + alpha * (kappa - 1.0)) + 1.0) < 1e-10
        ch, g = sol.chi_hat, sol.gamma
        assert abs(alpha * g * ch**2 + ch * (1.0 + alpha * (g - 1.0)) + 1.0) < 1e-10


def test_continuity_across_the_frozen_to_oscillating_line():
    for kappa, a, zeta in [(0.0, 0.0, 0), (0.25, 1.0, 0), (0.5, 2.0, 1)]:
        ac2 = alpha_c2(a, kappa, zeta)
        frozen = stationary_solution(ac2 - 1e-6, kappa, a, zeta)
        ergodic = stationary_solution(ac2 + 1e-6, kappa, a, zeta)
        assert frozen.phase is Phase.FROZEN and ergodic.phase is Phase.OSCILLATING
        assert abs(frozen.c0 - ergodic.c0) < 1e-3
        assert 0.0 < frozen.Lambda < 1e-5


def test_every_point_within_rounding_above_alpha_c2_is_solved():
    # the 40 floats above the line on a (kappa, A, zeta) grid: where the
    # oscillating c0 rounds to 1 the point is frozen, elsewhere oscillating,
    # and the solver gives a solution in the classified phase at every one
    kappas = [*np.linspace(0.0, 0.99, 100), 0.999, 1.0 - 1e-6, 1.0 - 1e-12]
    phases = []
    for kappa in map(float, kappas):
        for a in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 100.0, 1e4):
            for zeta in (0, 1):
                alpha = alpha_c2(a, kappa, zeta)
                for _ in range(40):
                    alpha = math.nextafter(alpha, math.inf)
                    sol = stationary_solution(alpha, kappa, a, zeta)
                    assert sol.phase is classify_phase(alpha, kappa, a, zeta)
                    phases.append(sol.phase)
    assert len(phases) == 65920
    assert 0 < phases.count(Phase.FROZEN) < len(phases) // 10


def test_finite_force_existence_window():
    # real roots exist only outside (1/(1+sqrt(kappa))^2, 1/(1-sqrt(kappa))^2)
    kappa = 0.3
    lo = 1.0 / (1.0 + math.sqrt(kappa)) ** 2
    hi = 1.0 / (1.0 - math.sqrt(kappa)) ** 2

    def disc(alpha):
        return (alpha * (1.0 - kappa) - 1.0) ** 2 - 4.0 * alpha * kappa

    assert disc(lo * 0.99) > 0 and disc(hi * 1.01) > 0
    assert disc(lo * 1.01) < 0 and disc(hi * 0.99) < 0
    assert disc((lo + hi) / 2) < 0


def test_chi_minus_matches_limit_at_kappa_zero():
    for alpha in (1.5, 2.5, 10.0):
        assert _chi_c0(alpha, 0.0, 0.0)[0] == pytest.approx(1.0 / (alpha - 1.0), abs=1e-15)
        # continuous in kappa near zero
        assert _chi_c0(alpha, 1e-12, 0.0)[0] == pytest.approx(1.0 / (alpha - 1.0), rel=1e-9)


def test_input_validation():
    with pytest.raises(ContractError):
        alpha_c1(-1.0, 0)
    with pytest.raises(ContractError):
        alpha_c1(1.0, 2)
    with pytest.raises(ContractError):
        classify_phase(0.0, 0.0, 0.0, 0)
    # kappa is checked in every phase, the anomalous one too
    with pytest.raises(ContractError, match="kappa must lie in"):
        classify_phase(0.1, 5.0, 0.0, 0)
    with pytest.raises(ContractError, match="kappa must lie in"):
        stationary_solution(0.1, -1.0, 0.0, 0)
