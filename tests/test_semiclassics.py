"""Unit tests for the WKB layer.

Oracles: the printed reference table, closed-form reductions of the WKB
formula, synthetic power-law data for the boundary-exponent fit, and the
Bessel form of the linear-potential solution at beta = 1.
"""
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.special import j0

from kab.semiclassics import (
    _NODES_PER_RADIAN,
    _lp_integral,
    _sc_amplitude,
    bohr_sommerfeld_solve,
    boundary_exponents,
    fit_boundary_exponent,
    linear_potential_solution,
    semiclassical_wavefunction,
    stable_log_one_minus_x,
    wkb_eigenvalue,
    wkb_table,
)
from kab.specfun import BIG_G_MIN, CONSTANTS, big_g_inverse
from tests.conftest import printed_tolerance, traced_peak

GAMMA = CONSTANTS.euler_gamma
LOG2 = CONSTANTS.log2


class TestWkbEigenvalue:
    def test_one_one_reduction(self):
        # kappa_n/2 = log(n + 1/2) + gamma_E for (1, 1)
        for n in range(12):
            assert 0.5 * wkb_eigenvalue(n, 1.0, 1.0) == pytest.approx(
                math.log(n + 0.5) + GAMMA, abs=1e-13
            )

    def test_two_two_reduction(self):
        # B(1,1) = 1 and the log 2 term gives kappa_n/2 = log(pi(n+1/2)) - log 2 + gamma_E
        for n in range(12):
            assert 0.5 * wkb_eigenvalue(n, 2.0, 2.0) == pytest.approx(
                math.log(math.pi * (n + 0.5)) - LOG2 + GAMMA, abs=1e-13
            )

    def test_printed_table(self, table1):
        # S-1 / A-1: reproduce both WKB columns to their printed precision
        for col, (a, b) in (("wkb_22", (2.0, 2.0)), ("wkb_11", (1.0, 1.0))):
            for n, entry in enumerate(table1[col]):
                val = 0.5 * wkb_eigenvalue(n, a, b)
                assert abs(val - float(entry)) <= printed_tolerance(entry)

    def test_validation(self):
        with pytest.raises(ValueError):
            wkb_eigenvalue(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            wkb_eigenvalue(0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        for alpha, beta in ((bad, 2.0), (2.0, bad)):
            with pytest.raises(ValueError, match=repr(bad)):
                wkb_eigenvalue(0, alpha, beta)
            with pytest.raises(ValueError, match=repr(bad)):
                boundary_exponents(alpha, beta)
        for beta, kappa_prime in ((bad, 0.1), (2.0, bad)):
            with pytest.raises(ValueError, match=repr(bad)):
                linear_potential_solution(beta, kappa_prime, [0.0])
        for u in (bad, -bad, [0.0, bad]):
            with pytest.raises(ValueError, match=rf"\bu must be finite, got -?{bad!r}"):
                linear_potential_solution(2.0, 0.1, u)

    @given(
        n=st.integers(0, 30),
        alpha=st.floats(0.3, 4.0),
        beta=st.floats(0.3, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_parameter_symmetry(self, n, alpha, beta):
        # the spectrum of K_{alpha beta} and K_{beta alpha} coincide
        assert wkb_eigenvalue(n, alpha, beta) == pytest.approx(
            wkb_eigenvalue(n, beta, alpha), abs=1e-12
        )


class TestBohrSommerfeld:
    def test_matches_closed_form_at_large_n(self):
        # S-2 / A-11: n^2 |BS - closed form| stays small on the kappa/2 scale
        for n in (4, 8, 12):
            diff = 0.5 * abs(
                bohr_sommerfeld_solve(n, 2.0, 2.0) - wkb_eigenvalue(n, 2.0, 2.0)
            )
            assert n * n * diff <= 0.06

    def test_difference_decreasing(self):
        # S-3: |BS - closed form| decreases along n = 0, 2, 4, 8
        diffs = [
            abs(bohr_sommerfeld_solve(n, 2.0, 2.0) - wkb_eigenvalue(n, 2.0, 2.0))
            for n in (0, 2, 4, 8)
        ]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_ground_state_two_two_frozen(self):
        # frozen regression value for the (2,2) ground state on the kappa/2 scale
        assert 0.5 * bohr_sommerfeld_solve(0, 2.0, 2.0) == pytest.approx(
            0.38785, abs=5e-5
        )

    def test_asymmetric_parameters_run(self):
        val = bohr_sommerfeld_solve(3, 1.0, 2.0)
        ref = wkb_eigenvalue(3, 1.0, 2.0)
        assert abs(val - ref) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            bohr_sommerfeld_solve(-1, 2.0, 2.0)

    @pytest.mark.parametrize("alpha", [1e17, 1e300])
    def test_unresolved_well_raises(self, alpha):
        # the bracket grows by steps of 1, which a kappa' of -(alpha + beta)
        # log 2 absorbs; the solve once looped on it for ever
        with pytest.raises(RuntimeError, match="absorbs a step of 1"):
            bohr_sommerfeld_solve(np.arange(5), alpha, 2.0)
        with pytest.raises(ValueError):
            bohr_sommerfeld_solve(0, 2.0, -1.0)

    @pytest.mark.parametrize("alpha", [1e3, 1e4, 1e8, 1e13])
    def test_deep_well_converges(self, alpha):
        # the well bottom lies near -(alpha + beta) log 2; the level bracket
        # once had no one-ulp floor there and stopped with "no convergence"
        # from alpha = 1e3 on
        levels = bohr_sommerfeld_solve(np.arange(10), alpha, 2.0)
        closed = np.array([wkb_eigenvalue(n, alpha, 2.0) for n in range(10)])
        assert np.all(np.diff(levels) > 0.0)
        assert np.max(np.abs(levels - closed)) <= 0.05

    @pytest.mark.parametrize("alpha", [1e14, 1e16])
    def test_coarse_well_raises(self, alpha):
        # near kappa' = -(alpha + beta) log 2 the doubles are 0.0078 apart at
        # alpha = 1e14 and 1 apart at 1e16, too coarse for level 9's spacing
        # 0.2; these once returned levels up to 2 off the closed form, or
        # not increasing, without an error
        with pytest.raises(RuntimeError, match="do not resolve a level spacing of 0.2"):
            bohr_sommerfeld_solve(np.arange(10), alpha, 2.0)

    def test_coarse_well_resolves_wide_levels(self):
        # at alpha = 1e14 level 0's spacing 2.2 is still resolved
        assert abs(bohr_sommerfeld_solve(0, 1e14, 2.0) - wkb_eigenvalue(0, 1e14, 2.0)) <= 0.05

    @pytest.mark.parametrize("n", [2.5, 2.0, [0, -1], np.array([0.5]), True])
    def test_rejects_non_integer_level(self, n):
        # a level index is a non-negative integer; 2.5 once solved as if it
        # were one
        with pytest.raises(ValueError, match="bohr_sommerfeld_solve: n=.* must be a non-negative integer"):
            bohr_sommerfeld_solve(n, 2.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # the message names this function, not the OperatorParams it builds
        with pytest.raises(ValueError, match="bohr_sommerfeld_solve: alpha must be finite"):
            bohr_sommerfeld_solve(0, bad, 2.0)
        with pytest.raises(ValueError, match="semiclassical_wavefunction: beta must be finite"):
            semiclassical_wavefunction(0, 2.0, bad, 0.0)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (0.7, 1.9), (3.0, 0.5)])
    def test_levels_solved_together_are_bitwise(self, alpha, beta):
        # every level stops on its own, so a level does not depend on the
        # others solved with it
        together = bohr_sommerfeld_solve(np.arange(10), alpha, beta)
        assert together.shape == (10,)
        for n in range(10):
            alone = bohr_sommerfeld_solve(n, alpha, beta)
            assert type(alone) is float
            assert together[n] == alone

    @pytest.mark.parametrize(
        "alpha,beta,levels",
        [
            (2.0, 2.0, [0.7757028732772661, 2.846077597244591, 3.8788278130660627,
                        4.556382169211823, 5.06124920721128, 5.463852543243087,
                        5.798746285062455, 6.08547230953295, 6.336167146522175,
                        6.55888801349377]),
            (1.3, 2.6, [0.42510113397986005, 2.444093308297127, 3.4738086580294416,
                        4.150805200144952, 4.655452886320294, 5.057947198753958,
                        5.392779452367757, 5.679467775126705, 5.930138075034782,
                        6.1528422441002535]),
            (0.7, 1.9, [-0.07035108226100761, 1.7122707632368206, 2.713970742057387,
                        3.385430546771202, 3.887937272908152, 4.289338439094804,
                        4.623533011811638, 4.909816005237564, 5.160212215001815,
                        5.382722118871673]),
            (1.0, 1.0, [0.20790441634230328, 1.9886108373595817, 2.989714510258586,
                        3.6607509687125486, 4.162947123425261, 4.564123930287802,
                        4.898154358495008, 5.1843145017632475, 5.43461658669456,
                        5.657052812209557]),
            (0.5, 3.0, [-0.9115030404708768, 0.7623203039450442, 1.742039388132461,
                        2.4087698503691177, 2.9097233926730173, 3.3104365631837984,
                        3.644278249319412, 3.930364328952172, 4.180644329853053,
                        4.403082952661636]),
            (3.0, 0.5, [-0.9115030404708768, 0.7623203039450441, 1.7420393881324607,
                        2.4087698503691177, 2.9097233926730173, 3.3104365631837984,
                        3.6442782493194112, 3.930364328952172, 4.180644329853053,
                        4.403082952661635]),
        ],
    )
    def test_levels_frozen(self, alpha, beta, levels):
        # levels 0-9 as a scalar Brent solve to xtol 1e-11 found them; V is
        # symmetric under (alpha, beta, u) -> (beta, alpha, -u), so the last
        # two pairs share a spectrum
        got = bohr_sommerfeld_solve(np.arange(10), alpha, beta)
        assert np.max(np.abs(got - levels)) <= 1e-12


class TestSemiclassicalWavefunction:
    def test_decay_far_left(self):
        # exp(-V/4) decay kills the wavefunction outside the well
        vals = semiclassical_wavefunction(2, 2.0, 2.0, np.array([-30.0, 30.0]))
        assert np.max(np.abs(vals)) < 1e-4

    def test_one_one_form(self):
        # for (1,1): Psi = A sin(2 e^{kappa'/2} atan(e^u) + pi/4) sqrt(sech u)
        n = 3
        kp = wkb_eigenvalue(n, 1.0, 1.0) - 2.0 * GAMMA
        amp = (0.5 * math.pi + 1.0 / (2.0 * n + 1.0)) ** -0.5
        for u in (-1.0, 0.0, 2.0):
            exact = (
                amp
                * math.sin(
                    math.exp(0.5 * kp) * 2.0 * math.atan(math.exp(u)) + 0.25 * math.pi
                )
                * math.sqrt(1.0 / math.cosh(u))
            )
            assert semiclassical_wavefunction(n, 1.0, 1.0, u) == pytest.approx(
                exact, abs=1e-9
            )

    @pytest.mark.parametrize(
        "alpha,closed_form",
        [
            (1.0, lambda n: (0.5 * math.pi + 1.0 / (2.0 * n + 1.0)) ** -0.5),
            (2.0, lambda n: (1.0 + (2.0 / math.pi) / (2.0 * n + 1.0)) ** -0.5),
        ],
    )
    def test_amplitude_matches_closed_forms(self, alpha, closed_form):
        # for (1,1) and (2,2) the unit-norm amplitude has a closed form
        for n in range(11):
            kp = wkb_eigenvalue(n, alpha, alpha) - 2.0 * GAMMA
            assert _sc_amplitude(alpha, alpha, kp) == pytest.approx(
                closed_form(n), rel=1e-12
            )

    @pytest.mark.parametrize(
        "alpha,beta,n",
        [(0.2, 3.0, 1), (0.5, 3.0, 4), (2.0, 2.0, 3), (1.5, 2.5, 1), (0.7, 1.9, 2), (4.0, 4.0, 6)],
    )
    def test_amplitude_matches_weighted_quadrature(self, alpha, beta, n):
        # the squared norm in x = (1 + tanh u)/2, where e^(-V/2) du carries
        # the weight x^(a-1) (1-x)^(b-1), a = alpha/2, b = beta/2, that
        # QUADPACK's algebraic rule integrates with no cut of the tails
        kp = wkb_eigenvalue(n, alpha, beta) - 2.0 * GAMMA
        a, b = 0.5 * alpha, 0.5 * beta
        full = math.exp(0.5 * kp + (a + b - 1.0) * LOG2 + special.betaln(a, b))
        f = lambda x: 2.0 ** (a + b - 1.0) * np.sin(
            full * special.betainc(a, b, x) + 0.25 * math.pi) ** 2
        norm2, err = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                                    epsabs=0.0, epsrel=1e-13, limit=500)
        assert err <= 1e-12 * norm2
        assert _sc_amplitude(alpha, beta, kp) == pytest.approx(norm2**-0.5, rel=1e-12)

    def test_generic_normalization(self):
        # generic parameters: amplitude fixed by unit L2 norm
        u = np.linspace(-25.0, 25.0, 4001)
        vals = semiclassical_wavefunction(1, 1.5, 2.5, u)
        assert np.trapezoid(vals**2, u) == pytest.approx(1.0, abs=1e-3)


class TestBoundaryExponents:
    def test_values(self):
        be = boundary_exponents(2.0, 2.0)
        assert be.d_alpha == -0.5
        assert be.d_beta == -0.5
        be = boundary_exponents(1.0, 2.0)
        assert be.d_alpha == 0.0

    def test_stable_log(self):
        u = np.array([0.0, 5.0, 400.0])
        assert stable_log_one_minus_x(u)[0] == pytest.approx(0.0, abs=1e-15)
        assert stable_log_one_minus_x(u)[1] == pytest.approx(
            math.log(1.0 - math.tanh(5.0)), abs=1e-12
        )
        # x = tanh(400) rounds to 1 in double precision; the stable form survives
        assert stable_log_one_minus_x(u)[2] == pytest.approx(LOG2 - 800.0, abs=1e-9)

    def test_fit_on_synthetic_power_law(self):
        # S-4 oracle: exact |log(1-x)|^(-1/2) data must fit slope -1/2
        u = np.linspace(4.0, 300.0, 400)
        lg = stable_log_one_minus_x(u)
        phi = np.abs(lg) ** -0.5
        slope = fit_boundary_exponent(lg, phi, 2.0, 0.0)
        assert abs(slope + 0.5) < 1e-3

    def test_fit_window_guard(self):
        with pytest.raises(ValueError):
            fit_boundary_exponent(
                np.log1p(-np.array([0.5, 0.6])), np.array([1.0, 1.0]), 2.0
            )


def exact_bessel_form(kappa_prime, u):
    """2 y J0(2y), y = exp(-u + kappa'/2), in 30-digit arithmetic at each u."""
    with mp.workdps(30):
        y = [mp.exp(-mp.mpf(float(x)) + mp.mpf(kappa_prime) / 2) for x in u]
        return np.array([float(2 * v * mp.besselj(0, 2 * v)) for v in y])


class TestLinearPotential:
    def test_beta_one_bessel_form(self):
        # the decaying solution at beta = 1 is 2 y J0(2y), y = exp(-u + kappa'/2),
        # with no fitted scale, left of the turning region as well as right
        u = np.linspace(-6.0, 6.0, 241)
        for kp in (0.0, 0.4):
            ref = exact_bessel_form(kp, u)
            vals = linear_potential_solution(1.0, kp, u)
            assert np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12

    def test_kappa_prime_is_shift(self):
        # kappa' enters only through u - kappa'/2
        u = np.array([0.5, 1.5])
        a = linear_potential_solution(1.0, 0.0, u)
        b = linear_potential_solution(1.0, 1.0, u + 0.5)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_beta_two_slope(self):
        # for beta = 2 the turning point scales differently: the solution
        # still decays to the right of u = kappa'/2
        u = np.array([1.0, 3.0, 5.0])
        vals = np.abs(linear_potential_solution(2.0, 0.0, u))
        assert vals[2] < vals[0]

    def test_memory_bounded(self):
        # the nodes go in blocks of at most _BLOCK_CELLS, and one u at a time
        u = np.linspace(0.0, 6.0, 100)
        vals, peak = traced_peak(linear_potential_solution, 1.0, 0.4, u)
        assert peak < 64 * 2**20
        # the exact 2 y J0(2y), every eleventh point
        y = np.exp(-u[::11] + 0.2)
        assert np.max(np.abs(vals[::11] - 2.0 * y * j0(2.0 * y))) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_potential_solution(0.0, 0.0, 0.5)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kp", [-1.0, 0.3])
    def test_path_independent(self, beta, kp):
        # by Cauchy's theorem the value does not depend on the contour: rays
        # at -pi/6 and -pi/3 at twice the node density agree with the
        # default, left of the turning region as well as right
        u = np.linspace(-4.0, 4.0, 33)
        vals = linear_potential_solution(beta, kp, u)
        p_s = big_g_inverse(np.maximum(kp + 2.0 * LOG2 - 2.0 * beta * u, BIG_G_MIN))
        scale = np.maximum(1.0, np.abs(vals))
        for angle in (math.pi / 6.0, math.pi / 3.0):
            other = _lp_integral(beta, kp, u, p_s, angle, 2.0 * _NODES_PER_RADIAN)
            assert np.max(np.abs(other - vals) / scale) <= 1e-9

    def test_far_u_returns_or_names_u(self):
        # far left the saddle p_s ~ exp(beta |u|) outgrows the node cap and
        # the call refuses naming u; far right the ray shrinks and the value
        # is finite; either way within seconds
        for u in (-50.0, 1e300, -1e300):
            start = time.perf_counter()
            try:
                assert math.isfinite(linear_potential_solution(2.0, 0.3, u))
            except ValueError as exc:
                assert f"u = {u:g} " in str(exc)
            assert time.perf_counter() - start < 5.0


class TestWkbTable:
    def test_rows(self):
        rows = wkb_table(2.0, 2.0, 3)
        assert [r.n for r in rows] == [0, 1, 2]
        assert rows[1].kappa_closed_form == pytest.approx(
            wkb_eigenvalue(1, 2.0, 2.0), abs=1e-14
        )
        assert rows[0].kappa_bohr_sommerfeld is None

    def test_with_bohr_sommerfeld(self):
        rows = wkb_table(2.0, 2.0, 1, with_bohr_sommerfeld=True)
        assert 0.5 * rows[0].kappa_bohr_sommerfeld == pytest.approx(0.38785, abs=5e-5)
