"""Unit tests for the WKB layer.

Oracles: the printed reference table, closed-form reductions of the WKB
formula, synthetic power-law data for the boundary-exponent fit, and the
Bessel form of the linear-potential solution at beta = 1.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from kab.semiclassics import (
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
from kab.specfun import CONSTANTS
from tests.conftest import printed_tolerance

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
        with pytest.raises(ValueError):
            bohr_sommerfeld_solve(0, 2.0, -1.0)


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
        slope = fit_boundary_exponent(None, phi, 2.0, 0.0, log_one_minus_x=lg)
        assert abs(slope + 0.5) < 1e-3

    def test_fit_window_guard(self):
        with pytest.raises(ValueError):
            fit_boundary_exponent(
                np.array([0.5, 0.6]), np.array([1.0, 1.0]), 2.0
            )

    def test_fit_rejects_rounded_x(self):
        x = np.ones(50)
        with pytest.raises(ValueError):
            fit_boundary_exponent(x, np.ones(50), 2.0)


class TestLinearPotential:
    def test_beta_one_bessel_form(self):
        # the decaying solution at beta = 1 is proportional to y J0(2y),
        # y = exp(-u + kappa'/2)
        kp = 0.6
        u = np.array([0.3, 0.8, 1.3, 2.0, 3.0])
        vals = linear_potential_solution(1.0, kp, u)
        y = np.exp(-u + 0.5 * kp)
        ref = y * j0(2.0 * y)
        scale = vals[0] / ref[0]
        assert np.max(np.abs(vals - scale * ref)) < 1e-5

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

    def test_convergence_guard(self):
        with pytest.raises(RuntimeError):
            linear_potential_solution(1.0, 0.0, 0.5, p_max=3.0, dp=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_potential_solution(0.0, 0.0, 0.5)

    def test_taper_failure_names_u(self):
        # at kappa' = 0.3 the beta = 2 integral does not converge at the
        # default p_max left of the turning region; the error says where
        with pytest.raises(RuntimeError, match=r"worst at u = 0\b"):
            linear_potential_solution(2.0, 0.3, 0.0)
        with pytest.raises(RuntimeError) as info:
            linear_potential_solution(2.0, 0.3, np.array([-1.0, 0.0, 5.0]))
        assert "at u = [-1, 0]," in str(info.value)


class TestWkbTable:
    def test_rows(self, table1):
        rows = wkb_table(2.0, 2.0, 3, reference=[float(v) for v in table1["numeric_22"][:3]])
        assert [r.n for r in rows] == [0, 1, 2]
        assert rows[1].kappa_closed_form == pytest.approx(
            wkb_eigenvalue(1, 2.0, 2.0), abs=1e-14
        )
        assert rows[2].reference == pytest.approx(1.9409, abs=1e-12)
        assert rows[0].kappa_bohr_sommerfeld is None

    def test_with_bohr_sommerfeld(self):
        rows = wkb_table(2.0, 2.0, 1, with_bohr_sommerfeld=True)
        assert 0.5 * rows[0].kappa_bohr_sommerfeld == pytest.approx(0.38785, abs=5e-5)
