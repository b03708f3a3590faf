"""Unit tests for exact eigenfunctions, commuting operators and the
Mehler-Fock transform.

Oracles: mpmath for the conical Legendre grid, closed-form tridiagonal
coefficients of L, finite-difference application of the differential
operators against their exact polynomial action, plane waves under the
Schroedinger map, and transform round trips.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from kab.exact import (
    MehlerFockCoeffs,
    apply_L,
    apply_L_legendre,
    apply_ell,
    conical_legendre_grid,
    hyperbolic_similarity_check,
    k00_eigenfunction,
    mehler_fock_forward,
    mehler_fock_inverse,
    mm_commutator_projections,
    mm_eigenfunction,
    mm_k01_residual,
    verify_g_of_ell,
)
from kab.specfun import lipatov_kappa


class TestDiffOperatorL:
    def test_tridiagonal_action(self):
        # L P_n has only the P_{n-1}, P_n, P_{n+1} components, with the
        # closed forms A_n = -(n+1)^3/(2n+1) and C_{n-1} = -n^3/(2n+1)
        for n in range(1, 10):
            c = np.zeros(n + 1)
            c[n] = 1.0
            lc = apply_L_legendre(c)
            assert lc.size <= n + 2
            assert abs(lc[n + 1] + (n + 1.0) ** 3 / (2.0 * n + 1.0)) < 1e-12
            assert abs(lc[n - 1] + n**3 / (2.0 * n + 1.0)) < 1e-12
            if n >= 2:
                assert np.max(np.abs(lc[: n - 1])) < 1e-12

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
    def test_eigenrelation_on_continuum_modes(self, k):
        # Section 3: L phi(k) = (-1/2 - 2k^2) phi(k) for the K_01 eigenfunctions
        # phi(k, x) = mm_eigenfunction(k, (1 + x)/2), so L and K_01 share them
        phi = lambda x: mm_eigenfunction(k, 0.5 * (1.0 + x))
        lam = -0.5 - 2.0 * k * k
        for x in (-0.5, 0.0, 0.5):
            assert apply_L(phi, x) == pytest.approx(lam * phi(x), rel=1e-7)

    def test_fd_matches_polynomial_action(self, rng):
        c = rng.normal(size=5)
        phi = lambda x: npleg.legval(x, c)
        lc = apply_L_legendre(c)
        for x in (-0.6, 0.1, 0.8):
            assert apply_L(phi, x) == pytest.approx(
                float(npleg.legval(x, lc)), abs=1e-7
            )


class TestCommutator:
    def test_commutator_identities(self):
        # the P_{n+1} projection of [L, M] P_n is R_n - 2 A_n/(n+1) and the
        # P_{n-1} projection is 2 C_{n-1}/n + S_{n-1}; both vanish identically
        for n in range(1, 13):
            up, down = mm_commutator_projections(n)
            assert abs(up) < 1e-10
            assert abs(down) < 1e-10


class TestMMEigenfunction:
    def test_value_is_conical_over_xi(self):
        for k, xi in [(0.5, 0.3), (1.0, 0.9), (2.0, 0.05)]:
            ref = conical_legendre_grid([k], [math.acosh(2.0 / xi - 1.0)])[0, 0] / xi
            assert mm_eigenfunction(k, xi) == pytest.approx(ref, rel=1e-10)

    def test_value_independent_of_batch(self):
        # 70 points out to t ~ 400, across several panel counts of the rule
        xi = np.geomspace(5e-3, 1.0, 70)
        one_by_one = [mm_eigenfunction(2.0, float(x)) for x in xi]
        assert np.array_equal(mm_eigenfunction(2.0, xi), one_by_one)

    def test_domain(self):
        with pytest.raises(ValueError):
            mm_eigenfunction(1.0, 0.0)
        with pytest.raises(ValueError):
            mm_eigenfunction(1.0, 1.5)

    def test_eigenvalue_residual(self):
        # the eigenvalue relation K_01 phi = (kappa(k) + log 2) phi
        x = np.array([-0.5, 0.0, 0.5])
        for k in (0.5, 1.0, 2.0):
            assert np.max(mm_k01_residual(k, x)) < 1e-5

    def test_residual_domain(self):
        with pytest.raises(ValueError):
            mm_k01_residual(1.0, [0.99])


class TestK00Eigenfunction:
    def test_modulus(self, rng):
        x = rng.uniform(-0.95, 0.95, 20)
        v = k00_eigenfunction(1.3, x)
        assert np.max(np.abs(np.abs(v) ** 2 - 1.0 / (1.0 - x**2))) < 1e-12

    def test_ell_eigenrelation(self):
        # ell phi = k phi, both operator forms
        k = 0.8
        phi = lambda x: k00_eigenfunction(k, x)
        for form in ("direct", "factored"):
            for x in (-0.4, 0.2, 0.6):
                lv = apply_ell(phi, x, form=form)
                assert abs(lv - k * phi(x)) < 1e-6

    def test_g_of_ell(self, rng):
        # K_00 acts as g(ell); packet with endpoint decay
        c = rng.normal(size=4)
        phi = lambda x: (1.0 - np.asarray(x) ** 2) * npleg.legval(x, c)
        res = verify_g_of_ell(phi, np.array([-0.5, 0.0, 0.4]))
        assert res < 1e-5

    def test_g_of_ell_rejects_nondecaying(self):
        with pytest.raises(ValueError):
            verify_g_of_ell(lambda x: np.ones_like(np.asarray(x, float)), [0.0])


@pytest.mark.parametrize(
    "fn,args,named",
    [
        (mm_eigenfunction, (1.0,), r"mm_eigenfunction: xi must lie in \(0, 1\]"),
        (k00_eigenfunction, (1.0,), r"k00_eigenfunction: x must lie in \(-1, 1\)"),
        (mm_k01_residual, (1.0,), r"mm_k01_residual: x_points must lie in"),
        (verify_g_of_ell, (lambda x: 1.0 - np.asarray(x) ** 2,),
         r"verify_g_of_ell: x_grid must lie inside \(-1, 1\)"),
        (hyperbolic_similarity_check, (1.0,), r"hyperbolic_similarity_check: r_grid must"),
    ],
)
@pytest.mark.parametrize("point", [[0.5, math.nan], math.nan])
def test_nan_point_refused_by_name(fn, args, named, point):
    # a NaN passes every range test written as "any value out of range",
    # and then failed, or returned nan, further down
    with pytest.raises(ValueError, match=named):
        fn(*args, point)


_SMALL_COEFFS = MehlerFockCoeffs(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]), 10.0)


@pytest.mark.parametrize(
    "fn,args,named",
    [
        (k00_eigenfunction, (math.nan, [0.5]), r"k00_eigenfunction: k must be finite"),
        (k00_eigenfunction, (math.inf, [0.5]), r"k00_eigenfunction: k must be finite"),
        (mm_eigenfunction, (math.inf, [0.5]), r"mm_eigenfunction: k must be finite"),
        (mm_k01_residual, (math.nan, [0.5]), r"mm_k01_residual: k must be finite"),
        (hyperbolic_similarity_check, (math.nan, [1.0]),
         r"hyperbolic_similarity_check: k must be finite"),
        (hyperbolic_similarity_check, (1.0, [800.0]), r"hyperbolic_similarity_check: r_grid"),
        (hyperbolic_similarity_check, (1.0, [710.475]), r"hyperbolic_similarity_check: r_grid"),
        (mm_eigenfunction, (1.0, [1e-320]), r"mm_eigenfunction: xi=1e-320"),
        (mm_eigenfunction, (1.0, 1e-309), r"mm_eigenfunction: xi=1e-309"),
        (mehler_fock_inverse, (_SMALL_COEFFS, [0.5, 1e-320]), r"mehler_fock_inverse: xi=1e-320"),
        (mm_eigenfunction, (1e6, [1e-300]), r"^mm_eigenfunction: k \* r = .* panels"),
        (mm_k01_residual, (1e5, [0.5]), r"^mm_k01_residual: k \* r = .* panels"),
        (hyperbolic_similarity_check, (1e6, [700.0]),
         r"^hyperbolic_similarity_check: k \* r = .* panels"),
    ],
)
def test_k_and_far_end_refused_by_name(fn, args, named):
    # a non-finite k, a point whose radius r passes acosh of the largest
    # double, or a k r past the conical rule's panel cap at the farthest
    # radius handed on (for mm_k01_residual, apply_k_pointwise's last node)
    # is refused by the function called, with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            fn(*args)


def test_smallest_xi_accepted():
    # xi = 1.2e-308 has r = 709.8, inside the domain of the conical rule
    xi = 1.2e-308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mm_eigenfunction(1.0, xi)
    want = conical_legendre_grid([1.0], [math.acosh(2.0 / xi - 1.0)])[0, 0] / xi
    assert got == pytest.approx(want, rel=1e-15)


class TestMehlerFock:
    def test_round_trip(self):
        # forward then inverse on a smooth compact profile
        u = lambda xi: xi**2 * (1.0 - xi)
        coeffs = mehler_fock_forward(u, k_max=40.0, dk=0.05)
        xi = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = mehler_fock_inverse(coeffs, xi)
        assert np.max(np.abs(back - u(xi))) < 1e-4

    @pytest.mark.parametrize("k_max,dk", [(40.0, 0.05), (20.0, 0.05), (40.0, 0.025), (60.0, 0.05)])
    def test_round_trip_at_rounding(self, k_max, dk):
        # A-7's round trip at rounding level on four k-grids; the s-spacing
        # follows k_max (a fixed ds = 3/16 aliases to an error of 23 at
        # k_max = 40)
        u = lambda xi: xi**2 * (1.0 - xi)
        coeffs = mehler_fock_forward(u, k_max=k_max, dk=dk)
        xi = np.linspace(0.05, 1.0, 39)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = mehler_fock_inverse(coeffs, xi)
        assert np.max(np.abs(back - u(xi))) <= 1e-12

    def test_blocked_matches_single_block(self, monkeypatch):
        # the Abel integrals, the cosine sums and the conical rows are formed
        # a block of _BLOCK_CELLS cells at a time; a tiny block must give the
        # default's coefficients, inverse and spectral step bit for bit (the
        # spectral step's plan is built afresh in each run)
        import kab.evolution
        import kab.exact
        import kab.specfun

        u = lambda xi: xi**2 * (1.0 - xi)
        xi = np.concatenate((np.geomspace(1e-6, 1.0, 40), [0.5, 1.0]))
        state = kab.evolution.EvolutionState(
            0.0, kab.evolution.default_xi_grid(96), u(kab.evolution.default_xi_grid(96))
        )

        def run():
            coeffs = mehler_fock_forward(u, k_max=5.0, dk=0.25)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # this k-grid is coarse for small xi
                back = mehler_fock_inverse(coeffs, xi)
            grid = conical_legendre_grid([0.0, 2.0, 5.0], [0.0, 0.5, 3.0, 9.0])
            kab.evolution._abel_plan.cache_clear()
            return coeffs, back, grid, kab.evolution.evolve_spectral(state, 1.0).u_values

        whole = run()
        for module in (kab.exact, kab.specfun, kab.evolution):
            monkeypatch.setattr(module, "_BLOCK_CELLS", 500)
        blocked = run()
        assert np.array_equal(blocked[0].c, whole[0].c)
        assert blocked[0].meta == whole[0].meta
        for got, want in zip(blocked[1:], whole[1:]):
            assert np.array_equal(got, want)

    def test_profile_called_once_on_array(self):
        calls = []

        def u(xi):
            calls.append(np.shape(xi))
            return xi**2 * (1.0 - xi)

        mehler_fock_forward(u, k_max=5.0, dk=0.25)
        assert len(calls) == 1 and len(calls[0]) == 1

    def test_matches_mpmath_on_half_line(self):
        # the defining integral in r = acosh t up to S = 60, by mpmath
        # quadrature at k = 1 and 4; the estimate must bound the error
        u = lambda xi: xi**2 * (1.0 - xi)
        coeffs = mehler_fock_forward(u, k_max=5.0, dk=0.25)
        ref = []
        for k in (1.0, 4.0):
            def f(r):
                xi = 2 / (1 + mp.cosh(r))
                p = mp.legenp(-0.5 + 1j * k, 0, mp.cosh(r), type=3)
                return u(xi) * mp.sinh(r) * mp.re(p)

            with mp.workdps(15):
                ref.append(k * math.tanh(math.pi * k) * float(mp.quad(f, [0, 3, 60])))
        err = np.max(np.abs(coeffs.c[[4, 16]] - ref))
        assert err <= 1e-13 * np.max(np.abs(coeffs.c))
        assert coeffs.meta["r_quadrature_estimate"] >= err

    def test_slow_decay_raises(self):
        # u ~ const near xi = 0 maps to a non-decaying integrand
        with pytest.raises(RuntimeError):
            mehler_fock_forward(lambda xi: 1.0 - xi)

    def test_non_finite_profile_raises(self):
        # one NaN sample spreads over every c(k); it is refused, not returned
        def u(xi):
            out = xi**2 * (1.0 - xi)
            out[0] = math.nan
            return out

        with pytest.raises(RuntimeError, match="mehler_fock_forward: .* not finite"):
            mehler_fock_forward(u, k_max=5.0, dk=0.25)

    @pytest.mark.parametrize(
        "k_max,dk", [(40.0, 0.0), (40.0, math.nan), (math.inf, 0.05)]
    )
    def test_invalid_k_grid_raises(self, k_max, dk):
        with pytest.raises(ValueError):
            mehler_fock_forward(lambda xi: xi**2 * (1.0 - xi), k_max=k_max, dk=dk)

    @pytest.mark.parametrize(
        "k_max,dk,match", [(1e6, 0.05, "k_max/dk = 20000000 "), (1e4, 1.0, "s-nodes")]
    )
    def test_oversized_grid_raises_before_work(self, k_max, dk, match):
        # 2e7 wavenumbers, or 1e4 wavenumbers whose s-grid needs 191 369
        # nodes: both are refused before the profile is sampled
        def u(xi):
            raise AssertionError("sampled")

        with pytest.raises(ValueError, match=match):
            mehler_fock_forward(u, k_max=k_max, dk=dk)

    @pytest.mark.parametrize(
        "k_max,dk", [(40.0, 0.05), (5.0, 0.25), (40.0, 0.8), (4.0, 1.0)]
    )
    def test_k_grid_keeps_dk(self, k_max, dk):
        coeffs = mehler_fock_forward(lambda xi: xi**2 * (1.0 - xi), k_max=k_max, dk=dk)
        assert coeffs.k_grid[-1] == k_max
        assert np.max(np.abs(np.diff(coeffs.k_grid) - dk)) <= 1e-12 * k_max

    @pytest.mark.parametrize("k_max,dk", [(1.0, 0.6), (40.0, 0.051), (0.5, 1.0)])
    def test_k_grid_other_spacing_raises(self, k_max, dk):
        # round(k_max/dk) + 1 points would space the grid by k_max/round(...)
        # instead of dk; that is refused before the profile is sampled
        def u(xi):
            raise AssertionError("sampled")

        with pytest.raises(ValueError, match="whole number"):
            mehler_fock_forward(u, k_max=k_max, dk=dk)

    def test_coeffs_validation(self):
        with pytest.raises(ValueError):
            MehlerFockCoeffs(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1e4)
        with pytest.raises(ValueError):
            MehlerFockCoeffs(
                np.array([0.0, 2.0, 1.0]), np.zeros(3), 1e4
            )
        # the inverse's Simpson rule assumes one k spacing
        with pytest.raises(ValueError, match="uniform"):
            MehlerFockCoeffs(np.array([0.0, 0.5, 1.0, 2.0]), np.zeros(4), 1e4)
        # a NaN in c passed the inverse's half-grid check and came back as
        # nan; an infinite k fed the spacing test NaNs
        for k_grid, c, t_max, name in [
            ([0.0, 1.0, 2.0], [0.0, math.nan, 0.0], 10.0, "c"),
            ([0.0, 1.0, 2.0], [0.0, math.inf, 0.0], 10.0, "c"),
            ([0.0, 1.0, math.inf], [0.0, 0.0, 0.0], 10.0, "k_grid"),
            ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], math.nan, "t_max"),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"MehlerFockCoeffs: {name} must be finite"):
                    MehlerFockCoeffs(k_grid, c, t_max)

    def test_coeffs_accept_printed_grid(self):
        # a grid written with 10 significant digits, as the CLI's CSV does,
        # reads back as uniform
        k = np.linspace(0.0, 40.0, 1101)
        printed = np.array([float(f"{v:.10g}") for v in k])
        coeffs = MehlerFockCoeffs(printed, np.zeros_like(k), 1e4)
        assert coeffs.k_grid.size == 1101

    @pytest.mark.parametrize("xi", [[0.5, math.nan], math.nan])
    def test_inverse_nan_xi_raises(self, xi):
        coeffs = mehler_fock_forward(lambda t: t**2 * (1.0 - t), k_max=5.0, dk=0.25)
        with pytest.raises(ValueError, match=r"xi must lie in \(0, 1\]"):
            mehler_fock_inverse(coeffs, xi)

    def test_underresolved_warns(self):
        u = lambda xi: xi**2 * (1.0 - xi)
        coeffs = mehler_fock_forward(u, k_max=40.0, dk=0.8)
        with pytest.warns(RuntimeWarning):
            mehler_fock_inverse(coeffs, 0.5)

    def test_serialization(self):
        c = MehlerFockCoeffs(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]), 10.0)
        d = c.to_json_dict()
        assert d["k"] == [0.0, 0.5, 1.0]
        assert c.to_csv_rows()[1] == (0.5, 2.0)


class TestConicalLegendreGrid:
    def test_matches_mpmath(self):
        # within 1e-12 of the envelope min(1, 1/sqrt(sinh r)); at large k r
        # the rounding of r to a double alone moves P by ~eps k r of it
        # (6e-12 at k = 40, t = 1e300), which the bound admits twice over.
        # The repeated radius must land on its own row.  Near acosh of the
        # largest double, 2 sinh r overflows: the root is formed without it
        k = np.array([0.0, 0.5, 3.0, 15.0, 40.0])
        r = np.array([0.0, 0.1, 0.2, 0.7, 3.0, 3.0, 6.5, 9.9, 30.0, math.acosh(1e300),
                      709.9, 710.4])
        grid = conical_legendre_grid(k, r)
        with mp.workdps(30):
            ref = np.array(
                [
                    [
                        float(mp.legenp(-0.5 + 1j * kk, 0, mp.cosh(rr), type=3).real)
                        for kk in k
                    ]
                    for rr in r
                ]
            )
        envelope = 1.0 / np.sqrt(np.maximum(np.sinh(r), 1.0))[:, None]
        tol = (1e-12 + 2.0 * np.finfo(float).eps * np.outer(r, k)) * envelope
        assert np.all(np.abs(grid - ref) <= tol)
        assert np.array_equal(grid[4], grid[5])
        assert np.all(grid[0] == 1.0)

    def test_permuted_radii_give_permuted_rows(self, rng):
        # each radius is its own quadrature: rows come in the caller's order
        k = np.array([0.0, 0.7, 12.0])
        r = np.array([0.0, 0.05, 0.2, 0.2, 1.3, 4.0, 7.5, 13.0])
        perm = rng.permutation(r.size)
        grid = conical_legendre_grid(k, r)
        assert np.array_equal(conical_legendre_grid(k, r[perm]), grid[perm])

    def test_oversized_rule_raises(self):
        # k r = 1e7 would take 468 752 panels
        with pytest.raises(ValueError, match="468752 quadrature panels"):
            conical_legendre_grid([1e5], [100.0])

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf, 711.0])
    def test_radius_outside_domain_raises(self, r):
        with pytest.raises(ValueError, match="r lie"):
            conical_legendre_grid([1.0], [r])


class TestHyperbolicSimilarity:
    @given(k=st.floats(0.1, 3.0))
    @settings(max_examples=10, deadline=None)
    def test_radial_equation(self, k):
        # (Delta_r + 1/4 + k^2) P_{-1/2+ik}(cosh r) = 0
        res = hyperbolic_similarity_check(k, np.array([0.5, 1.5, 3.0]))
        assert res < 1e-5

    def test_small_r_raises(self):
        with pytest.raises(ValueError):
            hyperbolic_similarity_check(1.0, [1e-4])
