"""Unit tests for the special-function kernel.

Oracles: mpmath for kappa and incomplete-beta values; closed forms (Euler
beta, known constants) elsewhere.
"""
import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.integrate import simpson

from kab.specfun import (
    _ABEL_PANELS,
    BIG_G_MIN,
    CONSTANTS,
    _abel_blocks,
    _check_positive,
    _gauss_nodes,
    _illinois,
    big_g,
    big_g_inverse,
    g_dispersion,
    lipatov_kappa,
    phase_integral,
)
from kab.exact import _simpson_weights, conical_legendre_grid
from tests.conftest import traced_peak

mp.mp.dps = 30

GAMMA = CONSTANTS.euler_gamma
LOG2 = CONSTANTS.log2


class TestCheckPositive:
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, 2.2e-313, 5e-324])
    def test_names_function_parameter_and_value(self, bad):
        # a denormal whose reciprocal overflows is refused with the rest
        msg = f"where: beta must be positive with a finite reciprocal, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            _check_positive("where", alpha=2.0, beta=bad)

    def test_finiteness_checked_first(self):
        with pytest.raises(ValueError, match="where: beta must be finite, got nan"):
            _check_positive("where", alpha=-1.0, beta=math.nan)

    def test_accepts_values_with_finite_reciprocal(self):
        _check_positive("where", alpha=1e-300, beta=np.array([1.0, 1e300]))


class TestIllinois:
    @pytest.mark.parametrize("root", [6931.471805599453, -6931.471805599453, -0.3, -1e10])
    def test_bracket_closes_to_one_ulp_on_either_sign(self, root):
        # a step function never meets f_tol = 0, so the bracket must close to
        # adjacent doubles; the ulp floor was once negative for negative roots,
        # which then ran out of steps
        f = lambda x, idx: np.where(x < root, -1.0, 1.0) * (1.0 + np.abs(x - root))
        a, b = np.array([root - 5.0]), np.array([root + 3.0])
        x = _illinois(f, a, b, f(a, 0), f(b, 0), 0.0, "where")
        assert abs(x[0] - root) <= 2.0 * np.spacing(abs(root))


class TestDispersion:
    def test_kappa_at_zero(self):
        assert abs(lipatov_kappa(0.0) + 4.0 * LOG2) < 1e-13

    def test_kappa_small_k_series(self):
        # I-2: kappa(k) = -4 log 2 + 14 zeta(3) k^2 - 62 zeta(5) k^4 + O(k^6)
        k = np.geomspace(1e-3, 1e-1, 25)
        series = (
            -4.0 * LOG2
            + 14.0 * CONSTANTS.zeta3 * k**2
            - 62.0 * CONSTANTS.zeta5 * k**4
        )
        # the k^6 coefficient is 254 zeta(7) ~ 256; the 1e-14 floor absorbs
        # double-precision cancellation at the smallest k
        diff = np.abs(lipatov_kappa(k) - series)
        assert np.all(diff <= 500.0 * k**6 + 1e-14)

    def test_kappa_against_mpmath(self):
        # kappa(k) = 2 Re psi(1/2 + ik) + 2 gamma_E with psi from mpmath at 30
        # digits, from k = 0 to the asymptotic regime
        k = np.concatenate(([0.0, 1e-3, 0.1], np.linspace(0.3, 50.0, 40), [200.0, 1e4]))
        ref = np.array(
            [float(2 * mp.re(mp.digamma(mp.mpc(0.5, v))) + 2 * mp.euler) for v in k]
        )
        err = np.abs(lipatov_kappa(k) - ref)
        assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_kappa_even(self, rng):
        k = rng.uniform(0.0, 10.0, 20)
        assert np.max(np.abs(lipatov_kappa(k) - lipatov_kappa(-k))) < 1e-13

    def test_kappa_minimum_at_zero(self):
        # E-5: kappa(k) >= kappa(0) on a sampled grid
        k = np.linspace(0.0, 40.0, 801)
        vals = lipatov_kappa(k)
        assert vals[0] == pytest.approx(-4.0 * LOG2, abs=1e-13)
        assert np.min(vals) >= vals[0] - 1e-13

    def test_g_relates_to_kappa(self):
        # I-3: g(k) = kappa(k/2) + 2 log 2
        k = np.linspace(0.0, 20.0, 101)
        assert np.max(np.abs(g_dispersion(k) - lipatov_kappa(k / 2) - 2 * LOG2)) < 1e-12

    def test_g_at_zero(self):
        assert abs(g_dispersion(0.0) + 2.0 * LOG2) < 1e-13


class TestBigG:
    def test_minimum(self):
        assert abs(big_g(0.0) - BIG_G_MIN) < 1e-14

    def test_inverse_round_trip(self):
        # I-4
        for y in np.linspace(BIG_G_MIN, 30.0, 40):
            assert abs(big_g(big_g_inverse(float(y))) - y) < 1e-9

    def test_inverse_vectorised(self):
        # an array gives the scalar results elementwise; a scalar gives a float
        y = np.linspace(BIG_G_MIN, 30.0, 7)
        scalars = [big_g_inverse(float(v)) for v in y]
        assert all(type(p) is float for p in scalars)
        assert np.array_equal(big_g_inverse(y), scalars)

    def test_inverse_on_2d_array(self):
        # elementwise on any shape: a (levels x nodes) block keeps its shape
        y = np.linspace(BIG_G_MIN, 30.0, 6).reshape(2, 3)
        p = big_g_inverse(y)
        assert p.shape == (2, 3)
        assert np.array_equal(p.ravel(), big_g_inverse(y.ravel()))
        assert np.array_equal(big_g_inverse(np.full((2, 3), 3.0)), np.full((2, 3), big_g_inverse(3.0)))

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (0.7, 1.9)])
    def test_inverse_residual_on_bohr_sommerfeld_inputs(self, alpha, beta, monkeypatch):
        # every G^{-1} input of the Bohr-Sommerfeld solves for the two lowest
        # levels comes back with |G(p) - y| within 4 ulp; the ulp is that of
        # |y| + 2 log 2, the size of the terms G sums, since near G = 0 they
        # cancel and no p brings the rounded G within an ulp of y itself
        import kab.semiclassics as sc

        inputs = []

        def record(y):
            inputs.append(np.array(y, dtype=float))
            return big_g_inverse(y)

        monkeypatch.setattr(sc, "big_g_inverse", record)
        for n in (0, 1):
            sc.bohr_sommerfeld_solve(n, alpha, beta)
        assert len(inputs) > 10
        y = np.concatenate(inputs)
        residual = np.abs(big_g(big_g_inverse(y)) - y)
        assert np.all(residual <= 4.0 * np.spacing(np.abs(y) + 2.0 * LOG2))

    def test_inverse_below_minimum_raises(self):
        with pytest.raises(ValueError):
            big_g_inverse(BIG_G_MIN - 1e-3)

    def test_leading_inverse_asymptotics(self):
        # G(p) ~ 2 log p for large p, so G^{-1}(y) ~ exp(y/2)
        y = 28.0
        assert abs(big_g_inverse(y) / math.exp(y / 2.0) - 1.0) < 0.01


def _mp_gauss_weight(n, x0):
    """The Gauss-Legendre weight 2 (1 - x^2)/(n P_(n-1)(x))^2 at the root of
    P_n next to the double x0, refined by Newton steps on the three-term
    recurrence at mp.dps digits (mpmath's legendre loses digits at n = 1024)."""
    x = mp.mpf(float(x0))
    for _ in range(2):
        p0, p1 = mp.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        x -= p1 * (x * x - 1) / (n * (x * p1 - p0))
    return x, 2 * (1 - x * x) / (n * p0) ** 2


class TestGaussNodes:
    @pytest.mark.parametrize("n", [16, 96, 1024])
    def test_weights_match_mpmath(self, n):
        # nodes within one ulp of 1 of the roots; weights within 4e-15 n^2
        # relative, about twice the worst seen: 1.8e-9 at the outermost of
        # 1024 nodes (weight 7e-6), where numpy's leggauss reads 1.2e-9.
        # At 1024 the outer 16 nodes and every 32nd of one half.
        x, w = _gauss_nodes(n)
        assert np.all(np.diff(x) > 0.0)
        idx = np.arange(n // 2) if n <= 96 else np.r_[0:16, 16 : n // 2 : 32]
        for i in idx:
            root, weight = _mp_gauss_weight(n, x[i])
            assert abs(float(root) - x[i]) <= 2.3e-16, i
            assert abs(float(weight) - w[i]) <= 4e-15 * n * n * float(weight), i
            # the rule is symmetric about 0
            assert x[n - 1 - i] == -x[i] and w[n - 1 - i] == w[i]

    def test_small_rules_closed_form(self):
        r70, r107 = math.sqrt(70.0), math.sqrt(10.0 / 7.0)
        rules = {
            1: ([0.0], [2.0]),
            2: ([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], [1.0, 1.0]),
            3: ([-math.sqrt(0.6), 0.0, math.sqrt(0.6)], [5 / 9, 8 / 9, 5 / 9]),
            5: (
                [-math.sqrt(5.0 + 2.0 * r107) / 3.0, -math.sqrt(5.0 - 2.0 * r107) / 3.0,
                 0.0, math.sqrt(5.0 - 2.0 * r107) / 3.0, math.sqrt(5.0 + 2.0 * r107) / 3.0],
                [(322 - 13 * r70) / 900, (322 + 13 * r70) / 900, 128 / 225,
                 (322 + 13 * r70) / 900, (322 - 13 * r70) / 900],
            ),
        }
        for n, (nodes, weights) in rules.items():
            x, w = _gauss_nodes(n)
            np.testing.assert_allclose(x, nodes, rtol=0.0, atol=2.3e-16)
            np.testing.assert_allclose(w, weights, rtol=1e-15, atol=0.0)
            if n % 2:
                # the middle node is +0.0, not a rounded cos(pi/2)
                assert x[n // 2] == 0.0 and math.copysign(1.0, x[n // 2]) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
    def test_exact_on_monomials(self, n):
        # an n-node rule integrates x^k over [-1, 1] exactly for k <= 2n - 1
        x, w = _gauss_nodes(n)
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(w @ x**k - exact) <= 4e-16 * n, k

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 96, 97, 1024, 1025])
    def test_mirror_symmetric(self, n):
        x, w = _gauss_nodes(n)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0]
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_cached_arrays_read_only(self):
        x, w = _gauss_nodes(24)
        assert _gauss_nodes(24)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("n", [2, 16, 96, 192, 1024, 4096, 8192])
    def test_newton_stops_at_rounding(self, monkeypatch, n):
        # Newton from Tricomi's guess stops once its steps reach rounding,
        # within 4 recurrence passes at every n (well short of the cap), on
        # O(n) memory: a dense n x n eigenproblem would take 8 n^2 bytes
        import kab.specfun

        passes = []
        pair = kab.specfun._legendre_pair

        def counted(n, x):
            passes.append(1)
            return pair(n, x)

        monkeypatch.setattr(kab.specfun, "_legendre_pair", counted)
        (x, w), peak = traced_peak(_gauss_nodes.__wrapped__, n)
        assert len(passes) <= 4 < kab.specfun._NEWTON_MAX_STEPS
        assert peak <= 200 * n + 4096
        assert abs(w.sum() - 2.0) <= 4e-15 * math.sqrt(n)


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 33, 64])
    def test_matches_scipy_simpson(self, n):
        # scipy is the oracle, on odd and even point counts
        x = np.linspace(0.2, 1.7, n)
        y = np.cos(3.0 * x) + x**2
        h = x[1] - x[0]
        ref = simpson(y, x=x)
        assert y @ _simpson_weights(n) * (h / 3.0) == pytest.approx(ref, rel=1e-14)


def _abel_sums(x, end, panels, g):
    """sum weight g(t) of each row of _abel_blocks, in the order of x."""
    out = np.full(x.size, np.nan)
    for rows, t, weight in _abel_blocks(x, end, panels):
        out[rows] = np.sum(weight * g(t), axis=1)
    return out


class TestAbelBlocks:
    def test_toward_zero_is_mehler_at_k_zero(self):
        # (sqrt 2/pi) integral_0^r ds/sqrt(cosh r - cosh s) = P_{-1/2}(cosh r)
        # = (2/pi) sech(r/2) K(tanh^2(r/2)), with r = 0 the kernel's limit;
        # two panels, the count the conical rule takes at k = 0
        r = np.array([0.0, 1e-3, 0.5, 3.0, 30.0, 60.0, 700.0])
        got = math.sqrt(2.0) / math.pi * _abel_sums(r, 0.0, 2, np.ones_like)
        sech = 1.0 / np.cosh(0.5 * r)
        want = (2.0 / math.pi) * sech * special.ellipkm1(sech * sech)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_toward_s_closed_form(self):
        # integral_x^S sinh t dt/sqrt(cosh t - cosh x) = 2 sqrt(cosh S - cosh x)
        x = np.array([0.0, 0.3, 5.0, 59.0])
        got = _abel_sums(x, 60.0, _ABEL_PANELS, np.sinh)
        want = 2.0 * np.sqrt(np.cosh(60.0) - np.cosh(x))
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_rows_grouped_by_panels_and_blocked(self, monkeypatch):
        # rows with equal panel counts come together, each block within
        # _BLOCK_CELLS/cells nodes; every row comes once, with its own count
        import kab.specfun

        monkeypatch.setattr(kab.specfun, "_BLOCK_CELLS", 300)
        x = np.array([2.0, 0.0, 1.0, 3.0, 0.5])
        panels = np.array([1, 3, 1, 2, 3])
        seen = []
        for rows, t, weight in _abel_blocks(x, 0.0, panels, cells=2):
            assert t.shape == weight.shape
            if np.all(x[rows] == 0.0):
                assert t.shape[1] == 1
            else:
                assert len(set(panels[rows])) == 1
                assert t.shape[1] == 32 * panels[rows[0]] and t.size <= 150
            seen.extend(rows)
        assert sorted(seen) == list(range(x.size))


class TestConicalLegendre:
    def test_at_one(self):
        # P_{-1/2+ik}(cosh 0) = 1 exactly: the r = 0 row is an empty quadrature
        assert conical_legendre_grid([1.3], [0.0])[0, 0] == 1.0


class TestPhaseIntegral:
    def test_full_line_beta_closed_form(self):
        # I-6: value at u = +inf equals exp(kappa'/2) 2^((a+b)/2-1) B(a/2, b/2)
        for a, b in [(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (0.5, 3.0)]:
            exact = 2.0 ** ((a + b) / 2.0 - 1.0) * math.exp(
                math.lgamma(a / 2) + math.lgamma(b / 2) - math.lgamma((a + b) / 2)
            )
            assert abs(phase_integral(math.inf, a, b, 0.0) - exact) < 1e-10

    def test_gudermannian_one_one(self):
        # for (1,1) the phase is 2 arctan(e^u): d Phi/du = sech u and
        # Phi(0) = pi/2 fixes the antiderivative
        for u in (-2.0, 0.0, 1.5):
            assert phase_integral(u, 1.0, 1.0, 0.0) == pytest.approx(
                2.0 * math.atan(math.exp(u)), abs=1e-10
            )

    def test_linear_two_two(self):
        # for (2,2) the integrand is constant in x = tanh u
        for u in (-1.0, 0.3, 4.0):
            assert phase_integral(u, 2.0, 2.0, 0.0) == pytest.approx(
                math.tanh(u) + 1.0, abs=1e-12
            )

    def test_deep_left_tail_matches_mpmath(self):
        # at u = -15 the phase is ~1e-13 and 1 + tanh u cancels badly
        for a, b in [(1.0, 1.0), (2.0, 2.0), (3.0, 0.7)]:
            x = (1 + mp.tanh(-15)) / 2
            ref = 2 ** (mp.mpf(a + b) / 2 - 1) * mp.betainc(a / 2, b / 2, 0, x)
            assert phase_integral(-15.0, a, b, 0.0) == pytest.approx(
                float(ref), rel=1e-12
            )

    def test_vectorised_in_u(self):
        u = np.array([-np.inf, -15.0, -1.0, 0.0, 2.5, np.inf])
        vals = phase_integral(u, 3.0, 0.7, 0.4)
        assert np.array_equal(vals, [phase_integral(v, 3.0, 0.7, 0.4) for v in u])

    def test_kappa_prime_prefactor(self):
        assert phase_integral(1.0, 2.0, 2.0, 3.0) == pytest.approx(
            math.exp(1.5) * phase_integral(1.0, 2.0, 2.0, 0.0), rel=1e-12
        )

    def test_minus_infinity_is_zero(self):
        assert phase_integral(-math.inf, 1.0, 1.0, 0.0) == 0.0
        assert phase_integral(-800.0, 1.0, 1.0, 0.0) == 0.0

    def test_alpha_nonpositive_raises(self):
        with pytest.raises(ValueError):
            phase_integral(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            phase_integral(0.0, 1.0, -1.0, 0.0)
