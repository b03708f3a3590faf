"""Unit tests for the operator assembly module.

Oracles: exact harmonic-number spectrum of K_{11} on Legendre polynomials,
closed-form monomial action, quadrature evaluation of log-potential matrix
elements, plane waves for the kinetic multiplier, and a dense circulant
eigensolve for the matrix-free pseudospectral solve.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy import integrate, linalg, special

from kab import operators
from kab.operators import (
    OperatorParams,
    UGrid,
    apply_k_pointwise,
    galerkin_matrix,
    galerkin_spectrum,
    harmonic,
    harmonic_numbers,
    monomial_action_k11,
    potential_v,
    project,
    pseudospectral_eigensystem,
    pseudospectral_matrix,
    pseudospectral_spectrum,
    synthesize,
)
from kab.exact import mm_eigenfunction
from kab.specfun import CONSTANTS, big_g, lipatov_kappa

LOG2 = CONSTANTS.log2


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            OperatorParams(-0.5, 1.0)
        with pytest.raises(ValueError):
            OperatorParams(1.0, float("nan"))

    def test_discrete_spectrum_flag(self):
        assert OperatorParams(2.0, 2.0).discrete_spectrum
        assert OperatorParams(1.0, 1.0).discrete_spectrum
        assert not OperatorParams(0.0, 1.0).discrete_spectrum

    def test_ugrid_validation(self):
        with pytest.raises(ValueError):
            UGrid(10.0, 100)  # not a power of two
        with pytest.raises(ValueError):
            UGrid(10.0, 2**17)  # above the 2^16 bound
        g = UGrid(10.0, 128)
        assert g.nodes.size == 128
        assert g.frequencies.size == 128


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(11.0 / 6.0, abs=1e-15)

    @given(n=st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, n):
        assert harmonic(n) == pytest.approx(harmonic(n - 1) + 1.0 / n, abs=1e-14)

    def test_running_sum_matches_scalar(self):
        # the running sum behind the Galerkin diagonal against the fsum
        # reference, at A-3's 1e-12; its rounding grows like n eps h_n at worst
        assert harmonic_numbers(1).tolist() == [0.0]
        n = 2048
        ref = np.array([harmonic(k) for k in range(n)])
        assert np.max(np.abs(harmonic_numbers(n) - ref)) < 1e-12


class TestMonomialAction:
    def test_upper_triangular_with_harmonic_diagonal(self):
        # O-1: matrix in the monomial basis is upper triangular, diag = 2 h_n
        n_max = 20
        mat = np.zeros((n_max, n_max))
        for n in range(n_max):
            mat[: n + 1, n] = monomial_action_k11(n)
        assert np.max(np.abs(np.tril(mat, -1))) == 0.0
        for n in range(n_max):
            assert mat[n, n] == pytest.approx(2.0 * harmonic(n), abs=1e-13)

    def test_eigenvectors_are_legendre(self):
        # O-1: the eigenvector for 2 h_n reproduces the coefficients of P_n
        n_max = 14
        mat = np.zeros((n_max, n_max))
        for n in range(n_max):
            mat[: n + 1, n] = monomial_action_k11(n)
        for n in range(n_max):
            null = mat - 2.0 * harmonic(n) * np.eye(n_max)
            _, _, vt = np.linalg.svd(null)
            v = vt[-1]
            pn = np.zeros(n_max)
            pn[: n + 1] = npleg.leg2poly([0.0] * n + [1.0])
            v = v / v[n] * pn[n]
            assert np.max(np.abs(v - pn)) < 1e-10

    def test_action_on_x(self):
        # K_11 x = 2 x (h_1 = 1, no subdiagonal term for n = 1)
        assert np.allclose(monomial_action_k11(1), [0.0, 2.0])


def _log_quadrature_entry(m: int, n: int, sign: int) -> float:
    """<Phat_m, log(1 + sign*x) Phat_n> by adaptive quadrature."""
    norm = math.sqrt((m + 0.5) * (n + 0.5))
    cm = np.zeros(m + 1)
    cm[m] = 1.0
    cn = np.zeros(n + 1)
    cn[n] = 1.0

    def f(x):
        return npleg.legval(sign * x, cm) * npleg.legval(sign * x, cn)

    # 'alg-loga' weight is (x+1)^0 (1-x)^0 log(x+1); x -> sign*x maps the
    # log(1-x) case onto the same form.
    val, _ = integrate.quad(
        f, -1.0, 1.0, weight="alg-loga", wvar=(0.0, 0.0), limit=200
    )
    return norm * val


def log_matrix(sign, n):
    """Matrix of multiplication by log(1 + sign*x), read off the Galerkin
    matrix of K_{01} (sign +1) or K_{10} (sign -1) less its diagonal 2 h_n."""
    params = OperatorParams(0.0, 1.0) if sign == 1 else OperatorParams(1.0, 0.0)
    return galerkin_matrix(params, n) - np.diag(2.0 * harmonic_numbers(n))


class TestLogMatrix:
    def test_exact_vs_quadrature(self):
        n = 10
        exact = log_matrix(+1, n)
        quad = np.empty((n, n))
        for m in range(n):
            for k in range(m, n):
                quad[m, k] = quad[k, m] = _log_quadrature_entry(m, k, +1)
        assert np.max(np.abs(exact - quad)) < 1e-9

    def test_parity_relation(self):
        # log(1-x) matrix = D log(1+x) matrix D with D = diag((-1)^n)
        n = 24
        d = np.diag((-1.0) ** np.arange(n))
        lp = log_matrix(+1, n)
        lm = log_matrix(-1, n)
        assert np.max(np.abs(lm - d @ lp @ d)) < 1e-13

    def test_corner_entry(self):
        # <Phat_0, log(1+x) Phat_0> = (1/2) int log(1+x) dx = log 2 - 1
        lp = log_matrix(+1, 4)
        assert lp[0, 0] == pytest.approx(LOG2 - 1.0, abs=1e-13)


class TestGalerkin:
    def test_k11_diagonal_harmonic(self):
        # A-3: the (1,1) matrix is diagonal with entries 2 h_n
        mat = galerkin_matrix(OperatorParams(1.0, 1.0), 64)
        target = np.diag([2.0 * harmonic(n) for n in range(64)])
        assert np.max(np.abs(mat - target)) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(0.7, 1.9), (0.0, 1.0), (2.0, 2.0)])
    @pytest.mark.parametrize("n", [96, 97])
    def test_leading_block_of_double_size(self, alpha, beta, n):
        # the N and 2N truncations share one assembly: the size-N matrix is
        # the leading block of the size-2N one, bit for bit
        p = OperatorParams(alpha, beta)
        small = galerkin_matrix(p, n)
        big = galerkin_matrix(p, 2 * n)
        assert np.array_equal(big[:n, :n], small)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.7, 1.9), (2.9, 0.6), (1.0, 2.0), (2.0, 1.0), (0.0, 1.0)]
    )
    def test_log_weights(self, alpha, beta):
        # the log terms carry the weights (1 - alpha) and (1 - beta)
        n = 64
        mat = galerkin_matrix(OperatorParams(alpha, beta), n)
        if (alpha, beta) == (0.0, 1.0):
            # L+ is read off this matrix, so the weight 1 - alpha is checked
            # through a build at another weight: (1, 1) has no log terms and
            # (1/2, 1) carries half of L+
            one_one = galerkin_matrix(OperatorParams(1.0, 1.0), n)
            ref = 2.0 * galerkin_matrix(OperatorParams(0.5, 1.0), n) - one_one
        else:
            ref = (
                (1.0 - alpha) * log_matrix(+1, n)
                + (1.0 - beta) * log_matrix(-1, n)
                + np.diag(2.0 * harmonic_numbers(n))
            )
        assert np.max(np.abs(mat - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_size_bounds_name_argument(self):
        with pytest.raises(ValueError, match="n_trunc=8193"):
            galerkin_matrix(OperatorParams(2.0, 2.0), 8193)
        with pytest.raises(ValueError, match="n_trunc=0"):
            galerkin_matrix(OperatorParams(2.0, 2.0), 0)
        for n_eigs in (0, 33):
            with pytest.raises(ValueError, match=f"n_eigs={n_eigs}"):
                galerkin_spectrum(2.0, 2.0, n_eigs, 32)

    def test_symmetry(self):
        mat = galerkin_matrix(OperatorParams(0.5, 2.5), 48)
        assert np.max(np.abs(mat - mat.T)) < 1e-13

    @given(
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_conjugation(self, alpha, beta):
        # O-2: D K_{alpha beta} D = K_{beta alpha}, D = diag((-1)^n)
        n = 32
        d = np.diag((-1.0) ** np.arange(n))
        m_ab = galerkin_matrix(OperatorParams(alpha, beta), n)
        m_ba = galerkin_matrix(OperatorParams(beta, alpha), n)
        assert np.max(np.abs(d @ m_ab @ d - m_ba)) < 1e-10

    def test_parity_spectra_coincide(self):
        e_ab, _ = galerkin_spectrum(1.0, 2.0, 6, 256)
        e_ba, _ = galerkin_spectrum(2.0, 1.0, 6, 256)
        assert np.max(np.abs(np.array(e_ab) - np.array(e_ba))) < 1e-10


class TestGalerkinSpectrum:
    @pytest.mark.parametrize("n_trunc", [1024, 2048])
    def test_k11_lowest_state_found(self, n_trunc):
        # the (1,1) matrix is diag(2 h_n), whose lowest eigenvalue is exactly 0;
        # unshifted Lanczos misses it while every pair it returns converges
        vals, est = galerkin_spectrum.__wrapped__(1.0, 1.0, 10, n_trunc)
        assert np.max(np.abs(np.array(vals) - 2.0 * harmonic_numbers(10))) < 1e-12
        assert max(est) < 1e-12

    def test_interlacing_guard_catches_missed_state(self, monkeypatch):
        # an eigensolver that drops the lowest pair passes the residual gate;
        # Cauchy interlacing against the dense size-N solve catches it
        real_eigsh = operators.eigsh

        def drop_lowest(op, k, **kwargs):
            vals, vecs = real_eigsh(op, k=k + 1, **kwargs)
            order = np.argsort(vals)
            return vals[order][1:], vecs[:, order][:, 1:]

        monkeypatch.setattr(operators, "eigsh", drop_lowest)
        with pytest.raises(RuntimeError, match=r"alpha=0\.7, beta=1\.9, N=64"):
            galerkin_spectrum.__wrapped__(0.7, 1.9, 6, 64)

    @pytest.mark.parametrize(
        "alpha,beta,n_eigs,n_trunc", [(0.7, 1.9, 32, 32), (2.0, 2.0, 1, 1), (1.0, 2.0, 1, 1)]
    )
    def test_small_truncations_match_dense(self, alpha, beta, n_eigs, n_trunc):
        # n_eigs = n_trunc and the 2 x 2 problem against dense eigvalsh
        mat = galerkin_matrix(OperatorParams(alpha, beta), 2 * n_trunc)
        fine = linalg.eigvalsh(mat)[:n_eigs]
        coarse = linalg.eigvalsh(mat[:n_trunc, :n_trunc])[:n_eigs]
        vals, est = galerkin_spectrum.__wrapped__(alpha, beta, n_eigs, n_trunc)
        scale = np.maximum(1.0, np.abs(fine))
        assert np.all(np.abs(np.array(vals) - fine) <= 1e-12 * scale)
        assert np.all(np.abs(np.array(est) - np.abs(fine - coarse)) <= 1e-12 * scale)

    @pytest.mark.parametrize("n_trunc", [0, 4097, 5000])
    def test_size_bounds_name_callers_n(self, n_trunc):
        # the solve runs at 2N, but the message names the N that was passed
        with pytest.raises(ValueError, match=rf"n_trunc={n_trunc} must lie in \[1, 4096\]"):
            galerkin_spectrum.__wrapped__(2.0, 2.0, 1, n_trunc)


class TestPseudospectral:
    def test_potential_overflow_safe(self):
        p = OperatorParams(2.0, 2.0)
        v = potential_v(np.array([-800.0, 0.0, 800.0]), p)
        assert np.all(np.isfinite(v))
        assert v[1] == pytest.approx(2.0 * 2.0 * LOG2 - 4.0 * LOG2, abs=1e-13)

    def test_potential_values(self):
        p = OperatorParams(1.0, 2.0)
        u = 0.7
        exact = -1.0 * math.log(1 + math.tanh(u)) - 2.0 * math.log(1 - math.tanh(u))
        assert potential_v(u, p) == pytest.approx(exact, abs=1e-12)

    def test_kinetic_plane_waves(self):
        # O-5: commensurate plane waves are exact eigenvectors of the
        # kinetic multiplier, so (H - V) wave = G(k) wave
        grid = UGrid(24.0, 512)
        params = OperatorParams(2.0, 2.0)
        h = pseudospectral_matrix(params, grid)
        v = potential_v(grid.nodes, params)
        for j in (2, 17, 100):
            k = abs(float(grid.frequencies[j]))
            for wave in (np.cos(k * grid.nodes), np.sin(k * grid.nodes)):
                assert np.max(np.abs(h @ wave - v * wave - big_g(k) * wave)) < 1e-10

    def test_continuous_spectrum_params_raise(self):
        with pytest.raises(ValueError):
            pseudospectral_matrix(OperatorParams(0.0, 1.0), UGrid(10.0, 64))

    def test_harmonic_eigenvalues(self):
        # A-3: (1,1) pseudospectral eigenvalues are 2 h_n, i.e. kappa_n/2 = h_n
        eigs = pseudospectral_spectrum(1.0, 1.0, 10, 40.0, 2048)
        for n in range(10):
            assert 0.5 * eigs[n] == pytest.approx(harmonic(n), abs=1e-4)


def _dense_eigensystem(params, grid, n_eigs):
    """Oracle: the dense circulant of G(p) plus diag(V), solved by eigh, with
    the first entry of magnitude > 1e-8 of each eigenvector made positive."""
    col = np.fft.ifft(big_g(grid.frequencies)).real
    h = linalg.circulant(col) + np.diag(potential_v(grid.nodes, params))
    vals, vecs = linalg.eigh(h, subset_by_index=[0, n_eigs - 1])
    for j in range(n_eigs):
        first = vecs[np.abs(vecs[:, j]) > 1e-8, j][0]
        vecs[:, j] *= np.sign(first)
    return vals, vecs


class TestPseudospectralSolve:
    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (1.0, 2.0), (0.7, 1.9)])
    def test_matches_dense_oracle(self, alpha, beta):
        grid = UGrid(20.0, 256)
        dense_vals, dense_vecs = _dense_eigensystem(OperatorParams(alpha, beta), grid, 10)
        nodes, kappas, vecs = pseudospectral_eigensystem.__wrapped__(
            alpha, beta, 10, grid.u_max, grid.m_points
        )
        assert np.array_equal(nodes, grid.nodes)
        vals = kappas - 2.0 * CONSTANTS.euler_gamma
        assert np.max(np.abs(vals - dense_vals)) <= 1e-12
        assert np.max(np.abs(vecs - dense_vecs)) <= 1e-10
        for j in range(10):
            assert vecs[np.abs(vecs[:, j]) > 1e-8, j][0] > 0

    def test_near_zero_level_found(self):
        # at this pair level 1 sits at about -1e-14 on the kappa' scale, where
        # ARPACK's relative convergence test is hardest to meet without a shift
        a = b = 0.5042489734855321
        grid = UGrid(40.0, 2048)
        h = pseudospectral_matrix(OperatorParams(a, b), grid)
        dense = linalg.eigvalsh(h.matmat(np.eye(grid.m_points)))[:4]
        assert abs(dense[1]) < 1e-12
        kappas = pseudospectral_spectrum.__wrapped__(a, b, 4, 40.0, 2048)
        vals = np.array(kappas) - 2.0 * CONSTANTS.euler_gamma
        assert np.max(np.abs(vals - dense)) <= 1e-12

    def test_uncached_solves_bitwise_equal(self):
        # the Lanczos start vector is fixed, so repeated solves agree exactly
        solve = pseudospectral_eigensystem.__wrapped__
        first = solve(0.7, 1.9, 6, 30.0, 1024)
        second = solve(0.7, 1.9, 6, 30.0, 1024)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestProjectSynthesize:
    @given(n=st.integers(0, 12))
    @settings(max_examples=13, deadline=None)
    def test_orthonormal_round_trip(self, n):
        c = np.zeros(16)
        c[n] = 1.0
        coeffs = project(lambda x: synthesize(c, x), 16)
        assert np.max(np.abs(coeffs - c)) < 1e-12


class TestApplyKPointwise:
    def test_k11_on_x(self):
        # K_11 x = 2x exactly
        p = OperatorParams(1.0, 1.0)
        phi = lambda u: np.tanh(u)
        for x in (-0.7, 0.0, 0.4):
            assert apply_k_pointwise(p, phi, x) == pytest.approx(2.0 * x, abs=1e-7)

    def test_constant_mode(self):
        # K_{alpha beta} 1 = (1-alpha) log(1+x) + (1-beta) log(1-x)
        p = OperatorParams(2.0, 0.5)
        phi = lambda u: np.ones_like(u)
        for x in (-0.5, 0.2):
            exact = -math.log(1 + x) + 0.5 * math.log(1 - x)
            assert apply_k_pointwise(p, phi, x) == pytest.approx(exact, abs=1e-7)

    def test_polynomial_exact_route(self, rng):
        # dual route: quadrature application against the exact closed form
        # K phi = K_11 phi + (1-a) log(1+x) phi + (1-b) log(1-x) phi with
        # K_11 diagonal on the Legendre modes
        c = np.zeros(8)
        c[:6] = rng.normal(size=6) / (1.0 + np.arange(6.0)) ** 2
        p = OperatorParams(2.0, 2.0)
        phi = lambda x: synthesize(c, np.asarray(x, dtype=float))
        k11c = np.array([2.0 * harmonic(n) for n in range(8)]) * c
        for x in (-0.9, -0.3, 0.5, 0.9):
            exact = float(synthesize(k11c, np.array([x]))[0])
            exact += -math.log(1 + x) * float(phi(np.array([x]))[0])
            exact += -math.log(1 - x) * float(phi(np.array([x]))[0])
            point = apply_k_pointwise(p, lambda u: phi(np.tanh(u)), x)
            assert point == pytest.approx(exact, abs=1e-6)

    def test_k01_eigenfunction(self):
        # K_01 phi(k,.) = (kappa(k) + log 2) phi(k,.), phi given in u so that
        # xi = expit(2u) is never formed from a rounded x
        p = OperatorParams(0.0, 1.0)
        xs = np.array([-0.5, 0.0, 0.5])
        for k in (0.3, 1.0, 3.0):
            phi_u = lambda u: mm_eigenfunction(k, special.expit(2.0 * u))
            lhs = apply_k_pointwise(p, phi_u, xs)
            rhs = (lipatov_kappa(k) + LOG2) * phi_u(np.arctanh(xs))
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-11

    def test_vector_x_matches_scalar_calls(self, rng):
        c = rng.normal(size=6)
        p = OperatorParams(0.7, 1.9)
        phi_u = lambda u: synthesize(c, np.tanh(u))
        xs = np.array([-0.999, -0.3, 0.0, 0.6, 0.99])
        one_by_one = [apply_k_pointwise(p, phi_u, float(x)) for x in xs]
        assert all(isinstance(v, float) for v in one_by_one)
        np.testing.assert_allclose(apply_k_pointwise(p, phi_u, xs), one_by_one, rtol=1e-14)

    @pytest.mark.parametrize("x", [1.0, -1.0, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(ValueError, match="outside"):
            apply_k_pointwise(OperatorParams(1.0, 1.0), np.tanh, np.array([0.0, x]))

    def test_galerkin_route_converges_to_pointwise(self, rng):
        # O-4 adapted: K phi has logarithmic endpoint singularities, so the
        # truncated Legendre synthesis of the matrix-vector product converges
        # slowly; verify agreement at a truncation-limited tolerance and that
        # refinement moves the Galerkin route toward the pointwise value
        c8 = rng.normal(size=8) / (1.0 + np.arange(8.0)) ** 2
        p = OperatorParams(2.0, 2.0)
        phi = lambda x: synthesize(
            np.concatenate([c8, np.zeros(56)]), np.asarray(x, dtype=float)
        )
        xs = np.array([-0.9, -0.4, 0.0, 0.55, 0.9])
        phi_u = lambda u: phi(np.tanh(u))
        point = np.array([apply_k_pointwise(p, phi_u, float(x)) for x in xs])
        errs = []
        for n in (64, 256, 1024):
            c = np.zeros(n)
            c[:8] = c8
            kc = galerkin_matrix(p, n) @ c
            vals = synthesize(kc, xs)
            errs.append(np.max(np.abs(vals - point)))
        assert errs[0] < 2e-2
        assert errs[2] < errs[0]
        assert errs[2] < 1e-3


class TestBackendAgreement:
    def test_low_eigenvalues_match(self):
        # O-3: Galerkin (N = 2048 with extrapolation) vs pseudospectral
        for alpha, beta in ((2.0, 2.0), (1.0, 1.0), (1.0, 2.0)):
            gal, _ = galerkin_spectrum(alpha, beta, 8, 2048)
            pse = pseudospectral_spectrum(alpha, beta, 8, 40.0, 4096)
            diff = np.max(np.abs(np.array(gal) - np.array(pse[:8])))
            assert diff < 2e-3
