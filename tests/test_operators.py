"""Unit tests for the operator assembly module.

Oracles: exact harmonic-number spectrum of K_{11} on Legendre polynomials,
closed-form monomial action, quadrature evaluation of log-potential matrix
elements, plane waves for the kinetic multiplier, and a dense circulant
eigensolve for the matrix-free pseudospectral solve.
"""
import math
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg
from scipy import integrate, linalg, special

import kab.operators
from kab.operators import (
    OperatorParams,
    UGrid,
    _galerkin_diagonal,
    _galerkin_product,
    _thick_restart_lanczos,
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
from kab.specfun import CONSTANTS, _gauss_nodes, big_g, lipatov_kappa
from tests.conftest import traced_peak

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

    def test_digamma_matches_scalar(self):
        # psi(n + 1) + gamma_E, behind the Galerkin diagonal, against the fsum
        # reference, at A-3's 1e-12
        assert harmonic_numbers(1).tolist() == [0.0]
        n = 2048
        ref = np.array([harmonic(k) for k in range(n)])
        assert np.max(np.abs(harmonic_numbers(n) - ref)) < 1e-12

    def test_negative_count_refused(self):
        # a negative count returned an empty array
        with pytest.raises(ValueError, match=r"harmonic_numbers: n=-1 must be >= 0"):
            harmonic_numbers(-1)
        assert harmonic_numbers(0).size == 0


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


def _whole_array_galerkin(params, n):
    """galerkin_matrix by whole-matrix operations, in the order the row
    blocks apply them: the reference for the blocked build.  The diagonal is
    _galerkin_diagonal's, checked against mpmath on its own."""
    idx = np.arange(n, dtype=float)
    mat = np.abs(np.subtract.outer(idx, idx))
    mat *= np.add.outer(idx, idx + 1.0)
    np.fill_diagonal(mat, 1.0)
    np.divide(-2.0, mat, out=mat)
    mat *= np.outer(np.sqrt(idx + 0.5), np.sqrt(idx + 0.5))
    w_plus, w_minus = 1.0 - params.alpha, 1.0 - params.beta
    even, odd = w_plus + w_minus, w_minus - w_plus
    s0, s1 = slice(0, None, 2), slice(1, None, 2)
    for rows, cols, w in ((s0, s0, even), (s1, s1, even), (s0, s1, odd), (s1, s0, odd)):
        if w != 1.0:
            mat[rows, cols] *= w
    np.fill_diagonal(mat, _galerkin_diagonal(params, n))
    return mat


class TestGalerkin:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 2.5), (0.77, 1.38), (2.0, 2.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    @pytest.mark.parametrize("cells", [None, 1, 3 * 200 + 5])
    def test_row_blocks_bitwise(self, monkeypatch, alpha, beta, n, cells):
        # the matrix is filled a block of rows at a time (one row at a time
        # with cells = 1, uneven blocks at 605 cells); every block size gives
        # the bits of the whole-array build, signed zeros included
        import kab.operators

        if cells is not None:
            monkeypatch.setattr(kab.operators, "_BLOCK_CELLS", cells)
        p = OperatorParams(alpha, beta)
        mat = galerkin_matrix(p, n)
        assert mat.tobytes() == _whole_array_galerkin(p, n).tobytes()

    def test_build_memory_bounded(self):
        # no temporary of the matrix's size: the triangle is written and
        # mirrored in place, so the build's peak is the matrix plus about one
        # block of _BLOCK_CELLS cells (1 MB); row blocks took 3.1 MB more
        mat, peak = traced_peak(galerkin_matrix, OperatorParams(0.77, 1.38), 1920)
        assert peak <= mat.nbytes + 2 * 2**20

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_overflow_named(self, n):
        # an entry that overflows is refused per block, by the caller's name;
        # at n = 1 the matrix is the closed-form diagonal alone
        named = r": the matrix overflows at alpha=1e\+308, beta=1e\+308"
        with pytest.raises(ValueError, match="galerkin_matrix" + named):
            galerkin_matrix(OperatorParams(1e308, 1e308), n)
        if n % 8 == 0:
            with pytest.raises(ValueError, match="galerkin_spectrum" + named):
                galerkin_spectrum.__wrapped__(1e308, 1e308, 1, n)

    @pytest.mark.parametrize(
        "alpha,beta", [(1.0, 1.0), (0.0, 1.0), (2.0, 2.0), (0.7, 1.9), (1.0, 0.3), (2.9, 2.95)]
    )
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_product_matches_dense(self, alpha, beta, n):
        # the FFT product against the dense matrix on a stack of three
        # vectors, each row with the bits of its own product
        p = OperatorParams(alpha, beta)
        x = np.random.default_rng(n).standard_normal((3, n))
        ref = x @ galerkin_matrix(p, n)  # the matrix is symmetric
        out = _galerkin_product(p, n)(x)
        err = np.linalg.norm(out - ref, axis=1)
        assert np.all(err <= 1e-14 * np.linalg.norm(ref, axis=1))
        assert np.array_equal(out[1], _galerkin_product(p, n)(x[1]))

    def test_k11_diagonal_harmonic(self):
        # A-3: the (1,1) matrix is diagonal with entries 2 h_n
        mat = galerkin_matrix(OperatorParams(1.0, 1.0), 64)
        target = np.diag([2.0 * harmonic(n) for n in range(64)])
        assert np.max(np.abs(mat - target)) < 1e-12

    def test_k11_diagonal_to_rounding_at_4096(self):
        # psi(n + 1) + gamma_E is within 2 ulps of h_n at every n < 4096 (a
        # running sum of 1/k drifts to 24 ulps, 8.6e-14, of 2 h_n)
        mat = galerkin_matrix(OperatorParams(1.0, 1.0), 4096)
        diag = np.diag(mat).copy()
        assert not np.any(mat - np.diag(diag))
        ref = 2.0 * np.array([harmonic(n) for n in range(4096)])
        assert np.all(np.abs(diag - ref) <= 4.0 * np.spacing(ref))

    @pytest.mark.parametrize(
        "alpha,beta", [(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (0.7, 1.9), (2.9, 2.95), (0.0, 0.0)]
    )
    def test_diagonal_matches_mpmath(self, alpha, beta):
        # D_n = 2 h_n + (2 - a - b)(log 2 - 2 (h_{2n+1} - h_n) + 1/(2n + 1)) in
        # 30 digits; each h carries up to 2 ulps of rounding, so D is within a
        # few ulps of the scale of its terms (under 6 at every n < 8192 tried)
        import mpmath as mp

        eps = np.finfo(float).eps
        ns = sorted({0, 1, 2, 10, 1000, 4095, 8191} | set(range(3, 8192, 97)))
        got = _galerkin_diagonal(OperatorParams(alpha, beta), 8192)
        weight = (1 - mp.mpf(alpha)) + (1 - mp.mpf(beta))
        with mp.workdps(30):
            for n in ns:
                h = mp.harmonic(n)
                log_part = mp.log(2) - 2 * (mp.harmonic(2 * n + 1) - h) + mp.mpf(1) / (2 * n + 1)
                scale = max(1.0, float(2 * h + abs(weight * log_part)))
                err = abs(mp.mpf(float(got[n])) - (2 * h + weight * log_part))
                assert err <= 8.0 * eps * scale, n

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
        # the smallest block, N/8 = 4, must hold every state asked for
        for n_eigs in (0, 5, 33):
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

    @pytest.mark.parametrize(
        "alpha,beta,n_eigs,n_trunc", [(0.7, 1.9, 4, 32), (2.0, 2.0, 1, 8), (1.0, 2.0, 1, 8)]
    )
    def test_leading_blocks_match_dense(self, alpha, beta, n_eigs, n_trunc):
        # n_eigs = N/8 and the smallest blocks (1, 2, 4, 8) against dense
        # eigvalsh of the four leading blocks of one size-N matrix
        mat = galerkin_matrix(OperatorParams(alpha, beta), n_trunc)
        sizes = (n_trunc // 8, n_trunc // 4, n_trunc // 2, n_trunc)
        lam = [linalg.eigvalsh(mat[:m, :m])[:n_eigs] for m in sizes]
        r1, r2, r3 = ((4.0 * lam[j + 1] - lam[j]) / 3.0 for j in range(3))
        est_ref = np.maximum(np.abs(r3 - r2), np.abs(r2 - r1) / 4.0)
        vals, est = galerkin_spectrum.__wrapped__(alpha, beta, n_eigs, n_trunc)
        scale = np.maximum(1.0, np.abs(r3))
        assert np.all(np.abs(np.array(vals) - r3) <= 1e-12 * scale)
        assert np.all(np.abs(np.array(est) - est_ref) <= 1e-12 * scale)

    @staticmethod
    def _dense_reference(mat, n_eigs, n_trunc):
        """(R(N/2, N), estimates) from eigvalsh on the leading blocks of mat."""
        lam = [
            np.linalg.eigvalsh(mat[:m, :m], UPLO="L")[:n_eigs]
            for m in (n_trunc // 8, n_trunc // 4, n_trunc // 2, n_trunc)
        ]
        r1, r2, r3 = ((4.0 * fine - coarse) / 3.0 for coarse, fine in zip(lam, lam[1:]))
        return r3, np.maximum(np.abs(r3 - r2), 0.25 * np.abs(r2 - r1))

    @pytest.mark.parametrize("alpha,beta", [(0.7, 1.9), (2.0, 2.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n_trunc", [8, 64, 1024])
    def test_dense_blocks_bitwise(self, alpha, beta, n_trunc):
        # where every size is dense (N < 1024, or N = 1024 and n_eigs > 10),
        # each matrix written into the head of one buffer gives the bits of
        # eigvalsh on the leading blocks of the full dense galerkin_matrix; ten
        # states at N = 1024 take Lanczos (test_lanczos_top_matches_dense)
        n_eigs = min(10, n_trunc // 8) if n_trunc < 1024 else 16
        mat = galerkin_matrix(OperatorParams(alpha, beta), n_trunc)
        r3, est_ref = self._dense_reference(mat, n_eigs, n_trunc)
        vals, est = galerkin_spectrum.__wrapped__(alpha, beta, n_eigs, n_trunc)
        assert [v.hex() for v in vals] == [float(v).hex() for v in r3]
        assert [e.hex() for e in est] == [float(e).hex() for e in est_ref]

    @pytest.mark.parametrize("alpha,beta", [
        (1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 1.0), (0.7, 1.9), (1.3, 2.6),
        (2.9, 2.95), (0.55, 0.6), (0.5, 3.0)])
    def test_lanczos_top_matches_dense(self, alpha, beta):
        # ten states take every size from 1024 up from Lanczos on the FFT
        # product (N = 256 stays dense): values and estimates within
        # 1e-12 max(1, |lam|) of eigvalsh on the leading blocks of one dense
        # matrix (up to 2.4e-14 seen); N = 4096 runs Lanczos at 1024, 2048
        # and 4096, and its dense reference costs seconds, so one pair takes it
        sizes = (256, 1024, 2048) + ((4096,) if (alpha, beta) == (0.7, 1.9) else ())
        mat = galerkin_matrix(OperatorParams(alpha, beta), sizes[-1])
        for n_trunc in sizes:
            r3, est_ref = self._dense_reference(mat, 10, n_trunc)
            vals, est = galerkin_spectrum.__wrapped__(alpha, beta, 10, n_trunc)
            scale = 1e-12 * np.maximum(1.0, np.abs(r3))
            assert np.all(np.abs(np.array(vals) - r3) <= scale)
            assert np.all(np.abs(np.array(est) - est_ref) <= scale)

    @pytest.mark.parametrize("n_trunc,n_eigs,calls", [
        (1024, 10, [10]), (1024, 128, []), (4096, 10, [10, 10, 10]), (4096, 64, [64])],
        ids=["1024-10", "1024-128", "4096-10", "4096-64"])
    def test_top_path_from_size(self, monkeypatch, n_trunc, n_eigs, calls):
        # each size m of N/8, N/4, N/2 and N runs Lanczos for n_eigs <=
        # 10 (m // 1024)^2 and dense eigh above, where Lanczos lost (0.43
        # against 0.17 s at 64 states and m = 1024)
        seen = []

        def lanczos(apply, v0, n_eigs, *args):
            seen.append(n_eigs)
            return _thick_restart_lanczos(apply, v0, n_eigs, *args)

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        galerkin_spectrum.__wrapped__(2.0, 2.0, n_eigs, n_trunc)
        assert seen == calls

    @pytest.mark.parametrize("alpha,calls", [(19.0, [10]), (20.5, []), (1e5, []), (1e10, []),
                                             (1e100, [])])
    def test_steep_potential_dense(self, monkeypatch, alpha, calls):
        # past a weight |1 - alpha| + |1 - beta| of 20 every size is dense:
        # the wanted levels cluster near -alpha log 2, and Lanczos took 17,056
        # products at 1e3 and ARPACK 30-35 s from 1e5 to 1e100 (N = 1024),
        # where the dense solves take 0.15 s
        seen = []

        def lanczos(apply, v0, n_eigs, *args):
            seen.append(n_eigs)
            return _thick_restart_lanczos(apply, v0, n_eigs, *args)

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        start = time.perf_counter()
        vals, est = galerkin_spectrum.__wrapped__(alpha, 2.0, 10, 1024)
        assert time.perf_counter() - start <= 30.0
        assert seen == calls
        assert np.all(np.isfinite(np.array(vals) + est))
        if alpha >= 1e5:
            assert vals[0] == pytest.approx(-alpha * LOG2, rel=1e-3)

    def test_missed_state_refused(self, monkeypatch):
        # Lanczos pairs that pass the residual gate but skip the lowest state
        # put every level above the same level of the largest dense size,
        # N/8 = 512, which interlacing forbids; every Lanczos size is checked
        # against it, so the first one, 1024, is refused
        def lanczos(apply, v0, n_eigs, *args):
            vals, vecs = _thick_restart_lanczos(apply, v0, n_eigs + 1, *args)
            return vals[1:], vecs[1:]

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        with pytest.raises(RuntimeError, match=r"galerkin_spectrum: at alpha=0\.7, beta=1\.9, "
                                               r"n_trunc=4096, size 1024: level 0 .* of the "
                                               r"size-512 matrix, .*: a state was missed"):
            galerkin_spectrum.__wrapped__(0.7, 1.9, 10, 4096)

    @pytest.mark.parametrize("alpha,n_trunc,reason", [
        (1e306, 256, None),
        (1e306, 1024, None),
        (8e307, 256, r"n_trunc=256: a Richardson value overflows a double")])
    def test_steep_potential_finite_or_named(self, alpha, n_trunc, reason):
        # every entry is finite at these alpha (beta = 2), and the solve warns
        # of nothing: at 1e306, N = 256 and N = 1024 (all dense, as at every
        # weight past 20) return finite values near -alpha log 2; at 8e307,
        # 4 lam_N overflows in the Richardson step, which is refused by name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if reason is None:
                vals, est = galerkin_spectrum.__wrapped__(alpha, 2.0, 10, n_trunc)
                assert np.all(np.isfinite(vals + est))
                assert vals[0] == pytest.approx(-alpha * LOG2, rel=1e-6)
            else:
                with pytest.raises(RuntimeError, match=re.escape(
                        f"galerkin_spectrum: at alpha={alpha}, beta=2.0, ") + reason + "$"):
                    galerkin_spectrum.__wrapped__(alpha, 2.0, 10, n_trunc)

    def test_solve_memory_bounded(self):
        # the N/2 matrix is dropped before the N matrix is built, and each is
        # solved by eigvalsh on a copy that tracemalloc does not see (see
        # test_dense_solve_rss_bounded): the peak is one N x N array and about
        # one block of _BLOCK_CELLS cells (1 MB); one matrix for all four
        # sizes, with its row blocks and copies, took 11.2 and 41.3 MiB
        for n in (1024, 2048):
            _, peak = traced_peak(galerkin_spectrum.__wrapped__, 0.7, 1.9, 10, n)
            assert peak <= 8 * n * n + 2 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_dense_solve_rss_bounded(self):
        # eigvalsh works on its own copy of the matrix, which tracemalloc
        # does not see, so a dense size holds twice its matrix: at N = 2048
        # and 200 states (every size dense) the process's resident peak
        # (VmHWM, which unlike ru_maxrss starts afresh at exec) grows by
        # 65 MB, two 2048 x 2048 arrays, where scipy's in-place eigh grew it
        # by 33 MB; a third copy would pass 96 MB
        code = (
            "from kab.operators import galerkin_spectrum\n"
            "def kb(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(r.split()[1]) for r in f if r.startswith(key))\n"
            "galerkin_spectrum.__wrapped__(0.7, 1.9, 20, 256)\n"
            "before = kb('VmRSS:')\n"
            "galerkin_spectrum.__wrapped__(0.7, 1.9, 200, 2048)\n"
            "print(kb('VmHWM:') - before)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        assert int(res.stdout) * 1024 <= 16 * 2048**2 + 8 * 2**20

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_no_top_size_matrix(self, n):
        # ten states take every size from 1024 up from Lanczos, and the
        # smaller sizes are written in turn into one buffer of at most
        # 512 x 512, freed before the first Lanczos size, so nothing holds an
        # N x N or N/2 x N/2 array: 3.2, 4.1 and 10.2 MiB traced, where an
        # N/2 x N/2 buffer took 3.2, 9.2 and 33.2 MiB and the dense top size
        # 9.2, 33.2 and 129.3 MiB
        _, peak = traced_peak(galerkin_spectrum.__wrapped__, 0.7, 1.9, 10, n)
        assert peak <= min(2 * n * n + 4 * 2**20, 16 * 2**20)

    @pytest.mark.parametrize("n_trunc", [0, 4097, 5000, 100])
    def test_size_bounds_name_callers_n(self, n_trunc):
        # each Richardson step doubles the block size exactly
        with pytest.raises(
            ValueError, match=rf"n_trunc={n_trunc} must be a multiple of 8 in \[8, 4096\]"
        ):
            galerkin_spectrum.__wrapped__(2.0, 2.0, 1, n_trunc)

    @pytest.mark.parametrize("n_trunc", [256, 1024])
    @pytest.mark.parametrize(
        "alpha,beta",
        [(2.0, 2.0), (0.7, 1.9), (0.5, 3.0), (3.0, 0.5), (0.55, 0.6),
         # successive Richardson values of state 9 (N = 1024) and state 2
         # (N = 256) cross here, so |R(N/2,N) - R(N/4,N/2)| alone understates
         # their errors 4.55x and 1.01x
         (1.5083590452313518, 0.665992121742168)],
    )
    def test_estimate_bounds_error(self, alpha, beta, n_trunc):
        # state by state against pseudospectral M = 4096, which agrees with
        # M = 8192 to about 1e-13
        ref = np.array(pseudospectral_spectrum(alpha, beta, 10, 40.0, 4096))
        vals, est = galerkin_spectrum.__wrapped__(alpha, beta, 10, n_trunc)
        assert np.all(np.abs(np.array(vals) - ref) <= np.array(est))


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

    def test_overflowing_potential_named(self):
        # V ~ alpha |u| overflows at u_max = 40 for alpha above about 2.2e306
        with pytest.raises(ValueError, match=r"alpha=1e\+308, beta=1\.0, u_max=40\.0"):
            pseudospectral_matrix(OperatorParams(1e308, 1.0), UGrid(40.0, 64))

    def test_harmonic_eigenvalues(self):
        # A-3: (1,1) pseudospectral eigenvalues are 2 h_n, i.e. kappa_n/2 = h_n
        eigs = pseudospectral_spectrum(1.0, 1.0, 10, 40.0, 2048)
        for n in range(10):
            assert 0.5 * eigs[n] == pytest.approx(harmonic(n), abs=1e-4)


def _dense_hamiltonian(params, grid):
    """The dense circulant of G(p) plus diag(V)."""
    col = np.fft.ifft(big_g(grid.frequencies)).real
    return linalg.circulant(col) + np.diag(potential_v(grid.nodes, params))


def _dense_eigensystem(params, grid, n_eigs):
    """Oracle: _dense_hamiltonian solved by eigh, with the first entry of
    magnitude > 1e-8 of each eigenvector made positive."""
    h = _dense_hamiltonian(params, grid)
    vals, vecs = linalg.eigh(h, subset_by_index=[0, n_eigs - 1])
    for j in range(n_eigs):
        first = vecs[np.abs(vecs[:, j]) > 1e-8, j][0]
        vecs[:, j] *= np.sign(first)
    return vals, vecs


class TestPseudospectralSolve:
    @pytest.mark.parametrize(
        "alpha,beta,m_points,n_eigs",
        [pytest.param(a, b, 256, 10, id=f"{a}-{b}") for a, b in ((2.0, 2.0), (1.0, 2.0), (0.7, 1.9))]
        + [(1.0, 1.0, 256, 10), (0.5, 3.0, 256, 10), (3.0, 0.5, 256, 10), (2.0, 2.0, 64, 31),
           (2.0, 2.0, 64, 63), (0.1, 0.1, 64, 63)],
    )
    def test_matches_dense_oracle(self, alpha, beta, m_points, n_eigs):
        # level by level, so a level dropped or out of order fails; at (0.1,
        # 0.1) the Gershgorin bound on 63 of the 64 nodes, 8.3, lies above
        # max V + max G = 7.1, and every level maps to |X| >= 1
        grid = UGrid(20.0, m_points)
        dense_vals, dense_vecs = _dense_eigensystem(OperatorParams(alpha, beta), grid, n_eigs)
        nodes, kappas, vecs = pseudospectral_eigensystem.__wrapped__(
            alpha, beta, n_eigs, grid.u_max, grid.m_points
        )
        assert np.array_equal(nodes, grid.nodes)
        vals = kappas - 2.0 * CONSTANTS.euler_gamma
        assert np.max(np.abs(vals - dense_vals)) <= 1e-12
        assert np.max(np.abs(vecs - dense_vecs)) <= 1e-10
        for j in range(n_eigs):
            assert vecs[np.abs(vecs[:, j]) > 1e-8, j][0] > 0

    def test_near_zero_level_found(self):
        # at this pair level 1 sits at about -1e-14 on the kappa' scale, where
        # a relative convergence test on H itself is hardest to meet
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

    # (alpha, beta, n_eigs, u_max, m_points) -> eigenvalues on the kappa
    # scale, then per state the first entry above 1e-8 in modulus (the sign
    # rule makes it positive) and the entry of largest modulus, all as hex
    FROZEN = {
        (2.0, 2.0, 4, 20.0, 128): (
            ["0x1.dd9f7eba9ddd0p-2", "0x1.7194c6114e2c2p+1", "0x1.f0dde844ff520p+1",
             "0x1.2458c04a02012p+2"],
            [(12, "0x1.a4246a9acaf61p-27", "0x1.d991365d84649p-2"),
             (12, "0x1.b8b70d3413031p-27", "-0x1.b4009f3723d6ap-2"),
             (0, "0x1.403269fe5022ap-25", "-0x1.2a4aa18e2346bp-1"),
             (9, "0x1.7ab56954ae49dp-27", "-0x1.11db966f1e9e6p-1")],
        ),
        (1.0, 2.0, 3, 30.0, 256): (
            ["0x1.2ede11c05acc0p-6", "0x1.175747195897cp+1", "0x1.9994d04b4881cp+1"],
            [(50, "0x1.8f3273a82e5a9p-27", "0x1.7420cf874149dp-2"),
             (47, "0x1.7127a81ade009p-27", "-0x1.565fc2606b872p-2"),
             (46, "0x1.712422ca92e49p-27", "-0x1.adf2d810ddaf3p-2")],
        ),
        (0.7, 1.9, 5, 40.0, 256): (
            ["-0x1.0ea7d9e03433cp-2", "0x1.b4a094ae1d070p+0", "0x1.5c8a1902a60edp+1",
             "0x1.b1f103ed8fbfcp+1", "0x1.f221d39bebc44p+1"],
            [(65, "0x1.9cb4c18de4770p-27", "0x1.951a701f423e6p-2"),
             (62, "0x1.ba43b3e4d7086p-27", "-0x1.6c3ff2e648a08p-2"),
             (60, "0x1.7b08b79e32eaep-27", "-0x1.aa70c5f7c9b53p-2"),
             (58, "0x1.83e9a4c4921d6p-27", "0x1.afb25ebc2bf29p-2"),
             (23, "0x1.5cbd763e87b5ap-27", "0x1.a2f48e1a5cfd7p-2")],
        ),
        (3.0, 0.5, 2, 16.0, 64): (
            ["-0x1.0efabeb30f179p+0", "0x1.772876a561ac9p-1"],
            [(0, "0x1.cd837309b1b04p-22", "0x1.e8e71e1ceb754p-2"),
             (0, "0x1.84152a4bfcfafp-20", "-0x1.b8819b1887f97p-2")],
        ),
        (1.0, 1.0, 6, 40.0, 512): (
            ["-0x1.c000000000000p-50", "0x1.0000000000003p+1", "0x1.8000000000012p+1",
             "0x1.d55555555556ap+1", "0x1.0aaaaaaaaaab5p+2", "0x1.2444444444446p+2"],
            [(142, "0x1.60dc91e9767afp-27", "0x1.1e3779b97f4b0p-2"),
             (139, "0x1.7e768ac3955e5p-27", "0x1.ee3e0658343e4p-3"),
             (137, "0x1.693da724e251ep-27", "-0x1.4000000000bcdp-2"),
             (136, "0x1.6d98c5204b54bp-27", "0x1.3059696005cacp-2"),
             (135, "0x1.6295010f10fd3p-27", "0x1.41fe68f14a9fdp-2"),
             (135, "0x1.88010c95e9321p-27", "0x1.38082eafd46fep-2")],
        ),
    }

    # the same pins from the solve that ran Lanczos on H - shift, which
    # test_shift_solve_pins_agree holds the folded solve to within rounding
    SHIFT_SOLVE = {
        (2.0, 2.0, 4, 20.0, 128): (
            ["0x1.dd9f7eba9de14p-2", "0x1.7194c6114e286p+1", "0x1.f0dde844ff516p+1",
             "0x1.2458c04a02006p+2"],
            [(12, "0x1.a4246abd52e01p-27", "0x1.d991365d84657p-2"),
             (12, "0x1.b8b70d3a6538ep-27", "0x1.b4009f3723d71p-2"),
             (0, "0x1.40326a136914fp-25", "-0x1.2a4aa18e2341ap-1"),
             (9, "0x1.7ab56956cc518p-27", "0x1.11db966f1e994p-1")],
        ),
        (1.0, 2.0, 3, 30.0, 256): (
            ["0x1.2ede11c059fc0p-6", "0x1.175747195892cp+1", "0x1.9994d04b487dep+1"],
            [(50, "0x1.8f32739b297b3p-27", "0x1.7420cf874149cp-2"),
             (47, "0x1.7127a83481255p-27", "-0x1.565fc2606b8c3p-2"),
             (46, "0x1.712422a8a982bp-27", "-0x1.adf2d810ddb4ap-2")],
        ),
        (0.7, 1.9, 5, 40.0, 256): (
            ["-0x1.0ea7d9e03430cp-2", "0x1.b4a094ae1d101p+0", "0x1.5c8a1902a60e4p+1",
             "0x1.b1f103ed8fbd6p+1", "0x1.f221d39bebc08p+1"],
            [(65, "0x1.9cb4c1434553bp-27", "0x1.951a701f423d7p-2"),
             (62, "0x1.ba43b41193fe1p-27", "-0x1.6c3ff2e648a2ep-2"),
             (60, "0x1.7b08b7c9eb6d9p-27", "-0x1.aa70c5f7c9b45p-2"),
             (58, "0x1.83e9a49628a0ap-27", "0x1.afb25ebc2c085p-2"),
             (23, "0x1.5cbd7641fa1a6p-27", "0x1.a2f48e1a5cf94p-2")],
        ),
        (3.0, 0.5, 2, 16.0, 64): (
            ["-0x1.0efabeb30f197p+0", "0x1.772876a561a7ap-1"],
            [(0, "0x1.cd83730cac3cdp-22", "0x1.e8e71e1ceb746p-2"),
             (0, "0x1.84152a4ae44b0p-20", "-0x1.b8819b1887f7ep-2")],
        ),
        (1.0, 1.0, 6, 40.0, 512): (
            ["-0x1.a800000000000p-47", "0x1.fffffffffffa5p+0", "0x1.7ffffffffffecp+1",
             "0x1.d555555555584p+1", "0x1.0aaaaaaaaaac4p+2", "0x1.244444444444ap+2"],
            [(142, "0x1.60dc91e309644p-27", "0x1.1e3779b97f4aap-2"),
             (139, "0x1.7e768aaa2a50ep-27", "-0x1.ee3e06583439ep-3"),
             (137, "0x1.693da71bea130p-27", "-0x1.4000000000baep-2"),
             (136, "0x1.6d98c525df64fp-27", "-0x1.3059696005cabp-2"),
             (135, "0x1.629500fe889ffp-27", "0x1.41fe68f14aa61p-2"),
             (135, "0x1.88010c91c7185p-27", "0x1.38082eafd46cfp-2")],
        ),
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_frozen_values_and_signs(self, case):
        # both entry points return bitwise the values and sign-fixed vectors
        # that the folded thick-restart solve gave when these were pinned (the
        # folded ARPACK solve's pins differed from these by at most 3.4e-15
        # relative, with the same first entries)
        want_vals, want_cols = self.FROZEN[case]
        spectrum = pseudospectral_spectrum.__wrapped__(*case)
        nodes, kappas, vecs = pseudospectral_eigensystem.__wrapped__(*case)
        assert [v.hex() for v in spectrum] == want_vals
        assert [float(v).hex() for v in kappas] == want_vals
        for j, (first, entry, peak) in enumerate(want_cols):
            col = vecs[:, j]
            assert np.flatnonzero(np.abs(col) > 1e-8)[0] == first
            assert float(col[first]).hex() == entry
            assert float(col[np.argmax(np.abs(col))]).hex() == peak

    @pytest.mark.parametrize("case", sorted(SHIFT_SOLVE))
    def test_shift_solve_pins_agree(self, case):
        # the folded solve moves each value by rounding alone and keeps each
        # state's first entry above 1e-8; at alpha = beta the peak ties
        # between mirrored nodes of either sign, so peaks compare by modulus
        want_vals, want_cols = self.SHIFT_SOLVE[case]
        _, kappas, vecs = pseudospectral_eigensystem.__wrapped__(*case)
        want = np.array([float.fromhex(v) for v in want_vals])
        assert np.all(np.abs(kappas - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        for j, (first, _, peak) in enumerate(want_cols):
            col = vecs[:, j]
            assert np.flatnonzero(np.abs(col) > 1e-8)[0] == first
            got, want_peak = col[np.argmax(np.abs(col))], float.fromhex(peak)
            if case[0] == case[1]:
                got, want_peak = abs(got), abs(want_peak)
            assert got == pytest.approx(want_peak, abs=1e-12)

    def test_cached_arrays_read_only(self):
        # the cache hands the same arrays to every caller: an in-place edit
        # by one is refused, so the next call returns the first values
        first = [a.copy() for a in pseudospectral_eigensystem(2.0, 2.0, 3, 40.0, 256)]
        for a in pseudospectral_eigensystem(2.0, 2.0, 3, 40.0, 256):
            with pytest.raises(ValueError):
                a[...] = 0.0
        again = pseudospectral_eigensystem(2.0, 2.0, 3, 40.0, 256)
        assert all(np.array_equal(a, b) for a, b in zip(again, first))

    @staticmethod
    def _count_products(monkeypatch):
        """A list that gets one entry per product of H that Lanczos makes,
        two per product of the folded operator, each one forward real FFT
        of the product's shape less its last axis, counted inside the
        Lanczos recurrence alone (not the residual check)."""
        products = []
        rfft = np.fft.rfft

        def counted_rfft(x, *args, **kwargs):
            products.append(np.shape(x)[:-1])
            return rfft(x, *args, **kwargs)

        def lanczos(*args):
            with monkeypatch.context() as patch:
                patch.setattr(np.fft, "rfft", counted_rfft)
                return _thick_restart_lanczos(*args)

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        return products

    def test_products_counted(self, monkeypatch):
        # ten states at M = 2048 on a basis of 28 vectors: ARPACK on H - shift
        # made 560 products with its default basis of 21 and 431 with 28, and
        # 418 on the fold; thick restart on the fold makes 434
        products = self._count_products(monkeypatch)
        pseudospectral_spectrum.__wrapped__(2.0, 2.0, 10, 40.0, 2048)
        assert set(products) == {()}  # one vector a product
        assert len(products) <= 450

    def test_refused_solve_products_bounded(self, monkeypatch):
        # a solve that never converges stops within the 46101 products that
        # ARPACK's default of 10 M restarts made on H - shift: here its 1279
        # restarts of 9 products on the fold, 2 products of H each
        products = self._count_products(monkeypatch)
        with pytest.raises(RuntimeError, match=r"Lanczos did not converge in 1279 restarts "
                                               r"\(\d+ products\)$"):
            pseudospectral_spectrum.__wrapped__(1e305, 1.0, 2, 40.0, 256)
        assert set(products) == {()}
        assert len(products) <= 46101

    def test_level_above_the_bound_refused(self, monkeypatch):
        # Lanczos vectors that pass the residual check but are not the lowest
        # states (here the highest, from a dense solve) sit above the
        # Gershgorin bound on level n_eigs and are refused
        dense = _dense_hamiltonian(OperatorParams(2.0, 2.0), UGrid(20.0, 64))

        def lanczos(apply, v0, n_eigs, *args):
            vals, vecs = linalg.eigh(dense, subset_by_index=[64 - n_eigs, 63])
            return vals, vecs.T

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        with pytest.raises(RuntimeError, match=r"alpha=2\.0, .* level 3 at .* not below"):
            pseudospectral_spectrum.__wrapped__(2.0, 2.0, 3, 20.0, 64)

    @pytest.mark.parametrize("steep,reason", [
        (1e160, r"eigenpair residual 9\.\d{3}e\+160 exceeds tolerance$"),
        (1e306, r"eigenpair residual 9\.\d{3}e\+306 exceeds tolerance$"),
    ])
    def test_steep_potential_refused_with_finite_figure(self, steep, reason):
        # on potentials steep enough that squares of H v - lam v overflow
        # (1e160, 1e306), the solve warns of nothing and either returns pairs
        # that pass its gate or names the failure with a finite figure: the
        # residual norm is taken on rows scaled by their largest modulus, and
        # the fold's multiplier g/e and potential (v - c)/e keep its products
        # finite wherever V is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=re.escape(f"alpha={steep}, ") + ".*: " + reason):
                pseudospectral_spectrum.__wrapped__(steep, steep, 2, 40.0, 256)

    def test_eigenpair_count_bounded(self, monkeypatch):
        # a solve needs room for 2 n_eigs + 1 basis vectors of M doubles; past
        # 2^26 cells (galerkin_matrix's largest matrix) it is refused
        # unstarted, and the basis Lanczos is given stays within 2^26 cells
        class Reached(Exception):
            pass

        bases = []

        def lanczos(apply, v0, n_eigs, which, ncv, max_restarts):
            bases.append((n_eigs, ncv, v0.size))
            raise Reached

        monkeypatch.setattr(kab.operators, "_thick_restart_lanczos", lanczos)
        solve = pseudospectral_spectrum.__wrapped__
        with pytest.raises(Reached):
            solve(2.0, 2.0, 511, 40.0, 65536)
        with pytest.raises(Reached):
            solve(2.0, 2.0, 4095, 40.0, 8192)
        for n_eigs, m_points in ((1, 64), (7, 2048), (10, 2048)):
            with pytest.raises(Reached):
                solve(2.0, 2.0, n_eigs, 40.0, m_points)
        # ARPACK's default max(2 k + 1, 20) up to k = 7, then 3 k - 2
        assert [ncv for _, ncv, _ in bases] == [1024, 8192, 20, 20, 28]
        for k, ncv, m in bases:
            assert k < ncv <= m and ncv * m <= 2**26
        for n_eigs, m_points, largest in ((512, 65536, 511), (4096, 8192, 4095),
                                          (60000, 65536, 511), (4096, 4096, 4095)):
            with pytest.raises(ValueError) as info:
                solve(2.0, 2.0, n_eigs, 40.0, m_points)
            msg = str(info.value)
            for part in (f"n_eigs={n_eigs}", f"m_points={m_points}", f"[1, {largest}]"):
                assert part in msg


class TestThickRestartLanczos:
    """The Lanczos routine alone, on dense symmetric matrices of known
    spectrum: Q diag(d) Q^T with Q orthogonal from a seeded QR."""

    @staticmethod
    def _matrix(d, seed=0):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d.size, d.size)))
        return (q * d) @ q.T, q

    # a cluster of three levels 1e-6 apart at each end, then a gap
    SPECTRUM = np.concatenate(([-5.0, -5.0 + 1e-6, -5.0 + 2e-6],
                               np.linspace(-4.0, 4.0, 194), [5.0 - 2e-6, 5.0 - 1e-6, 5.0]))

    @pytest.mark.parametrize("which", ["SA", "LA"])
    def test_known_spectrum_with_clusters(self, which):
        # the six levels at the which end, clusters included, in that order,
        # to rounding, with orthonormal vectors that satisfy A v = lam v
        a, _ = self._matrix(self.SPECTRUM)
        v0 = np.random.default_rng(1).standard_normal(a.shape[0])
        vals, vecs = _thick_restart_lanczos(lambda x: a @ x, v0, 6, which, 20, 2000)
        want = np.sort(self.SPECTRUM)[:6] if which == "SA" else np.sort(self.SPECTRUM)[::-1][:6]
        assert np.max(np.abs(vals - want)) <= 1e-13
        assert np.max(np.abs(vecs @ vecs.T - np.eye(6))) <= 1e-12
        assert np.max(np.abs(vecs @ a - vecs * vals[:, None])) <= 1e-12

    def test_full_basis_breaks_down_exactly(self):
        # ncv = n: the basis spans the whole space after n products, the
        # residual lies in its span, and the Ritz pairs are exact with no
        # restart
        d = np.arange(1.0, 13.0) ** 2
        a, _ = self._matrix(d)
        products = []

        def apply(x):
            products.append(1)
            return a @ x

        vals, vecs = _thick_restart_lanczos(apply, np.ones(12), 5, "SA", 12, 0)
        assert len(products) == 12
        assert np.max(np.abs(vals - d[:5])) <= 1e-12 * d[-1]
        assert np.max(np.abs(vecs @ a - vecs * vals[:, None])) <= 1e-12 * d[-1]

    @pytest.mark.parametrize("rotated", [False, True], ids=["exact", "rounded"])
    def test_invariant_start(self, rotated):
        # a start that is an eigenvector spans an invariant subspace: on a
        # diagonal matrix A e_5 - lam e_5 is exactly 0 and a fresh vector
        # continues the basis; rotated, the remainder is rounding, which
        # the second Gram-Schmidt pass keeps as a new direction; either way
        # the lowest four levels are found
        d = np.linspace(1.0, 200.0, 200)
        a, q = self._matrix(d) if rotated else (np.diag(d), np.eye(200))
        vals, _ = _thick_restart_lanczos(lambda x: a @ x, q[:, 5].copy(), 4, "SA", 20, 2000)
        assert np.max(np.abs(vals - d[:4])) <= 1e-11

    def test_too_few_restarts_refused(self):
        # one restart cannot resolve the clusters: the refusal states the
        # restarts and the products, 20 + (20 - 13) for 6 levels on 20 vectors
        a, _ = self._matrix(self.SPECTRUM)
        v0 = np.random.default_rng(1).standard_normal(a.shape[0])
        with pytest.raises(RuntimeError, match=r"^Lanczos did not converge in 1 restarts "
                                               r"\(27 products\)$"):
            _thick_restart_lanczos(lambda x: a @ x, v0, 6, "SA", 20, 1)


class TestProjectSynthesize:
    @given(n=st.integers(0, 12))
    @settings(max_examples=13, deadline=None)
    def test_orthonormal_round_trip(self, n):
        c = np.zeros(16)
        c[n] = 1.0
        coeffs = project(lambda x: synthesize(c, x), 16)
        assert np.max(np.abs(coeffs - c)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_columns_match_single_sums(self, rng, n):
        # an (n, k) array sums its columns in one Clenshaw pass, each as its
        # own call would; a column zero-padded to 2n sums as the unpadded one
        x = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 50)))
        c = rng.standard_normal((2 * n, 3))
        c[n:, 0] = 0.0
        rows = synthesize(c, x)
        assert rows.shape == (3, x.size)
        for k in range(3):
            assert np.array_equal(rows[k], synthesize(c[:, k], x))
        assert np.array_equal(rows[0], synthesize(c[:n, 0], x))

    def test_nodes_from_cached_rule(self, monkeypatch):
        # project takes its rule from the one cached Gauss-Legendre source
        import kab.operators

        orders = []

        def counted(n):
            orders.append(n)
            return _gauss_nodes(n)

        monkeypatch.setattr(kab.operators, "_gauss_nodes", counted)
        c = np.arange(1.0, 9.0)
        coeffs = project(lambda x: synthesize(c, x), 8, quad_order=40)
        assert orders == [40]
        assert np.max(np.abs(coeffs - c)) < 1e-12

    def test_cached_rule_read_only(self):
        # every caller shares the cached rule: a phi that scales its
        # argument in place is refused and the rule stays as it was
        rule = [a.copy() for a in _gauss_nodes(64)]

        def phi(x):
            x *= 2.0
            return x

        with pytest.raises(ValueError):
            project(phi, 8)
        for a in _gauss_nodes(64):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(_gauss_nodes(64), rule))
        coeffs = project(lambda x: np.ones_like(x), 3)
        assert np.max(np.abs(coeffs - [math.sqrt(2.0), 0.0, 0.0])) < 1e-14

    @pytest.mark.parametrize("n_points,n_trunc", [(96, 960), (100, 1000), (128, 1024)])
    def test_matches_legval(self, smooth_profiles, n_points, n_trunc):
        # numpy's legval (Clenshaw's recurrence) is the oracle, on the columns
        # evolve_matrix sums: each profile evolved at sizes N (zero-padded)
        # and 2N, on A-8's grids; worst 4.6e-14 of the largest value
        from kab.evolution import EvolutionState, _krylov_exp, _state_coeffs
        from kab.evolution import default_xi_grid

        xi = default_xi_grid(n_points)
        x = 2.0 * xi - 1.0
        for profile in smooth_profiles.values():
            c = _state_coeffs(EvolutionState(0.0, xi, profile(xi)), 2 * n_trunc)
            for tau in (0.25, 2.5, 10.0):
                cols = np.zeros((2 * n_trunc, 2))
                for col, n in enumerate((n_trunc, 2 * n_trunc)):
                    product = _galerkin_product(OperatorParams(0.0, 1.0), n)
                    cols[:n, col] = _krylov_exp(product, c[:n], tau)
                want = npleg.legval(x, (cols.T * np.sqrt(np.arange(2 * n_trunc) + 0.5)).T)
                got = synthesize(cols, x)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.array_equal(got[0], synthesize(cols[:n_trunc, 0], x))

    @pytest.mark.parametrize("coeffs", [np.zeros(0), np.zeros((0, 2)), np.float64(1.0)])
    def test_no_coefficient_refused(self, coeffs):
        # an empty first axis failed in a reshape; a scalar has none
        with pytest.raises(ValueError, match=r"synthesize: coeffs has no first-axis coefficient, shape \("):
            synthesize(coeffs, [0.1, 0.2])

    def test_negative_n_trunc_refused(self):
        with pytest.raises(ValueError, match=r"project: n_trunc=-1 must be >= 1"):
            project(np.cos, -1)

    def test_zero_quad_order_refused(self):
        # quad_order=0 fell back to the default rule
        with pytest.raises(ValueError, match=r"project: quad_order=0 must be >= 1"):
            project(np.cos, 4, quad_order=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_random_coefficients_match_legval(self, rng, n):
        x = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 200)))
        c = rng.standard_normal((n, 3))
        want = npleg.legval(x, (c.T * np.sqrt(np.arange(n) + 0.5)).T)
        assert np.max(np.abs(synthesize(c, x) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("degree", [4095, 8191])
    def test_high_degree_matches_mpmath(self, degree):
        # one mode at the largest degrees evolve_matrix sums (2N - 1); the
        # three-term recurrence is off by 1.7e-11 at x = 1 (legval by 4.9e-11)
        import mpmath as mp

        x = np.array([-1.0, -0.999, -0.7, -0.123, 0.0, 0.3, 0.9, 0.99999, 1.0])
        c = np.zeros(degree + 1)
        c[degree] = 1.0
        norm = math.sqrt(degree + 0.5)
        with mp.workdps(30):
            want = np.array([float(mp.legendre(degree, mp.mpf(v))) for v in x])
        assert np.max(np.abs(synthesize(c, x) / norm - want)) <= 5e-11

    def test_largest_sum_memory_bounded(self):
        # 2N = 8192 degrees on 4096 points in two columns: P_n at every point
        # at once would take 256 MiB; the blocks of 16 points take 1 MiB
        c = np.random.default_rng(8192).standard_normal((8192, 2)) / np.arange(1.0, 8193.0)[:, None]
        x = np.linspace(-1.0, 1.0, 4096)
        vals, peak = traced_peak(synthesize, c, x)
        assert peak <= 4 * 2**20
        want = npleg.legval(x, (c.T * np.sqrt(np.arange(8192) + 0.5)).T)
        assert np.max(np.abs(vals - want)) <= 1e-11 * np.max(np.abs(want))


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
