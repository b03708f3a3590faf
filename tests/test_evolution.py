"""Unit tests for the multiplicity evolution module.

Oracles: the closed-form right-hand side for u = xi, agreement of the two
independent backends, and exact preservation of a continuum eigenmode.
"""
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kab.evolution import (
    EvolutionState,
    _abel_fourier_step,
    _abel_grid,
    _abel_plan,
    _krylov_exp,
    _state_coeffs,
    default_xi_grid,
    evolve_matrix,
    evolve_spectral,
    mm_rhs,
    state_interpolant,
)
from kab.exact import _abel_transform, _clenshaw, mm_eigenfunction
from kab.operators import (
    OperatorParams,
    _cauchy_product,
    _galerkin_product,
    galerkin_matrix,
    harmonic,
    project,
)
from kab.specfun import (
    _ABEL_PANELS,
    CONSTANTS,
    _abel_blocks,
    lipatov_kappa,
)
from tests.conftest import traced_peak

LOG2 = CONSTANTS.log2
K01 = OperatorParams(0.0, 1.0)

WINDOW = slice(None)  # refined per test via masks on xi in [0.05, 0.95]


def make_state(profile, n_points=96, tau=0.0):
    xi = default_xi_grid(n_points)
    return EvolutionState(tau=tau, xi_grid=xi, u_values=profile(xi))


class TestState:
    def test_validation(self):
        xi = default_xi_grid(16)
        with pytest.raises(ValueError):
            EvolutionState(tau=-1.0, xi_grid=xi, u_values=xi)
        with pytest.raises(ValueError):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=xi[:-1])
        with pytest.raises(ValueError):
            EvolutionState(tau=0.0, xi_grid=xi[::-1], u_values=xi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        # the state is where a profile enters both backends, so the check
        # is made here and names the first bad sample
        xi = default_xi_grid(16)
        u = xi * xi * (1.0 - xi)
        u[[5, 9]] = bad
        with pytest.raises(ValueError, match=r"u_values\[5\] is not finite"):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=u)

    def test_non_finite_grid_rejected(self):
        xi = default_xi_grid(16)
        xi[7] = math.nan
        msg = r"xi_grid\[7\] = nan is off default_xi_grid\(16\)"
        with pytest.raises(ValueError, match=msg):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=np.zeros_like(xi))

    def test_uniform_grid_rejected(self):
        # every state lives on the Chebyshev-Lobatto grid, which the closed-form
        # barycentric weights assume; the message names the first node off it
        xi = np.linspace(1.0 / 96, 1.0, 96)
        msg = r"xi_grid\[0\] = 0.010416666666666666 is off default_xi_grid\(96\) by more"
        with pytest.raises(ValueError, match=msg):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=xi * xi * (1.0 - xi))

    @pytest.mark.parametrize("shape", [(3,), (4097,), (4, 4)])
    def test_grid_size_and_shape_rejected(self, shape):
        xi = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=r"of shape .* is no default_xi_grid\(n\)"):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=np.zeros(shape))

    @pytest.mark.parametrize("n_points", [4, 96, 4096])
    def test_ten_digit_grid_accepted(self, n_points):
        # kab evolve prints xi to 10 significant digits (at most 4.99e-10
        # relative off the grid), and a state rebuilt from that print steps
        # as the exact grid's does to 1e-9 of max|u|
        exact = default_xi_grid(n_points)
        printed = np.array([float(f"{v:.10g}") for v in exact])
        assert not np.array_equal(printed, exact)
        u = [
            evolve_spectral(EvolutionState(0.0, xi, xi * xi * (1.0 - xi)), 0.5).u_values
            for xi in (exact, printed)
        ]
        assert np.max(np.abs(u[1] - u[0])) <= 1e-9 * np.max(np.abs(u[0]))

    def test_nonvanishing_profile_rejected(self):
        xi = default_xi_grid(64)
        with pytest.raises(ValueError):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=np.ones_like(xi))

    def test_one_minus_xi_rejected(self):
        # u(xi0) ~ 1 far exceeds sqrt(xi0)(3 + log(1/xi0)) = 0.184 at 96 points
        xi = default_xi_grid(96)
        with pytest.raises(ValueError, match="does not vanish"):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=1.0 - xi)

    def test_grid_properties(self):
        xi = default_xi_grid(96)
        assert xi.size == 96
        assert xi[-1] == pytest.approx(1.0, abs=1e-15)
        assert xi[0] > 0
        # clustering: first spacing much smaller than the middle one
        assert (xi[1] - xi[0]) < 0.1 * (xi[49] - xi[48])

    def test_interpolant_pins_zero(self):
        s = make_state(lambda t: t * (1.0 - t))
        f = state_interpolant(s)
        assert abs(float(f(0.0))) < 1e-14
        assert float(f(0.5)) == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("n_points", [96, 4096])
    def test_interpolant_blocks_are_bitwise(self, monkeypatch, n_points):
        # the interpolant is evaluated a block of points at a time (here 16
        # points per block, the least, against all 257 in one); other block
        # sizes, uneven ones included, give the same interpolant
        import kab.evolution

        s = make_state(lambda t: t * t * (1.0 - t), n_points=n_points)
        x = np.linspace(0.0, 1.0, 257) ** 3
        whole = state_interpolant(s)(x)
        monkeypatch.setattr(kab.evolution, "_BLOCK_CELLS", 7 * (n_points + 1) + 3)
        assert np.array_equal(state_interpolant(s)(x), whole)

    @given(n_points=st.integers(4, 4096), seed=st.integers(0, 2**32 - 1))
    @example(n_points=4, seed=0)
    @example(n_points=4096, seed=0)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_interpolant_reproduces_polynomials(self, n_points, seed):
        # the closed-form weights make the interpolant exact on every
        # polynomial of degree <= n with p(0) = 0, at every grid size the
        # state accepts; p = xi q(xi), q drawn in the Chebyshev basis of [0, 1]
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(int(rng.integers(1, n_points + 1)))
        p = lambda t: t * np.polynomial.chebyshev.chebval(2.0 * t - 1.0, coef)
        xi = default_xi_grid(n_points)
        x = np.linspace(0.0, 1.0, 257)
        got = state_interpolant(EvolutionState(0.0, xi, p(xi)))(x)
        want = p(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_node_hits_in_several_blocks(self, monkeypatch):
        # a point on a node returns that node's sample exactly, xi = 0 (the
        # pinned u(0) = 0) and the last node xi = 1 included, in every block
        # of 16 points; its neighbours are no hits and match the one-block
        # evaluation bit for bit
        import kab.evolution

        s = make_state(lambda t: t * t * (1.0 - t), n_points=96)
        nodes = np.concatenate(([0.0], s.xi_grid))
        near = np.nextafter(nodes[1:-1], 2.0)
        x = np.concatenate((nodes, near, [0.3, 0.7]))[::-1]
        whole = state_interpolant(s)(x)
        monkeypatch.setattr(kab.evolution, "_BLOCK_CELLS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by a zero x - x_k
            blocked = state_interpolant(s)(x)
        assert np.array_equal(blocked, whole)
        at_nodes = blocked[::-1][: nodes.size]
        assert np.array_equal(at_nodes, np.concatenate(([0.0], s.u_values)))
        assert np.all(np.isfinite(blocked))

    def test_interpolant_memory_bounded(self):
        # the (points x nodes) array is formed a block of points at a time;
        # on 200 000 points in one block it took 178 MB
        f = state_interpolant(make_state(lambda t: t * t * (1.0 - t)))
        x = np.linspace(0.0, 1.0, 200_000)
        vals, peak = traced_peak(f, x)
        assert peak < 50 * 2**20
        assert vals.shape == x.shape
        assert np.max(np.abs(vals - x * x * (1.0 - x))) < 1e-12

    def test_serialization(self):
        s = make_state(lambda t: t * (1.0 - t), n_points=8)
        d = s.to_json_dict()
        assert d["tau"] == 0.0
        assert len(d["xi"]) == 8
        assert len(s.to_csv_rows()) == 8


class TestRhs:
    def test_linear_profile_closed_form(self):
        # for u = xi the right-hand side is -xi log xi exactly
        s = make_state(lambda t: t)
        for xi in (0.1, 0.35, 0.8):
            assert mm_rhs(s, xi) == pytest.approx(-xi * math.log(xi), abs=1e-7)

    def test_matches_operator_route(self):
        # dual route: the rhs equals -xi (K_01 - log 2) phi with phi = u/xi,
        # assembled from the harmonic diagonal plus pointwise log(1+x) phi
        from kab.operators import synthesize

        s = make_state(lambda t: t**2 * (1.0 - t))
        c = project(lambda x: (0.5 * (1.0 + x)) * (0.5 * (1.0 - x)), 8)
        k11c = np.array([2.0 * harmonic(n) for n in range(8)]) * c
        for xi in (0.2, 0.5, 0.85):
            x = 2.0 * xi - 1.0
            phi = float(synthesize(c, np.array([x]))[0])
            kphi = float(synthesize(k11c, np.array([x]))[0])
            kphi += math.log(1.0 + x) * phi  # (1 - alpha) log(1+x), alpha = 0
            rhs_exact = -xi * (kphi - LOG2 * phi)
            assert mm_rhs(s, xi) == pytest.approx(rhs_exact, abs=1e-8)

    def test_out_of_range_raises(self):
        s = make_state(lambda t: t)
        with pytest.raises(ValueError):
            mm_rhs(s, 1e-8)

    # adaptive quadrature (scipy.integrate.quad, tolerances 1e-10) of the
    # two integrals on 96-point states evolved by evolve_spectral, at
    # xi = xi_0 (the first grid point), 1e-3, 0.1, 0.5 and 0.999
    RHS_REFERENCE = {
        ("xi-sq", 0.5): [0.0011459790402304497, 0.003208115586302529,
                         0.07233881504979897, 0.09648078428892756, 0.24607121248351513],
        ("xi-sq", 2.5): [0.1918580333481067, 0.457244888957822, 4.122994304520347,
                         7.309838357234817, 9.035651023209203],
        ("xi-cube", 0.5): [0.00043275668301351046, 0.0012210160585625295,
                           0.03204945520798436, 0.03615237791425445, 0.10264623145799617],
        ("xi-cube", 2.5): [0.07651226789316903, 0.18246721069740623, 1.659496836034786,
                           2.94701821057835, 3.6437732521438098],
    }

    @pytest.mark.parametrize("profile,tau", sorted(RHS_REFERENCE))
    def test_matches_adaptive_quadrature(self, smooth_profiles, profile, tau):
        # the fixed Gauss rules reproduce the adaptive values, small xi
        # (where log(1/xi) stretches the second integral) included
        s = evolve_spectral(make_state(smooth_profiles[profile]), tau)
        xis = [float(s.xi_grid[0]), 1e-3, 0.1, 0.5, 0.999]
        for xi, ref in zip(xis, self.RHS_REFERENCE[profile, tau]):
            assert abs(mm_rhs(s, xi) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_no_warning_on_fine_state(self, smooth_profiles):
        # a fixed rule has no convergence to report; adaptive quadrature
        # warned of roundoff on this 384-point state
        s = evolve_spectral(make_state(smooth_profiles["xi-sq"], n_points=384), 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (float(s.xi_grid[0]), 1e-3, 0.1, 0.5, 0.999, 1.0):
                assert math.isfinite(mm_rhs(s, xi))


class TestValidation:
    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    @pytest.mark.parametrize("evolve", [evolve_matrix, evolve_spectral])
    def test_non_finite_tau_rejected(self, smooth_profiles, evolve, tau):
        s = make_state(smooth_profiles["xi-sq"], n_points=16)
        with pytest.raises(ValueError):
            evolve(s, tau)

    def test_overflowing_growth_raises(self, smooth_profiles):
        # kappa >= -4 log 2 bounds the growth by 16^dtau; both backends refuse
        # a step whose bound overflows before any work
        s = make_state(smooth_profiles["xi-sq"], n_points=8)
        for evolve in (evolve_matrix, evolve_spectral):
            for tau in (600.0, 1e6):
                with pytest.raises(OverflowError):
                    evolve(s, tau)

    def test_non_finite_result_raises(self, smooth_profiles, monkeypatch):
        # a step within the growth bound whose exponential still comes back
        # non-finite is reported, not returned
        import kab.evolution

        s = make_state(smooth_profiles["xi-sq"], n_points=8)
        monkeypatch.setattr(
            kab.evolution, "_krylov_exp", lambda product, v, dtau: np.full_like(v, np.nan)
        )
        with pytest.raises(RuntimeError, match="evolve_matrix:"):
            evolve_matrix(s, 1.0, n_trunc=32)
        monkeypatch.setattr(
            kab.evolution, "lipatov_kappa", lambda k: np.full_like(k, -np.inf)
        )
        with pytest.raises(RuntimeError, match="evolve_spectral:"):
            evolve_spectral(s, 1.0)


class TestProjection:
    @pytest.mark.parametrize("n_points,n_trunc", [(32, 128), (96, 128), (96, 32)])
    def test_right_sized_matches_full_rule(self, n_points, n_trunc):
        # the points-node rule integrates the degree points - 1 interpolant
        # exactly, so it reproduces the 2 n_trunc-node projection; the profile
        # is not a polynomial, so every mode of the interpolant is populated
        s = make_state(lambda t: t**1.5 * (1.0 - t), n_points)
        f = state_interpolant(s)

        def phi0(x):
            xi = 0.5 * (1.0 + x)
            return f(xi) / xi

        full = project(phi0, n_trunc)
        right = _state_coeffs(s, n_trunc)
        assert right.shape == (n_trunc,)
        assert np.all(right[n_points:] == 0.0)
        assert np.max(np.abs(right - full)) <= 1e-12 * np.max(np.abs(full))

    @pytest.mark.parametrize("n_points,n_trunc", [(96, 192), (300, 600), (1000, 2000)])
    @pytest.mark.parametrize("cells", [None, 1, 3 * 96 + 5])
    def test_blocks_bitwise(self, monkeypatch, smooth_profiles, n_points, n_trunc, cells):
        # the Vandermonde goes a block of degrees at a time (one degree with
        # cells = 1); every block size gives the bits of the one-array sum
        import kab.operators
        from numpy.polynomial import legendre as npleg
        from kab.specfun import _gauss_nodes

        s = make_state(smooth_profiles["xi-sq"], n_points)
        f, nodes = state_interpolant(s), s.xi_grid.size
        x, w = _gauss_nodes(nodes)
        xi = 0.5 * (1.0 + x)
        vander = npleg.legvander(x, nodes - 1) * np.sqrt(np.arange(nodes) + 0.5)
        whole = (vander * (w * (f(xi) / xi))[:, None]).sum(axis=0)
        if cells is not None:
            monkeypatch.setattr(kab.operators, "_BLOCK_CELLS", cells)
        coeffs = _state_coeffs(s, n_trunc)
        assert coeffs[:nodes].tobytes() == whole.tobytes()

    def test_largest_grid_memory_bounded(self, smooth_profiles):
        # 4097 modes on the 4097-node rule, a block of degrees at a time:
        # the whole Vandermonde and its weighted copy took 256 MiB
        s = make_state(smooth_profiles["xi-sq"], n_points=4096)
        coeffs, peak = traced_peak(_state_coeffs, s, 8192)
        assert peak <= 8 * 2**20
        assert np.all(np.isfinite(coeffs))


class TestK01Product:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 100, 960, 1920])
    def test_matches_dense(self, n):
        # the FFT product against the dense Galerkin matrix of K_01; every
        # mode is populated, with sizes spread over four decades
        x = np.random.default_rng(n).standard_normal(n) * np.logspace(0, -4, n)
        ref = galerkin_matrix(OperatorParams(0.0, 1.0), n) @ x
        out = _galerkin_product(K01, n)(x)
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 7, 960])
    def test_size_n_is_leading_block_of_2n(self, n):
        # the size-N step applies the leading N x N block of the size-2N matrix
        x = np.random.default_rng(n).standard_normal(n)
        ref = galerkin_matrix(OperatorParams(0.0, 1.0), 2 * n)[:n, :n] @ x
        out = _galerkin_product(K01, n)(x)
        assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_memory_bounded(self):
        # the plan holds O(n log n) doubles: at the largest size 2N = 8192 the
        # plan and one product stay within 4 MB, where the packed matrix
        # took 268 MB
        x = np.ones(8192)
        _cauchy_product.cache_clear()
        _, peak = traced_peak(lambda: _galerkin_product(K01, 8192)(x))
        _cauchy_product.cache_clear()
        assert peak <= 4 * 2**20


class TestKrylovExp:
    @pytest.mark.parametrize("n", [64, 1920])
    def test_matches_dense_eigh(self, smooth_profiles, n):
        # exp(-tau K) c from the full eigendecomposition of the dense K; both
        # sides carry rounding of order tau |K| eps, 3e-13 at tau = 100
        lam, vec = np.linalg.eigh(galerkin_matrix(OperatorParams(0.0, 1.0), n))
        product = _galerkin_product(K01, n)
        c = _state_coeffs(make_state(smooth_profiles["xi-sq"]), n)
        for tau in (0.25, 1.0, 2.5, 10.0, 100.0):
            ref = vec @ (np.exp(-tau * lam) * (vec.T @ c))
            err = np.max(np.abs(_krylov_exp(product, c, tau) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), tau

    def test_zero_vector(self):
        out = _krylov_exp(_galerkin_product(K01, 64), np.zeros(64), 1.0)
        assert np.array_equal(out, np.zeros(64))

    def test_exhausted_space_is_exact(self):
        # at n = 1 the Krylov space is the whole space after one step
        out = _krylov_exp(lambda x: 0.7 * x, np.array([2.0]), 1.5)
        assert out == pytest.approx([2.0 * math.exp(-1.05)], rel=1e-15)
        # and n_trunc = 1 runs both sizes (1 and 2) on exhausted spaces; two
        # modes cannot hold the profile, which the truncation estimate says:
        # it reads 2.07 times the error against the spectral backend
        s = make_state(lambda t: t * t * (1.0 - t), n_points=16)
        out = evolve_matrix(s, 0.25, n_trunc=1)
        assert np.all(np.isfinite(out.u_values))
        err = np.max(np.abs(out.u_values - evolve_spectral(s, 0.25).u_values))
        assert err / 4 <= out.meta["truncation_estimate"] <= 4 * err

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize(
        "n_points,n_trunc", [(128, 64), (128, 100), (512, 200), (512, 480)]
    )
    def test_estimate_tracks_unresolved_state(
        self, smooth_profiles, n_points, n_trunc, tau
    ):
        # an evolved state carries Legendre modes beyond 0.9 N at these sizes;
        # the truncation estimate reads 0.43 to 1.01 times the error against
        # the spectral backend, so it reports the unresolved tail itself
        s = evolve_spectral(make_state(smooth_profiles["xi-sq"], n_points), 0.5)
        out = evolve_matrix(s, 0.5 + tau, n_trunc=n_trunc)
        err = np.max(np.abs(out.u_values - evolve_spectral(s, 0.5 + tau).u_values))
        assert err / 4 <= out.meta["truncation_estimate"] <= 4 * err

    def test_no_convergence_raises(self, monkeypatch):
        # the step cap is reported with the step and the matrix size
        import kab.evolution

        monkeypatch.setattr(kab.evolution, "_KRYLOV_MAX_STEPS", 3)
        c = _state_coeffs(make_state(lambda t: t * t * (1.0 - t)), 64)
        with pytest.raises(RuntimeError, match=r"dtau=1.*64"):
            _krylov_exp(_galerkin_product(K01, 64), c, 1.0)

    def test_long_step_is_prompt(self, smooth_profiles):
        # the Lanczos cost stops growing with tau (41 steps at 2N = 1920 from
        # tau = 10 on); the default N reaches tau = 200 in well under a second
        s = make_state(smooth_profiles["xi-sq"])
        start = time.perf_counter()
        out = evolve_matrix(s, 200.0)
        assert time.perf_counter() - start < 5.0
        assert np.all(np.isfinite(out.u_values))


class TestMatrixBackend:
    def test_identity_at_zero_step(self, smooth_profiles):
        s = make_state(smooth_profiles["xi-sq"])
        out = evolve_matrix(s, 0.0, n_trunc=64)
        assert np.max(np.abs(out.u_values - s.u_values)) < 1e-10

    def test_short_step_matches_rhs(self, smooth_profiles):
        # first-order check: (u(dtau) - u(0))/dtau ~ mm_rhs
        s = make_state(smooth_profiles["xi-sq"])
        dtau = 1e-4
        out = evolve_matrix(s, dtau, n_trunc=128)
        f = state_interpolant(out)
        for xi in (0.3, 0.6):
            fd = (float(f(xi)) - xi**2 * (1.0 - xi)) / dtau
            assert fd == pytest.approx(mm_rhs(s, xi), abs=2e-3)

    def test_growth_rate(self, smooth_profiles):
        # the total multiplicity integral grows; the slowest mode sets the
        # asymptotic rate exp(4 log 2 tau)
        s = make_state(smooth_profiles["xi-sq"])
        out = evolve_matrix(s, 1.0)
        w = np.trapezoid(out.u_values, out.xi_grid) / np.trapezoid(
            s.u_values, s.xi_grid
        )
        assert w > 1.0

    @pytest.mark.parametrize("tau", [1.0, 10.0])
    def test_independent_of_global_rng(self, smooth_profiles, tau):
        # no part of the step draws random numbers (the Lanczos exponential
        # starts from the state's own coefficients); it must neither depend
        # on numpy's global RNG nor change it
        s = make_state(smooth_profiles["xi-sq"], n_points=16)
        outs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            outs.append(evolve_matrix(s, tau, n_trunc=64).u_values)
            after = np.random.get_state()
            assert np.array_equal(before[1], after[1])
            assert before[:1] + before[2:] == after[:1] + after[2:]
        assert np.array_equal(outs[0], outs[1])

    def test_largest_truncation_prompt_and_bounded(self, smooth_profiles):
        # n_trunc = 4096 steps at 2N = 8192 from cold plans, with no matrix of
        # that size (the packed one took 268 MB): the Lanczos bases dominate.
        # Each grows with the steps taken (7.1 MB at peak here), where one
        # reserved for 200 steps took 16.6 MB
        s = make_state(smooth_profiles["xi-sq"])
        _cauchy_product.cache_clear()
        start = time.perf_counter()
        evolve_matrix(s, 1.0, n_trunc=4096)
        elapsed = time.perf_counter() - start
        _cauchy_product.cache_clear()
        out, peak = traced_peak(evolve_matrix, s, 1.0, n_trunc=4096)
        assert elapsed < 1.0
        assert peak <= 10 * 2**20
        assert np.all(np.isfinite(out.u_values))

    def test_meta(self, smooth_profiles):
        s = make_state(smooth_profiles["xi-sq"])
        out = evolve_matrix(s, 0.25)
        assert out.meta["backend"] == "matrix"
        assert out.meta["truncation_estimate"] < 1e-3


class TestSpectralBackend:
    @pytest.mark.parametrize("tau", [0.25, 1.0, 2.5, 10.0])
    def test_doubled_resolution_agrees(self, smooth_profiles, tau):
        # S and n doubled keep the s-spacing and double the period, so the
        # periodic images of the decay kernel move twice as far away; every
        # grid point counts, xi = 1 and xi < 0.05 included
        s_max, n = _abel_grid(tau)
        for profile in smooth_profiles.values():
            s = make_state(profile)
            u = evolve_spectral(s, tau).u_values
            u2 = _abel_fourier_step(s, tau, 2.0 * s_max, 2 * n)
            assert np.max(np.abs(u - u2)) <= 1e-10 * np.max(np.abs(u2))

    def test_identity_at_zero_step(self, smooth_profiles):
        # Abel transform, unit multiplier and inverse Abel transform
        for profile in smooth_profiles.values():
            s = make_state(profile)
            out = evolve_spectral(s, 0.0)
            assert np.max(np.abs(out.u_values - s.u_values)) <= 1e-12

    @pytest.mark.parametrize("tau", [0.5, 10.0])
    def test_meta_states_resolution(self, smooth_profiles, tau):
        s = make_state(smooth_profiles["xi-sq"], n_points=16)
        meta = evolve_spectral(s, tau).meta
        s_max, n = _abel_grid(tau)
        assert meta["backend"] == "spectral"
        assert (meta["s_max"], meta["n_fft"]) == (s_max, n)
        assert meta["abel_nodes"] > 0
        assert not {"k_max", "dk", "t_max", "tail_estimate"} & set(meta)

    def test_grid_fixed_up_to_moderate_tau(self):
        # the step costs the same for every tau up to 2.5; beyond, the period
        # grows with the reach of the decay kernel
        assert _abel_grid(0.0) == _abel_grid(0.25) == _abel_grid(2.5)
        assert _abel_grid(10.0)[0] > _abel_grid(2.5)[0]

    @pytest.mark.parametrize("tau", [12.0, 40.0])
    def test_large_tau_passes_vanish_check(self, smooth_profiles, tau):
        # the slowest mode, ~ sqrt(xi) log(1/xi) near 0, dominates here:
        # u(xi0)/max|u| is 0.049 at tau = 12 and 0.055 at tau = 40
        s = make_state(smooth_profiles["xi-sq"])
        u = evolve_spectral(s, tau).u_values
        assert 0.04 < abs(u[0]) / np.max(np.abs(u)) < 0.06

    @pytest.mark.parametrize(
        "evolve,tau", [(evolve_matrix, 2.5), (evolve_spectral, 2.5), (evolve_spectral, 40.0)]
    )
    def test_tiny_first_node_passes_vanish_check(self, smooth_profiles, evolve, tau):
        # a first node at 1e-12 is off default_xi_grid(96), whose least node
        # 2.7e-4 keeps the vanish bound at 0.18, so the state is refused
        # before either backend runs
        xi = default_xi_grid(96)
        xi[0] = 1e-12
        msg = r"xi_grid\[0\] = 9.9999999999999998e-13 is off default_xi_grid\(96\)"
        with pytest.raises(ValueError, match=msg):
            evolve(EvolutionState(0.0, xi, smooth_profiles["xi-sq"](xi)), tau)

    def test_largest_grid_memory(self, smooth_profiles):
        # one step on the largest grid, its plan built, stays within 50 MB of
        # traced memory
        s = make_state(smooth_profiles["xi-sq"], n_points=4096)
        _abel_plan.cache_clear()
        _, peak = traced_peak(evolve_spectral, s, 0.5)
        assert peak < 50e6

    def test_point_beyond_the_period_raises(self, smooth_profiles):
        # xi = 1e-40 would sit at r = 2 arcsinh(1e20) ~ 92 > S, where no Abel
        # integral reaches; no state holds it, as every default_xi_grid node
        # has r < 17.2 < S = 60
        xi = np.concatenate(([1e-40], default_xi_grid(16)))
        msg = r"xi_grid\[0\] = 9.9+3e-41 is off default_xi_grid\(17\)"
        with pytest.raises(ValueError, match=msg):
            EvolutionState(tau=0.0, xi_grid=xi, u_values=smooth_profiles["xi-sq"](xi))
        xi0 = default_xi_grid(4096)[0]
        assert 2.0 * math.asinh(math.sqrt((1.0 - xi0) / xi0)) < 17.2
        assert _abel_grid(0.0)[0] == 60.0


def _interpolant_clenshaw_step(state, dtau, s_max, n):
    """The spectral step without a plan, the oracle for _abel_plan: the
    forward Abel transform of the state's interpolant evaluated at every
    node of the rule, and the sine series of A' summed at every node of
    the inverse rule by Clenshaw's recurrence."""
    xi = state.xi_grid
    r = 2.0 * np.arcsinh(np.sqrt((1.0 - xi) / xi))
    half = n // 2
    s = (s_max / half) * np.arange(half + 1)
    a, _ = _abel_transform(state_interpolant(state), s, s_max)
    k = (math.pi / s_max) * np.arange(half + 1)
    a_hat = np.fft.rfft(np.concatenate((a, a[-2:0:-1]))).real
    b = (-2.0 / n) * k * a_hat * np.exp(-lipatov_kappa(k) * dtau)
    b[-1] *= 0.5
    u = np.empty(r.size)
    for rows, t, weight in _abel_blocks(r, s_max, _ABEL_PANELS):
        theta = (math.pi / s_max) * t
        c1, _ = _clenshaw(b, 2.0 * np.cos(theta))
        u[rows] = np.sum(weight * c1 * np.sin(theta), axis=1)
    return u / -math.pi


class TestAbelPlan:
    @pytest.mark.parametrize("n_points", [96, 200, 1000])
    @pytest.mark.parametrize("dtau", [0.25, 2.5, 10.0])
    def test_matches_interpolant_clenshaw_step(self, smooth_profiles, n_points, dtau):
        # the plan's two products against the same rule applied to the
        # interpolant and summed by Clenshaw: 1.3e-14 of max|u| at worst
        s_max, n = _abel_grid(dtau)
        for profile in smooth_profiles.values():
            s = make_state(profile, n_points)
            want = _interpolant_clenshaw_step(s, dtau, s_max, n)
            got = _abel_fourier_step(s, dtau, s_max, n)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_built_once_per_grid(self, smooth_profiles):
        # a step on a grid pair with a plan builds nothing, whatever the
        # profile or the step up to 2.5; another state grid or s-grid builds
        _abel_plan.cache_clear()
        s = make_state(smooth_profiles["xi-sq"])
        evolve_spectral(s, 1.0)
        assert _abel_plan.cache_info()[:2] == (0, 1)  # (hits, misses)
        evolve_spectral(make_state(smooth_profiles["xi-cube"]), 2.5)
        evolve_spectral(evolve_spectral(s, 0.5), 2.0)
        assert _abel_plan.cache_info()[:2] == (3, 1)
        evolve_spectral(make_state(smooth_profiles["xi-sq"], n_points=64), 1.0)
        evolve_spectral(s, 10.0)
        assert _abel_plan.cache_info()[:2] == (3, 3)

    def test_plan_read_only(self, smooth_profiles):
        s = make_state(smooth_profiles["xi-sq"], n_points=16)
        for a in _abel_plan(s.xi_grid.tobytes(), *_abel_grid(1.0)):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_plan_memory_bounded(self, smooth_profiles):
        # the plan holds (n + 1) points doubles, 78 MB at 4096 points and
        # dtau = 64 (n = 2368); its build adds blocks of at most a quarter of
        # _BLOCK_CELLS cells (5 MB above the plan in all)
        s = make_state(smooth_profiles["xi-sq"], n_points=4096)
        n = _abel_grid(64.0)[1]
        _abel_plan.cache_clear()
        try:
            out, peak = traced_peak(evolve_spectral, s, 64.0)
        finally:
            _abel_plan.cache_clear()
        assert peak <= 8 * (n + 1) * 4096 + 8 * 2**20
        assert np.all(np.isfinite(out.u_values))


class TestBackendAgreement:
    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
    def test_two_routes_agree(self, smooth_profiles, tau):
        # V-1: matrix and spectral evolution agree on xi in [0.05, 0.95]
        s = make_state(smooth_profiles["xi-sq"])
        um = evolve_matrix(s, tau)
        us = evolve_spectral(s, tau)
        mask = (s.xi_grid >= 0.05) & (s.xi_grid <= 0.95)
        scale = float(np.max(np.abs(um.u_values[mask])))
        diff = np.max(np.abs(um.u_values[mask] - us.u_values[mask])) / scale
        assert diff < 1e-3

    def test_two_step_composition(self, smooth_profiles):
        # V-2: one step to tau = 1 equals two steps through tau = 0.5
        s = make_state(smooth_profiles["xi-sq"])
        mask = (s.xi_grid >= 0.05) & (s.xi_grid <= 0.95)

        one_m = evolve_matrix(s, 1.0)
        half_m = evolve_matrix(s, 0.5)
        two_m = evolve_matrix(half_m, 1.0)
        scale = float(np.max(np.abs(one_m.u_values[mask])))
        assert (
            np.max(np.abs(one_m.u_values[mask] - two_m.u_values[mask])) / scale < 1e-3
        )

        one_s = evolve_spectral(s, 1.0)
        half_s = evolve_spectral(s, 0.5)
        two_s = evolve_spectral(half_s, 1.0)
        scale = float(np.max(np.abs(one_s.u_values[mask])))
        assert (
            np.max(np.abs(one_s.u_values[mask] - two_s.u_values[mask])) / scale < 1e-3
        )

    def test_linearity(self, smooth_profiles):
        # V-3: evolution of a u1 + b u2 equals the same combination of the
        # separate evolutions (both solvers are linear; the spectral step
        # has no iteration, so it holds to rounding)
        xi = default_xi_grid(96)
        u1 = smooth_profiles["xi-sq"](xi)
        u2 = smooth_profiles["xi-cube"](xi)
        a, b = 2.0, -0.7
        tau = 0.4
        for evolve, bound in ((evolve_matrix, 1e-8), (evolve_spectral, 1e-12)):
            combo = evolve(
                EvolutionState(tau=0.0, xi_grid=xi, u_values=a * u1 + b * u2), tau
            )
            e1 = evolve(EvolutionState(tau=0.0, xi_grid=xi, u_values=u1), tau)
            e2 = evolve(EvolutionState(tau=0.0, xi_grid=xi, u_values=u2), tau)
            diff = np.max(np.abs(combo.u_values - a * e1.u_values - b * e2.u_values))
            assert diff < bound

    def test_eigenmode_pure_decay(self):
        # u = xi phi(k, xi) evolves by the exact factor exp(-kappa(k) dtau);
        # the xi^(1/2)-type envelope of the mode slows the Galerkin projection
        # and the 96-point interpolant both backends start from, so this is a
        # percent-level check rather than a tight one
        k = 1.0
        xi = default_xi_grid(96)
        u0 = xi * np.array([mm_eigenfunction(k, float(t)) for t in xi])
        s = EvolutionState(tau=0.0, xi_grid=xi, u_values=u0)
        dtau = 0.3
        factor = math.exp(-float(lipatov_kappa(k)) * dtau)
        mask = (xi >= 0.05) & (xi <= 0.95)
        for evolve in (evolve_matrix, evolve_spectral):
            out = evolve(s, dtau)
            diff = np.max(np.abs(out.u_values[mask] - factor * u0[mask])) / np.max(
                np.abs(factor * u0[mask])
            )
            assert diff < 2e-2
