"""The three exactly solvable members of the operator family.

K_{11} is diagonal on Legendre polynomials with eigenvalues 2 h_n (see module
operators).  K_{01} admits a commuting second order differential operator L
whose eigenfunctions are conical Legendre functions, so its spectral
decomposition is the Mehler-Fock transform.  K_{00} commutes with the first
order operator ell and is the function g(ell), diagonal on plane waves in the
variable u.
Mehler's integral and the forward Mehler-Fock transform's Abel transform
take their nodes from specfun._abel_blocks, the one rule for the kernel
1/sqrt|cosh t - cosh x|.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import special

from .operators import _U_CUT, OperatorParams, UGrid, apply_k_pointwise, galerkin_matrix
from .specfun import (
    _ABEL_PANELS,
    _ABEL_S_MAX,
    _BLOCK_CELLS,
    _PANEL_NODES,
    CONSTANTS,
    _abel_blocks,
    _check_finite,
    _check_positive,
    g_dispersion,
    lipatov_kappa,
)

__all__ = [
    "MehlerFockCoeffs",
    "mm_eigenfunction",
    "mm_k01_residual",
    "k00_eigenfunction",
    "apply_L",
    "apply_L_legendre",
    "mm_commutator_projections",
    "apply_ell",
    "verify_g_of_ell",
    "conical_legendre_grid",
    "mehler_fock_forward",
    "mehler_fock_inverse",
    "hyperbolic_similarity_check",
]

# Legendre-coefficient representations of 1 - x^2 and 1 + x
_ONE_MINUS_X2 = np.array([2.0 / 3.0, 0.0, -2.0 / 3.0])
_ONE_PLUS_X = np.array([1.0, 1.0])


@dataclass
class MehlerFockCoeffs:
    """Transform data c(k) on a uniform k-grid, with quadrature metadata.

    The spacings may differ by 1e-8 k_max: a grid written with 10
    significant digits and read back stays uniform.
    """

    k_grid: np.ndarray
    c: np.ndarray
    t_max: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.k_grid = np.asarray(self.k_grid, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        _check_finite("MehlerFockCoeffs", k_grid=self.k_grid, c=self.c, t_max=self.t_max)
        if self.k_grid.ndim != 1 or self.k_grid.size < 3:
            raise ValueError("MehlerFockCoeffs: k_grid must be 1-d with >= 3 points")
        steps = np.diff(self.k_grid)
        if self.k_grid[0] < 0 or np.any(steps <= 0):
            raise ValueError("MehlerFockCoeffs: k_grid must be increasing, starting >= 0")
        if np.ptp(steps) > 1e-8 * self.k_grid[-1]:
            raise ValueError("MehlerFockCoeffs: k_grid must be uniformly spaced")
        if self.c.shape != self.k_grid.shape:
            raise ValueError("MehlerFockCoeffs: c and k_grid shapes differ")

    def to_csv_rows(self):
        return [(float(k), float(c)) for k, c in zip(self.k_grid, self.c)]

    def to_json_dict(self) -> dict:
        return {
            "k": [float(v) for v in self.k_grid],
            "c": [float(v) for v in self.c],
            "t_max": self.t_max,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# conical Legendre functions P_{-1/2+ik} by Mehler's integral

#: the most panels one Mehler integral may take (k = 40 at t = 1e300 takes 1298)
_MAX_PANELS = 4096
#: the most wavenumbers one forward transform may take (the defaults take 801)
_MAX_K_POINTS = 1 << 16
#: r = acosh of the largest double; beyond it sinh overflows
_R_MAX = math.acosh(np.finfo(float).max)
_SQRT2_PI = math.sqrt(2.0) / math.pi


def _mehler_panels(kr, caller: str) -> np.ndarray:
    """Panels for a phase k s spanning kr: 40 nodes plus 1.5 per radian."""
    panels = np.ceil((40.0 + 1.5 * np.asarray(kr, dtype=float)) / _PANEL_NODES)
    worst = float(np.max(panels, initial=1.0))
    if worst > _MAX_PANELS:
        raise ValueError(
            f"{caller}: k * r = {float(np.max(kr)):.6g} needs {worst:.0f} "
            f"quadrature panels, above the cap of {_MAX_PANELS}"
        )
    return panels.astype(int)


def _xi_radius(where: str, xi) -> tuple[np.ndarray, np.ndarray]:
    """(xi, r) for points xi in (0, 1] as a 1-d array and r = acosh(2/xi - 1);
    a point outside, or one whose r passes _R_MAX (xi below ~1.1e-308),
    raises ValueError naming the function where and xi."""
    xa = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all((xa > 0) & (xa <= 1)):
        raise ValueError(f"{where}: xi must lie in (0, 1]")
    with np.errstate(over="ignore"):
        r = np.arccosh(2.0 / xa - 1.0)
    if not np.all(r <= _R_MAX):
        raise ValueError(
            f"{where}: xi={float(xa[r > _R_MAX][0])!r} puts r = acosh(2/xi - 1) "
            f"beyond {_R_MAX:.6g}"
        )
    return xa, r


def conical_legendre_grid(k, r) -> np.ndarray:
    """P_{-1/2+ik}(cosh r) for a vector of wavenumbers and radii at once.

    Shape (len(r), len(k)).  Mehler's integral P = (sqrt 2/pi) integral_0^r
    cos(k s) ds/sqrt(cosh r - cosh s) by specfun._abel_blocks toward 0, each
    row its own quadrature of _mehler_panels(max|k| r) panels (above
    _MAX_PANELS raises ValueError).  Within ~1e-14 of the envelope
    min(1, 1/sqrt(sinh r)) of mpmath; at large k r the rounding of r,
    ~eps k r of it, dominates.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not (np.all(np.isfinite(k)) and np.all((r >= 0) & (r <= _R_MAX))):
        raise ValueError(
            f"conical_legendre_grid: k must be finite and r lie in [0, {_R_MAX:.6g}]"
        )
    out = np.empty((r.size, k.size))
    panels = _mehler_panels(np.max(np.abs(k), initial=0.0) * r, "conical_legendre_grid")
    for rows, s, weight in _abel_blocks(r, 0.0, panels):
        step = max(1, _BLOCK_CELLS // s.size)  # cosines at once
        for j in range(0, k.size, step):
            cos = np.cos(k[j : j + step, None] * s[:, None])
            out[rows, j : j + step] = np.sum(weight[:, None] * cos, axis=-1)
    return _SQRT2_PI * out


# ---------------------------------------------------------------------------
# eigenfunctions


def mm_eigenfunction(k: float, xi) -> np.ndarray | float:
    """Continuum eigenfunction of K_{01}: phi(k, xi) = P_{-1/2+ik}(2/xi - 1)/xi.

    Real convention; xi * phi is the conical Legendre function itself.  Near
    xi = 0 the modulus grows like the xi^(-1/2) envelope (times log-periodic
    oscillation).  K_{01} phi = (kappa(k) + log 2) phi.  All points go
    through one conical_legendre_grid call, whose rows do not depend on each
    other, so a value does not depend on the other points of the call.
    """
    _check_finite("mm_eigenfunction", k=k)
    scalar = np.isscalar(xi)
    xa, r = _xi_radius("mm_eigenfunction", xi)
    _mehler_panels(abs(k) * r, "mm_eigenfunction")
    vals = conical_legendre_grid([k], r)[:, 0] / xa
    return float(vals[0]) if scalar else vals


def k00_eigenfunction(k: float, x) -> np.ndarray | complex:
    """Continuum eigenfunction of K_{00}: (1+x)^((ik-1)/2) (1-x)^(-(ik+1)/2).

    Satisfies ell phi = k phi and |phi|^2 = 1/(1 - x^2); its Schroedinger
    image is the plane wave e^{iku}.
    """
    _check_finite("k00_eigenfunction", k=k)
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(xa) < 1):
        raise ValueError("k00_eigenfunction: x must lie in (-1, 1)")
    val = np.exp(
        (1j * k - 1.0) / 2.0 * np.log1p(xa) - (1j * k + 1.0) / 2.0 * np.log1p(-xa)
    )
    return complex(val[0]) if scalar else val


def mm_k01_residual(k: float, x_points) -> np.ndarray:
    """Relative residual of K_{01} phi(k,.) = (kappa(k) + log 2) phi(k,.).

    Both sides take phi in u through apply_k_pointwise's rule, with
    xi = (1 + tanh u)/2 = expit(2u), so no xi is formed from a rounded x.
    |x| <= 0.95.
    """
    _check_finite("mm_k01_residual", k=k)
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if not np.all(np.abs(xs) <= 0.95):
        raise ValueError("mm_k01_residual: x_points must lie in [-0.95, 0.95]")
    # the farthest radius: xi = expit(-2 _U_CUT) at apply_k_pointwise's last node
    _mehler_panels(abs(k) * math.acosh(1.0 + 2.0 * math.exp(2.0 * _U_CUT)), "mm_k01_residual")
    phi_u = lambda u: mm_eigenfunction(k, special.expit(2.0 * u))
    lhs = apply_k_pointwise(OperatorParams(0.0, 1.0), phi_u, xs)
    rhs = (lipatov_kappa(k) + CONSTANTS.log2) * phi_u(np.arctanh(xs))
    return np.abs(lhs - rhs) / np.abs(rhs)


# ---------------------------------------------------------------------------
# differential operators L and ell

_FD5_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD5_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_derivs(phi, x: float):
    """(phi(x), phi'(x), phi''(x)) by 5-point central differences, with the
    endpoint-aware step h = 1e-3 (1 - |x|) that balances truncation against
    roundoff in the second derivative."""
    h = 1e-3 * (1.0 - abs(x))
    vals = np.array([phi(x + j * h) for j in (-2, -1, 0, 1, 2)])
    d1 = np.sum(_FD5_D1 * vals) / h
    d2 = np.sum(_FD5_D2 * vals) / (h * h)
    return vals[2], d1, d2


def apply_L(phi, x: float) -> float:
    """(L phi)(x) = (1+x)[(1-x^2)phi'' - 2x phi'] + (1-x^2)phi' - (1+x)phi.

    Derivatives by 5-point central differences (_fd_derivs).
    """
    if not -1.0 < x < 1.0:
        raise ValueError("apply_L: x must lie in (-1, 1)")
    f, d1, d2 = _fd_derivs(phi, x)
    return (1.0 + x) * ((1.0 - x * x) * d2 - 2.0 * x * d1) + (1.0 - x * x) * d1 - (
        1.0 + x
    ) * f


def apply_L_legendre(coeffs: np.ndarray) -> np.ndarray:
    """Exact action of L on a polynomial given by Legendre coefficients.

    L = (1+x)L0 + (1-x^2)d/dx - (1+x), with L0 = d/dx (1-x^2) d/dx, is the
    one member of (1+x)L0 + a(1-x^2)d/dx + b(1+x) that commutes with K_{01}
    (Sec. 3).  Its action is tridiagonal, L P_n = A_n P_{n+1} + B_n P_n +
    C_{n-1} P_{n-1} with A_n = -(n+1)^3/(2n+1) and C_{n-1} = -n^3/(2n+1),
    and L phi(k) = (-1/2 - 2k^2) phi(k) on K_{01}'s eigenfunctions.
    """
    c = np.asarray(coeffs, dtype=float)
    d1 = npleg.legder(c)
    d2 = npleg.legder(c, 2) if c.size > 2 else np.zeros(1)
    l0 = npleg.legmul(_ONE_MINUS_X2, d2)
    l0 = npleg.legsub(l0, 2.0 * npleg.legmul(np.array([0.0, 1.0]), d1))
    out = npleg.legmul(_ONE_PLUS_X, l0)
    out = npleg.legadd(out, npleg.legmul(_ONE_MINUS_X2, d1))
    out = npleg.legsub(out, npleg.legmul(_ONE_PLUS_X, c))
    return out


def mm_commutator_projections(n: int) -> tuple[float, float]:
    """Projections of [L, M] P_n onto P_{n+1} and P_{n-1} (M = K_{01} - log 2).

    [L, M] P_n = [L, 2H] P_n + C P_n with C = [L, log(1+x)] = 2(1-x^2) d/dx
    - 2x, and C P_n = R_n P_{n+1} + S_{n-1} P_{n-1} with R_n = -2(n+1)^2/(2n+1)
    and S_{n-1} = 2n^2/(2n+1); the P_{n+1} component is -2 A_n/(n+1) + R_n
    and the P_{n-1} component is 2 C_{n-1}/n + S_{n-1} (A_n, C_{n-1} of
    apply_L_legendre), both identically zero.  Computed here as entries of
    L G - G L, with L from its exact polynomial action on P_0 .. P_{n+3}
    rescaled to the orthonormal basis and G the Galerkin matrix of K_{01}
    that the solvers use, so the result tests the assembled machinery rather
    than the algebra alone.  L is tridiagonal, so the size-(n+4) truncation is exact for
    these two entries, and the constant log 2 of M commutes with L.
    """
    if n < 1:
        raise ValueError("mm_commutator_projections: n must be >= 1")
    size = n + 4
    ell = np.zeros((size, size))
    for m in range(size):
        col = apply_L_legendre(np.eye(m + 1)[m])[:size]
        ell[: col.size, m] = col
    norm = np.sqrt(np.arange(size) + 0.5)
    ell *= np.outer(1.0 / norm, norm)
    g = galerkin_matrix(OperatorParams(0.0, 1.0), size)
    comm = (ell @ g - g @ ell)[:, n] * norm / norm[n]
    return float(comm[n + 1]), float(comm[n - 1])


def apply_ell(phi, x: float, form: str = "direct") -> complex:
    """(ell phi)(x) with ell = i[-(1-x^2) d/dx + x].

    form='direct' uses that expression; form='factored' uses the equivalent
    -i sqrt(1-x^2) d/dx [sqrt(1-x^2) phi].
    """
    if not -1.0 < x < 1.0:
        raise ValueError("apply_ell: x must lie in (-1, 1)")
    if form == "direct":
        f, d1, _ = _fd_derivs(phi, x)
        return 1j * (-(1.0 - x * x) * d1 + x * f)
    if form == "factored":
        _, d1, _ = _fd_derivs(lambda t: math.sqrt(1.0 - t * t) * phi(t), x)
        return -1j * math.sqrt(1.0 - x * x) * d1
    raise ValueError(f"apply_ell: unknown form {form!r}")


# ---------------------------------------------------------------------------
# K00 = g(ell)


def verify_g_of_ell(phi, x_grid) -> float:
    """Max residual of K_{00} phi = g(ell) phi on the given x values.

    The right side is evaluated by mapping phi to Psi(u) = phi(tanh u)/cosh u,
    applying the Fourier multiplier g(p) on a periodic u-grid of 2048 points
    on [-24, 24], and mapping back; the left side by apply_k_pointwise on
    phi(tanh u), one call for all x.  phi must decay at the endpoints
    (plane-wave expandability), which is checked.
    """
    edge = 1.0 - 1e-8
    if max(abs(complex(phi(edge))), abs(complex(phi(-edge)))) > 1e-6:
        raise ValueError("verify_g_of_ell: test function must decay at x = +-1")
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if not np.all(np.abs(x_grid) < 1):
        raise ValueError("verify_g_of_ell: x_grid must lie inside (-1, 1)")
    grid = UGrid(24.0, 2048)
    u = grid.nodes
    psi = np.asarray(phi(np.tanh(u)), dtype=float) / np.cosh(u)
    chat = np.fft.fft(psi) / grid.m_points
    mult = chat * g_dispersion(grid.frequencies)
    utarget = np.arctanh(x_grid)
    # spectral interpolation of the multiplied series at arbitrary u
    phase = np.exp(1j * np.outer(utarget - u[0], grid.frequencies))
    rhs = np.real(phase @ mult) * np.cosh(utarget)
    lhs = apply_k_pointwise(OperatorParams(0.0, 0.0), lambda u: phi(np.tanh(u)), x_grid)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Mehler-Fock transform


# the integrand magnitude at s = S above which the forward transform raises,
# and the full- versus half-grid disagreement above which the inverse warns
_TAIL_TOL = 0.05
_INVERSE_WARN_TOL = 1e-6
#: the most s-nodes one forward transform may take (the defaults take 1147)
_MAX_S_NODES = 1 << 17


def _abel_transform(u, s: np.ndarray, s_max: float):
    """(A, F(s_max)): A(s_j) = integral_{s_j}^s_max F(t) dt/sqrt(cosh t - cosh s_j)
    by _abel_blocks, _ABEL_PANELS panels per row, F(t) = u(sech^2(t/2)) sinh t,
    at nodes s_j <= s_max.

    u takes a 1-d array and is called on at most _BLOCK_CELLS nodes at a
    time, t = s_max appended: F(s_max) measures what the cut leaves out.
    Each A(s_j) is summed on its own row, so no block changes a bit of it.
    """
    a = np.zeros(s.size)
    inner = np.flatnonzero(s < s_max)  # A(s_max) = 0
    for rows, t, weight in _abel_blocks(s[inner], s_max, _ABEL_PANELS):
        t = np.append(t, s_max)  # flat, F(s_max) last
        f = np.append(weight, 1.0) * np.sinh(t) * u(np.cosh(0.5 * t) ** -2.0)
        a[inner[rows]] = np.sum(f[:-1].reshape(weight.shape), axis=1)
    return a, float(f[-1])


def _clenshaw(a: np.ndarray, two_cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b_1, b_2) of Clenshaw's recurrence b_m = a_m + two_cos b_(m+1) - b_(m+2).

    For F_m = cos(phi + m theta) and two_cos = 2 cos theta, the series
    sum_m a_m F_m is F_0 (a_0 - b_2) + F_1 b_1; one cosine per node serves
    every term.
    """
    b1, b2 = np.zeros_like(two_cos), np.zeros_like(two_cos)
    for am in a[:0:-1]:
        b1, b2 = am + two_cos * b1 - b2, b1
    return b1, b2


def _simpson_weights(n: int) -> np.ndarray:
    """Weights of Simpson's rule on n >= 2 uniform points, in units of h/3.

    Odd n: [1, 4, 2, ..., 2, 4, 1].  Even n: that rule on the first n - 1
    points plus (-1, 8, 5)/4 on the last three (the parabola through them,
    integrated over the last interval), as scipy.integrate.simpson does;
    n = 2 is the trapezoid.
    """
    if n == 2:
        return np.array([1.5, 1.5])
    m = n - 1 + n % 2
    w = np.zeros(n)
    w[:m] = 2.0
    w[1:m:2] = 4.0
    w[[0, m - 1]] = 1.0
    if m < n:
        w[-3:] += np.array([-0.25, 2.0, 1.25])
    return w


def mehler_fock_forward(u_func, *, k_max: float = 40.0, dk: float = 0.05) -> MehlerFockCoeffs:
    """c(k) = k tanh(pi k) * integral_1^cosh S u(2/(1+t)) P_{-1/2+ik}(t) dt.

    With t = cosh r and F(r) = u(2/(1 + cosh r)) sinh r, Mehler's integral
    gives c(k) = k tanh(pi k) (sqrt 2/pi) integral_0^S cos(k s) A(s) ds, A
    the Abel transform (_abel_transform, S = 60; evolve_spectral's
    plan applies the same rule).
    A is smooth, even and decays, so the trapezoid rule converges
    geometrically (Trefethen & Weideman, SIAM Review 56, 2014) unless its
    sum at k aliases A's transform at 2 pi/ds - k, below rounding beyond 20:
    c takes 2n intervals, n = ceil(S (k_max + 20)/2 pi), summed over k by
    Clenshaw's recurrence; its gap to every second node is the r-quadrature
    estimate.  A tail estimate |F(S)| P_{-1/2}(cosh S) above _TAIL_TOL, or a
    c or estimate that is not finite, raises RuntimeError.  u_func takes
    arrays (one call at the defaults).  The k-grid is 0, dk, ..., k_max; a
    k_max/dk that is not whole, or more than _MAX_S_NODES s-nodes, raise
    ValueError before u_func is called.
    """
    _check_positive("mehler_fock_forward", k_max=k_max, dk=dk)
    steps = k_max / dk
    if not steps < _MAX_K_POINTS - 1:
        raise ValueError(
            f"mehler_fock_forward: k_max/dk = {steps:.10g} asks for more than the "
            f"{_MAX_K_POINTS} wavenumbers one transform may take"
        )
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(
            f"mehler_fock_forward: k_max/dk = {steps:.10g} must be a whole number, "
            "so that the grid keeps the spacing dk"
        )
    kg = np.linspace(0.0, k_max, round(steps) + 1)
    n = math.ceil(_ABEL_S_MAX * (k_max + 20.0) / (2.0 * math.pi))
    if 2 * n + 1 > _MAX_S_NODES:
        raise ValueError(
            f"mehler_fock_forward: k_max = {k_max:g} needs {2 * n + 1} s-nodes, "
            f"above the cap of {_MAX_S_NODES}"
        )
    a, f_end = _abel_transform(u_func, np.linspace(0.0, _ABEL_S_MAX, 2 * n + 1), _ABEL_S_MAX)
    # |P_{-1/2+ik}| <= P_{-1/2}, so the tail bounds |F(S) P_{-1/2+ik}(cosh S)|
    tail = abs(f_end) * float(conical_legendre_grid([0.0], [_ABEL_S_MAX])[0, 0])
    if tail > _TAIL_TOL:
        raise RuntimeError(
            f"mehler_fock_forward: integrand magnitude {tail:.3e} at s = {_ABEL_S_MAX:g} "
            f"exceeds tail tolerance {_TAIL_TOL:g}; u decays too slowly"
        )
    sums = []
    for m in (1, 2):  # the trapezoid rule on every node, then every second
        ds = m * _ABEL_S_MAX / (2 * n)
        coef, two_cos = ds * a[::m], 2.0 * np.cos(ds * kg)
        coef[[0, -1]] *= 0.5
        b1, b2 = _clenshaw(coef, two_cos)
        sums.append(_SQRT2_PI * kg * np.tanh(np.pi * kg) * (coef[0] - b2 + 0.5 * two_cos * b1))
    c, estimate = sums[0], float(np.max(np.abs(sums[0] - sums[1])))
    if not (np.all(np.isfinite(c)) and math.isfinite(estimate)):
        raise RuntimeError("mehler_fock_forward: coefficients or their estimate are not finite")
    meta = {"tail_estimate": tail, "r_quadrature_estimate": estimate, "s_max": _ABEL_S_MAX,
            "s_nodes": 2 * n + 1, "abel_nodes": _ABEL_PANELS * _PANEL_NODES}
    return MehlerFockCoeffs(kg, c, math.cosh(_ABEL_S_MAX), meta)


def mehler_fock_inverse(coeffs: MehlerFockCoeffs, xi):
    """u(xi) = integral_0^k_max P_{-1/2+ik}(2/xi - 1) c(k) dk.

    Simpson's rule on the stored uniform k-grid, inside Mehler's integral:
    on its nodes s (specfun._abel_blocks toward 0, the rule of
    conical_legendre_grid) the k-sum is a cosine series, summed by
    Clenshaw's recurrence.  Simpson on every other grid point is
    compared, with a warning beyond _INVERSE_WARN_TOL (under-resolved k-grid).
    """
    scalar = np.isscalar(xi)
    xa, r = _xi_radius("mehler_fock_inverse", xi)
    kg = coeffs.k_grid
    h = (kg[-1] - kg[0]) / (kg.size - 1)
    third = _SQRT2_PI * h / 3.0  # Mehler's factor sqrt 2/pi rides on the weights
    series = (
        (_simpson_weights(kg.size) * third * coeffs.c, h),
        (_simpson_weights((kg.size + 1) // 2) * (2.0 * third) * coeffs.c[::2], 2.0 * h),
    )
    # one Clenshaw pass over all nodes of a chunk of radii, <= _BLOCK_CELLS
    panels = _mehler_panels(kg[-1] * r, "mehler_fock_inverse")
    chunk = max(1, _BLOCK_CELLS // (_PANEL_NODES * int(np.max(panels, initial=1))))
    simps, coarse = np.empty(xa.size), np.empty(xa.size)
    for j in range(0, r.size, chunk):
        blocks = list(_abel_blocks(r[j : j + chunk], 0.0, panels[j : j + chunk]))
        rows = np.concatenate([np.repeat(i, s.shape[1]) for i, s, _ in blocks])
        s, weight = (np.concatenate([b[n].ravel() for b in blocks]) for n in (1, 2))
        for out, (a, step) in zip((simps, coarse), series):
            b1, b2 = _clenshaw(a, 2.0 * np.cos(step * s))
            terms = np.cos(kg[0] * s) * (a[0] - b2) + np.cos((kg[0] + step) * s) * b1
            out[j : j + chunk] = np.bincount(rows, weight * terms, r[j : j + chunk].size)
    if np.max(np.abs(simps - coarse)) > _INVERSE_WARN_TOL * max(
        1.0, float(np.max(np.abs(simps)))
    ):
        warnings.warn(
            "mehler_fock_inverse: full- and half-resolution Simpson estimates "
            "disagree; k-grid may be under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(simps[0]) if scalar else simps


# ---------------------------------------------------------------------------
# hyperbolic-plane identification


def hyperbolic_similarity_check(k: float, r_grid) -> float:
    """Max residual of (Delta_r + 1/4 + k^2) P_{-1/2+ik}(cosh r) = 0.

    Delta_r = d^2/dr^2 + coth(r) d/dr is the radial hyperbolic Laplacian; the
    derivatives are taken by 5-point central differences of step 5e-3, all
    stencil points in one conical_legendre_grid call.
    """
    _check_finite("hyperbolic_similarity_check", k=k)
    h = 5e-3
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    stencil = r_grid[:, None] + h * np.arange(-2, 3)
    if not np.all((r_grid > 2 * h) & (stencil[:, -1] <= _R_MAX)):
        raise ValueError(
            f"hyperbolic_similarity_check: r_grid must exceed the stencil width {2 * h:g} "
            f"and keep its stencil within {_R_MAX:.6g}"
        )
    _mehler_panels(abs(k) * stencil[:, -1], "hyperbolic_similarity_check")
    vals = conical_legendre_grid([k], stencil.ravel()).reshape(r_grid.size, 5)
    d1, d2 = vals @ _FD5_D1 / h, vals @ _FD5_D2 / (h * h)
    return float(np.max(np.abs(d2 + d1 / np.tanh(r_grid) + (0.25 + k * k) * vals[:, 2])))
