"""The three exactly solvable members of the operator family.

K_{11} is diagonal on Legendre polynomials with eigenvalues 2 h_n (see module
operators).  K_{01} admits a commuting second order differential operator L
whose eigenfunctions are conical Legendre functions, so its spectral
decomposition is the Mehler-Fock transform.  K_{00} commutes with the first
order operator ell and is the function g(ell), diagonal on plane waves in the
variable u.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import special

from .operators import OperatorParams, UGrid, apply_k_pointwise, galerkin_matrix
from .specfun import (
    _ABEL_NODES,
    _BLOCK_CELLS,
    CONSTANTS,
    _abel_rule,
    _check_finite,
    _clenshaw,
    _gauss_nodes,
    _simpson_weights,
    g_dispersion,
    lipatov_kappa,
)

__all__ = [
    "DiffOperatorL",
    "MehlerFockCoeffs",
    "mm_eigenfunction",
    "mm_k01_residual",
    "k00_eigenfunction",
    "apply_L",
    "apply_L_legendre",
    "apply_commutator_c_legendre",
    "mm_commutator_projections",
    "apply_ell",
    "verify_g_of_ell",
    "conical_legendre",
    "conical_legendre_grid",
    "hyp2f1_conical",
    "mehler_fock_forward",
    "mehler_fock_inverse",
    "hyperbolic_similarity_check",
]

# Legendre-coefficient representations of 1 - x^2 and 1 + x
_ONE_MINUS_X2 = np.array([2.0 / 3.0, 0.0, -2.0 / 3.0])
_ONE_PLUS_X = np.array([1.0, 1.0])


@dataclass(frozen=True)
class DiffOperatorL:
    """The second order operator L = (1+x)L0 + a(1-x^2)d/dx + b(1+x).

    Commutation with K_{01} forces a = 1, b = -1.  The action on Legendre
    polynomials is tridiagonal: L P_n = A_n P_{n+1} + B_n P_n + C_{n-1} P_{n-1}.
    """

    a: float = 1.0
    b: float = -1.0

    def coeff_a(self, n: int) -> float:
        """A_n = -(n+1)^3 / (2n+1) at (a, b) = (1, -1)."""
        return (
            -n * (n + 1.0) ** 2 - self.a * n * (n + 1.0) + self.b * (n + 1.0)
        ) / (2.0 * n + 1.0)

    def coeff_c(self, n: int) -> float:
        """C_{n-1} for index n >= 1; equals -n^3 / (2n+1) at (1, -1)."""
        if n < 1:
            raise ValueError("coeff_c: defined for n >= 1")
        return (
            -(n**2) * (n + 1.0) + self.a * n * (n + 1.0) + self.b * n
        ) / (2.0 * n + 1.0)

    @staticmethod
    def eigenvalue(k: float) -> float:
        """L phi(k,.) = lambda phi with lambda = -1/2 - 2k^2."""
        return -0.5 - 2.0 * k * k


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

#: Gauss-Legendre nodes per panel of the Mehler rule
_PANEL_NODES = 32
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


def _sqrt_rule(top: np.ndarray, panels: int):
    """(w, s, weight) of integral_0^top g(s) ds, s = top - w^2, rows following
    top: equal Gauss-Legendre panels in w over [0, sqrt(top)], ds = 2 w dw."""
    z, wz = _gauss_nodes(_PANEL_NODES)
    width = np.sqrt(top)[:, None] / panels
    w = width * (np.arange(panels)[:, None] + 0.5 * (z + 1.0)).ravel()
    return w, top[:, None] - w * w, width * np.tile(wz, panels) * w


def _mehler_blocks(r: np.ndarray, k_max: float, caller: str):
    """Yield (rows, s, weight): P_{-1/2+ik}(cosh r[rows]) = sum weight cos(k s)
    along the last axis, for |k| <= k_max.

    Mehler's integral P = (sqrt 2/pi) integral_0^r cos(k s) ds/sqrt(cosh r -
    cosh s) (DLMF 14.20; Koornwinder 1984) in w = sqrt(r - s), where the
    root sqrt(2 sinh(r - w^2/2) sinh(w^2/2)) vanishes like w, as ds does, so
    the integrand is smooth.  Radii with equal panel counts come together,
    at most _BLOCK_CELLS nodes at a time; r = 0 takes the node s = 0.
    """
    zero = np.nonzero(r == 0.0)[0]
    if zero.size:
        yield zero, np.zeros((zero.size, 1)), np.ones((zero.size, 1))
    panels = _mehler_panels(k_max * r, caller)
    for p in np.unique(panels[r > 0.0]):
        group = np.nonzero((panels == p) & (r > 0.0))[0]
        step = max(1, _BLOCK_CELLS // (p * _PANEL_NODES))
        for j in range(0, group.size, step):
            rows = group[j : j + step]
            w, s, weight = _sqrt_rule(r[rows], p)
            b = 0.5 * w * w
            # each root taken apart, so that no product overflows
            root = np.sqrt(2.0 * np.sinh(r[rows, None] - b)) * np.sqrt(np.sinh(b))
            yield rows, s, _SQRT2_PI * weight / root


def _cosine_sums(k: np.ndarray, s: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_j weight[i, j] cos(k_l s[i, j]), at most _BLOCK_CELLS cosines at once."""
    out = np.empty((s.shape[0], k.size))
    step = max(1, _BLOCK_CELLS // s.size)
    for j in range(0, k.size, step):
        cos = np.cos(k[j : j + step, None] * s[:, None])
        out[:, j : j + step] = np.sum(weight[:, None] * cos, axis=-1)
    return out


def conical_legendre_grid(k, r) -> np.ndarray:
    """P_{-1/2+ik}(cosh r) for a vector of wavenumbers and radii at once.

    Shape (len(r), len(k)).  Mehler's integral (_mehler_blocks), each row its
    own quadrature of _mehler_panels(max|k| r) panels (above _MAX_PANELS
    raises ValueError).  Within ~1e-14 of the envelope min(1, 1/sqrt(sinh r))
    of mpmath; at large k r the rounding of r, ~eps k r of it, dominates.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not (np.all(np.isfinite(k)) and np.all((r >= 0) & (r <= _R_MAX))):
        raise ValueError(
            f"conical_legendre_grid: k must be finite and r lie in [0, {_R_MAX:.6g}]"
        )
    out = np.empty((r.size, k.size))
    k_max = float(np.max(np.abs(k), initial=0.0))
    for rows, s, weight in _mehler_blocks(r, k_max, "conical_legendre_grid"):
        out[rows] = _cosine_sums(k, s, weight)
    return out


def conical_legendre(k: float, t: float) -> float:
    """Conical Legendre function P_{-1/2+ik}(t) for t >= 1 and real k.

    The one-radius view of conical_legendre_grid at r = acosh t (exactly 1
    at t = 1).
    """
    _check_finite(k, t)
    if t < 1.0:
        raise ValueError(f"conical_legendre: t={t} < 1 outside the domain")
    return float(conical_legendre_grid([k], [math.acosh(t)])[0, 0])


def hyp2f1_conical(k: float, z: float) -> complex:
    """F(1/2 + ik, 1/2 + ik; 1; z) for 0 <= z < 1.

    Power series for z <= 0.75; closer to the unit argument the series is
    only conditionally useful, so the value is routed through the conical
    Legendre function via x^(-1/2-ik) P_{-1/2+ik}(2/x - 1) with x = 1 - z.
    """
    _check_finite(k, z)
    if z < 0.0 or z >= 1.0:
        raise ValueError(f"hyp2f1_conical: z={z} outside [0, 1)")
    if z == 0.0:
        return 1.0 + 0.0j
    if z <= 0.75:
        a = 0.5 + 1j * k
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        small = 0
        for j in range(0, 100000):
            term *= (a + j) * (a + j) / ((j + 1.0) * (j + 1.0)) * z
            total += term
            if abs(term) < 1e-16 * abs(total):
                small += 1
                if small >= 3:
                    break
            else:
                small = 0
        return total
    x = 1.0 - z
    p = conical_legendre(k, 2.0 / x - 1.0)
    return p * np.exp((-0.5 - 1j * k) * math.log(x))


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
    scalar = np.isscalar(xi)
    xa = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xa <= 0) or np.any(xa > 1):
        raise ValueError("mm_eigenfunction: xi must lie in (0, 1]")
    vals = conical_legendre_grid([k], np.arccosh(2.0 / xa - 1.0))[:, 0] / xa
    return float(vals[0]) if scalar else vals


def k00_eigenfunction(k: float, x) -> np.ndarray | complex:
    """Continuum eigenfunction of K_{00}: (1+x)^((ik-1)/2) (1-x)^(-(ik+1)/2).

    Satisfies ell phi = k phi and |phi|^2 = 1/(1 - x^2); its Schroedinger
    image is the plane wave e^{iku}.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xa) >= 1):
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
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if np.any(np.abs(xs) > 0.95):
        raise ValueError("mm_k01_residual: |x| must be <= 0.95")
    phi_u = lambda u: mm_eigenfunction(k, special.expit(2.0 * u))
    lhs = apply_k_pointwise(OperatorParams(0.0, 1.0), phi_u, xs)
    rhs = (lipatov_kappa(k) + CONSTANTS.log2) * phi_u(np.arctanh(xs))
    return np.abs(lhs - rhs) / np.abs(rhs)


# ---------------------------------------------------------------------------
# differential operators L, C and ell

_FD5_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD5_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _fd_derivs(phi, x: float, h: float):
    """(phi(x), phi'(x), phi''(x)) by 5-point central differences of step h."""
    vals = np.array([phi(x + j * h) for j in (-2, -1, 0, 1, 2)])
    d1 = np.sum(_FD5_D1 * vals) / h
    d2 = np.sum(_FD5_D2 * vals) / (h * h)
    return vals[2], d1, d2


def apply_L(phi, x: float, h: float | None = None) -> float:
    """(L phi)(x) = (1+x)[(1-x^2)phi'' - 2x phi'] + (1-x^2)phi' - (1+x)phi.

    Derivatives by 5-point central differences with an endpoint-aware step.
    """
    if not -1.0 < x < 1.0:
        raise ValueError("apply_L: x must lie in (-1, 1)")
    # balance truncation vs roundoff for the second derivative
    hh = h if h is not None else 1e-3 * (1.0 - abs(x))
    f, d1, d2 = _fd_derivs(phi, x, hh)
    return (1.0 + x) * ((1.0 - x * x) * d2 - 2.0 * x * d1) + (1.0 - x * x) * d1 - (
        1.0 + x
    ) * f


def apply_L_legendre(coeffs: np.ndarray) -> np.ndarray:
    """Exact action of L on a polynomial given by Legendre coefficients."""
    c = np.asarray(coeffs, dtype=float)
    d1 = npleg.legder(c)
    d2 = npleg.legder(c, 2) if c.size > 2 else np.zeros(1)
    l0 = npleg.legmul(_ONE_MINUS_X2, d2)
    l0 = npleg.legsub(l0, 2.0 * npleg.legmul(np.array([0.0, 1.0]), d1))
    out = npleg.legmul(_ONE_PLUS_X, l0)
    out = npleg.legadd(out, npleg.legmul(_ONE_MINUS_X2, d1))
    out = npleg.legsub(out, npleg.legmul(_ONE_PLUS_X, c))
    return out


def apply_commutator_c_legendre(coeffs: np.ndarray) -> np.ndarray:
    """Exact action of C = [L, log(1+x)] = 2(1-x^2) d/dx - 2x on a polynomial.

    C P_n = R_n P_{n+1} + S_{n-1} P_{n-1} with R_n = -2(n+1)^2/(2n+1) and
    S_{n-1} = 2n^2/(2n+1).
    """
    c = np.asarray(coeffs, dtype=float)
    d1 = npleg.legder(c)
    out = 2.0 * npleg.legmul(_ONE_MINUS_X2, d1)
    return npleg.legsub(out, 2.0 * npleg.legmul(np.array([0.0, 1.0]), c))


def mm_commutator_projections(n: int) -> tuple[float, float]:
    """Projections of [L, M] P_n onto P_{n+1} and P_{n-1} (M = K_{01} - log 2).

    [L, M] P_n = [L, 2H] P_n + C P_n; the P_{n+1} component is
    -2 A_n/(n+1) + R_n and the P_{n-1} component is 2 C_{n-1}/n + S_{n-1},
    both identically zero.  Computed here as entries of L G - G L, with L
    from its exact polynomial action on P_0 .. P_{n+3} rescaled to the
    orthonormal basis and G the Galerkin matrix of K_{01} that the solvers
    use, so the result tests the assembled machinery rather than the algebra
    alone.  L is tridiagonal, so the size-(n+4) truncation is exact for
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


def apply_ell(phi, x: float, form: str = "direct", h: float | None = None) -> complex:
    """(ell phi)(x) with ell = i[-(1-x^2) d/dx + x].

    form='direct' uses that expression; form='factored' uses the equivalent
    -i sqrt(1-x^2) d/dx [sqrt(1-x^2) phi].
    """
    if not -1.0 < x < 1.0:
        raise ValueError("apply_ell: x must lie in (-1, 1)")
    hh = h if h is not None else 1e-3 * (1.0 - abs(x))
    if form == "direct":
        f, d1, _ = _fd_derivs(phi, x, hh)
        return 1j * (-(1.0 - x * x) * d1 + x * f)
    if form == "factored":
        _, d1, _ = _fd_derivs(lambda t: math.sqrt(1.0 - t * t) * phi(t), x, hh)
        return -1j * math.sqrt(1.0 - x * x) * d1
    raise ValueError(f"apply_ell: unknown form {form!r}")


# ---------------------------------------------------------------------------
# K00 = g(ell)


def verify_g_of_ell(
    phi,
    x_grid,
    u_max: float = 24.0,
    m_points: int = 2048,
) -> float:
    """Max residual of K_{00} phi = g(ell) phi on the given x values.

    The right side is evaluated by mapping phi to Psi(u) = phi(tanh u)/cosh u,
    applying the Fourier multiplier g(p) on a periodic u-grid, and mapping
    back; the left side by apply_k_pointwise on phi(tanh u), one call for
    all x.  phi must decay at the endpoints (plane-wave expandability),
    which is checked.
    """
    edge = 1.0 - 1e-8
    if max(abs(complex(phi(edge))), abs(complex(phi(-edge)))) > 1e-6:
        raise ValueError("verify_g_of_ell: test function must decay at x = +-1")
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if np.any(np.abs(x_grid) >= 1):
        raise ValueError("verify_g_of_ell: x_grid must lie inside (-1, 1)")
    grid = UGrid(u_max, m_points)
    u = grid.nodes
    psi = np.asarray(phi(np.tanh(u)), dtype=float) / np.cosh(u)
    chat = np.fft.fft(psi) / m_points
    mult = chat * g_dispersion(grid.frequencies)
    utarget = np.arctanh(x_grid)
    # spectral interpolation of the multiplied series at arbitrary u
    phase = np.exp(1j * np.outer(utarget - u[0], grid.frequencies))
    rhs = np.real(phase @ mult) * np.cosh(utarget)
    lhs = apply_k_pointwise(OperatorParams(0.0, 0.0), lambda u: phi(np.tanh(u)), x_grid)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Mehler-Fock transform


def _default_k_grid(k_max: float, dk: float) -> np.ndarray:
    for name, v in (("k_max", k_max), ("dk", dk)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(
                f"mehler_fock_forward: {name}={v} must be positive and finite"
            )
    n = k_max / dk
    if not n < _MAX_K_POINTS - 1:
        raise ValueError(
            f"mehler_fock_forward: k_max/dk = {n:.10g} asks for more than the "
            f"{_MAX_K_POINTS} wavenumbers one transform may take"
        )
    if abs(n - round(n)) > 1e-9 * n:
        raise ValueError(
            f"mehler_fock_forward: k_max/dk = {n:.10g} must be a whole number, "
            "so that the grid keeps the spacing dk"
        )
    return np.linspace(0.0, k_max, round(n) + 1)


# the integrand magnitude at t_max above which the forward transform raises,
# and the full- versus half-grid disagreement above which the inverse warns
_TAIL_TOL = 0.05
_INVERSE_WARN_TOL = 1e-6


def mehler_fock_forward(
    u_func,
    *,
    k_max: float = 40.0,
    dk: float = 0.05,
    t_max: float = 1e4,
) -> MehlerFockCoeffs:
    """c(k) = k tanh(pi k) * integral_1^t_max u(2/(1+t)) P_{-1/2+ik}(t) dt.

    With t = cosh r, F(r) = u(2/(1 + cosh r)) sinh r and R = acosh t_max,
    Mehler's integral and a swap of the order of integration give
    c(k) = k tanh(pi k) (sqrt 2/pi) integral_0^R cos(k s) A_R(s) ds with
    A_R(s) = integral_s^R F(r) dr/sqrt(cosh r - cosh s): the Abel rule of
    evolve_spectral, then the Mehler panels in sqrt(R - s), where A_R is
    smooth; half the panels give the r-quadrature estimate.  The tail
    estimate |F(R)| P_{-1/2}(t_max) >= |F(R) P_{-1/2+ik}(t_max)| must stay
    below _TAIL_TOL.  u_func takes arrays (one call at the defaults).  The
    k-grid is 0, dk, ..., k_max, so k_max/dk must be a whole number.
    """
    if not (math.isfinite(t_max) and t_max > 1):
        raise ValueError(f"mehler_fock_forward: t_max={t_max} must be finite and > 1")
    kg = _default_k_grid(k_max, dk)
    r_max = math.acosh(t_max)
    panels = int(_mehler_panels(k_max * r_max, "mehler_fock_forward"))
    (_, s, v), (_, s_half, v_half) = (
        _sqrt_rule(np.array([r_max]), p) for p in (panels, -(-panels // 2))
    )
    nodes = np.concatenate((s[0], s_half[0]))
    a = np.empty(nodes.size)
    step = _BLOCK_CELLS // _ABEL_NODES
    for j in range(0, nodes.size, step):
        t, weight = _abel_rule(nodes[j : j + step], r_max)
        t = np.append(t, r_max)  # F(R) for the tail estimate
        f = np.asarray(u_func(np.cosh(0.5 * t) ** -2.0), dtype=float) * np.sinh(t)
        a[j : j + step] = np.sum(weight * f[:-1].reshape(weight.shape), axis=1)
    tail = abs(float(f[-1])) * float(conical_legendre_grid([0.0], [r_max])[0, 0])
    if tail > _TAIL_TOL:
        raise RuntimeError(
            f"mehler_fock_forward: integrand magnitude {tail:.3e} at t_max={t_max:g} "
            f"exceeds tail tolerance {_TAIL_TOL:g}; u decays too slowly"
        )
    scale = _SQRT2_PI * kg * np.tanh(np.pi * kg)
    c = scale * _cosine_sums(kg, s, v * a[: s.size])[0]
    half = scale * _cosine_sums(kg, s_half, v_half * a[s.size :])[0]
    return MehlerFockCoeffs(
        k_grid=kg,
        c=c,
        t_max=t_max,
        meta={
            "tail_estimate": tail,
            "r_quadrature_estimate": float(np.max(np.abs(c - half))),
            "r_max": r_max,
            "panels": panels,
            "abel_nodes": _ABEL_NODES,
        },
    )


def mehler_fock_inverse(coeffs: MehlerFockCoeffs, xi):
    """u(xi) = integral_0^k_max P_{-1/2+ik}(2/xi - 1) c(k) dk.

    Simpson's rule on the stored uniform k-grid, inside Mehler's integral:
    on the conical_legendre_grid nodes s the k-sum is a cosine series,
    summed by Clenshaw's recurrence.  Simpson on every other grid point is
    compared, with a warning beyond _INVERSE_WARN_TOL (under-resolved k-grid).
    """
    scalar = np.isscalar(xi)
    xa = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xa <= 0) or np.any(xa > 1):
        raise ValueError("mehler_fock_inverse: xi must lie in (0, 1]")
    kg = coeffs.k_grid
    h = (kg[-1] - kg[0]) / (kg.size - 1)
    series = (
        (_simpson_weights(kg.size) * (h / 3.0) * coeffs.c, h),
        (_simpson_weights((kg.size + 1) // 2) * (2.0 * h / 3.0) * coeffs.c[::2], 2.0 * h),
    )
    r = np.arccosh(2.0 / xa - 1.0)
    # one Clenshaw pass over all nodes of a chunk of radii, <= _BLOCK_CELLS
    panels = _mehler_panels(kg[-1] * r, "mehler_fock_inverse")
    chunk = max(1, _BLOCK_CELLS // (_PANEL_NODES * int(np.max(panels, initial=1))))
    simps, coarse = np.empty(xa.size), np.empty(xa.size)
    for j in range(0, r.size, chunk):
        blocks = list(_mehler_blocks(r[j : j + chunk], kg[-1], "mehler_fock_inverse"))
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


def hyperbolic_similarity_check(k: float, r_grid, h: float = 5e-3) -> float:
    """Max residual of (Delta_r + 1/4 + k^2) P_{-1/2+ik}(cosh r) = 0.

    Delta_r = d^2/dr^2 + coth(r) d/dr is the radial hyperbolic Laplacian; the
    derivatives are taken by 5-point central differences, all stencil points
    in one conical_legendre_grid call.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if np.any(r_grid <= 2 * h):
        raise ValueError("hyperbolic_similarity_check: r must exceed the stencil width")
    stencil = (r_grid[:, None] + h * np.arange(-2, 3)).ravel()
    vals = conical_legendre_grid([k], stencil).reshape(r_grid.size, 5)
    d1, d2 = vals @ _FD5_D1 / h, vals @ _FD5_D2 / (h * h)
    return float(np.max(np.abs(d2 + d1 / np.tanh(r_grid) + (0.25 + k * k) * vals[:, 2])))
