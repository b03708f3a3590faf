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

from .operators import (
    OperatorParams,
    UGrid,
    apply_k_pointwise,
    harmonic_numbers,
    log_matrix_elements,
)
from .specfun import (
    CONSTANTS,
    _check_finite,
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

    @property
    def k_max(self) -> float:
        return float(self.k_grid[-1])

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
# conical Legendre functions P_{-1/2+ik}: one series-plus-Magnus evaluator


def _conical_series(k: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, dP/dr) of P_{-1/2+ik}(cosh r), shape (len(r), len(k)), by the
    hypergeometric series in w = sinh^2(r/2), summed for all radii at once;
    converges fast for r <~ 0.5."""
    w = [math.sinh(ri / 2.0) ** 2 for ri in r]
    tot = np.ones((len(w), k.size))
    dtot = np.zeros_like(tot)
    cj = np.ones_like(k)
    w_prev = np.ones((len(w), 1))  # w^(j-1)
    for j in range(1, 500):
        cj = -cj * (((j - 0.5) ** 2 + k**2) / j**2)
        # powers by Python's float pow, one radius at a time: numpy's
        # vectorised power can differ in the last bit, which the series'
        # cancellation at large k amplifies
        wj = np.array([wi**j for wi in w])[:, None]
        tot = tot + cj * wj
        dtot = dtot + cj * j * w_prev
        w_prev = wj
        if np.all(np.abs(cj) * wj < 1e-18):
            break
    return tot, dtot * 0.5 * np.sinh(r)[:, None]


_R_SERIES_CUT = 0.2
# Magnus steps whose 2x2 exponentials are formed together, as (B, len(k)) arrays
_STEP_BLOCK = 64


def _conical_rows(k: np.ndarray, r: np.ndarray):
    """Yield (i, P_{-1/2+ik}(cosh r_i)) for every radius of the nondecreasing
    r, in order.

    Radii up to _R_SERIES_CUT, and the start value at the cut, come from one
    vectorised pass of the hypergeometric series; larger ones propagate
    y'' = -(k^2 + 1/(4 sinh^2 r)) y for y = sqrt(sinh r) P with a fourth
    order Magnus scheme (exact 2x2 step exponentials at two Gauss points).
    The step is at most r^2/40, so it is short just past the cut, where
    1/(4 sinh^2 r) varies fastest; values agree with mpmath to ~1e-10 relative.
    A scalar pre-pass lists the steps and the radii each one lands on
    (coincident radii land together); the step exponentials are then formed
    _STEP_BLOCK steps at a time, so memory is O(len(k)).
    """
    big = r > _R_SERIES_CUT
    small = np.nonzero(~big)[0]
    p, dp = _conical_series(k, np.append(r[small], _R_SERIES_CUT))
    for n, i in enumerate(small):
        yield i, p[n]
    targets = np.nonzero(big)[0]
    if targets.size == 0:
        return

    r0 = _R_SERIES_CUT
    rc = r0
    starts, steps = [], []
    lands = [[]]  # lands[s]: (i, sqrt(sinh r)) of the radii reached after s steps
    for i in targets:
        rt = r[i]
        while rc < rt - 1e-14:
            # beyond r ~ 6 the frequency is essentially constant and the exact
            # 2x2 step exponential permits much larger steps
            hmax = 0.005 if rc <= 6.0 else (0.05 if rc <= 12.0 else 0.25)
            h = min(hmax, rc * rc / 40.0, rt - rc)
            starts.append(rc)
            steps.append(h)
            lands.append([])
            rc += h
        lands[-1].append((i, math.sqrt(math.sinh(rc))))
    h = np.array(steps)
    gpt = math.sqrt(3.0) / 6.0
    # beyond r ~ 355 sinh^2 overflows and 1/(4 sinh^2) takes its limit 0
    with np.errstate(over="ignore"):
        s1 = 1.0 / (4.0 * np.sinh(np.array(starts) + (0.5 - gpt) * h) ** 2)
        s2 = 1.0 / (4.0 * np.sinh(np.array(starts) + (0.5 + gpt) * h) ** 2)
    wbar = 0.5 * (s1 + s2)
    d = math.sqrt(3.0) * h * h * (s2 - s1) / 12.0

    p0, dp0 = p[-1], dp[-1]
    s0 = math.sinh(r0)
    y = math.sqrt(s0) * p0
    yp = math.sqrt(s0) * dp0 + 0.5 * math.cosh(r0) / math.sqrt(s0) * p0
    for i, norm in lands[0]:
        yield i, y / norm
    k2 = k * k
    for lo in range(0, h.size, _STEP_BLOCK):
        hb = h[lo : lo + _STEP_BLOCK, None]
        db = d[lo : lo + _STEP_BLOCK, None]
        hw = hb * (k2 + wbar[lo : lo + _STEP_BLOCK, None])
        # theta vanishes only at k = 0 where 1/(4 sinh^2) is 0; the floor
        # gives sin(theta)/theta its limit 1 there
        th = np.maximum(np.sqrt(hb * hw - db * db), 1e-300)
        cs = np.cos(th)
        sn = np.sin(th) / th
        ds = db * sn
        # the 2x2 step exponential [[a, b], [-c, e]]
        a, b, c, e = cs + ds, hb * sn, hw * sn, cs - ds
        for j in range(hb.shape[0]):
            y, yp = a[j] * y + b[j] * yp, e[j] * yp - c[j] * y
            for i, norm in lands[lo + j + 1]:
                yield i, y / norm


def conical_legendre_grid(k, r) -> np.ndarray:
    """P_{-1/2+ik}(cosh r) for a vector of wavenumbers and radii at once.

    Shape (len(r), len(k)).  The radii may come in any order: they are
    sorted once, and the rows of one _conical_rows pass are returned in the
    caller's order, so permuted radii give the same rows, permuted.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0) or not np.all(np.isfinite(r)) or not np.all(np.isfinite(k)):
        raise ValueError("conical_legendre_grid: r must be finite and >= 0")
    order = np.argsort(r)
    out = np.empty((r.size, k.size))
    for i, row in _conical_rows(k, r[order]):
        out[order[i]] = row
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
    oscillation).  K_{01} phi = (kappa(k) + log 2) phi.  Each point gets its
    own one-radius conical_legendre propagation, so its value does not
    depend on the other points of the call.
    """
    scalar = np.isscalar(xi)
    xa = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xa <= 0) or np.any(xa > 1):
        raise ValueError("mm_eigenfunction: xi must lie in (0, 1]")
    vals = np.array([conical_legendre(k, tt) for tt in 2.0 / xa - 1.0]) / xa
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

    The kernel integral is evaluated in the variable sigma = -log(xi(y)),
    where the conical function is exactly log-periodic, with composite
    Gauss-Legendre panels broken at the kink y = x; all conical evaluations
    are batched through one ODE propagation pass.  This dedicated route
    reaches ~1e-7 where generic adaptive quadrature stalls on the endpoint
    oscillation.
    """
    xs = np.atleast_1d(np.asarray(x_points, dtype=float))
    if np.any(np.abs(xs) > 0.95):
        raise ValueError("mm_k01_residual: |x| must be <= 0.95")
    sigma_max = 60.0
    width = min(0.2, 2.0 / max(abs(k), 1.0))
    n_pan = int(math.ceil(sigma_max / width))
    base_edges = np.linspace(0.0, sigma_max, n_pan + 1)
    gx, gw = np.polynomial.legendre.leggauss(16)

    # gather every sigma node for every x, evaluate phi once, then assemble
    all_nodes = []
    all_weights = []
    slices = []
    pos = 0
    for x in xs:
        sig_x = -math.log(0.5 * (1.0 + x))
        edges = np.unique(np.concatenate((base_edges, [sig_x])))
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        weights = (half[:, None] * gw[None, :]).ravel()
        all_nodes.append(nodes)
        all_weights.append(weights)
        slices.append(slice(pos, pos + nodes.size))
        pos += nodes.size
    sig = np.concatenate(all_nodes)
    xi = np.exp(-sig)
    r = np.arccosh(2.0 / xi - 1.0)
    phi_nodes = conical_legendre_grid([k], r)[:, 0] / xi

    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        phix = float(mm_eigenfunction(k, 0.5 * (1.0 + x)))
        sl = slices[i]
        s = sig[sl]
        y = 2.0 * np.exp(-s) - 1.0
        integ = (phix - phi_nodes[sl]) / np.abs(x - y) * 2.0 * np.exp(-s)
        lhs = float(np.sum(all_weights[i] * integ)) + math.log1p(x) * phix
        rhs = (lipatov_kappa(k) + CONSTANTS.log2) * phix
        out[i] = abs(lhs - rhs) / abs(rhs)
    return out


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
    both identically zero.  Computed here from the exact polynomial action of
    L, the harmonic-number action of H, and the closed-form log(1+x) matrix,
    so the result tests the assembled machinery rather than the algebra alone.
    """
    if n < 1:
        raise ValueError("mm_commutator_projections: n must be >= 1")
    n_rows = n + 4
    pn = np.zeros(n + 1)
    pn[n] = 1.0
    h = harmonic_numbers(n_rows + 2)
    # one log(1+x) matrix serves every action below: rows reach n_rows + 1
    # and columns the degree n + 1 of L P_n
    log_plus = log_matrix_elements(+1, n_rows + 1)
    norm = np.sqrt(np.arange(n_rows + 1) + 0.5)

    def m_action(c: np.ndarray, rows: int) -> np.ndarray:
        # M applied to a polynomial, truncated to the first `rows` Legendre
        # rows; Legendre coefficients c_j are orthonormal ones times sqrt(j+1/2)
        out = norm[:rows] * (log_plus[:rows, : c.size] @ (c / norm[: c.size]))
        out[: c.size] += (2.0 * h[: c.size] - 2.0 * CONSTANTS.log2) * c
        return out

    # L M P_n: only the components m in {n-1, n, n+1, n+2} of M P_n reach
    # P_{n+1} through the tridiagonal L, so a finite truncation is exact.
    mp = m_action(pn, n_rows)
    lm = np.zeros(n_rows + 1)
    for m in range(n_rows):
        if mp[m] != 0.0:
            em = np.zeros(m + 1)
            em[m] = mp[m]
            le = apply_L_legendre(em)
            lm[: le.size] += le
    lp = apply_L_legendre(pn)
    ml = m_action(lp, n_rows + 1)
    comm = lm - ml
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
    back; the left side by direct singular-integral quadrature.  phi must
    decay at the endpoints (plane-wave expandability), which is checked.
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
    params = OperatorParams(0.0, 0.0)
    lhs = np.array([apply_k_pointwise(params, phi, float(x)) for x in x_grid])
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Mehler-Fock transform


def _default_k_grid(k_max: float, dk: float) -> np.ndarray:
    for name, v in (("k_max", k_max), ("dk", dk)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(
                f"mehler_fock_forward: {name}={v} must be positive and finite"
            )
    n = int(round(k_max / dk))
    return np.linspace(0.0, k_max, n + 1)


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

    The substitution t = cosh r turns the slowly decaying conical tail into a
    bounded oscillation; the r-integral is done by Simpson's rule on the
    propagation grid, summed row by row as the conical functions are
    propagated, so memory is O(len(k)).  Simpson's rule on the even rows is
    summed in the same pass, and the largest difference of the two
    coefficient sets is recorded as the r-quadrature estimate.  u_func is
    called once, on the array of all n_r + 1 points, and must accept an
    array.  The magnitude of the integrand at t_max is recorded as the tail
    estimate and must fall below _TAIL_TOL.
    """
    if not (math.isfinite(t_max) and t_max > 1):
        raise ValueError(f"mehler_fock_forward: t_max={t_max} must be finite and > 1")
    kg = _default_k_grid(k_max, dk)
    r_max = math.acosh(t_max)
    n_r = 4096
    r = np.linspace(0.0, r_max, n_r + 1)
    u_sinh = np.asarray(u_func(2.0 / (1.0 + np.cosh(r))), dtype=float) * np.sinh(r)
    h3 = r_max / n_r / 3.0
    weight = u_sinh * _simpson_weights(n_r + 1) * h3
    half_weight = u_sinh[::2] * _simpson_weights(n_r // 2 + 1) * (2.0 * h3)
    vals = np.zeros_like(kg)
    half = np.zeros_like(kg)
    for i, row in _conical_rows(kg, r):
        vals += weight[i] * row
        if i % 2 == 0:
            half += half_weight[i // 2] * row
    # rows arrive in order of r, so the last one is at t_max
    tail = float(np.max(np.abs(u_sinh[-1] * row)))
    if tail > _TAIL_TOL:
        raise RuntimeError(
            f"mehler_fock_forward: integrand magnitude {tail:.3e} at t_max={t_max:g} "
            f"exceeds tail tolerance {_TAIL_TOL:g}; u decays too slowly"
        )
    scale = kg * np.tanh(np.pi * kg)
    c = scale * vals
    return MehlerFockCoeffs(
        k_grid=kg,
        c=c,
        t_max=t_max,
        meta={
            "tail_estimate": tail,
            "r_quadrature_estimate": float(np.max(np.abs(c - scale * half))),
            "n_r": n_r,
            "r_max": r_max,
        },
    )


def mehler_fock_inverse(coeffs: MehlerFockCoeffs, xi):
    """u(xi) = integral_0^k_max P_{-1/2+ik}(2/xi - 1) c(k) dk.

    Simpson's rule on the stored (uniform) k-grid; a second Simpson estimate
    on every other grid point is compared and a warning is issued when the
    two disagree beyond _INVERSE_WARN_TOL (under-resolved k-grid).
    """
    scalar = np.isscalar(xi)
    xa = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xa <= 0) or np.any(xa > 1):
        raise ValueError("mehler_fock_inverse: xi must lie in (0, 1]")
    kg = coeffs.k_grid
    p = conical_legendre_grid(kg, np.arccosh(2.0 / xa - 1.0))  # (n_xi, n_k)
    integrand = p * coeffs.c[None, :]
    h = (kg[-1] - kg[0]) / (kg.size - 1)
    simps = integrand @ _simpson_weights(kg.size) * (h / 3.0)
    coarse = integrand[:, ::2] @ _simpson_weights((kg.size + 1) // 2) * (2.0 * h / 3.0)
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
    derivative is taken by 5-point central differences on one-radius
    conical-Legendre evaluations.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if np.any(r_grid <= 2 * h):
        raise ValueError("hyperbolic_similarity_check: r must exceed the stencil width")
    res = 0.0
    for r in r_grid:
        f, d1, d2 = _fd_derivs(lambda rr: conical_legendre_grid([k], [rr])[0, 0], r, h)
        res = max(res, abs(d2 + d1 / math.tanh(r) + (0.25 + k * k) * f))
    return float(res)
