"""The operator family K_{alpha,beta} on [-1,1] and its discretizations.

Two backends are provided: a Legendre-Galerkin truncation in the orthonormal
basis Phat_n = sqrt(n + 1/2) P_n, and a Fourier pseudospectral grid in the
variable u (x = tanh u) where the kinetic part G(p) is diagonal in frequency
space and the potential is diagonal on the grid.  The pseudospectral operator
is applied matrix-free by real FFT.  The lowest states of both backends come
from one shifted Lanczos helper; the Galerkin backend also solves the size-N
block densely, as its error estimate and as an interlacing check.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from .specfun import _BLOCK_CELLS, BIG_G_MIN, CONSTANTS, _gauss_nodes, big_g

__all__ = [
    "OperatorParams",
    "UGrid",
    "harmonic",
    "harmonic_numbers",
    "monomial_action_k11",
    "galerkin_matrix",
    "potential_v",
    "pseudospectral_matrix",
    "apply_k_pointwise",
    "synthesize",
    "project",
    "galerkin_spectrum",
    "pseudospectral_spectrum",
]


@dataclass(frozen=True)
class OperatorParams:
    """The pair (alpha, beta) selecting a member of the operator family."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"OperatorParams.{name} must be finite and >= 0, got {v}")

    @property
    def discrete_spectrum(self) -> bool:
        """True when both parameters are positive (confining potential)."""
        return self.alpha > 0 and self.beta > 0

    def require_discrete(self, caller: str) -> None:
        """Raise when alpha or beta vanishes: the potential no longer confines
        and the spectrum is continuous (use the exact module instead)."""
        if not self.discrete_spectrum:
            raise ValueError(f"{caller}: spectrum is continuous for alpha=0 or beta=0")


@dataclass(frozen=True)
class UGrid:
    """Uniform periodic grid on [-u_max, u_max] with m points (power of two).

    At most 2^16 points: the largest grid a self-convergence study needs,
    and a bound on the time and memory of a solve.
    """

    u_max: float
    m_points: int

    def __post_init__(self):
        if not (self.u_max > 0 and math.isfinite(self.u_max)):
            raise ValueError("UGrid.u_max must be positive and finite")
        m = self.m_points
        if m < 64 or m > 65536 or (m & (m - 1)) != 0:
            raise ValueError(
                f"UGrid.m_points must be a power of two in [64, 65536], got {m}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.u_max / self.m_points

    @property
    def nodes(self) -> np.ndarray:
        return -self.u_max + self.spacing * np.arange(self.m_points)

    @property
    def frequencies(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.m_points, d=self.spacing)


def harmonic(n: int) -> float:
    """Harmonic number h_n = sum_{j<=n} 1/j, h_0 = 0."""
    if n < 0:
        raise ValueError("harmonic: n must be >= 0")
    return math.fsum(1.0 / j for j in range(1, n + 1))


def harmonic_numbers(n: int) -> np.ndarray:
    """h_0, ..., h_{n-1} from one running sum (scalar harmonic is the reference)."""
    return np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n))))[:n]


def monomial_action_k11(n: int) -> np.ndarray:
    """Coefficients (by ascending degree) of K_{11} x^n.

    K_{11} x^n = 2 h_n x^n - sum_{k=1..n} (1 + (-1)^k)/k x^(n-k); the matrix
    in the monomial basis is upper triangular with diagonal 2 h_n.
    """
    if n < 0:
        raise ValueError("monomial_action_k11: n must be >= 0")
    out = np.zeros(n + 1)
    out[n] = 2.0 * harmonic(n)
    for k in range(1, n + 1):
        out[n - k] -= (1.0 + (-1.0) ** k) / k
    return out


def _log_potential(w_plus: float, w_minus: float, n_trunc: int) -> np.ndarray:
    """w_plus L+ + w_minus L- in the orthonormal basis, where L+- is the
    matrix of multiplication by log(1 +- x).

    In the unnormalized basis L+ has the off-diagonal entries
    2(-1)^(m+n+1)/((n-m)(n+m+1)) and a diagonal from a three-term recurrence
    seeded by W_00 = 2 log 2 - 2.  L- = D L+ D with D = diag((-1)^n), so the
    sum is the sign-free matrix scaled by w_plus + w_minus where m + n is
    even and by w_minus - w_plus where m + n is odd.
    """
    idx = np.arange(n_trunc, dtype=float)
    mat = np.subtract.outer(idx, idx)
    np.abs(mat, out=mat)
    mat *= np.add.outer(idx, idx + 1.0)
    np.fill_diagonal(mat, 1.0)
    np.divide(-2.0, mat, out=mat)
    diag = np.empty(n_trunc)
    diag[0] = 2.0 * CONSTANTS.log2 - 2.0
    for n in range(1, n_trunc):
        diag[n] = (
            (2 * n - 1) / (2 * n + 1) * (-(n + 1) / (2 * n + 1) + n * diag[n - 1])
            + (n - 1) / (2 * n - 1)
        ) / n
    np.fill_diagonal(mat, diag)
    # symmetric scalings keep the matrix exactly symmetric, so no
    # symmetrizing pass is needed
    norm = np.sqrt(idx + 0.5)
    mat *= np.outer(norm, norm)
    even, odd = w_plus + w_minus, w_minus - w_plus
    s0, s1 = slice(0, None, 2), slice(1, None, 2)
    for rows, cols, w in ((s0, s0, even), (s1, s1, even), (s0, s1, odd), (s1, s0, odd)):
        if w != 1.0:
            mat[rows, cols] *= w
    return mat


def galerkin_matrix(params: OperatorParams, n_trunc: int) -> np.ndarray:
    """Truncated matrix of K_{alpha,beta}: diag(2 h_n) + (1-a) L+ + (1-b) L-.

    At most 8192 modes (a 512 MB matrix), so the solves at N and 2N
    accept N <= 4096.
    """
    if not 1 <= n_trunc <= 8192:
        raise ValueError(f"galerkin_matrix: n_trunc={n_trunc} must lie in [1, 8192]")
    if params.alpha == params.beta == 1.0:
        mat = np.zeros((n_trunc, n_trunc))
    else:
        mat = _log_potential(1.0 - params.alpha, 1.0 - params.beta, n_trunc)
    mat[np.diag_indices(n_trunc)] += 2.0 * harmonic_numbers(n_trunc)
    return mat


def potential_v(u: np.ndarray | float, params: OperatorParams) -> np.ndarray | float:
    """V(u) = -alpha log(1 + tanh u) - beta log(1 - tanh u), overflow-safe."""
    ua = np.asarray(u, dtype=float)
    val = (
        params.alpha * np.logaddexp(0.0, -2.0 * ua)
        + params.beta * np.logaddexp(0.0, 2.0 * ua)
        - (params.alpha + params.beta) * CONSTANTS.log2
    )
    return float(val) if np.isscalar(u) else val


def pseudospectral_matrix(params: OperatorParams, grid: UGrid) -> LinearOperator:
    """G(p) + V(u) on the grid as a symmetric matrix-free operator.

    The kinetic part is the Fourier multiplier G(p), applied by real FFT on
    the M/2 + 1 non-negative frequencies (G is even), and the potential is
    diagonal, so a product costs O(M log M) time and O(M) memory.  Raises
    when the spectrum is continuous (OperatorParams.require_discrete).
    """
    params.require_discrete("pseudospectral_matrix")
    m = grid.m_points
    g = big_g(2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing))
    v = potential_v(grid.nodes, params)

    def matvec(x):
        x = np.ravel(x)  # LinearOperator hands over (M,) or (M, 1)
        return np.fft.irfft(g * np.fft.rfft(x), n=m) + v * x

    return LinearOperator((m, m), matvec=matvec, dtype=float)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


# apply_k_pointwise's rule in u = atanh y.  Its integrand decays at least like
# e^(-|u|): the kernel falls like e^(-2|u|), phi grows at most like e^|u|.
_U_CUT = 30.0  # so the cut costs below e^(-30) ~ 1e-13 of the integrand's scale
_U_PANEL = 0.5  # a K_01 eigenfunction, ~cos(2 k u), turns by k radians per panel
_U_NODES = 16  # Gauss-Legendre nodes per panel: that turn to ~1e-12 up to k = 20


def apply_k_pointwise(params: OperatorParams, phi_u, x):
    """(K_{alpha,beta} phi)(x) for -1 < x < 1, with phi given in the
    Schroedinger variable: phi_u(u) = phi(tanh u), called on arrays.

    With v = atanh x and y = tanh u, dy/|x - y| = cosh v du/(|sinh(v - u)|
    cosh u) has no endpoint cancellation, so the kernel integral is one
    composite Gauss-Legendre rule in u, on panels broken at the kink u = v,
    and phi may grow like (1 -+ x)^(-1/2) at no cost in accuracy.  One phi_u
    call per block of at most _BLOCK_CELLS nodes.  A scalar x returns a
    float; x outside (-1, 1) raises ValueError.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    inside = np.abs(xs) < 1.0
    if not np.all(inside):
        raise ValueError(f"apply_k_pointwise: x={float(xs[~inside][0])!r} outside (-1, 1)")
    v = np.arctanh(xs)
    pot = (1.0 - params.alpha) * np.log1p(xs) + (1.0 - params.beta) * np.log1p(-xs)
    z, wz = _gauss_nodes(_U_NODES)
    base = np.linspace(-_U_CUT, _U_CUT, round(2.0 * _U_CUT / _U_PANEL) + 1)
    out = np.empty(xs.size)
    step = _BLOCK_CELLS // (base.size * _U_NODES)
    for j in range(0, xs.size, step):
        vb = v[j : j + step]
        # v splits its panel in two; on a panel edge it adds one of width 0
        edges = np.sort(np.column_stack((np.tile(base, (vb.size, 1)), vb)), axis=1)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        u = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None] + half * z
        vals = np.asarray(phi_u(np.concatenate((vb, u.ravel()))), dtype=float)
        phi_x, d = vals[: vb.size], vb[:, None, None] - u
        num = phi_x[:, None, None] - vals[vb.size :].reshape(u.shape)
        den = np.abs(np.sinh(d)) * np.cosh(u)
        f = np.divide(num, den, out=np.zeros_like(num), where=d != 0.0)
        integral = np.cosh(vb) * np.sum(half * wz * f, axis=(1, 2))
        out[j : j + step] = integral + pot[j : j + step] * phi_x
    return float(out[0]) if scalar else out


def synthesize(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate sum_n c_n Phat_n(x), Phat_n = sqrt(n+1/2) P_n, from the
    coefficient array c."""
    c = np.asarray(coeffs)
    scaled = c * np.sqrt(np.arange(c.size) + 0.5)
    return npleg.legval(np.asarray(x, dtype=float), scaled)


def project(phi, n_trunc: int, quad_order: int | None = None) -> np.ndarray:
    """Coefficient array of a callable on (-1,1) on the first n_trunc
    orthonormal modes Phat_n = sqrt(n+1/2) P_n."""
    q = quad_order or max(2 * n_trunc, 64)
    x, w = np.polynomial.legendre.leggauss(q)
    vals = phi(x)
    vander = npleg.legvander(x, n_trunc - 1) * np.sqrt(np.arange(n_trunc) + 0.5)
    return (vander * (w * vals)[:, None]).sum(axis=0)


@lru_cache(maxsize=32)
def galerkin_spectrum(
    alpha: float,
    beta: float,
    n_eigs: int = 10,
    n_trunc: int = 1024,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Lowest eigenvalues of K_{alpha,beta} from the Galerkin backend.

    Runs truncations N and 2N (N <= 4096); returns (eigenvalues at 2N,
    per-eigenvalue truncation-error estimates |lam_2N - lam_N|).  The size-N
    matrix is the leading block of the size-2N one: a dense solve of that
    block gives lam_N, and shifted Lanczos (_lowest_eigenpairs) gives lam_2N.
    By Cauchy interlacing lam_2N <= lam_N state by state; a state that
    Lanczos missed breaks this and raises RuntimeError naming (alpha, beta,
    N).  Raises ValueError when the spectrum is continuous, as the
    pseudospectral backend does.
    """
    params = OperatorParams(alpha, beta)
    params.require_discrete("galerkin_spectrum")
    if not 1 <= n_trunc <= 4096:
        raise ValueError(f"galerkin_spectrum: n_trunc={n_trunc} must lie in [1, 4096]")
    if not 1 <= n_eigs <= n_trunc:
        raise ValueError(
            f"galerkin_spectrum: n_eigs={n_eigs} must lie in [1, n_trunc={n_trunc}]"
        )
    mat = galerkin_matrix(params, 2 * n_trunc)
    coarse = linalg.eigh(
        mat[:n_trunc, :n_trunc], eigvals_only=True, subset_by_index=[0, n_eigs - 1]
    )
    # interlacing puts lam_2N[0] - shift at or below 1, and near 1 while the
    # truncation error is small
    fine, _ = _lowest_eigenpairs(mat, n_eigs, coarse[0] - 1.0)
    if np.any(fine > coarse + 1e-10 * np.maximum(1.0, np.abs(coarse))):
        raise RuntimeError(
            f"galerkin_spectrum: Lanczos missed a state at alpha={alpha}, "
            f"beta={beta}, N={n_trunc} (its size-2N eigenvalues exceed the "
            "size-N ones)"
        )
    return tuple(map(float, fine)), tuple(map(float, np.abs(fine - coarse)))


def _lowest_eigenpairs(
    op: np.ndarray | LinearOperator, n_eigs: int, shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_eigs eigenpairs of the symmetric op, ascending.

    ARPACK's implicitly restarted Lanczos runs on op - shift I from a fixed
    generic start vector: the default start is random, and a symmetric one
    would miss the odd states when alpha = beta.  With tol = 0 ARPACK accepts
    a Ritz value theta only once its error bound falls below
    eps max(eps^(2/3), |theta|), which a state at theta ~ 0 can miss, so the
    caller picks the shift to put the wanted eigenvalues of op - shift I at
    about 1 or above.  Each pair must satisfy
    ||op v - lam v|| <= 1e-8 max(1, max |lam|).
    """
    shifted = LinearOperator(op.shape, matvec=lambda x: op @ x - shift * x, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    vals, vecs = eigsh(shifted, k=n_eigs, which="SA", tol=0, v0=v0)
    order = np.argsort(vals)
    vals, vecs = vals[order] + shift, vecs[:, order]
    scale = max(1.0, float(np.max(np.abs(vals))))
    resid = np.linalg.norm(op @ vecs - vecs * vals, axis=0)
    if np.any(resid > 1e-8 * scale):
        raise RuntimeError(f"Lanczos: eigenpair residual {resid.max():.3e} exceeds tolerance")
    return vals, vecs


def _pseudospectral_solve(
    alpha: float, beta: float, n_eigs: int, u_max: float, m_points: int
) -> tuple[UGrid, np.ndarray, np.ndarray]:
    """Lowest n_eigs eigenpairs of G(p) + V(u), ascending and sign-fixed.

    G >= G(0) and V is diagonal, so G(0) + min V - 1 lies at least 1 below
    the spectrum; it is the Lanczos shift.
    """
    params = OperatorParams(alpha, beta)
    grid = UGrid(u_max, m_points)
    if not 1 <= n_eigs < m_points:
        raise ValueError(
            f"pseudospectral: n_eigs={n_eigs} must lie in [1, m_points={m_points})"
        )
    h = pseudospectral_matrix(params, grid)
    shift = BIG_G_MIN + float(np.min(potential_v(grid.nodes, params))) - 1.0
    vals, vecs = _lowest_eigenpairs(h, n_eigs, shift)
    return grid, vals, _fix_signs(vecs)


@lru_cache(maxsize=32)
def pseudospectral_spectrum(
    alpha: float,
    beta: float,
    n_eigs: int = 10,
    u_max: float = 40.0,
    m_points: int = 4096,
) -> tuple[float, ...]:
    """Lowest eigenvalues of G(p) + V(u), reported on the kappa scale
    (shifted back by kappa = kappa' + 2 gamma_E)."""
    _, vals, _ = _pseudospectral_solve(alpha, beta, n_eigs, u_max, m_points)
    return tuple(float(v + 2.0 * CONSTANTS.euler_gamma) for v in vals)


@lru_cache(maxsize=8)
def pseudospectral_eigensystem(
    alpha: float,
    beta: float,
    n_eigs: int,
    u_max: float,
    m_points: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u_nodes, kappa values, eigenvector columns) for the lowest states."""
    grid, vals, vecs = _pseudospectral_solve(alpha, beta, n_eigs, u_max, m_points)
    return grid.nodes, vals + 2.0 * CONSTANTS.euler_gamma, vecs


# coefficient_tail_warning: the trailing share of the coefficients checked,
# and the largest relative norm it may carry
_TAIL_FRACTION = 0.1
_TAIL_NORM_TOL = 1e-8


def coefficient_tail_warning(c: np.ndarray):
    """Warn when the trailing block of the coefficient array c carries too
    much weight."""
    tail = max(1, int(_TAIL_FRACTION * c.size))
    total = np.linalg.norm(c)
    if total > 0 and np.linalg.norm(c[-tail:]) > _TAIL_NORM_TOL * total:
        warnings.warn(
            "spectral coefficient tail exceeds tolerance; increase n_trunc",
            RuntimeWarning,
            stacklevel=2,
        )
