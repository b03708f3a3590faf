"""The operator family K_{alpha,beta} on [-1,1] and its discretizations.

Two backends are provided: a Legendre-Galerkin truncation in the orthonormal
basis Phat_n = sqrt(n + 1/2) P_n, and a Fourier pseudospectral grid in the
variable u (x = tanh u) where the kinetic part G(p) is diagonal in frequency
space and the potential is diagonal on the grid.  The pseudospectral operator
is applied matrix-free by real FFT; its lowest states come from Lanczos on
the folded operator T_2((H - c)/e) = 2 ((H - c)/e)^2 - 1, two FFT products
a step, which puts them at its largest eigenvalues and the rest of the grid
spectrum in [-1, 1].  The Galerkin spectrum is a Richardson extrapolation of
solves at sizes N/8, N/4, N/2 and N, where each truncation is the leading
block of the next; the spread of successive extrapolations is its error
estimate.  Each size m is dense eigvalsh on the lower triangle of the
matrix, built in place and in Fortran order in one buffer, or, for at most
10 (m // 1024)^2 states and |1 - alpha| + |1 - beta| <= 20, Lanczos on K - s
(s a Gershgorin bound) applied by FFT (_galerkin_product) without the matrix.
Both backends run one thick-restart Lanczos in numpy (_thick_restart_lanczos)
through one helper, _lanczos.  The product splits the log part into a
Cauchy matrix applied by Toeplitz and Hankel FFTs (_cauchy_product), shared
by the Galerkin spectrum and the evolution's K_{01}; the diagonal
(_galerkin_diagonal, closed form) serves it and the dense fill.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

from .specfun import _BLOCK_CELLS, CONSTANTS, _gauss_nodes, big_g

# scipy.linalg and scipy.sparse cost about 9 MB and 0.1 s per process, and no
# solve needs them: the eigensolvers are numpy's eigvalsh and the Lanczos
# below; only pseudospectral_matrix, which returns a LinearOperator, imports
# scipy.sparse.linalg when called
if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

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
    """h_0, ..., h_{n-1} as psi(k + 1) + gamma_E (DLMF 5.4.14; harmonic is the reference)."""
    if n < 0:
        raise ValueError(f"harmonic_numbers: n={n} must be >= 0")
    return special.psi(np.arange(1.0, n + 1.0)) + CONSTANTS.euler_gamma


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


def _galerkin_diagonal(params: OperatorParams, n: int) -> np.ndarray:
    """The diagonal D_k = 2 h_k + (2 - a - b) (k + 1/2) W_kk of
    galerkin_matrix(params, n), W_kk the diagonal of log(1 + x) in the
    unnormalized basis: (k + 1/2) W_kk = log 2 - 2 (h_{2k+1} - h_k) + 1/(2k + 1)."""
    h = harmonic_numbers(2 * n)
    log_part = CONSTANTS.log2 - 2.0 * (h[1::2] - h[:n]) + 1.0 / (2.0 * np.arange(n) + 1.0)
    return 2.0 * h[:n] + ((1.0 - params.alpha) + (1.0 - params.beta)) * log_part


def _column_blocks(n: int):
    """(i, j) for the blocks of columns [i, j) of an n x n lower triangle,
    in order, each holding at most _BLOCK_CELLS cells of rows i..n-1 (at
    least one column)."""
    i = 0
    while i < n:
        j = min(n, i + max(1, _BLOCK_CELLS // (n - i)))
        yield i, j
        i = j


def _galerkin_fill(params: OperatorParams, mat: np.ndarray, caller: str) -> None:
    """Write the lower triangle of galerkin_matrix(params, n) into the
    Fortran-ordered n x n array mat, in place, a block of columns
    (_column_blocks) at a time: rows i..n-1 of columns i..j-1, contiguous.
    The block also writes the part of its columns above the diagonal.
    Raises ValueError naming caller when an entry overflows, with no numpy
    warning.

    The log part (1-a) L+ + (1-b) L-, with L+- the matrix of multiplication
    by log(1 +- x): in the unnormalized basis L+ has the off-diagonal entries
    2(-1)^(m+n+1)/((n-m)(n+m+1)), diagonal from _galerkin_diagonal.  L- =
    D L+ D with D = diag((-1)^n), so the sum is the sign-free matrix scaled by
    2 - a - b where m + n is even and by a - b where m + n is odd.  Every
    entry is a function of its row and column alone, symmetric in the two
    bit for bit, so a block's values do not depend on n or on the block size.
    """
    n_trunc = mat.shape[0]
    idx = np.arange(n_trunc, dtype=float)
    pronic = idx * (idx + 1.0)  # |(n - m)(n + m + 1)| = |n(n+1) - m(m+1)|, exact
    norm = np.sqrt(idx + 0.5)
    diag = _galerkin_diagonal(params, n_trunc)
    w_plus, w_minus = 1.0 - params.alpha, 1.0 - params.beta
    even, odd = w_plus + w_minus, w_minus - w_plus
    cols_first = mat.T  # C-ordered: its row c is column c of mat
    for i, j in _column_blocks(n_trunc):
        block = cols_first[i:j, i:]
        on_diag = (np.arange(j - i), np.arange(j - i))
        np.subtract(pronic[i:j, None], pronic[i:], out=block)
        np.abs(block, out=block)
        block[on_diag] = 1.0
        np.divide(-2.0, block, out=block)
        with np.errstate(over="ignore"):  # an overflowing entry is refused below
            block *= norm[i:j, None] * norm[i:]
            # entry (a, b) of the block has row + column = 2i + a + b
            for a, b, w in ((0, 0, even), (0, 1, odd), (1, 0, odd), (1, 1, even)):
                if w != 1.0:
                    block[a::2, b::2] *= w
        block[on_diag] = diag[i:j]
        if not np.all(np.isfinite(block)):
            raise ValueError(
                f"{caller}: the matrix overflows at alpha={params.alpha}, beta={params.beta}"
            )


def galerkin_matrix(params: OperatorParams, n_trunc: int) -> np.ndarray:
    """Truncated matrix of K_{alpha,beta}: diag(2 h_n) + (1-a) L+ + (1-b) L-.

    _galerkin_fill writes the lower triangle of the transpose, which is the
    upper triangle here, and each block is mirrored below the diagonal in
    place, so the build needs no temporary of the matrix's size; the matrix
    is exactly symmetric.  At most 8192 modes, 512 MB.  Raises ValueError
    when an entry overflows.
    """
    if not 1 <= n_trunc <= 8192:
        raise ValueError(f"galerkin_matrix: n_trunc={n_trunc} must lie in [1, 8192]")
    mat = np.empty((n_trunc, n_trunc))
    _galerkin_fill(params, mat.T, "galerkin_matrix")
    for i, j in _column_blocks(n_trunc):
        mat[j:, i:j] = mat[i:j, j:].T
    return mat


#: rows of the dense leaves that finish the halving of _cauchy_product: the
#: leaves hold _LEAF doubles per row, 2 MB at the largest size 2N = 8192;
#: at 16 rows a K_01 product took 10-15% longer, with one halving more
_LEAF = 32


@lru_cache(maxsize=2)
def _cauchy_product(n: int):
    """The product y -> (2k + 1)(C y)_k along the last axis of y, by FFT,
    for the n x n Cauchy matrix C_km = 1/|k(k + 1) - m(m + 1)|, zero on the
    diagonal.

    k(k + 1) - m(m + 1) = (k - m)(k + m + 1), and 1/|k - m| + 1/(k + m + 1)
    = (2 max(k, m) + 1) C_km splits C into Toeplitz and Hankel parts
    (Townsend, Webb & Olver, Math. Comp. 87, 2018):
      (2k + 1)(C y)_k = (T y)_k + 2 (L y)_k - (H y)_k + y_k/(2k + 1),
    T the Toeplitz matrix 1/|k - m| with a zero diagonal, H the Hankel matrix
    1/(k + m + 1) and L its part below the diagonal.  T y - H y is one real
    FFT pair of length 2n; H y is a correlation, on conj(rfft y).  L y comes
    by halving: on each range [lo, lo + 2s) the rows lo + s.. against the
    columns lo.. form a full Hankel block, the blocks of one level go
    through one batched FFT pair, and dense leaves of _LEAF rows finish, by
    einsum (no BLAS).  Leading axes of y are batched through every FFT.
    The plan holds the kernels' FFTs and the leaves, O(n log n) doubles.
    """
    odd = 2.0 * np.arange(n, dtype=float) + 1.0
    p = 2 * n
    toeplitz = np.zeros(p)
    toeplitz[1:n] = 1.0 / np.arange(1.0, n)
    toeplitz[n + 1 :] = toeplitz[n - 1 : 0 : -1]
    t_hat = np.fft.rfft(toeplitz).real  # T is symmetric: its multiplier is real
    h_hat = np.fft.rfft(1.0 / np.arange(1.0, p + 1))
    n_pad = _LEAF  # the least _LEAF 2^j >= n
    while n_pad < n:
        n_pad *= 2
    levels = []
    s = n_pad // 2
    while s >= _LEAF:
        lo = np.arange(0, n_pad, 2 * s)[:, None]
        levels.append((s, np.fft.rfft(1.0 / (2 * lo + s + 1.0 + np.arange(2 * s)), axis=1)))
        s //= 2
    leaves = np.arange(0.0, 2 * n_pad, 2 * _LEAF)[:, None, None] + np.add.outer(
        np.arange(_LEAF), np.arange(1.0, _LEAF + 1)
    )
    np.reciprocal(leaves, out=leaves)
    leaves *= np.tri(_LEAF, k=-1)

    def product(y):
        lead = y.shape[:-1]
        y_hat = np.fft.rfft(y, p)
        acc = np.fft.irfft(t_hat * y_hat - h_hat * y_hat.conj(), p)[..., :n]
        ypad = np.zeros(lead + (n_pad,))
        ypad[..., :n] = y
        blocks = ypad.reshape(lead + (n_pad // _LEAF, _LEAF))
        lower = np.einsum("bij,...bj->...bi", leaves, blocks).reshape(lead + (n_pad,))
        for s, g_hat in levels:
            halves = lead + (n_pad // (2 * s), 2 * s)
            block = np.fft.rfft(ypad.reshape(halves)[..., :s], 2 * s)
            corr = np.fft.irfft(g_hat * block.conj(), 2 * s)
            lower.reshape(halves)[..., s:] += corr[..., :s]
        acc += 2.0 * lower[..., :n] + y / odd
        return acc

    return product


def _galerkin_product(params: OperatorParams, n: int):
    """The product v -> K v of galerkin_matrix(params, n) along the last
    axis of v, by FFT, without the matrix.

    Off its diagonal D (_galerkin_diagonal) the matrix (_galerkin_fill) is
    -2 S (w- C + w+ P C P) S, with S = diag(sqrt(k + 1/2)), P =
    diag((-1)^k), w+ = 1 - alpha, w- = 1 - beta and C the Cauchy matrix of
    _cauchy_product.  C goes over the rows P S v and S v whose weight is
    not zero in one batched pass: K_01 takes one row, K_11 none.
    """
    idx = np.arange(n, dtype=float)
    norm = np.sqrt(idx + 0.5)
    odd = 2.0 * idx + 1.0
    sign = np.where(idx % 2, -norm, norm)
    diag = _galerkin_diagonal(params, n)
    weighted = [(w, s) for w, s in ((1.0 - params.alpha, sign), (1.0 - params.beta, norm))
                if w != 0.0]
    rows = np.array([s for _, s in weighted]).reshape(-1, n)
    scale = np.array([-2.0 * w * s / odd for w, s in weighted]).reshape(-1, n)
    cauchy = _cauchy_product(n)

    def product(v):
        return diag * v + np.einsum("rk,...rk->...k", scale, cauchy(v[..., None, :] * rows))

    return product


def potential_v(u: np.ndarray | float, params: OperatorParams) -> np.ndarray | float:
    """V(u) = -alpha log(1 + tanh u) - beta log(1 - tanh u), overflow-safe."""
    ua = np.asarray(u, dtype=float)
    val = (
        params.alpha * np.logaddexp(0.0, -2.0 * ua)
        + params.beta * np.logaddexp(0.0, 2.0 * ua)
        - (params.alpha + params.beta) * CONSTANTS.log2
    )
    return float(val) if np.isscalar(u) else val


def _grid_hamiltonian(params: OperatorParams, grid: UGrid, caller: str):
    """(h, v, g): h(x) = G(p) x + V x along the last axis of x, V on the grid
    and G on the M/2 + 1 non-negative frequencies.

    The kinetic part is the Fourier multiplier G(p), applied by real FFT on
    the M/2 + 1 non-negative frequencies (G is even), and the potential is
    diagonal, so a product costs O(M log M) time and O(M) memory.  Raises
    when the spectrum is continuous (OperatorParams.require_discrete) or
    when V overflows on the grid, which a product would carry into inf.
    """
    params.require_discrete(caller)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        v = potential_v(grid.nodes, params)
    if not np.all(np.isfinite(v)):
        raise ValueError(
            f"{caller}: the potential overflows on the grid at alpha={params.alpha}, "
            f"beta={params.beta}, u_max={grid.u_max}"
        )
    m = grid.m_points
    g = big_g(2.0 * np.pi * np.fft.rfftfreq(m, d=grid.spacing))

    def h(x):
        return np.fft.irfft(g * np.fft.rfft(x), n=m) + v * x

    return h, v, g


def pseudospectral_matrix(params: OperatorParams, grid: UGrid) -> LinearOperator:
    """G(p) + V(u) on the grid as a symmetric matrix-free operator.

    A product is one real FFT pair and a diagonal scaling (_grid_hamiltonian):
    O(M log M) time, O(M) memory.  Raises when the spectrum is continuous or
    when the potential overflows on the grid.
    """
    from scipy.sparse.linalg import LinearOperator

    h, _, _ = _grid_hamiltonian(params, grid, "pseudospectral_matrix")
    m = grid.m_points
    # LinearOperator hands over (M,) or (M, 1)
    return LinearOperator((m, m), matvec=lambda x: h(np.ravel(x)), dtype=float)


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
    coefficient array c.  An (n, k) array sums its k columns together and
    returns k rows of values, each bit for bit the column's own sum.

    P_0..P_{n-1} come from scipy.special.legendre_p_all on 16 points at a
    time, or more while a block holds at most a quarter of _BLOCK_CELLS
    cells (a block of n <= 8192 degrees stays within _BLOCK_CELLS), and
    einsum (no BLAS) sums the terms degree by degree in order for every
    point and column, so zero coefficients past a column's end leave its
    bits alone.  Raises ValueError when the first axis is missing or empty.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape[:1] in ((), (0,)):
        raise ValueError(f"synthesize: coeffs has no first-axis coefficient, shape {c.shape}")
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    n = c.shape[0]
    cols = (c.T * np.sqrt(np.arange(n) + 0.5)).T.reshape(n, -1)
    out = np.empty((cols.shape[1], flat.size))
    step = max(16, _BLOCK_CELLS // (4 * n))
    for j in range(0, flat.size, step):
        legendre = special.legendre_p_all(n - 1, flat[j : j + step])[0]
        out[:, j : j + step] = np.einsum("dp,dk->kp", legendre, cols)
    return out.reshape(c.shape[1:] + xa.shape)[()]  # a scalar x gives a scalar


def project(phi, n_trunc: int, quad_order: int | None = None) -> np.ndarray:
    """Coefficient array of a callable on (-1,1) on the first n_trunc
    orthonormal modes Phat_n = sqrt(n+1/2) P_n.

    The Legendre-Vandermonde columns come from numpy's legvander recurrence
    a block of at most _BLOCK_CELLS cells at a time, each summed over the
    nodes alone, so every coefficient has the bits of the whole-array sum.
    The rule has quad_order nodes, max(2 n_trunc, 64) by default; both >= 1.
    """
    quad_order = max(2 * n_trunc, 64) if quad_order is None else quad_order
    for name, v in (("n_trunc", n_trunc), ("quad_order", quad_order)):
        if v < 1:
            raise ValueError(f"project: {name}={v} must be >= 1")
    x, w = _gauss_nodes(quad_order)
    weighted = w * phi(x)
    norm = np.sqrt(np.arange(n_trunc) + 0.5)
    out = np.empty(n_trunc)
    step = max(1, _BLOCK_CELLS // x.size)
    prev2 = prev = None
    for k0 in range(0, n_trunc, step):
        k1 = min(k0 + step, n_trunc)
        legendre = np.empty((k1 - k0, x.size))  # row k - k0: P_k at the nodes
        for k, row in enumerate(legendre, start=k0):
            if k < 2:
                row[...] = 1.0 if k == 0 else x
            else:
                row[...] = (prev * x * (2 * k - 1) - prev2 * (k - 1)) / k
            prev2, prev = prev, row
        terms = legendre.T * norm[k0:k1]  # nodes contiguous, as from legvander
        out[k0:k1] = (terms * weighted[:, None]).sum(axis=0)
    return out


#: DGKS (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976): a
#: Gram-Schmidt pass that leaves less than this share of the vector's norm
#: has cancelled, and the vector gets one pass more
_DGKS = 0.717


def _thick_restart_lanczos(apply, v0, n_eigs, which, ncv, max_restarts):
    """(values, vectors as rows) of the n_eigs eigenpairs at the which end
    ("SA" smallest, "LA" largest) of the symmetric operator apply, in that
    order, by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl.
    22, 2000) on a basis of ncv > n_eigs rows from the start v0.

    Each step takes the three-term recurrence (after a restart, the
    couplings to every kept vector) off A v_j, then one classical
    Gram-Schmidt pass against the whole basis, and a second pass only where
    the first leaves less than _DGKS of the norm.  A vector that the second
    pass cancels too lies in the span of the basis, an invariant subspace:
    its coupling is 0, and a fresh normal vector continues the basis, or,
    with the basis full, the Ritz pairs are exact.  After ncv steps the
    Ritz pairs of the projected matrix are checked by ARPACK's rule for
    tol = 0, |beta y_i| <= eps max(|theta_i|, eps^(2/3)) with y_i the last
    entry of Ritz vector i and beta the residual's norm.  Otherwise the
    basis restarts from the n_eigs + (ncv - n_eigs) // 2 Ritz vectors
    nearest the wanted end and the residual, so the projected matrix is
    their Ritz values, a row of couplings beta y_i, and a tridiagonal part,
    solved by eigh at ncv x ncv.  Norms are sqrt(w . w): apply's norm must
    stay below about 1e154, or numpy's overflow error state is raised.
    Raises RuntimeError, stating the restarts and products made, when
    max_restarts restarts leave a wanted pair unconverged.
    """
    n = v0.size
    eps = np.finfo(float).eps
    basis = np.empty((ncv, n))
    basis[0] = v0 / np.linalg.norm(v0)
    proj = np.zeros((ncv, ncv))  # its lower triangle: the projected operator
    step = max(1, _BLOCK_CELLS // ncv)  # columns a restart rotates at a time
    start = products = 0
    for restart in range(max_restarts + 1):
        for j in range(start, ncv):
            w = apply(basis[j])
            products += 1
            # row j of the projected matrix below its diagonal holds beta
            # of step j - 1, or the couplings of the first step of a restart
            proj[j, j] = basis[j] @ w
            lo = 0 if j == start else j - 1
            w -= proj[j, lo : j + 1] @ basis[lo : j + 1]
            norm = math.sqrt(w @ w)
            for _ in range(2):
                coef = basis[: j + 1] @ w
                w -= coef @ basis[: j + 1]
                proj[j, j] += coef[j]
                beta = math.sqrt(w @ w)
                if beta > _DGKS * norm:
                    break
                norm = beta
            else:  # w lies in the span of the basis
                beta = 0.0
            if j + 1 == ncv:
                break
            if beta == 0.0:
                w = np.random.default_rng(products).standard_normal(n)  # reproducible
                for _ in range(2):
                    w -= (basis[: j + 1] @ w) @ basis[: j + 1]
                basis[j + 1] = w / np.linalg.norm(w)
            else:
                proj[j + 1, j] = beta
                basis[j + 1] = w / beta
        theta, y = np.linalg.eigh(proj)
        if which == "LA":
            theta, y = theta[::-1], y[:, ::-1]
        bound = np.abs(beta * y[-1, :n_eigs])
        if np.all(bound <= eps * np.maximum(np.abs(theta[:n_eigs]), eps ** (2.0 / 3.0))):
            return theta[:n_eigs], y[:, :n_eigs].T @ basis
        keep = n_eigs + (ncv - n_eigs) // 2
        for col in range(0, n, step):
            basis[:keep, col : col + step] = y[:, :keep].T @ basis[:, col : col + step]
        basis[keep] = w / beta
        proj[...] = 0.0
        proj[np.arange(keep), np.arange(keep)] = theta[:keep]
        proj[keep, :keep] = beta * y[-1, :keep]
        start = keep
    raise RuntimeError(f"Lanczos did not converge in {max_restarts} restarts "
                       f"({products} products)")


def _lanczos(apply, product, n, n_eigs, which, where, overflow, room=None, maxiter=None):
    """(values ascending, vectors in that order) of n_eigs eigenpairs of a
    symmetric n x n operator A, whose product along the last axis is
    product, from thick-restart Lanczos (_thick_restart_lanczos) at the
    which end ("SA" smallest, "LA" largest) of apply, a spectral map of A
    with the same eigenvectors.

    Lanczos starts from a fixed generic vector, default_rng(0)'s normal
    draws (a symmetric one would miss the odd states when alpha = beta),
    and stops at machine precision relative to each Ritz value, which a
    value near 0 can miss, so apply puts the wanted ones at 1 or above.
    The basis holds min(n, room, max(20, 3 n_eigs - 2)) vectors, room n by
    default.  maxiter caps the restarts, 10 n by default; a restart makes
    ncv - n_eigs - (ncv - n_eigs) // 2 products, no more than the
    ncv - n_eigs of an implicit restart (ARPACK's), so a solve that never
    converges makes no more products than ARPACK allowed under the same
    cap.  The values are the Rayleigh quotients v^T A v.  Each pair must
    satisfy ||A v - lam v|| <= 1e-8 max(1, max |lam|), the norm taken on
    the row scaled by its largest modulus so that no square overflows;
    every sum runs along rows in numpy's own loops, without BLAS.  A pair
    that fails, NaN included, a solve that does not converge, and an
    overflow or invalid operation in apply, product or the recurrence
    (reported as overflow) raise RuntimeError starting with where.
    """
    v0 = np.random.default_rng(0).standard_normal(n)
    ncv = min(n, room or n, max(20, 3 * n_eigs - 2))
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, vecs = _thick_restart_lanczos(apply, v0, n_eigs, which, ncv, maxiter or 10 * n)
            rows = product(vecs)  # row j: A times vector j
    except RuntimeError as exc:
        raise RuntimeError(f"{where}: {exc}") from exc
    except FloatingPointError as exc:
        raise RuntimeError(f"{where}: {overflow}") from exc
    vals = np.sum(rows * vecs, axis=1)
    rows -= vecs * vals[:, None]
    big = np.max(np.abs(rows), axis=1)
    resid = big * np.linalg.norm(rows / np.where(big > 0.0, big, 1.0)[:, None], axis=1)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if not np.all(resid <= 1e-8 * scale):  # a NaN fails too
        raise RuntimeError(f"{where}: eigenpair residual {resid.max():.3e} exceeds tolerance")
    order = np.argsort(vals)
    return vals[order], vecs[order].T


#: a Galerkin size m runs Lanczos for n_eigs <= _LANCZOS_STATES (m // 1024)^2
#: states where |1 - alpha| + |1 - beta| <= _LANCZOS_WEIGHT, and dense
#: eigvalsh otherwise
_LANCZOS_STATES = 10
_LANCZOS_WEIGHT = 20.0


@lru_cache(maxsize=32)
def galerkin_spectrum(
    alpha: float,
    beta: float,
    n_eigs: int = 10,
    n_trunc: int = 1024,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Lowest eigenvalues of K_{alpha,beta} from the Galerkin backend.

    The |log(1 -+ x)|^d endpoint factors of the eigenfunctions make the
    truncation error fall like m^-2 in the size m, so the fixed-order
    Richardson step R(m, 2m) = (4 lam_2m - lam_m)/3 removes its leading term.
    Solves at the sizes N/8, N/4, N/2 and N give three neighbouring R.  A
    size m is dense eigvalsh for n_eigs > 10 (m // 1024)^2, so always below
    1024, and every size is where |1 - a| + |1 - b| exceeds 20: each matrix
    is written in turn into the head of one buffer of the largest dense size
    and solved there by eigvalsh, which works on a copy, so a dense size
    holds twice its matrix.  The buffer is freed, and
    every larger size runs _lanczos on K - s, applied by FFT
    (_galerkin_product) with no m x m array.  s = min(D_k - r_k) - 1, with
    r_k = 2 (|1 - a| + |1 - b|) sqrt(k + 1/2) (C S 1)_k a Gershgorin bound
    on row k's off-diagonal sum (S = diag(sqrt(k + 1/2)); C >= 0, so one
    product of C gives every r_k), puts every level at 1 or above: the
    unshifted (1, 1) matrix diag(2 h_k) loses its level 0.  No Lanczos level
    may lie above the same level of the largest dense size beyond rounding
    (Cauchy interlacing, which holds for any leading block), or a state was
    missed.
    Returns (R(N/2, N), per-state error estimates
    max(|R(N/2, N) - R(N/4, N/2)|, |R(N/4, N/2) - R(N/8, N/4)|/4)); the
    second term covers a state whose successive R cross.  N = n_trunc is a
    multiple of 8 in [8, 4096] and 1 <= n_eigs <= N/8.  Raises ValueError
    when the spectrum is continuous, as the pseudospectral backend does, and
    when alpha or beta is so large that a matrix entry overflows, and
    RuntimeError naming alpha, beta and N when a Richardson value overflows,
    and the size too when a Lanczos solve fails its checks.
    """
    params = OperatorParams(alpha, beta)
    params.require_discrete("galerkin_spectrum")
    if not (8 <= n_trunc <= 4096 and n_trunc % 8 == 0):
        raise ValueError(
            f"galerkin_spectrum: n_trunc={n_trunc} must be a multiple of 8 in [8, 4096]"
        )
    if not 1 <= n_eigs <= n_trunc // 8:
        raise ValueError(
            f"galerkin_spectrum: n_eigs={n_eigs} must lie in [1, n_trunc/8] = "
            f"[1, {n_trunc // 8}] at n_trunc={n_trunc}"
        )
    sizes = [n_trunc // 8, n_trunc // 4, n_trunc // 2, n_trunc]
    weight = abs(1.0 - alpha) + abs(1.0 - beta)
    # the wanted levels of a steep potential cluster near -alpha log 2, and
    # Lanczos needs ever more products to part them (17,056 at a weight of
    # 1e3, N = 1024): dense is faster from a weight of about 4 at N = 1024,
    # 15 at 2048 and 60 at 4096
    dense = [m for m in sizes
             if weight > _LANCZOS_WEIGHT or n_eigs > _LANCZOS_STATES * (m // 1024) ** 2]
    # eigvalsh reads the lower triangle, which _galerkin_fill writes and
    # checks in Fortran order; no leading block is copied
    buf = np.empty(dense[-1] ** 2)
    lam = []
    for m in dense:
        mat = buf[: m * m].reshape(m, m, order="F")
        _galerkin_fill(params, mat, "galerkin_spectrum")
        lam.append(np.linalg.eigvalsh(mat, UPLO="L")[:n_eigs])
    del buf, mat
    bound = lam[-1]
    at = f"galerkin_spectrum: at alpha={alpha}, beta={beta}, n_trunc={n_trunc}"
    for m in sizes[len(dense):]:
        where = f"{at}, size {m}"
        idx = np.arange(m, dtype=float)
        norm = np.sqrt(idx + 0.5)
        radii = weight * (2.0 * norm * _cauchy_product(m)(norm) / (2.0 * idx + 1.0))
        shift = float(np.min(_galerkin_diagonal(params, m) - radii)) - 1.0
        product = _galerkin_product(params, m)
        vals, _ = _lanczos(lambda x: product(x) - shift * x, product, m, n_eigs, "SA", where,
                           "a product of K overflows a double")
        missed = np.flatnonzero(vals > bound + 1e-12 * np.maximum(1.0, np.abs(bound)))
        if missed.size:
            j = missed[0]
            raise RuntimeError(f"{where}: level {j} at {vals[j]:.15e} lies above level {j} of "
                               f"the size-{dense[-1]} matrix, {bound[j]:.15e}: a state was missed")
        lam.append(vals)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        r1, r2, r3 = ((4.0 * fine - coarse) / 3.0 for coarse, fine in zip(lam, lam[1:]))
        est = np.maximum(np.abs(r3 - r2), 0.25 * np.abs(r2 - r1))
    if not np.all(np.isfinite(est)):  # as it is wherever an R is not finite
        raise RuntimeError(f"{at}: a Richardson value overflows a double")
    return tuple(map(float, r3)), tuple(map(float, est))


#: cells of the ncv x M Lanczos basis one solve may hold: as many as
#: galerkin_matrix's largest matrix, 8192^2 (512 MB)
_LANCZOS_CELLS = 1 << 26


def _pseudospectral_solve(
    alpha: float, beta: float, n_eigs: int, u_max: float, m_points: int
) -> tuple[UGrid, np.ndarray, np.ndarray]:
    """Lowest n_eigs eigenpairs of H = G(p) + V(u), ascending; each vector's
    first entry above 1e-8 in modulus is positive.

    The grid spectrum reaches up to max V + max G (56-240 at u_max = 40),
    far above the wanted levels, so _lanczos runs on the folded operator
    T_2(X) = 2 X^2 - 1, X = (H - c)/e, whose largest eigenvalues Lanczos
    finds in about half the restarts that H's smallest take, at two FFT
    products a step.  top = max V + max G bounds the spectrum, and the
    Gershgorin bound cut of the n_eigs x n_eigs block of H on the nodes
    nearest min V bounds level n_eigs (Cauchy interlacing), so c = (top +
    cut)/2, e = (top - cut)/2 maps every level below cut above 1 and the
    rest into [-1, 1]: T_2's n_eigs largest are H's n_eigs lowest.  A block
    of nearly all the nodes can put cut above top; every level then lies
    below cut and maps to |X| >= 1, in order still.  X is the multiplier
    g/e and the potential (v - c)/e, so its products stay finite wherever V
    does.  Lanczos has 5 M - 1 restarts: at two products of H a step, a
    solve that does not converge makes no more of them than the default
    10 M restarts would on H itself.

    The top level must also lie below cut; a failed check, a solve that
    does not converge or a product of H that overflows raises RuntimeError
    naming alpha, beta, u_max and m_points.  The basis holds at most
    _LANCZOS_CELLS cells; a solve needs room for at least 2 n_eigs + 1
    vectors of M points and is refused unstarted without it.
    """
    params = OperatorParams(alpha, beta)
    grid = UGrid(u_max, m_points)
    room = _LANCZOS_CELLS // m_points
    largest = min(m_points - 1, (room - 1) // 2)
    if not 1 <= n_eigs <= largest:
        raise ValueError(
            f"pseudospectral: n_eigs={n_eigs} must lie in [1, {largest}] "
            f"at m_points={m_points}"
        )
    h, v, g = _grid_hamiltonian(params, grid, "pseudospectral")
    top = float(np.max(v) + np.max(g))
    # the block on the nodes lo, ..., lo + n_eigs - 1 has entries kernel[(i -
    # j) mod M] + V_i delta_ij, so the off-diagonal radius of its row r sums
    # |kernel| over the n_eigs offsets r - n_eigs + 1, ..., r less offset 0
    kernel = np.fft.irfft(g, n=m_points)
    lo = min(max(int(np.argmin(v)) - n_eigs // 2, 0), m_points - n_eigs)
    spread = np.abs(kernel[np.arange(1 - n_eigs, n_eigs) % m_points])
    radii = np.convolve(spread, np.ones(n_eigs), "valid") - spread[n_eigs - 1]
    cut = float(np.max(v[lo : lo + n_eigs] + kernel[0] + radii))
    c, e = 0.5 * top + 0.5 * cut, 0.5 * top - 0.5 * cut
    # X = (H - c)/e is the multiplier g/e and the potential (v - c)/e
    g_x, v_x = g / e, (v - c) / e
    g_2x, v_2x = 2.0 * g_x, 2.0 * v_x

    def fold(x):
        y = np.fft.irfft(g_x * np.fft.rfft(x), m_points) + v_x * x
        return np.fft.irfft(g_2x * np.fft.rfft(y), m_points) + v_2x * y - x

    where = f"pseudospectral: at alpha={alpha}, beta={beta}, u_max={u_max}, m_points={m_points}"
    vals, vecs = _lanczos(fold, h, m_points, n_eigs, "LA", where,
                          f"a product of H overflows a double (its grid spectrum "
                          f"reaches {top:.3e})", room=room, maxiter=5 * m_points - 1)
    if not vals[-1] < cut:
        raise RuntimeError(f"{where}: level {n_eigs} at {vals[-1]:.6e} is not below the "
                           f"bound {cut:.6e} that it must lie under")
    # a unit vector has an entry of at least M^(-1/2) > 1e-8, so each has one
    first = vecs[np.argmax(np.abs(vecs) > 1e-8, axis=0), np.arange(n_eigs)]
    return grid, vals, np.where(first < 0.0, -vecs, vecs)


@lru_cache(maxsize=32)
def pseudospectral_spectrum(
    alpha: float,
    beta: float,
    n_eigs: int,
    u_max: float,
    m_points: int,
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
    """(u_nodes, kappa values, eigenvector columns) for the lowest states,
    read-only: the cache hands the same arrays to every caller."""
    grid, vals, vecs = _pseudospectral_solve(alpha, beta, n_eigs, u_max, m_points)
    out = grid.nodes, vals + 2.0 * CONSTANTS.euler_gamma, vecs
    for a in out:
        a.flags.writeable = False
    return out

