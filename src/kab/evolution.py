"""Jet-multiplicity evolution in the variable tau, solved two independent ways.

The density u(tau, xi) obeys a singular integral evolution equation; the
substitution u = exp(tau log 2) xi phi(tau, 2 xi - 1) turns it into
d phi / d tau = -K_{01} phi.  (Direct algebra on the integral equation gives
d u/d tau = -xi (K_{01} - log 2) phi, fixing the sign of the exponent; the
u = xi test profile, where the right-hand side is -xi log xi, confirms it.)
The matrix backend exponentiates the truncated Galerkin operator by Lanczos,
applying it by FFT (operators._galerkin_product), so no matrix is formed.
The spectral backend evolves each Mehler-Fock mode of u at the rate
exp(-kappa(k) tau) without forming a conical function: Mehler's integral
factors the transform into an Abel transform followed by a cosine transform
(Koornwinder 1984; DLMF 14.20), so the evolution is a Fourier multiplier on
the Abel transform of u.  Both Abel transforms are matrices fixed by the
state's grid and the s-grid, built once per grid pair and cached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .operators import OperatorParams, _galerkin_product, project, synthesize
from .specfun import (
    _ABEL_PANELS,
    _ABEL_S_MAX,
    _BLOCK_CELLS,
    _PANEL_NODES,
    CONSTANTS,
    _abel_blocks,
    _gauss_nodes,
    lipatov_kappa,
)

__all__ = [
    "PROFILES",
    "EvolutionState",
    "default_xi_grid",
    "state_interpolant",
    "mm_rhs",
    "evolve_matrix",
    "evolve_spectral",
]

_LOG2 = CONSTANTS.log2
_LOG_DBL_MAX = math.log(np.finfo(float).max)

#: spacing of the spectral backend's s-grid: the cosine series of the Abel
#: transform is resolved to rounding at 3/16 (at 0.3 a round trip loses 1e-9)
_S_STEP = 3.0 / 16.0

# named initial profiles for transforms and evolution runs; all vanish
# quadratically at xi = 0, so the t-integral tail of the Mehler-Fock
# transform (kab mehler-fock) is negligible
PROFILES = {
    "xi-sq": lambda xi: xi * xi * (1.0 - xi),
    "xi-sq-sq": lambda xi: (xi * (1.0 - xi)) ** 2,
    "xi-cube": lambda xi: xi**3 * (1.0 - xi),
}


@dataclass
class EvolutionState:
    """Samples of the multiplicity density u(tau, xi) on default_xi_grid(n).

    A grid off default_xi_grid(n) by more than 1e-9 relative (its 10-digit
    print passes), and samples that are not finite or do not vanish at
    xi = 0, raise ValueError here, where a profile enters the backends.
    """

    tau: float
    xi_grid: np.ndarray
    u_values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xi_grid = np.asarray(self.xi_grid, dtype=float)
        self.u_values = np.asarray(self.u_values, dtype=float)
        if self.tau < 0 or not math.isfinite(self.tau):
            raise ValueError("EvolutionState.tau must be finite and >= 0")
        xi, n = self.xi_grid, self.xi_grid.size
        if xi.ndim != 1 or not 4 <= n <= 4096:
            raise ValueError(
                f"EvolutionState: xi_grid of shape {xi.shape} is no default_xi_grid(n)"
            )
        off = np.flatnonzero(~np.isclose(xi, default_xi_grid(n), rtol=1e-9, atol=0.0))
        if off.size:
            raise ValueError(
                f"EvolutionState: xi_grid[{off[0]}] = {xi[off[0]]:.17g} is off "
                f"default_xi_grid({n}) by more than 1e-9 relative"
            )
        if self.u_values.shape != xi.shape:
            raise ValueError("EvolutionState: u_values shape mismatch")
        bad = np.flatnonzero(~np.isfinite(self.u_values))
        if bad.size:
            raise ValueError(f"EvolutionState: u_values[{bad[0]}] is not finite")
        scale = max(1.0, float(np.max(np.abs(self.u_values))))
        # the density must vanish at xi = 0 for the kernel integrals to
        # converge; evolved profiles behave like sqrt(xi) log(1/xi) near zero
        # (the slowest mode, ~ (sqrt(xi)/pi) log(16/xi), dominates at large tau)
        xi0 = float(xi[0])
        bound = math.sqrt(xi0) * (3.0 - math.log(xi0))
        if abs(self.u_values[0]) > bound * scale:
            raise ValueError(
                f"EvolutionState: |u| = {abs(self.u_values[0]):.3e} at the first grid "
                f"point xi = {xi0:.3e}; profile does not vanish at xi = 0"
            )

    def to_csv_rows(self):
        return [(float(x), float(v)) for x, v in zip(self.xi_grid, self.u_values)]

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "xi": [float(v) for v in self.xi_grid],
            "u": [float(v) for v in self.u_values],
            "meta": self.meta,
        }


def default_xi_grid(n_points: int = 96) -> np.ndarray:
    """The grid of every EvolutionState: the Chebyshev-Lobatto points
    (1 - cos(pi j/n))/2 of [0, 1], j = 1..n = n_points, 4 to 4096 (xi = 0,
    j = 0, is where state_interpolant pins u(0) = 0).  default_xi_grid(n) is
    every second node of default_xi_grid(2n).
    """
    if not 4 <= n_points <= 4096:
        raise ValueError(f"default_xi_grid: n_points={n_points} must lie in [4, 4096]")
    j = np.arange(1, n_points + 1)
    return 0.5 * (1.0 - np.cos(math.pi * j / n_points))


def _lobatto_nodes(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights): 0 and the grid xi, and their closed-form barycentric
    weights (-1)^j, halved at both ends (Salzer 1972)."""
    nodes = np.concatenate(([0.0], xi))
    weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    return nodes, weights


def _cauchy(nodes: np.ndarray, weights: np.ndarray, x: np.ndarray):
    """(c, hit, at): c[i, j] = weights[j]/(x_i - nodes[j]), except that a point
    x_i on a node, listed in hit, takes 1 there, at that node's index at."""
    # x - x_k vanishes only at x = x_k; the nodes increase, so a point's one
    # candidate is its insertion index
    k = np.minimum(np.searchsorted(nodes, x), nodes.size - 1)
    hit = np.flatnonzero(nodes[k] == x)
    c = x[:, None] - nodes
    c[hit, k[hit]] = 1.0
    np.divide(weights, c, out=c)
    return c, hit, k[hit]


def state_interpolant(state: EvolutionState):
    """Polynomial interpolant through the state samples with u(0) pinned to 0.

    A callable on scalars and arrays, in the barycentric form
    sum_j w_j u_j/(x - x_j) / sum_j w_j/(x - x_j) on the Chebyshev-Lobatto
    nodes 0 = x_0 < ... < x_n = 1, whose weights are w_j = (-1)^j, halved at
    j = 0 and n (Salzer 1972; Berrut & Trefethen, SIAM Review 46, 2004).  A
    point that lands on a node returns that node's sample.
    """
    nodes, weights = _lobatto_nodes(state.xi_grid)
    vals = np.concatenate(([0.0], state.u_values))

    # the interpolant takes O(_BLOCK_CELLS) cells at a time.  gemv sums rows
    # in groups (of 4 in OpenBLAS) and a lone row in another order, so a block
    # holds a multiple of 16 points, the last at least 2: each sums as in one
    points = max(16, _BLOCK_CELLS // nodes.size // 16 * 16)

    def interpolant(x):
        xa = np.asarray(x, dtype=float)
        flat = xa.ravel()
        p = np.empty(flat.size)
        for j in range(0, max(1, flat.size - 1), points):
            end = flat.size if j + points >= flat.size - 1 else j + points
            c, hit, at = _cauchy(nodes, weights, flat[j:end])
            block = (c @ vals) / np.sum(c, axis=1)
            block[hit] = vals[at]
            p[j:end] = block
        return p.reshape(xa.shape)

    return interpolant


def mm_rhs(state: EvolutionState, xi: float) -> float:
    """Right-hand side of the multiplicity evolution equation at one xi:

    integral_0^1 d eta/(1-eta) [u(eta xi)/eta - u(xi)]
      + integral_xi^1 d eta/(1-eta) [u(xi/eta) - u(xi)].

    Both integrands are finite at eta = 1 (the pole is subtracted); u is the
    barycentric interpolant of the state, a polynomial with u(0) = 0, so the
    first integrand is a polynomial in eta, which Gauss-Legendre on
    2 * points nodes integrates exactly; the second takes that rule in t,
    eta = xi^t.
    """
    if not state.xi_grid[0] <= xi <= state.xi_grid[-1]:
        raise ValueError(
            f"mm_rhs: xi={xi} outside the interpolable range "
            f"[{state.xi_grid[0]:.3e}, {state.xi_grid[-1]:.3e}]"
        )
    f = state_interpolant(state)
    fx = float(f(xi))
    z, w = _gauss_nodes(2 * state.xi_grid.size)
    t = 0.5 * (z + 1.0)
    v1 = 0.5 * w @ ((f(t * xi) / t - fx) / (1.0 - t))
    # d eta/(1 - eta) = -log(xi) xi^t dt/(1 - xi^t) = xi^t dt/(t exprel(t log xi))
    s = t * math.log(xi)
    eta = np.exp(s)
    v2 = 0.5 * w @ (eta * (f(xi / eta) - fx) / (t * special.exprel(s)))
    return float(v1 + v2)


def _delta_tau(state: EvolutionState, tau_final: float) -> float:
    """The step tau_final - state.tau, checked against the a-priori growth bound.

    kappa(k) >= kappa(0) = -4 log 2, so no mode of u grows faster than
    16^dtau; a step whose bound 16^dtau max|u| overflows a double is
    refused before any work (max|u| is floored at the smallest normal
    double, so a zero profile is bounded too).
    """
    if not math.isfinite(tau_final):
        raise ValueError(f"evolve: tau_final={tau_final} must be finite")
    if tau_final < state.tau:
        raise ValueError(
            f"evolve: tau_final={tau_final} precedes the state time {state.tau}"
        )
    dtau = tau_final - state.tau
    peak = max(float(np.max(np.abs(state.u_values))), np.finfo(float).tiny)
    if 4.0 * _LOG2 * dtau + math.log(peak) > _LOG_DBL_MAX:
        raise OverflowError(
            f"evolve: the growth bound 16^{dtau:g} * max|u| (max|u| = {peak:.3g}) "
            "overflows a double"
        )
    return dtau


def _evolved(state: EvolutionState, tau_final: float, backend: str, step) -> EvolutionState:
    """The state at tau_final from the backend's step(dtau) -> (u, meta); an
    overflowing growth is reported once, by the finiteness check here."""
    dtau = _delta_tau(state, tau_final)
    with np.errstate(over="ignore", invalid="ignore"):
        u_new, meta = step(dtau)
    if not np.all(np.isfinite(u_new)):
        raise RuntimeError(
            f"evolve_{backend}: evolved profile is not finite at tau={tau_final:g}"
        )
    return EvolutionState(
        tau=tau_final,
        xi_grid=state.xi_grid.copy(),
        u_values=u_new,
        meta={"backend": backend, **meta},
    )


def _state_coeffs(state: EvolutionState, n_trunc: int) -> np.ndarray:
    """First n_trunc orthonormal Legendre coefficients of phi(x) = u(xi)/xi.

    Modes below min(points, n_trunc) come from the points-node Gauss rule,
    which is exact (see evolve_matrix); the rest are zero.  Projecting all
    n_trunc modes on that small rule would alias.
    """
    f = state_interpolant(state)

    def phi0(x):
        xi = 0.5 * (1.0 + x)
        return f(xi) / xi

    points = state.xi_grid.size
    n_modes = min(points, n_trunc)
    coeffs = np.zeros(n_trunc)
    coeffs[:n_modes] = project(phi0, n_modes, quad_order=points)
    return coeffs


#: Lanczos stops once its a-posteriori error estimate is this share of |y|:
#: rounding in the mat-vecs already leaves an error of a few ulps
_KRYLOV_TOL = 1e-15
#: most Lanczos steps per exponential; the largest step and size that
#: evolve_matrix accepts (dtau = 512, 2N = 8192) take 46 on xi-sq
_KRYLOV_MAX_STEPS = 200
#: rows the Krylov basis grows by when a step needs room
_KRYLOV_BLOCK = 16


def _krylov_exp(product, v: np.ndarray, dtau: float) -> np.ndarray:
    """exp(-dtau K) v by the Lanczos approximation, for the symmetric K of
    size n = v.size applied by product (_galerkin_product).

    With V_m the orthonormal Krylov basis started from v/|v| and T_m = V_m' K
    V_m tridiagonal, exp(-dtau K) v ~ |v| V_m exp(-dtau T_m) e_1
    (Hochbruck & Lubich 1997): about sqrt(dtau (spread of K)) products and
    no norm estimate.  The basis is reorthogonalised in full, by two
    classical Gram-Schmidt passes, and grows by _KRYLOV_BLOCK rows as the
    steps need them, so its memory follows the steps taken.
    exp(-dtau T_m) is formed shifted by the least Ritz value theta_0, from
    numpy's dense eigh of T_m (m <= _KRYLOV_MAX_STEPS, at most 320 kB), so
    nothing overflows before the final scalar exp(-dtau theta_0).  Lanczos
    stops when the estimate beta_m |e_m' exp(-dtau (T_m - theta_0)) e_1| is
    within _KRYLOV_TOL of the result, which includes an invariant subspace
    (beta_m = 0), or at m = n, where the space is exhausted and the result
    exact.
    """
    n = v.size
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        return np.zeros(n)
    m_max = min(n, _KRYLOV_MAX_STEPS)
    basis = np.empty((_KRYLOV_BLOCK, n))
    basis[0] = v / v_norm
    diag, off = [], []
    for m in range(1, m_max + 1):
        w = product(basis[m - 1])
        head = basis[:m]
        h = head @ w
        w -= h @ head
        h2 = head @ w
        w -= h2 @ head
        diag.append(h[-1] + h2[-1])
        beta = float(np.linalg.norm(w))
        # eigh reads the lower triangle
        theta, ritz = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
        s = ritz @ (np.exp(-dtau * (theta - theta[0])) * ritz[0])
        if m == n or beta * abs(s[-1]) <= _KRYLOV_TOL * np.linalg.norm(s):
            return (v_norm * np.exp(-dtau * theta[0])) * (s @ head)
        if m < m_max:
            off.append(beta)
            if m == len(basis):
                grown = np.empty((m + _KRYLOV_BLOCK, n))
                grown[:m] = basis
                basis = grown
            basis[m] = w / beta
    raise RuntimeError(
        f"evolve_matrix: the Lanczos exponential did not converge in {m_max} "
        f"steps at dtau={dtau:g} on the matrix of size {n}"
    )


def evolve_matrix(
    state: EvolutionState, tau_final: float, n_trunc: int = 960
) -> EvolutionState:
    """Evolve by exponentiating the truncated Galerkin matrix of K_{01}.

    The profile is mapped to phi(x) = u(xi)/xi with x = 2 xi - 1, expanded in
    the orthonormal Legendre basis, propagated by the Lanczos exponential
    (_krylov_exp: 16 to 41 products at 2 n_trunc = 1920 for dtau from 0.25
    to 10, and no more beyond), and mapped back with the exp(dtau log 2)
    prefactor.
    The expansion needs a Gauss rule sized to the state, not to n_trunc: the
    interpolant through the points + 1 nodes (xi = 0 included) has degree
    points, so phi has degree points - 1, only its first points coefficients
    are nonzero, and their integrands, of degree <= 2 points - 2, are exact
    on the points-node rule.  No K_{01} matrix is formed: its product at
    sizes n_trunc and 2 n_trunc is applied by FFT (operators._galerkin_product,
    O(n log^2 n) time and O(n log n) memory), from plans that depend on
    neither tau nor the profile and are cached.  Both steps are summed on the grid together (synthesize
    on two columns).
    The log-potential matrix couples all mode pairs with 1/(n-m) decay, so the
    truncation error falls off like 1/n_trunc; the step is therefore run at
    n_trunc and 2 n_trunc and Richardson-extrapolated, with the difference of
    the two sizes kept as an error estimate.  1 <= n_trunc <= 4096, checked
    here so that the message names the caller's N rather than 2N.
    """
    if not 1 <= n_trunc <= 4096:
        raise ValueError(f"evolve_matrix: n_trunc={n_trunc} must lie in [1, 4096]")

    def step(dtau):
        growth = math.exp(dtau * _LOG2)
        coeffs = _state_coeffs(state, 2 * n_trunc)
        # the size-N step zero-padded to 2N beside the size-2N step (synthesize
        # sums by degree in order, so the padding leaves the size-N sum's bits)
        evolved = np.zeros((2 * n_trunc, 2))
        for col, n in enumerate((n_trunc, 2 * n_trunc)):
            product = _galerkin_product(OperatorParams(0.0, 1.0), n)
            evolved[:n, col] = _krylov_exp(product, coeffs[:n], dtau)
        xi = state.xi_grid
        u_coarse, u_fine = xi * synthesize(evolved, 2.0 * xi - 1.0)
        err = growth * float(np.max(np.abs(u_fine - u_coarse)))
        meta = {"n_trunc": n_trunc, "truncation_estimate": err}
        return growth * (2.0 * u_fine - u_coarse), meta

    return _evolved(state, tau_final, "matrix", step)


def _abel_grid(dtau: float) -> tuple[float, int]:
    """Half-period S and FFT length n of the s-grid for a step dtau.

    The kernel of the multiplier exp(-kappa(k) dtau) falls like
    exp(-s/2 + 2 sqrt(dtau s)), up to powers of s (kappa has poles at
    k = +-i/2), so its periodic images at distance 2S need a period that
    grows with dtau: S = max(60, 20 + 25 sqrt(dtau)), rounded up to a whole
    block of 32 spacings.  S = 60 and n = 640 for every dtau <= 2.5.
    """
    half = 32 * math.ceil(max(_ABEL_S_MAX, 20.0 + 25.0 * math.sqrt(dtau)) / (32 * _S_STEP))
    return half * _S_STEP, 2 * half


@lru_cache(maxsize=2)
def _abel_plan(grid: bytes, s_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, R), read-only: the linear maps of _abel_fourier_step on the grid
    xi (the bytes of a state's xi_grid) and the s-grid (s_max, n).

    B, (n/2 + 1) x points, takes the samples to A(s_j): specfun._abel_blocks'
    rule composed with state_interpolant's barycentric basis at the rule's
    nodes (Berrut & Trefethen, SIAM Review 46, 2004).  R, points x n/2,
    takes the multiplied cosine modes m = 1..n/2 of A to u: the same rule
    on sin(m theta), theta = pi s/S, by the recurrence sin((m + 1) theta) =
    2 cos theta sin(m theta) - sin((m - 1) theta), times the factor
    -(1/pi)(-2/n) k_m of the sine series of A', the Nyquist mode halved.
    The plan holds (n + 1) points doubles: 0.5 MB at 96 points for every
    dtau <= 2.5 (n = 640); at 4096 points 78 MB at dtau = 64 and 147 MB at
    dtau = 256, max|u| = 1's longest step (206 MB at _delta_tau's longest).
    Its build forms blocks of at most a quarter of _BLOCK_CELLS cells (whole
    ones added 1 MB to a process's peak memory at 96 points) and costs
    O(points) per Abel node and basis node or sine mode; a step, O(points n).
    """
    xi = np.frombuffer(grid)
    nodes, weights = _lobatto_nodes(xi)
    half = n // 2
    forward = np.zeros((half + 1, xi.size))  # A(S) = 0
    s = (s_max / half) * np.arange(half)
    for rows, t, w in _abel_blocks(s, s_max, _ABEL_PANELS, 4 * nodes.size):
        # c's rows become the Lagrange basis at the nodes t, times the rule's
        # weight and sinh t; u(0) = 0, so the basis of x_0 = 0 drops out
        c, hit, at = _cauchy(nodes, weights, np.cosh(0.5 * t.ravel()) ** -2.0)
        c[hit] = 0.0
        c[hit, at] = 1.0
        c *= ((w * np.sinh(t)).ravel() / np.sum(c, axis=1))[:, None]
        forward[rows] = c.reshape(*t.shape, nodes.size).sum(axis=1)[:, 1:]
    inverse = np.empty((xi.size, half))
    r = 2.0 * np.arcsinh(np.sqrt((1.0 - xi) / xi))
    for rows, t, w in _abel_blocks(r, s_max, _ABEL_PANELS, 8):
        theta = (math.pi / s_max) * t
        two_cos = 2.0 * np.cos(theta)
        prev, mode = np.zeros_like(theta), np.sin(theta)
        for m in range(half):
            inverse[rows, m] = np.einsum("ij,ij->i", w, mode)
            prev, mode = mode, two_cos * mode - prev
    scale = (2.0 / (n * s_max)) * np.arange(1, half + 1)
    scale[-1] *= 0.5
    inverse *= scale
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def _abel_fourier_step(
    state: EvolutionState, dtau: float, s_max: float, n: int
) -> np.ndarray:
    """u at the state's grid after a step dtau, on the s-grid (s_max, n).

    With f(y) = u(2/(1 + y)) and y = cosh r (xi = sech^2(r/2), r < 17.2 < S):
      1. A(s) = integral_s^S f(cosh r) sinh r / sqrt(cosh r - cosh s) dr at
         s_j = j S/(n/2), j = 0..n/2, of the state's interpolant, B u;
      2. the real FFT of the even extension of A over [-S, S), a DCT-I,
         times exp(-kappa(k_m) dtau) at k_m = pi m/S;
      3. u(cosh r) = -(1/pi) integral_r^S A_dtau'(s) / sqrt(cosh s - cosh r) ds,
         A_dtau' summed from its sine series, R times step 2's modes m >= 1.
    B and R come from the cached _abel_plan.
    """
    forward, inverse = _abel_plan(state.xi_grid.tobytes(), s_max, n)
    a = forward @ state.u_values
    a_hat = np.fft.rfft(np.concatenate((a, a[-2:0:-1]))).real
    k = (math.pi / s_max) * np.arange(1, n // 2 + 1)
    return inverse @ (a_hat[1:] * np.exp(-lipatov_kappa(k) * dtau))


def evolve_spectral(state: EvolutionState, tau_final: float) -> EvolutionState:
    """Evolve each Mehler-Fock mode of u by exp(-kappa(k) dtau).

    kappa(k) is the mode rate kappa(k) + log 2 of K_{01} minus the overall
    log 2 rate of the change of variables.  Mehler's integral writes the
    transform as an Abel transform A(s) of u followed by a cosine transform,
    so the step is a forward Abel transform, a real-FFT multiplier on the
    even periodic extension of A, and an inverse Abel transform (see
    _abel_fourier_step); no conical function is formed.  The s-grid depends
    on dtau alone (_abel_grid), and meta states it: the half-period s_max,
    the FFT length n_fft and the Gauss nodes per Abel integral.  Both Abel
    transforms are linear maps fixed by the grid and the s-grid, built on
    the first step there (_abel_plan) and cached, so a later step on the
    same grids costs two matrix-vector products and one real FFT.
    """

    def step(dtau):
        s_max, n = _abel_grid(dtau)
        meta = {"s_max": s_max, "n_fft": n, "abel_nodes": _ABEL_PANELS * _PANEL_NODES}
        return _abel_fourier_step(state, dtau, s_max, n), meta

    return _evolved(state, tau_final, "spectral", step)
