"""Jet-multiplicity evolution in the variable tau, solved two independent ways.

The density u(tau, xi) obeys a singular integral evolution equation; the
substitution u = exp(tau log 2) xi phi(tau, 2 xi - 1) turns it into
d phi / d tau = -K_{01} phi.  (Direct algebra on the integral equation gives
d u/d tau = -xi (K_{01} - log 2) phi, fixing the sign of the exponent; the
u = xi test profile, where the right-hand side is -xi log xi, confirms it.)
The matrix backend exponentiates the truncated Galerkin operator.  The
spectral backend evolves each Mehler-Fock mode of u at the rate
exp(-kappa(k) tau) without forming a conical function: Mehler's integral
factors the transform into an Abel transform followed by a cosine transform
(Koornwinder 1984; DLMF 14.20), so the evolution is a Fourier multiplier on
the Abel transform of u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import expm_multiply

from .operators import (
    OperatorParams,
    coefficient_tail_warning,
    galerkin_matrix,
    project,
    synthesize,
)
from .specfun import (
    _ABEL_NODES,
    _BLOCK_CELLS,
    CONSTANTS,
    _abel_rule,
    _clenshaw,
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


#: least bound on |u(xi_0)|/max(1, max|u|) in EvolutionState; it acts only
#: where sqrt(xi_0)(3 + log(1/xi_0)) is smaller, on grids with xi_0 < 1.5e-11
_VANISH_FLOOR = 1e-4


@dataclass
class EvolutionState:
    """Samples of the multiplicity density u(tau, xi) on a xi-grid.

    Samples that are not finite or do not vanish at xi = 0 raise ValueError
    here, where a profile enters the evolution backends.
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
        if self.xi_grid.ndim != 1 or self.xi_grid.size < 4:
            raise ValueError("EvolutionState: xi_grid must be 1-d with >= 4 points")
        xi = self.xi_grid
        if not (xi[0] > 0 and xi[-1] <= 1 and np.all(np.diff(xi) > 0)):
            raise ValueError("EvolutionState: xi_grid must increase within (0, 1]")
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
        bound = max(_VANISH_FLOOR, math.sqrt(xi0) * (3.0 - math.log(xi0)))
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
    """Chebyshev-distributed nodes on (0, 1], clustered at xi = 0.

    4 to 4096 points: an evolution state needs at least 4, and the cost of
    its interpolant and projection grows with the point count.
    """
    if not 4 <= n_points <= 4096:
        raise ValueError(f"default_xi_grid: n_points={n_points} must lie in [4, 4096]")
    j = np.arange(1, n_points + 1)
    return 0.5 * (1.0 - np.cos(math.pi * j / n_points))


def state_interpolant(state: EvolutionState):
    """Polynomial interpolant through the state samples with u(0) pinned to 0.

    A callable on scalars and arrays, in the barycentric form
    sum_j w_j u_j/(x - x_j) / sum_j w_j/(x - x_j) with w_j = 1/prod_k (x_j - x_k),
    formed from sums of log|x_j - x_k| so it neither overflows nor
    underflows; no node order is random.  A point that lands on a node
    returns that node's sample.
    """
    nodes = np.concatenate(([0.0], state.xi_grid))
    vals = np.concatenate(([0.0], state.u_values))
    # log sums a block of whole rows at a time: O(_BLOCK_CELLS) memory, and
    # each row sums exactly as it would in one block
    log_w = np.empty(nodes.size)
    step = max(1, _BLOCK_CELLS // nodes.size)
    for j in range(0, nodes.size, step):
        diff = np.subtract.outer(nodes[j : j + step], nodes)
        diff[:, j : j + step][np.diag_indices(diff.shape[0])] = 1.0
        np.abs(diff, out=diff)
        log_w[j : j + step] = -np.sum(np.log(diff, out=diff), axis=1)
    # the nodes increase, so node j has n - 1 - j factors x_j - x_k < 0
    weights = np.exp(log_w - log_w.max())
    weights[-2::-2] *= -1.0

    def interpolant(x):
        xa = np.asarray(x, dtype=float)
        c = np.atleast_1d(xa)[..., None] - nodes
        on_node = c == 0.0
        c[on_node] = 1.0
        np.divide(weights, c, out=c)
        p = (c @ vals) / np.sum(c, axis=-1)
        hit = np.nonzero(on_node)
        p[hit[:-1]] = vals[hit[-1]]
        return p.reshape(xa.shape)

    return interpolant


def mm_rhs(state: EvolutionState, xi: float) -> float:
    """Right-hand side of the multiplicity evolution equation at one xi:

    integral_0^1 d eta/(1-eta) [u(eta xi)/eta - u(xi)]
      + integral_xi^1 d eta/(1-eta) [u(xi/eta) - u(xi)].

    Both integrands are finite at eta = 1 (the pole is subtracted); u is the
    barycentric interpolant of the state.
    """
    if not state.xi_grid[0] <= xi <= state.xi_grid[-1]:
        raise ValueError(
            f"mm_rhs: xi={xi} outside the interpolable range "
            f"[{state.xi_grid[0]:.3e}, {state.xi_grid[-1]:.3e}]"
        )
    from scipy.integrate import quad

    f = state_interpolant(state)
    fx = float(f(xi))
    cut = 1.0 - 1e-9

    def integrand1(eta):
        eta = min(eta, cut)
        return (float(f(eta * xi)) / eta - fx) / (1.0 - eta)

    def integrand2(eta):
        eta = min(eta, cut)
        return (float(f(min(xi / eta, 1.0))) - fx) / (1.0 - eta)

    v1, _ = quad(integrand1, 0.0, 1.0, limit=200, epsabs=1e-10, epsrel=1e-10)
    v2, _ = quad(integrand2, xi, 1.0, limit=200, epsabs=1e-10, epsrel=1e-10)
    return v1 + v2


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


@lru_cache(maxsize=1)
def _k01_matrix(n_trunc: int) -> np.ndarray:
    """Read-only Galerkin matrix of K_{01}.

    evolve_matrix asks for size 2N only: the size-N matrix is its leading
    block, bit for bit.
    """
    mat = galerkin_matrix(OperatorParams(0.0, 1.0), n_trunc)
    mat.flags.writeable = False
    return mat


def _matrix_step(
    mat: np.ndarray, coeffs: np.ndarray, xi_grid: np.ndarray, dtau: float
) -> np.ndarray:
    """xi phi after one truncated-Galerkin exponential of the matrix mat.

    The exp(dtau log 2) factor is left to the caller.
    """
    coefficient_tail_warning(coeffs)
    # expm_multiply sizes its steps with onenormest, which draws random sign
    # vectors from numpy's global RNG; a fixed seed makes the result
    # reproducible, and the caller's RNG state is restored
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        # an overflowing growth is reported once, by evolve_matrix's
        # finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            evolved = expm_multiply(-dtau * mat, coeffs)
    finally:
        np.random.set_state(rng_state)
    return xi_grid * synthesize(evolved, 2.0 * xi_grid - 1.0)


def evolve_matrix(
    state: EvolutionState, tau_final: float, n_trunc: int = 960
) -> EvolutionState:
    """Evolve by exponentiating the truncated Galerkin matrix of K_{01}.

    The profile is mapped to phi(x) = u(xi)/xi with x = 2 xi - 1, expanded in
    the orthonormal Legendre basis, propagated with the scaling-and-squaring
    exponential action, and mapped back with the exp(dtau log 2) prefactor.
    The expansion needs a Gauss rule sized to the state, not to n_trunc: the
    interpolant through the points + 1 nodes (xi = 0 included) has degree
    points, so phi has degree points - 1, only its first points coefficients
    are nonzero, and their integrands, of degree <= 2 points - 2, are exact
    on the points-node rule.  The K_{01} matrix depends on neither tau nor
    the profile; the 2 n_trunc matrix is built once and cached, and the
    n_trunc step uses its leading block.
    The log-potential matrix couples all mode pairs with 1/(n-m) decay, so the
    truncation error falls off like 1/n_trunc; the step is therefore run at
    n_trunc and 2 n_trunc and Richardson-extrapolated, with the difference of
    the two sizes kept as an error estimate.  1 <= n_trunc <= 4096, checked
    here so that the message names the caller's N rather than 2N.
    """
    if not 1 <= n_trunc <= 4096:
        raise ValueError(f"evolve_matrix: n_trunc={n_trunc} must lie in [1, 4096]")
    dtau = _delta_tau(state, tau_final)
    mat = _k01_matrix(2 * n_trunc)
    growth = math.exp(dtau * _LOG2)
    coeffs = _state_coeffs(state, 2 * n_trunc)
    u_coarse = _matrix_step(
        mat[:n_trunc, :n_trunc], coeffs[:n_trunc], state.xi_grid, dtau
    )
    u_fine = _matrix_step(mat, coeffs, state.xi_grid, dtau)
    u_new = growth * (2.0 * u_fine - u_coarse)
    if not np.all(np.isfinite(u_new)):
        raise RuntimeError(
            f"evolve_matrix: evolved profile is not finite at tau={tau_final:g}"
        )
    err = growth * float(np.max(np.abs(u_fine - u_coarse)))
    return EvolutionState(
        tau=tau_final,
        xi_grid=state.xi_grid.copy(),
        u_values=u_new,
        meta={"backend": "matrix", "n_trunc": n_trunc, "truncation_estimate": err},
    )


def _abel_grid(dtau: float) -> tuple[float, int]:
    """Half-period S and FFT length n of the s-grid for a step dtau.

    The kernel of the multiplier exp(-kappa(k) dtau) falls like
    exp(-s/2 + 2 sqrt(dtau s)), up to powers of s (kappa has poles at
    k = +-i/2), so its periodic images at distance 2S need a period that
    grows with dtau: S = max(60, 20 + 25 sqrt(dtau)), rounded up to a whole
    block of 32 spacings.  S = 60 and n = 640 for every dtau <= 2.5.
    """
    half = 32 * math.ceil(max(60.0, 20.0 + 25.0 * math.sqrt(dtau)) / (32 * _S_STEP))
    return half * _S_STEP, 2 * half


def _abel_fourier_step(
    state: EvolutionState, dtau: float, s_max: float, n: int
) -> np.ndarray:
    """u at the state's grid after a step dtau, on the s-grid (s_max, n).

    With f(y) = u(2/(1 + y)) and y = cosh r (so xi = sech^2(r/2)):
      1. A(s) = integral_s^S f(cosh r) sinh r / sqrt(cosh r - cosh s) dr at
         s_j = j S/(n/2), j = 0..n/2;
      2. the real FFT of the even extension of A over [-S, S), a DCT-I,
         times exp(-kappa(k_m) dtau) at k_m = pi m/S;
      3. u(cosh r) = -(1/pi) integral_r^S A_dtau'(s) / sqrt(cosh s - cosh r) ds,
         with A_dtau' summed from its sine series at the quadrature nodes.
    """
    xi = state.xi_grid
    r = 2.0 * np.arcsinh(np.sqrt((1.0 - xi) / xi))
    if r[0] >= s_max:
        raise ValueError(
            f"evolve_spectral: xi={xi[0]:.3e} lies beyond the s-grid; the step "
            f"resolves xi > sech^2(S/2) = {math.cosh(0.5 * s_max) ** -2:.3e}"
        )
    f = state_interpolant(state)
    half = n // 2
    s = (s_max / half) * np.arange(half + 1)
    a = np.zeros(half + 1)  # the integral at s = S is empty
    step = max(1, _BLOCK_CELLS // (_ABEL_NODES * (xi.size + 1)))
    for j in range(0, half, step):
        rows = slice(j, min(j + step, half))
        t, weight = _abel_rule(s[rows], s_max)
        a[rows] = np.sum(weight * np.sinh(t) * f(np.cosh(0.5 * t) ** -2.0), axis=1)
    k = (math.pi / s_max) * np.arange(half + 1)
    a_hat = np.fft.rfft(np.concatenate((a, a[-2:0:-1]))).real
    # A_dtau'(s) = sum_m b_m sin(m theta), theta = pi s/S, the Nyquist term
    # at half weight; summed by Clenshaw's recurrence, which needs one cosine
    # and one sine per node
    b = (-2.0 / n) * k * a_hat * np.exp(-lipatov_kappa(k) * dtau)
    b[-1] *= 0.5
    t, weight = _abel_rule(r, s_max)
    theta = (math.pi / s_max) * t
    c1, _ = _clenshaw(b, 2.0 * np.cos(theta))
    return np.sum(weight * c1 * np.sin(theta), axis=1) / -math.pi


def evolve_spectral(state: EvolutionState, tau_final: float) -> EvolutionState:
    """Evolve each Mehler-Fock mode of u by exp(-kappa(k) dtau).

    kappa(k) is the mode rate kappa(k) + log 2 of K_{01} minus the overall
    log 2 rate of the change of variables.  Mehler's integral writes the
    transform as an Abel transform A(s) of u followed by a cosine transform,
    so the step is a forward Abel transform, a real-FFT multiplier on the
    even periodic extension of A, and an inverse Abel transform (see
    _abel_fourier_step); no conical function is formed.  The s-grid depends
    on dtau alone (_abel_grid), and meta states it: the half-period s_max,
    the FFT length n_fft and the Gauss nodes per Abel integral.
    """
    dtau = _delta_tau(state, tau_final)
    s_max, n = _abel_grid(dtau)
    # an overflowing growth is reported once, by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        u_new = _abel_fourier_step(state, dtau, s_max, n)
    if not np.all(np.isfinite(u_new)):
        raise RuntimeError(
            f"evolve_spectral: evolved profile is not finite at tau={tau_final:g}"
        )
    return EvolutionState(
        tau=tau_final,
        xi_grid=state.xi_grid.copy(),
        u_values=u_new,
        meta={
            "backend": "spectral",
            "s_max": s_max,
            "n_fft": n,
            "abel_nodes": _ABEL_NODES,
        },
    )
