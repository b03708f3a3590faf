"""WKB machinery: the closed-form spectrum, the Bohr-Sommerfeld quantization
integral with exact kinetic inverse, semiclassical wavefunctions, boundary
exponents, and the linear-potential Fourier solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .operators import OperatorParams, potential_v
from .specfun import (
    _BLOCK_CELLS,
    BIG_G_MIN,
    CONSTANTS,
    _check_finite,
    _check_positive,
    _gauss_nodes,
    _illinois,
    big_g_inverse,
    phase_integral,
)

__all__ = [
    "WkbSpectrumRow",
    "BoundaryExponents",
    "wkb_eigenvalue",
    "bohr_sommerfeld_solve",
    "semiclassical_wavefunction",
    "boundary_exponents",
    "fit_boundary_exponent",
    "linear_potential_solution",
    "stable_log_one_minus_x",
]

_GAMMA = CONSTANTS.euler_gamma
_LOG2 = CONSTANTS.log2


@dataclass(frozen=True)
class WkbSpectrumRow:
    n: int
    kappa_closed_form: float
    kappa_bohr_sommerfeld: float | None = None


@dataclass(frozen=True)
class BoundaryExponents:
    """Powers of |log(1 +- x)| in the endpoint asymptotics of eigenfunctions."""

    d_alpha: float
    d_beta: float


def wkb_eigenvalue(n: int, alpha: float, beta: float) -> float:
    """Closed-form WKB eigenvalue on the kappa scale:

    kappa_n = 2[log(pi(n+1/2)) - log B(alpha/2, beta/2)
              + (1 - (alpha+beta)/2) log 2 + gamma_E].

    For (1,1) this reduces to kappa_n/2 = log(n+1/2) + gamma_E.
    """
    if n < 0:
        raise ValueError("wkb_eigenvalue: n must be >= 0")
    _check_positive("wkb_eigenvalue", alpha=alpha, beta=beta)
    return 2.0 * (
        math.log(math.pi * (n + 0.5))
        - float(special.betaln(0.5 * alpha, 0.5 * beta))
        + (1.0 - 0.5 * (alpha + beta)) * _LOG2
        + _GAMMA
    )


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld with exact G^{-1}


_BS_QUAD_N = 160


def _bs_phase(params: OperatorParams, kappa_prime: np.ndarray) -> np.ndarray:
    """(1/pi) * integral_a^b G^{-1}(kappa' - V(u)) du for each kappa' above the
    well's bottom, between its turning points V(a) = V(b) = kappa' - G(0).

    The substitution u = m + w sin(theta) absorbs the square-root vanishing of
    the integrand at the turning points, so Gauss-Legendre in theta converges
    rapidly.
    """
    u_star = 0.5 * math.log(params.alpha / params.beta)
    v_min = float(potential_v(u_star, params))
    # V grows like 2*alpha*|u| (left) and 2*beta*u (right)
    level = np.concatenate((kappa_prime, kappa_prime)) - BIG_G_MIN
    side = np.repeat([-0.5 / params.alpha, 0.5 / params.beta], kappa_prime.size)
    ends = u_star + side * (level - v_min) + 5.0 * np.sign(side)
    roots = _illinois(
        lambda u, idx: potential_v(u, params) - level[idx], np.full(level.size, u_star),
        ends, v_min - level, potential_v(ends, params) - level, 0.0,
        "bohr_sommerfeld_solve: turning points", x_tol=1e-13,
    )
    a, b = np.split(roots, 2)
    half = 0.5 * (b - a)
    x, w = _gauss_nodes(_BS_QUAD_N)
    theta = 0.5 * math.pi * x
    u = (0.5 * (a + b))[:, None] + half[:, None] * np.sin(theta)
    p = big_g_inverse(np.maximum(kappa_prime[:, None] - potential_v(u, params), BIG_G_MIN))
    return np.sum(w * p * np.cos(theta), axis=1) * half * 0.5


def bohr_sommerfeld_solve(n, alpha: float, beta: float):
    """Solve the quantization condition integral_a^b G^{-1}(kappa' - V) du =
    pi (n + 1/2) with the exact numeric inverse of G and true turning points
    V(u) = kappa' - G(0); returns the eigenvalue on the kappa scale
    (kappa = kappa' + 2 gamma_E).

    n is a non-negative integer or an integer array of them; the levels of
    an array are solved together, each to the value it has alone.  Raises
    RuntimeError when the doubles near the well's bottom are too coarse to
    resolve the spacing of the highest level.
    """
    na = np.asarray(n)
    if not (np.issubdtype(na.dtype, np.integer) and np.all(na >= 0)):
        raise ValueError(f"bohr_sommerfeld_solve: n={n!r} must be a non-negative integer")
    _check_positive("bohr_sommerfeld_solve", alpha=alpha, beta=beta)
    params = OperatorParams(alpha, beta)
    target = na.ravel() + 0.5
    phase = lambda kp, idx: _bs_phase(params, kp) - target[idx]
    # the phase vanishes at the bottom of the well and grows with kappa';
    # the closed form, kappa'_n = kappa'_0 + 2 log(2n + 1), lies near the root
    bottom = float(potential_v(0.5 * math.log(alpha / beta), params)) + BIG_G_MIN
    kp0 = wkb_eigenvalue(0, alpha, beta) - 2.0 * _GAMMA
    hi = np.maximum(kp0 + 2.0 * np.log(2.0 * target), bottom) + 1.0
    f_hi = phase(hi, np.arange(target.size))
    while np.any(short := f_hi < 0.0):
        grown = hi[short] + 1.0
        if np.any(grown == hi[short]):
            # V's offset -(alpha + beta) log 2 has outgrown the level spacing
            raise RuntimeError(f"bohr_sommerfeld_solve: kappa'={hi[short][0]:.6g} "
                               f"absorbs a step of 1 at alpha={alpha:g}, beta={beta:g}")
        hi[short] = grown
        f_hi[short] = phase(hi[short], np.flatnonzero(short))
    # kappa' is known to about one double near the bottom, which must stay below
    # 1% of the closed form's spacing 2 log1p(1/(n + 1/2)) of the highest level
    gap = 2.0 * math.log1p(1.0 / target.max(initial=0.5))
    if np.spacing(abs(bottom)) > 0.01 * gap:
        raise RuntimeError(f"bohr_sommerfeld_solve: the doubles near kappa'={bottom:.6g} do "
                           f"not resolve a level spacing of {gap:.3g} at alpha={alpha:g}, "
                           f"beta={beta:g}")
    kappa = 2.0 * _GAMMA + _illinois(phase, np.full(target.size, bottom), hi, -target,
                                     f_hi, 1e-13, "bohr_sommerfeld_solve", x_tol=1e-13)
    return float(kappa[0]) if na.ndim == 0 else kappa.reshape(na.shape)


# ---------------------------------------------------------------------------
# semiclassical wavefunctions


def _sc_amplitude(alpha: float, beta: float, kappa_prime: float) -> float:
    """A fixing unit L2 norm of the WKB wavefunction, in closed form.

    The phase has d phase = e^((kappa' - V)/2) du, so sin^2(phase + pi/4)
    e^(-V/2) du integrates over the line to e^(-kappa'/2) [Phi + (1 -
    cos 2 Phi)/2]/2, Phi the full-line phase.  At the WKB level
    Phi = pi(n + 1/2), and A = sqrt(2 e^(kappa'/2)/(pi(n + 1/2) + 1)).
    """
    phi = phase_integral(math.inf, alpha, beta, kappa_prime)
    norm = phi + 0.5 * (1.0 - math.cos(2.0 * phi))  # times e^(-kappa'/2)/2
    return math.sqrt(2.0 * math.exp(0.5 * kappa_prime) / norm)


def _sc_values(amp, alpha, beta, kappa_prime, u: np.ndarray) -> np.ndarray:
    params = OperatorParams(alpha, beta)
    phase = phase_integral(u, alpha, beta, kappa_prime)
    return amp * np.sin(phase + 0.25 * math.pi) * np.exp(
        -0.25 * potential_v(u, params)
    )


def semiclassical_wavefunction(n: int, alpha: float, beta: float, u):
    """Psi_n(u) = A sin(phase(u) + pi/4) exp(-V(u)/4) at the WKB eigenvalue.

    phase(u) is the accumulated momentum integral from -infinity with
    kappa'_n = kappa_n - 2 gamma_E.  A fixes unit norm on the line, in
    closed form (_sc_amplitude).
    """
    _check_positive("semiclassical_wavefunction", alpha=alpha, beta=beta)
    kp = wkb_eigenvalue(n, alpha, beta) - 2.0 * _GAMMA
    amp = _sc_amplitude(alpha, beta, kp)
    vals = _sc_values(amp, alpha, beta, kp, np.asarray(u, dtype=float))
    return float(vals) if np.isscalar(u) else vals


# ---------------------------------------------------------------------------
# boundary behaviour


def boundary_exponents(alpha: float, beta: float) -> BoundaryExponents:
    """d_alpha = 1/alpha - 1 and d_beta = 1/beta - 1 (log-power exponents)."""
    _check_positive("boundary_exponents", alpha=alpha, beta=beta)
    return BoundaryExponents(1.0 / alpha - 1.0, 1.0 / beta - 1.0)


def stable_log_one_minus_x(u) -> np.ndarray:
    """log(1 - tanh u) computed without forming 1 - tanh u (safe for large u)."""
    ua = np.asarray(u, dtype=float)
    return _LOG2 - 2.0 * ua - np.logaddexp(0.0, -2.0 * ua)


# the asymptotic window of fit_boundary_exponent, in units of |kappa'|/beta + 1
_WINDOW_FACTOR = 3.0


def fit_boundary_exponent(
    log_one_minus_x, phi_abs, beta: float, kappa_prime: float = 0.0
) -> float:
    """Least-squares slope of log|phi| against log|log(1-x)| near x = 1.

    The samples come as log(1 - x), which stays finite where 1 - x
    underflows (stable_log_one_minus_x of u for x = tanh u).  They are
    filtered to the asymptotic window |log(1-x)| >= _WINDOW_FACTOR *
    (|kappa'|/beta + 1); at least 10 must survive.
    """
    _check_positive("fit_boundary_exponent", beta=beta)
    phi_abs = np.abs(np.asarray(phi_abs, dtype=float))
    ell = np.abs(np.asarray(log_one_minus_x, dtype=float))
    threshold = _WINDOW_FACTOR * (abs(float(kappa_prime)) / float(beta) + 1.0)
    if not math.isfinite(threshold):
        raise ValueError(f"fit_boundary_exponent: the window {_WINDOW_FACTOR:g}(|kappa'|/beta + 1) "
                         f"overflows at beta={float(beta)!r}, kappa_prime={float(kappa_prime)!r}")
    keep = (ell >= threshold) & (phi_abs > 0.0)
    if np.count_nonzero(keep) < 10:
        raise ValueError(
            f"fit_boundary_exponent: only {np.count_nonzero(keep)} samples in the "
            f"window |log(1-x)| >= {threshold:.3g}; need at least 10"
        )
    slope, _ = np.polyfit(np.log(ell[keep]), np.log(phi_abs[keep]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# linear-potential Fourier solution

#: nodes per radian of the exponent a piece of the contour covers, and the
#: decay exp(-_RAY_DECAY) at which a ray ends
_NODES_PER_RADIAN = 4.0
_RAY_DECAY = 40.0
#: nodes one u may take, about 1 s: a saddle p_s up to about 1e6 beta
_MAX_NODES = 1 << 22
#: the largest gap of the self-check, relative to max(1, |Psi|)
_CHECK_TOL = 1e-8


def _lp_integral(beta: float, kappa_prime: float, u, p_s, angle: float, density: float):
    """(1/pi) Re integral of exp(i Theta(p) - i p u) over [0, p_s], then over
    the ray from p_s at `angle` below the real axis, for each u and its p_s.

    A piece a + b s^2, 0 <= s <= 1, has equal 32-node panels in s: `density`
    nodes per radian of the exponent it covers, and at least sqrt(|b|/|a + i|)
    panels, so that the first reaches no farther from a than the poles at
    +-i nearest p = 0.  s^2 also crowds the nodes toward p = 0, where the
    phase turns fastest.  The ray starts 20 + 8 sqrt(2 beta (p_s + 1)) long
    and is doubled or halved until the integrand is below exp(-_RAY_DECAY)
    at its end but not at its midpoint.  At most _BLOCK_CELLS nodes are
    formed at once.
    """
    def exponent(p, idx):  # Gamma((1 - ip)/2) has its poles on the negative imaginary axis
        lg = special.loggamma(0.5 + 0.5j * p) - special.loggamma(0.5 - 0.5j * p)
        return (1j * kappa_prime * p - 2.0 * lg) / (2.0 * beta) - 1j * p * u[idx]

    ray = (20.0 + 8.0 * np.sqrt(2.0 * beta * (p_s + 1.0))) * np.exp(-1j * angle)
    idx = np.arange(u.size)
    while (idx := idx[exponent(p_s[idx] + ray[idx], idx).real > -_RAY_DECAY]).size:
        ray[idx] *= 2.0
    idx = np.arange(u.size)
    while (idx := idx[exponent(p_s[idx] + 0.5 * ray[idx], idx).real < -_RAY_DECAY]).size:
        ray[idx] *= 0.5
    start, span = np.stack((np.zeros_like(p_s), p_s)), np.stack((p_s, ray))
    e_s, e_end = exponent(start + span, slice(None))
    cover = density / 32.0 * np.stack((e_s.imag, np.abs(e_end - e_s)))
    panels = np.ceil(np.maximum(cover, np.sqrt(np.abs(span) / np.abs(start + 1j))))
    if np.any(over := ~(panels.sum(axis=0) <= _MAX_NODES / 32)):  # nan, from p_s = inf, too
        i = int(np.argmax(over))
        raise ValueError(f"linear_potential_solution: at u = {u[i]:g} the saddle p_s = "
                         f"{p_s[i]:.6g} needs more than {_MAX_NODES} quadrature nodes")
    z, wz = _gauss_nodes(32)
    out = np.zeros(u.size)
    for i in range(u.size):
        for a, b, n in zip(start[:, i], span[:, i], panels[:, i].astype(int)):
            for j in range(0, n, _BLOCK_CELLS // 32):
                s = (np.arange(j, min(n, j + _BLOCK_CELLS // 32))[:, None] + 0.5 * (z + 1.0)) / n
                # dp = 2 b s ds, and a panel's weights in s are wz / (2 n)
                out[i] += np.sum((b * s * (wz / n) * np.exp(exponent(a + b * s * s, i))).real)
    return out / math.pi


def linear_potential_solution(beta: float, kappa_prime: float, u):
    """The decaying solution of the exact linear-potential model
    (2 Re psi((1+ip)/2) - kappa' + 2 beta u) Psi = 0 via its Fourier
    representation, Psi(u) = (1/pi) Re integral_0^inf exp(i Theta(p) - i p u) dp.
    The phase Theta(p) = (1/(2 beta)) integral_0^p (kappa' + 2 log 2 - G(q)) dq
    is (kappa' p - 4 Im log Gamma((1 + ip)/2))/(2 beta), as the derivative of
    log Gamma((1 + ip)/2) is (i/2) psi((1 + ip)/2).  At beta = 1, Psi(u) is
    2 y J_0(2y) with y = exp(-u + kappa'/2).

    The integrand is analytic and decays in the open fourth quadrant, so by
    Cauchy's theorem the integral runs on a steepest-descent contour
    (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006; _lp_integral):
    [0, p_s] to the saddle p_s = G^{-1}(kappa' + 2 log 2 - 2 beta u), or
    p_s = 0 below G(0), then the ray from p_s at -pi/4.  More than _MAX_NODES
    nodes raise ValueError naming u and p_s.  The integral on half as many
    panels, with its ray at -pi/3, must agree within _CHECK_TOL max(1, |Psi|),
    or RuntimeError names u.
    """
    _check_positive("linear_potential_solution", beta=beta)
    _check_finite("linear_potential_solution", kappa_prime=kappa_prime, u=u)
    ua = np.asarray(u, dtype=float).ravel()
    with np.errstate(all="ignore"):
        y = kappa_prime + 2.0 * _LOG2 - 2.0 * beta * ua
        # G(p) < log(1 + p^2): y above 1400 puts p_s above e^700, past the cap
        p_s = np.where(y > 1400.0, np.inf, big_g_inverse(np.clip(y, BIG_G_MIN, 1400.0)))
        value = _lp_integral(beta, kappa_prime, ua, p_s, math.pi / 4.0, _NODES_PER_RADIAN)
        check = _lp_integral(beta, kappa_prime, ua, p_s, math.pi / 3.0, _NODES_PER_RADIAN / 2)
    gap = np.abs(value - check) / np.maximum(1.0, np.abs(value))
    if np.any(gap > _CHECK_TOL):
        worst = int(np.argmax(gap))
        raise RuntimeError(f"linear_potential_solution: the contours at -pi/4 and -pi/3 differ "
                           f"by {gap[worst]:.3e} of max(1, |Psi|) at u = {ua[worst]:g}")
    return float(value[0]) if np.isscalar(u) else value


# ---------------------------------------------------------------------------
# spectrum table


def wkb_table(
    alpha: float, beta: float, n_rows: int, with_bohr_sommerfeld: bool = False
) -> list[WkbSpectrumRow]:
    """Rows (n, closed-form kappa_n, optional Bohr-Sommerfeld) for n < n_rows,
    1 <= n_rows <= 4096."""
    if not 1 <= n_rows <= 4096:
        raise ValueError(f"wkb_table: n_rows={n_rows} must lie in [1, 4096]")
    bs = [None] * n_rows
    if with_bohr_sommerfeld:
        bs = bohr_sommerfeld_solve(np.arange(n_rows), alpha, beta).tolist()
    return [
        WkbSpectrumRow(n, wkb_eigenvalue(n, alpha, beta), bs[n]) for n in range(n_rows)
    ]
