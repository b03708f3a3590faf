"""WKB machinery: the closed-form spectrum, the Bohr-Sommerfeld quantization
integral with exact kinetic inverse, semiclassical wavefunctions, boundary
exponents, and the linear-potential Fourier solution.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .operators import OperatorParams, potential_v
from .specfun import (
    BIG_G_MIN,
    CONSTANTS,
    _check_finite,
    _gauss_nodes,
    _simpson_weights,
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
    reference: float | None = None


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
    _check_finite(alpha, beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("wkb_eigenvalue: alpha and beta must be positive")
    return 2.0 * (
        math.log(math.pi * (n + 0.5))
        - float(special.betaln(0.5 * alpha, 0.5 * beta))
        + (1.0 - 0.5 * (alpha + beta)) * _LOG2
        + _GAMMA
    )


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld with exact G^{-1}


def _turning_points(params: OperatorParams, level: float) -> tuple[float, float]:
    """Solve V(u) = level on both sides of the potential minimum."""
    from scipy.optimize import brentq

    u_star = 0.5 * math.log(params.alpha / params.beta)
    v_min = float(potential_v(u_star, params))
    if level <= v_min:
        raise RuntimeError(
            f"bohr_sommerfeld_solve: level {level:.6g} at or below the potential "
            f"minimum {v_min:.6g}; no classically allowed region"
        )
    # V grows like 2*alpha*|u| (left) and 2*beta*u (right)
    span_l = (level - v_min) / (2.0 * params.alpha) + 5.0
    span_r = (level - v_min) / (2.0 * params.beta) + 5.0
    f = lambda u: float(potential_v(u, params)) - level
    a = brentq(f, u_star - span_l, u_star, xtol=1e-13)
    b = brentq(f, u_star, u_star + span_r, xtol=1e-13)
    return a, b


_BS_QUAD_N = 160


def _bs_phase(params: OperatorParams, kappa_prime: float) -> float:
    """(1/pi) * integral_a^b G^{-1}(kappa' - V(u)) du.

    The substitution u = m + w sin(theta) absorbs the square-root vanishing of
    the integrand at the turning points, so Gauss-Legendre in theta converges
    rapidly.
    """
    a, b = _turning_points(params, kappa_prime - BIG_G_MIN)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x, w = _gauss_nodes(_BS_QUAD_N)
    theta = 0.5 * math.pi * x
    u = mid + half * np.sin(theta)
    arg = np.maximum(kappa_prime - potential_v(u, params), BIG_G_MIN)
    p = big_g_inverse(arg)
    return float(np.sum(w * p * np.cos(theta)) * half * 0.5 * math.pi / math.pi)


def bohr_sommerfeld_solve(n: int, alpha: float, beta: float) -> float:
    """Solve the quantization condition integral_a^b G^{-1}(kappa' - V) du =
    pi (n + 1/2) with the exact numeric inverse of G and true turning points
    V(u) = kappa' - G(0); returns the eigenvalue on the kappa scale
    (kappa = kappa' + 2 gamma_E).
    """
    if n < 0:
        raise ValueError("bohr_sommerfeld_solve: n must be >= 0")
    if alpha <= 0 or beta <= 0:
        raise ValueError("bohr_sommerfeld_solve: alpha and beta must be positive")
    from scipy.optimize import brentq

    params = OperatorParams(alpha, beta)
    target = n + 0.5
    guess = wkb_eigenvalue(n, alpha, beta) - 2.0 * _GAMMA
    lo, hi = guess - 2.0, guess + 2.0
    v_min = float(potential_v(0.5 * math.log(alpha / beta), params))
    lo = max(lo, v_min + BIG_G_MIN + 1e-9)
    while _bs_phase(params, lo) > target:
        lo = max(0.5 * (lo + v_min + BIG_G_MIN), lo - 2.0)
        if lo - (v_min + BIG_G_MIN) < 1e-12:
            raise RuntimeError("bohr_sommerfeld_solve: failed to bracket from below")
    tries = 0
    while _bs_phase(params, hi) < target:
        hi += 2.0
        tries += 1
        if tries > 40:
            raise RuntimeError("bohr_sommerfeld_solve: failed to bracket from above")
    kp = brentq(lambda s: _bs_phase(params, s) - target, lo, hi, xtol=1e-11)
    return kp + 2.0 * _GAMMA


# ---------------------------------------------------------------------------
# semiclassical wavefunctions


def _sc_amplitude(alpha: float, beta: float, kappa_prime: float) -> float:
    """A fixing unit L2 norm of the WKB wavefunction, by the trapezoidal rule
    on u in [-30, 30]."""
    u = np.linspace(-30.0, 30.0, 6001)
    raw = _sc_values(1.0, alpha, beta, kappa_prime, u)
    norm2 = np.trapezoid(raw * raw, u)
    return 1.0 / math.sqrt(norm2)


def _sc_values(amp, alpha, beta, kappa_prime, u: np.ndarray) -> np.ndarray:
    params = OperatorParams(alpha, beta)
    phase = phase_integral(u, alpha, beta, kappa_prime)
    return amp * np.sin(phase + 0.25 * math.pi) * np.exp(
        -0.25 * potential_v(u, params)
    )


def semiclassical_wavefunction(n: int, alpha: float, beta: float, u):
    """Psi_n(u) = A sin(phase(u) + pi/4) exp(-V(u)/4) at the WKB eigenvalue.

    phase(u) is the accumulated momentum integral from -infinity with
    kappa'_n = kappa_n - 2 gamma_E.  A fixes unit norm on a wide u-grid
    (_sc_amplitude).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("semiclassical_wavefunction: parameters must be positive")
    kp = wkb_eigenvalue(n, alpha, beta) - 2.0 * _GAMMA
    amp = _sc_amplitude(alpha, beta, kp)
    scalar = np.isscalar(u)
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    vals = _sc_values(amp, alpha, beta, kp, ua)
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# boundary behaviour


def boundary_exponents(alpha: float, beta: float) -> BoundaryExponents:
    """d_alpha = 1/alpha - 1 and d_beta = 1/beta - 1 (log-power exponents)."""
    _check_finite(alpha, beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("boundary_exponents: parameters must be positive")
    return BoundaryExponents(1.0 / alpha - 1.0, 1.0 / beta - 1.0)


def stable_log_one_minus_x(u) -> np.ndarray:
    """log(1 - tanh u) computed without forming 1 - tanh u (safe for large u)."""
    ua = np.asarray(u, dtype=float)
    return _LOG2 - 2.0 * ua - np.logaddexp(0.0, -2.0 * ua)


# the asymptotic window of fit_boundary_exponent, in units of |kappa'|/beta + 1
_WINDOW_FACTOR = 3.0


def fit_boundary_exponent(
    x,
    phi_abs,
    beta: float,
    kappa_prime: float = 0.0,
    log_one_minus_x=None,
) -> float:
    """Least-squares slope of log|phi| against log|log(1-x)| near x = 1.

    Samples are filtered to the asymptotic window |log(1-x)| >= _WINDOW_FACTOR
    * (|kappa'|/beta + 1); at least 10 must survive.  Pass log_one_minus_x
    when 1 - x underflows in double precision (x from tanh of a large u).
    """
    if beta <= 0:
        raise ValueError("fit_boundary_exponent: beta must be positive")
    phi_abs = np.abs(np.asarray(phi_abs, dtype=float))
    if log_one_minus_x is None:
        xa = np.asarray(x, dtype=float)
        if np.any(xa >= 1.0):
            raise ValueError(
                "fit_boundary_exponent: x rounds to 1; pass log_one_minus_x instead"
            )
        lg = np.log1p(-xa)
    else:
        lg = np.asarray(log_one_minus_x, dtype=float)
    ell = np.abs(lg)
    threshold = _WINDOW_FACTOR * (abs(kappa_prime) / beta + 1.0)
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

# the largest disagreement of the two tapered integrals that passes
_TAPER_CHECK_TOL = 1e-5


def linear_potential_solution(
    beta: float,
    kappa_prime: float,
    u,
    p_max: float = 160.0,
    dp: float = 0.002,
):
    """The decaying solution of the exact linear-potential model
    (2 Re psi((1+ip)/2) - kappa' + 2 beta u) Psi = 0 via its Fourier
    representation.

    The spectral amplitude is a pure phase, Theta(p) = (1/(2 beta)) *
    integral_0^p (kappa' + 2 log 2 - G(q)) dq, in closed form
    (kappa' p - 4 Im log Gamma((1 + ip)/2))/(2 beta) since the derivative
    of log Gamma((1 + ip)/2) is (i/2) psi((1 + ip)/2); Psi(u) is the tapered
    oscillatory integral (1/pi) integral_0^inf cos(Theta(p) - p u) dp.
    Overall normalization is arbitrary (fix it at a reference point, e.g.
    u = kappa'/2).  For beta = 1 the result is proportional to y J_0(2y)
    with y = exp(-u + kappa'/2); keeping the 2 log 2 inside G instead
    only shifts u by log 2.

    Convergence is monitored by comparing tapers ending at p_max and 2 p_max;
    disagreement beyond _TAPER_CHECK_TOL raises.
    """
    _check_finite(beta, kappa_prime)
    if beta <= 0:
        raise ValueError("linear_potential_solution: beta must be positive")
    scalar = np.isscalar(u)
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    p_end = 2.0 * p_max
    m = int(round(p_end / dp))
    p = np.linspace(0.0, p_end, m + 1)
    h = p[1] - p[0]
    lg = special.loggamma(0.5 + 0.5j * p)
    theta = (kappa_prime * p - 4.0 * lg.imag) / (2.0 * beta)

    def taper(cut: float) -> np.ndarray:
        w = np.ones_like(p)
        ramp = (p > 0.5 * cut) & (p < cut)
        w[ramp] = np.cos(0.5 * math.pi * (p[ramp] - 0.5 * cut) / (0.5 * cut)) ** 2
        w[p >= cut] = 0.0
        return w

    osc = np.cos(theta[None, :] - np.outer(ua, p))
    weight = _simpson_weights(p.size) * (h / 3.0)
    full = osc @ (taper(p_end) * weight) / math.pi
    half = osc @ (taper(p_max) * weight) / math.pi
    gap = np.abs(full - half)
    bad = gap > _TAPER_CHECK_TOL
    if np.any(bad):
        worst = int(np.argmax(gap))
        listed = ", ".join(f"{v:g}" for v in ua[bad][:8])
        if np.count_nonzero(bad) > 8:
            listed += f", ... ({np.count_nonzero(bad)} in all)"
        raise RuntimeError(
            f"linear_potential_solution: tapered integrals at p_max={p_max:g} and "
            f"{p_end:g} differ by more than {_TAPER_CHECK_TOL:g} at u = [{listed}], "
            f"worst at u = {ua[worst]:g} ({gap[worst]:.3e}); increase p_max"
        )
    return float(full[0]) if scalar else full


# ---------------------------------------------------------------------------
# spectrum table


def wkb_table(
    alpha: float,
    beta: float,
    n_rows: int,
    with_bohr_sommerfeld: bool = False,
    reference=None,
) -> list[WkbSpectrumRow]:
    """Rows (n, closed-form kappa_n, optional Bohr-Sommerfeld, optional ref)."""
    if n_rows < 1:
        raise ValueError(f"wkb_table: n_rows={n_rows} must be >= 1")
    rows = []
    for n in range(n_rows):
        bs = bohr_sommerfeld_solve(n, alpha, beta) if with_bohr_sommerfeld else None
        ref = None if reference is None else float(reference[n])
        rows.append(
            WkbSpectrumRow(
                n=n,
                kappa_closed_form=wkb_eigenvalue(n, alpha, beta),
                kappa_bohr_sommerfeld=bs,
                reference=ref,
            )
        )
    return rows
