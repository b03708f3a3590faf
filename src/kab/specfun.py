"""Special functions: complex digamma, the dispersion functions kappa(k) and
g(k), the shifted kinetic function G and its inverse, and the beta-type
phase integral.  The conical Legendre functions live in module exact,
beside the Mehler rule that evaluates them; the quadrature helpers shared
by the other modules (Gauss nodes, the Abel rule, Clenshaw's recurrence)
live here.

Digamma, the incomplete beta function and the logistic map come from
scipy.special; this module adds the argument checks and the closed forms
built on them.  Everything here is a pure function of its arguments; no
state is shared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = [
    "CONSTANTS",
    "Constants",
    "digamma",
    "lipatov_kappa",
    "g_dispersion",
    "big_g",
    "big_g_inverse",
    "phase_integral",
]


@dataclass(frozen=True)
class Constants:
    euler_gamma: float = 0.5772156649015329
    zeta3: float = 1.2020569031595943
    zeta5: float = 1.0369277551433699
    log2: float = 0.6931471805599453


CONSTANTS = Constants()


@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


#: Gauss-Legendre nodes per Abel integral, in w = sqrt(t - x)
_ABEL_NODES = 96
#: array cells a blocked computation forms at once (8 MB of doubles), so the
#: memory of one call does not grow with its inputs
_BLOCK_CELLS = 1 << 20


def _abel_rule(x: np.ndarray, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights of integral_x^s_max g(t) dt / sqrt(cosh t - cosh x).

    After t = x + w^2 the root is sqrt(2 sinh(x + w^2/2) sinh(w^2/2)).  For
    x > 0 it vanishes like w, as dt = 2 w dw does; at x = 0 it vanishes like
    w^2, and so do the integrands it serves, f(cosh t) sinh t and the odd
    A'(t).  The integrand in w is therefore smooth at every x, and
    Gauss-Legendre on [0, sqrt(s_max - x)] converges.  Rows of the returned
    (x.size, _ABEL_NODES) arrays follow x.
    """
    z, wz = _gauss_nodes(_ABEL_NODES)
    half = 0.5 * np.sqrt(s_max - x)[:, None]
    w = half * (z + 1.0)
    b = 0.5 * w * w
    weight = (2.0 * half * wz) * w / np.sqrt(2.0 * np.sinh(x[:, None] + b) * np.sinh(b))
    return x[:, None] + 2.0 * b, weight


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


def _check_finite(*vals) -> None:
    for v in vals:
        a = np.asarray(v, dtype=float)
        bad = ~np.isfinite(a)
        if np.any(bad):
            raise ValueError(f"non-finite argument: {float(a[bad][0])!r}")


def digamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """psi(z) = d log Gamma / dz for complex z (scipy.special.psi).

    Raises on non-positive integers (poles) and on NaN input.
    """
    scalar = np.isscalar(z)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.isnan(zz)):
        raise ValueError("digamma: NaN argument")
    pole = (zz.imag == 0) & (zz.real <= 0) & (zz.real == np.round(zz.real))
    if np.any(pole):
        raise ValueError("digamma: argument is a non-positive integer (pole)")
    res = special.psi(zz)
    return complex(res[0]) if scalar else res


def _two_re_psi(t, scale: float, shift: float) -> float | np.ndarray:
    """2 Re psi(1/2 + i scale t) + shift for finite real t, scalar or array:
    the one function behind kappa, g and G."""
    scalar = np.isscalar(t)
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    _check_finite(ta)
    val = 2.0 * np.real(digamma(0.5 + 1j * (scale * ta))) + shift
    return float(val[0]) if scalar else val


def lipatov_kappa(k: float | np.ndarray) -> float | np.ndarray:
    """Dispersion kappa(k) = psi(1/2 + ik) + psi(1/2 - ik) - 2 psi(1).

    Real and even in k; kappa(0) = -4 log 2.
    """
    return _two_re_psi(k, 1.0, 2.0 * CONSTANTS.euler_gamma)


def g_dispersion(k: float | np.ndarray) -> float | np.ndarray:
    """g(k) = psi((1+ik)/2) + psi((1-ik)/2) - 2 psi(1) + 2 log 2.

    Satisfies g(k) = kappa(k/2) + 2 log 2 and g(0) = -2 log 2.
    """
    return _two_re_psi(k, 0.5, 2.0 * CONSTANTS.euler_gamma + 2.0 * CONSTANTS.log2)


def big_g(p: float | np.ndarray) -> float | np.ndarray:
    """Shifted kinetic function G(p) = g(p) + 2 psi(1) = 2 Re psi((1+ip)/2) + 2 log 2.

    Behaves like G(0) + (7/2) zeta(3) p^2 near zero and log p^2 at infinity.
    """
    return _two_re_psi(p, 0.5, 2.0 * CONSTANTS.log2)


#: minimum of G, attained at p = 0: G(0) = -2 log 2 - 2 gamma_E
BIG_G_MIN = -2.0 * CONSTANTS.log2 - 2.0 * CONSTANTS.euler_gamma

#: the Illinois iteration converges with order 3^(1/3) ~ 1.44; on the
#: Bohr-Sommerfeld inputs no element needs more than 33 steps
_ILLINOIS_MAX_STEPS = 100


def big_g_inverse(y: float | np.ndarray) -> float | np.ndarray:
    """Return p >= 0 with G(p) = y, elementwise, to the rounding of G.

    Illinois iteration (Dowell & Jarratt, BIT 11, 1971) on the bracket
    [0, exp(y/2) + 1], whose upper end is doubled until it brackets the
    root; G is smooth, even, and strictly increasing for p >= 0.  Each
    element stops on its own, when its best residual is within one ulp of
    |y| + 2 log 2 (the size of the terms G sums) or its bracket has closed
    to adjacent doubles, so a value does not depend on the batch.  Raises
    for y < G(0).
    """
    scalar = np.isscalar(y)
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    _check_finite(ya)
    if np.any(ya < BIG_G_MIN - 1e-12):
        raise ValueError(
            f"big_g_inverse: y={ya.min()} below the minimum G(0)={BIG_G_MIN}"
        )
    lo = np.zeros_like(ya)
    hi = np.exp(np.minimum(ya, 120.0) / 2.0) + 1.0
    f_hi = big_g(hi) - ya
    while np.any(short := f_hi < 0.0):
        hi[short] *= 2.0
        f_hi[short] = big_g(hi[short]) - ya[short]
    f_lo = BIG_G_MIN - ya
    tol = np.spacing(np.abs(ya) + 2.0 * CONSTANTS.log2)
    # y at or below G(0) (within the 1e-12 slack above) has the root p = 0
    p = np.where(f_lo >= 0.0, 0.0, hi)
    f_best = np.where(f_lo >= 0.0, 0.0, f_hi)
    active = np.flatnonzero(np.abs(f_best) > tol)
    for _ in range(_ILLINOIS_MAX_STEPS):
        if active.size == 0:
            return float(p[0]) if scalar else p
        a, b, fa, fb = lo[active], hi[active], f_lo[active], f_hi[active]
        c = b - fb * (b - a) / (fb - fa)
        fc = big_g(c) - ya[active]
        better = np.abs(fc) < np.abs(f_best[active])
        p[active[better]] = c[better]
        f_best[active[better]] = fc[better]
        # the end on fc's side of the root is replaced; an end kept twice in
        # a row has its residual halved, which stops regula falsi stalling
        flip = np.signbit(fc) != np.signbit(fb)
        lo[active] = np.where(flip, b, a)
        f_lo[active] = np.where(flip, fb, 0.5 * fa)
        hi[active], f_hi[active] = c, fc
        done = (np.abs(f_best[active]) <= tol[active]) | (
            np.abs(lo[active] - c) <= np.spacing(c)
        )
        active = active[~done]
    raise RuntimeError(
        f"big_g_inverse: no convergence in {_ILLINOIS_MAX_STEPS} steps "
        f"at y={ya[active[0]]!r}"
    )


def phase_integral(u, alpha: float, beta: float, kappa_prime: float):
    """The WKB phase: integral of exp((kappa' - V)/2) from -infinity to u,
    with V(u) = -alpha log(1 + tanh u) - beta log(1 - tanh u).

    After s = tanh(u') the integrand is the beta-type weight
    (1+s)^(a-1) (1-s)^(b-1) with a = alpha/2, b = beta/2, so the phase is
    exp(kappa'/2) 2^(a+b-1) B(a, b) I_x(a, b): the regularized incomplete
    beta function at x = (1 + tanh u)/2 = expit(2u), formed without the
    cancellation in 1 + tanh u.  u may be an array and may be +-inf; the
    full-line value is exp(kappa'/2) 2^(a+b-1) B(a, b).
    """
    _check_finite(alpha, beta, kappa_prime)
    if alpha <= 0.0:
        raise ValueError("phase_integral: divergent at -infinity for alpha <= 0")
    if beta <= 0.0:
        raise ValueError("phase_integral: beta must be positive")
    ua = np.asarray(u, dtype=float)
    if np.any(np.isnan(ua)):
        raise ValueError("phase_integral: u is NaN")
    a = 0.5 * alpha
    b = 0.5 * beta
    scale = math.exp(
        0.5 * kappa_prime + (a + b - 1.0) * CONSTANTS.log2 + special.betaln(a, b)
    )
    val = scale * special.betainc(a, b, special.expit(2.0 * ua))
    return float(val) if np.isscalar(u) else val
