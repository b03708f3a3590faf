"""Special functions: the dispersion functions kappa(k) and g(k), the
shifted kinetic function G and its inverse, and the beta-type phase
integral.  The quadrature helpers shared by the other modules live here:
Gauss nodes and _abel_blocks, the one rule for the kernel
1/sqrt|cosh t - cosh x| of Mehler's integral (the conical Legendre
functions of module exact) and of both Abel transforms.

Digamma (psi), the incomplete beta function and the logistic map come from
scipy.special; this module adds the argument checks and the closed forms
built on them.  The Gauss-Legendre rule is Newton's method in numpy, not
scipy.special.roots_legendre, which imports scipy.linalg on its first
call.  Everything here is a pure function of its arguments; no state is
shared.
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


#: a Newton step of _gauss_nodes that moves no node x by more than this is
#: at rounding (the steps level off below one ulp of 1 at every n to 8192)
_NEWTON_TOL = 2.0 * np.finfo(float).eps
#: most Newton steps of _gauss_nodes; it takes 3 or 4 from Tricomi's guess
_NEWTON_MAX_STEPS = 8


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) for n >= 1 by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x.copy()
    t = np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(x, p, out=t)
        t *= (2 * k - 1) / k
        p_prev *= (k - 1) / k
        t -= p_prev
        p_prev, p, t = p, t, p_prev
    return p, p_prev


@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-node Gauss-Legendre rule, n >= 1, nodes ascending.

    Newton's method on P_n(cos theta) for the nodes x = cos theta of
    (0, 1], vectorised over them, from Tricomi's guess
    (1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)); P_n and P_{n-1} come
    from the three-term recurrence, so a step costs O(n^2) time and O(n)
    memory (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  Newton stops
    once a step moves no node by more than _NEWTON_TOL.  The weight is
    2/(dP_n/dtheta)^2 at the last iterate, which at a root is
    2 sin^2 theta/(n P_{n-1})^2.  The other half is the mirror image, so
    the rule is exactly symmetric, and an odd n has the node 0.  Every
    caller shares the cached arrays.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    guess = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos((4 * k - 1) * math.pi / (4 * n + 2))
    theta = np.arccos(guess)
    for _ in range(_NEWTON_MAX_STEPS):
        x, sin = np.cos(theta), np.sin(theta)
        p_n, p_prev = _legendre_pair(n, x)
        slope = n * (x * p_n - p_prev) / sin  # dP_n/dtheta
        step = p_n / slope
        theta -= step
        if np.max(np.abs(sin * step)) <= _NEWTON_TOL:
            break
    x, w = np.cos(theta), 2.0 / slope**2
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    rule = np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))
    for a in rule:
        a.flags.writeable = False
    return rule


#: Gauss-Legendre nodes per panel of an Abel-kernel integral (_abel_blocks)
_PANEL_NODES = 32
#: panels per Abel integral of the Mehler-Fock transform and spectral step
_ABEL_PANELS = 3
#: S of the forward Mehler-Fock transform's Abel transform on [0, S] and the
#: least S of a spectral evolution step; F(t) of an xi^2 profile falls like e^-t
_ABEL_S_MAX = 60.0
#: array cells a blocked computation forms at once (1 MB of doubles), so the
#: memory of one call does not grow with its inputs; every blocked kernel
#: gives the same bits at any block size
_BLOCK_CELLS = 1 << 17


def _abel_blocks(x: np.ndarray, end: float, panels, cells: int = 1):
    """Yield (rows, t, weight): sum weight g(t) along the last axis is the
    integral of g(t) dt/sqrt|cosh t - cosh x| from x[rows] to end: the Abel
    transform toward end = S, Mehler's integral toward end = 0 (DLMF 14.20).

    In w = sqrt|t - x| the root sqrt(sinh(x +- w^2/2)) sqrt(2 sinh(w^2/2))
    (apart, so no factor overflows below acosh of the largest double)
    vanishes like w for x > 0, as dt does, and like w^2 at x = 0, as the
    integrands summed there do: Gauss-Legendre on panels[j] (or a scalar)
    equal panels of _PANEL_NODES nodes converges.  Rows with equal panel
    counts come together, <= _BLOCK_CELLS/cells nodes at a time.  Only
    Mehler's r = 0 has x = end (the Abel callers take x < S = end): it takes
    the node 0 weighted by the kernel's limit pi/sqrt 2.
    """
    panels = np.broadcast_to(panels, x.shape)
    if np.any(empty := x == end):
        rows = np.flatnonzero(empty)
        yield rows, np.zeros((rows.size, 1)), np.full((rows.size, 1), math.pi / math.sqrt(2.0))
    shift = np.add if end > 0.0 else np.subtract  # t = x + w^2 toward S, x - w^2 toward 0
    z, wz = _gauss_nodes(_PANEL_NODES)
    for p in np.unique(panels[~empty]):
        group = np.flatnonzero((panels == p) & ~empty)
        nodes, nodes_wz = (np.arange(p)[:, None] + 0.5 * (z + 1.0)).ravel(), np.tile(wz, p)
        step = max(1, _BLOCK_CELLS // (cells * nodes.size))
        for j in range(0, group.size, step):
            rows = group[j : j + step]
            xr = x[rows, None]
            width = np.sqrt(np.abs(end - xr)) / p
            w = width * nodes
            ww = w * w
            b = 0.5 * ww
            root = np.sqrt(np.sinh(shift(xr, b)))
            root *= np.sqrt(2.0 * np.sinh(b, out=b))
            w *= width * nodes_wz
            w /= root
            yield rows, shift(xr, ww, out=ww), w


def _check_finite(where: str, **named) -> None:
    """Raise ValueError naming the function where and the first parameter in
    named (a scalar or an array) that holds a NaN or an infinity."""
    for name, v in named.items():
        a = np.asarray(v, dtype=float)
        bad = ~np.isfinite(a)
        if np.any(bad):
            first = float(a[bad][0])
            raise ValueError(f"{where}: {name} must be finite, got {first!r}")


def _check_positive(where: str, **named) -> None:
    """_check_finite, then raise ValueError naming the function where and the
    first parameter in named that is not > 0 or whose reciprocal overflows."""
    _check_finite(where, **named)
    for name, v in named.items():
        a = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            bad = ~((a > 0.0) & np.isfinite(1.0 / a))
        if np.any(bad):
            first = float(a[bad][0])
            raise ValueError(
                f"{where}: {name} must be positive with a finite reciprocal, got {first!r}"
            )


def _two_re_psi(t, scale: float, shift: float) -> float | np.ndarray:
    """2 Re psi(1/2 + i scale t) + shift for finite real t, scalar or array:
    the one function behind kappa, g and G, which check t."""
    scalar = np.isscalar(t)
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    val = 2.0 * special.psi(0.5 + 1j * (scale * ta)).real + shift
    return float(val[0]) if scalar else val


def lipatov_kappa(k: float | np.ndarray) -> float | np.ndarray:
    """Dispersion kappa(k) = psi(1/2 + ik) + psi(1/2 - ik) - 2 psi(1).

    Real and even in k; kappa(0) = -4 log 2.
    """
    _check_finite("lipatov_kappa", k=k)
    return _two_re_psi(k, 1.0, 2.0 * CONSTANTS.euler_gamma)


def g_dispersion(k: float | np.ndarray) -> float | np.ndarray:
    """g(k) = psi((1+ik)/2) + psi((1-ik)/2) - 2 psi(1) + 2 log 2.

    Satisfies g(k) = kappa(k/2) + 2 log 2 and g(0) = -2 log 2.
    """
    _check_finite("g_dispersion", k=k)
    return _two_re_psi(k, 0.5, 2.0 * CONSTANTS.euler_gamma + 2.0 * CONSTANTS.log2)


def big_g(p: float | np.ndarray) -> float | np.ndarray:
    """Shifted kinetic function G(p) = g(p) + 2 psi(1) = 2 Re psi((1+ip)/2) + 2 log 2.

    Behaves like G(0) + (7/2) zeta(3) p^2 near zero and log p^2 at infinity.
    """
    _check_finite("big_g", p=p)
    return _two_re_psi(p, 0.5, 2.0 * CONSTANTS.log2)


#: minimum of G, attained at p = 0: G(0) = -2 log 2 - 2 gamma_E
BIG_G_MIN = -2.0 * CONSTANTS.log2 - 2.0 * CONSTANTS.euler_gamma

#: the Illinois iteration converges with order 3^(1/3) ~ 1.44; Bohr-Sommerfeld
#: levels 0-9 at (alpha, beta) = (2, 2), (1.3, 2.6), (0.7, 1.9), (1, 1), (0.5, 3)
#: and (3, 0.5) take at most 21 steps for G^{-1} and 10 for a turning point or level
_ILLINOIS_MAX_STEPS = 100


def _illinois(f, a, b, fa, fb, f_tol, where: str, x_tol: float = 0.0) -> np.ndarray:
    """Elementwise roots of f in the brackets [a, b] by the Illinois method
    (Dowell & Jarratt, BIT 11, 1971).  f(x, idx) evaluates the functions of
    the elements idx at x; their values fa at a and fb at b differ in sign.
    Returns the point of least |f| among b and the iterates.  Each element
    stops on its own, when that residual is within f_tol or its bracket has
    closed to max(x_tol, one ulp), so a value does not depend on the batch;
    one not stopped in _ILLINOIS_MAX_STEPS raises RuntimeError naming where."""
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x, f_best = hi.copy(), f_hi.copy()
    f_tol = np.broadcast_to(f_tol, x.shape)
    active = np.flatnonzero(np.abs(f_best) > f_tol)
    for _ in range(_ILLINOIS_MAX_STEPS):
        if active.size == 0:
            break
        a, b, fa, fb = lo[active], hi[active], f_lo[active], f_hi[active]
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c, active)
        better = np.abs(fc) < np.abs(f_best[active])
        x[active[better]] = c[better]
        f_best[active[better]] = fc[better]
        # the end on fc's side of the root is replaced; an end kept twice in
        # a row has its residual halved, which stops regula falsi stalling
        flip = np.signbit(fc) != np.signbit(fb)
        lo[active] = np.where(flip, b, a)
        f_lo[active] = np.where(flip, fb, 0.5 * fa)
        hi[active], f_hi[active] = c, fc
        done = (np.abs(f_best[active]) <= f_tol[active]) | (
            np.abs(lo[active] - c) <= np.maximum(x_tol, np.spacing(np.abs(c)))
        )
        active = active[~done]
    if active.size:
        raise RuntimeError(
            f"{where}: no convergence in {_ILLINOIS_MAX_STEPS} steps at element {active[0]}"
        )
    return x


def big_g_inverse(y: float | np.ndarray) -> float | np.ndarray:
    """Return p >= 0 with G(p) = y, elementwise, to the rounding of G.

    Illinois iteration (_illinois) on the bracket [0, exp(y/2) + 1], whose
    upper end is doubled until it brackets the root; G is smooth, even, and
    strictly increasing for p >= 0.  An element stops when its best
    residual is within one ulp of |y| + 2 log 2 (the size of the terms G
    sums) or its bracket has closed to adjacent doubles.  Raises for
    y < G(0).
    """
    scalar = np.isscalar(y)
    ya = np.asarray(y, dtype=float).ravel()  # flat indices below; reshaped on return
    _check_finite("big_g_inverse", y=ya)
    if np.any(ya < BIG_G_MIN - 1e-12):
        raise ValueError(
            f"big_g_inverse: y={ya.min()} below the minimum G(0)={BIG_G_MIN}"
        )
    hi = np.exp(np.minimum(ya, 120.0) / 2.0) + 1.0
    f_hi = big_g(hi) - ya
    while np.any(short := f_hi < 0.0):
        hi[short] *= 2.0
        f_hi[short] = big_g(hi[short]) - ya[short]
    f_lo = BIG_G_MIN - ya
    # y at or below G(0) (within the 1e-12 slack above) has the root p = 0
    at_min = f_lo >= 0.0
    p = _illinois(lambda c, idx: big_g(c) - ya[idx], np.zeros_like(ya),
                  np.where(at_min, 0.0, hi), f_lo, np.where(at_min, 0.0, f_hi),
                  np.spacing(np.abs(ya) + 2.0 * CONSTANTS.log2), "big_g_inverse")
    return float(p[0]) if scalar else p.reshape(np.shape(y))


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
    _check_positive("phase_integral", alpha=alpha, beta=beta)
    _check_finite("phase_integral", kappa_prime=kappa_prime)
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
