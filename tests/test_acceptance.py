"""Acceptance gate: the end-to-end checks the package must pass, one per
criterion, each printing a single PASS/FAIL line with the measured number.

Run with `pytest tests/test_acceptance.py -rP` to see all lines.
"""
import math

import numpy as np
import pytest
from scipy.special import j0

from kab.evolution import (
    PROFILES,
    EvolutionState,
    default_xi_grid,
    evolve_matrix,
    evolve_spectral,
)
from kab.exact import (
    mehler_fock_forward,
    mehler_fock_inverse,
    mm_commutator_projections,
    mm_k01_residual,
)
from kab.operators import (
    OperatorParams,
    galerkin_matrix,
    harmonic,
    pseudospectral_eigensystem,
    pseudospectral_spectrum,
)
from kab.semiclassics import (
    boundary_exponents,
    fit_boundary_exponent,
    linear_potential_solution,
    semiclassical_wavefunction,
    stable_log_one_minus_x,
    wkb_eigenvalue,
)
from kab.specfun import CONSTANTS, lipatov_kappa
from tests.conftest import TABLE1, printed_tolerance

GAMMA = CONSTANTS.euler_gamma


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_wkb_table_entries():
    worst = 0.0
    ok = True
    for col, (a, b) in (("wkb_22", (2.0, 2.0)), ("wkb_11", (1.0, 1.0))):
        for n, entry in enumerate(TABLE1[col]):
            diff = abs(0.5 * wkb_eigenvalue(n, a, b) - float(entry))
            worst = max(worst, diff)
            ok = ok and diff <= printed_tolerance(entry)
    report("A-1", ok, f"all 20 WKB entries at printed precision, max diff {worst:.2e}")


def test_a2_reference_column():
    eigs = pseudospectral_spectrum(2.0, 2.0, 10, u_max=40.0, m_points=4096)
    diffs = [
        abs(0.5 * eigs[n] - float(TABLE1["numeric_22"][n])) for n in range(10)
    ]
    worst = max(diffs)
    report("A-2", worst <= 2e-3, f"(2,2) reference column max diff {worst:.2e} <= 2e-3")


def test_a3_harmonic_spectrum():
    mat = galerkin_matrix(OperatorParams(1.0, 1.0), 64)
    target = np.diag([2.0 * harmonic(n) for n in range(64)])
    gal_err = float(np.max(np.abs(mat - target)))
    eigs = pseudospectral_spectrum(1.0, 1.0, 10, u_max=40.0, m_points=4096)
    ps_err = max(abs(0.5 * eigs[n] - harmonic(n)) for n in range(10))
    ok = gal_err <= 1e-12 and ps_err <= 1e-4
    report(
        "A-3",
        ok,
        f"Galerkin diagonal error {gal_err:.2e} <= 1e-12, "
        f"pseudospectral vs h_n {ps_err:.2e} <= 1e-4",
    )


def test_a4_dispersion_series():
    k = np.geomspace(1e-3, 1e-1, 50)
    series = (
        -4.0 * CONSTANTS.log2
        + 14.0 * CONSTANTS.zeta3 * k**2
        - 62.0 * CONSTANTS.zeta5 * k**4
    )
    # the next term is 254 zeta(7) k^6 ~ 256 k^6; the ratio must stay bounded
    # (a 1e-14 floor absorbs double-precision cancellation at the smallest k)
    ratio = np.max((np.abs(lipatov_kappa(k) - series) - 1e-14) / k**6)
    report("A-4", ratio <= 500.0, f"series remainder ratio {ratio:.3g} <= 500")


def test_a5_mm_eigenfunction_residual():
    x = np.linspace(-0.9, 0.9, 7)
    worst = 0.0
    for k in (0.3, 1.0, 3.0):
        worst = max(worst, float(np.max(mm_k01_residual(k, x))))
    report("A-5", worst <= 1e-5, f"max relative eigen-residual {worst:.2e} <= 1e-5")


def test_a6_commutator_identities():
    worst = 0.0
    for n in range(1, 13):
        up, down = mm_commutator_projections(n)
        worst = max(worst, abs(up), abs(down))
    report("A-6", worst <= 1e-10, f"commutator projections {worst:.2e} <= 1e-10")


def test_a7_mehler_fock_round_trip():
    u = lambda xi: xi**2 * (1.0 - xi)
    coeffs = mehler_fock_forward(u)
    xi = np.linspace(0.05, 1.0, 39)
    err = float(np.max(np.abs(mehler_fock_inverse(coeffs, xi) - u(xi))))
    report("A-7", err <= 1e-4, f"round-trip max error {err:.2e} <= 1e-4")


def test_a8_evolution_cross_validation():
    xi = default_xi_grid(96)
    mask = (xi >= 0.05) & (xi <= 0.95)
    worst = 0.0
    for profile in PROFILES.values():
        s = EvolutionState(tau=0.0, xi_grid=xi, u_values=profile(xi))
        for tau in (0.5, 1.0, 2.0):
            um = evolve_matrix(s, tau)
            us = evolve_spectral(s, tau)
            scale = float(np.max(np.abs(um.u_values[mask])))
            worst = max(
                worst,
                float(np.max(np.abs(um.u_values[mask] - us.u_values[mask]))) / scale,
            )

    # V-2 semigroup: one step to tau = 1 vs two steps through tau = 0.5
    s = EvolutionState(tau=0.0, xi_grid=xi, u_values=PROFILES["xi-sq"](xi))
    one = evolve_matrix(s, 1.0)
    two = evolve_matrix(evolve_matrix(s, 0.5), 1.0)
    scale = float(np.max(np.abs(one.u_values[mask])))
    semi = float(np.max(np.abs(one.u_values[mask] - two.u_values[mask]))) / scale

    # V-3 linearity
    u1 = PROFILES["xi-sq"](xi)
    u2 = PROFILES["xi-cube"](xi)
    combo = evolve_matrix(
        EvolutionState(tau=0.0, xi_grid=xi, u_values=1.5 * u1 - 0.5 * u2), 0.5
    )
    e1 = evolve_matrix(EvolutionState(tau=0.0, xi_grid=xi, u_values=u1), 0.5)
    e2 = evolve_matrix(EvolutionState(tau=0.0, xi_grid=xi, u_values=u2), 0.5)
    lin = float(
        np.max(np.abs(combo.u_values - 1.5 * e1.u_values + 0.5 * e2.u_values))
    )

    ok = worst <= 1e-3 and semi <= 2e-3 and lin <= 1e-8
    report(
        "A-8",
        ok,
        f"backend agreement {worst:.2e} <= 1e-3, semigroup {semi:.2e} <= 2e-3, "
        f"linearity {lin:.2e} <= 1e-8",
    )


def test_a9_semiclassical_overlaps():
    u_max, m = 30.0, 1024
    nodes, _, vecs = pseudospectral_eigensystem(2.0, 2.0, 16, u_max, m)
    du = nodes[1] - nodes[0]
    worst = 1.0
    for n in range(5, 16):
        num = vecs[:, n] / math.sqrt(du)
        sc = semiclassical_wavefunction(n, 2.0, 2.0, nodes)
        overlap = abs(float(np.dot(num, sc)) * du)
        overlap /= math.sqrt(float(np.dot(sc, sc)) * du)
        worst = min(worst, overlap)
    report("A-9", worst >= 0.99, f"min overlap {worst:.5f} >= 0.99 for n = 5..15")


def test_a10_boundary_exponents():
    fits = {}
    for alpha, beta in ((2.0, 2.0), (1.0, 2.0)):
        nodes, kappas, vecs = pseudospectral_eigensystem(alpha, beta, 1, 40.0, 2048)
        kp = kappas[0] - 2.0 * GAMMA
        keep = (nodes >= 6.0) & (nodes <= 13.0)
        u = nodes[keep]
        phi = np.abs(vecs[keep, 0] * np.cosh(u))
        fits[(alpha, beta)] = fit_boundary_exponent(
            stable_log_one_minus_x(u), phi, beta, kappa_prime=kp
        )
    errs = {
        ab: abs(fits[ab] - boundary_exponents(*ab).d_beta) for ab in fits
    }
    worst = max(errs.values())

    # beta = 1 linear-potential quadrature against y J0(2y), y = e^{-u+kappa'/2}
    kp = 0.4
    u = np.array([0.2, 0.7, 1.2, 2.0])
    vals = linear_potential_solution(1.0, kp, u)
    y = np.exp(-u + 0.5 * kp)
    ref = y * j0(2.0 * y)
    scale = vals[0] / ref[0]
    bessel_err = float(np.max(np.abs(vals - scale * ref)))

    ok = worst <= 0.05 and bessel_err <= 1e-5
    report(
        "A-10",
        ok,
        f"fitted exponents {fits[(2.0, 2.0)]:.4f}/{fits[(1.0, 2.0)]:.4f} "
        f"(max error {worst:.3f} <= 0.05), Bessel check {bessel_err:.2e} <= 1e-5",
    )


def test_a11_wkb_convergence_order():
    worst = 0.0
    for n in range(5, 51):
        diff = abs(0.5 * wkb_eigenvalue(n, 1.0, 1.0) - harmonic(n))
        worst = max(worst, n * n * diff)
    report("A-11", worst <= 0.06, f"max n^2 |diff| = {worst:.4f} <= 0.06")
