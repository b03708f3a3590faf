"""Spectra, exact eigenfunctions, semiclassics and evolution for the
two-parameter family of singular integral operators K_{alpha,beta} on [-1,1].
"""

from .specfun import (
    BIG_G_MIN,
    CONSTANTS,
    big_g,
    big_g_inverse,
    g_dispersion,
    lipatov_kappa,
    phase_integral,
)
from .operators import (
    OperatorParams,
    UGrid,
    apply_k_pointwise,
    galerkin_matrix,
    galerkin_spectrum,
    harmonic,
    monomial_action_k11,
    pseudospectral_matrix,
    pseudospectral_spectrum,
)
from .exact import (
    MehlerFockCoeffs,
    apply_L,
    apply_ell,
    k00_eigenfunction,
    mehler_fock_forward,
    mehler_fock_inverse,
    mm_eigenfunction,
)
from .semiclassics import (
    BoundaryExponents,
    WkbSpectrumRow,
    bohr_sommerfeld_solve,
    boundary_exponents,
    fit_boundary_exponent,
    linear_potential_solution,
    semiclassical_wavefunction,
    wkb_eigenvalue,
)
from .evolution import (
    EvolutionState,
    default_xi_grid,
    evolve_matrix,
    evolve_spectral,
    mm_rhs,
)

__version__ = "0.1.0"
