"""Energy-preserving implicit Runge-Kutta methods on shifted-Legendre bases."""

from .legendre import (
    AbscissaeSystem,
    NodeFamily,
    basis_integrals,
    basis_values,
    custom_system,
    eval_orthonormal,
    exactness_degree,
    gauss_system,
    integral_orthonormal,
    interpolatory_weights,
    lobatto_system,
    random_custom_system,
    xi,
)
from .tableau import (
    BasisMatrices,
    ButcherTableau,
    HbvmSpec,
    abscissae,
    basis_matrices,
    collocation_matrix,
    filtered_tableau,
    hbvm_tableau,
    tableau_from_json,
    tableau_to_json,
    xhat_matrix,
    xs_matrix,
    xtilde_matrix,
)
from .spectral import (
    SpectrumReport,
    StabilityScan,
    a_stability_scan,
    eigenvalues,
    invariant_subspace_residual,
    isospectral_check,
    stability_function,
    verification_sweep,
    w_transform_check,
)
from .integrator import (
    GammaState,
    HamiltonianSystem,
    SolverConfig,
    StageConvergenceError,
    Trajectory,
    canonical_symplectic_matrix,
    convergence_order,
    energy_drift,
    gamma_step,
    integrate,
    rk_step,
    trajectory_to_csv,
)
from .problems import ProblemSpec, catalog, get_problem

__version__ = "0.1.0"
