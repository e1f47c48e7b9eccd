"""Virtual element plane-elasticity solver with equilibrated patch stress recovery."""

from .cases import CASE_IDS, ManufacturedCase, manufactured_case
from .generators import GenerationError, generate_mesh
from .material import LameMaterial, compliance_matrix, elastic_matrix, von_mises
from .mesh import (
    MeshError,
    MeshFamily,
    MeshFormatError,
    MeshValidationError,
    PolygonalMesh,
    load_mesh,
    save_mesh,
)
from .quadrature import cell_quadrature
from .recovery import (
    RecoveredStressField,
    RecoveryConditioningError,
    build_patch,
    evaluate_recovered_stress,
    recover_field,
)
from .study import (
    METHODS,
    ConvergenceRecord,
    energy_error_norm,
    observed_rate,
    run_convergence_study,
    run_patch_test,
)
from .vem import (
    SolveError,
    apply_dirichlet,
    assemble_global,
    element_matrices,
    element_stresses,
    solve_dirichlet_problem,
    solve_system,
)

__version__ = "0.1.0"
