"""Shape derivatives of constrained quadratic minimization problems.

Two layers share one structure.  ``core_minimax`` treats the
finite-dimensional problem directly: a cone-constrained quadratic program
whose data (A, B, f) moves along a perturbation direction, with the
derivative of the optimal value checked against central differences.
``mesh``/``flow``/``stokes_fem``/``shape_derivative`` instantiate the same
structure for viscous incompressible flow: the domain moves along the
flow of a velocity field, and the derivative of the optimal energy is a
nodal shape gradient contracted with the velocity at the mesh vertices,
verified against re-solves on transported meshes.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDirichletBoundary,
    InvertedElement,
    MaxIterations,
    NonPositiveJacobian,
    NotPositiveDefinite,
    RankDeficientB,
    ShapeDerivError,
    SingularSystem,
    UnsolvedSolution,
)
from .fields import (
    ConstantForce,
    LeftEdgeTraction,
    RotationalForce,
    TrigForce,
    trig_manufactured,
)
from .flow import (
    AffineField,
    ConstantField,
    CutoffWindow,
    FlowSample,
    QuadraticField,
    RotationField,
    ZeroField,
    integrate_flow,
)
from .mesh import (
    DIRICHLET,
    NEUMANN,
    TriMesh,
    disk_mesh,
    read_mesh,
    transport_mesh,
    unit_square_mesh,
    write_mesh,
)
from .shape_derivative import (
    DerivativeReport,
    assemble_perturbation,
    fd_verify,
    mesh_shape_derivative,
    stokes_shape_derivative,
)
from .slopes import FdEntry, FdTable
from .stokes_fem import (
    ConvergenceRow,
    FunctionSpace,
    StokesSolution,
    StokesSystem,
    assemble,
    convergence_study,
    energy,
    h1_velocity_error,
    inf_sup_constant,
    solve_stokes,
)

# Imported last: the package attribute `shape_derivative` must be the cone-QP
# derivative function, not the submodule of the same name imported above.
from .core_minimax import (
    ConeKind,
    ConeQP,
    PerturbationDirection,
    SaddlePoint,
    check_lbb,
    crash_start,
    fd_derivative,
    lagrangian_value,
    load_qp,
    objective_value,
    optimal_value,
    perturbed_qp,
    save_qp,
    shape_derivative,
    solve_saddle_point,
)

__version__ = "0.1.0"
