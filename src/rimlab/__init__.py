"""rimlab: random inertial manifolds for stochastic semilinear equations.

The library constructs finite-dimensional invariant graphs for
non-autonomous stochastic parabolic equations in a diagonal spectral
(Galerkin) representation, via contraction of a backward integral operator
on exponentially weighted histories, and verifies their defining
properties numerically: invariance under the solution cocycle, exponential
tracking of arbitrary orbits, containment of pullback ensembles, and
periodicity or almost-periodicity of the graph in the initial time.
"""

from .analysis import (
    AttractorCloud,
    DefectReport,
    ap_defect,
    containment_decay,
    containment_defect,
    fit_decay_rate,
    hausdorff_semidist,
    invariance_defect,
    periodicity_defect,
    pullback_attractor,
)
from .dynamics import Nonlinearity, Trajectory, cocycle_phi, cocycle_psi, integrate
from .errors import (
    CertificateError,
    ConfigError,
    ContractionViolationError,
    DimensionMismatchError,
    DomainError,
    GridAlignmentError,
    InstabilityError,
    ParameterError,
    RimlabError,
    SpectrumError,
    SupportRangeError,
    ValidationError,
)
from .forcing import (
    ForcingSignal,
    TrigTerm,
    almost_period_defect,
    cell_convolution,
    eval_forcing,
    scan_almost_period,
    shift_forcing,
    temperedness_integral,
)
from .lyapunov_perron import (
    GapCertificate,
    LPContext,
    ManifoldChart,
    backward_horizon,
    build_chart,
    c_alpha_constant,
    check_gap,
    gap_margin,
    lp_apply,
    manifold_point,
    scan_gap,
    solve_fixed_point,
    tilde_manifold_point,
)
from .problem import ModelProblem
from .randomness import (
    CovarianceSpec,
    OUProcess,
    TimeGrid,
    WienerPath,
    coarsen_path,
    sample_wiener,
    shift_path,
    solve_ou,
    temperedness_ratio,
)
from .spectral import (
    Spectrum,
    apply_semigroup,
    dirichlet_laplacian,
    frac_power,
    norm_alpha,
)
from .tracking import (
    TrackingResult,
    base_orbit,
    forward_horizon,
    lp_plus_apply,
    solve_tracking,
    track_phi,
)

__version__ = "0.1.0"
