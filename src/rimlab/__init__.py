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
    containment_defect,
    invariance_defect,
    lipschitz_defect,
    periodicity_bound,
    pullback_attractor,
    tracking_defects,
)
from .dynamics import Nonlinearity, cocycle_phi, cocycle_psi, integrate
from .errors import CertificateError, ConfigError, InstabilityError, RimlabError
from .forcing import (
    ForcingSignal,
    TrigTerm,
    almost_period_defect,
    cell_convolution,
    scan_almost_period,
    shift_forcing,
)
from .lyapunov_perron import (
    GapCertificate,
    LPContext,
    ManifoldChart,
    backward_horizon,
    build_chart,
    c_alpha_constant,
    check_gap,
    lp_apply,
    scan_gap,
    solve_fixed_point,
)
from .problem import ModelProblem
from .randomness import (
    CovarianceSpec,
    OUProcess,
    TimeGrid,
    WienerPath,
    sample_wiener,
    solve_ou,
)
from .spectral import Spectrum, dirichlet_laplacian, norm_alpha
from .tracking import (
    TrackingResult,
    base_orbit,
    forward_horizon,
    track_phi,
)

__version__ = "0.1.0"
