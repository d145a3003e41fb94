"""girthlab: geodesics, duality maps and symplectic volumes of Minkowski
unit spheres."""

__version__ = "0.1.0"

from .bodies import (  # noqa: F401
    GaugeBody,
    check_quadratic_convexity,
    dual_body,
    dual_gauge,
    legendre,
    legendre_inverse,
    make_ellipsoid,
    make_power_mean,
    scale_body,
)
from .errors import (  # noqa: F401
    ConfigError,
    GirthlabError,
    IllConditionedInputError,
    NoIntersectionError,
    NumericalFailureError,
    PreconditionError,
    RejectedInputError,
    UnsupportedInputError,
)
from .geodesics import (  # noqa: F401
    GirthOptions,
    GirthResult,
    characteristic_flow,
    dual_girth,
    girth,
    length_spectrum_probe,
)
from .maps import Phi, Psi, phi, psi, solve_line_sphere  # noqa: F401
from .measures import (  # noqa: F401
    action,
    crofton_line_measure,
    ht_volume,
    trajectory_action,
)
from .metric import (  # noqa: F401
    CoSpherePoint,
    EmbeddedSphere,
    cosphere_lift,
    induced_hamiltonian,
    induced_length,
    project_to_surface,
    restrict_covector,
    sample_cosphere,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    ExperimentReport,
    SolverOptions,
    run,
)
