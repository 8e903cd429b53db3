"""Diffuse double-well energies whose sharp limit is Dirichlet plus perimeter.

The package builds and measures the objects behind that limit: 1D
transition profiles, recovery states for sharp pairs, annulus gluings,
barrier competitors, constrained gradient descent, and exact discrete
tools (harmonic replacement, a closed-form 1D sharp oracle), all on
uniform grids over intervals, boxes, and balls.
"""

from .errors import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    InvalidPairError,
    NumericError,
    PerimeterPhaseError,
    ResolutionError,
    UnsupportedRegionError,
)
from .potential import C0, h_tilde, w, w_prime
from .profiles1d import (
    SlopedProfile,
    sloped_profile,
    tail_well_sup,
    transition_halfwidth,
    transition_profile,
    transition_profile_derivative,
)
from .geometry import (
    Complement,
    Disc,
    Domain,
    EmptySpace,
    FullSpace,
    HalfPlane,
    Intersection,
    IntervalUnion,
    Region,
    Union,
    exact_perimeter,
    interface_length,
    rasterize,
    region_from_dict,
)
from .energy import (
    EnergyBreakdown,
    MMSplit,
    PhaseState,
    ScalarField,
    SharpPair,
    dirichlet_energy,
    e_eps,
    l1_gap,
    l2_gap,
    modica_mortola_split,
    phase_band_measure,
    sharp_energy,
    tv_phase,
    well_energy,
)
from .recovery import RecoveryReport, build_recovery
from .interpolation import (
    AnnulusSpec,
    BarrierResult,
    GlueReport,
    GlueStage,
    barrier_feasibility_threshold,
    build_barrier,
    glue,
)
from .minimize import (
    MinimizeConfig,
    MinimizeResult,
    OracleResult1D,
    SweepEntry,
    continuation_sweep,
    energy_gradient,
    extract_sharp_limit,
    harmonic_replacement,
    minimize_e_eps,
    sharp_oracle_1d,
    sign_change_locations,
)
from . import fieldio

__version__ = "0.1.0"
