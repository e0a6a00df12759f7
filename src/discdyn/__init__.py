"""Dynamics of the Moebius group on bounded harmonic functions of the disc.

Boundary data is piecewise constant on the circle, extensions are exact
closed forms, and the headline constructions (dense orbits, periodic
approximants, the arc-space bundle, the genus-2 example) all ship with
certified error bars.
"""

from .arcspace import (
    Arc,
    act_arc,
    act_arcs,
    big_F,
    check_equivariance,
)
from .boundary import (
    BoundaryFunction,
    InvalidPartitionError,
    angle_to_line,
    compose_with_moebius,
    from_line_segments,
    indicator,
    l1_distance,
    l1_norm,
    line_to_angle,
    merge_partition,
    wrap_angle,
)
from .chaos import (
    CertificateRow,
    Conjugacy,
    DenseOrbitSchedule,
    NotConjugateError,
    NotHyperbolicError,
    NotParabolicError,
    PeriodicApproximant,
    ResolutionError,
    TargetFamily,
    build_dense_seed,
    build_parabolic_periodic,
    build_periodic_approximant,
    conjugating_map,
    dense_orbit_report,
    make_parabolic_schedule,
    make_schedule,
    translate_boundary,
)
from .foliation import (
    FuchsianGroup,
    InvalidPointError,
    OrbitSample,
    ProjectivePoint,
    SingularPointError,
    coverage_statistic,
    coverage_sweep,
    genus2_group,
    orbit_sample,
    projective_act,
    projective_f,
    random_projective_point,
    relation_residual,
    short_word_scan,
)
from .moebius import (
    ElementClass,
    HalfPlaneMatrix,
    InvalidMatrixError,
    MoebiusElement,
    act_disc,
    act_line,
    classify,
    compose,
    fixed_points_line,
    from_half_plane,
    hyperbolic_multiplier,
    identity,
    inverse,
    multiplier,
    parabolic_shift,
    rotation,
    to_half_plane,
)
from .poisson import (
    NORM_OF_ONE,
    CompactExhaustion,
    HarmonicFunction,
    NearBoundaryError,
    NonDivergentError,
    extend,
    extend_many,
    limit_diagnostic,
    metric_distance,
    metric_norm,
)

__version__ = "0.1.0"
