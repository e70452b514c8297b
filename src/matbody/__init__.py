"""Uniformity and homogeneity analysis of simple elastic bodies.

The package decides, on a desk-scale grid, whether a body described by a
response functional W-hat(F, x) is uniform and (locally) homogeneous: it
computes sampled membership in the material groupoid, the fibers of the
material algebroid as numerical nullspaces, the induced material connection
with its curvature and torsion, exponential flows of algebroid sections, and
the equivalent parallelism/G-structure formulation.
"""

from .algebroid import (
    FiberBasis,
    Fibers,
    anchor_rank,
    constraint_rows,
    fiber,
    fibers_at,
    isotropy_algebra,
    uniformity_verdict,
)
from .analysis import AnalysisConfig, AnalysisReport, emit_report, parse_report, run_analysis
from .bodies import (
    Body,
    SampleSet,
    builtin_body,
    differenced,
    evaluate,
    evaluate_w_inverse,
    is_material_isomorphism,
    make_samples,
    membership_defect,
    membership_defects,
    polynomial_body,
)
from .connection import (
    ChartField,
    CurvatureTorsionReport,
    LinearSectionField,
    build_homogeneous_chart,
    chart_christoffels,
    curvature_torsion,
    homogeneity_verdict,
    minimal_lift_section,
)
from .errors import (
    ConfigError,
    GridTooSmall,
    LeftDomain,
    MatbodyError,
    NonFiniteResponse,
    NotFlat,
    NotMorphism,
    NotUniform,
    OutOfDomain,
    SingularMatrix,
    SourceTargetMismatch,
    StepTooLarge,
)
from .flows import SectionField, derivation_matrix, exp_section, exp_trajectory, one_parameter_check
from .grid import Box, Grid, TrilinearField, make_grid
from .gstructure import (
    GroupoidSection,
    Parallelism,
    g_map,
    invert_g_map,
    isotropy_group_sample,
    sampled_morphism_defect,
)
from .jets import Frame, Jet1, compose, identity, invert

__version__ = "0.1.0"
