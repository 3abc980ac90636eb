"""incflow: certified incremental flow-based generators.

Construct compactly supported ReLU vector fields, take their time-1
flows, compose flows into incremental generators with explicit error and
Lipschitz certificates, realize arbitrary Lipschitz functions as flows
one dimension up, push empirical measures through generators with exact
Wasserstein-1 scoring, and probe the dynamics that separate one flow from
a composition of two.
"""

from .mlp import (
    MLP,
    BumpSpec,
    build_bump,
    bump_values,
    compose,
    lipschitz_upper_bound,
)
from .fields import (
    ApproximationReport,
    GridInterpolant,
    GridPayloadError,
    HolderModulus,
    LipschitzModulus,
    SmoothRateModulus,
    VectorField,
    box_bump_clip,
    builtin_field,
    builtin_suite,
    grid_relu_approximate,
    grid_to_mlp,
    radial_bump_clip,
    rotation_field,
    sin_bump_field,
    squeeze_field,
    zero_field,
)
from .flow import (
    ErrorCertificate,
    FlowIntegrationError,
    FlowMap,
    IncrementalGenerator,
    ManifestError,
    approximate_flowable,
    approximate_generator,
    builtin_generator,
    certify,
    certify_smooth,
    empirical_lipschitz,
    load_generator,
    reference_flow,
    save_generator,
    verify_manifest,
)
from .lift import (
    LiftedApproximator,
    approximate_lipschitz_function,
    exact_lift,
    lift_field,
)
from .transport import (
    EmpiricalMeasure,
    TransportReport,
    concentration_experiment,
    cor_bound,
    pushforward,
    summarize_trials,
    w1_exact,
)
from .probe import (
    FitResult,
    OrbitRecord,
    build_counterexample,
    classify_orbit,
    contraction_audit,
    detect_periodic,
    fit_gap_experiment,
    fit_single_flow,
)

__version__ = "0.1.0"
