"""Coverage probabilities of confidence intervals built after two-stage F-test
model selection in one-way ANCOVA.

The package estimates, for a fixed design and linear contrast, the exact
coverage probability of the data-driven confidence interval produced by
first testing "all slopes zero" and then "all slopes equal", as a function
of the true scaled slopes.  It ships a naive Monte Carlo estimator, a
variance-reduced conditioned estimator, a raw-data reference pipeline, and
a restricted search for the minimum coverage probability.
"""

from .design import (
    AncovaLayout,
    ContrastSpec,
    GeometryBundle,
    TwoStageConfig,
    build_design,
    build_geometry,
    critical_values,
    f_quantile,
    load_design,
    reference_design,
    t_quantile,
)
from .errors import (
    AncovaError,
    ConditioningFailure,
    DomainError,
    InsufficientLowCPPoints,
    SingularDesign,
)
from .conditional import ConditionalKernel
from .montecarlo import (
    CoverageEstimate,
    SlopePoint,
    default_workers,
    estimate_conditioned,
    estimate_naive,
    estimate_points,
    event_probabilities,
)
from .oracle import AgreementReport, agreement_with_events, estimate_cp_raw
from .search import (
    GridSpec,
    LineLocus,
    LineProfile,
    MinSearchReport,
    SearchConfig,
    fit_low_cp_lines,
    grid_eval,
    line_profile,
    min_cp_search,
    second_test_only_cp,
    write_grid_csv,
    write_profile_csv,
)
from .selection import batch_events, coverage_indicator, gate_probability

__version__ = "0.1.0"
