"""Simulation and statistical verification toolkit for diminishing convex-body processes.

A diminishing process intersects a shrinking convex body with a random
translate of a fixed body at every step.  This package implements exact
process engines for intervals (general two-branch power laws), cubes,
regular simplices and regular polygons, the analytic limit laws they
converge to, and a goodness-of-fit harness that checks the convergence
rates and limit distributions at desk scale.
"""

from .distributions import (
    DfForm,
    LawSpec,
    RngStream,
    df_form_cdf,
    df_form_sample,
    dirichlet_pdf,
    law_eval,
    law_sample,
    simplex_height_sample,
)
from .errors import ConfigurationError, DiminishError, DomainError, StateCorruptionError
from .interval import (
    IntervalState,
    ThinnedIntervalState,
    center_series_sample,
    interval_new,
    step_full,
    step_thinned,
    thinned_new,
)
from .simplex import (
    SimplexState,
    SimplexThinned,
    simplex_full_step,
    simplex_new,
    simplex_thinned_new,
    simplex_thinned_step,
    to_barycentric,
)
from .polygon import (
    BoundConstants,
    PentagonConstants,
    PolygonSnapshot,
    PolygonState,
    bound_constants,
    pentagon_constants,
    pentagon_residual,
    polygon_new,
    polygon_step,
    sample_point,
    snapshot,
)
from .stats import (
    RunConfig,
    ScaledSample,
    envelope_check,
    ks_stat,
    moment_estimate,
    run_experiment,
)

__version__ = "0.1.0"
