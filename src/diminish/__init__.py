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
    law_eval,
)
from .errors import ConfigurationError, DiminishError, DomainError, StateCorruptionError
from .interval import (
    IntervalState,
    interval_new,
    step_full,
)
from .simplex import (
    SimplexState,
    simplex_full_step,
    simplex_new,
    to_barycentric,
)
from .polygon import (
    BoundConstants,
    PolygonSnapshot,
    PolygonState,
    bound_constants,
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
