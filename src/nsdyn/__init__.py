"""nsdyn: a numerical laboratory for constant-step subgradient dynamics.

Simulate the discrete iteration x_{k+1} = x_k - alpha * s_k over a catalog
of locally Lipschitz test functions with exact subdifferential oracles,
integrate the continuous subgradient flow, measure how far the interpolated
iterates drift from the flow, probe ball stability of candidate points, and
verify the escape behavior around the cross function's unstable non-strict
minimum.
"""

from .catalog import (
    CatalogFunction,
    get_function,
    list_catalog,
    minimal_norm_element,
)
from .counterexample import (
    EscapeStats,
    cross_update,
    doubling_check,
    escape_experiment,
    monotone_drift_check,
)
from .engine import (
    MINIMAL_NORM,
    InterpolatedPath,
    SelectionPolicy,
    Trajectory,
    first_exit,
    interpolate,
    run,
    run_batch,
    sample_ball,
)
from .flow import (
    DeviationReport,
    FlowSolution,
    energy_residual,
    integrate_flow,
    sup_deviation,
)
from .stability import (
    BoundReport,
    Certificate,
    EscapeWitness,
    StabilityQuery,
    StabilityVerdict,
    convex_bounds_report,
    estimate_lipschitz,
    local_min_check,
    probe,
)

__version__ = "0.1.0"
