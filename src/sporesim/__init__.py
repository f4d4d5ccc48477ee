"""Event-driven simulation and numerical analysis of a spore-carrying host
population: exact extinction-time sampling, backward-equation survival
curves, and the Gumbel limit of the extinction time of large populations."""

from .analytic import (
    ConstantEstimate,
    SurvivalCurve,
    TruncatedSystem,
    backward_rhs,
    closed_form_linear_fractional,
    closed_form_mu0,
    estimate_constant,
    linear_fractional_constant,
    solve_survival,
    truncation_lower_bound_check,
)
from .model import (
    DecayWindow,
    ModelParams,
    OffspringDistribution,
    ValidationReport,
    sample_offspring,
    truncation_level,
    validate,
)
from .simulator import (
    BatchOutcomes,
    BudgetError,
    EventRecord,
    PopulationState,
    RandomStream,
    SimOutcome,
    run_batch,
    run_to_extinction,
    run_to_extinction_reference,
    step,
    survival_indicator,
)
from .stats import (
    EstimateWithCI,
    GumbelReport,
    check_growth_condition,
    estimate_qk,
    fit_decay_rate,
    gumbel_cdf,
    gumbel_experiment,
    ks_distance,
    survival_curve_mc,
    wilson_interval,
)

__version__ = "0.1.0"
