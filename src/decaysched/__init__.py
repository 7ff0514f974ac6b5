"""Scheduling service order for items whose success probability decays while waiting.

Each of n items starts with a success probability; serving them one per
stage, an item's probability has decayed by the time its turn comes, either
additively with clamping at zero or multiplicatively.  This package
evaluates service orders (success-count distribution, expected successes,
all-success probability), finds optimal orders exhaustively or by provably
optimal sorting strategies, and analyzes populations with uniform random
initial probabilities (probability that no item decays to zero, by closed
form, nested quadrature, and Monte Carlo).
"""

from .analysis import (
    MAX_QUADRATURE_DIMENSION,
    PopulationModel,
    PositivityReport,
    QuadratureDimensionError,
    active_thresholds,
    positivity_report,
    positivity_report_montecarlo,
    prob_positive_montecarlo,
    prob_strongest_first_positive,
    prob_weakest_first_positive_quadrature,
    stage_thresholds,
)
from .cli import (
    FigureMatrix,
    ScenarioConfig,
    figure_csv,
    figure_svg,
    generate_figure_matrix,
    main,
    parse_scenario,
    serialize_scenario,
)
from .decay import (
    AdditiveDecay,
    DecaySpec,
    MultiplicativeDecay,
    Schedule,
    apply_additive,
    apply_multiplicative,
    as_permutation,
    linear_decay_sequence,
    multiplicative_stage_factors,
    stage_probabilities,
)
from .distribution import (
    ProbabilityVector,
    SuccessCountPmf,
    as_probability_vector,
    expected_successes,
    prob_all_success,
    success_count_pmf,
)
from .scheduler import (
    BRUTE_FORCE_MAX_ITEMS,
    Objective,
    ScheduleMetrics,
    brute_force_optimal,
    evaluate_order,
    recommended_order,
    sort_order,
    stage_item_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distribution
    "ProbabilityVector",
    "SuccessCountPmf",
    "as_probability_vector",
    "success_count_pmf",
    "expected_successes",
    "prob_all_success",
    # decay
    "AdditiveDecay",
    "MultiplicativeDecay",
    "DecaySpec",
    "Schedule",
    "as_permutation",
    "linear_decay_sequence",
    "apply_additive",
    "apply_multiplicative",
    "multiplicative_stage_factors",
    "stage_probabilities",
    # scheduler
    "Objective",
    "ScheduleMetrics",
    "BRUTE_FORCE_MAX_ITEMS",
    "sort_order",
    "stage_item_matrix",
    "evaluate_order",
    "brute_force_optimal",
    "recommended_order",
    # analysis
    "PopulationModel",
    "PositivityReport",
    "QuadratureDimensionError",
    "MAX_QUADRATURE_DIMENSION",
    "stage_thresholds",
    "active_thresholds",
    "prob_strongest_first_positive",
    "prob_weakest_first_positive_quadrature",
    "prob_positive_montecarlo",
    "positivity_report",
    "positivity_report_montecarlo",
    # cli
    "ScenarioConfig",
    "FigureMatrix",
    "parse_scenario",
    "serialize_scenario",
    "generate_figure_matrix",
    "figure_csv",
    "figure_svg",
    "main",
]
