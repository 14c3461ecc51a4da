"""phaselab: a laboratory for constrained ERM phase retrieval.

Squared measurements y_i = <a_i, x0>^2 + w_i, least-squares estimators over
symmetric constraint sets, the complexity functionals whose fixed points
predict the convergence rates, and a seeded experiment harness that puts the
predictions against observed errors.
"""

from .empirics import (
    EQUIVALENCE_C1,
    EQUIVALENCE_C2,
    PZ_LEVELS,
    REARRANGEMENT_RATIO_HIGH,
    REARRANGEMENT_RATIO_LOW,
    norm_equivalence_violations,
    paley_zygmund_admitted,
    paley_zygmund_fraction,
    psi_alpha_norm,
    random_norm_triples,
    rearrangement_functional,
    rearrangement_ratio_range,
)
from .ensembles import (
    Ensemble,
    NoiseModel,
    PhaseSample,
    draw_measurements,
    draw_noise,
    generate_sample,
    sub_seed,
    substream,
)
from .erm import (
    SolverConfig,
    TrialResult,
    error_metrics,
    excess_loss_parts,
    gradient,
    objective,
    solve_oracle,
    solve_pgd,
    spectral_init,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    InsufficientDataError,
    UnsupportedSetError,
)
from .harness import (
    CellSummary,
    ExperimentConfig,
    RatePrediction,
    ResultsTable,
    SolverSpec,
    TrialRow,
    X0Spec,
    config_from_dict,
    config_to_dict,
    export_results,
    fit_slope,
    load_config,
    load_results,
    predict_rate,
    predict_rate_l1,
    predict_rate_sparse,
    run_experiment,
    save_config,
    summarize,
)
from .sets import (
    ConstraintSet,
    FixedPointQuery,
    McConfig,
    WidthEstimate,
    ambient,
    contains,
    fixed_point,
    l1_ball,
    l2_ball,
    mean_width_closed_form,
    mean_width_mc,
    packing_count,
    project,
    random_feasible,
    sparse_cap,
    support_function_cap,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
