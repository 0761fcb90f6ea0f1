"""starloc: star aggregation with certified loss curvature.

Loss families with certified constants, numerical margin certification,
two-stage star estimators (including the regularized improper GLM
pipeline), Monte Carlo offset-complexity estimation, closed-form
excess-risk bounds, and seeded synthetic rate experiments.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundInputs,
    bigglm_rate,
    chaining_bound,
    entropy_integral,
    glm_bound,
    packing_bound,
)
from .complexity import (
    EntropyProfile,
    OffsetEstimate,
    constant_profile,
    entropy_eval,
    finite_empirical_profile,
    fprime_matrix,
    greedy_cover_indices,
    offset_complexity_mc,
    offset_sup_one_draw,
    parametric_profile,
    power_law_profile,
)
from .estimators import (
    StarFit,
    empirical_risk,
    erm_finite,
    erm_linear,
    erm_segment,
    line_search_segment,
    regularized_star_glm,
    star_fit,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    RateReport,
    RateRow,
    bound_vs_empirical,
    fit_rate,
    gen_logistic_data,
    gen_ploss_data,
    gen_twopoint_data,
    population_excess_risk,
    results_csv,
    run_rate_experiment,
    summary_dict,
)
from .losses import (
    LossModel,
    ModulusDescriptor,
    canonical_modulus,
    eval_loss,
    glm_loss,
    grad_loss,
    link_right_inverse,
    link_softmax,
    log_loss,
    loss_increment_modulus,
    p_loss,
    power_modulus,
    regularize_likelihood,
    regularize_probs,
    square_loss,
)
from .margins import (
    MarginCheckReport,
    bregman_gap,
    certify_mu_d_convexity,
    contraction_check,
    empirical_convexity_check,
    erm_margin_check,
    exp_concave_margin_check,
    log_margin_scalar_check,
    regularization_sandwich_check,
    self_concordant_gap_check,
    star_margin_check,
)
from .predictors import (
    Constant,
    FiniteClass,
    Linear,
    LinearBall,
    Predictor,
    Sample,
    SegmentClass,
    StarMix,
    Tabular,
    prediction_vector,
)
from .verify import run_suite
