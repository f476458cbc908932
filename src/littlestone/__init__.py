"""Exact computations for optimal online prediction.

Deterministic and randomized Littlestone dimensions of finite weighted
hypothesis classes, the optimal learners and adversaries built from them,
and closed-form calculators for prediction with expert advice.
"""

from .classes import (
    ClassFileError,
    Domain,
    ExpertClass,
    Member,
    RealizabilityResult,
    UnknownInstanceError,
    WeightedClass,
    expert_class,
    load_class,
    load_class_file,
    min_mistakes,
    restrict,
    universal_class,
)
from .dimension import (
    EMPTY,
    ComputeBudgetError,
    Solver,
    result_document,
)
from .experts import (
    ApproxValue,
    binomial_estimate_check,
    binomial_sum,
    capacity_D,
    d_star,
    entropy,
    f_inverse,
    f_of,
    harmonic_number,
    mstar2_closed_form,
    sphere_packing_bound,
    up_min_over_grid,
    vovk_up,
)
from .games import (
    Adversary,
    GameProtocolError,
    Round,
    Transcript,
    exact_expected_loss,
    online_optimal_adversary,
    play,
    proper_adversary,
    random_branch_adversary,
    threshold_adversary,
    worst_case_loss,
)
from .learners import (
    AdaptiveAggregator,
    BoundedRandSOALearner,
    ConstantLearner,
    FollowTheLeader,
    Learner,
    PerceptronInstance,
    PerceptronRun,
    RandSOALearner,
    SOALearner,
    make_learner,
    perceptron_bound,
    perceptron_run,
)
from .trees import (
    LEAF,
    MistakeTree,
    NotQuasiBalancedError,
    ShatterReport,
    WeightFunction,
    branches,
    complete_tree,
    depth,
    expected_branch_length,
    is_monotone,
    min_branch_length,
    node,
    quasi_balance_weights,
    sample_branch,
    shatter_check,
    tree_from_json,
    tree_statistics,
    tree_to_json,
    tree_weight,
    truncate,
)

__version__ = "0.1.0"
