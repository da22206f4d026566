"""dpcheck: differential-privacy mechanisms with numerically verified guarantees."""

from .datasets import (
    AdjacencyRelation,
    CountingQuerySet,
    Dataset,
    adjacency_chain,
    counting,
    counting_query,
    counting_sensitivity_analytic,
    counting_sensitivity_exhaustive,
    dist_l1,
    is_adjacent,
)
from .divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    DivergenceResult,
    check_composability_brute_force,
    check_transitivity,
    divergence_brute_force,
    divergence_discrete,
    divergence_laplace_pair,
    divergence_monte_carlo,
)
from .laplace import (
    LaplaceDistribution,
    RandomSource,
    laplace_cdf,
    laplace_interval_prob,
    laplace_pdf,
    shift_law_check,
)
from .mechanisms import (
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    adaptive_compose,
    add_budgets,
    check_dp_exact,
    check_dp_laplace,
    check_dp_statistical,
    check_group_privacy,
    group_budget,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
    weaken_budget,
)
from .rnm import (
    argmax_insert,
    argmax_list,
    list_insert,
    max_argmax,
    rnm_mechanism,
    rnm_prob_exact,
    verify_rnm_dp_finer,
)

__version__ = "0.1.0"
