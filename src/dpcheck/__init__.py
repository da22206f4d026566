"""dpcheck: differential-privacy mechanisms with numerically verified guarantees."""

from .datasets import (
    CountingQuerySet,
    Dataset,
    counting,
    counting_query,
    counting_sensitivity_analytic,
)
from .divergence import (
    DiscreteDistribution,
    DiscreteKernel,
    DivergenceResult,
    divergence_discrete,
    divergence_laplace_pair,
    divergence_monte_carlo,
)
from .laplace import (
    LaplaceDistribution,
    RandomSource,
    laplace_cdf,
    laplace_pdf,
)
from .mechanisms import (
    AuditReport,
    Mechanism,
    PrivacyBudget,
    SensitivitySpec,
    adaptive_compose,
    add_budgets,
    check_dp_exact,
    check_dp_laplace,
    check_dp_statistical,
    group_budget,
    laplace_mechanism,
    pair_compose,
    post_process,
    randomized_response,
    weaken_budget,
)
from .rnm import (
    rnm_mechanism,
    rnm_prob_exact,
    verify_rnm_dp_finer,
)

__version__ = "0.1.0"
