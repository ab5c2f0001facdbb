"""fairmix: randomized interpolation between fair lotteries and welfare maximization.

Given a fair baseline lottery over solutions, a high-welfare mechanism,
and a fairness budget ``alpha`` (a total-variation radius around the
baseline), the mixing algorithms in :mod:`fairmix.mix` produce output
lotteries that stay within the budget while provably retaining most of
the best achievable welfare.  :mod:`fairmix.oracle` constructs the
optimal constrained lottery exactly on small instances and verifies the
guarantees; :mod:`fairmix.assignment` and :mod:`fairmix.sortition`
instantiate the framework for bipartite assignment and representative
panel selection; :mod:`fairmix.ingest` parses their input files; and
:mod:`fairmix.experiments` / :mod:`fairmix.cli` run seeded evaluation
sweeps.
"""

from .core import (
    Distribution,
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ScaleError,
    ValueFunction,
    WelfareMechanism,
    expected_value,
    is_alpha_fair,
    tv_distance,
)
from .mix import (
    epsilon_mix,
    sample_size,
    simple_mix,
    simple_mix_distribution,
    trim_weights,
)
from .oracle import (
    GuaranteeReport,
    OptDecomposition,
    build_p_opt,
    check_guarantees,
    check_individual_fairness,
    estimate_output_law,
    smix_lower_bound,
    v_p_opt,
)

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "FairPrior",
    "GuaranteeReport",
    "InterpolationInstance",
    "OptDecomposition",
    "ParameterError",
    "ScaleError",
    "ValueFunction",
    "WelfareMechanism",
    "build_p_opt",
    "check_guarantees",
    "check_individual_fairness",
    "epsilon_mix",
    "estimate_output_law",
    "expected_value",
    "is_alpha_fair",
    "sample_size",
    "simple_mix",
    "simple_mix_distribution",
    "smix_lower_bound",
    "trim_weights",
    "tv_distance",
    "v_p_opt",
    "__version__",
]
