"""Average-reward trust region policy optimization toolkit.

The package has two halves.  The exact half (`mdp`, `analysis`, `bounds`)
works with small finite MDPs and verifies performance-difference bounds
whose width is controlled by Kemeny's constant of the candidate policy's
chain.  The learning half (`envs`, `nn`, `training`) trains an
average-reward PPO variant and a discounted PPO baseline on small native
environments with a hand-rolled MLP, closed-form gradients and Adam.
"""

from apo.mdp import (
    Mdp,
    NotErgodicError,
    StateDistribution,
    TabularPolicy,
    induced_reward,
    induced_transition,
    is_ergodic,
    policy_distance,
    random_ergodic_mdp,
    random_policy,
    read_mdp,
    validate_mdp,
    write_mdp,
)
from apo.analysis import (
    InducedChain,
    average_policy_iteration,
    average_reward,
    discounted_return,
    discounted_state_distribution,
    fundamental_matrix,
    kemeny_constant,
    mean_first_passage,
    stationary_distribution,
    value_functions,
)
from apo.bounds import (
    BoundReport,
    check_distribution_identity,
    check_matrix_identities,
    check_performance_bound,
    distribution_tv,
    epsilon_gamma,
    surrogate_objective,
    xi_gamma,
    xi_profile,
)

__version__ = "0.1.0"
