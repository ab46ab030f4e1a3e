"""Trust-region bound verification on finite MDPs.

Given an old and a new policy, the performance difference at discount ``g``
equals the new-occupancy expectation of the old policy's advantages.  The
first-order surrogate replaces the new occupancy with the old one, and the
gap is bounded by ``2 * eps_g * xi_g * E_TV`` where ``eps_g`` is the largest
per-state expected advantage, ``E_TV`` the old-occupancy mean policy total
variation, and ``xi_g`` a sensitivity factor that depends only on the
discount and on Kemeny's constant of the *new* policy's chain.

`check_performance_bound` evaluates all of this exactly and reports each
inequality as data, with ``BOUND_SLACK`` of float headroom; nothing raises
on a violation, so sweeps can collect every failure.  Each function reads
all it needs from one `InducedChain` per policy, so each quantity is solved
once per (MDP, policy, discount); discounted quantities start from the
MDP's ``init_dist``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from apo.analysis import InducedChain, _check_gamma
from apo.mdp import Mdp, StateDistribution, TabularPolicy, policy_distance

# Exact inequalities are checked with this much headroom for float noise.
BOUND_SLACK = 1e-9
XI_SINGULARITY_EPS = 1e-12


def _surrogate(old: InducedChain, new: InducedChain, g: float) -> float:
    v_old = old.values(g)[0]
    return float(old.occupancy(g).probs @ (new.r - old.r + g * ((new.p - old.p) @ v_old)))


def surrogate_objective(
    mdp: Mdp, pi_old: TabularPolicy, pi_new: TabularPolicy, gamma: float
) -> float:
    """First-order surrogate for the performance difference.

    Matrix form: the old occupancy applied to
    ``r_new - r_old + g (P_new - P_old) v_old``.  Identical (to float
    accuracy) to the old-occupancy, new-policy expectation of the old
    advantages.
    """
    g = _check_gamma(gamma)
    return _surrogate(InducedChain(mdp, pi_old), InducedChain(mdp, pi_new), g)


def epsilon_gamma(
    mdp: Mdp, pi_old: TabularPolicy, pi_new: TabularPolicy, gamma: float
) -> float:
    """Largest per-state magnitude of the new policy's expected old advantage."""
    g = _check_gamma(gamma)
    adv = InducedChain(mdp, pi_old).values(g)[2]
    per_state = np.einsum("sa,sa->s", pi_new.probs, adv)
    return float(np.max(np.abs(per_state)))


def xi_gamma(gamma: float, kemeny_new: float) -> float:
    """Sensitivity of the occupancy to policy perturbations.

    The minimum of ``g / (1 - g)`` and ``|g (k - 1) / (1 - (1 - g) k)|``
    for Kemeny's constant ``k`` of the new chain.  Within ``1e-12`` of the
    second branch's singularity the branch is treated as infinite, which
    hands the value to the first branch.  At ``g = 1`` this is ``k - 1``;
    at ``g = 0`` it vanishes.
    """
    g = _check_gamma(gamma)
    k = float(kemeny_new)
    if not k >= 1.0:
        raise ValueError(f"Kemeny's constant is at least 1, got {k}")
    first = np.inf if g == 1.0 else g / (1.0 - g)
    den = 1.0 - (1.0 - g) * k
    second = np.inf if abs(den) < XI_SINGULARITY_EPS else abs(g * (k - 1.0) / den)
    return float(min(first, second))


def distribution_tv(d1: StateDistribution, d2: StateDistribution) -> float:
    """Total variation distance between two state distributions."""
    if len(d1) != len(d2):
        raise ValueError("distributions live on different state counts")
    return float(0.5 * np.abs(d1.probs - d2.probs).sum())


def xi_profile(kemeny: float, gamma_grid: np.ndarray) -> np.ndarray:
    """Table of ``(gamma, xi_gamma)`` rows over a grid of discounts."""
    grid = np.asarray(gamma_grid, dtype=np.float64)
    return np.column_stack([grid, [xi_gamma(float(g), kemeny) for g in grid]])


@dataclass(frozen=True, slots=True)
class BoundReport:
    """One bound evaluation; `holds_*` flags mirror the stored numbers."""

    gamma: float
    actual_diff: float
    surrogate: float
    eps_gamma: float
    xi_gamma: float
    kemeny_new: float
    exp_policy_tv: float
    dist_tv: float
    lower: float
    upper: float
    pdf_residual: float
    holds_lower: bool
    holds_upper: bool
    holds_prop1: bool
    holds_prop2: bool


def check_performance_bound(
    mdp: Mdp, pi_old: TabularPolicy, pi_new: TabularPolicy, gamma: float
) -> BoundReport:
    """Evaluate the performance difference, surrogate, and every bound.

    Checks, each with ``BOUND_SLACK`` of float headroom:

    * the difference formula: the new-occupancy expectation of the old
      advantages reproduces the actual performance difference;
    * the occupancy-gap bound ``|diff - L| <= 2 eps * TV(d_new, d_old)``;
    * the occupancy TV bound ``TV(d_new, d_old) <= xi * E_TV``;
    * the combined two-sided bound ``L -/+ 2 eps xi E_TV``.
    """
    g = _check_gamma(gamma)
    old, new = InducedChain(mdp, pi_old), InducedChain(mdp, pi_new)
    d_old, d_new = old.occupancy(g), new.occupancy(g)
    actual = new.discounted_return(g) - old.discounted_return(g)

    expected_adv = np.einsum("sa,sa->s", pi_new.probs, old.values(g)[2])
    pdf_residual = abs(actual - float(d_new.probs @ expected_adv))

    surrogate = _surrogate(old, new, g)
    eps = float(np.max(np.abs(expected_adv)))
    kem = new.kemeny
    xi = xi_gamma(g, kem)
    exp_tv = policy_distance(pi_new, pi_old, d_old).expected_tv
    d_tv = distribution_tv(d_new, d_old)

    width = 2.0 * eps * xi * exp_tv
    lower = surrogate - width
    upper = surrogate + width
    return BoundReport(
        gamma=g,
        actual_diff=actual,
        surrogate=surrogate,
        eps_gamma=eps,
        xi_gamma=xi,
        kemeny_new=kem,
        exp_policy_tv=exp_tv,
        dist_tv=d_tv,
        lower=lower,
        upper=upper,
        pdf_residual=pdf_residual,
        holds_lower=bool(actual >= lower - BOUND_SLACK),
        holds_upper=bool(actual <= upper + BOUND_SLACK),
        holds_prop1=bool(abs(actual - surrogate) <= 2.0 * eps * d_tv + BOUND_SLACK),
        holds_prop2=bool(d_tv <= xi * exp_tv + BOUND_SLACK),
    )


def check_distribution_identity(
    mdp: Mdp, pi_old: TabularPolicy, pi_new: TabularPolicy, gamma: float
) -> float:
    """Residual of the occupancy-difference identity.

    ``d_new - d_old = g * d_old (P_new - P_old) Z_new`` holds exactly for
    every discount in ``(0, 1]`` (with stationary distributions and the
    average-case ``Z`` at one).  Returns the max-abs residual.
    """
    g = _check_gamma(gamma)
    old, new = InducedChain(mdp, pi_old), InducedChain(mdp, pi_new)
    d_old = old.occupancy(g).probs
    rhs = g * (d_old @ (new.p - old.p)) @ new.fundamental(g)
    return float(np.max(np.abs((new.occupancy(g).probs - d_old) - rhs)))


@dataclass(frozen=True)
class MatrixIdentityReport:
    row_sum_residual: float
    min_entry: float
    resolvent_difference_residual: float | None
    resolvent_difference_applicable: bool


def check_matrix_identities(
    mdp: Mdp, policy: TabularPolicy, gamma: float
) -> MatrixIdentityReport:
    """Check the passage-time matrix identities for one policy.

    ``M D^{-1} / kemeny`` must be a stochastic matrix.  When
    ``(1 - g) * kemeny < 1`` the fundamental matrix also satisfies::

        Z (I - (1-g) M D^{-1}) =
            I - M D^{-1} + E Z_dg - (1-g) E (Z M)_dg D^{-1}

    with ``D^{-1} = diag(d)``; outside that region the identity does not
    apply and ``resolvent_difference_applicable`` is False.
    """
    g = _check_gamma(gamma)
    chain = InducedChain(mdp, policy)
    m, d, kem = chain.passage, chain.stationary.probs, chain.kemeny
    md = m @ np.diag(d)
    stochastic = md / kem
    row_sum_residual = float(np.max(np.abs(stochastic.sum(axis=1) - 1.0)))
    min_entry = float(stochastic.min())

    applicable = (1.0 - g) * kem < 1.0
    resolvent_difference_residual = None
    if applicable:
        z = chain.fundamental(g)
        n = z.shape[0]
        e = np.ones((n, n))
        lhs = z @ (np.eye(n) - (1.0 - g) * md)
        rhs = (
            np.eye(n)
            - md
            + e @ np.diag(np.diag(z))
            - (1.0 - g) * (e @ np.diag(np.diag(z @ m))) @ np.diag(d)
        )
        resolvent_difference_residual = float(np.max(np.abs(lhs - rhs)))
    return MatrixIdentityReport(
        row_sum_residual=row_sum_residual,
        min_entry=min_entry,
        resolvent_difference_residual=resolvent_difference_residual,
        resolvent_difference_applicable=applicable,
    )
