"""Exact policy evaluation for finite MDPs.

Everything here is dense float64 linear algebra (LU solves via numpy); no
iterative methods, no sampling.  The discount-one case always goes through
dedicated average-reward branches built on the stationary distribution and
the fundamental matrix ``Z = (I - g*P + g*e d)^{-1}``, which stays
nonsingular at ``g = 1``; the resolvent ``(I - g*P)^{-1}`` is only ever
formed for ``g < 1``.

`InducedChain` is the one analysis object: it solves each quantity of one
(MDP, policy) chain at most once, on first use, per discount where it has
one, and `analysis_residuals` checks them against each other.  Discounted
quantities start from the MDP's own ``init_dist``.  The module-level
functions are views that read one quantity from a fresh chain; callers that
need several (``apo analyze``, `apo.bounds`) read them all from one chain.

Value functions follow the zero-mean convention: the discounted value of a
state accumulates ``r - eta`` where ``eta`` is the average reward, so the
stationary expectation of the value vector is exactly zero for every
discount.  The raw Poisson solution differs from this by the constant shift
``eta`` in every entry; ``apo analyze`` reports that shift explicitly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from apo.mdp import (
    Mdp,
    NotErgodicError,
    StateDistribution,
    TabularPolicy,
    induced_reward,
    induced_transition,
)

SOLVER_ATOL = 1e-10
IDENTITY_ATOL = 1e-9


class NumericalConditioningError(RuntimeError):
    """A dense solve failed or came back with an unusable residual."""


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not (0.0 <= g <= 1.0):
        raise ValueError(f"discount must lie in [0, 1], got {gamma}")
    return g


class InducedChain:
    """The Markov chain ``policy`` induces on ``mdp``: ``p`` and ``r`` (the
    induced transitions and per-state rewards) are built on construction,
    everything else is solved on first use and kept for the object's life.
    """

    def __init__(self, mdp: Mdp, policy: TabularPolicy):
        self.mdp = mdp
        self.p = induced_transition(mdp, policy)
        self.r = induced_reward(mdp, policy)
        self.n = mdp.n_states
        self._z: dict[float, np.ndarray] = {}
        self._occupancy: dict[float, StateDistribution] = {}
        self._values: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @cached_property
    def stationary(self) -> StateDistribution:
        """Stationary distribution.

        Solves the balance equations with one of them replaced by the
        normalization row.  The replaced system is nonsingular exactly when
        the chain has a single recurrent class, so unichains with transient
        states work; a genuinely multichain policy raises `NotErgodicError`.
        """
        a = self.p.T - np.eye(self.n)
        a[-1, :] = 1.0
        b = np.zeros(self.n)
        b[-1] = 1.0
        try:
            d = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise NotErgodicError(f"induced chain is not ergodic: {exc}") from exc
        residual = float(np.max(np.abs(d @ self.p - d)))
        if not residual <= SOLVER_ATOL:
            raise NotErgodicError(f"induced chain is not ergodic: balance residual {residual:.3e}")
        return StateDistribution(d)

    @cached_property
    def average_reward(self) -> float:
        return float(self.stationary.probs @ self.r)

    def occupancy(self, gamma: float) -> StateDistribution:
        """Normalized discounted state occupancy ``(1-g) d0 (I - g P)^{-1}``
        from the MDP's start distribution ``d0``.

        At ``gamma = 0`` this is the start distribution; at ``gamma = 1`` it
        is the stationary distribution (the limit is taken analytically, not
        by inverting a singular matrix).
        """
        g = _check_gamma(gamma)
        if g == 1.0:
            return self.stationary
        if g not in self._occupancy:
            # d_g solves d_g (I - g P) = (1-g) d0, i.e. (I - g P)^T x = (1-g) d0.
            d = np.linalg.solve(np.eye(self.n) - g * self.p.T, (1.0 - g) * self.mdp.init_dist)
            self._occupancy[g] = StateDistribution(d)
        return self._occupancy[g]

    def discounted_return(self, gamma: float) -> float:
        return float(self.occupancy(gamma).probs @ self.r)

    def fundamental(self, gamma: float) -> np.ndarray:
        """``Z = (I - g P + g e d)^{-1}``.

        Nonsingular for every discount in ``(0, 1]`` on a unichain; satisfies
        ``Z e = e``, ``d Z = d`` and ``Z (I - g P) = I - g e d``.
        """
        g = _check_gamma(gamma)
        if g not in self._z:
            n = self.n
            a = np.eye(n) - g * self.p + g * np.outer(np.ones(n), self.stationary.probs)
            try:
                z = np.linalg.solve(a, np.eye(n))
            except np.linalg.LinAlgError as exc:
                cond = float(np.linalg.cond(a))
                raise NumericalConditioningError(
                    f"fundamental matrix solve failed (condition estimate {cond:.3e})"
                ) from exc
            residual = float(np.max(np.abs(a @ z - np.eye(n))))
            if not residual <= SOLVER_ATOL:
                cond = float(np.linalg.cond(a))
                raise NumericalConditioningError(
                    f"fundamental matrix residual {residual:.3e} "
                    f"(condition estimate {cond:.3e})"
                )
            self._z[g] = z
        return self._z[g]

    def values(self, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-mean state values, action values, and advantages.

        ``v = (Z - e d) r_pi`` accumulates ``r - eta`` along discounted
        paths, so ``d @ v = 0`` exactly.  ``q(s, a) = r(s, a) - eta + g *
        P(.|s,a) v`` and ``adv = q - v`` with the stored ``v``, so the
        advantage identity is exact as computed.
        """
        g = _check_gamma(gamma)
        if g not in self._values:
            v = (self.fundamental(g) - np.outer(np.ones(self.n), self.stationary.probs)) @ self.r
            q = self.mdp.reward - self.average_reward + g * (self.mdp.transition @ v)
            self._values[g] = (v, q, q - v[:, None])
        return self._values[g]

    @cached_property
    def passage(self) -> np.ndarray:
        """Mean first passage times ``M[s, s']``.

        Diagonal entries are mean recurrence times ``1 / d(s)``.  Computed
        from the discount-one fundamental matrix as ``M = (I - Z + E Z_dg) D``
        with ``D = diag(1 / d)``; satisfies ``M = P (M - D) + E``.
        """
        z = self.fundamental(1.0)
        d = self.stationary.probs
        if d.min() <= 0.0:
            raise NotErgodicError("mean first passage needs strictly positive stationary mass")
        # E Z_dg adds Z's diagonal to every row, and D scales column s' by 1 / d(s')
        return (np.eye(self.n) - z + np.diag(z)[None, :]) * (1.0 / d)

    @cached_property
    def kemeny(self) -> float:
        """Kemeny's constant: expected passage time to a stationary target.

        ``sum_s' d(s') M[s, s']`` does not depend on the source row; the
        shared value also equals ``trace(Z)`` at discount one.  Both facts
        are checked to ``IDENTITY_ATOL`` before returning.
        """
        rows = self.passage @ self.stationary.probs
        spread = float(rows.max() - rows.min())
        if spread > IDENTITY_ATOL:
            raise NumericalConditioningError(
                f"Kemeny row values differ by {spread:.3e}; chain too ill-conditioned"
            )
        value = float(rows.mean())
        trace = float(np.trace(self.fundamental(1.0)))
        if abs(value - trace) > IDENTITY_ATOL:
            raise NumericalConditioningError(
                f"Kemeny value {value!r} disagrees with fundamental-matrix trace {trace!r}"
            )
        return value


def stationary_distribution(mdp: Mdp, policy: TabularPolicy) -> StateDistribution:
    """Stationary distribution of the induced chain (see `InducedChain.stationary`)."""
    return InducedChain(mdp, policy).stationary


def discounted_state_distribution(
    mdp: Mdp, policy: TabularPolicy, gamma: float
) -> StateDistribution:
    """Discounted occupancy from the MDP's start (see `InducedChain.occupancy`)."""
    return InducedChain(mdp, policy).occupancy(gamma)


def average_reward(mdp: Mdp, policy: TabularPolicy) -> float:
    """Long-run reward per step of the induced chain."""
    return InducedChain(mdp, policy).average_reward


def discounted_return(mdp: Mdp, policy: TabularPolicy, gamma: float) -> float:
    """Normalized discounted return ``(1-g) E[sum g^t r_t]``.

    Equals the occupancy-weighted one-step reward; reduces to the average
    reward at ``gamma = 1`` and to the initial expected reward at 0.
    """
    return InducedChain(mdp, policy).discounted_return(gamma)


def fundamental_matrix(mdp: Mdp, policy: TabularPolicy, gamma: float) -> np.ndarray:
    """Fundamental matrix of the induced chain (see `InducedChain.fundamental`)."""
    return InducedChain(mdp, policy).fundamental(gamma)


def value_functions(
    mdp: Mdp, policy: TabularPolicy, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean ``(v, q, adv)`` of the induced chain (see `InducedChain.values`)."""
    return InducedChain(mdp, policy).values(gamma)


def mean_first_passage(mdp: Mdp, policy: TabularPolicy) -> np.ndarray:
    """Mean first passage times of the induced chain (see `InducedChain.passage`)."""
    return InducedChain(mdp, policy).passage


def kemeny_constant(mdp: Mdp, policy: TabularPolicy) -> float:
    """Kemeny's constant of the induced chain (see `InducedChain.kemeny`)."""
    return InducedChain(mdp, policy).kemeny


def average_policy_iteration(mdp: Mdp) -> tuple[TabularPolicy, float]:
    """Howard-style policy iteration on the average-reward criterion.

    Starts from the uniform policy, evaluates at discount one, and improves
    greedily on ``q(s, a) = r(s, a) - eta + P(.|s,a) v`` with ties broken by
    the lowest action index.  Intended for MDPs that stay unichain under
    every deterministic policy encountered; a multichain intermediate policy
    surfaces as `NotErgodicError`.
    """
    s, a = mdp.n_states, mdp.n_actions
    policy = TabularPolicy(np.full((s, a), 1.0 / a))
    prev_actions: np.ndarray | None = None
    cap = 10 * s * a
    for _ in range(cap):
        chain = InducedChain(mdp, policy)
        try:
            _, q, _ = chain.values(1.0)
        except NotErgodicError as exc:
            raise NotErgodicError(f"non-ergodic intermediate policy: {exc}") from exc
        greedy = np.argmax(q, axis=1)
        if prev_actions is not None and np.array_equal(greedy, prev_actions):
            return policy, chain.average_reward
        probs = np.zeros((s, a))
        probs[np.arange(s), greedy] = 1.0
        policy = TabularPolicy(probs)
        prev_actions = greedy
    raise RuntimeError(f"policy iteration did not settle within {cap} sweeps")


def analysis_residuals(chain: InducedChain, gamma: float) -> dict[str, float]:
    """Self-consistency residuals of one chain at one discount, for reports
    and tests.

    Includes the stationary balance residual, the three fundamental-matrix
    properties, the passage-time equations, the zero-mean property of the
    values, and the Kemeny row spread and trace gap.
    """
    g = _check_gamma(gamma)
    p, n = chain.p, chain.n
    d = chain.stationary.probs
    z = chain.fundamental(g)
    m = chain.passage
    e = np.ones(n)
    ee = np.ones((n, n))
    dg = np.diag(1.0 / d)
    rows = m @ d
    return {
        "stationary_balance": float(np.max(np.abs(d @ p - d))),
        "z_row_sums": float(np.max(np.abs(z @ e - e))),
        "z_stationary": float(np.max(np.abs(d @ z - d))),
        "z_resolvent": float(
            np.max(np.abs(z @ (np.eye(n) - g * p) - (np.eye(n) - g * np.outer(e, d))))
        ),
        "passage_bellman": float(np.max(np.abs(m - (p @ (m - dg) + ee)))),
        "value_zero_mean": float(abs(d @ chain.values(g)[0])),
        "kemeny_row_spread": float(rows.max() - rows.min()),
        "kemeny_trace_gap": float(abs(chain.kemeny - np.trace(chain.fundamental(1.0)))),
    }
