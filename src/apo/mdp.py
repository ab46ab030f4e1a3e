"""Finite MDPs, tabular policies, and the plumbing around them.

Provides the container types (`Mdp`, `TabularPolicy`, `StateDistribution`),
validation, policy-induced chain/reward construction, an ergodicity check by
reachability, random instance generators, policy distance measures, and a
JSON file format for MDPs and policies.

Rewards are expected immediate rewards `r(s, a)`; any dependence on the next
state is assumed to be folded into the expectation already.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Tolerances used across the package.  Probability rows must be exact to
# PROB_ATOL, distributions to DIST_ATOL; edges smaller than REACH_EPS do not
# count for reachability.
PROB_ATOL = 1e-12
DIST_ATOL = 1e-10
REACH_EPS = 1e-12

# Floor applied to generated transition rows before renormalization, so that
# every generated MDP is ergodic under every policy.
GENERATOR_FLOOR = 1e-3

MAX_STATES = 64


class NotErgodicError(RuntimeError):
    """The induced chain has no unique stationary distribution."""


class MdpFileError(ValueError):
    """An MDP or policy file failed to parse or is inconsistent."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Mdp:
    """A finite MDP.

    Attributes
    ----------
    transition : ndarray, shape (S, A, S)
        ``transition[s, a, s']`` is the probability of moving to ``s'``.
    reward : ndarray, shape (S, A)
        Expected immediate reward ``r(s, a)``.
    init_dist : ndarray, shape (S,)
        Initial state distribution.

    Arrays are converted to read-only float64 at construction, so instances
    are safe to share between threads or worker processes.  Shape errors
    raise immediately; probability errors are reported by `validate_mdp`.
    """

    transition: np.ndarray
    reward: np.ndarray
    init_dist: np.ndarray

    def __post_init__(self) -> None:
        t = _readonly(self.transition)
        r = _readonly(self.reward)
        d0 = _readonly(self.init_dist)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {t.shape}")
        s, a, _ = t.shape
        if r.shape != (s, a):
            raise ValueError(f"reward shape {r.shape} does not match transition {t.shape}")
        if d0.shape != (s,):
            raise ValueError(f"init_dist shape {d0.shape} does not match n_states {s}")
        if s < 1 or a < 1:
            raise ValueError("need at least one state and one action")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "init_dist", d0)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class TabularPolicy:
    """Stochastic tabular policy; ``probs[s, a]`` is the action probability."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = _readonly(self.probs)
        if p.ndim != 2:
            raise ValueError(f"policy probs must be 2-D (S, A), got shape {p.shape}")
        rows = p.sum(axis=1)
        if not np.max(np.abs(rows - 1.0)) <= PROB_ATOL:
            raise ValueError("policy rows must sum to 1")
        if p.min() < -PROB_ATOL:
            raise ValueError("policy probabilities must be nonnegative")
        object.__setattr__(self, "probs", p)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class StateDistribution:
    """Probability vector over states.

    Entries in ``[-1e-12, 0)`` coming from linear solves are clamped to zero;
    anything more negative, or a total mass off by more than ``DIST_ATOL``,
    raises.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64).copy()
        if p.ndim != 1:
            raise ValueError(f"state distribution must be 1-D, got shape {p.shape}")
        if p.min() < -PROB_ATOL:
            raise ValueError(f"state distribution has negative mass {p.min():.3e}")
        np.clip(p, 0.0, None, out=p)
        total = p.sum()
        if not abs(total - 1.0) <= DIST_ATOL:
            raise ValueError(f"state distribution sums to {total!r}, not 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: list[Violation]


def validate_mdp(mdp: Mdp) -> ValidationResult:
    """Check probability rows, ranges, and reward finiteness.

    Returns all violations as data rather than raising, so callers can
    report every problem at once.  Kinds: ``row-sum``, ``prob-range``,
    ``init-sum``, ``init-range``, ``reward-finite``.  A NaN fails every
    check that reads it.
    """
    violations: list[Violation] = []
    t, r, d0 = mdp.transition, mdp.reward, mdp.init_dist
    row_sums = t.sum(axis=2)
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            err = abs(row_sums[s, a] - 1.0)
            if not err <= PROB_ATOL:
                violations.append(Violation("row-sum", (s, a), float(err)))
            row = t[s, a]
            if not (row.min() >= -PROB_ATOL and row.max() <= 1.0 + PROB_ATOL):
                excess = max(-float(row.min()), float(row.max()) - 1.0)
                violations.append(Violation("prob-range", (s, a), excess))
            if not np.isfinite(r[s, a]):
                violations.append(Violation("reward-finite", (s, a), float("inf")))
    err0 = abs(d0.sum() - 1.0)
    if not err0 <= DIST_ATOL:
        violations.append(Violation("init-sum", (), float(err0)))
    if not (d0.min() >= -PROB_ATOL and d0.max() <= 1.0 + PROB_ATOL):
        excess = max(-float(d0.min()), float(d0.max()) - 1.0)
        violations.append(Violation("init-range", (), excess))
    return ValidationResult(ok=not violations, violations=violations)


def _check_compatible(mdp: Mdp, policy: TabularPolicy) -> None:
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states} states, {mdp.n_actions} actions)"
        )


def induced_transition(mdp: Mdp, policy: TabularPolicy) -> np.ndarray:
    """State-to-state transition matrix of the chain induced by ``policy``."""
    _check_compatible(mdp, policy)
    return np.einsum("sa,saj->sj", policy.probs, mdp.transition)


def induced_reward(mdp: Mdp, policy: TabularPolicy) -> np.ndarray:
    """Per-state expected reward under ``policy``."""
    _check_compatible(mdp, policy)
    return np.einsum("sa,sa->s", policy.probs, mdp.reward)


def is_ergodic(mdp: Mdp, policy: TabularPolicy) -> tuple[bool, tuple[int, int] | None]:
    """Reachability check on the induced chain.

    Returns ``(True, None)`` when every state reaches every other state, else
    ``(False, (source, target))`` for the first unreachable pair (see
    `first_unreachable`).  Periodic but irreducible chains count as ergodic
    here; what matters downstream is a unique stationary distribution.
    """
    pair = first_unreachable(induced_transition(mdp, policy))
    return pair is None, pair


def first_unreachable(p: np.ndarray) -> tuple[int, int] | None:
    """The first ``(source, target)`` pair of states of the chain with
    transition matrix ``p`` where the source cannot reach the target, or
    None.  Edges with probability below ``REACH_EPS`` are ignored."""
    n = p.shape[0]
    reach = (p > REACH_EPS) | np.eye(n, dtype=bool)
    # Boolean closure; doubles path length each round.
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    if reach.all():
        return None
    src, tgt = np.argwhere(~reach)[0]
    return int(src), int(tgt)


def random_ergodic_mdp(
    rng: np.random.Generator,
    n_states: int,
    n_actions: int,
    reward_range: tuple[float, float] = (0.0, 1.0),
) -> Mdp:
    """Draw an MDP whose every policy induces an ergodic chain.

    Transition rows are Dirichlet(1, ..., 1) draws floored at ``1e-3`` and
    renormalized, so every entry is at least ``1e-3 / (1 + 1e-3 * S)`` and
    every induced chain is strictly positive.  Rewards are uniform in
    ``reward_range``; the initial distribution is uniform.
    """
    if not (2 <= n_states <= MAX_STATES):
        raise ValueError(f"n_states must be in [2, {MAX_STATES}], got {n_states}")
    if n_actions < 1:
        raise ValueError("n_actions must be positive")
    lo, hi = reward_range
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid reward range {reward_range}")
    t = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    t = np.maximum(t, GENERATOR_FLOOR)
    t /= t.sum(axis=2, keepdims=True)
    r = rng.uniform(lo, hi, size=(n_states, n_actions))
    d0 = np.full(n_states, 1.0 / n_states)
    return Mdp(transition=t, reward=r, init_dist=d0)


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int) -> TabularPolicy:
    """Dirichlet(1, ..., 1) policy rows."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("state and action counts must be positive")
    return TabularPolicy(rng.dirichlet(np.ones(n_actions), size=n_states))


def sample_index(cum: list[float], u: float) -> int:
    """Inverse-CDF draw: the first index whose cumulative probability exceeds ``u``.

    ``cum`` is a list, which `bisect` searches far faster than numpy can.
    Rounding can leave the last entry of ``cum`` just below one, so a draw at
    or above it is clamped to the first index whose cumulative value equals
    the last: the last index of nonzero probability.
    """
    i = bisect_right(cum, u)
    return i if i < len(cum) else bisect_left(cum, cum[-1])


class PolicyDistance(NamedTuple):
    tv: np.ndarray
    expected_tv: float
    expected_kl: float


def policy_distance(
    p1: TabularPolicy, p2: TabularPolicy, weights: StateDistribution
) -> PolicyDistance:
    """Per-state total variation, and weighted TV / KL between two policies.

    ``expected_kl`` is the weighted mean of ``KL(p1(.|s) || p2(.|s))``; it is
    ``+inf`` as soon as some state puts p1-mass on an action with zero
    p2-mass.
    """
    if p1.probs.shape != p2.probs.shape:
        raise ValueError("policies have mismatched shapes")
    if len(weights) != p1.n_states:
        raise ValueError("weight vector does not match the state count")
    a, b = p1.probs, p2.probs
    tv = 0.5 * np.abs(a - b).sum(axis=1)
    expected_tv = float(weights.probs @ tv)
    support = a > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(support, a * np.log(a / b), 0.0).sum(axis=1)
    kl[(support & (b == 0.0)).any(axis=1)] = np.inf
    expected_kl = float(weights.probs @ kl) if np.all(np.isfinite(kl)) else float("inf")
    return PolicyDistance(tv=tv, expected_tv=expected_tv, expected_kl=expected_kl)


# ---------------------------------------------------------------------------
# File formats.  MDPs and policies are stored as JSON; floats survive a
# round trip exactly because json emits shortest-repr decimal literals.


def write_mdp(mdp: Mdp, path: str | Path) -> None:
    payload = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "init_dist": mdp.init_dist.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_mdp(path: str | Path) -> Mdp:
    """Read an MDP from JSON, naming the offending key on any mismatch."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MdpFileError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise MdpFileError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("n_states", "n_actions", "transition", "reward", "init_dist"):
        if key not in payload:
            raise MdpFileError(f"{path}: missing key '{key}'")
    s, a = payload["n_states"], payload["n_actions"]
    try:
        t = np.asarray(payload["transition"], dtype=np.float64)
        r = np.asarray(payload["reward"], dtype=np.float64)
        d0 = np.asarray(payload["init_dist"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MdpFileError(f"{path}: ragged or non-numeric array ({exc})") from exc
    if t.shape != (s, a, s):
        raise MdpFileError(f"{path}: key 'transition' has shape {t.shape}, expected {(s, a, s)}")
    if r.shape != (s, a):
        raise MdpFileError(f"{path}: key 'reward' has shape {r.shape}, expected {(s, a)}")
    if d0.shape != (s,):
        raise MdpFileError(f"{path}: key 'init_dist' has shape {d0.shape}, expected {(s,)}")
    return Mdp(transition=t, reward=r, init_dist=d0)


def write_policy(policy: TabularPolicy, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"probs": policy.probs.tolist()}, indent=2) + "\n")


def read_policy(path: str | Path) -> TabularPolicy:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MdpFileError(f"{path}: cannot read file ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise MdpFileError(f"{path}: not valid JSON ({exc})") from exc
    if "probs" not in payload:
        raise MdpFileError(f"{path}: missing key 'probs'")
    try:
        probs = np.asarray(payload["probs"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MdpFileError(f"{path}: ragged or non-numeric 'probs' ({exc})") from exc
    try:
        return TabularPolicy(probs)
    except ValueError as exc:
        raise MdpFileError(f"{path}: {exc}") from exc
