"""Native continuing environments.

All environments here are continuing: `step` never signals termination, and
training treats a rollout as one long chain.  Each environment owns an rng
handed to it at construction; `spawn` produces an independent copy (fresh
state, caller-supplied rng) so evaluation never perturbs a training env.
A `StepResult` holds the next observation and the reward; a `TabularEnv`
exposes its state as ``env.state`` and keeps its cumulative transition rows
and rewards as Python lists, so a step is one `sample_index` draw.

`make_two_loop` builds the standard criterion-separation MDP: a short
self-loop at state 0 pays 0.22 per step, while the long loop 0 -> 1 -> 2 ->
3 -> 0 pays 1 every fourth step, i.e. 0.25 per step on average.  The short
loop is worth 0.22 / (1 - g) when discounted and the long loop
g^3 / (1 - g^4); at g = 0.9 that is 2.2 vs about 2.12, so a discounted
learner prefers the short loop, while at g = 0.99 (22 vs about 24.6) and
under the average-reward criterion the long loop wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apo.mdp import Mdp, TabularPolicy, read_mdp, sample_index

TWO_LOOP_SHORT = 0
TWO_LOOP_LONG = 1


@dataclass(slots=True)
class StepResult:
    """One transition; continuing setting, so there is no terminal flag."""

    next_observation: np.ndarray
    reward: float


class TabularEnv:
    """Finite MDP exposed through one-hot observations and integer actions."""

    discrete = True

    def __init__(self, mdp: Mdp, rng: np.random.Generator):
        self.mdp = mdp
        self.rng = rng
        self.obs_dim = mdp.n_states
        self.n_actions = mdp.n_actions
        self._eye = np.eye(mdp.n_states)
        self._cum = np.cumsum(mdp.transition, axis=2).tolist()
        self._cum_init = np.cumsum(mdp.init_dist).tolist()
        self._reward = mdp.reward.tolist()
        self.state = 0
        self.reset()

    def spawn(self, rng: np.random.Generator) -> "TabularEnv":
        return TabularEnv(self.mdp, rng)

    def observation(self) -> np.ndarray:
        return self._eye[self.state]

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        r = self.rng if rng is None else rng
        self.state = sample_index(self._cum_init, r.random())
        return self.observation()

    def step(self, action) -> StepResult:
        a = int(action)
        if not (0 <= a < self.n_actions):
            raise ValueError(f"action {action!r} outside [0, {self.n_actions})")
        s = self.state
        self.state = sample_index(self._cum[s][a], self.rng.random())
        return StepResult(self._eye[self.state], self._reward[s][a])


class PendulumEnv:
    """Torque-limited pendulum swing-up, continuing, classic constants.

    State is (angle, angular velocity) with angle measured from upright and
    not wrapped; observations are (cos, sin, velocity).  The quadratic cost
    uses the angle wrapped to (-pi, pi], so reward is 0 only at the upright
    rest point and negative elsewhere.  Torque is clamped to [-2, 2],
    velocity to [-8, 8].
    """

    discrete = False
    action_dim = 1
    obs_dim = 3
    max_torque = 2.0
    max_speed = 8.0
    dt = 0.05
    g = 10.0
    m = 1.0
    length = 1.0

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.theta = 0.0
        self.theta_dot = 0.0
        self.reset()

    def spawn(self, rng: np.random.Generator) -> "PendulumEnv":
        return PendulumEnv(rng)

    @staticmethod
    def wrap_angle(theta: float) -> float:
        """Wrap to (-pi, pi]."""
        return math.pi - (math.pi - theta) % (2.0 * math.pi)

    def observation(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta), self.theta_dot])

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        r = self.rng if rng is None else rng
        self.theta = float(r.uniform(-math.pi, math.pi))
        self.theta_dot = float(r.uniform(-1.0, 1.0))
        return self.observation()

    def step(self, action) -> StepResult:
        u = float(np.asarray(action).reshape(-1)[0])
        if not math.isfinite(u):
            raise ValueError(f"non-finite action {action!r}")
        u = min(max(u, -self.max_torque), self.max_torque)
        angle = self.wrap_angle(self.theta)
        cost = angle**2 + 0.1 * self.theta_dot**2 + 0.001 * u**2
        accel = (
            3.0 * self.g / (2.0 * self.length) * math.sin(self.theta)
            + 3.0 * u / (self.m * self.length**2)
        )
        self.theta_dot = min(max(self.theta_dot + accel * self.dt, -self.max_speed), self.max_speed)
        self.theta = self.theta + self.theta_dot * self.dt
        return StepResult(self.observation(), -cost)


def make_two_state() -> Mdp:
    """Two states; action 0 stays put, action 1 swaps; reward 1 in state 1."""
    transition = np.zeros((2, 2, 2))
    for s in range(2):
        transition[s, 0, s] = 1.0
        transition[s, 1, 1 - s] = 1.0
    reward = np.array([[0.0, 0.0], [1.0, 1.0]])
    return Mdp(transition=transition, reward=reward, init_dist=np.array([0.5, 0.5]))


def make_two_loop() -> Mdp:
    """Short-loop vs long-loop MDP; see the module docstring for the margins."""
    transition = np.zeros((4, 2, 4))
    transition[0, TWO_LOOP_SHORT, 0] = 1.0
    transition[0, TWO_LOOP_LONG, 1] = 1.0
    for s in (1, 2, 3):
        nxt = (s + 1) % 4
        transition[s, 0, nxt] = 1.0
        transition[s, 1, nxt] = 1.0
    reward = np.zeros((4, 2))
    reward[0, TWO_LOOP_SHORT] = 0.22
    reward[3, :] = 1.0
    return Mdp(transition=transition, reward=reward, init_dist=np.full(4, 0.25))


def switch_policy(p_swap_0: float, p_swap_1: float) -> TabularPolicy:
    """Two-state policy given per-state probabilities of the swap action."""
    return TabularPolicy(
        np.array([[1.0 - p_swap_0, p_swap_0], [1.0 - p_swap_1, p_swap_1]])
    )


def make_env(name: str, rng: np.random.Generator):
    """Build an environment from a CLI-style name.

    Accepts ``twostate``, ``twoloop``, ``pendulum``, or ``file:<path>`` for
    a tabular environment read from an MDP JSON file.
    """
    key = name.lower()
    if key == "twostate":
        return TabularEnv(make_two_state(), rng)
    if key == "twoloop":
        return TabularEnv(make_two_loop(), rng)
    if key == "pendulum":
        return PendulumEnv(rng)
    if key.startswith("file:"):
        return TabularEnv(read_mdp(Path(name[len("file:"):])), rng)
    raise ValueError(f"unknown environment {name!r}")
