"""Average-reward PPO (with an average-value constraint) and a PPO baseline.

One iteration of the average-reward path: collect a fixed-length rollout
from the continuing environment (never reset between iterations), fold the
batch mean reward into the running average-reward estimate ``eta_hat`` and
the batch mean value into the running average-value estimate ``b``, form
differential TD residuals ``r - eta_hat + V(s') - V(s)`` from
collection-time values, accumulate them into advantages with decay
``lam``, then run clipped-ratio policy epochs followed by value epochs
against the frozen targets ``r - eta_hat + V(s') - nu * b``.  The ``nu``
term is the average-value constraint: without it the value mean is free to
random-walk because nothing at discount one anchors it.

The baseline path is the same loop with discounted targets
``r + g V(s')``, residual decay ``g * lam``, and no running estimates.
Both paths share one parameterized code path, so substituting discounted
targets and ``nu = 0`` into the average-reward path *is* the baseline.
The value-drift experiment (the ``nu`` ablation) runs through `train`'s
own loop with a fixed behavior policy in place of the policy network: no
policy step, and one evaluation, after the last iteration.

`collect_rollout` and `evaluate` take the acting policy, a network or a
`TabularPolicy`.  On a `TabularEnv` either acts through one per-state table,
`TabularActor`, built per call and filled on each state's first visit.

Randomness: a master seed spawns four child streams via
``np.random.SeedSequence(seed).spawn(4)`` in the order (environment,
initialization, sampling, evaluation).  The environment stream is reserved
for whoever constructs the env (the CLI uses it); `train` consumes the
other three.  Same seed, same everything, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from apo.envs import TabularEnv
from apo.mdp import TabularPolicy, sample_index
from apo.nn import (
    AdamState,
    MlpParams,
    adam_step,
    categorical_rows,
    clip_global_norm,
    deterministic_action,
    init_adam_state,
    init_mlp,
    mlp_forward,
    policy_log_prob,
    policy_log_prob_vjp,
    sample_action,
    value_forward,
    value_vjp,
)

ENV_STREAM, INIT_STREAM, SAMPLE_STREAM, EVAL_STREAM = range(4)


class NonFiniteLossError(RuntimeError):
    """Training diverged; carries the trainer state at the point of failure."""

    def __init__(self, message: str, state: "TrainerState"):
        super().__init__(message)
        self.state = state


_INT_FIELDS = ("iterations", "rollout_len", "epochs", "minibatch", "seed",
               "eval_every", "eval_horizon", "eval_episodes")
_REAL_FIELDS = ("alpha", "beta", "lam", "nu", "gamma", "clip_eps", "grad_clip")


def _is_a(kind, x) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass
class TrainConfig:
    """Hyperparameters; defaults are the small-environment settings."""

    algo: str = "apo"  # "apo" | "ppo"
    alpha: float = 0.1  # moving-average rate for eta_hat and b
    beta: float = 3e-4  # Adam learning rate
    lam: float = 0.9  # residual accumulation decay
    nu: float = 0.3  # average-value constraint coefficient
    gamma: float = 0.99  # discount (baseline path only)
    clip_eps: float = 0.2
    iterations: int = 100
    rollout_len: int = 2048
    epochs: int = 10
    minibatch: int = 256
    grad_clip: float = 10.0
    hidden: tuple[int, ...] = (64, 64)
    seed: int = 0
    eval_every: int = 10
    eval_horizon: int = 1000
    eval_episodes: int = 10

    def validate(self) -> None:
        wrong = [f"{n} must be an integer, got {getattr(self, n)!r}"
                 for n in _INT_FIELDS if not _is_a(numbers.Integral, getattr(self, n))]
        wrong += [f"{n} must be a real number, got {getattr(self, n)!r}"
                  for n in _REAL_FIELDS if not _is_a(numbers.Real, getattr(self, n))]
        if not (isinstance(self.hidden, (tuple, list))
                and all(_is_a(numbers.Integral, h) for h in self.hidden)):
            wrong.append(f"hidden must be a list of integers, got {self.hidden!r}")
        if wrong:
            raise ValueError("; ".join(wrong))
        problems = []
        if self.algo not in ("apo", "ppo"):
            problems.append(f"algo must be 'apo' or 'ppo', got {self.algo!r}")
        # every range below is written so that NaN fails it
        if not (0.0 < self.alpha <= 1.0):
            problems.append(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 < self.beta < math.inf):
            problems.append(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 <= self.lam <= 1.0):
            problems.append(f"lam must be in [0, 1], got {self.lam}")
        if not (0.0 <= self.nu < math.inf):
            problems.append(f"nu must be nonnegative and finite, got {self.nu}")
        if not (0.0 < self.gamma < 1.0):
            problems.append(f"gamma must be in (0, 1), got {self.gamma}")
        if not (0.0 < self.clip_eps < 1.0):
            problems.append(f"clip_eps must be in (0, 1), got {self.clip_eps}")
        for name in ("iterations", "rollout_len", "epochs", "minibatch",
                     "eval_horizon", "eval_episodes"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be positive")
        for name in ("seed", "eval_every"):  # eval_every 0 turns evaluation off
            if getattr(self, name) < 0:
                problems.append(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.minibatch > self.rollout_len:
            problems.append("minibatch cannot exceed rollout_len")
        if not (self.grad_clip > 0.0):
            problems.append(f"grad_clip must be positive, got {self.grad_clip}")
        if problems:
            raise ValueError("; ".join(problems))

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cls(), **payload)
        if isinstance(cfg.hidden, list):
            cfg.hidden = tuple(cfg.hidden)
        return cfg


@dataclass
class TrainerState:
    """What training changes; ``policy`` and ``policy_adam`` are None when a
    fixed behavior policy acts (the value-drift experiment), as no policy
    network is built or trained."""

    policy: MlpParams | None
    value: MlpParams
    policy_adam: AdamState | None
    value_adam: AdamState
    eta_hat: float = 0.0
    b: float = 0.0
    iteration: int = 0


@dataclass
class RolloutBatch:
    """One rollout plus everything derived from it for the updates.

    ``value`` and ``next_value`` are collection-time critic outputs; the
    residuals, advantages, and the value loss's targets are all built from
    these, so later critic updates cannot leak into the targets.
    """

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    old_log_prob: np.ndarray
    value: np.ndarray
    next_value: np.ndarray
    td_residual: np.ndarray | None = None
    advantage: np.ndarray | None = None


class TabularActor(dict):
    """Per-state table of a fixed policy on a `TabularEnv`: state -> (cumulative
    probabilities, log-probabilities, greedy action), each row built on the
    state's first read.  `act` takes the state index.  An action of
    probability zero is never drawn.

    ``policy`` is a `TabularPolicy` or a categorical `MlpParams`, whose
    parameters must not change while the table is in use.  A network's row
    comes from the (1, S) forward on the state's one-hot row, as the
    per-step path runs it, so draws and log-probabilities match that path
    bit for bit (a batched forward differs in the last ulp).  `greedy` is
    the most probable action, read from the probabilities or the logits:
    log-probabilities of a near-tie can round equal.
    """

    def __init__(self, policy: TabularPolicy | MlpParams):
        self.policy = policy

    def __missing__(self, s: int):
        if isinstance(self.policy, TabularPolicy):
            probs = self.policy.probs[s]
            with np.errstate(divide="ignore"):
                logp = np.log(probs).tolist()
            row = (np.cumsum(probs).tolist(), logp, int(np.argmax(probs)))
        else:
            logits = mlp_forward(self.policy, np.eye(1, self.policy.in_dim, s))
            cum, logp = categorical_rows(logits)
            row = (cum[0].tolist(), logp[0].tolist(), int(np.argmax(logits)))
        self[s] = row
        return row

    def act(self, s: int, rng: np.random.Generator):
        cum, logp, _ = self[s]
        a = sample_index(cum, rng.random())
        return a, logp[a]

    def greedy(self, s: int) -> int:
        return self[s][2]


def collect_rollout(env, policy, value_params: MlpParams, n_steps: int, rng) -> RolloutBatch:
    """Step the env ``n_steps`` times from its current state (no reset) with
    ``policy``, a network or a `TabularPolicy`, acting.

    On a `TabularEnv` it acts on ``env.state`` through a `TabularActor`
    built for this call, since its parameters are frozen while it runs;
    elsewhere each step is one `sample_action` on the observation.  Values
    for all visited states (including the state after the last step) come
    from one batched critic pass at the current parameters, so
    ``next_value[n]`` is exactly ``value[n + 1]`` for all but the last entry.
    """
    tabular = isinstance(env, TabularEnv)
    if tabular:
        act = TabularActor(policy).act
    else:
        def act(obs, rng):
            actions, logp = sample_action(policy, obs[None], rng)
            return actions[0], float(logp[0])
    obs = env.observation()
    all_obs, actions, rewards, old_logp = [obs], [], [], []
    for _ in range(n_steps):
        action, logp = act(env.state if tabular else obs, rng)
        result = env.step(action)
        obs = result.next_observation
        all_obs.append(obs)
        actions.append(action)
        rewards.append(result.reward)
        old_logp.append(logp)
    all_obs = np.array(all_obs, dtype=np.float64)
    values = value_forward(value_params, all_obs)
    return RolloutBatch(
        obs=all_obs[:-1].copy(),
        actions=np.array(actions, dtype=np.int64 if tabular else np.float64),
        rewards=np.array(rewards, dtype=np.float64),
        old_log_prob=np.array(old_logp, dtype=np.float64),
        value=values[:-1].copy(),
        next_value=values[1:].copy(),
    )


def update_eta_hat(state: TrainerState, batch: RolloutBatch, alpha: float) -> TrainerState:
    state.eta_hat = (1.0 - alpha) * state.eta_hat + alpha * float(batch.rewards.mean())
    return state


def update_b(state: TrainerState, batch: RolloutBatch, alpha: float) -> TrainerState:
    state.b = (1.0 - alpha) * state.b + alpha * float(batch.value.mean())
    return state


def compute_residuals_and_advantages(
    batch: RolloutBatch, eta_hat: float, lam: float, discount: float = 1.0
) -> RolloutBatch:
    """Fill ``td_residual`` and ``advantage``.

    Residuals are ``r - eta_hat + discount * V(s') - V(s)``; advantages
    accumulate them backward with decay ``discount * lam``, truncated at the
    batch boundary (the final residual already bootstraps through the
    observed successor value).
    """
    delta = batch.rewards - eta_hat + discount * batch.next_value - batch.value
    decay = discount * lam
    adv = np.empty_like(delta)
    acc = 0.0
    for n in range(delta.shape[0] - 1, -1, -1):
        acc = delta[n] + decay * acc
        adv[n] = acc
    batch.td_residual = delta
    batch.advantage = adv
    return batch


def _value_targets(
    batch: RolloutBatch, eta_hat: float, b: float, nu: float, discount: float
) -> np.ndarray:
    """Frozen regression targets ``r - eta_hat + discount * V(s') - nu * b``."""
    return batch.rewards - eta_hat + discount * batch.next_value - nu * b


def _half_squared_error(v: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """``mean(0.5 * (v - targets)^2)`` and its gradient with respect to ``v``."""
    err = v - targets
    return float(np.mean(0.5 * np.square(err))), (1.0 / err.size) * err


def _clipped_surrogate(
    logp: np.ndarray, old_logp: np.ndarray, adv: np.ndarray, clip_eps: float
) -> tuple[float, np.ndarray]:
    """Negated mean clipped-ratio surrogate and its gradient with respect to ``logp``.

    Where the two branches of the minimum tie, the gradient follows the
    unclipped one; the clipped branch passes gradient only inside the clip
    range.
    """
    lo, hi = 1.0 - clip_eps, 1.0 + clip_eps
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, lo, hi) * adv
    take_unclipped = unclipped <= clipped
    loss = -np.mean(np.minimum(unclipped, clipped))
    g = -1.0 / logp.size
    inside = (ratio >= lo) & (ratio <= hi)
    g_ratio = (g * take_unclipped) * adv + ((g * ~take_unclipped) * adv) * inside
    # where no gradient passes, a ratio that overflowed to inf must give 0, not 0 * inf
    return float(loss), g_ratio * np.where(take_unclipped | inside, ratio, 0.0)


def value_loss(
    value_params: MlpParams,
    batch: RolloutBatch,
    eta_hat: float,
    b: float,
    nu: float,
    discount: float = 1.0,
    indices: np.ndarray | None = None,
):
    """Half squared error against the frozen targets; returns (loss, grads).

    Targets are rebuilt from collection-time batch arrays and the scalars
    passed in, so repeated calls across epochs see identical targets and the
    gradient flows only through the current critic output.
    """
    targets = _value_targets(batch, eta_hat, b, nu, discount)
    idx = slice(None) if indices is None else indices
    v, vjp = value_vjp(value_params, batch.obs[idx])
    loss, g = _half_squared_error(v, targets[idx])
    return loss, vjp(g)


def policy_loss(
    policy_params: MlpParams,
    batch: RolloutBatch,
    clip_eps: float,
    indices: np.ndarray | None = None,
):
    """Negated clipped-ratio surrogate for minimization; returns (loss, grads).

    At the collection parameters the ratio is one everywhere and the loss
    value is minus the mean advantage.
    """
    if batch.advantage is None:
        raise ValueError("advantages not computed; call compute_residuals_and_advantages")
    idx = slice(None) if indices is None else indices
    logp, vjp = policy_log_prob_vjp(policy_params, batch.obs[idx], batch.actions[idx])
    loss, g = _clipped_surrogate(
        logp, batch.old_log_prob[idx], batch.advantage[idx], clip_eps
    )
    return loss, vjp(g)


def _algo_terms(config: TrainConfig) -> tuple[float, bool, float]:
    """(bootstrap discount, whether eta/b run, nu) for the configured path."""
    if config.algo == "ppo":
        return config.gamma, False, 0.0
    return 1.0, True, config.nu


def _check_finite(loss_value: float, what: str, state: TrainerState) -> None:
    if not math.isfinite(loss_value):
        raise NonFiniteLossError(
            f"{what} became {loss_value!r} at iteration {state.iteration} "
            f"(eta_hat={state.eta_hat!r}, b={state.b!r})",
            state,
        )


def _sgd_epochs(
    build_loss,
    params: MlpParams,
    adam: AdamState,
    config: TrainConfig,
    rng: np.random.Generator,
    what: str,
    state: TrainerState,
) -> None:
    """``config.epochs`` passes of Adam over shuffled minibatches of the
    ``config.rollout_len`` samples of one batch; a non-finite loss or
    gradient raises before anything is clipped or updated."""
    for _ in range(config.epochs):
        perm = rng.permutation(config.rollout_len)
        for start in range(0, config.rollout_len, config.minibatch):
            idx = perm[start : start + config.minibatch]
            loss, grads = build_loss(idx)
            _check_finite(loss, what, state)
            if not np.isfinite(grads).all():  # name the first tensor holding one
                for name, g in params.views(grads).items():
                    first = float(g.flat[np.isfinite(g).argmin()])
                    _check_finite(first, f"{what} gradient for tensor {name!r}", state)
            clip_global_norm(grads, config.grad_clip)
            adam_step(params, grads, adam, config.beta)


@dataclass
class LogRow:
    iteration: int
    env_steps: int
    eta_hat: float
    b: float
    mean_value: float
    # the logged full-batch losses and KL: nan when a fixed behavior policy acts
    policy_loss: float
    value_loss: float
    approx_kl: float
    eval_avg_reward: float  # nan on iterations without an evaluation


LOG_COLUMNS = [f.name for f in fields(LogRow)]


@dataclass
class TrainLog:
    config: TrainConfig
    rows: list[LogRow] = field(default_factory=list)
    state: TrainerState | None = None

    def write_csv(self, path: str | Path) -> None:
        lines = [
            f"# algo={self.config.algo} seed={self.config.seed} "
            "streams=SeedSequence(seed).spawn(4)->(env,init,sample,eval)",
            ",".join(LOG_COLUMNS),
        ]
        for row in self.rows:
            lines.append(
                ",".join(
                    str(getattr(row, c)) if c in ("iteration", "env_steps")
                    else repr(float(getattr(row, c)))
                    for c in LOG_COLUMNS
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")


def evaluate(env, policy: MlpParams | TabularPolicy, horizon: int, episodes: int, rng) -> float:
    """Mean reward per step over exploration-free fixed-horizon episodes.

    Each episode resets the given env with the evaluation rng and follows
    the most probable action or the Gaussian mean.  On a `TabularEnv` it is
    looked up per state with `TabularActor.greedy`.
    """
    greedy = TabularActor(policy).greedy if isinstance(env, TabularEnv) else None
    per_episode = np.empty(episodes)
    for ep in range(episodes):
        obs = env.reset(rng)
        total = 0.0
        for _ in range(horizon):
            if greedy is not None:
                action = greedy(env.state)
            else:
                action = deterministic_action(policy, obs[None])[0]
            result = env.step(action)
            total += result.reward
            obs = result.next_observation
        per_episode[ep] = total / horizon
    return float(per_episode.mean())


def init_trainer(env, config: TrainConfig, init_rng: np.random.Generator) -> TrainerState:
    obs_dim = env.obs_dim
    if isinstance(env, TabularEnv):
        policy = init_mlp(init_rng, obs_dim, env.n_actions, "categorical", config.hidden)
    else:
        policy = init_mlp(init_rng, obs_dim, env.action_dim, "gaussian", config.hidden)
    value = init_mlp(init_rng, obs_dim, 1, "value", config.hidden)
    return TrainerState(
        policy=policy,
        value=value,
        policy_adam=init_adam_state(policy),
        value_adam=init_adam_state(value),
    )


def train(env, config: TrainConfig) -> TrainLog:
    """Run the configured algorithm on a continuing env; returns the log.

    The env is reset once up front and then runs as a single chain across
    all iterations.  Evaluations run on an independently spawned copy of the
    env, so they never disturb that chain.
    """
    return _run(env, config, None)


def _run(env, config: TrainConfig, behavior: TabularPolicy | None) -> TrainLog:
    """`train`'s loop.  A fixed ``behavior`` policy acts in place of the
    policy network, which is then neither built nor trained: the critic is
    the only network drawn from the init stream, and each iteration skips
    the residual pass, the policy epochs and the logged full-batch losses."""
    config.validate()
    streams = np.random.SeedSequence(config.seed).spawn(4)
    init_rng = np.random.default_rng(streams[INIT_STREAM])
    sample_rng = np.random.default_rng(streams[SAMPLE_STREAM])
    eval_rng = np.random.default_rng(streams[EVAL_STREAM])

    if behavior is None:
        state = init_trainer(env, config, init_rng)
    else:
        value = init_mlp(init_rng, env.obs_dim, 1, "value", config.hidden)
        state = TrainerState(policy=None, value=value, policy_adam=None,
                             value_adam=init_adam_state(value))
    acting = state.policy if behavior is None else behavior  # a network updates in place
    discount, track_averages, nu = _algo_terms(config)
    eval_env = env.spawn(np.random.default_rng(streams[EVAL_STREAM].spawn(1)[0]))
    log = TrainLog(config=config, state=state)

    env.reset()
    for k in range(1, config.iterations + 1):
        state.iteration = k
        batch = collect_rollout(env, acting, state.value, config.rollout_len, sample_rng)
        if track_averages:  # otherwise both stay 0.0
            update_eta_hat(state, batch, config.alpha)
            update_b(state, batch, config.alpha)
        eta, b = state.eta_hat, state.b

        if behavior is None:
            compute_residuals_and_advantages(batch, eta, config.lam, discount)
            _sgd_epochs(
                lambda idx: policy_loss(state.policy, batch, config.clip_eps, idx),
                state.policy,
                state.policy_adam,
                config,
                sample_rng,
                "policy loss",
                state,
            )
        _sgd_epochs(
            lambda idx: value_loss(state.value, batch, eta, b, nu, discount, idx),
            state.value,
            state.value_adam,
            config,
            sample_rng,
            "value loss",
            state,
        )

        pl = vl = approx_kl = math.nan
        if behavior is None:
            # one forward per network over the whole batch serves the logged
            # losses and the approximate KL
            new_logp = policy_log_prob(state.policy, batch.obs, batch.actions)
            pl, _ = _clipped_surrogate(
                new_logp, batch.old_log_prob, batch.advantage, config.clip_eps
            )
            vl, _ = _half_squared_error(
                value_forward(state.value, batch.obs), _value_targets(batch, eta, b, nu, discount)
            )
            _check_finite(pl, "policy loss", state)
            _check_finite(vl, "value loss", state)
            approx_kl = float(np.mean(batch.old_log_prob - new_logp))

        eval_reward = float("nan")
        if config.eval_every > 0 and (k % config.eval_every == 0 or k == config.iterations):
            eval_reward = evaluate(eval_env, acting, config.eval_horizon,
                                   config.eval_episodes, eval_rng)
        log.rows.append(
            LogRow(
                iteration=k,
                env_steps=k * config.rollout_len,
                eta_hat=state.eta_hat,
                b=state.b,
                mean_value=float(batch.value.mean()),
                policy_loss=pl,
                value_loss=vl,
                approx_kl=approx_kl,
                eval_avg_reward=eval_reward,
            )
        )
    return log


# ---------------------------------------------------------------------------
# Value-drift experiment (the nu ablation)


@dataclass
class DriftResult:
    nu: float
    seed: int
    b_series: np.ndarray
    eta_series: np.ndarray
    final_eval_reward: float

    def mean_abs_b(self, last: int) -> float:
        return float(np.abs(self.b_series[-last:]).mean())


def value_drift_experiment(
    env,
    behavior: TabularPolicy,
    nu: float,
    iterations: int = 500,
    rollout_len: int = 256,
    minibatch: int = 256,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
    eval_horizon: int = 1000,
    eval_episodes: int = 10,
) -> DriftResult:
    """Value-only training under a fixed behavior policy.

    Isolates the average-value drift: the policy never updates, only the
    critic chases the differential targets.  With ``nu = 0`` nothing anchors
    the critic mean, so the running average-value estimate ``b`` wanders;
    larger ``nu`` pulls it back toward zero.  It runs `train`'s loop with
    ``behavior`` fixed and one evaluation, after the last iteration; every
    other hyperparameter is `TrainConfig`'s default.  Returns the logged
    ``b`` and ``eta_hat`` series plus that deterministic (argmax) evaluation
    of the behavior policy.
    """
    config = TrainConfig(
        nu=nu, iterations=iterations, rollout_len=rollout_len,
        minibatch=min(minibatch, rollout_len), hidden=tuple(hidden), seed=seed,
        eval_every=iterations, eval_horizon=eval_horizon, eval_episodes=eval_episodes,
    )
    rows = _run(env, config, behavior).rows
    return DriftResult(
        nu=nu,
        seed=seed,
        b_series=np.array([row.b for row in rows]),
        eta_series=np.array([row.eta_hat for row in rows]),
        final_eval_reward=rows[-1].eval_avg_reward,
    )
