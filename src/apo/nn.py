"""Minimal tanh MLP function approximation with closed-form gradients.

Everything is float64 numpy.  A network is an `MlpParams`: one flat vector
of parameters and named views into it; hidden layers use tanh.  Three heads: a scalar value head, a
Gaussian policy head (state-dependent mean plus one learnable
state-independent log-std vector), and a categorical logits head.

There is one forward pass.  `mlp_forward` can keep the input of every affine
layer, and `backward` turns an upstream gradient of the network output into
the gradient of every tensor in closed form.  The log-probabilities of both
policy heads come from one function of the network output, which rollouts,
losses and diagnostics share, so a log-probability recorded during rollout
collection is the value the loss reproduces at the collection parameters.
`value_vjp` and `policy_log_prob_vjp` pair a forward pass with the
vector-Jacobian product that reuses its cached terms.

`backward` writes the gradient into one fresh vector laid out like the
parameters (`MlpParams.views` names its parts), so `clip_global_norm` is
one dot product and one scale; Adam's moments share the layout, and
`adam_step` updates them and the parameters in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apo.mdp import sample_index

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# MLP parameters, forward and backward passes


@dataclass
class MlpParams:
    """One network's architecture and parameters: ``tensors`` are named views
    into ``flat``, which starts at zero, in the order ``w{i}``, ``b{i}`` per
    affine layer, then the Gaussian head's ``log_std``."""

    head: str  # "value" | "gaussian" | "categorical"
    in_dim: int
    out_dim: int
    hidden: tuple[int, ...]
    flat: np.ndarray = field(init=False, repr=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shapes = {f"{kind}{i}": shape for i, (m, n) in enumerate(self.layer_sizes)
                  for kind, shape in (("w", (m, n)), ("b", (n,)))}
        if self.head == "gaussian":
            shapes["log_std"] = (self.out_dim,)
        starts = np.cumsum([0, *map(math.prod, shapes.values())]).tolist()
        self._layout = [(name, starts[i], starts[i + 1], shape)
                        for i, (name, shape) in enumerate(shapes.items())]
        self.flat = np.zeros(starts[-1])
        self.tensors = self.views(self.flat)

    def __deepcopy__(self, memo) -> "MlpParams":
        # a deep copy of the views would share no memory with the copied flat
        clone = MlpParams(self.head, self.in_dim, self.out_dim, self.hidden)
        clone.flat[...] = self.flat
        return clone

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like ``flat``."""
        return {name: flat[a:b].reshape(shape) for name, a, b, shape in self._layout}

    @property
    def layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.in_dim, *self.hidden, self.out_dim]
        return list(zip(dims[:-1], dims[1:]))


def init_mlp(
    rng: np.random.Generator,
    in_dim: int,
    out_dim: int,
    head: str,
    hidden: tuple[int, ...] = (64, 64),
) -> MlpParams:
    """Glorot-uniform weights, zero biases, zero initial log-std."""
    if head not in ("value", "gaussian", "categorical"):
        raise ValueError(f"unknown head {head!r}")
    if in_dim < 1 or out_dim < 1 or any(h < 1 for h in hidden):
        raise ValueError("all layer sizes must be positive")
    params = MlpParams(head=head, in_dim=in_dim, out_dim=out_dim, hidden=tuple(hidden))
    for i, (fan_in, fan_out) in enumerate(params.layer_sizes):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params.tensors[f"w{i}"][...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


def mlp_forward(params: MlpParams, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Network output for a batch of inputs, shape (B, out_dim).

    If ``acts`` is a list, the input of every affine layer (the batch, then
    each tanh output) is appended to it for `backward`.
    """
    h = np.asarray(x, dtype=np.float64)
    last = len(params.hidden)
    for i in range(last):
        if acts is not None:
            acts.append(h)
        h = np.tanh(h @ params.tensors[f"w{i}"] + params.tensors[f"b{i}"])
    if acts is not None:
        acts.append(h)
    return h @ params.tensors[f"w{last}"] + params.tensors[f"b{last}"]


def backward(
    params: MlpParams,
    acts: list,
    g_out: np.ndarray,
    log_std_grad: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of ``sum(g_out * out)`` with respect to ``params.flat``, as a
    fresh vector laid out like it.

    ``acts`` are the layer inputs `mlp_forward` kept for the same batch.
    ``log_std_grad`` is the Gaussian head's log-std gradient, which the
    network body does not see; it is passed through (zeros when omitted).
    """
    last = len(params.hidden)
    if len(acts) != last + 1 or g_out.shape != (acts[0].shape[0], params.out_dim):
        raise ValueError(
            f"backward needs {last + 1} layer inputs and an upstream gradient of shape "
            f"(batch, {params.out_dim}); got {len(acts)} and {g_out.shape}"
        )
    flat = np.empty_like(params.flat)
    grads = params.views(flat)
    g = g_out
    for i in range(last, -1, -1):
        h = acts[i]
        np.matmul(h.T, g, out=grads[f"w{i}"])
        np.sum(g, axis=0, out=grads[f"b{i}"])
        if i > 0:
            g = (g @ params.tensors[f"w{i}"].T) * (1.0 - np.square(h))
    if params.head == "gaussian":
        grads["log_std"][...] = 0.0 if log_std_grad is None else log_std_grad
    return flat


def value_forward(params: MlpParams, obs: np.ndarray) -> np.ndarray:
    """Scalar values for a batch of observations, shape (B,)."""
    if params.head != "value":
        raise ValueError(f"value_forward needs a value head, got {params.head!r}")
    return mlp_forward(params, obs)[:, 0]


def value_vjp(params: MlpParams, obs: np.ndarray):
    """Values for a batch plus their vector-Jacobian product.

    Returns ``(values, vjp)``; ``vjp(g)`` is the gradient of
    ``sum(g * values)`` with respect to ``params.flat``.
    """
    if params.head != "value":
        raise ValueError(f"value_vjp needs a value head, got {params.head!r}")
    acts: list = []
    out = mlp_forward(params, obs, acts)
    return out[:, 0], lambda g: backward(params, acts, g.reshape(out.shape))


def _softmax_terms(logits: np.ndarray):
    """Shifted exponentials, their row sums, and every action's log-probability."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = np.sum(e, axis=1)
    return e, s, logits - (np.log(s) + m[:, 0])[:, None]


def _log_prob(params: MlpParams, out: np.ndarray, actions: np.ndarray):
    """Log-probabilities from the network output (logits or Gaussian mean).

    Returns ``(logp, terms)``; ``terms`` are what `_log_prob_grad` reuses.
    """
    if params.head == "categorical":
        e, s, logp_all = _softmax_terms(out)
        rows = np.arange(out.shape[0])
        idx = np.asarray(actions, dtype=np.int64)
        return logp_all[rows, idx], (rows, idx, e, s)
    if params.head == "gaussian":
        log_std = params.tensors["log_std"]
        diff = np.asarray(actions, dtype=np.float64).reshape(out.shape) - out
        inv_std = np.exp(-log_std)
        z = diff * inv_std
        half_sq = (-0.5) * np.sum(np.square(z), axis=1)
        return half_sq - (np.sum(log_std) + 0.5 * params.out_dim * LOG_2PI), (diff, inv_std, z)
    raise ValueError(f"head {params.head!r} has no log-probabilities")


def _log_prob_grad(params: MlpParams, terms, g: np.ndarray):
    """Gradients of ``sum(g * logp)`` with respect to the network output and,
    for the Gaussian head, the log-std; ``None`` for a categorical head."""
    if params.head == "categorical":
        rows, idx, e, s = terms
        g_out = ((-g) / s)[:, None] * e
        g_out[rows, idx] += g
        return g_out, None
    diff, inv_std, z = terms
    g_z = (-g)[:, None] * z
    g_out = -(g_z * inv_std)
    g_log_std = np.full(inv_std.shape, (-g).sum(axis=0)) - ((g_z * diff).sum(axis=0) * inv_std)
    return g_out, g_log_std


def policy_log_prob(params: MlpParams, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Log-probabilities of a batch of actions, shape (B,)."""
    return _log_prob(params, mlp_forward(params, obs), actions)[0]


def policy_log_prob_vjp(params: MlpParams, obs: np.ndarray, actions: np.ndarray):
    """Log-probabilities of a batch of actions plus their vector-Jacobian product.

    Returns ``(logp, vjp)``; ``vjp(g)`` is the gradient of ``sum(g * logp)``
    with respect to ``params.flat``.
    """
    acts: list = []
    logp, terms = _log_prob(params, mlp_forward(params, obs, acts), actions)

    def vjp(g: np.ndarray) -> np.ndarray:
        g_out, g_log_std = _log_prob_grad(params, terms, g)
        return backward(params, acts, g_out, g_log_std)

    return logp, vjp


def categorical_rows(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative probabilities and log-probabilities of every action, row by
    row: what `sample_action` draws from and what it returns."""
    e, s, logp_all = _softmax_terms(logits)
    return np.cumsum(e / s[:, None], axis=1), logp_all


def sample_action(
    params: MlpParams, obs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample actions for a batch of observations; returns (actions, log_probs).

    One forward pass serves both: the log-probabilities come from the logits
    or mean that the draw used.
    """
    out = mlp_forward(params, obs)
    if params.head == "categorical":
        cum, _ = categorical_rows(out)
        u = rng.random(out.shape[0]).tolist()
        actions = np.array([sample_index(c, x) for c, x in zip(cum.tolist(), u)], dtype=np.int64)
    elif params.head == "gaussian":
        actions = out + np.exp(params.tensors["log_std"]) * rng.standard_normal(out.shape)
    else:
        raise ValueError(f"head {params.head!r} cannot sample actions")
    return actions, _log_prob(params, out, actions)[0]


def deterministic_action(params: MlpParams, obs: np.ndarray) -> np.ndarray:
    """Exploration-free actions: categorical argmax or the Gaussian mean."""
    if params.head == "categorical":
        return np.argmax(mlp_forward(params, obs), axis=1)
    if params.head == "gaussian":
        return mlp_forward(params, obs)
    raise ValueError(f"head {params.head!r} cannot act")


# ---------------------------------------------------------------------------
# Optimization


@dataclass
class AdamState:
    """Adam's moments, laid out like the network's ``flat``, and step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def clip_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale a flat gradient in place so that its 2-norm is at most max_norm."""
    total = math.sqrt(float(grads @ grads))
    if total > max_norm:
        grads *= max_norm / total
    return grads


def adam_step(
    params: MlpParams,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of ``params.flat`` and the moments, in
    place, from a flat gradient that the caller has checked is finite."""
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    np.add(beta1 * state.m, (1.0 - beta1) * grads, out=state.m)
    np.add(beta2 * state.v, (1.0 - beta2) * np.square(grads), out=state.v)
    params.flat -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(
    path: str | Path,
    params: dict[str, MlpParams],
    adam: dict[str, AdamState] | None = None,
) -> None:
    """Write named networks (and optimizer state) to one npz file.

    Tensors are stored flat under ``<net>/param/<name>`` as 64-bit floats
    (little-endian on disk); Adam moments live under ``<net>/adam/...``.
    """
    arrays: dict[str, np.ndarray] = {}
    for net_name, p in params.items():
        arrays[f"{net_name}/meta/head"] = np.array(p.head)
        arrays[f"{net_name}/meta/dims"] = np.array([p.in_dim, p.out_dim], dtype=np.int64)
        arrays[f"{net_name}/meta/hidden"] = np.array(p.hidden, dtype=np.int64)
        for name, tensor in p.tensors.items():
            arrays[f"{net_name}/param/{name}"] = tensor.astype("<f8")
        if adam and net_name in adam:
            st = adam[net_name]
            arrays[f"{net_name}/adam/t"] = np.array(st.t, dtype=np.int64)
            for moment, flat in (("m", st.m), ("v", st.v)):
                for name, tensor in p.views(flat).items():
                    arrays[f"{net_name}/adam/{moment}/{name}"] = tensor.astype("<f8")
    np.savez(path, **arrays)


def _read_flat(arrays: dict[str, np.ndarray], prefix: str, params: MlpParams) -> np.ndarray:
    """The vector laid out like ``params.flat`` from ``arrays[prefix + name]``."""
    return np.concatenate([arrays[prefix + name].ravel() for name in params.tensors],
                          dtype=np.float64)


def load_checkpoint(path: str | Path) -> tuple[dict[str, MlpParams], dict[str, AdamState]]:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    nets: dict[str, MlpParams] = {}
    adams: dict[str, AdamState] = {}
    for net_name in sorted({k.split("/", 1)[0] for k in arrays}):
        in_dim, out_dim = (int(x) for x in arrays[f"{net_name}/meta/dims"])
        net = MlpParams(
            head=str(arrays[f"{net_name}/meta/head"]), in_dim=in_dim, out_dim=out_dim,
            hidden=tuple(int(x) for x in arrays[f"{net_name}/meta/hidden"]),
        )
        net.flat[...] = _read_flat(arrays, f"{net_name}/param/", net)
        nets[net_name] = net
        if f"{net_name}/adam/t" in arrays:
            adams[net_name] = AdamState(
                m=_read_flat(arrays, f"{net_name}/adam/m/", net),
                v=_read_flat(arrays, f"{net_name}/adam/v/", net),
                t=int(arrays[f"{net_name}/adam/t"]),
            )
    return nets, adams
