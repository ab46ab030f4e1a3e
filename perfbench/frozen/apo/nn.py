"""Minimal MLP function approximation with reverse-mode gradients.

Everything is float64 numpy.  Networks are dicts of named tensors wrapped in
`MlpParams`; hidden layers use tanh.  Three heads: a scalar value head, a
Gaussian policy head (state-dependent mean plus one learnable
state-independent log-std vector), and a categorical logits head.

Losses are built as explicit graphs of `Node` objects over a fixed primitive
vocabulary (affine pieces, tanh, log, exp, square, minimum, clip, sums,
mean, reshape, gather).  `backward` walks the graph in reverse topological
order and accumulates exact vector-Jacobian products; `minimum` and `clip`
propagate the sub-gradient of the selected branch.  Any node whose op is
not in the vocabulary makes `backward` fail loudly.

The plain (graph-free) forward helpers below compute the same arithmetic in
the same order as their graph twins, so a log-probability recorded during
rollout collection matches the value the loss graph reproduces at the
collection parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Autodiff graph


class Node:
    """One value in a loss graph; holds the forward result and its parents."""

    __slots__ = ("value", "op", "inputs", "aux")

    def __init__(self, value, op: str, inputs: tuple = (), aux=None):
        self.value = value
        self.op = op
        self.inputs = inputs
        self.aux = aux


def leaf(name: str, value: np.ndarray) -> Node:
    return Node(np.asarray(value, dtype=np.float64), "leaf", aux=name)


def const(value) -> Node:
    return Node(np.asarray(value, dtype=np.float64), "const")


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else const(x)


def matmul(a: Node, b: Node) -> Node:
    return Node(a.value @ b.value, "matmul", (a, b))


def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    return Node(a.value + b.value, "add", (a, b))


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    return Node(a.value - b.value, "sub", (a, b))


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    return Node(a.value * b.value, "mul", (a, b))


def neg(a: Node) -> Node:
    return Node(-a.value, "neg", (a,))


def tanh(a: Node) -> Node:
    return Node(np.tanh(a.value), "tanh", (a,))


def exp(a: Node) -> Node:
    return Node(np.exp(a.value), "exp", (a,))


def log(a: Node) -> Node:
    return Node(np.log(a.value), "log", (a,))


def square(a: Node) -> Node:
    return Node(np.square(a.value), "square", (a,))


def minimum(a: Node, b: Node) -> Node:
    return Node(np.minimum(a.value, b.value), "minimum", (a, b))


def clip(a: Node, lo: float, hi: float) -> Node:
    return Node(np.clip(a.value, lo, hi), "clip", (a,), aux=(lo, hi))


def reduce_sum(a: Node, axis: int | None = None) -> Node:
    return Node(np.sum(a.value, axis=axis), "sum", (a,), aux=axis)


def mean(a: Node) -> Node:
    return Node(np.mean(a.value), "mean", (a,))


def reshape(a: Node, shape: tuple) -> Node:
    return Node(a.value.reshape(shape), "reshape", (a,))


def select(a: Node, indices: np.ndarray) -> Node:
    """Per-row gather: out[n] = a[n, indices[n]]."""
    idx = np.asarray(indices, dtype=np.int64)
    return Node(a.value[np.arange(idx.shape[0]), idx], "select", (a,), aux=idx)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _vjp_matmul(node, g):
    a, b = node.inputs
    return (g @ b.value.T, a.value.T @ g)


def _vjp_add(node, g):
    a, b = node.inputs
    return (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape))


def _vjp_sub(node, g):
    a, b = node.inputs
    return (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape))


def _vjp_mul(node, g):
    a, b = node.inputs
    return (
        _unbroadcast(g * b.value, a.value.shape),
        _unbroadcast(g * a.value, b.value.shape),
    )


def _vjp_neg(node, g):
    return (-g,)


def _vjp_tanh(node, g):
    return (g * (1.0 - np.square(node.value)),)


def _vjp_exp(node, g):
    return (g * node.value,)


def _vjp_log(node, g):
    return (g / node.inputs[0].value,)


def _vjp_square(node, g):
    return (g * 2.0 * node.inputs[0].value,)


def _vjp_minimum(node, g):
    a, b = node.inputs
    take_a = a.value <= b.value
    return (g * take_a, g * ~take_a)


def _vjp_clip(node, g):
    lo, hi = node.aux
    x = node.inputs[0].value
    inside = (x >= lo) & (x <= hi)
    return (g * inside,)


def _vjp_sum(node, g):
    x = node.inputs[0].value
    axis = node.aux
    if axis is None:
        return (np.broadcast_to(g, x.shape).copy(),)
    return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)


def _vjp_mean(node, g):
    x = node.inputs[0].value
    return (np.broadcast_to(g / x.size, x.shape).copy(),)


def _vjp_reshape(node, g):
    return (g.reshape(node.inputs[0].value.shape),)


def _vjp_select(node, g):
    x = node.inputs[0].value
    out = np.zeros_like(x)
    np.add.at(out, (np.arange(node.aux.shape[0]), node.aux), g)
    return (out,)


_VJPS = {
    "matmul": _vjp_matmul,
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "neg": _vjp_neg,
    "tanh": _vjp_tanh,
    "exp": _vjp_exp,
    "log": _vjp_log,
    "square": _vjp_square,
    "minimum": _vjp_minimum,
    "clip": _vjp_clip,
    "sum": _vjp_sum,
    "mean": _vjp_mean,
    "reshape": _vjp_reshape,
    "select": _vjp_select,
}


def backward(root: Node, leaves: dict[str, Node]) -> dict[str, np.ndarray]:
    """Gradients of a scalar ``root`` with respect to every named leaf.

    Leaves that do not feed the root get zero gradients of their shape.
    Raises on a non-scalar root or on any op outside the vocabulary.
    """
    if np.ndim(root.value) != 0 and np.size(root.value) != 1:
        raise ValueError(f"backward needs a scalar root, got shape {np.shape(root.value)}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.inputs:
            stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(np.asarray(root.value))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.op in ("leaf", "const"):
            continue
        vjp = _VJPS.get(node.op)
        if vjp is None:
            raise ValueError(f"unsupported primitive {node.op!r} in loss graph")
        for parent, pg in zip(node.inputs, vjp(node, g)):
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    out = {}
    for name, node in leaves.items():
        g = grads.get(id(node))
        out[name] = np.zeros_like(node.value) if g is None else np.asarray(g)
    return out


# ---------------------------------------------------------------------------
# MLP parameters and forward passes


@dataclass
class MlpParams:
    """Named tensors of one network plus its architecture."""

    head: str  # "value" | "gaussian" | "categorical"
    in_dim: int
    out_dim: int
    hidden: tuple[int, ...]
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

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
        params.tensors[f"w{i}"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        params.tensors[f"b{i}"] = np.zeros(fan_out)
    if head == "gaussian":
        params.tensors["log_std"] = np.zeros(out_dim)
    return params


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    last = len(params.hidden)
    for i in range(last):
        h = np.tanh(h @ params.tensors[f"w{i}"] + params.tensors[f"b{i}"])
    return h @ params.tensors[f"w{last}"] + params.tensors[f"b{last}"]


def mlp_graph(params: MlpParams, x: np.ndarray) -> tuple[Node, dict[str, Node]]:
    """Graph twin of `mlp_forward`; returns the output node and all leaves."""
    leaves = {name: leaf(name, value) for name, value in params.tensors.items()}
    h: Node = const(np.asarray(x, dtype=np.float64))
    last = len(params.hidden)
    for i in range(last):
        h = tanh(add(matmul(h, leaves[f"w{i}"]), leaves[f"b{i}"]))
    out = add(matmul(h, leaves[f"w{last}"]), leaves[f"b{last}"])
    return out, leaves


def value_forward(params: MlpParams, obs: np.ndarray) -> np.ndarray:
    """Scalar values for a batch of observations, shape (B,)."""
    if params.head != "value":
        raise ValueError(f"value_forward needs a value head, got {params.head!r}")
    return mlp_forward(params, obs)[:, 0]


def value_graph(params: MlpParams, obs: np.ndarray) -> tuple[Node, dict[str, Node]]:
    out, leaves = mlp_graph(params, obs)
    return reshape(out, (obs.shape[0],)), leaves


def policy_forward(params: MlpParams, obs: np.ndarray):
    """Distribution parameters for a batch of observations.

    Categorical heads return the (B, actions) probability rows; Gaussian
    heads return ``(mean, std)`` with the state-independent std shared
    across the batch.
    """
    if params.head == "categorical":
        logits = mlp_forward(params, obs)
        m = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - m)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs
    if params.head == "gaussian":
        return mlp_forward(params, obs), np.exp(params.tensors["log_std"])
    raise ValueError(f"head {params.head!r} is not a policy head")


def policy_log_prob(params: MlpParams, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Log-probabilities of a batch of actions, shape (B,)."""
    if params.head == "categorical":
        logits = mlp_forward(params, obs)
        m = logits.max(axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(logits - m), axis=1)) + m[:, 0]
        idx = np.asarray(actions, dtype=np.int64)
        return logits[np.arange(idx.shape[0]), idx] - lse
    if params.head == "gaussian":
        mu = mlp_forward(params, obs)
        log_std = params.tensors["log_std"]
        acts = np.asarray(actions, dtype=np.float64).reshape(mu.shape)
        z = (acts - mu) * np.exp(-log_std)
        half_sq = (-0.5) * np.sum(np.square(z), axis=1)
        return half_sq - (np.sum(log_std) + 0.5 * params.out_dim * LOG_2PI)
    raise ValueError(f"head {params.head!r} has no log-probabilities")


def policy_log_prob_graph(
    params: MlpParams, obs: np.ndarray, actions: np.ndarray
) -> tuple[Node, dict[str, Node]]:
    """Graph twin of `policy_log_prob`, same arithmetic order."""
    if params.head == "categorical":
        logits, leaves = mlp_graph(params, obs)
        m = logits.value.max(axis=1, keepdims=True)
        lse = add(log(reduce_sum(exp(sub(logits, const(m))), axis=1)), const(m[:, 0]))
        logp = sub(select(logits, np.asarray(actions, dtype=np.int64)), lse)
        return logp, leaves
    if params.head == "gaussian":
        mu, leaves = mlp_graph(params, obs)
        log_std = leaves["log_std"]
        acts = np.asarray(actions, dtype=np.float64).reshape(mu.value.shape)
        z = mul(sub(const(acts), mu), exp(neg(log_std)))
        half_sq = mul(-0.5, reduce_sum(square(z), axis=1))
        offset = add(reduce_sum(log_std), const(0.5 * params.out_dim * LOG_2PI))
        return sub(half_sq, offset), leaves
    raise ValueError(f"head {params.head!r} has no log-probabilities")


def sample_action(
    params: MlpParams, obs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample actions for a batch of observations; returns (actions, log_probs)."""
    if params.head == "categorical":
        logits = mlp_forward(params, obs)
        m = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - m)
        probs /= probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(obs.shape[0])
        actions = np.argmax(cum > u[:, None], axis=1)
        return actions, policy_log_prob(params, obs, actions)
    if params.head == "gaussian":
        mu = mlp_forward(params, obs)
        std = np.exp(params.tensors["log_std"])
        actions = mu + std * rng.standard_normal(mu.shape)
        return actions, policy_log_prob(params, obs, actions)
    raise ValueError(f"head {params.head!r} cannot sample actions")


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
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: MlpParams) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.tensors.items()},
        v={k: np.zeros_like(v) for k, v in params.tensors.items()},
    )


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients in place so the joint 2-norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


def adam_step(
    params: MlpParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for tensor {name!r}")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for name, p in params.tensors.items():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * np.square(g)
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
            for name, tensor in st.m.items():
                arrays[f"{net_name}/adam/m/{name}"] = tensor.astype("<f8")
            for name, tensor in st.v.items():
                arrays[f"{net_name}/adam/v/{name}"] = tensor.astype("<f8")
    np.savez(path, **arrays)


def load_checkpoint(path: str | Path) -> tuple[dict[str, MlpParams], dict[str, AdamState]]:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    nets: dict[str, MlpParams] = {}
    adams: dict[str, AdamState] = {}
    net_names = sorted({k.split("/", 1)[0] for k in arrays})
    for net_name in net_names:
        head = str(arrays[f"{net_name}/meta/head"])
        in_dim, out_dim = (int(x) for x in arrays[f"{net_name}/meta/dims"])
        hidden = tuple(int(x) for x in arrays[f"{net_name}/meta/hidden"])
        tensors = {
            k.split("/param/", 1)[1]: np.asarray(v, dtype=np.float64)
            for k, v in arrays.items()
            if k.startswith(f"{net_name}/param/")
        }
        nets[net_name] = MlpParams(
            head=head, in_dim=in_dim, out_dim=out_dim, hidden=hidden, tensors=tensors
        )
        if f"{net_name}/adam/t" in arrays:
            adams[net_name] = AdamState(
                m={
                    k.split("/adam/m/", 1)[1]: np.asarray(v, dtype=np.float64)
                    for k, v in arrays.items()
                    if k.startswith(f"{net_name}/adam/m/")
                },
                v={
                    k.split("/adam/v/", 1)[1]: np.asarray(v, dtype=np.float64)
                    for k, v in arrays.items()
                    if k.startswith(f"{net_name}/adam/v/")
                },
                t=int(arrays[f"{net_name}/adam/t"]),
            )
    return nets, adams
