import numpy as np
import pytest

from apo import nn, training
from apo.envs import make_two_loop, make_two_state, switch_policy
from apo.mdp import TabularPolicy


@pytest.fixture
def forward_rows(monkeypatch):
    """A fresh table of distinct-pass probes, and the row count of every
    `mlp_forward` call made from `apo.nn` or `apo.training`."""
    rows = []
    forward = nn.mlp_forward

    def counted(params, x, acts=None):
        rows.append(len(x))
        return forward(params, x, acts)

    monkeypatch.setattr(nn, "_DISTINCT_OK", {})
    monkeypatch.setattr(nn, "mlp_forward", counted)
    monkeypatch.setattr(training, "mlp_forward", counted)
    return rows


@pytest.fixture
def two_state():
    return make_two_state()


@pytest.fixture
def two_loop():
    return make_two_loop()


@pytest.fixture
def uniform_policy():
    return switch_policy(0.5, 0.5)


@pytest.fixture
def swap_policy():
    return switch_policy(1.0, 1.0)


def deterministic_policy(actions, n_actions):
    probs = np.zeros((len(actions), n_actions))
    probs[np.arange(len(actions)), actions] = 1.0
    return TabularPolicy(probs)


class TopRng:
    """Stub generator whose every uniform draw is the largest double below one."""

    def random(self, size=None):
        u = np.nextafter(1.0, 0.0)
        return u if size is None else np.full(size, u)


def trailing_zero_row() -> np.ndarray:
    """A probability row whose cumulative sum stops at the largest double
    below one, ``[0.395..., 0.988..., 1 - 2**-53, 1 - 2**-53]``, so that
    `TopRng`'s draw lies past every entry, the last of which has probability
    zero."""
    return np.append(np.random.default_rng(0).dirichlet(np.ones(3)), 0.0)


def finite_difference_max_rel_err(build_loss, params, h=1e-5):
    """Worst per-tensor relative gap between closed-form and central-difference gradients.

    ``build_loss`` must return ``(loss, grads)`` computed from the current
    tensors of ``params`` on every call, with ``grads`` a vector in the
    layout of ``params.flat``; the relative error is measured per named
    tensor against the larger of the two gradient norms.
    """
    grads = params.views(build_loss()[1])
    worst = 0.0
    for name, tensor in params.tensors.items():
        fd = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = float(build_loss()[0])
            tensor[idx] = orig - h
            down = float(build_loss()[0])
            tensor[idx] = orig
            fd[idx] = (up - down) / (2.0 * h)
        scale = max(float(np.max(np.abs(grads[name]))), float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(fd - grads[name]))) / scale)
    return worst
