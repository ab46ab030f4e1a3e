"""Probes the benchmark installs around the program's public functions.

Everything here patches names from outside the package and restores them
afterwards; no file of the program is touched.  A function is wrapped at
every name it is bound to inside ``apo`` (``apo.training.backward`` as well
as ``apo.nn.backward``), because each caller looks it up under its own
module's name.  Methods are wrapped on their class.

Two probes:

* `IterationClock` runs in every mode.  It stamps the start of each
  training iteration (one ``collect_rollout`` call per iteration, in both
  ``train`` and ``value_drift_experiment``) with the process's CPU time,
  and keeps what those two entry functions return, so checks can read it.
  It costs one clock read and one list append per iteration.
* `Tracer` runs only in the traced run.  It records one span per call of
  every target in `TARGETS`, keeps the spans in memory, and derives counts,
  busy time and self time from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute path inside the module)
TARGETS = [
    ("envs.step", "apo.envs", "TabularEnv.step"),
    ("envs.step", "apo.envs", "PendulumEnv.step"),
    ("nn.mlp_forward", "apo.nn", "mlp_forward"),
    ("nn.sample_action", "apo.nn", "sample_action"),
    ("nn.value_forward", "apo.nn", "value_forward"),
    ("nn.policy_log_prob", "apo.nn", "policy_log_prob"),
    ("nn.deterministic_action", "apo.nn", "deterministic_action"),
    ("nn.backward", "apo.nn", "backward"),
    ("nn.clip_global_norm", "apo.nn", "clip_global_norm"),
    ("nn.adam_step", "apo.nn", "adam_step"),
    ("nn.save_checkpoint", "apo.nn", "save_checkpoint"),
    ("training.collect_rollout", "apo.training", "collect_rollout"),
    ("training.TabularActor.act", "apo.training", "TabularActor.act"),
    ("training.compute_residuals_and_advantages", "apo.training",
     "compute_residuals_and_advantages"),
    ("training.policy_loss", "apo.training", "policy_loss"),
    ("training.value_loss", "apo.training", "value_loss"),
    ("training.evaluate", "apo.training", "evaluate"),
    ("training.TrainLog.write_csv", "apo.training", "TrainLog.write_csv"),
    ("mdp.random_ergodic_mdp", "apo.mdp", "random_ergodic_mdp"),
    ("mdp.induced_transition", "apo.mdp", "induced_transition"),
    ("mdp.policy_distance", "apo.mdp", "policy_distance"),
    ("analysis.stationary_distribution", "apo.analysis", "stationary_distribution"),
    ("analysis.discounted_state_distribution", "apo.analysis",
     "discounted_state_distribution"),
    ("analysis.fundamental_matrix", "apo.analysis", "fundamental_matrix"),
    ("analysis.value_functions", "apo.analysis", "value_functions"),
    ("analysis.mean_first_passage", "apo.analysis", "mean_first_passage"),
    ("analysis.kemeny_constant", "apo.analysis", "kemeny_constant"),
    ("bounds.surrogate_objective", "apo.bounds", "surrogate_objective"),
    ("bounds.check_performance_bound", "apo.bounds", "check_performance_bound"),
    ("bounds.check_distribution_identity", "apo.bounds", "check_distribution_identity"),
    ("numpy.linalg.solve", "numpy.linalg", "solve"),
]

ROLLOUT = "training.collect_rollout"


class Patches:
    """Replaces a function at every name that binds it; undoes it in reverse."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        self._set(owner, attr, wrapper)
        if outer:
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not (name == "apo" or name.startswith("apo.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class IterationClock:
    """Start time of every training iteration, grouped by entry-point call."""

    def __init__(self):
        self.segments: list[list[float]] = []
        self.returns: list[object] = []
        self._patches = Patches()

    def install(self) -> None:
        self._patches.replace("apo.training", "collect_rollout", self._stamp)
        self._patches.replace("apo.cli", "train", self._keep)
        self._patches.replace("apo.cli", "value_drift_experiment", self._keep)

    def uninstall(self) -> None:
        self._patches.restore()

    def _stamp(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if self.segments:
                self.segments[-1].append(time.process_time())
            return fn(*args, **kwargs)

        return stamped

    def _keep(self, fn):
        @functools.wraps(fn)
        def kept(*args, **kwargs):
            self.segments.append([])
            result = fn(*args, **kwargs)
            self.returns.append(result)
            return result

        return kept

    def take(self) -> tuple[list[float], list[object]]:
        """Iteration durations (the last iteration of each call has no
        successor and is left out) and the returned logs; then reset."""
        durations = [b - a for seg in self.segments for a, b in zip(seg, seg[1:])]
        returns = self.returns
        self.segments, self.returns = [], []
        return durations, returns


class Tracer:
    """One span per call of every target while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def install(self) -> None:
        for span, module, path in TARGETS:
            self._patches.replace(module, path, functools.partial(self._wrap, span))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, span: str, fn):
        name_id = self._ids.setdefault(span, len(self._ids))
        if name_id == len(self.names):
            self.names.append(span)
        names, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds; plus the time
        covered by outermost spans and the calls made inside rollouts."""
        n_names = len(self.names)
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)

        # A span is inside a rollout when any ancestor is a rollout span;
        # parents always precede their children in the span list.
        rollout_id = self._ids.get(ROLLOUT, -1)
        inside = np.zeros(len(dur), dtype=bool)
        name_list, parent_list = name.tolist(), parent.tolist()
        for i, p in enumerate(parent_list):
            if p >= 0:
                inside[i] = inside[p] or name_list[p] == rollout_id
        in_rollout = np.bincount(name[inside], minlength=n_names)

        out = {}
        for i, span in enumerate(self.names):
            out[span] = {
                "calls": int(calls[i]),
                "s": float(busy[i]),
                "self_s": float(self_s[i]),
                "calls_in_rollout": int(in_rollout[i]),
            }
        return {"spans": out, "outermost_s": float(dur[~nested].sum())}

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
