"""Span tracing of drpack's layers, installed from outside the package.

`Tracer.install()` replaces the entry points of each layer (module
attributes, class methods and the two scipy solvers drpack calls) with thin
wrappers that record one span per call: name, start, end, parent span and
instance id. Spans live in compact in-memory arrays and are written out once,
by `save`. `Tracer.summary` derives per-layer call counts, busy time and self
time (span time minus the time covered by its child spans) from them.

Nothing in drpack is edited: `uninstall()` puts every original back, so one
process can alternate traced and untraced instances.
"""

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.optimize

import drpack
import drpack.baselines
import drpack.engine
import drpack.harness
from drpack import (Box, LinearObjective, MultilinearObjective, PenaltyModel,
                    QuadraticObjective, Simplex, ZeroPenalty)

INSTANCE = "bench.instance"
SLSQP = "objectives.slsqp"
ALPHA = "objectives.estimate_alpha"

# (owner, attribute, span name). The pipeline calls the first six through the
# `drpack` package, so wrapping them there marks the top-level steps; the rest
# are the bindings drpack's own modules call.
_FUNCTIONS = (
    (drpack, "generate", "generators.generate"),
    (drpack, "auto_penalties", "harness.auto_penalties"),
    (drpack, "run_online", "engine.run_online"),
    (drpack, "evaluate_trace", "engine.evaluate_trace"),
    (drpack, "offline_fw", "baselines.offline_fw"),
    (drpack, "bound_report", "harness.bound_report"),
    (drpack.harness, "compute_UL", "penalties.compute_UL"),
    (drpack.harness, "finite_k_slack", "harness.finite_k_slack"),
    (drpack.harness, "estimate_smoothness", "objectives.estimate_smoothness"),
    (drpack.engine, "prefix_grad_coord", "objectives.prefix_grad_coord"),
    (drpack.baselines, "polytope_linmax", "linops.polytope_linmax"),
    (scipy.optimize, "linprog", "linops.lp"),
)
# (classes, methods, layer): span name is "<layer>.<method>" for every class.
_METHODS = (
    ((QuadraticObjective, LinearObjective, MultilinearObjective),
     ("value", "grad", "grad_coord", "hessian", "value_many", "grad_many"),
     "objectives"),
    ((Box, Simplex), ("linear_argmax",), "feasible"),
    ((PenaltyModel, ZeroPenalty), ("derivative",), "penalties"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("H")
        self._parent = array("i")
        self._inst = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._saved = []
        self.instance = -1
        self.paused = False
        self.slsqp_attempted = 0
        self.slsqp_useful = 0
        self._best_ratio = math.inf

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._id(name)
        names, parents, insts = self._name, self._parent, self._inst
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            insts.append(self.instance)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def _untraced(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap_estimate_alpha(self, fn):
        traced = self.wrap(ALPHA, fn)

        def estimate_alpha(*args, **kwargs):
            self._best_ratio = None
            return traced(*args, **kwargs)

        return estimate_alpha

    def _wrap_minimize(self, fn):
        """SLSQP span plus a count of refinements that lowered the minimum.

        The first refinement starts from the best sampled point, so its
        starting ratio is the sampled minimum. A result counts as useful when
        it passes the acceptance test `estimate_alpha` applies (solver
        success, clipped to the box, budget within 1e-9, value above the
        floor) and lowers the best ratio found so far in that call.
        """
        traced = self.wrap(SLSQP, fn)

        def minimize(fun, x0, *args, **kwargs):
            if self.paused:
                return fn(fun, x0, *args, **kwargs)
            if self._best_ratio is None:
                with self._untraced():
                    self._best_ratio = float(fun(np.asarray(x0, dtype=float))[0])
            res = traced(fun, x0, *args, **kwargs)
            self.slsqp_attempted += 1
            if res.success:
                lo, hi = np.asarray(kwargs["bounds"], dtype=float).T
                u = np.clip(res.x, lo, hi)
                with self._untraced():
                    budget_slack = kwargs["constraints"][0]["fun"](u)
                    ratio = float(fun(u)[0]) if budget_slack >= -1e-9 else math.inf
                if ratio < self._best_ratio:
                    self._best_ratio = ratio
                    self.slsqp_useful += 1
            return res

        return minimize

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _FUNCTIONS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for classes, methods, layer in _METHODS:
            for cls in classes:
                for attr in methods:
                    self._patch(cls, attr, self.wrap(f"{layer}.{attr}", vars(cls)[attr]))
        self._patch(drpack.harness, "estimate_alpha",
                    self._wrap_estimate_alpha(drpack.harness.estimate_alpha))
        self._patch(scipy.optimize, "minimize", self._wrap_minimize(scipy.optimize.minimize))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _arrays(self):
        return (np.array(self._name, dtype=np.int32), np.array(self._parent),
                np.array(self._inst), np.array(self._start), np.array(self._end))

    def summary(self, instances) -> dict:
        """Per span name: calls, total seconds and self seconds, plus counts
        derived from the span tree (micro-steps, closed-form linmax calls),
        summed over the spans of the given instance ids.
        """
        name, parent, inst, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        keep = np.isin(inst, instances)
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        own = np.bincount(name[keep], weights=self_time[keep], minlength=k)
        spans = {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                 for i, n in enumerate(self.names)}

        def ident(span):
            return self._ids.get(span, -1)  # -1 matches no span

        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        microsteps = (keep & (name == ident("feasible.linear_argmax"))
                      & (parent_name == ident("engine.run_online")))
        linmax = np.flatnonzero(keep & (name == ident("linops.polytope_linmax")))
        lp_parents = parent[name == ident("linops.lp")]
        return {
            "spans": spans,
            "microsteps": int(microsteps.sum()),
            "closed_form_calls": int((~np.isin(linmax, lp_parents)).sum()),
        }

    def save(self, path):
        name, parent, inst, start, end = self._arrays()
        np.savez(path, name=name, parent=parent, instance=inst, start=start, end=end,
                 names=np.array(self.names))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_metrics(summary: dict, n_instances: int, slsqp_useful_ratio: float) -> dict:
    """The per-layer metrics, each per traced instance."""
    spans = summary["spans"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, field):
        return spans.get(name, empty)[field] / n_instances

    out = {
        "engine.run_online_s": get("engine.run_online", "s"),
        "engine.self_s": get("engine.run_online", "self_s"),
        "engine.microsteps": summary["microsteps"] / n_instances,
        "engine.evaluate_trace_s": get("engine.evaluate_trace", "s"),
    }
    for method in ("grad_coord", "value", "grad"):
        out[f"objectives.{method}_calls"] = get(f"objectives.{method}", "calls")
        out[f"objectives.{method}_s"] = get(f"objectives.{method}", "s")
    out.update({
        "objectives.hessian_calls": get("objectives.hessian", "calls"),
        "objectives.estimate_smoothness_s": get("objectives.estimate_smoothness", "s"),
        "objectives.estimate_alpha_calls": get(ALPHA, "calls"),
        "objectives.estimate_alpha_s": get(ALPHA, "s"),
        "objectives.slsqp_calls": get(SLSQP, "calls"),
        "objectives.slsqp_useful_ratio": slsqp_useful_ratio,
        "feasible.linear_argmax_calls": get("feasible.linear_argmax", "calls"),
        "feasible.linear_argmax_s": get("feasible.linear_argmax", "s"),
        "penalties.derivative_calls": get("penalties.derivative", "calls"),
        "penalties.derivative_s": get("penalties.derivative", "s"),
        "penalties.compute_UL_s": get("penalties.compute_UL", "s"),
        "linops.polytope_linmax_calls": get("linops.polytope_linmax", "calls"),
        "linops.polytope_linmax_s": get("linops.polytope_linmax", "s"),
        "linops.lp_solves": get("linops.lp", "calls"),
        "linops.closed_form_calls": summary["closed_form_calls"] / n_instances,
        "baselines.offline_fw_s": get("baselines.offline_fw", "s"),
        "baselines.offline_fw_self_s": get("baselines.offline_fw", "self_s"),
        "harness.auto_penalties_s": get("harness.auto_penalties", "s"),
        "harness.bound_report_s": get("harness.bound_report", "s"),
        "harness.finite_k_slack_s": get("harness.finite_k_slack", "s"),
        "generators.generate_s": get("generators.generate", "s"),
    })
    return out
