"""Spans and folded counters around coolsched's public functions.

`Tracer.install` rebinds each function under the name its caller resolves
(for example `coolsched.controllers.classify`, which controllers.py imported
from qfr), so a traced run executes the same CLI path as an untraced one.
Calls made once or a few times per stage become spans (name, start, end,
parent). Calls made once or more per simulated hour (controller actions,
classify, quantize, the thermal step, the chain lookup) are folded into a
call count plus summed and self time, so the trace stays small and cheap.
Spans and folded calls both charge their duration to the enclosing frame,
which gives every span its self time.
"""

import os
import time
from collections import defaultdict

from coolsched import cli, controllers, ingest, mdp, qfr, regimes, sim
from coolsched.config import RunConfig

_clock = time.perf_counter


def _hook_rows(tr, result, args):
    tr.counters["ingest.rows_parsed"] += len(result)


def _hook_fit_obs(tr, result, args):
    tr.counters["qfr.fit_obs"] = len(args[0])


def _hook_chain(tr, result, args):
    hours = [h for h, _ in args[0]]
    tr.counters["regimes.transitions"] += sum(
        1 for a, b in zip(hours, hours[1:]) if b - a == 1)
    tr.counters["regimes.buckets"] = len(result.matrices)


def _hook_lp(tr, result, args):
    n, big_l, m, big_a = result.dims
    tr.counters.update({
        "problem.n": n, "problem.L": big_l, "problem.M": m, "problem.A": big_a,
        "mdp.lp_vars": result.n_variables, "mdp.lp_rows": result.n_constraints,
        "mdp.lp_nnz": result.a_eq.nnz})


def _hook_policy_bytes(tr, result, args):
    tr.counters["mdp.policy_bytes"] = os.path.getsize(args[1])


def _hook_hours(tr, result, args):
    tr.counters["sim.hours_simulated"] += len(result)


def _hook_trajectory_bytes(tr, result, args):
    tr.counters["sim.trajectory_bytes"] += os.path.getsize(args[1])


def _materialize_pairs(args):
    # regimes.estimate receives a one-shot zip; keep a copy to count from
    return (list(args[0]),) + tuple(args[1:])


# (namespace the caller resolves, attribute, trace name, folded?, hook)
SPAN, FOLD = False, True
SITES = [
    (ingest, "load_series", "ingest.load_series", SPAN, _hook_rows),
    (ingest, "align", "ingest.align", SPAN, None),
    (ingest, "slice_series", "ingest.slice_series", SPAN, None),
    (qfr, "fit_regimes", "qfr.fit_regimes", SPAN, None),
    (qfr, "fit_quantile", "qfr.fit_quantile", SPAN, _hook_fit_obs),
    (qfr, "classify_series", "qfr.classify_series", SPAN, None),
    (sim, "classify_series", "qfr.classify_series", SPAN, None),
    (qfr, "price_table", "qfr.price_table", SPAN, None),
    (controllers, "classify", "qfr.classify", FOLD, None),
    (regimes, "estimate", "regimes.estimate", SPAN, _hook_chain),
    (regimes, "matrix_at", "regimes.matrix_at", FOLD, None),
    (mdp, "build_lp", "mdp.build_lp", SPAN, _hook_lp),
    (mdp, "solve_occupancy", "mdp.solve_occupancy", SPAN, None),
    (mdp, "check_occupancy", "mdp.check_occupancy", SPAN, None),
    (mdp, "extract_policy", "mdp.extract_policy", SPAN, None),
    (mdp, "save_policy", "mdp.save_policy", SPAN, _hook_policy_bytes),
    (mdp, "load_policy", "mdp.load_policy", SPAN, None),
    (controllers, "quantize", "mdp.quantize", FOLD, None),
    (sim, "quantize", "mdp.quantize", FOLD, None),
    (controllers.GreedyController, "action", "controllers.greedy.action", FOLD, None),
    (controllers.FixedRuleController, "action", "controllers.fixed-rule.action",
     FOLD, None),
    (controllers.QfrMdpController, "action", "controllers.qfr-mdp.action",
     FOLD, None),
    (controllers, "step_temperature", "thermal.step_temperature", FOLD, None),
    (sim, "step_temperature", "thermal.step_temperature", FOLD, None),
    (sim, "rollout", "sim.rollout", SPAN, _hook_hours),
    (sim.Trajectory, "to_csv", "sim.to_csv", SPAN, _hook_trajectory_bytes),
    (sim, "summarize", "sim.summarize", SPAN, None),
    (sim, "compare", "sim.compare", SPAN, None),
]


class Tracer:
    """In-memory spans, folded call totals and counters of one run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, self seconds]
        self.folded = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(float)
        self._stack = []     # open frames: [child seconds, span index or -1]
        self._saved = []

    def call(self, name, fn, args=(), kwargs=None, fold=False, hook=None,
             prepare=None):
        """Run fn(*args, **kwargs) inside a span or a folded frame."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if fold:
            index = parent[1] if parent else -1
        else:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        start = _clock()
        try:
            if prepare is not None:
                args = prepare(args)
            result = fn(*args, **(kwargs or {}))
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[0] += duration
            if fold:
                totals = self.folded[name]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
            else:
                self.spans[index] = [name, start, end,
                                     parent[1] if parent else -1,
                                     duration - frame[0]]
        if hook is not None:
            hook(self, result, args)
        return result

    def _wrap(self, fn, name, fold, hook):
        prepare = _materialize_pairs if name == "regimes.estimate" else None

        def traced(*args, **kwargs):
            label = name
            if name == "sim.rollout":
                label = f"sim.rollout.{args[0].name}"
            return self.call(label, fn, args, kwargs, fold, hook, prepare)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every site in SITES, plus RunConfig.from_file."""
        for owner, attr, name, fold, hook in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, fold, hook))
        original = RunConfig.__dict__["from_file"]
        self._saved.append((RunConfig, "from_file", original))
        RunConfig.from_file = classmethod(
            self._wrap(original.__func__, "config.from_file", SPAN, None))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def stage(self, stage, argv):
        """One CLI stage as the root span `cli.<stage>`; returns its exit code."""
        return self.call(f"cli.{stage}", cli.main, (argv,))

    def summary(self, stage_rss_mb):
        """Per-layer metrics: busy time, self time, call counts and counters."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        stage_self = {}
        for name, start, end, _, self_s in self.spans:
            busy[name] += end - start
            calls[name] += 1
            layer_self[name.split(".")[0]] += self_s
            if name.startswith("cli."):
                stage_self[name] = self_s
        for name, (n_calls, total, self_s) in self.folded.items():
            busy[name] += total
            calls[name] += n_calls
            layer_self[name.split(".")[0]] += self_s

        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for name in ("config.from_file", "ingest.load_series", "ingest.align",
                     "ingest.slice_series", "qfr.fit_quantile", "qfr.fit_regimes",
                     "qfr.classify", "qfr.classify_series", "qfr.price_table",
                     "regimes.estimate", "mdp.build_lp", "mdp.solve_occupancy",
                     "mdp.check_occupancy", "mdp.extract_policy",
                     "mdp.save_policy", "mdp.load_policy", "mdp.quantize",
                     "sim.to_csv", "sim.summarize", "sim.compare"):
            put(f"{name}_s", busy[name], "s")
        for name in ("ingest.load_series", "qfr.fit_quantile", "qfr.classify",
                     "regimes.matrix_at", "mdp.quantize",
                     "thermal.step_temperature"):
            put(f"{name}.calls", calls[name], "count")
        for ctl in ("greedy", "fixed-rule", "qfr-mdp"):
            key = f"controllers.{ctl}.action"
            put(f"controllers.{ctl}.action_s", busy[key], "s")
            put(f"controllers.{ctl}.calls", calls[key], "count")
            put(f"controllers.{ctl}.us_per_decision",
                1e6 * busy[key] / max(calls[key], 1), "us")
            put(f"sim.rollout.{ctl}_s", busy[f"sim.rollout.{ctl}"], "s")
        for stage_name, rss in stage_rss_mb.items():
            key = f"cli.{stage_name}"
            put(f"{key}_s", busy[key], "s")
            put(f"{key}.self_s", stage_self.get(key, 0.0), "s")
            put(f"{key}.peak_rss_mb", rss, "MB")
        for layer in ("config", "ingest", "qfr", "regimes", "mdp",
                      "controllers", "thermal", "sim", "cli"):
            put(f"{layer}.self_s", layer_self[layer], "s")
        for key in ("ingest.rows_parsed", "qfr.fit_obs", "regimes.transitions",
                    "regimes.buckets", "problem.n", "problem.L", "problem.M",
                    "problem.A", "mdp.lp_vars", "mdp.lp_rows", "mdp.lp_nnz",
                    "mdp.policy_bytes", "sim.hours_simulated",
                    "sim.trajectory_bytes"):
            put(key, int(self.counters[key]), "count")
        return out

    def span_records(self):
        """Spans as JSON-ready dicts, in the order they opened."""
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "self_s": self_s}
                for name, start, end, parent, self_s in self.spans]
