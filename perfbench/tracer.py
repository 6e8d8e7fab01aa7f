"""Outside-in tracing of the delegatebox layers.

``Tracer.install`` wraps every public function of the library's modules at
every module that binds it (``from .core import ...`` copies names, so
``pnoi_optimal`` lives in ``pandora``, ``delegation`` and ``bounds`` at once).
Each call records a span ``[name, mode, parent, t0, t1]`` in memory; the mode
tag is the block the workload is in ("setup", "exact" or "float"). Counters
that the library does not expose are taken from the arguments and results
at the same boundaries, so they repeat exactly from run to run.

Nothing here edits the library's source: the patches live in this process
only and ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("core", "pandora", "delegation", "bounds", "instances", "repro", "cli")
MODES = ("exact", "float")

SIGNALING = (
    "delegation.evaluate_signaling",
    "delegation.uninspected_selection_mass",
    "delegation.overinspection_utility",
)

# Layers whose self time is reported per arithmetic mode, as
# "<layer>.self_s.exact" and "<layer>.self_s.float".
MODE_SPLIT_LAYERS = (
    "pandora.pnoi_optimal",
    "pandora.weitzman_value",
    "delegation.signaling",
    "pandora.run_policy",
    "delegation.agent_best_response",
    "delegation.evaluate_spmi",
    "delegation.build_spmi",
    "core.expected_max_of_dists",
    "pandora.reservation_cap",
    "bounds.audit",
    "bounds.upper_bound_costless",
    "bounds.upper_bound_costly",
    "core.instance_digest",
    "cli.main",
)

# Layers whose call count is reported as "<layer>.calls".
CALL_COUNT_LAYERS = (
    "pandora.pnoi_optimal",
    "pandora.weitzman_value",
    "delegation.signaling",
    "pandora.run_policy",
    "delegation.agent_best_response",
    "core.expected_max_of_dists",
    "pandora.reservation_cap",
)

# Every per-layer metric a traced pass reports, with its unit.
LAYER_METRICS = (
    [(f"{layer}.calls", "count") for layer in CALL_COUNT_LAYERS]
    + [(f"{layer}.self_s.{mode}", "s") for layer in MODE_SPLIT_LAYERS for mode in MODES]
    + [
        ("pandora.pnoi_optimal.states", "count"),
        ("pandora.pnoi_optimal.repeats", "count"),
        ("pandora.pnoi_optimal.repeat_frac", "ratio"),
        ("core.iter_realizations.points", "count"),
        ("delegation.signaling.sweeps", "count"),
        ("delegation.evaluate_spmi.calls.worst_case", "count"),
        ("delegation.evaluate_spmi.calls.fixed_order", "count"),
        ("delegation.evaluate_spmi.calls.enumerated", "count"),
        ("core.expected_max_of_dists.atoms", "count"),
        ("repro.run_repro.self_s", "s"),
        ("instances.self_s", "s"),
        ("trace.spans", "count"),
    ]
)


class Tracer:
    """Spans and counters for one traced pass; one instance per process."""

    def __init__(self):
        self.mode = "setup"
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_pnoi: set = set()
        self._seen_sweeps: set = set()
        self._patches: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap each public library function at every module binding it."""
        import delegatebox
        from delegatebox import delegation

        self._worst_case = delegation.WORST_CASE
        bindings = [delegatebox] + [
            sys.modules[f"delegatebox.{name}"] for name in MODULES
        ]
        for name in MODULES:
            module = sys.modules[f"delegatebox.{name}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{name}.{attr}", fn)
                for target in bindings:
                    for bound_as, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, bound_as, fn))
                            setattr(target, bound_as, wrapper)

    def uninstall(self) -> None:
        for target, bound_as, fn in reversed(self._patches):
            setattr(target, bound_as, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator runs interleaved with its caller, so it gets no
            # span; it counts the items it yields ("<name>.points") instead.
            counts = self.counts

            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[f"{name}.points"] += 1
                    yield item

            return generator

        # Hooks run after the span ends: their cost lands in the caller's
        # self time and in trace.overhead_frac, not in the wrapped layer.
        hook = {
            "pandora.pnoi_optimal": self._on_pnoi,
            "delegation.evaluate_spmi": self._on_evaluate_spmi,
            "core.expected_max_of_dists": self._on_expected_max,
            **dict.fromkeys(SIGNALING, self._on_signaling),
        }.get(name)
        spans, stack = self.spans, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, tracer.mode, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- counters taken at the boundaries ---------------------------------

    def _on_pnoi(self, args, kwargs, result) -> None:
        instance = _arg(args, kwargs, 0, "instance")
        key = (instance.mode, instance.alternatives)
        if key in self._seen_pnoi:
            self.counts["pandora.pnoi_optimal.repeats"] += 1
        self._seen_pnoi.add(key)
        self.counts["pandora.pnoi_optimal.states"] += len(result[1].table)

    def _on_evaluate_spmi(self, args, kwargs, result) -> None:
        # Mirrors the dispatch at the top of delegation.evaluate_spmi.
        instance = _arg(args, kwargs, 0, "instance")
        agent = _arg(args, kwargs, 2, "agent", self._worst_case)
        if agent is self._worst_case:
            path = "worst_case"
        elif agent.deterministic and len(set(agent.utilities)) == instance.n:
            path = "fixed_order"
        else:
            path = "enumerated"
        self.counts[f"delegation.evaluate_spmi.calls.{path}"] += 1

    def _on_expected_max(self, args, kwargs, result) -> None:
        dists = _arg(args, kwargs, 0, "dists")
        self.counts["core.expected_max_of_dists.atoms"] += sum(len(d.atoms) for d in dists)

    def _on_signaling(self, args, kwargs, result) -> None:
        names = ("instance", "mech", "agent")
        key = tuple(_arg(args, kwargs, i, name) for i, name in enumerate(names))
        self._seen_sweeps.add((self.mode, *key))
        self.counts["delegation.signaling.sweeps"] = len(self._seen_sweeps)

    # --- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per (span name, mode): duration minus the children's."""
        child = [0.0] * len(self.spans)
        for name, mode, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i, (name, mode, parent, t0, t1) in enumerate(self.spans):
            out[(name, mode)] += (t1 - t0) - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Every entry of LAYER_METRICS, as plain numbers."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        metrics: dict = {}

        def members(layer: str) -> tuple:
            return SIGNALING if layer == "delegation.signaling" else (layer,)

        for layer in CALL_COUNT_LAYERS:
            metrics[f"{layer}.calls"] = sum(calls[name] for name in members(layer))
        for layer in MODE_SPLIT_LAYERS:
            for mode in MODES:
                metrics[f"{layer}.self_s.{mode}"] = sum(
                    selfs[(name, mode)] for name in members(layer)
                )
        for name, _unit in LAYER_METRICS:
            if name not in metrics:
                metrics[name] = self.counts[name]
        pnoi_calls = metrics["pandora.pnoi_optimal.calls"]
        metrics["pandora.pnoi_optimal.repeat_frac"] = (
            metrics["pandora.pnoi_optimal.repeats"] / pnoi_calls if pnoi_calls else 0.0
        )
        metrics["repro.run_repro.self_s"] = sum(
            t for (name, _), t in selfs.items() if name.startswith("repro.")
        )
        metrics["instances.self_s"] = sum(
            t for (name, _), t in selfs.items() if name.startswith("instances.")
        )
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def write_spans(self, path) -> None:
        """Write every span as [name, mode, parent, t0, t1] to gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "mode", "parent", "t0", "t1"], "spans": self.spans}, fh)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    """The argument a call passed at ``index`` or as ``name``."""
    return args[index] if len(args) > index else kwargs.get(name, default)
