"""Outside-in tracer for the package's six layers.

The tracer wraps the public functions of ``graphs``, ``walk``, ``metrics``,
``noise``, ``runner`` and ``cli`` (plus the ``WalkOperator.assemble`` and
``NoiseSpec.kraus`` methods) at every binding their callers use, such as
``qwbutterfly.runner.coherence_l1`` next to ``qwbutterfly.metrics.coherence_l1``.
The package source is not touched.  While installed, each call records a
span (op id, span id, parent span id, name, start, end); spans stay in
memory and are written out when the run ends.  Per-name counts, self time
(duration minus the time covered by child spans) and failures are kept
for every span, including those beyond the in-memory span cap.

A name listed in EXPECTED that the package no longer has is reported in
``absent``; it does not fail the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from types import FunctionType

import numpy as np

PACKAGE = "qwbutterfly"
LAYERS = ("graphs", "walk", "metrics", "noise", "runner", "cli")
METHODS = {"walk": (("WalkOperator", "assemble"),), "noise": (("NoiseSpec", "kraus"),)}
# Names the per-layer metrics are derived from.
EXPECTED = (
    "cli.main", "graphs.read_edge_list", "graphs.is_connected",
    "walk.WalkOperator.assemble", "metrics.coherence_l1", "metrics.fidelity_pure",
    "metrics.fidelity_with_pure", "noise.NoiseSpec.kraus", "noise.apply_channel",
    "runner.run_scenario", "runner.export", "runner.export_sweep",
)
SPAN_CAP = 50_000
MIB = 1024.0 * 1024.0
FIDELITY_SPANS = ("metrics.fidelity_pure", "metrics.fidelity_with_pure", "metrics.fidelity_mixed")
# Per-layer metrics, per traced pass unless the unit says otherwise.
PER_LAYER = tuple(
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count/pass"), ("self_s", "s/pass"), ("failed", "count/pass"))]
    + [
        ("walk.assemble.calls", "count/pass"),
        ("walk.operator_mb", "MiB/pass"),
        ("walk.operator_nnz_frac", "frac"),
        ("runner.scenarios", "count/pass"),
        ("runner.assemble_per_scenario", "ratio"),
        ("runner.run_scenario.self_s", "s/pass"),
        ("runner.export.self_s", "s/pass"),
        ("metrics.coherence_l1.calls", "count/pass"),
        ("metrics.coherence_l1.self_s", "s/pass"),
        ("metrics.fidelity.self_s", "s/pass"),
        ("noise.kraus.calls", "count/pass"),
        ("noise.kraus.self_s", "s/pass"),
        ("noise.kraus_mb", "MiB/pass"),
        ("noise.kraus_nnz_frac", "frac"),
        ("noise.apply_channel.self_s", "s/pass"),
        ("graphs.read_edge_list.self_s", "s/pass"),
        ("graphs.is_connected.calls", "count/pass"),
        ("trace.overhead_frac", "frac"),
        ("trace.top_span_coverage", "frac"),
    ])


class Tracer:
    """Span recorder; install its wrappers with ``with tracer.active():``."""

    def __init__(self, probes=None) -> None:
        self.probes = dict(probes or {})   # span name -> callable(result)
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s, failed]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.top_s = 0.0                   # time covered by spans with no parent
        self.op_id = 0
        self.absent: list[str] = []
        self._stack: list[list] = []       # open spans: [child_s, span_id]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------
    def targets(self) -> dict[str, tuple]:
        """Span name -> (owner, attribute, original) for everything traced."""
        found = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for name, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[f"{layer}.{name}"] = (mod, name, obj)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    found[f"{layer}.{cls_name}.{meth}"] = (cls, meth, vars(cls)[meth])
        self.absent = [name for name in EXPECTED if name not in found]
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        found = self.targets()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_identity = {}
        for name, (owner, attr, original) in found.items():
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, original.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, original))
            else:
                by_identity[id(original)] = (original, self._wrap(name, original))
        # rebind module-level functions wherever a module imported them
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_identity.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        probe = self.probes.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                stats[2] += duration
                stats[3] += failed
                if parent is None:
                    tracer.top_s += duration
                else:
                    parent[0] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op_id, frame[1], parent[1] if parent else 0,
                                         name, start, end))
                else:
                    tracer.dropped += 1
            if probe is not None:
                t = clock()
                probe(result)
                if parent is not None:   # keep probe time out of every layer's self time
                    parent[0] += clock() - t
            return result

        return traced

    # -- results ------------------------------------------------------------
    def layer_totals(self, layer: str) -> tuple[int, float, int]:
        """Calls, self seconds and failed calls of every span in a layer."""
        rows = [v for k, v in self.stats.items() if k.split(".", 1)[0] == layer]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[3] for r in rows))

    def stat(self, name: str, field: int) -> float:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[field]

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per kept span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                     spans_dropped=self.dropped, absent=self.absent,
                                     fields=["op", "id", "parent", "name", "start", "end"]))
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class ArrayTally:
    """Probe tallying bytes, nonzero entries and entries of the arrays a call returns."""

    def __init__(self, arrays_of) -> None:
        self.arrays_of = arrays_of     # result -> iterable of candidate arrays
        self.bytes = 0
        self.nonzero = 0
        self.entries = 0

    def __call__(self, result) -> None:
        for value in self.arrays_of(result):
            if isinstance(value, np.ndarray):
                self.bytes += value.nbytes
                self.nonzero += int(np.count_nonzero(value))
                self.entries += value.size

    @property
    def nonzero_frac(self) -> float:
        return self.nonzero / self.entries if self.entries else 0.0


def package_tracer() -> Tracer:
    """Tracer with the array probes that layer_metrics reads."""
    return Tracer({
        "walk.WalkOperator.assemble": ArrayTally(lambda op: getattr(op, "__dict__", {}).values()),
        "noise.NoiseSpec.kraus": ArrayTally(lambda ks: getattr(ks, "operators", ())),
    })


def layer_metrics(tracer: Tracer, scenarios: int, plain, traced) -> dict[str, float]:
    """The PER_LAYER metrics from a package_tracer run.

    `scenarios` is the scenario count of one pass; `plain` and `traced`
    are the untraced and traced pass times.
    """
    walk = tracer.probes["walk.WalkOperator.assemble"]
    kraus = tracer.probes["noise.NoiseSpec.kraus"]
    per_pass = {}
    for layer in LAYERS:
        calls, self_s, failed = tracer.layer_totals(layer)
        per_pass[f"{layer}.calls"] = calls
        per_pass[f"{layer}.self_s"] = self_s
        per_pass[f"{layer}.failed"] = failed
    per_pass.update({
        "walk.assemble.calls": tracer.stat("walk.WalkOperator.assemble", 0),
        "walk.operator_mb": walk.bytes / MIB,
        "runner.run_scenario.self_s": tracer.stat("runner.run_scenario", 1),
        "runner.export.self_s": (tracer.stat("runner.export", 1)
                                 + tracer.stat("runner.export_sweep", 1)),
        "metrics.coherence_l1.calls": tracer.stat("metrics.coherence_l1", 0),
        "metrics.coherence_l1.self_s": tracer.stat("metrics.coherence_l1", 1),
        "metrics.fidelity.self_s": sum(tracer.stat(n, 1) for n in FIDELITY_SPANS),
        "noise.kraus.calls": tracer.stat("noise.NoiseSpec.kraus", 0),
        # total time of NoiseSpec.kraus, which covers the noise functions it calls
        "noise.kraus.self_s": tracer.stat("noise.NoiseSpec.kraus", 2),
        "noise.kraus_mb": kraus.bytes / MIB,
        "noise.apply_channel.self_s": tracer.stat("noise.apply_channel", 1),
        "graphs.read_edge_list.self_s": tracer.stat("graphs.read_edge_list", 1),
        "graphs.is_connected.calls": tracer.stat("graphs.is_connected", 0),
    })
    metrics = {name: value / len(traced) for name, value in per_pass.items()}
    metrics.update({
        "walk.operator_nnz_frac": walk.nonzero_frac,
        "noise.kraus_nnz_frac": kraus.nonzero_frac,
        "runner.scenarios": float(scenarios),
        "runner.assemble_per_scenario": metrics["walk.assemble.calls"] / scenarios,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.top_span_coverage": tracer.top_s / sum(traced),
    })
    return metrics
