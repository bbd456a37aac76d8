"""Layer-boundary span recorder for the traced benchmark run.

:class:`SpanRecorder` wraps the public entry points where one layer of
``repro`` calls into the next (the table in :func:`boundaries`) and
records one span per call: name, start, end, parent span and the id of
the sweep point or fuzz case it ran under.  Spans stay in memory in
flat arrays and are written out at the end; a layer's self time is the
duration of its spans minus the part their child spans cover.

Known blind spot: ``htm/system.py`` inlines part of the coherence fast
path (it reads ``fabric._spec_writers`` directly and calls
``l1.lookup`` on the fabric's caches), so the inlined dictionary work
is counted as ``htm`` self time, not ``coherence``, until the program
records its own spans.  The ``l1.lookup`` calls themselves are
``SetAssocCache.lookup`` and are counted as ``mem``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

#: the layers every traced run reports, named after repro's modules
LAYERS = (
    "workloads",
    "sim.decode",
    "sim.machine",
    "htm",
    "stm",
    "core",
    "coherence",
    "mem",
    "stats",
    "obs",
    "check",
    "fuzz",
    "exp",
)

#: ``Machine.run`` keys: the 1-core sequential/golden/replay runs are
#: "seq"; every other run is keyed by its TM system
RUN_KEYS = ("seq", "eager", "lazy-vb", "retcon", "hybrid-retcon", "stm")

_TM_METHODS = ("load", "store", "begin", "commit")


def run_key(machine) -> str:
    """The ``sim.run_s`` key of a machine: "seq" for 1-core runs, else
    the TM system it was built as (lazy-vb is a reconfigured
    ``RetconTMSystem`` and shares its class name)."""
    if machine.config.ncores == 1:
        return "seq"
    system = machine.system
    if system.name == "retcon" and not system.symbolic_arithmetic:
        return "lazy-vb"
    return system.name


def _tm_classes():
    from repro.htm.system import BaseTMSystem

    seen: list = []
    todo = [BaseTMSystem]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    classes = []
    for cls in seen:
        for base in cls.__mro__:
            if base is not object and base not in classes:
                classes.append(base)
    return classes


def boundaries():
    """Yield ``(layer, owner, attribute)`` for every wrapped entry point.

    ``owner`` is a class (the attribute is a method defined in that
    class's own body) or a module (a function, rebound in every
    ``repro`` module that imported it by name).  The caller must have
    imported every ``repro`` module first so subclass and alias scans
    are complete.
    """
    from repro.analysis import figures
    from repro.check import golden
    from repro.check.oracle import RepairOracle
    from repro.coherence.directory import CoherenceFabric
    from repro.core.engine import RetconEngine
    from repro.exp import engine
    from repro.exp.cache import ResultCache
    from repro.fuzz import campaign, diff
    from repro.mem.cache import SetAssocCache
    from repro.obs.events import EventStream
    from repro.sim import decode, runner
    from repro.sim.machine import Machine
    from repro.sim.stats import MachineStats
    from repro.workloads.registry import WORKLOADS

    generators = []
    for workload in WORKLOADS.values():
        for cls in type(workload).__mro__:
            if "generate" in cls.__dict__ and cls not in generators:
                if not getattr(cls.__dict__["generate"],
                               "__isabstractmethod__", False):
                    generators.append(cls)
    for cls in generators:
        yield "workloads", cls, "generate"

    yield "sim.decode", decode, "decoded_for"
    yield "sim.decode", decode, "chain_for"
    yield "sim.machine", runner, "run_sequential"
    yield "sim.machine", Machine, "run"

    for cls in _tm_classes():
        layer = "stm" if cls.__module__.startswith("repro.stm") else "htm"
        for name in _TM_METHODS:
            if name in cls.__dict__:
                yield layer, cls, name

    for name, value in RetconEngine.__dict__.items():
        if inspect.isfunction(value) and not name.startswith("_"):
            yield "core", RetconEngine, name

    for name in ("acquire", "mark_spec", "clear_spec"):
        yield "coherence", CoherenceFabric, name
    caches = [SetAssocCache] + SetAssocCache.__subclasses__()
    for cls in caches:
        for name in ("lookup", "insert"):
            if name in cls.__dict__:
                yield "mem", cls, name

    yield "stats", MachineStats, "record_txn"
    yield "obs", EventStream, "emit"
    yield "check", RepairOracle, "check_commit"
    yield "check", golden, "golden_diff"
    yield "check", golden, "run_golden"
    yield "fuzz", diff, "run_case"
    yield "fuzz", campaign, "run_campaign"
    yield "exp", engine, "run_points"
    yield "exp", ResultCache, "put"
    # The service figure driver lives in repro.analysis; it is the
    # experiment pipeline's entry point for the service sweep.
    yield "exp", figures, "figure_service"


class SpanRecorder:
    """Records spans at the layer boundaries while installed."""

    def __init__(self) -> None:
        #: span name table; a span stores its index into it
        self.names: list[str] = []
        self.name_layer: list[str] = []
        #: point/case id table; a span stores its index into it
        self.contexts: list[str] = [""]
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.context = array("l")
        self._stack = [-1]
        self._ctx = [0]
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _name_id(self, layer: str, name: str) -> int:
        full = f"{layer}:{name}"
        try:
            return self.names.index(full)
        except ValueError:
            self.names.append(full)
            self.name_layer.append(layer)
            return len(self.names) - 1

    def _wrap(self, fn, layer: str, qualname: str):
        nid = self._name_id(layer, qualname)
        name_of, start, end = self.name_of, self.start, self.end
        parent, context = self.parent, self.context
        stack, ctx = self._stack, self._ctx
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            context.append(ctx[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def _wrap_machine_run(self, fn):
        """``Machine.run``: named by run key, and sets the span context
        to the machine label (the point or case being simulated)."""
        ids = {
            key: self._name_id("sim.machine", f"Machine.run[{key}]")
            for key in RUN_KEYS
        }
        name_of, start, end = self.name_of, self.start, self.end
        parent, context = self.parent, self.context
        stack, ctx, contexts = self._stack, self._ctx, self.contexts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(machine, *args, **kwargs):
            contexts.append(machine.label)
            idx = len(start)
            name_of.append(ids[run_key(machine)])
            parent.append(stack[-1])
            context.append(len(contexts) - 1)
            end.append(0.0)
            stack.append(idx)
            ctx.append(len(contexts) - 1)
            start.append(clock())
            try:
                return fn(machine, *args, **kwargs)
            finally:
                end[idx] = clock()
                ctx.pop()
                stack.pop()

        return span

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` restores them."""
        from repro.sim.machine import Machine

        for layer, owner, attr in list(boundaries()):
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapped = self._wrap(original, layer, attr)
                targets = [
                    module for name, module in list(sys.modules.items())
                    if name.startswith("repro")
                    and getattr(module, attr, None) is original
                ]
            else:
                original = owner.__dict__[attr]
                if owner is Machine and attr == "run":
                    wrapped = self._wrap_machine_run(original)
                else:
                    wrapped = self._wrap(
                        original, layer, f"{owner.__name__}.{attr}"
                    )
                targets = [owner]
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Self time per span name: span durations minus the part of
        each span's interval that its child spans cover."""
        totals = [0.0] * len(self.names)
        name_of = self.name_of
        for nid, begin, finish, up in zip(
            name_of, self.start, self.end, self.parent
        ):
            duration = finish - begin
            totals[nid] += duration
            if up >= 0:
                totals[name_of[up]] -= duration
        return totals

    def calls(self) -> list[int]:
        counts = [0] * len(self.names)
        for nid in self.name_of:
            counts[nid] += 1
        return counts

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(
            finish - begin
            for begin, finish, up in zip(self.start, self.end, self.parent)
            if up < 0
        )

    def layer_report(self, wall: float) -> dict[str, float]:
        """Per-layer ``self_s``/``calls``, per-run-key ``sim.run_s``,
        and the residual: ``wall`` minus the time inside any span."""
        selfs = self.self_times()
        calls = self.calls()
        report: dict[str, float] = {}
        for layer in LAYERS:
            report[f"{layer}.self_s"] = 0.0
            report[f"{layer}.calls"] = 0
        for nid, layer in enumerate(self.name_layer):
            report[f"{layer}.self_s"] += selfs[nid]
            report[f"{layer}.calls"] += calls[nid]
        inclusive = [0.0] * len(self.names)
        for nid, begin, finish in zip(self.name_of, self.start, self.end):
            inclusive[nid] += finish - begin
        for key in RUN_KEYS:
            nid = self.names.index(f"sim.machine:Machine.run[{key}]")
            report[f"sim.run_s.{key}"] = inclusive[nid]
        report["trace.wall_s"] = wall
        report["trace.residual_s"] = wall - self.root_seconds()
        report["trace.spans"] = len(self)
        return report

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header beside a flat binary body of
        the arrays, in the order the header lists them."""
        fields = ("name_of", "start", "end", "parent", "context")
        header = {
            "count": len(self),
            "names": self.names,
            "contexts": self.contexts,
            "fields": [
                [name, getattr(self, name).typecode] for name in fields
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as handle:
            for name in fields:
                getattr(self, name).tofile(handle)
