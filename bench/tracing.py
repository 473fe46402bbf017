"""Spans and counters recorded around calls into the gda layers.

The wrappers live here, in the benchmark, and nothing under src/gda
changes: `install` replaces each traced function or method on its
defining module or class and re-binds every name that a gda module (or
the benchmark) imported with `from ... import`, so nested calls such as
`gda.verifier.apply_differential` are counted too.

Each wrapped call records a span (name, start, end, parent, op id).  A
function's self time is its span minus the spans of the traced calls it
made; it is accumulated as calls return, so a long run needs no more
memory than the spans it keeps (at most SPAN_CAP of them in a run,
written out when the run ends).
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SPAN_CAP = 100_000

# file the traced CLI child writes its spans and totals to
CHILD_OUT_ENV = "GDA_BENCH_TRACE_OUT"
CHILD_OP_ENV = "GDA_BENCH_OP_ID"
# stderr line the CLI child ends with: marker, import seconds, main() seconds
TIMING_MARK = "@@gda-bench-timing"


def _count_pushes(tracer, args, kwargs, result):
    tracer.counters["differentials.pushes"] += 1
    if result[0] is None:
        tracer.counters["differentials.pushes_killed"] += 1


def _count_deletions(tracer, args, kwargs, result):
    term = args[1] if len(args) > 1 else kwargs["term"]
    tracer.counters["ideals.monomials_examined"] += len(term)
    tracer.counters["ideals.monomials_deleted"] += len(result[1])


def _count_built(tracer, args, kwargs, result):
    tracer.counters["verifier.hypotheses_built"] += len(result.conditions)


def _count_fired(tracer, args, kwargs, result):
    tracer.op_used.update(
        step.rule for step in result[1] if step.rule.startswith("hypothesis:")
    )


def _count_lookup(tracer, args, kwargs, result):
    if result is not None:
        tracer.op_used.add("hypothesis:" + result.tag)


def _count_kernel_repeats(tracer, args, kwargs, result):
    key = (id(args[0]),) + tuple(args[1:]) + tuple(sorted(kwargs.items()))
    if key in tracer.kernel_keys:
        tracer.counters["model.kernel_basis_repeats"] += 1
    tracer.kernel_keys.add(key)


def _count_nodes(tracer, args, kwargs, result):
    tracer.counters["conditions.nodes"] += len(result.nodes)


# (module, attribute, counter hook); the span name is the module's last
# component followed by the attribute
TRACED = [
    ("gda.terms", "Term.__add__", None),
    ("gda.terms", "Term.items", None),
    ("gda.terms", "multiply", None),
    ("gda.differentials", "apply_slot_differential", None),
    ("gda.differentials", "apply_differential", None),
    ("gda.differentials", "classify_push", _count_pushes),
    ("gda.ideals", "IdealRegistry.reduce_with_trace", _count_deletions),
    ("gda.verifier", "build_closure_set", _count_built),
    ("gda.verifier", "cancel_hypotheses", _count_fired),
    ("gda.verifier", "verify_cocycle", None),
    ("gda.verifier", "verify_independence", None),
    ("gda.verifier", "ClosureSet.find", _count_lookup),
    ("gda.model", "evaluate", None),
    ("gda.model", "wedge", None),
    ("gda.model", "derive_element", None),
    ("gda.model", "kernel_basis", _count_kernel_repeats),
    ("gda.conditions", "derive_tree", _count_nodes),
    ("gda.dsl", "load_session", None),
    ("gda.cli", "main", None),
]

COUNTERS = [
    "differentials.pushes", "differentials.pushes_killed",
    "ideals.monomials_examined", "ideals.monomials_deleted",
    "verifier.hypotheses_built", "verifier.hypotheses_used",
    "model.kernel_basis_repeats", "conditions.nodes", "cli.import_s",
]


class Tracer:
    """Per-run span store and totals.  `stats` maps a span name to
    [calls, self seconds, total seconds]."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.spans: list[list] = []
        self.dropped = 0
        self.ops = 0
        self.op_id: int | None = None
        self.op_used: set[str] = set()
        self.kernel_keys: set[tuple] = set()
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        index = None
        if len(self.spans) < self.cap:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        else:
            self.dropped += 1
        frame = [index, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        elapsed = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed - frame[1]
        entry[2] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        if frame[0] is not None:
            span = self.spans[frame[0]]
            span[1] = start
            span[2] = end

    def wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, time.perf_counter())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        self.op_used.clear()
        name = f"op:{kind}"
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())
            self.ops += 1
            self.counters["verifier.hypotheses_used"] += len(self.op_used)
            self.op_id = None

    def merge(self, payload: dict) -> None:
        """Fold in what a traced child process recorded."""
        for name, (calls, self_s, total_s) in payload["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for name, value in payload["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        offset = len(self.spans)
        for name, start, end, parent, op_id in payload["spans"]:
            if len(self.spans) >= self.cap:
                self.dropped += 1
                continue
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, op_id]
            )
        self.dropped += payload["dropped"]
        self.ops += payload["ops"]

    def payload(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "spans": self.spans,
            "dropped": self.dropped,
            "ops": self.ops,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")


def install(tracer: Tracer, extra_modules=()) -> list[tuple]:
    """Wrap every TRACED callable; return what `uninstall` restores."""
    restore: list[tuple] = []
    holders = [m for key, m in list(sys.modules.items())
               if key == "gda" or key.startswith("gda.")] + list(extra_modules)
    for module_name, attr, hook in TRACED:
        module = importlib.import_module(module_name)
        name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(name, original, hook))
            restore.append((cls, method, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, hook)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    restore.append((holder, key, original))
    return restore


def uninstall(restore: list[tuple]) -> None:
    for holder, key, original in reversed(restore):
        setattr(holder, key, original)


def cli_child(argv: list[str]) -> int:
    """Body of a traced `gda` child: time the import, run main() under
    the tracer, and leave the totals and spans where the parent reads
    them."""
    start = time.perf_counter()
    import gda.cli
    imported = time.perf_counter()
    tracer = Tracer()
    tracer.counters["cli.import_s"] = imported - start
    restore = install(tracer)
    rc = 2
    main_start = time.perf_counter()
    try:
        with tracer.op(int(os.environ[CHILD_OP_ENV]), argv[0]):
            rc = gda.cli.main(argv)
    finally:
        main_end = time.perf_counter()
        uninstall(restore)
        Path(os.environ[CHILD_OUT_ENV]).write_text(
            json.dumps(tracer.payload()), encoding="utf-8"
        )
        sys.stderr.write(f"\n{TIMING_MARK} {imported - start!r} {main_end - main_start!r}\n")
    return rc
