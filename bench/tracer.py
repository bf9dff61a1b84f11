"""Outside-in span tracer for the quandles package, and the per-layer metrics it yields.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper, in every module namespace that holds it (so
``quandles.checks.orbits`` and ``quandles.catalog.is_connected`` are both
traced), and wraps the methods in ``METHODS`` on their classes. The library
source is not changed and ``uninstall`` restores the originals.

A span is (name, start, end, parent span, run id). Spans are kept in flat
arrays while the run lasts and written out by ``write``. A function that
returns a generator gets a ``.next`` span for every advance of the generator,
so lazy work such as the enumeration search is timed where it happens.

Worker processes forked by the program inherit the wrappers, but record
nothing: their time shows up in the parent as the waiting span around them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

PACKAGE = "quandles"

# (module, class, method): methods traced on the class itself, which covers
# every namespace that imported the class.
METHODS = (
    ("quandle", "Quandle", "__init__"),
    ("quandle", "Quandle", "iso_signature"),
    ("perm", "Permutation", "__pow__"),
)


def _count_isomorphic(counters: Counter, result) -> None:
    counters["enumeration.are_isomorphic_hits"] += result is not None


def _count_subtasks(counters: Counter, result) -> None:
    counters["enumeration.parallel_subtasks"] += len(result)


def _count_reports(counters: Counter, result) -> None:
    counters["checks.reports"] += len(result)
    counters["checks.inconsistent"] += sum(not r.consistent for r in result)


# Counters read from a traced function's result, keyed by span name.
RESULT_HOOKS: dict[str, Callable[[Counter, object], None]] = {
    "enumeration.are_isomorphic": _count_isomorphic,
    "enumeration.split_task": _count_subtasks,
    "checks.all_checks": _count_reports,
}

_DONE = object()


class Tracer:
    """Spans and counters of one traced run; create one per run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack = [-1]
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        hook = RESULT_HOOKS.get(name)
        tracer = self

        def traced_iter(gen):
            next_id = tracer._name_id(name + ".next")
            while True:
                idx = tracer._open(next_id)
                try:
                    item = next(gen, _DONE)
                finally:
                    tracer._close(idx)
                if item is _DONE:
                    return
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counters, result)
            if isinstance(result, types.GeneratorType):
                return traced_iter(result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions and the listed methods; the package must be imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[Callable, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if value not in wrappers:
                    layer = home.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patch(module, attr, wrappers[value])
        for module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], cls_name)
            self._patch(cls, method, self._wrap(f"{module_name}.{cls_name}.{method}", vars(cls)[method]))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed tab-separated lines: name, start, end, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\trun\n")
            for i in range(len(self.name)):
                out.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.run[i]}\n"
                )

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its children's; children nest
        inside their parent because the traced code runs on one thread.
        """
        count = len(self.name)
        child = [0.0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: dict[int, list] = {}
        for i in range(count):
            dur = end[i] - start[i]
            entry = totals.setdefault(self.name[i], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        return {self.names[k]: tuple(v) for k, v in totals.items()}

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of spans named child_name whose parent span is named parent_name."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        name, parent = self.name, self.parent
        return sum(
            1 for i in range(len(name))
            if name[i] == cid and parent[i] >= 0 and name[parent[i]] == pid
        )


# ---------------------------------------------------------------------------
# Per-layer metrics.

CHECKERS = (
    "conjugation_identity",
    "cycle_length_division",
    "latin_sufficiency",
    "latin_necessary_conditions",
    "regular_cycle",
    "left_refinement",
    "cycle_shift",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, named layer.metric.

    ``_s`` metrics are inclusive span time, except ``enumeration.search_s``
    and ``enumeration.parallel_wait_s``, which are self time.
    """
    spans = tracer.summary()
    counters = tracer.counters

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # Tables the search produced: those validated while the enumeration
    # iterator advanced, or merged from the workers.
    merged = tracer.children_of("enumeration.enumerate_parallel", "quandle.Quandle.__init__")
    tables = tracer.children_of("enumeration.enumerate_quandles.next", "quandle.Quandle.__init__") + merged
    enumeration_s = total("enumeration.enumerate_quandles.next") + total("enumeration.enumerate_parallel")
    validate_calls = calls("quandle.Quandle.__init__")
    iso_calls = calls("enumeration.are_isomorphic")
    metrics = {
        "enumeration.search_s": self_time("enumeration.enumerate_quandles.next"),
        "enumeration.tables": tables,
        "enumeration.tables_per_s": ratio(tables, enumeration_s),
        "enumeration.are_isomorphic_calls": iso_calls,
        "enumeration.are_isomorphic_hits": counters["enumeration.are_isomorphic_hits"],
        "enumeration.are_isomorphic_hit_ratio": ratio(counters["enumeration.are_isomorphic_hits"], iso_calls),
        "enumeration.are_isomorphic_s": total("enumeration.are_isomorphic"),
        "enumeration.canonical_form_calls": calls("enumeration.canonical_form"),
        "enumeration.canonical_form_s": total("enumeration.canonical_form"),
        "enumeration.parallel_subtasks": counters["enumeration.parallel_subtasks"],
        "enumeration.parallel_rows_merged": merged,
        "enumeration.parallel_wait_s": self_time("enumeration.enumerate_parallel"),
        "quandle.validate_calls": validate_calls,
        "quandle.validate_s": total("quandle.Quandle.__init__"),
        "quandle.validate_us_per_call": ratio(total("quandle.Quandle.__init__") * 1e6, validate_calls),
        "quandle.iso_signature_calls": calls("quandle.Quandle.iso_signature"),
        "quandle.iso_signature_s": total("quandle.Quandle.iso_signature"),
        "checks.all_checks_calls": calls("checks.all_checks"),
        "checks.reports": counters["checks.reports"],
        "checks.inconsistent": counters["checks.inconsistent"],
        "checks.all_checks_s": total("checks.all_checks"),
    }
    for checker in CHECKERS:
        metrics[f"checks.{checker}_s"] = total(f"checks.check_{checker}")
    metrics["checks.search_nonconnected_refinement_s"] = total("checks.search_nonconnected_refinement")
    metrics["checks.cycle_shift_calls"] = calls("checks.check_cycle_shift")
    metrics.update({
        "perm.pow_calls": calls("perm.Permutation.__pow__"),
        "perm.pow_s": total("perm.Permutation.__pow__"),
        "orbits.orbits_calls": calls("orbits.orbits"),
        "orbits.orbits_s": total("orbits.orbits"),
        "catalog.parse_calls": calls("catalog.parse_table"),
        "catalog.parse_s": total("catalog.parse_table"),
        "catalog.load_catalog_s": total("catalog.load_catalog"),
        "catalog.stats_s": total("catalog.catalog_stats") + total("catalog.appendix_tables"),
        "trace.spans": len(tracer.name),
    })
    return metrics
