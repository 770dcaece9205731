"""Outside-in tracer: wraps the prover's public functions where they are called.

Nothing in `src/` changes.  A function is wrapped at the name its caller
looks it up through: `saturation` binds the simplification rules with
`from .simplify import`, so those are wrapped on the `saturation` module;
`rename_apart` is wrapped on `calculus`, `simplify` and `matching`; the
calculus rules are reached as attributes of the `calculus` module; index,
factory and queue methods are wrapped on their classes.

Each timed call records a span: id, parent span id, name, start and end
(`time.perf_counter`) and the problem run it belongs to.  Spans stay in
flat arrays until `write_spans` stores them.  Self time is a span minus the
time its child spans cover.  Generator functions (`match_solutions`) are
timed across their iteration: every resumption is a span, their creation
is not.  Leaf term operations (`match_pairs`, `unify_pairs`) are only
counted, because timing them costs more than the work they do.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._ids = [0]  # open span ids; 0 is the root
        self._child = [0.0]  # time covered by children of each open span
        self._next_id = itertools.count(1).__next__
        self._span_id = array("I")
        self._span_parent = array("I")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._run_marks: list[tuple[int, int]] = []  # (first span index, run id)
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def _label(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        return len(self.names) - 1

    def _close(self, idx: int, sid: int, parent: int, start: float, end: float) -> None:
        self._ids.pop()
        child = self._child.pop()
        dur = end - start
        self._child[-1] += dur
        self.self_s[idx] += dur - child
        self.incl_s[idx] += dur
        self._span_id.append(sid)
        self._span_parent.append(parent)
        self._span_name.append(idx)
        self._span_start.append(start)
        self._span_end.append(end)

    def span(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """fn timed as a span; observe(args, result) runs after the span closes."""
        idx = self._label(name)
        calls, ids, child, close, next_id = self.calls, self._ids, self._child, self._close, self._next_id
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = ids[-1]
            ids.append(sid)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx, sid, parent, start, clock())
            calls[idx] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def generator_span(self, fn: Callable, name: str) -> Callable:
        """A generator function timed over its resumptions, counting solutions."""
        idx = self._label(name)
        calls, ids, child, close, next_id = self.calls, self._ids, self._child, self._close, self._next_id
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            calls[idx] += 1
            limit = kwargs.get("limit", 0)
            produced = 0
            while True:
                sid = next_id()
                parent = ids[-1]
                ids.append(sid)
                child.append(0.0)
                start = clock()
                try:
                    item = next(inner, _DONE)
                finally:
                    close(idx, sid, parent, start, clock())
                if item is _DONE:
                    if limit and produced >= limit:
                        counts[name + ".truncated"] += 1
                    return
                produced += 1
                counts[name + ".solutions"] += 1
                yield item

        return wrapper

    def counter(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def observer(self, fn: Callable, before: Callable) -> Callable:
        """fn untimed, with before(args) run ahead of each call."""

        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installation

    def patch(self, owner: object, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self, run_id: int) -> None:
        """Wrap every traced call site; spans from now on belong to run_id."""
        from sdprover import calculus, clauses, index, matching, ordering, saturation, simplify

        self._run_marks.append((len(self._span_id), run_id))
        counts, peaks = self.counts, self.peaks

        def counted(key: str) -> Callable:
            return lambda args, result: counts.__setitem__(key, counts[key] + _size(result))

        def peak(key: str, value: int) -> None:
            if value > peaks[key]:
                peaks[key] = value

        originals: dict[tuple[object, str], Callable] = {}

        def wrap_all(owners, attr: str, make: Callable) -> None:
            # one wrapper per original function, shared by all its bindings
            for owner in owners:
                fn = getattr(owner, attr)
                key = (id(fn), attr)
                if key not in originals:
                    originals[key] = make(fn)
                self.patch(owner, attr, originals[key])

        span = self.span
        # saturation phases
        wrap_all([saturation], "forward_simplify", lambda f: span(f, "saturation.forward"))
        wrap_all([saturation], "backward_simplify", lambda f: span(f, "saturation.backward"))
        wrap_all(
            [saturation],
            "_generate",
            lambda f: span(f, "saturation.generate", lambda a, r: counts.__setitem__(
                "calculus.pairs", counts["calculus.pairs"] + len(a[1].active))),
        )
        wrap_all(
            [saturation.ProverState],
            "activate",
            lambda f: self.observer(f, lambda a: peak("saturation.peak_active", len(a[0].active) + 1)),
        )
        wrap_all(
            [saturation.PassiveQueue],
            "pop",
            lambda f: self.observer(f, lambda a: peak("saturation.peak_passive", len(a[0]))),
        )
        # simplification rules, at the names saturation calls them by
        rules = (
            ("forward_subsumption_delete", "simplify.fwd_sub", "simplify.fwd_sub.deleted"),
            ("demodulate", "simplify.demod", "simplify.demod.rewrites"),
            ("forward_subsumption_demodulation", "simplify.fsd", "simplify.fsd.rewrites"),
            ("backward_subsumption_deletions", "simplify.bwd_sub", "simplify.bwd_sub.deleted"),
            ("backward_subsumption_demodulation", "simplify.bsd", "simplify.bsd.rewrites"),
        )
        for attr, name, hits in rules:
            wrap_all([saturation], attr, lambda f, name=name, hits=hits: span(f, name, counted(hits)))
        # calculus rules, reached as module attributes
        for attr in ("resolution", "superposition", "factoring", "equality_resolution", "equality_factoring"):
            wrap_all([calculus], attr, lambda f: span(f, "calculus", counted("calculus.conclusions")))
        # matcher
        wrap_all([simplify, matching], "match_solutions", lambda f: self.generator_span(f, "matching.match_solutions"))
        wrap_all([simplify], "subsumes", lambda f: span(f, "matching.subsumes", counted("matching.subsumes.hits")))
        # indexes: retrieval sizes, upkeep
        retrievals = (
            (index.BackwardIndex, "forward_subsumption_candidates", "index.fwd_sub.candidates"),
            (index.BackwardIndex, "backward_subsumption_candidates", "index.bwd_sub.candidates"),
            (index.BackwardIndex, "retrieve_bsd_candidates", "index.bsd.candidates"),
            (index.FsdIndex, "retrieve_fsd_candidates", "index.fsd.candidates"),
        )
        for owner, attr, name in retrievals:
            wrap_all([owner], attr, lambda f, name=name: span(f, "index.retrieve", counted(name)))
        for attr in ("insert", "remove"):
            wrap_all([index.BackwardIndex, index.FsdIndex], attr, lambda f, attr=attr: span(f, "index." + attr))
        # clause layer
        wrap_all([calculus, simplify, matching], "rename_apart", lambda f: span(f, "clauses.rename_apart"))
        wrap_all([clauses.ClauseFactory], "make", lambda f: span(f, "clauses.make"))
        wrap_all([calculus], "select", lambda f: span(f, "clauses.select"))
        # ordering
        wrap_all([ordering, simplify, calculus], "compare_terms", lambda f: span(f, "ordering.compare_terms"))
        wrap_all([ordering], "multiset_extension", lambda f: span(f, "ordering.multiset"))
        # term layer, counted only
        wrap_all([simplify, matching], "match_pairs", lambda f: self.counter(f, "terms.match_pairs"))
        wrap_all([calculus], "unify_pairs", lambda f: self.counter(f, "terms.unify_pairs"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and incl_s per span name."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "incl_s": self.incl_s[i]}
            for i, name in enumerate(self.names)
        }

    @property
    def span_count(self) -> int:
        return len(self._span_id)

    def write_spans(self, path: str) -> None:
        """Store spans as raw arrays, column after column, after a one-line JSON header."""
        runs = array("H")
        marks = self._run_marks + [(len(self._span_id), 0)]
        for (first, run_id), (stop, _) in zip(marks, marks[1:]):
            runs.extend([run_id] * (stop - first))
        columns = [
            ("id", self._span_id),
            ("parent", self._span_parent),
            ("name", self._span_name),
            ("run", runs),
            ("start", self._span_start),
            ("end", self._span_end),
        ]
        header = {
            "names": self.names,
            "count": self.span_count,
            "byteorder": sys.byteorder,
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, arr in columns:
                arr.tofile(handle)


def _size(result) -> int:
    """Hits carried by a traced call's result."""
    if result is None or result is False:
        return 0
    if result is True:
        return 1
    if isinstance(result, (list, set, tuple)):
        return len(result)
    return 1
