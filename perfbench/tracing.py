"""Spans around the public functions of each `tgr` layer.

`Tracer.install` replaces, from outside the package, the module
attribute of every public function of each layer module with a wrapper
that records a span (name, start, end, parent) in memory. Calls between
modules, and calls inside a module to its own public functions, go
through those attributes, so they are all seen. Names bound by
`from module import name` elsewhere keep pointing at the original.

A span's self time is its duration minus the time covered by its
direct child spans.

Size counters are read from return values only (`Dfa.n_states`,
`GroundedFond.fluents`/`.actions`, `len(Policy)`, `len(executions)`).
Reachable states, fixpoint rounds and raw paths never leave the
functions that compute them, so they cannot be observed from here.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("logic", "automata", "fond", "compilation", "planner",
          "executions", "recognizer", "bench")

# Public functions left unwrapped. The formula and effect constructors
# and the name formatters do less work per call than a wrapper adds.
# `ltlf_to_dfa` and `pltlf_to_dfa` are the two halves of
# `formula_to_dfa`, which is how the pipeline reaches them; wrapping them
# too would leave `formula_to_dfa` with no self time.
UNTRACED = frozenset({
    "logic.atom", "logic.from_atom", "logic.lnot", "logic.land", "logic.lor",
    "logic.implies", "logic.next_", "logic.weak_next", "logic.until",
    "logic.eventually", "logic.always", "logic.yesterday", "logic.since",
    "logic.once", "logic.historically", "logic.conj", "logic.disj",
    "fond.eff_lit", "fond.eff_and", "fond.eff_when", "fond.eff_oneof",
    "fond.pddl_atom_str", "fond.ground_action_name",
    "automata.ltlf_to_dfa", "automata.pltlf_to_dfa",
})

# Counters taken from return values, by traced function.
RETURN_COUNTERS = {
    "fond.ground": lambda g: (("fond.fluents", len(g.fluents)),
                              ("fond.ground_actions", len(g.actions))),
    "automata.formula_to_dfa": lambda d: (("automata.dfa_states", d.n_states),),
    "planner.solve_strong_cyclic": lambda p: (("planner.policy_states",
                                               len(p)),),
    "executions.enumerate_executions": lambda e: (("executions.executions",
                                                   len(e)),),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.returned: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        for layer in LAYERS:
            module = importlib.import_module(f"tgr.{layer}")
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = RETURN_COUNTERS.get(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                          self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                self.raised[name, type(exc).__name__] += 1
                raise
            end[i] = clock()
            stack.pop()
            self.returned[name] += 1
            if count is not None:
                for key, value in count(result):
                    self.counters[key] += value
            return result

        return traced

    def roots(self) -> list[int]:
        """Index of the outermost span around each span."""
        root = [0] * len(self.span_name)
        for i, p in enumerate(self.parent):
            root[i] = i if p < 0 else root[p]
        return root

    def summary(self) -> dict[str, dict]:
        """Per traced function: calls, total and self seconds, and how
        often it returned or raised."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "returned": self.returned[name]} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        for (name, exc), k in self.raised.items():
            out[name].setdefault("raised", {})[exc] = k
        return out

    def calls_under(self, name: str, root_name: str) -> int:
        """Spans of `name` whose outermost span is `root_name`."""
        nid, rid = self._ids.get(name), self._ids.get(root_name)
        root = self.roots()
        return sum(1 for i, s in enumerate(self.span_name)
                   if s == nid and self.span_name[root[i]] == rid)

    def write(self, path: str) -> None:
        """All spans as gzip CSV: id, parent, name, start, end (seconds
        on the perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")
