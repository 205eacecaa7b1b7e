"""Spans around calls into eulercert's public functions, kept in memory.

A :class:`Tracer` replaces every binding of each traced function inside the
``eulercert`` package (``from .x import f`` copies a binding into each
importing module, so all of them are replaced) with a wrapper that records a
span: its name, start, end, parent span and op id.  Spans stay in flat arrays
until the run ends.  A span's self time is its duration minus the time its
child spans cover.  Leaving the ``with`` block restores every binding, also
when an op raised.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "eulercert"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _pair_keys(state: dict, args, result) -> None:
    keys = state.setdefault("pair_keys", set())
    keys.add(tuple(None if s is None else (s.support, s.shift) for s in args[:2]))


def _unit_copies(state: dict, args, result) -> None:
    for sheaf in args[:2]:
        state["summands"] = state.get("summands", 0) + len(sheaf.summands)
        state["unit_copies"] = state.get("unit_copies", 0) + sum(s.multiplicity for s in sheaf.summands)


def _cells(state: dict, args, result) -> None:
    state["cells"] = state.get("cells", 0) + len(result.cells)


def _levels(state: dict, args, result) -> None:
    state["levels"] = state.get("levels", 0) + len(result.levels)


COUNTERS = {"pair_keys": _pair_keys, "unit_copies": _unit_copies, "cells": _cells, "levels": _levels}


class Tracer:
    """Wraps the functions named in `spans` (entries of ``layers.json``)."""

    def __init__(self, spans: list):
        self.spans = spans
        self.names = ["op"] + [s["name"] for s in spans]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op_of = array("q")
        self.op_state: list = []  # counter state per op
        self._stack: list = []
        self._op = -1
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        try:
            for name_id, spec in enumerate(self.spans, start=1):
                counter = COUNTERS.get(spec.get("counter"))
                for target in spec["targets"]:
                    module, attr = target.split(":")
                    original = getattr(importlib.import_module(module), attr)
                    wrapper = self._wrap(original, name_id, counter)
                    for mod in _package_modules():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, key, original))
                                setattr(mod, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id: int, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None and self._op >= 0:
                counter(self.op_state[self._op], args, result)
            return result

        return wrapper

    @contextmanager
    def op(self):
        """Root span of one operation; layer spans inside it carry its id."""
        self._op = len(self.op_state)
        self.op_state.append({})
        idx = self._open(0)
        try:
            yield self._op
        finally:
            self._close(idx)
            self._op = -1

    def self_times(self) -> list:
        """Self time of every span: duration minus its children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return own

    def per_op(self) -> list:
        """For each op: calls and self seconds per span name, and its counters."""
        own = self.self_times()
        rows = [
            {"calls": dict.fromkeys(self.names[1:], 0), "self_s": dict.fromkeys(self.names[1:], 0.0)}
            for _ in self.op_state
        ]
        for i in range(len(own)):
            name_id, op = self.name[i], self.op_of[i]
            if name_id == 0 or op < 0:
                continue
            row = rows[op]
            row["calls"][self.names[name_id]] += 1
            row["self_s"][self.names[name_id]] += own[i]
        for row, state in zip(rows, self.op_state):
            row["counters"] = {
                "distinct_pairs": len(state.get("pair_keys", ())),
                "summands": state.get("summands", 0),
                "unit_copies": state.get("unit_copies", 0),
                "cells": state.get("cells", 0),
                "levels": state.get("levels", 0),
            }
        return rows

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (times in microseconds from the first) and `extra`."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = {
            "name": list(self.name),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op_of),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans, **extra}, fh)
