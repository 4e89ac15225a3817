"""Spans around comfnet's public functions, recorded from outside.

``install`` finds each traced function in its home module and replaces it
in every comfnet module that holds it, since ``hicom``, ``oracle`` and
``cli`` import names by value. Calls are recorded as spans with a parent:
repeated calls of one name under the same parent span are merged into one
record that keeps the call count, so a million subset profiles cost one
record, not a million. A name a later refactor removes is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _members(args):
    return len(args[1])


def _vertices(args):
    return args[0].n


#: (home module, attribute) -> extra counter weighed from the call's
#: arguments. SubsetEvaluator.profile is patched on the class itself.
TRACED = {
    ("comfnet.graphs", "parse_edge_list"): None,
    ("comfnet.graphs", "all_pairs_distances"): ("graphs.bfs_sources", _vertices),
    ("comfnet.graphs", "eccentricity_profile"): None,
    ("comfnet.criteria", "induced_metrics"): ("criteria.induced_bfs_sources", _members),
    ("comfnet.criteria", "domination_radius"): None,
    ("comfnet.criteria", "check_hc"): None,
    ("comfnet.criteria", "SubsetEvaluator.profile"): None,
    ("comfnet.hicom", "hicom"): None,
    ("comfnet.hicom", "extend_step"): None,
    ("comfnet.hicom", "repair"): None,
    ("comfnet.hicom", "verify_k_bound"): None,
    ("comfnet.oracle", "exact_min_team"): None,
    ("comfnet.oracle", "exact_max_team"): None,
    ("comfnet.oracle", "exact_min_cds"): None,
    ("comfnet.cli", "_emit"): None,
}


@dataclass
class Record:
    """Merged calls of one name under one parent span."""

    id: int
    parent: int | None
    name: str
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass
class Tracer:
    records: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    installed: set = field(default_factory=lambda: {"cli.run"})
    _index: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def enter(self, name, parent_key=None):
        parent = self._stack[-1][0].id if self._stack else None
        key = (parent if parent_key is None else parent_key, name)
        record = self._index.get(key)
        if record is None:
            record = Record(len(self.records), parent, name)
            self.records.append(record)
            self._index[key] = record
        self._stack.append([record, time.perf_counter(), 0.0])

    def exit(self):
        record, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        record.calls += 1
        record.total_s += duration
        record.child_s += child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def op(self, op_id, fn, *args):
        """Run one op under its own root span 'cli.run'."""
        self.enter("cli.run", parent_key=("op", op_id))
        try:
            return fn(*args)
        finally:
            self.exit()

    def _wrap(self, fn, name, weigh):
        def traced(*args, **kwargs):
            if weigh is not None:
                self.count(weigh[0], weigh[1](args))
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        comfnet = [m for key, m in sys.modules.items() if key == "comfnet" or key.startswith("comfnet.")]
        for (home, attr), weigh in TRACED.items():
            name = f"{home.split('.')[1]}.{attr.split('.')[-1]}"
            owner = sys.modules.get(home)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.absent.append(name)
                    continue
                original = vars(cls)[method]
                self.installed.add(name)
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, weigh))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, weigh)
            self.installed.add(name)
            for module in comfnet:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def totals(self):
        """name -> (calls, self seconds) summed over every record."""
        out = {}
        for r in self.records:
            calls, seconds = out.get(r.name, (0, 0.0))
            out[r.name] = (calls + r.calls, seconds + r.self_s)
        return out

    def to_json(self):
        return {
            "spans": [
                {"id": r.id, "parent": r.parent, "name": r.name, "calls": r.calls,
                 "total_s": r.total_s, "self_s": r.self_s}
                for r in self.records
            ],
            "counts": self.counts,
            "absent": self.absent,
        }
