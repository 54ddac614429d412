"""Span tracer that wraps the program's functions from outside.

``Tracer.install`` replaces each named function with a timing wrapper in
every module of the package that holds a reference to it, so calls made
from inside the package are seen too.  ``uninstall`` puts the originals
back.  A function the program no longer has is skipped, and its metrics
read 0.

Each span is (name, start_ns, end_ns, parent index, operation id).  Self
time is a span's duration minus the durations of its direct children.  The
spans of one operation are folded into per-name totals when the operation
ends; the raw spans are kept in memory up to ``KEEP_SPANS`` and written out
by ``write``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute); the module is relative to the package
WRAPPED = (
    ("states.moments", "states", "moments"),
    ("states.fock_amplitudes", "states", "fock_amplitudes"),
    ("qcrb.closed_form", "qcrb", "qcrb_closed_form"),
    ("qcrb.mean_total_photons", "qcrb", "mean_total_photons"),
    ("families.solve", "families", "solve_param_for_nbar"),
    ("families.compare", "families", "compare_families_at_nbar"),
    ("families.sweep", "families", "escs_sweep_r_prime"),
    ("circuit.inject", "circuit", "inject"),
    ("circuit.elements", "circuit", "apply_element"),
    ("circuit.post_select", "circuit", "post_select"),
    ("circuit.decompose", "circuit", "_noonlike_decomposition"),
    ("cli.main", "cli", "main"),
)

PACKAGE = "noonlike"
PACKAGE_MODULES = ("states", "qcrb", "families", "circuit", "cli")
KEEP_SPANS = 200_000


def _entries(obj, path: str) -> int:
    """Number of stored Fock entries of a simulator state, 0 if unknown."""
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    try:
        return len(obj)
    except TypeError:
        return 0


# counters read off a wrapped function's result: span name -> (counter, attribute path)
RESULT_COUNTERS = {
    "circuit.inject": ("circuit.fock_entries.injected", "amps"),
    "circuit.elements": ("circuit.fock_entries.carried", "amps"),
    "circuit.post_select": ("circuit.fock_entries.kept", "state.amps"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._op_spans: list[list] = []
        self.op_id = -1
        self.ops = 0
        self.kept: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.total_ns: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.solves_with_evals = 0
        self.solve_evals = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ---------------------------------------------------------------- wrapping
    def install(self) -> None:
        """Wrap every function in WRAPPED that the program still has."""
        modules = [sys.modules[f"{PACKAGE}.{m}"] for m in PACKAGE_MODULES]
        modules.append(sys.modules[PACKAGE])
        for name, mod, attr in WRAPPED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = RESULT_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._op_spans
            idx = len(spans)
            record = [nid, 0, 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[1] = start
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += _entries(out, counter[1])
            return out

        return wrapper

    # -------------------------------------------------------------- operations
    def begin_op(self, op_id: int) -> None:
        """Open the root span "op"; calls until close_op become its children."""
        self.op_id = op_id
        self._op_spans = [[self._name_id("op"), 0, 0, -1]]
        self._stack[:] = [0]

    def close_op(self, start_ns: int, end_ns: int) -> None:
        """Close the root span with the times the caller measured."""
        self._op_spans[0][1:3] = start_ns, end_ns
        self._stack.clear()

    def end_op(self, factor: float = 1.0) -> None:
        """Fold the operation's spans into the totals; keep them if room is left.

        ``factor`` scales the operation's times to the reference speed (see
        speed.py) before they are added; the kept spans stay as measured.
        """
        spans = self._op_spans
        child_ns = [0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        solve_id = self._name_ids.get("families.solve")
        evals_id = self._name_ids.get("qcrb.mean_total_photons")
        evals_per_solve: dict[int, int] = defaultdict(int)
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            self.calls[name] += 1
            self.self_ns[name] += (end - start - child_ns[i]) * factor
            self.total_ns[name] += (end - start) * factor
            if nid == evals_id and parent >= 0 and spans[parent][0] == solve_id:
                evals_per_solve[parent] += 1
        self.solves_with_evals += len(evals_per_solve)
        self.solve_evals += sum(evals_per_solve.values())
        room = KEEP_SPANS - len(self.kept)
        base = len(self.kept)
        for nid, start, end, parent in spans[: max(room, 0)]:
            self.kept.append((self.names[nid], start, end, parent + base if parent >= 0 else -1, self.op_id))
        self.dropped += max(len(spans) - max(room, 0), 0)
        self.ops += 1
        self._op_spans = []

    # ----------------------------------------------------------------- results
    def per_op(self, name: str) -> tuple[float, float, float]:
        """(calls, self ms, total ms) of one span name per operation."""
        ops = max(self.ops, 1)
        return (
            self.calls.get(name, 0) / ops,
            self.self_ns.get(name, 0) / 1e6 / ops,
            self.total_ns.get(name, 0) / 1e6 / ops,
        )

    def nbar_evals_per_solve(self) -> float:
        """Balanced-n_bar evaluations per solve that made any."""
        return self.solve_evals / self.solves_with_evals if self.solves_with_evals else 0.0

    def write(self, path: Path) -> None:
        """Write the kept spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "kept": len(self.kept), "dropped": self.dropped}) + "\n")
            for span in self.kept:
                fh.write(json.dumps(span) + "\n")
