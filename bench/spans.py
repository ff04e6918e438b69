"""Spans around zinv's layers, recorded from outside the package.

The tracer replaces each public layer function by a timing wrapper at every
place it is bound: its own module (so calls inside that module are seen) and
every zinv module that imported it by name (closedform binds
factor_denominator and real_pfe, oracles binds invert and eval_sequence, cli
binds most of the rest). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# layer module -> public functions that get a span
LAYER_FUNCTIONS = {
    "parser": ("parse_rational_expr",),
    "factorize": ("factor_denominator", "find_roots", "cluster_and_pair"),
    "pfe": ("real_pfe", "complex_pfe_over_z"),
    "closedform": ("invert", "eval_sequence", "render"),
    "oracles": (
        "longdiv_series",
        "moreira_series",
        "juric_series",
        "residue_value",
        "compare_methods",
    ),
    "cli": ("main",),
}


class Tracer:
    """Records spans (id, name, start, end, parent id or -1, request id).

    A span is appended when it ends, as a tuple of atoms: the cyclic garbage
    collector stops scanning such tuples, so a long trace does not slow the
    traced program down.
    """

    def __init__(self):
        self.spans = []
        self.request = 0  # id given to spans; the caller sets it per request
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.request))

        return traced

    def install(self):
        """Wrap every layer function at every zinv import site."""
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"zinv.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "zinv" and not modname.startswith("zinv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """{span name: {"calls", "ms", "self_ms"}} summed over all spans."""
    totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for (_, name, start, end, _, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["ms"] += (end - start) * 1e3
        entry["self_ms"] += own * 1e3
    return dict(totals)
