"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: every
public layer function in LAYER_FUNCTIONS is replaced by a timing wrapper at
each binding site inside the frobsplit package.  A module that imported a
function by name (``density`` imports ``normalizer_census``) holds its own
binding, so each such binding is patched too.  FFElement multiplication and
addition are counted, not spanned.  uninstall() restores every binding, so
the untraced passes of a traced run execute the program unmodified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

LAYER_FUNCTIONS = {
    "frobsplit.cli": ("execute",),
    "frobsplit.groups": (
        "enumerate_group_packed",
        "normalizer_census",
        "torus_census",
        "regular_torus_count",
        "classify_element",
        "classify_element_oracle",
        "mat_charpoly",
    ),
    "frobsplit.intpoly": ("is_irreducible_mod", "factor_mod", "factor_over_Z", "max_power_structure"),
    "frobsplit.weil": ("weil_validate", "simplicity_certificate"),
    "frobsplit.density": (
        "density_product",
        "goursat_verify",
        "chebotarev_simulate",
        "random_generator_tuples",
    ),
}
COUNTED_METHODS = (("__mul__", "finfield.mul_calls"), ("__add__", "finfield.add_calls"))
SUBCOMMANDS = ("torus", "density", "cm-fraction", "simulate", "goursat", "weil", "nonspecial")

ENUM = "groups.enumerate_group_packed"
BUDGET = "BudgetExceeded"


def _layer_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Spans are lists [name, start, end, parent index, item, error type]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None  # stamped on every span opened while it is set
        self._stack = []
        self._enumerated = set()
        self._bindings = self._plan()

    def _plan(self):
        package = [m for n, m in sys.modules.items() if n == "frobsplit" or n.startswith("frobsplit.")]
        bindings = []
        for module, attrs in LAYER_FUNCTIONS.items():
            for attr in attrs:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(_layer_name(module, attr), original)
                for mod in package:
                    for name, value in vars(mod).items():
                        if value is original:
                            bindings.append((mod, name, original, wrapped))
        element = sys.modules["frobsplit.finfield"].FFElement
        for method, counter in COUNTED_METHODS:
            original = element.__dict__[method]
            bindings.append((element, method, original, self._count(counter, original)))
        return bindings

    def install(self) -> None:
        for owner, name, _, wrapped in self._bindings:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _count(self, counter, original):
        counts = self.counts

        def counted(a, b):
            counts[counter] += 1
            return original(a, b)

        return counted

    def _wrap(self, layer, original):
        spans, stack = self.spans, self._stack
        is_cli = layer == "cli.execute"
        is_enum = layer == ENUM

        def traced(*args, **kwargs):
            name = f"cli.{args[0].subcommand}" if is_cli else layer
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = type(exc).__name__
                raise
            else:
                span[2] = time.perf_counter()
            finally:
                stack.pop()
            if is_enum:
                self._observe_enumeration(args, kwargs, result)
            return result

        return traced

    def _observe_enumeration(self, args, kwargs, result) -> None:
        desc = args[0]
        key = (desc, args[1] if len(args) > 1 else kwargs.get("part", "full"))
        if key in self._enumerated:
            self.counts[f"{ENUM}.repeat_calls"] += 1
            return
        self._enumerated.add(key)
        self.counts[f"{ENUM}.candidates"] += desc.matrix_field.q ** (desc.matrix_dim**2)
        self.counts[f"{ENUM}.kept"] += len(result)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def layer_totals(spans, keep=lambda item: True) -> dict:
    """{span name: [calls, self seconds, budget exits]} over the spans whose
    item passes `keep`.  Self time is a span's duration minus that of its
    direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    totals = {}
    for span, child in zip(spans, covered):
        if keep(span[4]):
            entry = totals.setdefault(span[0], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += span[2] - span[1] - child
            entry[2] += span[5] == BUDGET
    return totals


def merge_totals(into: dict, more: dict) -> None:
    for name, (calls, self_s, budget) in more.items():
        entry = into.setdefault(name, [0, 0.0, 0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += budget


_CALLS_AND_TIME = (
    ENUM,
    "groups.normalizer_census",
    "groups.classify_element",
    "groups.mat_charpoly",
    "groups.classify_element_oracle",
    "intpoly.factor_mod",
    "intpoly.factor_over_Z",
    "weil.simplicity_certificate",
)
_TIME_ONLY = (
    "groups.torus_census",
    "groups.regular_torus_count",
    "intpoly.is_irreducible_mod",
    "intpoly.max_power_structure",
    "weil.weil_validate",
    "density.density_product",
    "density.goursat_verify",
    "density.chebotarev_simulate",
    "density.random_generator_tuples",
) + tuple(f"cli.{sub}" for sub in SUBCOMMANDS)
_COUNTS = (
    "finfield.mul_calls",
    "finfield.add_calls",
    f"{ENUM}.candidates",
    f"{ENUM}.kept",
    f"{ENUM}.repeat_calls",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {"cli.import_s": "s"}
for _name in _CALLS_AND_TIME:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
for _name in _TIME_ONLY:
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
for _name in _COUNTS:
    PER_LAYER_UNITS[_name] = "count"
PER_LAYER_UNITS[f"{ENUM}.useful_ratio"] = "ratio"
PER_LAYER_UNITS["groups.normalizer_census.budget_exits"] = "count"
PER_LAYER_UNITS["trace.overhead_frac"] = "frac"


def layer_metrics(totals: dict, counts) -> dict:
    """Per-layer values (all but cli.import_s and trace.overhead_frac) for
    one slice of the run; layers that never ran read 0."""
    out = {}
    for name in _CALLS_AND_TIME:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = self_s
    for name in _TIME_ONLY:
        out[f"{name}.s"] = totals.get(name, (0, 0.0, 0))[1]
    for name in _COUNTS:
        out[name] = counts.get(name, 0)
    candidates = counts.get(f"{ENUM}.candidates", 0)
    out[f"{ENUM}.useful_ratio"] = counts.get(f"{ENUM}.kept", 0) / candidates if candidates else 0.0
    out["groups.normalizer_census.budget_exits"] = totals.get("groups.normalizer_census", (0, 0.0, 0))[2]
    return out
