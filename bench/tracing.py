"""Span tracer for the in-process per-layer run.

The tracer works from outside the package: it replaces public ebitcalc
functions and methods with wrappers that record a span (name, start,
end, parent span, call id) and, where the layer has one, a work count
derived from the arguments or the result.  Spans stay in memory until
the run ends.  Nothing inside ``src`` knows about it.

A layer's self time is its span time minus the time of its child spans;
every ``<layer>_s`` metric is self time per CLI call, except
``classical.css_s``, which covers the whole CSS import (its arithmetic
is all gf2 child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _parse_bytes(args, result):
    return {"bytes": len(args[0])}


def _cells(args, result):
    return {"cells": args[0].rows * args[0].cols}


def _pairs(args, result):
    return {"pairs": result.ebits}


def _enum_vectors(args, result):
    return {"vectors": 2 ** args[0].rows}


def _cube(args, result):
    left, right = args
    return {"cube_bytes": left.rows * left.cols * right.cols}


def _laurent_input(args, result):
    m = args[0]
    exps = [
        e
        for i in range(m.rows)
        for j in range(m.cols)
        for e in (m.entry(i, j).min_exp(), m.entry(i, j).max_exp())
        if e is not None
    ]
    return {"cells": m.rows * m.cols, "span": max(exps) - min(exps) if exps else 0}


# (layer, module, attribute, work count); "Class.method" wraps a method.
LAYERS = [
    *(
        ("formats.parse", "formats", name, _parse_bytes)
        for name in (
            "parse_gf2",
            "parse_qcheck",
            "parse_gf4",
            "parse_qcheckd",
            "parse_cvcheck",
            "parse_conv_pair",
            "parse_conv_plain",
        )
    ),
    ("symplectic.check", "symplectic", "QuantumCheckMatrix.__post_init__", None),
    ("symplectic.product", "symplectic", "symplectic_product_table", None),
    ("symplectic.sgsop", "symplectic", "symplectic_gram_schmidt", _pairs),
    ("gf2.transpose", "gf2", "BinMatrix.transpose", None),
    ("gf2.matmul", "gf2", "BinMatrix.__matmul__", None),
    ("gf2.rank", "gf2", "rank", _cells),
    ("gf2.row_reduce", "gf2", "row_reduce", _cells),
    ("classical.css", "classical", "css_parameters", None),
    ("gf4.matmul", "gf4", "GF4Matrix.__matmul__", _cube),
    ("gf4.rank", "gf4", "gf4_rank", None),
    ("qudit.construct", "qudit", "ModMatrix.__init__", None),
    ("qudit.rank", "qudit", "mod_rank", None),
    ("cv.rank", "cv", "numerical_rank", None),
    ("laurent.product", "laurent", "shifted_symplectic_matrix", None),
    ("laurent.rank", "laurent", "laurent_rank", _laurent_input),
    ("verify.checks", "verify", "verify_code", None),
    ("verify.enum", "verify", "rank_by_span_enumeration", _enum_vectors),
]

# Per-layer metrics in report order: name -> unit.
METRICS = {
    "import.numpy_s": "s",
    "import.ebitcalc_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "formats.parse_s": "s",
    "formats.parse_mb_per_s": "MB/s",
    "symplectic.check_s": "s",
    "symplectic.product_s": "s",
    "gf2.transpose_s": "s",
    "gf2.matmul_s": "s",
    "gf2.rank_s": "s",
    "gf2.row_reduce_s": "s",
    "gf2.cells": "count",
    "symplectic.sgsop_s": "s",
    "symplectic.sgsop_pairs": "count",
    "verify.checks_s": "s",
    "verify.enum_s": "s",
    "verify.enum_vectors": "count",
    "laurent.product_s": "s",
    "laurent.rank_s": "s",
    "laurent.input_span": "count",
    "laurent.cells": "count",
    "gf4.matmul_s": "s",
    "gf4.rank_s": "s",
    "gf4.cube_mb": "MB",
    "classical.css_s": "s",
    "qudit.construct_s": "s",
    "qudit.rank_s": "s",
    "cv.rank_s": "s",
}


class Tracer:
    """Records nested spans under an open root span; idle otherwise."""

    def __init__(self):
        # Each span: [name, start, end, parent index or None, call id, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, call_id, fn, *args, count=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, call_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            record[5] = count(args, result)
        return result

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            call_id = tracer.spans[tracer._stack[0]][4]
            return tracer.span(name, call_id, fn, *args, count=count, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer function, in every ebitcalc module that binds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ebitcalc"]
        for layer, module, attr, count in LAYERS:
            owner = importlib.import_module(f"ebitcalc.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(layer, cls.__dict__[method], count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, target, key, value) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def to_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "call": c, "counts": k}
            for n, s, e, p, c, k in self.spans
        ]

    def layer_metrics(self, calls: int) -> dict[str, float]:
        """Per-call self times and work counts of the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        whole = defaultdict(float)
        sums = defaultdict(float)
        peaks = defaultdict(float)
        for i, (name, start, end, _, _, counts) in enumerate(self.spans):
            own[name] += end - start - child[i]
            whole[name] += end - start
            for key, value in (counts or {}).items():
                sums[name, key] += value
                peaks[name, key] = max(peaks[name, key], value)
        out = {
            f"{layer}_s": own[layer] / calls
            for layer, *_ in LAYERS
            if layer != "classical.css"
        }
        out["classical.css_s"] = whole["classical.css"] / calls
        parse_s = own["formats.parse"]
        out["formats.parse_mb_per_s"] = (
            sums["formats.parse", "bytes"] / 1e6 / parse_s if parse_s else 0.0
        )
        out["gf2.cells"] = (
            sums["gf2.rank", "cells"] + sums["gf2.row_reduce", "cells"]
        ) / calls
        out["symplectic.sgsop_pairs"] = sums["symplectic.sgsop", "pairs"] / calls
        out["verify.enum_vectors"] = sums["verify.enum", "vectors"] / calls
        out["laurent.input_span"] = peaks["laurent.rank", "span"]
        out["laurent.cells"] = sums["laurent.rank", "cells"] / calls
        out["gf4.cube_mb"] = peaks["gf4.matmul", "cube_bytes"] / 1e6
        return out


def import_times(stderr: str) -> tuple[float, float]:
    """(numpy, ebitcalc without numpy) cumulative seconds from -X importtime.

    ebitcalc imports numpy, so numpy's time is nested in ebitcalc's.
    """
    numpy_us = ebitcalc_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        # One space follows the bar; two more per level of nesting.
        cumulative, name = int(fields[1]), fields[2][1:]
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
        elif name.split(".")[0] == "ebitcalc" and not name.startswith(" "):
            ebitcalc_us += cumulative
    return numpy_us / 1e6, (ebitcalc_us - numpy_us) / 1e6
