"""Per-layer tracing of klingen from outside the program.

The tracer replaces public functions of the layers with timing wrappers,
wherever the name is bound (``from .x import y`` copies included), and
counts calls to the FqElem operators.  Only calls made while ``active`` is
set are recorded, so the benchmark's own checks never reach the trace.
``restore`` puts every original back.

A span is (name, start_ns, end_ns, parent index); a layer's self time is
its span's duration minus the time of the spans it caused.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, public name, span name)
SPANNED = (
    ("klingen.cli", "main", "cli.main"),
    ("klingen.dims", "dim_klingen", "dims.dim_klingen"),
    ("klingen.cosets", "enumerate_supp", "cosets.enumerate_supp"),
    ("klingen.cosets", "table1_brute_count", "cosets.brute"),
    ("klingen.cosets", "skew_brute_count", "cosets.brute"),
    ("klingen.chartab", "family_from_name", "chartab.family_from_name"),
    ("klingen.chartab", "dim_fixed_family", "chartab.dim_fixed_family"),
    ("klingen.chartab", "classify", "chartab.classify"),
    ("klingen.chartab", "dim_fixed", "chartab.dim_fixed"),
    ("klingen.groupfq", "named_subgroup", "groupfq.named_subgroup"),
    ("klingen.groupfq", "subgroup_closure", "groupfq.closure"),
    ("klingen.groupfq", "gsp_elem", "groupfq.gsp_elem"),
    ("klingen.groupfq", "conjugacy_classes", "groupfq.conjugacy_classes"),
    ("klingen.groupfq", "enumerate_gsp4", "groupfq.enumerate_gsp4"),
    ("klingen.dixon", "dixon_table", "dixon.table"),
    ("klingen.verify_lemmas", "verify_char_lemmas", "verify_lemmas.verify"),
    ("klingen.padic", "estimate_Rg", "padic.estimate_rg"),
)

FQ_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
)

# (metric, unit) in output order
PER_LAYER = (
    ("cli.main_ms", "ms"), ("cli.self_ms", "ms"),
    ("dims.dim_klingen_us", "us"), ("dims.calls", "count"),
    ("cosets.enumerate_supp_us", "us"),
    ("cosets.brute_ms", "ms"), ("cosets.brute_calls", "count"),
    ("ffield.elem_ops", "count"), ("ffield.elem_ops_per_classify", "ratio"),
    ("chartab.classify_us", "us"), ("chartab.classify_calls", "count"),
    ("chartab.dim_fixed_ms", "ms"),
    ("groupfq.named_subgroup_ms", "ms"),
    ("groupfq.closure_ms", "ms"), ("groupfq.closure_calls", "count"),
    ("groupfq.closure_elems", "count"), ("groupfq.closure_us_per_elem", "us"),
    ("groupfq.closure_useful_ratio", "ratio"),
    ("groupfq.gsp_elem_calls", "count"),
    ("groupfq.conjugacy_classes_ms", "ms"), ("groupfq.enumerate_gsp4_ms", "ms"),
    ("dixon.table_ms", "ms"),
    ("verify_lemmas.verify_ms", "ms"), ("verify_lemmas.self_ms", "ms"),
    ("padic.estimate_rg_ms", "ms"), ("padic.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._stack = []
        self._patched = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        counts = self.counts
        posts = {  # called on results of traced calls only
            "groupfq.closure": lambda sub: counts.update(closure_elems=sub.order),
            "padic.estimate_rg": lambda sub: counts.update(rg_final_elems=sub.order),
        }
        for modname, attr, span in SPANNED:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self._span(span, orig, posts.get(span)))
        fq = sys.modules["klingen.ffield"].FqElem
        for op in FQ_OPERATORS:
            orig = fq.__dict__[op]
            self._patched.append((fq, op, orig))
            setattr(fq, op, self._counter("elem_ops", orig))

    def _rebind(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "klingen" or name.startswith("klingen."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, post):
        spans, stack = self.spans, self._stack
        calls, total, own = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (name, t0, t1, parent)
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total[name] += dur
                own[name] += dur - frame[1]
            if post is not None:
                post(result)
            return result
        return wrapper

    # -- metrics --------------------------------------------------------------

    def metrics(self, rounds: int, overhead_pct: float) -> dict:
        """Per-layer metrics: `_ms` are totals per round, `_us` means per
        call, counts are per round, ratios name their base."""
        calls, total, own, counts = self.calls, self.total_ns, self.self_ns, self.counts

        def per_round_ms(span, table=total):
            return table[span] / 1e6 / rounds

        def per_call_us(span, table=total):
            return table[span] / 1e3 / calls[span] if calls[span] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "cli.main_ms": per_round_ms("cli.main"),
            "cli.self_ms": per_round_ms("cli.main", own),
            "dims.dim_klingen_us": per_call_us("dims.dim_klingen"),
            "dims.calls": calls["dims.dim_klingen"] / rounds,
            "cosets.enumerate_supp_us": per_call_us("cosets.enumerate_supp"),
            "cosets.brute_ms": per_round_ms("cosets.brute"),
            "cosets.brute_calls": calls["cosets.brute"] / rounds,
            "ffield.elem_ops": counts["elem_ops"] / rounds,
            "ffield.elem_ops_per_classify": ratio(counts["elem_ops"],
                                                  calls["chartab.classify"]),
            "chartab.classify_us": per_call_us("chartab.classify"),
            "chartab.classify_calls": calls["chartab.classify"] / rounds,
            "chartab.dim_fixed_ms": per_round_ms("chartab.dim_fixed"),
            "groupfq.named_subgroup_ms": per_round_ms("groupfq.named_subgroup"),
            "groupfq.closure_ms": per_round_ms("groupfq.closure"),
            "groupfq.closure_calls": calls["groupfq.closure"] / rounds,
            "groupfq.closure_elems": counts["closure_elems"] / rounds,
            "groupfq.closure_us_per_elem": ratio(total["groupfq.closure"] / 1e3,
                                                 counts["closure_elems"]),
            "groupfq.closure_useful_ratio": ratio(counts["rg_final_elems"],
                                                  counts["closure_elems"]),
            "groupfq.gsp_elem_calls": calls["groupfq.gsp_elem"] / rounds,
            "groupfq.conjugacy_classes_ms": per_round_ms("groupfq.conjugacy_classes"),
            "groupfq.enumerate_gsp4_ms": per_round_ms("groupfq.enumerate_gsp4"),
            "dixon.table_ms": per_round_ms("dixon.table"),
            "verify_lemmas.verify_ms": per_round_ms("verify_lemmas.verify"),
            "verify_lemmas.self_ms": per_round_ms("verify_lemmas.verify", own),
            "padic.estimate_rg_ms": per_round_ms("padic.estimate_rg"),
            "padic.self_ms": per_round_ms("padic.estimate_rg", own),
            "trace.overhead_pct": overhead_pct,
        }
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path) -> None:
        """One span per line: name, start_ns, end_ns, parent line (-1: none)."""
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0}\t{t1}\t{parent}\n")
