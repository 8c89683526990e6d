"""Run-time tracing of the program's layers, installed from outside the program.

`Tracer.install()` replaces each public function or method named in LAYERS
with a wrapper, in every loaded `qzeta` module that holds it (so re-imported
names such as pipeline's `vertex_trace` or cli's `decompose` are traced too).
Each wrapper records its call and its self time: its duration minus the time
covered by traced calls nested inside it.  Calls of the "span" layers are also
kept as spans (name, start, end, parent span, operation id); the hot ring
operators keep only counts and summed times, and `QSeries.__init__` only a
count, so that tracing stays affordable.
"""
from __future__ import annotations

import functools
import sys
import time

# (layer, module, attribute, kind); kind is "span", "hot" or "count"
LAYERS = (
    ("ring.mpoly_mul", "qzeta.ring", "MPoly.__mul__", "hot"),
    ("ring.qseries_mul", "qzeta.ring", "QSeries.__mul__", "hot"),
    ("ring.qseries_init", "qzeta.ring", "QSeries.__init__", "count"),
    ("ring.qseries_inverse", "qzeta.ring", "QSeries.inverse", "span"),
    ("ring.lambert_term", "qzeta.ring", "lambert_term", "hot"),
    ("ring.euler_pow", "qzeta.ring", "euler_pow", "span"),
    ("zeta.z_series", "qzeta.zeta", "z_series", "span"),
    ("zeta.bracket", "qzeta.zeta", "bracket", "span"),
    ("zeta.eval_named", "qzeta.zeta", "eval_named", "span"),
    ("zeta.eisenstein", "qzeta.zeta", "eisenstein", "span"),
    ("qmforms.decompose", "qzeta.qmforms", "decompose", "span"),
    ("qmforms.decompose_mpoly", "qzeta.qmforms", "decompose_mpoly", "span"),
    ("fock.vertex_trace", "qzeta.fock", "vertex_trace", "span"),
    ("fock.surface_trace", "qzeta.fock", "SurfaceTraceEngine.trace", "hot"),
    ("fock.chern_op", "qzeta.fock", "chern_op", "span"),
    ("fock.equiv_trace", "qzeta.fock", "EquivTraceEngine.trace", "hot"),
    ("fock.gamma_trace", "qzeta.fock", "gamma_trace", "span"),
    ("fock.bruteforce", "qzeta.fock", "fock_trace_bruteforce", "span"),
    ("fock.gamma_comm", "qzeta.fock", "gamma_commutation_check", "span"),
    ("pipeline.f_series_reduced", "qzeta.pipeline", "f_series_reduced", "span"),
    ("pipeline.ch1ch1_reduced", "qzeta.pipeline", "ch1ch1_reduced", "span"),
    ("pipeline.equiv_ch1ch1", "qzeta.pipeline", "equiv_ch1ch1", "span"),
    ("cli.main", "qzeta.cli", "main", "span"),
    ("cli.parse", "qzeta.cli", "parse", "span"),
    ("cli.evaluate", "qzeta.cli", "evaluate", "span"),
)

class Tracer:
    def __init__(self):
        self.totals = {layer: [0, 0.0] for layer, *_ in LAYERS}  # [calls, self_s]
        self.spans = []  # (id, name, start, end, parent id, op id, self_s)
        self.op = None
        self._stack = []  # per active timed call: [child time, span id]
        self._next_id = 0

    def install(self):
        """Wrap every layer's function in every loaded qzeta module."""
        for layer, module, attr, kind in LAYERS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = [m for name, m in list(sys.modules.items())
                           if name == "qzeta" or name.startswith("qzeta.")]
            wrapper = self._wrap(layer, original, kind)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    def _wrap(self, layer, fn, kind):
        cell = self.totals[layer]
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep = kind == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                cell[0] += 1
                cell[1] += own
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append((span_id, layer, start, end, parent, self.op, own))
        return timed

    def layer_metrics(self):
        """{"<layer>.calls": count, "<layer>.self_s": seconds} for every layer."""
        out = {}
        for layer, (calls, self_s) in self.totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        return out
