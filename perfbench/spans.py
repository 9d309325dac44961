"""Span tracing of fracquad's public call boundaries, installed from outside.

:class:`Tracer` replaces every public function of the seven fracquad modules
with a wrapper, in every module namespace that refers to it, so calls that
one layer makes into another (``fracquad.cli.frac_integral``,
``fracquad.derivative.frac_integral``, ``fracquad.oracle.lower_incomplete_gamma``
and so on) each record a span: name, layer, bucket, start, end and parent.
Spans stay in memory; :meth:`Tracer.self_times` turns them into per-layer
self times after the run, and ``Tracer.counts`` holds the size-derived
counts.  Nothing is installed unless a traced run asks for it, and
:meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("special", "weights", "quadrature", "derivative", "oracle",
          "dielectric", "cli")

#: Weight-family bucket of each generator in ``fracquad.weights``.
_WEIGHT_BUCKETS = {
    "gl_weights": "gl",
    "nc0_weights": "nc0",
    "flmm_weights": "flmm",
    "starting_weight_table": "starting",
    "starting_weight_row": "starting",
}

#: Quadrature entry points that evaluate a convolution, and how many samples
#: the convolution sees relative to the signal (the trapezoid rule convolves
#: the n - 1 panel averages).
_CONV_FUNCS = {"frac_integral": 0, "short_memory_integral": 0,
               "frac_trapezoid": 1}

#: Distinct special-function arguments kept for the mpmath comparison.
_MAX_SPECIAL_SAMPLES = 20_000


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def fft_size(n: int) -> int:
    """Transform length the seed's FFT path pads a length-``n`` signal to."""
    return 1 << (2 * n - 1).bit_length()


class Tracer:
    """Records spans at fracquad's public function boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.recorded = {"special": {}, "fit_residual": []}
        self.counts = {"mac_count": 0, "fft_in": 0, "fft_size": 0,
                       "weights_generated": 0, "weights_used": 0,
                       "integrand_evals": 0, "nodes": 0}
        quadrature = importlib.import_module("fracquad.quadrature")
        self.kahan_threshold = getattr(quadrature, "KAHAN_THRESHOLD", None)

    # ------------------------------------------------------------ install
    def install(self) -> None:
        if self._installed:
            return
        modules = [importlib.import_module("fracquad")] + [
            importlib.import_module(f"fracquad.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fracquad.{layer}")
            names = list(getattr(module, "__all__", ()))
            if layer == "cli" and "main" not in names:
                names.append("main")
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, layer: str, name: str):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket, size = tracer._classify(layer, name, args, kwargs)
            if layer == "oracle" and name == "brute_force_rl" and args:
                args = (tracer._counting(args[0]),) + tuple(args[1:])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, bucket, start, end, parent, size)
            tracer._record_result(layer, name, args, result)
            return result

        return wrapper

    def _counting(self, f):
        counts = self.counts

        def counted(u):
            counts["integrand_evals"] += 1
            return f(u)

        return counted

    def _classify(self, layer, name, args, kwargs):
        """Bucket and size of one call, computed from its arguments."""
        if layer == "weights":
            bucket = _WEIGHT_BUCKETS.get(name, "")
            if bucket in ("gl", "nc0"):
                n = int(_arg(args, kwargs, 2, "n"))
                self.counts["weights_generated"] += n
                return bucket, n
            if bucket == "flmm":
                n = int(_arg(args, kwargs, 4, "n"))
                self.counts["weights_generated"] += n
                return bucket, n
            return bucket, 0
        if layer != "quadrature":
            return "", 0
        signal = _arg(args, kwargs, 0, "signal")
        n = signal.grid.n
        self.counts["nodes"] += n
        if name == "frac_newton_cotes":
            return "panel", n
        if name not in _CONV_FUNCS:
            return "", n
        method = _arg(args, kwargs, 3 if name == "short_memory_integral"
                      else 2, "method", "direct")
        m = n - _CONV_FUNCS[name]
        if name == "frac_integral":
            weights = _arg(args, kwargs, 1, "weights")
            self.counts["weights_used"] += min(len(weights.values), m)
        elif name == "short_memory_integral":
            memory = int(_arg(args, kwargs, 2, "memory_length"))
            self.counts["weights_used"] += memory
        else:
            self.counts["weights_used"] += m
        if method == "fft":
            self.counts["fft_in"] += 2 * m - 1
            self.counts["fft_size"] += fft_size(m)
            return "fft", n
        if name == "short_memory_integral":
            memory = int(_arg(args, kwargs, 2, "memory_length"))
            macs = memory * (memory + 1) // 2 + (m - memory) * memory
        else:
            macs = m * (m + 1) // 2
        self.counts["mac_count"] += macs
        if self.kahan_threshold is not None and m > self.kahan_threshold:
            return "direct_long", n
        return "direct", n

    def _record_result(self, layer, name, args, result):
        if layer == "special" and name in ("gamma", "lower_incomplete_gamma"):
            seen = self.recorded["special"].setdefault(name, {})
            if len(seen) < _MAX_SPECIAL_SAMPLES:
                seen[tuple(float(a) for a in args)] = result
        elif name == "verify_universal_ratio":
            self.recorded["fit_residual"].append(float(result.fit_residual))

    # ------------------------------------------------------------ summary
    def self_times(self):
        """Per-(layer, bucket) self time, calls, and the top-level total.

        A span's self time is its duration minus the durations of its
        direct children; children never overlap in this single-threaded
        process, so that is the time no child span covers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_total = 0.0
        for name, layer, bucket, start, end, parent, size in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_total += end - start
        out: dict[tuple[str, str], list] = {}
        for i, (name, layer, bucket, start, end, parent, size) in \
                enumerate(spans):
            own = (end - start) - child_time[i]
            for key in ((layer, ""), (layer, bucket)) if bucket else \
                    ((layer, ""),):
                cell = out.setdefault(key, [0.0, 0])
                cell[0] += own
                cell[1] += 1
        return out, top_total

    def span_records(self):
        return [list(s) for s in self.spans]


def pad_ratio(counts) -> float:
    """Useful outputs (2N - 1 per call) over transform points, FFT path."""
    if counts["fft_size"] == 0:
        return 0.0
    return counts["fft_in"] / counts["fft_size"]


def used_ratio(counts) -> float:
    if counts["weights_generated"] == 0:
        return 0.0
    return counts["weights_used"] / counts["weights_generated"]
