"""Per-layer spans for an in-process replay of kneading commands.

A layer is one module of the package.  ``Tracer.install()`` wraps every public
function of each layer and every public method of the classes the layer
defines (a private class's instances are handed out as public stream types, so
its public methods count too), and rebinds each wrapped function wherever a
``kneading`` module binds it: module globals, including names imported
directly (``cli`` does ``from .cfrac import cf_table``), and module-level
dicts.  ``uninstall()`` restores every binding.  The package is not modified
on disk and has no hooks of its own; all timing happens here.

A span records (layer, name, start, end, parent, ok).  Each thread keeps its
own span stack; a thread started inside a command (``reproduce`` starts one
per target) parents its spans to that command's open ``cli.main`` span.  A
layer's self time is the sum, over its spans, of the span's duration minus
the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "kneading"
LAYERS = ("cli", "symbolic", "encoding", "feigenbaum", "cfrac", "spectral",
          "language", "frequency", "dynamics")

# the one work count each layer reports where one exists
WORK_COUNTS = {
    "cli": "out_bytes",
    "symbolic": "symbols",
    "encoding": "digits",
    "feigenbaum": "digit_calls",
    "cfrac": "quotients",
    "spectral": "coeffs",
    "language": "words_counted",
    "frequency": "symbols_scanned",
    "dynamics": "orbit_steps",
}


def _count(counts, layer, name, args, kwargs, result):
    """Work done by one completed public call, added to ``counts``."""
    method = name.rsplit(".", 1)[-1]
    if name == "entropy":
        counts["spectral.entropy_certified"] += 1
    elif layer in ("symbolic", "encoding") and method == "prefix":
        counts[f"{layer}.{WORK_COUNTS[layer]}"] += len(result)
    elif layer == "encoding" and name == "xi" and hasattr(result, "period"):
        counts["encoding.digits"] += len(result.preperiod) + len(result.period)
    elif name == "tau_infinity_digit":
        counts["feigenbaum.digit_calls"] += 1
    elif name == "cf_of_rational":
        counts["cfrac.quotients"] += len(result.quotients)
    elif name == "cf_of_enclosure":
        counts["cfrac.quotients"] += len(result)
    elif layer == "spectral":
        if hasattr(result, "coefficients"):
            counts["spectral.coeffs"] += len(result.coefficients)
        elif hasattr(result, "per_counts"):
            counts["spectral.coeffs"] += len(result.per_counts) + len(result.prime_counts)
    elif name == "complexity":
        counts["language.words_counted"] += sum(result)
    elif name == "language_words":
        counts["language.words_counted"] += sum(len(v) for v in result.values())
    elif name == "forbidden_words":
        counts["language.words_counted"] += len(result)
    elif name == "empirical_frequencies":
        counts["frequency.symbols_scanned"] += args[2] if len(args) > 2 else kwargs["N"]
    elif name == "itinerary":
        counts["dynamics.orbit_steps"] += args[2] if len(args) > 2 else kwargs["n"]
    elif name == "lemma1_validate":
        counts["dynamics.pairs_tested"] += result.pairs_tested
        counts["dynamics.pairs_decided"] += result.pairs_decided


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._local = threading.local()
        self._request = None          # open cli.main span of the current command
        self._restore = []            # (owner, name, original) in install order
        self._lock = threading.Lock()

    # ------------------------------------------------------------- spans

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, layer, name, fn):
        spans, counts, tracer, lock = self.spans, self.counts, self, self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._request
            with lock:
                idx = len(spans)
                spans.append(None)
                if name == "entropy":
                    counts["spectral.entropy_attempts"] += 1
            if not stack and parent is None:
                tracer._request = idx
            stack.append(idx)
            ok = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ok = False
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent, ok)
                if idx == tracer._request:
                    tracer._request = None
            if layer == "cli" and result:
                spans[idx] = (layer, name, start, end, parent, False)
            with lock:
                _count(counts, layer, name, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------ installation

    def install(self):
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped = {}      # original function -> wrapper
        methods = []      # (class, attribute, original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and not inspect.isclass(obj):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr in dir(obj):
                        if attr.startswith("_"):
                            continue
                        raw = inspect.getattr_static(obj, attr)
                        if inspect.isfunction(raw):
                            methods.append((obj, attr, raw, self._wrap(
                                layer, f"{obj.__name__}.{attr}", raw)))
        # originals are all looked up before any class is patched, so a
        # subclass never wraps its base class's wrapper
        for cls, attr, raw, wrapper in methods:
            self._restore.append((cls, attr, cls.__dict__.get(attr, _ABSENT)))
            setattr(cls, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._restore.append((obj, k, v))
                            obj[k] = wrapped[v]

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            elif original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        """<layer>.self_s, .calls, .failed and work counts over all spans so far."""
        spans = self.spans
        children = defaultdict(list)
        for i, sp in enumerate(spans):
            if sp[4] is not None:
                children[sp[4]].append(i)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.failed"] = 0
            out[f"{layer}.{WORK_COUNTS[layer]}"] = self.counts.get(
                f"{layer}.{WORK_COUNTS[layer]}", 0)
        for i, (layer, name, start, end, parent, ok) in enumerate(spans):
            kids = children.get(i)
            covered = _union(start, end, [spans[c][2:4] for c in kids]) if kids else 0.0
            out[f"{layer}.self_s"] += end - start - covered
            out[f"{layer}.calls"] += 1
            # a failure counts where it leaves the layer (cli: non-zero exit)
            if not ok and (parent is None or spans[parent][0] != layer):
                out[f"{layer}.failed"] += 1
        return out

    def ratios(self) -> dict:
        c = self.counts
        return {
            "spectral.entropy_certified_frac":
                c["spectral.entropy_certified"] / c["spectral.entropy_attempts"]
                if c["spectral.entropy_attempts"] else 0.0,
            "dynamics.decided_frac":
                c["dynamics.pairs_decided"] / c["dynamics.pairs_tested"]
                if c["dynamics.pairs_tested"] else 0.0,
        }


_ABSENT = object()


def _union(lo, hi, intervals) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
