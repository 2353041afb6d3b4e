"""Outside-in tracer for otfsftn sweeps.

The library is not edited: install() rebinds, in the modules that call them,
the names of the public functions listed in TARGETS to timing wrappers.
Each call becomes a span (id, name, parent, thread, start, end, ok) kept in
memory; each thread has its own span stack, so spans nest correctly under a
worker pool.  A span opened on an empty worker stack takes the open sweep
span as its parent.  A span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

TARGETS = {
    "channel": ("channel_for_config", "effective_channel"),
    "transforms": ("conjugate_by_dd",),
    "pulse": ("gram_matrix", "gram_dd"),
    "precoder": ("derive_subchannels", "hermitian_evd_desc", "waterfill", "finalize"),
    "link": (
        "bit_loading", "run_frame", "colored_noise", "transmit", "propagate", "receive",
        "hard_detect", "llr", "format_llr_records",
    ),
    "metrics": ("mi_sum", "ber_accumulate"),
    "harness": ("trial_rng",),
}
# modules whose global names are rebound; together they make every call
# between the traced functions
CALLERS = ("harness", "channel", "pulse", "precoder", "link")
SWEEP = "harness.sweep"
# per-call latency percentiles are kept for these
LATENCY = ("precoder.derive_subchannels", "channel.effective_channel")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _evd_size(args, kwargs, out):
    a = args[0] if args else kwargs["a"]
    return {"n3": float(a.shape[0]) ** 3}


def _floored(args, kwargs, out):
    return {"floored": int(out.floored)}


def _active(args, kwargs, out):
    gamma = out[0]
    return {"active": int((gamma > 0.0).sum()), "subchannels": int(gamma.size)}


def _loaded(args, kwargs, out):
    b = out.bits_per_symbol
    return {"loaded": int((b > 0).sum()), "subchannels": int(b.size)}


# counts read from arguments and return values, keyed by span name
COUNTERS = {
    "precoder.hermitian_evd_desc": _evd_size,
    "precoder.derive_subchannels": _floored,
    "precoder.waterfill": _active,
    "link.bit_loading": _loaded,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def wrap(self, name: str, fn, root: bool = False):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if root:
                self._root = sid
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    self._root = None
                self.spans.append((sid, name, parent, threading.get_ident(), start, end, ok))
            if count is not None:
                incr = count(args, kwargs, out)
                with self._lock:
                    for key, value in incr.items():
                        self.counts[name][key] += value
            return out

        return traced

    def install(self) -> None:
        """Rebind every TARGETS function in the CALLERS modules."""
        callers = [importlib.import_module(f"otfsftn.{m}") for m in CALLERS]
        for mod_name, fns in TARGETS.items():
            mod = importlib.import_module(f"otfsftn.{mod_name}")
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                traced = self.wrap(f"{mod_name}.{fn_name}", orig)
                for caller in callers:
                    for attr in [k for k, v in vars(caller).items() if v is orig]:
                        setattr(caller, attr, traced)

    def summary(self) -> dict:
        """Per span name: calls, errors, self_s; latency percentiles; counts."""
        children = defaultdict(list)
        for sid, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        stats = {name: {"calls": 0, "errors": 0, "self_s": 0.0} for name in SPAN_NAMES + (SWEEP,)}
        durations = defaultdict(list)
        for sid, name, _, _, start, end, ok in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["errors"] += 0 if ok else 1
            st["self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
            if name in LATENCY:
                durations[name].append(end - start)
        for name in LATENCY:
            d = durations[name]
            if len(d) >= 2:
                stats[name]["p50_ms"] = 1e3 * statistics.median(d)
                stats[name]["p90_ms"] = 1e3 * statistics.quantiles(d, n=10)[8]
            else:
                stats[name]["p50_ms"] = stats[name]["p90_ms"] = 1e3 * d[0] if d else 0.0
        return {"stats": stats, "counts": {k: dict(v) for k, v in self.counts.items()}}

    def write(self, path: str) -> None:
        keys = ("id", "name", "parent", "thread", "start", "end", "ok")
        with open(path, "w") as f:
            for span in sorted(self.spans, key=lambda s: s[4]):
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
