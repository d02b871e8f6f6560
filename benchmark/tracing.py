"""Outside-in tracing for the traced benchmark run.

`install()` replaces entry points of the `mumimo` modules with wrappers that
record one span (label, start, end, parent) per call, plus the names that
`closedform`, `sinrdist` and `cli` imported from other modules, since those
modules call the imported copies.  Spans stay in memory and are turned into
per-layer metrics at the end.  The untraced run never imports this module,
so it runs with no wrapper installed.
"""

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span label).  Labels that share a layer metric are
# summed by `layer_metrics`.
ENTRY_POINTS = [
    ("closedform", "rate_exact", "closedform.rate"),
    ("closedform", "rate_lower_bound", "closedform.rate_bound"),
    ("closedform", "outage_exact", "closedform.outage"),
    ("closedform", "outage_small_threshold", "closedform.outage"),
    ("closedform", "ser_exact", "closedform.ser"),
    ("closedform", "ser_approx", "closedform.ser"),
    ("closedform", "ser_high_snr", "closedform.ser"),
    ("closedform", "_ei_moment_closed", "specfun.ei_moment"),
    ("closedform", "ei_moment_quadrature", "specfun.ei_moment.quadrature"),
    ("closedform", "tricomi_u", "specfun.tricomi_u"),
    ("closedform", "_log_moment_normalized", "specfun.log_moment"),
    ("closedform", "mgf_sinr", "sinrdist.mgf"),
    ("closedform", "mgf_sinr_high_snr", "sinrdist.mgf"),
    ("sinrdist", "hyp2f0_neg", "specfun.hyp2f0_neg"),
    ("sinrdist", "expint_en_scaled", "specfun.expint"),
    # every integral, semi-infinite ones included, goes through integrate
    ("quadrature", "integrate", "quadrature"),
    ("closedform", "integrate", "quadrature"),
    ("fading", "build_profile", "fading.profile"),
    ("fading", "characteristic_coefficients", "fading"),
    ("asymptotic", "power_scaled_limit_rate", "asymptotic"),
    ("montecarlo", "estimate_rate", "montecarlo"),
    ("montecarlo", "estimate_ser", "montecarlo"),
    ("montecarlo", "estimate_outage", "montecarlo"),
    ("cellnet", "rate_distribution", "cellnet"),
    ("cellnet", "net_rate_samples", "cellnet"),
]
CLI_ENTRY_POINTS = [
    ("cli", "main", "cli"),
    ("cli", "build_profile", "fading.profile"),
    ("cli", "characteristic_coefficients", "fading"),
]

# layer metric -> span labels whose self time it sums
SELF_TIME = {
    "specfun.ei_moment": ("specfun.ei_moment",
                          "specfun.ei_moment.quadrature"),
    "specfun.tricomi_u": ("specfun.tricomi_u",),
    "specfun.log_moment": ("specfun.log_moment",),
    "specfun.hyp2f0_neg": ("specfun.hyp2f0_neg",),
    "specfun.expint": ("specfun.expint",),
    "closedform.rate": ("closedform.rate",),
    "closedform.rate_bound": ("closedform.rate_bound",),
    "closedform.outage": ("closedform.outage",),
    "closedform.ser": ("closedform.ser",),
    "sinrdist.mgf": ("sinrdist.mgf",),
    "asymptotic": ("asymptotic",),
    "quadrature": ("quadrature",),
    "fading": ("fading", "fading.profile"),
    "cli": ("cli",),
    "montecarlo": ("montecarlo",),
    "cellnet": ("cellnet",),
}
# layer call-count metric -> span label it counts
CALLS = {
    "specfun.ei_moment.calls": "specfun.ei_moment",
    "specfun.ei_moment.quadratures": "specfun.ei_moment.quadrature",
    "specfun.tricomi_u.calls": "specfun.tricomi_u",
    "specfun.log_moment.calls": "specfun.log_moment",
    "specfun.hyp2f0_neg.calls": "specfun.hyp2f0_neg",
    "specfun.expint.calls": "specfun.expint",
    "closedform.rate.calls": "closedform.rate",
    "closedform.outage.calls": "closedform.outage",
    "closedform.ser.calls": "closedform.ser",
    "sinrdist.mgf.calls": "sinrdist.mgf",
    "quadrature.integrals": "quadrature",
    "fading.expansions": "fading",
}


class Tracer:
    """Spans kept in memory; a span's parent is the innermost open span of
    its thread, or `root` for the outermost span of a pool thread."""

    def __init__(self):
        self.spans = []          # (id, label, start, end, parent id)
        self.events = Counter()  # QualityLog events by site, gk15 panels
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key):
        with self._lock:
            self.events[key] += 1

    def wrap(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = next(self._ids)
            if parent is None and self.root is None:
                self.root = sid  # outermost span: pool threads attach here
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if self.root == sid:
                    self.root = None
                self.spans.append((sid, label, start, end, parent))
        return traced


def install(tracer, with_cli=False):
    """Wrap every entry point; return the tracer."""
    points = ENTRY_POINTS + (CLI_ENTRY_POINTS if with_cli else [])
    wrapped = {}  # one wrapper per function, whatever name it is bound to
    for module, attr, label in points:
        mod = importlib.import_module(f"mumimo.{module}")
        fn = getattr(mod, attr)
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(fn, label)
        setattr(mod, attr, wrapped[id(fn)])

    quadrature = importlib.import_module("mumimo.quadrature")
    gk15 = quadrature._gk15

    def counted_gk15(*args):
        tracer.count("quadrature.panels")
        return gk15(*args)

    quadrature._gk15 = counted_gk15

    closedform = importlib.import_module("mumimo.closedform")
    flag = closedform.QualityLog.flag

    def counted_flag(log, message):
        site = message.split("(", 1)[0].split(":", 1)[0]
        tracer.count(f"quality.{site}")
        return flag(log, message)

    closedform.QualityLog.flag = counted_flag
    return tracer


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time per label: each span's duration minus the part of it that
    its child spans cover (children of pool threads may overlap)."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for sid, label, start, end, _ in spans:
        out[label] += (end - start) - _covered(children.get(sid, ()),
                                               start, end)
    return out


def layer_metrics(spans, events):
    """Per-layer self times and call counts from one set of spans."""
    selfs = self_times(spans)
    calls = Counter(label for _, label, _, _, _ in spans)
    out = {f"{layer}.self_s": sum(selfs.get(lb, 0.0) for lb in labels)
           for layer, labels in SELF_TIME.items()}
    out.update({metric: calls[label] for metric, label in CALLS.items()})
    out["quadrature.panels"] = events.get("quadrature.panels", 0)
    out["sinrdist.mgf.fallbacks"] = (events.get("quality.mgf_sinr", 0)
                                     + events.get("quality.mgf_sinr_high_snr",
                                                  0))
    return out
