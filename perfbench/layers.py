"""Per-layer self time and counts for the traced run.

Layers are named after dld's modules.  Each is measured by wrapping its
public functions from outside, under the names the calling modules look
them up by (`dld.threads.effect`, `dld.reclaim.fgc`, ...), so the
program itself carries no tracing code.  A span's self time is its
duration minus the time of the spans it encloses; time in code that no
span covers stays with the enclosing span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, layer) for every function wrapped as a span; the
# module is the caller's, so the wrapper sees exactly the calls it makes
SPANS = (
    ("dld.cli", "parse_linkage", "parsing"),
    ("dld.cli", "parse_spec", "parsing"),
    ("dld.cli", "run", "threads.run"),
    ("dld.threads", "step_thread", "threads.step"),
    ("dld.threads", "effect", "semantics.effect"),
    ("dld.threads", "yield_", "semantics.yield"),
    ("dld.reclaim", "effect", "semantics.effect"),
    ("dld.reclaim", "yield_", "semantics.yield"),
    ("dld.threads", "fgc", "reclaim.fgc"),
    ("dld.reclaim", "fgc", "reclaim.fgc"),
    ("dld.checks", "fgc", "reclaim.fgc"),
    ("dld.reclaim", "rgc", "reclaim.rgc"),
    ("dld.checks", "rgc", "reclaim.rgc"),
    ("dld.reclaim", "safe_dispose", "reclaim.safe_dispose"),
    ("dld.threads", "effect_dldr", "reclaim.dispatch"),
    ("dld.threads", "yield_dldr", "reclaim.dispatch"),
    ("dld.refine", "effect_dldr", "reclaim.dispatch"),
    ("dld.refine", "yield_dldr", "reclaim.dispatch"),
    ("dld.refine", "effect_set_reclaim", "set_model.effect"),
    ("dld.refine", "yield_set_reclaim", "set_model.yield"),
    ("dld.refine", "retrieve", "refine.retrieve"),
    ("dld.checks", "check_commutation", "refine.check"),
    ("dld.checks", "rgc_one_at_a_time", "oracles"),
)
# generator functions: each resumption is a span
GENERATOR_SPANS = (
    ("dld.checks", "enumerate_states", "refine.enumerate"),
)


def _self_s(layer):
    return "s", lambda t: t.self_s[layer]


def _calls(*layers):
    return "count", lambda t: sum(t.calls[x] for x in layers)


def _links(layer):
    return "count", lambda t: t.links[layer]


def _useful_ratio(layer):
    return "ratio", lambda t: (t.useful[layer] / t.calls[layer]
                               if t.calls[layer] else 0.0)


# per-layer metric -> (unit, how it is read off a Tracer)
METRICS = {
    "parsing.self_s": _self_s("parsing"),
    "parsing.calls": _calls("parsing"),
    "linkage.build_calls": _calls("linkage.build"),
    "linkage.links_built": _links("linkage.build"),
    "linkage.render_s": _self_s("linkage.render"),
    "linkage.render_calls": _calls("linkage.render"),
    "linkage.links_rendered": _links("linkage.render"),
    "semantics.effect_s": _self_s("semantics.effect"),
    "semantics.effect_calls": _calls("semantics.effect"),
    "semantics.yield_s": _self_s("semantics.yield"),
    "semantics.yield_calls": _calls("semantics.yield"),
    "semantics.scan_calls": _calls("semantics.scan"),
    "semantics.links_scanned": _links("semantics.scan"),
    "reclaim.fgc_s": _self_s("reclaim.fgc"),
    "reclaim.fgc_calls": _calls("reclaim.fgc"),
    "reclaim.fgc_links_in": _links("reclaim.fgc"),
    "reclaim.fgc_useful_ratio": _useful_ratio("reclaim.fgc"),
    "reclaim.rgc_s": _self_s("reclaim.rgc"),
    "reclaim.rgc_calls": _calls("reclaim.rgc"),
    "reclaim.safe_dispose_s": _self_s("reclaim.safe_dispose"),
    "reclaim.safe_dispose_calls": _calls("reclaim.safe_dispose"),
    "reclaim.dispatch_s": _self_s("reclaim.dispatch"),
    "threads.step_s": _self_s("threads.step"),
    "threads.step_calls": _calls("threads.step"),
    "threads.run_s": _self_s("threads.run"),
    "set_model.effect_s": _self_s("set_model.effect"),
    "set_model.yield_s": _self_s("set_model.yield"),
    "set_model.calls": _calls("set_model.effect", "set_model.yield"),
    "refine.retrieve_s": _self_s("refine.retrieve"),
    "refine.retrieve_calls": _calls("refine.retrieve"),
    "refine.check_s": _self_s("refine.check"),
    "refine.enumerate_s": _self_s("refine.enumerate"),
    "oracles.self_s": _self_s("oracles"),
    "checks.self_s": _self_s("checks"),
    "cli.self_s": _self_s("cli"),
}


def _fgc_sizes(tracer, l, out):
    tracer.links["reclaim.fgc"] += len(l)
    tracer.useful["reclaim.fgc"] += len(out) < len(l)


def _render_sizes(tracer, l, out):
    tracer.links["linkage.render"] += len(l)


# layer -> what its span adds to the link counts, from its first
# argument (a linkage) and its result
_SIZES = {"reclaim.fgc": _fgc_sizes, "linkage.render": _render_sizes}


class Tracer:
    """Self time, calls and link counts per layer, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.links = Counter()
        self.useful = Counter()
        self._child = [0.0]  # time of enclosed spans, per open span

    def _open(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _close(self, layer, start):
        took = time.perf_counter() - start
        self.self_s[layer] += took - self._child.pop()
        self._child[-1] += took
        self.calls[layer] += 1

    def span(self, layer, fn):
        count = _SIZES.get(layer)

        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(layer, start)
            if count is not None:
                count(self, args[0], out)
            return out
        return wrapper

    def generator_span(self, layer, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(layer, start)
                yield item
        return wrapper

    def values(self) -> dict:
        return {name: read(self) for name, (_, read) in METRICS.items()}


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers on the loaded dld modules and yield the
    traced `dld.cli.main`; every original is restored on exit."""
    mod = importlib.import_module
    linkage, semantics = mod("dld.linkage"), mod("dld.semantics")
    suites = mod("dld.checks").SUITES
    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    for module, name, layer in SPANS:
        owner = mod(module)
        patch(owner, name, tracer.span(layer, getattr(owner, name)))
    for module, name, layer in GENERATOR_SPANS:
        owner = mod(module)
        patch(owner, name, tracer.generator_span(layer, getattr(owner, name)))
    originals = dict(suites)
    for suite, fn in originals.items():
        suites[suite] = tracer.span("checks", fn)

    build = linkage.DataLinkage.__init__

    def build_counted(self, *args, **kwargs):
        build(self, *args, **kwargs)
        tracer.calls["linkage.build"] += 1
        tracer.links["linkage.build"] += len(self.links)

    scan = semantics.Scan.__init__

    def scan_counted(self, l):
        tracer.calls["semantics.scan"] += 1
        tracer.links["semantics.scan"] += len(l.links)
        scan(self, l)

    patch(linkage.DataLinkage, "__init__", build_counted)
    patch(linkage.DataLinkage, "canonical_text",
          tracer.span("linkage.render", linkage.DataLinkage.canonical_text))
    patch(semantics.Scan, "__init__", scan_counted)
    try:
        yield tracer.span("cli", mod("dld.cli").main)
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
        suites.update(originals)
