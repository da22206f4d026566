"""Spans and counters around dpcheck's public functions, for the traced run.

Each wrapper is installed where its caller looks the name up (patching
``dpcheck.rnm.laplace_cdf`` changes what ``rnm_prob_exact`` calls;
patching ``dpcheck.laplace.laplace_cdf`` alone would change nothing).
Coarse boundaries record spans (name, start, end, parent) into flat arrays
that stay in memory until the run ends; the scalar Laplace kernels, called
millions of times, only count.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
from array import array
from time import perf_counter

# (span name, module the caller looks it up in, attribute), for the paths
# the benchmark's workloads take
SPANS = [
    ("cli.main", "dpcheck.cli", "main"),
    ("mechanisms.check_dp_laplace", "dpcheck.cli", "check_dp_laplace"),
    ("mechanisms.check_dp_statistical", "dpcheck.cli", "check_dp_statistical"),
    ("rnm.verify", "dpcheck.cli", "verify_rnm_dp_finer"),
    ("rnm.prob_exact", "dpcheck.rnm", "rnm_prob_exact"),
    ("quadrature.integrate_piecewise", "dpcheck.rnm", "integrate_piecewise"),
    ("quadrature.integrate_piecewise", "dpcheck.divergence", "integrate_piecewise"),
    ("divergence.laplace_pair", "dpcheck.mechanisms", "divergence_laplace_pair"),
    ("divergence.estimate_events", "dpcheck.mechanisms", "estimate_events"),
    ("divergence.clopper_pearson", "dpcheck.divergence", "clopper_pearson"),
    ("divergence.event_build", "dpcheck.mechanisms", "label_subset_events"),
    ("divergence.event_build", "dpcheck.mechanisms", "coordinate_interval_events"),
    ("datasets.pairs_within_distance", "dpcheck.cli", "pairs_within_distance"),
    ("datasets.pairs_within_distance", "dpcheck.rnm", "pairs_within_distance"),
    ("laplace.sample_block", "dpcheck.mechanisms", "laplace_sample_block"),
    ("laplace.sample_block", "dpcheck.rnm", "laplace_sample_block"),
]
COUNTS = [
    ("laplace.cdf.calls", "dpcheck.rnm", "laplace_cdf"),
    ("laplace.pdf.calls", "dpcheck.rnm", "laplace_pdf"),
    ("laplace.pdf.calls", "dpcheck.divergence", "laplace_pdf"),
    ("rnm.pmf_misses", "dpcheck.rnm", "rnm_pmf"),
]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters = {name: itertools.count() for name, _, _ in COUNTS}
        self.totals = dict.fromkeys(
            ("cells", "events", "pairs_out", "pmf_requests", "draws", "segments",
             "integrand_evals", "budget_exhausted"),
            0,
        )
        self._saved = []

    def __enter__(self):
        for name, module, attr in SPANS:
            self._patch(module, attr, self._span(name, self._post(name, module)))
        for name, module, attr in COUNTS:
            self._patch(module, attr, self._count(self.counters[name]))
        self._patch("dpcheck.quadrature", "adaptive_simpson", self._simpson)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def _span(self, name, post):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(self._stack[-1] if self._stack else -1)
                self.span_end.append(0.0)
                self._stack.append(idx)
                self.span_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.span_end[idx] = perf_counter()
                    self._stack.pop()
                if post is not None:
                    post(args, kwargs, result)
                return result

            return wrapper

        return make

    def _post(self, name, module):
        totals = self.totals

        def add(key, value):
            totals[key] += value

        if name == "rnm.verify":
            return lambda a, kw, result: add("cells", len(result.rows))
        if name == "divergence.event_build":
            return lambda a, kw, result: add("events", len(result))
        if name == "laplace.sample_block":
            return lambda a, kw, result: add("draws", len(result))
        if name == "datasets.pairs_within_distance":
            if module == "dpcheck.rnm":
                # verify_rnm_dp_finer asks its pmf cache twice per pair
                def pairs_for_rnm(a, kw, result):
                    add("pairs_out", len(result))
                    add("pmf_requests", 2 * len(result))

                return pairs_for_rnm
            return lambda a, kw, result: add("pairs_out", len(result))
        return None

    @staticmethod
    def _count(counter):
        def make(fn):
            tick = counter.__next__

            def wrapper(*args):
                tick()
                return fn(*args)

            return wrapper

        return make

    def _simpson(self, fn):
        default = inspect.signature(fn).parameters["max_evals"].default
        span = self._span("quadrature.adaptive_simpson", None)(fn)
        totals = self.totals

        def wrapper(f, a, b, tol, max_evals=default):
            evals = itertools.count()
            tick = evals.__next__

            def counted(x):
                tick()
                return f(x)

            result = span(counted, a, b, tol, max_evals)
            used = next(evals)
            totals["segments"] += 1
            totals["integrand_evals"] += used
            # three initial points, then two per refinement while the budget lasts
            if used >= 3 + 2 * (max_evals // 2):
                totals["budget_exhausted"] += 1
            return result

        return wrapper

    def count(self, name: str) -> int:
        # next() on an itertools.count returns how many ticks came before
        return next(self.counters[name])

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return total, own


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics: name -> (value, unit)."""
    total, own = tracer.times()
    t = tracer.totals
    cdf = tracer.count("laplace.cdf.calls")
    pdf = tracer.count("laplace.pdf.calls")
    misses = tracer.count("rnm.pmf_misses")
    counts = {
        "rnm.prob_exact.calls": _calls(tracer, "rnm.prob_exact"),
        "rnm.verify.cells": t["cells"],
        "quadrature.segments": t["segments"],
        "quadrature.integrand_evals": t["integrand_evals"],
        "quadrature.budget_exhausted": t["budget_exhausted"],
        "laplace.cdf.calls": cdf,
        "laplace.pdf.calls": pdf,
        "laplace.sample_block.draws": t["draws"],
        "divergence.laplace_pair.calls": _calls(tracer, "divergence.laplace_pair"),
        "divergence.clopper_pearson.calls": _calls(tracer, "divergence.clopper_pearson"),
        "divergence.events": t["events"],
        "datasets.pairs_within_distance.calls": _calls(tracer, "datasets.pairs_within_distance"),
        "datasets.pairs_out": t["pairs_out"],
    }
    seconds = {
        "rnm.prob_exact.s": total["rnm.prob_exact"],
        "quadrature.integrate_piecewise.s": total["quadrature.integrate_piecewise"],
        "laplace.sample_block.s": total["laplace.sample_block"],
        "divergence.laplace_pair.s": total["divergence.laplace_pair"],
        "divergence.clopper_pearson.s": total["divergence.clopper_pearson"],
        "divergence.event_count.s": own["divergence.estimate_events"],
        "divergence.event_build.s": total["divergence.event_build"],
        "datasets.pairs_within_distance.s": total["datasets.pairs_within_distance"],
        "mechanisms.check_dp_laplace.s": total["mechanisms.check_dp_laplace"],
        "mechanisms.check_dp_statistical.self_s": own["mechanisms.check_dp_statistical"],
        "cli.io_s": own["cli.main"],
        # the whole traced operation; each layer's share is its time over this
        "cli.main.s": total["cli.main"],
    }
    out = {name: (value / ops, "count/op") for name, value in counts.items()}
    out.update({name: (value / ops, "s/op") for name, value in seconds.items()})
    requests = t["pmf_requests"]
    out["rnm.pmf_cache_hit_ratio"] = ((requests - misses) / requests if requests else 0.0, "ratio")
    segments = t["segments"]
    out["quadrature.evals_per_segment"] = (
        t["integrand_evals"] / segments if segments else 0.0,
        "count",
    )
    return out


def _calls(tracer: Tracer, name: str) -> int:
    nid = tracer.names.index(name)
    return sum(1 for i in tracer.span_name if i == nid)
