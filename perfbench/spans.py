"""In-memory spans around the package's public functions, and the per-layer
metrics computed from them.

Nothing in ``src/`` is instrumented.  A span is recorded by replacing a
function at the attribute its caller looks it up through (a module global,
a dict entry or a class attribute) with a wrapper that times the call.  Some
modules import functions by name, so the same function is replaced at every
binding a caller actually uses; ``layer_bindings`` lists them.

A span is (id, name, start_ns, end_ns, parent_id, request, amount).  The
parent is the innermost span open on the calling thread.  A worker thread of
a fan-out has nothing open on its own stack, so its outermost spans take the
innermost span open on the client thread as parent: the benchmark has one
client, and that span is the call that fanned out.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager


def _runs(*args, **kwargs):
    return int(kwargs.get("runs", 0))


def _kernel_rows(kernel, q, d):
    return int(q.shape[0])


def _event_rows(delta, *args, **kwargs):
    return int(delta.shape[0])


def layer_bindings(pkg):
    """(owner, attribute, span name, amount function) for every traced binding.

    ``pkg`` maps module names to the imported ``ancova_cp`` submodules.
    """
    cli, mc, search, oracle = pkg["cli"], pkg["montecarlo"], pkg["search"], pkg["oracle"]
    kernel = pkg["conditional"].ConditionalKernel
    return [
        # set-up: resolve_config looks the design functions up in cli's namespace
        (cli, "build_parser", "cli.build_parser", None),
        (cli, "resolve_config", "cli.resolve_config", None),
        (cli, "reference_design", "design.reference_design", None),
        (cli, "build_geometry", "design.build_geometry", None),
        (cli, "critical_values", "design.critical_values", None),
        # estimators, as the benchmark calls them and as search looks them up
        (mc, "estimate_conditioned", "montecarlo.estimate_conditioned", _runs),
        (mc, "estimate_naive", "montecarlo.estimate_naive", _runs),
        (search._ESTIMATORS, "conditioned", "montecarlo.estimate_conditioned", _runs),
        (search._ESTIMATORS, "naive", "montecarlo.estimate_naive", _runs),
        (search, "gate_probability", "montecarlo.gate_probability", _runs),
        (kernel, "conditional_cp_batch", "conditional.conditional_cp_batch", _kernel_rows),
        (mc, "batch_events", "selection.batch_events", _event_rows),
        (oracle, "coverage_indicator", "selection.coverage_indicator", None),
        (oracle, "agreement_with_events", "oracle.agreement_with_events", None),
        (search, "min_cp_search", "search.min_cp_search", None),
        (search, "grid_eval", "search.grid_eval", None),
        (search, "fit_low_cp_lines", "search.fit_low_cp_lines", None),
        (search, "line_profile", "search.line_profile", None),
        (search, "second_test_only_cp", "search.second_test_only_cp", None),
    ]


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self, bindings):
        self.spans: list[tuple] = []
        self.request = None
        self._bindings = bindings
        self._originals: list[tuple] = []
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._client_stack[-1] if self._client_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _wrap(self, name, fn, amount):
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                size = amount(*args, **kwargs) if amount else 0
                self.spans.append((sid, name, start, end, parent, self.request, size))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around benchmark code that no package function covers.

        Yields a dict whose "amount" the caller may set before the span ends.
        """
        stack, sid, parent = self._open()
        box = {"amount": 0}
        start = time.perf_counter_ns()
        try:
            yield box
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request, box["amount"]))

    def install(self):
        for owner, attr, name, amount in self._bindings:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(name, original, amount)
            else:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, amount))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request", "amount")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ESTIMATE_SPANS = (
    "montecarlo.estimate_conditioned",
    "montecarlo.estimate_naive",
    "montecarlo.gate_probability",
)
DESIGN_SPANS = ("design.reference_design", "design.build_geometry", "design.critical_values")
CLI_SPANS = ("cli.build_parser", "cli.resolve_config")
SEARCH_PHASES = {
    "search.cube_s": "search.grid_eval",
    "search.profile_s": "search.line_profile",
    "search.square_s": "search.second_test_only_cp",
    "search.fit_s": "search.fit_low_cp_lines",
}


def _covered(start, end, intervals) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Spans grouped by name and by parent, with self times."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = {}
        self.by_name: dict[str, list[tuple]] = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def named(self, *names):
        return [s for name in names for s in self.by_name.get(name, [])]

    def self_ns(self, span, child_names=None) -> int:
        kids = [
            (c[2], c[3])
            for c in self.children.get(span[0], [])
            if child_names is None or c[1] in child_names
        ]
        return (span[3] - span[2]) - _covered(span[2], span[3], kids)

    def has_ancestor(self, span, name) -> bool:
        parent = span[4]
        while parent is not None:
            up = self.by_id.get(parent)
            if up is None:
                return False
            if up[1] == name:
                return True
            parent = up[4]
        return False


def _secs(spans) -> float:
    return sum(s[3] - s[2] for s in spans) / 1e9


def setup_layers(spans) -> dict:
    """design.setup_s and cli.setup_s: medians over traced set-ups (one request each)."""
    idx = SpanIndex(spans)
    design: dict = {}
    cli: dict = {}
    for s in idx.named(*DESIGN_SPANS):
        design[s[5]] = design.get(s[5], 0.0) + (s[3] - s[2]) / 1e9
    for s in idx.named(*CLI_SPANS):
        cli[s[5]] = cli.get(s[5], 0.0) + idx.self_ns(s) / 1e9
    return {
        "design.setup_s": statistics.median(design.values()),
        "cli.setup_s": statistics.median(cli.values()),
    }


def workload_layers(spans, requests: int, n_jobs: int) -> dict:
    """Per-layer metrics over traced requests; sums and counts are per request.

    A layer the workload never calls reports 0.
    """
    idx = SpanIndex(spans)
    per = 1.0 / max(1, requests)

    est = idx.named(*ESTIMATE_SPANS)
    draws = sum(s[6] for s in est)
    est_ns = sum(s[3] - s[2] for s in est)
    mc_self_ns = sum(
        idx.self_ns(s, ("conditional.conditional_cp_batch", "selection.batch_events")) for s in est
    )
    kern = idx.named("conditional.conditional_cp_batch")
    rows = sum(s[6] for s in kern)
    batch = idx.named("selection.batch_events")
    scalar = idx.named("selection.coverage_indicator")
    orc = idx.named("oracle.agreement_with_events")
    srch = idx.named("search.min_cp_search")
    search_ids = {s[0] for s in srch}
    search_est = [s for s in est if idx.has_ancestor(s, "search.min_cp_search")]
    gates = [s for s in idx.named("montecarlo.gate_probability") if s[4] in search_ids]
    writes = idx.named("search.write")
    search_wall_ns = sum(s[3] - s[2] for s in srch)

    out = {
        "montecarlo.estimates": len(est) * per,
        "montecarlo.draws": draws * per,
        "montecarlo.estimate_s": est_ns / 1e9 * per,
        "montecarlo.self_s": mc_self_ns / 1e9 * per,
        "montecarlo.ns_per_draw": est_ns / draws if draws else 0.0,
        "conditional.rows": rows * per,
        "conditional.s": _secs(kern) * per,
        "conditional.ns_per_row": _secs(kern) * 1e9 / rows if rows else 0.0,
        "selection.batch_rows": sum(s[6] for s in batch) * per,
        "selection.batch_s": _secs(batch) * per,
        "selection.scalar_calls": len(scalar) * per,
        "selection.scalar_s": _secs(scalar) * per,
        "oracle.s": _secs(orc) * per,
        "oracle.self_s": sum(idx.self_ns(s) for s in orc) / 1e9 * per,
    }
    for metric, name in SEARCH_PHASES.items():
        out[metric] = _secs(idx.named(name)) * per
    out["search.gate_s"] = _secs(gates) * per
    out["search.self_s"] = sum(idx.self_ns(s) for s in srch) / 1e9 * per
    out["search.fanout_eff"] = (
        sum(s[3] - s[2] for s in search_est) / (search_wall_ns * n_jobs) if search_wall_ns else 0.0
    )
    out["search.estimates"] = len(search_est) * per
    out["search.write_s"] = _secs(writes) * per
    out["search.bytes_written"] = sum(s[6] for s in writes) * per
    return out
