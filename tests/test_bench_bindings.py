"""Every package name the benchmark's tracer wraps must still resolve.

perfbench/spans.py replaces functions at the bindings its callers use; a
binding that was renamed or removed would only fail once the benchmark ran.
This installs and uninstalls its Tracer over the package, so such a name
fails here instead.
"""

import importlib.util
from pathlib import Path

from ancova_cp import cli, conditional, montecarlo, oracle, search

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_bindings_resolve_and_restore():
    spans = _load_spans()
    pkg = {"cli": cli, "montecarlo": montecarlo, "search": search, "oracle": oracle, "conditional": conditional}
    bindings = spans.layer_bindings(pkg)
    before = [_current(owner, attr) for owner, attr, _, _ in bindings]
    tracer = spans.Tracer(bindings)
    try:
        tracer.install()
        for (owner, attr, _, _), original in zip(bindings, before):
            assert _current(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    assert [_current(owner, attr) for owner, attr, _, _ in bindings] == before
