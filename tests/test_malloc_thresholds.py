"""glibc malloc thresholds fixed at import: the helper's guards, and the steady-state page faults they remove."""

import resource

import pytest

from ancova_cp import estimate_conditioned, estimate_naive, montecarlo
from ancova_cp.montecarlo import MALLOC_ENV_VARS, MALLOC_MMAP_THRESHOLD, MALLOC_TRIM_THRESHOLD


class SpyLibc:
    """A libc whose mallopt records its calls and returns ``results`` in turn."""

    def __init__(self, *results):
        self.calls = []
        self.results = results or (1, 1)

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.results[len(self.calls) - 1]


class NoMallopt:
    """A libc without the mallopt symbol: ctypes raises AttributeError on the lookup."""

    def __getattr__(self, name):
        raise AttributeError(name)


def _glibc():
    return "glibc 2.36"


def _not_glibc():
    raise ValueError("unrecognized configuration name")


@pytest.fixture
def run_helper(monkeypatch):
    """Run the helper under a patched libc, os.confstr and environment."""
    for name in (*MALLOC_ENV_VARS, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)

    def run(libc, confstr=_glibc, env=None):
        monkeypatch.setattr(montecarlo.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(montecarlo.os, "confstr", lambda name: confstr(), raising=False)
        for name, value in (env or {}).items():
            monkeypatch.setenv(name, value)
        return montecarlo._set_malloc_thresholds()

    return run


def test_glibc_gets_both_thresholds(run_helper):
    libc = SpyLibc()
    assert run_helper(libc) is True
    assert libc.calls == [(-3, MALLOC_MMAP_THRESHOLD), (-1, MALLOC_TRIM_THRESHOLD)]
    assert (MALLOC_MMAP_THRESHOLD, MALLOC_TRIM_THRESHOLD) == (4 << 20, 8 << 20)


@pytest.mark.parametrize(
    "env",
    [{name: "1048576"} for name in MALLOC_ENV_VARS]
    + [
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"},
        {"GLIBC_TUNABLES": "glibc.rtld.nns=2:glibc.malloc.arena_max=2"},
    ],
)
def test_user_malloc_settings_take_precedence(run_helper, env):
    libc = SpyLibc()
    assert run_helper(libc, env=env) is False
    assert libc.calls == []


def test_other_glibc_tunables_do_not_stop_the_helper(run_helper):
    libc = SpyLibc()
    assert run_helper(libc, env={"GLIBC_TUNABLES": "glibc.pthread.rseq=0"}) is True
    assert len(libc.calls) == 2


def test_no_glibc_is_a_no_op(run_helper):
    libc = SpyLibc()
    assert run_helper(libc, confstr=_not_glibc) is False
    assert run_helper(libc, confstr=lambda: None) is False
    assert libc.calls == []


def test_missing_mallopt_is_a_no_op(run_helper):
    assert run_helper(NoMallopt()) is False


def test_refused_mmap_threshold_reports_false(run_helper):
    libc = SpyLibc(0)
    assert run_helper(libc) is False
    assert libc.calls == [(-3, MALLOC_MMAP_THRESHOLD)]


def test_refused_trim_threshold_still_reports_the_fixed_mmap_threshold(run_helper):
    # the mmap call alone already stops glibc moving its thresholds, so the process runs under fixed ones
    libc = SpyLibc(1, 0)
    assert run_helper(libc) is True
    assert libc.calls == [(-3, MALLOC_MMAP_THRESHOLD), (-1, MALLOC_TRIM_THRESHOLD)]


@pytest.mark.skipif(not montecarlo.MALLOC_THRESHOLDS_SET, reason="glibc malloc thresholds fixed at import only")
@pytest.mark.parametrize(
    "estimate, runs, n_jobs",
    [(estimate_naive, 10_000, 1), (estimate_conditioned, 10_000, 1), (estimate_conditioned, 1 << 16, 2)],
)
def test_repeated_estimates_reuse_resident_pages(ref, estimate, runs, n_jobs):
    # with glibc's dynamic thresholds these read about 340, 190-250 and thousands of minor faults per call
    _, _, geom, cfg = ref

    def call():
        return estimate((0.0, 0.1, 0.0), geom, cfg, runs=runs, seed=0, n_jobs=n_jobs)

    call(), call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        call()
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults <= 16, faults
