"""The compiled replay tier: build cache, atomic builds, and the safe
fallback to the scalar walk when no kernel library can be built."""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BranchGhistProvider
from repro.obs import Telemetry
from repro.predictors import (BiModePredictor, BimodalPredictor,
                              EGskewPredictor, GAsPredictor, GsharePredictor,
                              TableConfig, TwoBcGskewPredictor, YagsPredictor)
from repro.sim.engine import BatchedEngine, ScalarEngine
from test_differential import _batch_capable_classes

BATCHED = {
    "bimodal": lambda: BimodalPredictor(1 << 10),
    "bimodal-shared": lambda: BimodalPredictor(1 << 10, 1 << 8),
    "gshare": lambda: GsharePredictor(1 << 12, 10),
    "gas": lambda: GAsPredictor(1 << 12, 6),
    "2bc-gskew": lambda: TwoBcGskewPredictor(
        TableConfig(1 << 10, 0), TableConfig(1 << 10, 9),
        TableConfig(1 << 10, 15), TableConfig(1 << 10, 11)),
    "ev8": EV8BranchPredictor,
    "egskew": lambda: EGskewPredictor(1 << 10, 12),
    "bimode": lambda: BiModePredictor(1 << 10, 1 << 8, 12),
    "yags": lambda: YagsPredictor(1 << 8, 1 << 8, 10),
}


@pytest.fixture(autouse=True)
def fresh_loader():
    """Every test loads (or fails to load) afresh, and later tests see the
    real library again."""
    kernels._load.cache_clear()
    yield
    kernels._load.cache_clear()


@pytest.fixture
def cache_home(tmp_path, monkeypatch) -> Path:
    """A private ``$XDG_CACHE_HOME``; returns the kernel cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro"


def _fake_compiler(tmp_path: Path) -> str:
    """A compiler that reports a version, writes half an output file and
    fails, like a build killed part way."""
    script = tmp_path / "fake-gcc"
    script.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "fake-gcc 0.0"; exit 0; fi\n'
        'while [ "$#" -gt 0 ]; do\n'
        '  if [ "$1" = "-o" ]; then printf "\\177ELF" > "$2"; fi\n'
        "  shift\n"
        "done\n"
        "exit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script)


def test_builds_into_the_cache_keyed_by_source_and_compiler(cache_home):
    path = kernels.library_path()
    assert path is not None and kernels.available()
    assert path.parent == cache_home
    assert path.name.startswith("replay-") and path.suffix == ".so"
    assert kernels.require() is not None
    # Never inside the package, whose every module file gets imported.
    assert kernels.SOURCE.parent not in path.parents


def test_second_process_reuses_the_cached_library(cache_home):
    path = kernels.library_path()
    before = path.stat()
    code = ("import repro.kernels as k\n"
            "def rebuilt(*args):\n"
            "    raise AssertionError('rebuilt a cached library')\n"
            "k._build = rebuilt\n"
            "print(k.library_path())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert Path(out.strip()) == path
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == \
        (before.st_ino, before.st_mtime_ns)


def test_failed_build_leaves_nothing_behind(cache_home, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(kernels, "_find_compiler",
                        lambda: _fake_compiler(tmp_path))
    assert not kernels.available()
    assert kernels.library_path() is None
    assert list(cache_home.iterdir()) == []


def test_unwritable_cache_home_falls_back_to_the_temp_dir(tmp_path,
                                                          monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    path = kernels.library_path()
    assert path is not None
    assert path.parent.parent == tmp_path / "tmp"


def test_every_batch_capable_predictor_has_a_fallback_case():
    """Every ``BatchCapable`` class in ``repro.predictors`` and
    ``repro.ev8`` is built by some factory above."""
    covered = {type(factory()) for factory in BATCHED.values()}
    shipped = {cls for cls in _batch_capable_classes()
               if cls.__module__.startswith("repro.")}
    assert shipped, "found no BatchCapable predictor"
    missing = sorted(cls.__qualname__ for cls in shipped - covered)
    assert not missing, f"BatchCapable predictors with no case: {missing}"


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_no_compiler_falls_back_to_scalar(name, gcc_trace, cache_home,
                                          monkeypatch):
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
    factory = BATCHED[name]
    predictor = factory()
    assert not predictor.batch_supported()
    provider = (EV8BranchPredictor.make_provider if name == "ev8"
                else BranchGhistProvider)
    sink = Telemetry()
    result = BatchedEngine().run(predictor, gcc_trace, provider(),
                                 telemetry=sink)
    assert result.engine == "scalar"
    assert sink.snapshot()["counters"]["engine.batched_fallbacks"] == 1
    reference = ScalarEngine().run(factory(), gcc_trace, provider())
    assert result.mispredictions == reference.mispredictions
    with pytest.raises(ValueError, match="compiled replay tier"):
        BatchedEngine(strict=True).run(factory(), gcc_trace, provider())
    with pytest.raises(RuntimeError, match="unavailable"):
        kernels.require()
    assert not cache_home.exists() or list(cache_home.iterdir()) == []
