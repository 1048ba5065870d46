"""Scalar-engine reference counts, the benchmark's correctness oracle.

For each seed the reference holds, per cell, the (branches, mispredictions,
misp/KI) that :class:`repro.sim.engine.ScalarEngine` computes.  The default
seed's reference is committed under ``reference/``; any other seed's is
computed on first use (in at most two processes) and cached under
``out/oracle/``.  Files are keyed by seed, trace length and trace-generator
version, and carry each trace's content digest so the benchmark can prove
it measured the inputs the reference was computed on.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import cells
from repro.history.providers import ev8_info_provider
from repro.sim.engine import ScalarEngine
from repro.workloads.spec95 import SPEC95_BENCHMARKS


def cell_specs(group: str) -> list[tuple]:
    """``(cell id, trace name, predictor factory, provider factory)`` for
    every cell of one group, in the order the workloads run them."""
    if group == "g1":
        return [(cells.cell_id("g1", length, name), name,
                 lambda length=length: cells.table1_predictor(length),
                 ev8_info_provider)
                for length in cells.G1_LENGTHS for name in cells.G1_TRACES]
    configs, providers = cells.fig5_set() if group == "fig5" \
        else cells.fig9_set()
    return [(cells.cell_id(group, config, name), name, factory,
             providers[config])
            for config, factory in configs.items()
            for name in SPEC95_BENCHMARKS]


def reference_path(seed: int, branches: int):
    name = cells.reference_name(seed, branches)
    if seed == cells.DEFAULT_SEED:
        return cells.BENCH_DIR / "reference" / name
    return cells.OUT_DIR / "oracle" / name


def load(seed: int, branches: int) -> dict | None:
    try:
        return json.loads(reference_path(seed, branches).read_text())
    except (OSError, ValueError):
        return None


_SPECS: list[tuple] = []
_TRACES: dict = {}


def _scalar_cell(index: int) -> tuple[str, list]:
    cid, trace_name, make_predictor, make_provider = _SPECS[index]
    result = ScalarEngine().run(make_predictor(), _TRACES[trace_name],
                                make_provider())
    return cid, [result.branches, result.mispredictions, result.misp_per_ki]


def ensure(seed: int, branches: int, groups) -> dict:
    """The reference for ``seed`` at ``branches`` per trace covering
    ``groups``, computing and caching whatever cells are missing."""
    reference = load(seed, branches) or {
        "seed": seed, "trace_branches": branches,
        "generator_version": cells.GENERATOR_VERSION,
        "engine": "scalar", "traces": {}, "cells": {}}
    missing = [spec for group in groups for spec in cell_specs(group)
               if spec[0] not in reference["cells"]]
    if not missing:
        return reference
    _TRACES.clear()
    _TRACES.update(cells.generate_all(seed, branches))
    reference["traces"] = {
        name: {"digest": cells.trace_digest(trace),
               "instructions": trace.instruction_count}
        for name, trace in _TRACES.items()}
    _SPECS[:] = missing
    workers = min(2, os.cpu_count() or 1)
    # fork: workers inherit the traces and the (unpicklable) factories.
    # This process starts no threads before here, so forking it is safe.
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("fork")) as pool:
        for cid, counts in pool.map(_scalar_cell, range(len(missing))):
            reference["cells"][cid] = counts
    path = reference_path(seed, branches)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temporary.write_text(json.dumps(reference, indent=1, sort_keys=True))
    os.replace(temporary, path)
    return reference
