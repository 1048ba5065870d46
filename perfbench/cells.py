"""Seeded inputs and simulation cells shared by every benchmark workload.

A *cell* is one (predictor configuration, trace) simulation, or one
(point, trace) unit of a sweep.  The benchmark seed only ever reaches the
program through the traces generated here: every profile of the SPEC95
stand-ins is re-rooted on the seed, so a new seed is a held-out input set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

import numpy as np  # noqa: E402

from repro.ev8.config import EV8_CONFIG  # noqa: E402
from repro.ev8.indexfuncs import EV8IndexScheme  # noqa: E402
from repro.ev8.predictor import EV8BranchPredictor  # noqa: E402
from repro.experiments.common import (BEST_HISTORY, make_2bc_gskew,  # noqa: E402
                                      make_fig5_configs)
from repro.history.providers import (BlockLghistProvider,  # noqa: E402
                                     BranchGhistProvider)
from repro.predictors.twobcgskew import (SkewedIndexScheme,  # noqa: E402
                                         TableConfig)
from repro.traces.model import Trace  # noqa: E402
from repro.workloads.generator import GENERATOR_VERSION  # noqa: E402
from repro.workloads.spec95 import SPEC95_BENCHMARKS, profile_for  # noqa: E402

DEFAULT_SEED = 1

G1_TRACES = ("gcc", "go", "compress", "li")
G1_LENGTHS = tuple(range(10, 22))  # 12 points around Table 1's G1 = 21


def trace_parameters(name: str, seed: int, branches: int) -> dict:
    """The generation parameters of one seeded trace (its cache key)."""
    parameters = profile_for(name).with_seed(seed).cache_parameters()
    parameters["num_branches"] = branches
    return parameters


def generate(name: str, seed: int, branches: int) -> Trace:
    """One seeded trace of ``branches`` conditional branches, generated
    from scratch."""
    # Looked up at call time so an instrumented generate_trace is timed.
    from repro.workloads import generator
    return generator.generate_trace(profile_for(name).with_seed(seed),
                                    branches)


def generate_all(seed: int, branches: int,
                 names=SPEC95_BENCHMARKS) -> dict[str, Trace]:
    return {name: generate(name, seed, branches) for name in names}


def fresh_copies(traces: dict[str, Trace]) -> dict[str, Trace]:
    """New trace objects with the same content, so a pass starts with cold
    per-trace caches (fetch blocks, materialized batches, content hashes)
    exactly as a fresh process would."""
    return {name: Trace(trace.name, trace.starts.copy(),
                        trace.num_instructions.copy(), trace.kinds.copy(),
                        trace.takens.copy(), trace.next_starts.copy())
            for name, trace in traces.items()}


def trace_digest(trace: Trace) -> str:
    hasher = hashlib.sha256()
    for column in (trace.starts, trace.num_instructions, trace.kinds,
                   trace.takens, trace.next_starts):
        hasher.update(np.ascontiguousarray(column).tobytes())
    return hasher.hexdigest()


def reference_name(seed: int, branches: int) -> str:
    return f"seed-{seed}-n{branches}-g{GENERATOR_VERSION}.json"


# -- cell sets -----------------------------------------------------------------


def fig5_set():
    """Fig 5: the predictor set on per-branch ghist.  Bi-mode and YAGS are
    not batch-capable, so the batched engine falls back to scalar for them."""
    configs = make_fig5_configs()
    return configs, {name: BranchGhistProvider for name in configs}


def _ev8(scheme: EV8IndexScheme, name: str):
    return lambda: EV8BranchPredictor(EV8_CONFIG, index_scheme=scheme,
                                      name=name)


def fig9_set():
    """Fig 9: four EV8 wordline variants on aged lghist, complete-hash
    2Bc-gskew and the 4x64K ghist reference — every cell batch-capable."""
    g0, g1, meta = BEST_HISTORY["2bc_64k"]
    configs = {
        "address only, no path": _ev8(
            EV8IndexScheme(wordline_mode="address", use_block_bank=False),
            "ev8-addr-nopath"),
        "address only, path": _ev8(
            EV8IndexScheme(wordline_mode="address", use_block_bank=False),
            "ev8-addr-path"),
        "no path": _ev8(EV8IndexScheme(wordline_mode="history"),
                        "ev8-nopath"),
        "EV8": _ev8(EV8IndexScheme(wordline_mode="history"), "ev8"),
        "complete hash": lambda: make_2bc_gskew(
            64 * 1024, g0, g1, meta, bim_entries=16 * 1024,
            g0_hysteresis=32 * 1024, meta_hysteresis=32 * 1024,
            index_scheme=SkewedIndexScheme(use_path_addresses=True),
            name="complete-hash"),
        "4x64K ghist": lambda: make_2bc_gskew(
            64 * 1024, g0, g1, meta, name="4x64K-ghist"),
    }
    aged = dict(include_path=True, delay_blocks=3)
    unpathed = dict(include_path=False, delay_blocks=3)
    providers = {
        "address only, no path": lambda: BlockLghistProvider(**unpathed),
        "address only, path": lambda: BlockLghistProvider(**aged),
        "no path": lambda: BlockLghistProvider(**unpathed),
        "EV8": lambda: BlockLghistProvider(**aged),
        "complete hash": lambda: BlockLghistProvider(**aged),
        "4x64K ghist": BranchGhistProvider,
    }
    return configs, providers


def table1_predictor(g1_history: int) -> EV8BranchPredictor:
    """The Table 1 EV8 predictor with its G1 history length swept."""
    config = dataclasses.replace(
        EV8_CONFIG, g1=TableConfig(64 * 1024, g1_history, 64 * 1024))
    return EV8BranchPredictor(config=config)


def cell_id(group: str, config, trace_name: str) -> str:
    return f"{group}/{config}/{trace_name}"
