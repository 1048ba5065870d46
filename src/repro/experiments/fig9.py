"""Fig 9: effect of the wordline (shared, unhashed) index bits.

The 6 wordline bits plus the 2 bank bits are shared by all four tables and
cannot be hashed (Section 7.1).  Fig 9 evaluates what goes into them:

* ``address only, no path`` — wordline and bank from PC bits only; lghist
  carries no path bit,
* ``address only, path``    — PC-only shared index, path bit in lghist,
* ``no path``               — the EV8 wordline (4 history bits + 2 PC bits)
  but lghist without path bits,
* ``EV8``                   — the shipped design: history+address wordline,
  path bit in lghist, conflict-free banks,
* ``complete hash``         — no hardware constraints, all information bits
  hashed (EV8 info vector),
* ``4x64K ghist``           — the unconstrained 512 Kbit reference with
  conventional branch history.

Paper findings to reproduce: the PC-only shared index distributes accesses
poorly and loses accuracy; adding path information to lghist makes the
shared index distribution more uniform and recovers it; the final EV8
functions stand the comparison with complete hashing — and with the
unconstrained 512 Kbit ghist predictor.
"""

from __future__ import annotations

from repro.experiments.common import (
    BEST_HISTORY,
    experiment_traces,
    make_2bc_gskew,
    record_results,
)
from repro.ev8.config import EV8_CONFIG
from repro.ev8.indexfuncs import EV8IndexScheme
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import (
    BlockLghistProvider,
    BranchGhistProvider,
)
from repro.predictors.twobcgskew import SkewedIndexScheme
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["CONFIG_ORDER", "run", "render"]

CONFIG_ORDER = ("address only, no path", "address only, path", "no path",
                "EV8", "complete hash", "4x64K ghist")


def _ev8(scheme: EV8IndexScheme, name: str):
    return lambda: EV8BranchPredictor(EV8_CONFIG, index_scheme=scheme,
                                      name=name)


def run(num_branches: int | None = None) -> ComparisonTable:
    """Run the six Fig 9 configurations."""
    traces = experiment_traces(num_branches)
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
    providers = {
        "address only, no path": lambda: BlockLghistProvider(
            include_path=False, delay_blocks=3),
        "address only, path": lambda: BlockLghistProvider(**aged),
        "no path": lambda: BlockLghistProvider(include_path=False,
                                               delay_blocks=3),
        "EV8": lambda: BlockLghistProvider(**aged),
        "complete hash": lambda: BlockLghistProvider(**aged),
        "4x64K ghist": BranchGhistProvider,
    }
    table = run_comparison(configs, traces, provider_factories=providers)
    record_results("fig9", table)
    return table


def render(table: ComparisonTable) -> str:
    return table.render("Fig 9: effect of wordline indices")
