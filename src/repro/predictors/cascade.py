"""A cascaded predictor hierarchy — the paper's forward-looking proposal.

The conclusion of the paper sketches the post-EV8 direction: "one may
consider further extending the hierarchy of predictors with increased
accuracies and delays: line predictor, global history branch prediction,
backup branch predictor. The backup branch predictor would deliver its
prediction later than the global history branch predictor."

This module implements that hierarchy as a composite predictor:

* a **primary** predictor (e.g. the EV8) answers at its pipeline latency;
* a **backup** predictor (e.g. a perceptron over longer history, or a
  local-history component) answers ``backup_delay`` cycles later;
* when the backup disagrees with the primary, the front end is redirected
  at the backup's latency — cheaper than a full misprediction if the
  backup is right, pure loss if it is wrong.

Accuracy-wise the composite predicts with the backup's answer whenever it
chooses to override (filtered by a confidence chooser, as in the cascaded
predictors of Driesen & Hölzle [3]); the cost model exposes how many
overrides were useful, so the "is a backup worth its delay" question of
the conclusion can be answered quantitatively
(:meth:`CascadePredictor.pipeline_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector
from repro.predictors.base import Predictor

__all__ = ["CascadeStatistics", "CascadePredictor"]


@dataclass
class CascadeStatistics:
    """Override bookkeeping for one simulation."""

    predictions: int = 0
    overrides: int = 0
    good_overrides: int = 0
    """Backup overrode a wrong primary prediction."""
    bad_overrides: int = 0
    """Backup overrode a correct primary prediction."""
    primary_mispredictions: int = 0
    final_mispredictions: int = 0

    @property
    def override_precision(self) -> float:
        if self.overrides == 0:
            return 0.0
        return self.good_overrides / self.overrides


class CascadePredictor(Predictor):
    """primary + delayed backup with a confidence-gated override.

    Parameters
    ----------
    primary / backup:
        Any two predictors; the backup is only consulted architecturally
        (every prediction, as the hardware would), but only *overrides*
        when the gate counter trusts it for this branch.
    chooser_entries:
        PC-indexed 2-bit counters gating overrides: trained towards "trust
        the backup" whenever backup and primary disagree and the backup was
        right.
    backup_delay:
        The backup's pipeline latency in cycles, used by
        :meth:`pipeline_cost`.
    misprediction_penalty:
        Full branch misprediction penalty in cycles (the EV8's minimum is
        14, Section 1).
    """

    def __init__(self, primary: Predictor, backup: Predictor,
                 chooser_entries: int = 4096,
                 backup_delay: int = 4,
                 misprediction_penalty: int = 14,
                 name: str | None = None) -> None:
        if chooser_entries <= 0 or chooser_entries & (chooser_entries - 1):
            raise ValueError(
                f"chooser_entries must be a power of two, got {chooser_entries}")
        if not backup_delay <= misprediction_penalty:
            raise ValueError(
                "expected backup_delay <= penalty, got "
                f"{backup_delay}/{misprediction_penalty}")
        self.primary = primary
        self.backup = backup
        self.chooser = SplitCounterArray(chooser_entries)
        self._chooser_mask = chooser_entries - 1
        self.backup_delay = backup_delay
        self.misprediction_penalty = misprediction_penalty
        self.name = name or f"cascade({primary.name}->{backup.name})"
        self.statistics = CascadeStatistics()

    def _chooser_index(self, vector: InfoVector) -> int:
        return (vector.branch_pc >> 2) & self._chooser_mask

    def predict(self, vector: InfoVector) -> bool:
        primary = self.primary.predict(vector)
        backup = self.backup.predict(vector)
        if backup != primary and self.chooser.predict(
                self._chooser_index(vector)):
            return backup
        return primary

    def update(self, vector: InfoVector, taken: bool) -> None:
        self._access(vector, taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        return self._access(vector, taken)

    def _access(self, vector: InfoVector, taken: bool) -> bool:
        chooser_index = self._chooser_index(vector)
        primary = self.primary.access(vector, taken)
        backup = self.backup.access(vector, taken)
        trust = self.chooser.predict(chooser_index)
        override = backup != primary and trust
        final = backup if override else primary
        stats = self.statistics
        stats.predictions += 1
        if primary != taken:
            stats.primary_mispredictions += 1
        if final != taken:
            stats.final_mispredictions += 1
        if override:
            stats.overrides += 1
            if backup == taken:
                stats.good_overrides += 1
            else:
                stats.bad_overrides += 1
        # Gate training: only disagreements teach the chooser anything.
        if backup != primary:
            self.chooser.update(chooser_index, backup == taken)
        return final

    def pipeline_cost(self) -> float:
        """Average branch-resolution stall cycles per prediction.

        A useful override converts a full misprediction penalty into a
        ``backup_delay`` redirect; a bad override *introduces* a redirect
        plus the eventual penalty.  This is the currency in which the
        conclusion's "increased accuracies and delays" trade-off is paid.
        """
        stats = self.statistics
        if stats.predictions == 0:
            return 0.0
        cycles = 0
        cycles += stats.final_mispredictions * self.misprediction_penalty
        # Every override redirects the front end at the backup's latency,
        # whether or not it turns out correct.
        cycles += stats.overrides * self.backup_delay
        return cycles / stats.predictions

    @property
    def storage_bits(self) -> int:
        return (self.primary.storage_bits + self.backup.storage_bits
                + self.chooser.storage_bits)
