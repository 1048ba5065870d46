"""Two-bit saturating counters with physically split prediction and
hysteresis arrays.

The EV8 predictor stores its 2-bit counters as two separate memory arrays
(Section 4.3 of the paper): the *prediction* array holds the direction bit
read at fetch time, the *hysteresis* array holds the strength bit touched at
update time.  The partial update policy only ever needs:

* a read of the prediction array to predict,
* a write of the hysteresis array to *strengthen* a correct prediction,
* a read of the hysteresis array plus writes of both arrays on a
  misprediction.

Section 4.4 additionally allows a hysteresis array *smaller* than the
prediction array: two prediction entries whose indices differ only in the
most significant bit share one hysteresis entry, so the hysteresis array
suffers more aliasing than the prediction array.

The conventional 2-bit counter states map onto (prediction, hysteresis) as::

    strong not-taken  = (0, 1)
    weak   not-taken  = (0, 0)
    weak   taken      = (1, 0)
    strong taken      = (1, 1)

i.e. the prediction bit is the counter's direction and the hysteresis bit is
its strength.  ``update`` implements the usual saturating-counter step in
this encoding; ``strengthen`` and ``weaken`` expose the half-steps the
partial update policy needs.

This module is the scalar oracle.  The batched engine's compiled replay
kernels (:mod:`repro.kernels`, driven by
:meth:`repro.predictors.base.BatchCapable.batch_access`) restate these
steps on the arrays' raw buffers and count their traffic where these
methods count it, into slots that :meth:`SplitCounterArray.record` names.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs import NULL_TELEMETRY, NullTelemetry

__all__ = ["SplitCounterArray"]


def _weak_directions(size: int, init_taken: bool) -> bytearray:
    """A fresh prediction buffer of ``size`` entries, all ``init_taken``.

    Built at C speed: tables run to a million entries, and a list of one
    Python ``int`` per entry would dominate setting a predictor up.
    """
    return bytearray(b"\x01") * size if init_taken else bytearray(size)


class SplitCounterArray:
    """An array of 2-bit saturating counters stored as split prediction and
    hysteresis bit arrays, with optional hysteresis sharing.

    Parameters
    ----------
    size:
        Number of prediction entries.  Must be a power of two.
    hysteresis_size:
        Number of hysteresis entries.  Must be a power of two and divide
        ``size``; when smaller than ``size``, ``size / hysteresis_size``
        prediction entries share each hysteresis entry (the EV8 uses a ratio
        of 2 for G0 and Meta; the index is the prediction index with the most
        significant bit(s) dropped).  Defaults to ``size`` (private
        hysteresis).
    init_taken:
        Initial direction of every counter.  The paper initialises all
        entries weakly not-taken (Section 8.1.1), which is the default.
    """

    __slots__ = ("size", "hysteresis_size", "_prediction", "_hysteresis",
                 "_telemetry", "_tele_names")

    def __init__(self, size: int, hysteresis_size: int | None = None, *,
                 init_taken: bool = False) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError(f"counter array size must be a power of two, got {size}")
        if hysteresis_size is None:
            hysteresis_size = size
        if hysteresis_size <= 0 or hysteresis_size & (hysteresis_size - 1):
            raise ValueError(
                f"hysteresis size must be a power of two, got {hysteresis_size}")
        if hysteresis_size > size:
            raise ValueError(
                f"hysteresis size {hysteresis_size} exceeds prediction size {size}")
        self.size = size
        self.hysteresis_size = hysteresis_size
        self._prediction = _weak_directions(size, init_taken)
        # Weak initial state: hysteresis 0 regardless of direction.
        self._hysteresis = bytearray(hysteresis_size)
        self._telemetry: NullTelemetry = NULL_TELEMETRY
        self._tele_names: tuple[str, str, str, str] | None = None

    # -- telemetry ---------------------------------------------------------

    def attach_telemetry(self, sink: NullTelemetry,
                         label: str = "counters") -> None:
        """Route this array's traffic counters into ``sink`` under
        ``bank.<label>.*`` names.

        Recorded (all engine-consistent **logical** port traffic — the
        scalar walk and the batched replays count identically):

        * ``bank.<label>.reads`` — fetch-time prediction-array reads (one
          per prediction; update-time state inspection is not a port read,
          see :meth:`peek`);
        * ``bank.<label>.prediction_writes`` — direction-bit write
          operations (saturating-counter direction flips);
        * ``bank.<label>.hysteresis_writes`` — strength-bit write
          operations *issued* (an agreeing outcome asserts the bit, a
          strongly-disagreeing outcome clears it — counted whether or not
          the stored bit changes, because the array write port is occupied
          either way).  This is the traffic partial update exists to
          suppress (Section 4.2): a suppressed update issues no write at
          all, which is exactly what these counters make visible;
        * ``bank.<label>.sharing_conflicts`` — hysteresis writes issued
          while the entry's sharing group held *disagreeing* direction bits
          (the Section 4.4 hazard: one strength bit serving counters that
          currently point opposite ways).

        Every counter update op issues exactly one write, and the compiled
        replay kernels count it where :meth:`_step_towards` does, so both
        engines record the same traffic (:meth:`record`).
        """
        self._telemetry = sink
        prefix = f"bank.{label}"
        self._tele_names = (f"{prefix}.reads",
                            f"{prefix}.prediction_writes",
                            f"{prefix}.hysteresis_writes",
                            f"{prefix}.sharing_conflicts")

    def _count_hysteresis_write(self, h_index: int) -> None:
        """Account one strength-bit write (telemetry-enabled path only)."""
        names = self._tele_names
        self._telemetry.count(names[2])
        ratio = self.size // self.hysteresis_size
        if ratio > 1:
            first = self._prediction[h_index]
            for k in range(1, ratio):
                if self._prediction[h_index + k * self.hysteresis_size] != first:
                    self._telemetry.count(names[3])
                    break

    def record(self, counts: Sequence[int]) -> None:
        """Record the traffic a replay kernel counted on this array's raw
        buffers: its four slots, in the order of the counters above.  Zeros
        are skipped, as the scalar walk never counts a zero."""
        if not self._telemetry.enabled:
            return
        for name, value in zip(self._tele_names, counts):
            if value:
                self._telemetry.count(name, value)

    # -- index plumbing ----------------------------------------------------

    def _hysteresis_index(self, index: int) -> int:
        """Map a prediction index to its (possibly shared) hysteresis index.

        Sharing drops the most significant bit(s) of the prediction index
        (Section 4.4: "the prediction table and the hysteresis table are
        indexed using the same index function, except the most significant
        bit").
        """
        return index & (self.hysteresis_size - 1)

    def sharing_partners(self, index: int) -> list[int]:
        """Return all prediction indices sharing ``index``'s hysteresis entry."""
        base = self._hysteresis_index(index)
        ratio = self.size // self.hysteresis_size
        return [base + k * self.hysteresis_size for k in range(ratio)]

    # -- reads -------------------------------------------------------------

    def predict(self, index: int) -> bool:
        """Return the direction bit (True = predict taken).

        This is the only read needed at fetch time; it is the operation the
        ``bank.<label>.reads`` telemetry counter counts.
        """
        if self._telemetry.enabled:
            self._telemetry.count(self._tele_names[0])
        return bool(self._prediction[index & (self.size - 1)])

    def peek(self, index: int) -> bool:
        """The direction bit *without* telemetry accounting.

        Update-time logic (e.g. the 2Bc-gskew chooser recomputing the
        overall prediction after training Meta) inspects state the hardware
        already holds in flight — it is not a fetch-port read, so it must
        not inflate ``bank.<label>.reads``.
        """
        return bool(self._prediction[index & (self.size - 1)])

    def hysteresis(self, index: int) -> bool:
        """Return the hysteresis (strength) bit for a prediction index."""
        return bool(self._hysteresis[self._hysteresis_index(index & (self.size - 1))])

    def counter_value(self, index: int) -> int:
        """Return the conventional 2-bit counter value (0..3) for debugging
        and tests: 0/1 = strong/weak not-taken, 2/3 = weak/strong taken."""
        index &= self.size - 1
        direction = self._prediction[index]
        strength = self._hysteresis[self._hysteresis_index(index)]
        if direction:
            return 2 + strength
        return 1 - strength

    # -- writes ------------------------------------------------------------

    def strengthen(self, index: int, taken: bool) -> None:
        """Reinforce a correct prediction: saturate the counter towards the
        outcome without flipping the direction bit.

        Matches the partial-update "strengthen" operation: only the
        hysteresis array is written, and only when the stored direction
        agrees with the outcome (it always does when called on a correct
        prediction, but a shared hysteresis entry may currently be weak
        because of an alias, hence the unconditional set).
        """
        index &= self.size - 1
        if bool(self._prediction[index]) == taken:
            h_index = self._hysteresis_index(index)
            if self._telemetry.enabled:
                self._count_hysteresis_write(h_index)
            self._hysteresis[h_index] = 1
        else:
            # Direction disagrees (possible when the caller strengthens a
            # majority vote that this particular bank did not contribute
            # to).  A strengthen in the wrong direction is a weaken.
            self._step_towards(index, taken)

    def update(self, index: int, taken: bool) -> None:
        """Full saturating-counter update step towards ``taken``."""
        self._step_towards(index & (self.size - 1), taken)

    def _step_towards(self, index: int, taken: bool) -> None:
        h_index = self._hysteresis_index(index)
        direction = self._prediction[index]
        strength = self._hysteresis[h_index]
        if bool(direction) == taken:
            # The write (assert the strength bit) is issued whether or not
            # the bit was already set; count it unconditionally.
            if self._telemetry.enabled:
                self._count_hysteresis_write(h_index)
            if not strength:
                self._hysteresis[h_index] = 1
        elif strength:
            if self._telemetry.enabled:
                self._count_hysteresis_write(h_index)
            self._hysteresis[h_index] = 0
        else:
            if self._telemetry.enabled:
                self._telemetry.count(self._tele_names[1])
            self._prediction[index] = 1 if taken else 0
            # Stay weak after a direction flip (00 <-> 10 transition).

    def set_counter(self, index: int, value: int) -> None:
        """Force a counter to a conventional 2-bit value (0..3). Test hook."""
        if not 0 <= value <= 3:
            raise ValueError(f"counter value must be in 0..3, got {value}")
        index &= self.size - 1
        self._prediction[index] = 1 if value >= 2 else 0
        self._hysteresis[self._hysteresis_index(index)] = 1 if value in (0, 3) else 0

    # -- bookkeeping ---------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Total storage in bits (prediction + hysteresis)."""
        return self.size + self.hysteresis_size

    def reset(self, *, init_taken: bool = False) -> None:
        """Reset every counter to the weak state in the given direction."""
        self._prediction[:] = _weak_directions(self.size, init_taken)
        self._hysteresis[:] = bytes(self.hysteresis_size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SplitCounterArray(size={self.size}, "
                f"hysteresis_size={self.hysteresis_size})")
