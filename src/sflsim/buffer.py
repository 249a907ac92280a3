"""Server-side replay buffer and the periodic transmission switch.

Devices transmit activations only at rounds where the switch is on
(t mod period == 0, so round 0 always transmits); between transmissions the
server replays the cached record for each (device, batch) key. Keys are
stable because the batch partition is fixed across rounds. The buffer is
one in-memory map from each key to its record's wire bytes
(``quantize.serialize``).
"""

from __future__ import annotations

import numpy as np

from . import quantize


class BufferError(ValueError):
    """Switch misuse or storing outside a transmission round."""


class BufferMiss(KeyError):
    """Fetch before the first refresh of a (device, batch) key."""


def switch_is_on(t, period):
    """True at transmission rounds: t mod period == 0."""
    if int(t) != t or int(period) != period:
        raise BufferError("round index and period must be integers")
    if t < 0:
        raise BufferError(f"round index must be >= 0, got {t}")
    if period < 1:
        raise BufferError(f"period must be >= 1, got {period}")
    return t % period == 0


class ReplayBuffer:
    """Latest activation record per (device, batch) key, as wire bytes."""

    def __init__(self, period):
        switch_is_on(0, period)  # the one period check
        self.period = int(period)
        self._blobs = {}  # (device, batch) -> wire bytes

    def store(self, record):
        """Cache a record's wire bytes; only legal while the switch is on for
        its round. Returns the stored byte count."""
        if not switch_is_on(record.round_tag, self.period):
            raise BufferError(
                f"store at round {record.round_tag}: switch is off (period {self.period})"
            )
        key = (record.device_id, record.batch_index)
        blob = self._blobs[key] = quantize.serialize(record)
        return len(blob)

    def fetch(self, device_id, batch_index):
        """Latest record for a key, parsed from its bytes; a miss before the
        first refresh is an error."""
        blob = self._blobs.get((device_id, batch_index))
        if blob is None:
            raise BufferMiss(f"no cached activation for device {device_id} batch {batch_index}")
        return quantize.parse(blob)

    def blobs(self):
        """A copy of the map from (device, batch) key to wire bytes."""
        return dict(self._blobs)

    def adopt(self, blobs):
        """Keep wire bytes that a copy of this buffer stored (runtime's
        worker processes), in their order; the stores already passed the
        switch check there."""
        self._blobs.update(blobs)

    def __len__(self):
        return len(self._blobs)

    def total_bytes(self):
        """Wire bytes of all live records (the buffer-memory cost)."""
        return sum(map(len, self._blobs.values()))


def buffer_distance_proxy(buf, device_id, batch_index, fresh):
    """Distance between the cached and a fresh activation batch.

    The cached record for (device_id, batch_index) is decoded and compared
    to the fresh tensor; the distance is the per-sample L2 norm averaged
    over samples. Zero only when the cache is bit-fresh.
    """
    cached = quantize.decode(buf.fetch(device_id, batch_index), dtype=np.float64)
    fresh64 = np.asarray(fresh, dtype=np.float64)
    if cached.shape != fresh64.shape:
        raise BufferError(f"probe shape {fresh64.shape} != cached shape {cached.shape}")
    diff = (cached - fresh64).reshape(len(fresh64), -1)
    return float(np.mean(np.linalg.norm(diff, axis=1)))
