"""Analytic communication/computation cost model and first-order latency.

Byte accounting is exact and integer: 4-byte float32 model/activation
elements, 1-byte quantized codes, 2-byte labels, and the real wire-format
record overhead for replay transmissions. The traffic ledger records what a
simulated run actually moved, 8 bytes per (round, device, purpose) cell of
one int64 table; the analytic model predicts the same totals to the byte.
Latency is first-order: transfer time = bytes * 8 / (Mbps * 1e6),
sequential with compute, no pipelining.

Methods: classic (full-model FedAvg), split (activation up, gradient down),
local_loss (activation up only, auxiliary head on device), replay_tx (a
replay-mode transmission round), replay_buffer (a replay-mode cached round).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import models, quantize

GIB = 2**30

METHODS = ("classic", "split", "local_loss", "replay_tx", "replay_buffer")
# Every kind of transfer and the one direction it travels.
PURPOSES = {"activation": "up", "labels": "up", "model_up": "up",
            "gradient": "down", "model_down": "down"}
_PURPOSE_INDEX = {purpose: i for i, purpose in enumerate(PURPOSES)}
# Column 0 sums a row of ledger cells' uplink bytes, column 1 its downlink.
_DIRECTIONS = np.array([(d == "up", d == "down") for d in PURPOSES.values()], np.int64)

FLOAT_BYTES = 4
CODE_BYTES = 1
LABEL_BYTES = 2


class NetsimError(ValueError):
    """Unknown method/purpose, bad bandwidth, or malformed ledger input."""


@dataclass(frozen=True)
class NetworkProfile:
    name: str
    uplink_mbps: float
    downlink_mbps: float


PROFILES = {
    "wifi": NetworkProfile("wifi", 50.0, 50.0),
    "4g": NetworkProfile("4g", 10.0, 42.0),
    "3g": NetworkProfile("3g", 3.0, 6.0),
}


def _up_down(purpose_bytes):
    """(bytes up, bytes down) of a {purpose: bytes} map."""
    up = sum(n for p, n in purpose_bytes.items() if PURPOSES[p] == "up")
    return up, sum(purpose_bytes.values()) - up


class TrafficLedger:
    """Bytes of every simulated transfer, summed per (round, device, purpose)
    in one int64 table indexed by round, device and purpose (PURPOSES
    order). The table grows as rows arrive: the round axis doubles, the
    device axis widens only to the highest device recorded. Queries read it
    and add nothing; ``entries`` is a live, read-only view of the cells
    that hold bytes, so a zero-byte record leaves no row."""

    def __init__(self):
        self._table = np.zeros((0, 0, len(PURPOSES)), np.int64)

    @property
    def entries(self):
        # Made per access: a view the ledger held would be a reference
        # cycle, which keeps a dropped ledger's table until a full collection.
        return _Cells(self)

    def record(self, round_index, device, purpose, nbytes):
        p = _PURPOSE_INDEX.get(purpose)
        if p is None:
            raise NetsimError(f"purpose must be one of {tuple(PURPOSES)}, got {purpose!r}")
        if nbytes < 0:
            raise NetsimError("byte counts cannot be negative")
        if round_index < 0 or device < 0:
            raise NetsimError("rounds and devices are numbered from 0")
        self._grow(round_index, device)
        cell = int(self._table[round_index, device, p]) + int(nbytes)
        self._table[round_index, device, p] = cell  # past int64: OverflowError, no wrap

    def _grow(self, round_index, device):
        """Widen the table, if need be, to hold cell (round_index, device):
        the round axis at least doubles, the device axis grows only as far
        as needed."""
        rounds, devices, purposes = self._table.shape
        if round_index < rounds and device < devices:
            return
        if round_index >= rounds:
            rounds = max(round_index + 1, 2 * rounds)
        table = np.zeros((rounds, max(devices, device + 1), purposes), np.int64)
        table[: len(self._table), :devices] = self._table
        self._table = table

    def total(self, direction=None, purpose=None, round_index=None, device=None):
        """Bytes summed over the rows that match every given filter."""
        kept = [purpose in (None, p) and direction in (None, d) for p, d in PURPOSES.items()]
        rounds, devices, _ = self._table.shape
        cells = self._table[_axis(round_index, rounds), _axis(device, devices)]
        return int(cells[..., kept].sum())

    def rows(self, round_index, devices):
        """The listed devices' bytes in one round: a new (devices, purposes)
        int64 array in PURPOSES order, zeros where nothing was recorded;
        add_rows takes it, or its bytes."""
        devices = list(devices)
        rounds, known, _ = self._table.shape
        out = np.zeros((len(devices), len(PURPOSES)), np.int64)
        if 0 <= round_index < rounds:
            hit = [i for i, k in enumerate(devices) if 0 <= k < known]
            out[hit] = self._table[round_index, [devices[i] for i in hit]]
        return out

    def add_rows(self, round_index, devices, rows):
        """Add ``rows``, as rows() gives them or as their bytes, to the
        listed devices' cells of one round."""
        rows = np.frombuffer(rows, np.int64)
        if rows.size != len(devices) * len(PURPOSES) or (rows < 0).any():
            raise NetsimError(f"{rows.size} ledger cells for {len(devices)} devices, "
                              "or a negative one")
        if rows.any():
            self._grow(round_index, max(devices))
            self._table[round_index, devices] += rows.reshape(len(devices), len(PURPOSES))

    def per_device_traffic(self, round_index, devices):
        """{device: (bytes up, bytes down)} in one round, for each listed device."""
        devices = list(devices)
        traffic = self.rows(round_index, devices) @ _DIRECTIONS
        return dict(zip(devices, map(tuple, traffic.tolist())))


class _Cells(Mapping):
    """A ledger's cells that hold bytes, read-only and live, as
    {(round, device, purpose): bytes} in (round, device, PURPOSES) order."""

    def __init__(self, ledger):
        self._ledger = ledger

    def __getitem__(self, key):
        round_index, device, purpose = key
        nbytes = self._ledger.total(purpose=purpose, round_index=round_index, device=device)
        if purpose not in PURPOSES or nbytes == 0:
            raise KeyError(key)
        return nbytes

    def __iter__(self):
        names = tuple(PURPOSES)
        cells = np.nonzero(self._ledger._table)
        for round_index, device, p in zip(*(axis.tolist() for axis in cells)):
            yield round_index, device, names[p]

    def __len__(self):
        return int(np.count_nonzero(self._ledger._table))


def _axis(index, size):
    """What a filter keeps of an axis of ``size``: all of it for None, else
    position ``index``, or nothing if it lies outside."""
    if index is None:
        return slice(None)
    return slice(index, index + 1) if 0 <= index < size else slice(0)


@dataclass
class CostReport:
    """Per-device byte prediction for one round of one method."""

    devices: int
    purpose_bytes: dict = field(default_factory=dict)  # purpose -> bytes per device

    @property
    def per_device_up(self):
        return _up_down(self.purpose_bytes)[0]

    @property
    def per_device_down(self):
        return _up_down(self.purpose_bytes)[1]

    @property
    def total_bytes(self):
        return self.devices * (self.per_device_up + self.per_device_down)

    @property
    def gib(self):
        return self.total_bytes / GIB


def record_bytes(batch, act_elements, rank, quantized):
    """Exact activation-record wire size for one batch, by the wire format's
    own rule: 1 byte per element quantized, 4 raw, plus the batch's labels."""
    payload = batch * act_elements * (CODE_BYTES if quantized else FLOAT_BYTES)
    return quantize.wire_bytes(rank, batch, payload)


def _batched_record_bytes(samples, batch_size, act_elements, rank, quantized):
    full, rem = divmod(samples, batch_size)
    total = full * record_bytes(batch_size, act_elements, rank, quantized)
    if rem:
        total += record_bytes(rem, act_elements, rank, quantized)
    return total


def comm_bytes_per_round(method, spec, op_index=None, *, samples_per_device,
                         devices, batch_size, quantized=True, freeze_device=False):
    """Exact per-round traffic prediction for one method at one setting."""
    if method not in METHODS:
        raise NetsimError(f"unknown method {method!r}")
    facts = models.analyze(spec, op_index)
    zeros = dict.fromkeys(PURPOSES, 0)
    report = CostReport(devices=devices, purpose_bytes=zeros)
    act_raw = facts.activation_elements * FLOAT_BYTES * samples_per_device
    model = 0  # weight bytes synced each way per device
    if method == "classic":
        model = facts.total_params * FLOAT_BYTES
    elif method in ("split", "local_loss"):
        report.purpose_bytes["activation"] = act_raw
        report.purpose_bytes["labels"] = LABEL_BYTES * samples_per_device
        if method == "local_loss":
            head = models.head_descs(facts.activation_shape, spec.num_classes)
            model = (facts.device_params + sum(d.param_count() for d in head)) * FLOAT_BYTES
        elif not freeze_device:  # a frozen device stack takes no gradient and no sync
            report.purpose_bytes["gradient"] = act_raw
            model = facts.device_params * FLOAT_BYTES
    elif method == "replay_tx":
        rank = 1 + len(facts.activation_shape)
        wire = _batched_record_bytes(samples_per_device, batch_size,
                                     facts.activation_elements, rank, quantized)
        report.purpose_bytes["activation"] = wire
    # replay_buffer: all zeros
    report.purpose_bytes["model_up"] = model
    report.purpose_bytes["model_down"] = model
    return report


def cost_ratio(method_a, method_b, spec, **setting):
    """Exact byte quotient of two methods' per-round costs."""
    a = comm_bytes_per_round(method_a, spec, **setting)
    b = comm_bytes_per_round(method_b, spec, **setting)
    if b.total_bytes == 0:
        raise NetsimError(f"{method_b} moves zero bytes; ratio undefined")
    return a.total_bytes / b.total_bytes


@dataclass(frozen=True)
class ComputeReport:
    device_units: float
    server_units: float


def computation_units(method, spec, op_index=None, *, samples_per_device, freeze_device=False):
    """Per-device and server MAC units for one round.

    Training a stack costs 2x its forward MACs (forward + backward), so a
    forward-only pass costs half of a trained one. classic trains the whole
    model on device; split/local_loss train the device stack there (the
    local-loss auxiliary head included), but split with ``freeze_device``
    runs it forward only, as replay transmission rounds do; cached replay
    rounds cost the device nothing while the server keeps training.
    """
    if method not in METHODS:
        raise NetsimError(f"unknown method {method!r}")
    facts = models.analyze(spec, op_index)
    server_train = 2 * facts.server_macs * samples_per_device
    if method == "classic":
        return ComputeReport(2 * (facts.device_macs + facts.server_macs) * samples_per_device, 0)
    if method == "split":
        passes = 1 if freeze_device else 2
        return ComputeReport(passes * facts.device_macs * samples_per_device, server_train)
    if method == "local_loss":
        head = models.head_descs(facts.activation_shape, spec.num_classes)
        head_macs = sum(d.forward_macs() for d in head)
        return ComputeReport(2 * (facts.device_macs + head_macs) * samples_per_device, server_train)
    if method == "replay_tx":
        return ComputeReport(facts.device_macs * samples_per_device, server_train)
    return ComputeReport(0, server_train)  # replay_buffer


def transfer_time(nbytes, mbps):
    """Seconds to move nbytes over a link of the given megabits/second."""
    if mbps <= 0:
        raise NetsimError(f"bandwidth must be positive, got {mbps}")
    return nbytes * 8.0 / (mbps * 1e6)


@dataclass
class LatencyReport:
    per_device: dict  # device -> seconds busy in the round
    round_latency_s: float
    comm_share: float


def round_latency(per_device_traffic, compute, profile, device_speed, server_speed):
    """First-order round latency: per device, device compute + transfers +
    server compute, run sequentially; the round takes as long as its slowest
    device. comm_share is aggregate transfer seconds over aggregate total."""
    if not per_device_traffic:
        raise NetsimError("latency needs at least one device's traffic")
    if device_speed <= 0 or server_speed <= 0:
        raise NetsimError("compute speeds must be positive")
    per_device = {}
    comm_total = 0.0
    busy_total = 0.0
    for device, (up, down) in sorted(per_device_traffic.items()):
        comm = transfer_time(up, profile.uplink_mbps) + transfer_time(down, profile.downlink_mbps)
        comp = compute.device_units / device_speed + compute.server_units / server_speed
        per_device[device] = comp + comm
        comm_total += comm
        busy_total += comp + comm
    slowest = max(per_device.values())
    if not math.isfinite(slowest):
        raise NetsimError(f"round latency is not finite: {slowest} s")
    share = comm_total / busy_total if busy_total > 0 else 0.0
    return LatencyReport(per_device=per_device, round_latency_s=slowest, comm_share=share)
