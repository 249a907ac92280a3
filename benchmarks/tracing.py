"""Span tracing of sflsim from outside: wraps module functions and methods.

``Tracer.install`` replaces every public function of the traced modules,
the public methods of their classes, and ``forward``/``backward`` of every
``kernel.Layer`` subclass with a wrapper that records one span per call:
(name, start, end, parent, round). Spans stay in memory; ``write`` dumps
them as gzipped JSON lines when the run ends. ``uninstall`` puts the
originals back. No file under ``src/`` is touched.

A span's self time is its duration minus the durations of its direct
children, so the self times of a round's span tree sum to the round span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

# Layer kinds whose forward/backward get their own per-layer metric.
LAYER_KINDS = ("conv3x3", "maxpool2x2", "conv1x1", "dense", "relu")

SETUP_ROUND = -1  # round tag of spans recorded during set-up


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, round]
        self.round = SETUP_ROUND
        self.active = False
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, modules, layer_base):
        """Wrap the public callables of ``modules`` ({short name: module})."""
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, attr, f"{short}.{attr}")
                elif inspect.isclass(obj) and issubclass(obj, layer_base):
                    for method, tag in (("forward", "fwd"), ("backward", "bwd")):
                        if method in vars(obj):
                            self._patch(obj, method, f"{short}.{obj.kind}.{tag}")
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method, f"{short}.{attr}.{method}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, workload):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "workload": workload, "round": rnd,
                }) + "\n")


class SpanTable:
    """Column view of a finished trace with self times and observer ancestry."""

    def __init__(self, spans, observer_name):
        self.vocab = sorted({s[0] for s in spans})
        ids = {name: i for i, name in enumerate(self.vocab)}
        self.codes = np.array([ids[s[0]] for s in spans], dtype=np.int64)
        start = np.array([s[1] for s in spans], dtype=np.float64)
        end = np.array([s[2] for s in spans], dtype=np.float64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        self.round = np.array([s[4] for s in spans], dtype=np.int64)
        self.duration = end - start
        has_parent = self.parent >= 0
        child_time = np.zeros(len(spans))
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time
        # Parents precede their children, so one forward pass marks every
        # span that runs under the observer.
        observer = ids.get(observer_name, -1)
        under = np.zeros(len(spans), dtype=bool)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                under[i] = under[p] or self.codes[p] == observer
        self.under_observer = under

    def names_matching(self, prefix):
        return [n for n in self.vocab if n.startswith(prefix)]

    def select(self, names=None, rounds=True):
        """Mask of spans with one of ``names`` (all if None), in rounds or in set-up."""
        mask = self.round >= 0 if rounds else self.round == SETUP_ROUND
        if names is not None:
            names = set(names)
            mask &= np.isin(self.codes, [i for i, n in enumerate(self.vocab) if n in names])
        return mask


def per_layer_metrics(table, rounds, round_wall_s, extras):
    """Per-layer metrics of the traced episodes.

    ``rounds`` is the length of one episode and ``extras["episodes"]`` the
    number traced; ``round_wall_s`` is the summed wall time of all traced
    rounds as the round loop measured it. The other ``extras`` are read from
    the last episode's final state. Times are seconds per round, set-up
    times seconds per episode.
    """
    episodes = extras["episodes"]
    total = rounds * episodes

    def self_s(*names):
        return float(table.self_time[table.select(names)].sum()) / total

    def incl_s(*names):
        return float(table.duration[table.select(names)].sum()) / total

    def per_round(mask):
        return float(mask.sum()) / total

    def setup_s(name):
        return float(table.duration[table.select([name], rounds=False)].sum()) / episodes

    layer_names = [n for n in table.names_matching("kernel.") if n.endswith((".fwd", ".bwd"))]
    layer_mask = table.select(layer_names)
    out = {}
    for kind in LAYER_KINDS:
        out[f"kernel.{kind}.fwd_s"] = (self_s(f"kernel.{kind}.fwd"), "s")
        out[f"kernel.{kind}.bwd_s"] = (self_s(f"kernel.{kind}.bwd"), "s")
    out["kernel.resblock.self_s"] = (self_s("kernel.resblock.fwd", "kernel.resblock.bwd"), "s")
    out["kernel.stack.self_s"] = (self_s(
        "kernel.forward", "kernel.backward", "kernel.flatten.fwd", "kernel.flatten.bwd"), "s")
    out["kernel.sgd_step_s"] = (self_s("kernel.sgd_step"), "s")
    out["kernel.softmax_ce_s"] = (self_s("kernel.softmax_cross_entropy"), "s")
    out["kernel.layer_calls"] = (per_round(layer_mask), "count")

    out["models.clone_stack_s"] = (self_s("models.clone_stack"), "s")
    out["models.clone_stack.calls"] = (per_round(table.select(["models.clone_stack"])), "count")
    out["models.pretrain_s"] = (setup_s("models.pretrain_device_side"), "s")

    round_names = table.names_matching("runtime.run_round_")
    out["runtime.round.self_s"] = (self_s(*round_names), "s")
    out["runtime.fedavg_s"] = (self_s("runtime.fedavg"), "s")
    out["runtime.state_copy_s"] = (self_s("kernel.stack_state", "kernel.load_state"), "s")
    out["runtime.evaluate_s"] = (incl_s("runtime.evaluate"), "s")

    query = table.select(["netsim.TrafficLedger.per_device_traffic"])
    tenth = max(1, rounds // 10)
    early = query & (table.round < tenth)
    late = query & (table.round >= rounds - tenth)
    out["netsim.ledger.record_calls"] = (
        per_round(table.select(["netsim.TrafficLedger.record"])), "count")
    out["netsim.ledger.entries"] = (float(extras["ledger_entries"]), "count")
    out["netsim.ledger.query_s.early"] = (float(table.duration[early].sum()) / (tenth * episodes), "s")
    out["netsim.ledger.query_s.late"] = (float(table.duration[late].sum()) / (tenth * episodes), "s")
    out["netsim.latency_s"] = (incl_s("netsim.round_latency", "netsim.computation_units"), "s")

    record_round_s = incl_s("diagnostics.record_round")
    out["diagnostics.record_round_s"] = (record_round_s, "s")
    out["diagnostics.observer_share"] = (record_round_s * total / round_wall_s, "ratio")
    out["diagnostics.quantization_error_s"] = (incl_s("quantize.quantization_error"), "s")
    out["diagnostics.kernel_calls"] = (
        per_round(layer_mask & table.under_observer), "count")

    out["quantize.encode_s"] = (incl_s("quantize.encode"), "s")
    out["quantize.decode_s"] = (incl_s("quantize.decode"), "s")
    out["quantize.serialize_s"] = (incl_s("quantize.serialize"), "s")
    out["quantize.serialize.calls"] = (per_round(table.select(["quantize.serialize"])), "count")
    out["quantize.wire_bytes"] = (float(extras["activation_wire_bytes"]) / rounds, "bytes")

    fetches = float((table.select(["buffer.ReplayBuffer.fetch"]) & ~table.under_observer).sum())
    stores = float(table.select(["buffer.ReplayBuffer.store"]).sum())
    out["buffer.store_s"] = (self_s("buffer.ReplayBuffer.store"), "s")
    out["buffer.fetch_s"] = (self_s("buffer.ReplayBuffer.fetch"), "s")
    out["buffer.hit_ratio"] = (fetches / (fetches + stores) if stores else 0.0, "ratio")
    out["buffer.bytes"] = (float(extras["buffer_bytes"]), "bytes")

    out["data.generate_s"] = (setup_s("data.generate_blobs"), "s")
    out["data.augment_s"] = (incl_s("data.augment_hflip"), "s")

    out["trace.self_time_coverage"] = (
        float(table.self_time[table.select()].sum()) / round_wall_s, "ratio")
    return out
