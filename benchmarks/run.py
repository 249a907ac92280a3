#!/usr/bin/env python3
"""Benchmark of the sflsim training runtime.

    python3 benchmarks/run.py --workload split_k4 --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all

One process is one run: a closed loop that builds a fresh training state
(``config.from_dict`` -> ``runtime.init_state``) and issues rounds back to
back, checking every round against the cost model. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
episodes of the same seed and reports the per-layer metrics. The last line
of standard output is one JSON object; full results, with the environment
record, go to ``benchmarks/out/<workload>/``. See README.md next to this file.
"""

import os

# Pin BLAS to one thread before numpy loads. On a 2-CPU host two BLAS
# threads ran the desk models about 1.5x slower, with identical weights.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import environment  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_dict  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "sflsim"
OUT_DIR = BENCH_DIR / "out"

TRACED_MODULES = ("kernel", "models", "runtime", "netsim", "quantize", "buffer", "diagnostics", "data")

SETUP_REPEATS = 7  # set-ups timed before the episodes; setup_s is their median
WARMUP_ROUNDS = 2  # untimed rounds on a throwaway state
EPISODES = 4  # untraced episodes per run; each round's time is its fastest repeat
REFERENCE_PROBE_S = 100e-6  # host probe time that times are normalised to
PROBE_RECORD_OPS = 201  # host probe ops timed for the environment record
TRACE_PAIRS = 2  # untraced + traced episode pairs per traced run
EPISODE_CUTOFF_S = 150  # start no episode after this
MAX_LOGGED_FAILURES = 20

# Errors a round can raise; the run reports them as failed checks.
ROUND_ERRORS = (ValueError, RuntimeError, KeyError, ArithmeticError)


def load_sflsim():
    """Import sflsim from this checkout's src/, never from site-packages."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: no sflsim sources at {PACKAGE_DIR}; run from a full checkout")
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    modules = {name: importlib.import_module(f"sflsim.{name}") for name in TRACED_MODULES + ("config",)}
    found = Path(modules["kernel"].__file__).resolve().parent
    if found != PACKAGE_DIR:
        raise SystemExit(f"error: imported sflsim from {found}, expected {PACKAGE_DIR}")
    return modules


@dataclass
class Episode:
    setup_s: float  # host-normalised, like every time below
    round_s: list
    raw_round_s: list  # as the clock read them
    probe_s: list  # host probe before each round and after the last
    samples_per_round: int
    planned_rounds: int
    state: object
    last: object  # RoundResult of the final round, None if none ran

    @property
    def complete(self):
        return len(self.round_s) == self.planned_rounds


class Run:
    """One workload at one seed: set-ups, episodes, and per-round checks."""

    def __init__(self, sfl, workload, seed):
        self.sfl = sfl
        self.workload = workload
        self.seed = seed
        self.raw = config_dict(workload, seed)
        self.probe = environment.HostProbe()
        self.failures = []
        self.failure_count = 0
        self._predicted = {}

    def fail(self, message):
        self.failure_count += 1
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(message)

    def setup(self, tracer=None):
        """One set-up, from config validation to the return of init_state;
        returns the state and its host-normalised time."""
        before = self.probe()
        if tracer is not None:
            tracer.round, tracer.active = tracing.SETUP_ROUND, True
        start = time.perf_counter()
        state = self.sfl["runtime"].init_state(self.sfl["config"].from_dict(self.raw))
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        return state, normalise(elapsed, before, self.probe())

    def warm_up(self):
        state, _ = self.setup()
        round_fn = getattr(self.sfl["runtime"], f"run_round_{state.config.mode}")
        for t in range(WARMUP_ROUNDS):
            round_fn(state, t)

    def episode(self, tracer=None):
        """Set up, then run every round of the workload back to back."""
        state, setup_s = self.setup(tracer)
        round_fn = getattr(self.sfl["runtime"], f"run_round_{state.config.mode}")
        samples = sum(len(shard) for shard in state.shards.values())
        raw, probes, last = [], [self.probe()], None
        for t in range(state.config.rounds):
            if tracer is not None:
                tracer.round, tracer.active = t, True
            start = time.perf_counter()
            try:
                result = round_fn(state, t)
            except ROUND_ERRORS as exc:
                self.fail(f"round {t} raised {type(exc).__name__}: {exc}")
                break
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            raw.append(elapsed)
            probes.append(self.probe())
            last = result
            self.check_round(state, result)
        normalised = [normalise(r, probes[i], probes[i + 1]) for i, r in enumerate(raw)]
        return Episode(setup_s, normalised, raw, probes, samples, state.config.rounds, state, last)

    def predicted_traffic(self, method, state, samples):
        key = (method, samples)
        if key not in self._predicted:
            cfg = state.config
            report = self.sfl["netsim"].comm_bytes_per_round(
                method, state.spec, state.op_index,
                samples_per_device=samples, devices=cfg.devices, batch_size=cfg.batch_size,
                quantized=cfg.quantized, freeze_device=state.frozen_device,
            )
            self._predicted[key] = (report.per_device_up, report.per_device_down)
        return self._predicted[key]

    def check_round(self, state, result):
        """The ledger matches the cost model per device to the byte, and every
        loss, accuracy and diagnostic of the round is finite."""
        cfg, t = state.config, result.t
        method = cfg.mode
        if method == "replay":
            on = self.sfl["buffer"].switch_is_on(t, cfg.rho)
            method = "replay_tx" if on else "replay_buffer"
        for k, shard in state.shards.items():
            want = self.predicted_traffic(method, state, len(shard))
            got = tuple(result.traffic[k])
            if got != want:
                self.fail(f"round {t} device {k}: ledger {got} != cost model {want}")
        values = [result.test_acc, *result.server_loss.values()]
        diag = result.diagnostics
        if diag is not None:
            values += [diag.grad_norm_sq, diag.loss, *diag.eps.values(), *diag.delta.values()]
        if not all(math.isfinite(v) for v in values):
            self.fail(f"round {t}: non-finite loss, accuracy or diagnostic")

    def quality(self, episode):
        """Final test accuracy, test cross-entropy and final-weight SHA-256."""
        state = episode.state
        layers = model_layers(state)
        images, labels = state.dataset.subset("test")
        kernel = self.sfl["kernel"]
        loss, _ = kernel.softmax_cross_entropy(kernel.forward(layers, images).output, labels)
        if not math.isfinite(loss):
            self.fail("final test loss is not finite")
        return {
            "final_test_acc": episode.last.test_acc,
            "final_loss": loss,
            "weights_sha256": weights_sha256(state),
        }

    def check_hashes(self, hashes, env):
        """Same seed, same hash: within this run and against earlier runs of
        the same source on the same numpy, BLAS and CPU."""
        if len(set(hashes)) > 1:
            self.fail(f"episodes of one seed (traced or not) ended with different weights: "
                      f"{sorted(set(hashes))}")
        key = "|".join([
            self.workload, f"seed={self.seed}", f"rounds={self.raw['rounds']}",
            f"src={env['source_sha256']}", f"numpy={env['numpy']}",
            f"blas={env['blas']['version']}", f"cpu={env['cpu_model']}",
        ])
        path = OUT_DIR / "hashes.json"
        try:
            known = json.loads(path.read_text())
        except (OSError, ValueError):
            known = {}
        if key in known and known[key] != hashes[0]:
            self.fail(f"final-weight hash {hashes[0]} != {known[key]} from an earlier run")
        known[key] = hashes[0]
        write_json(path, known)


def model_layers(state):
    """The trained model as one stack: classic's full model or device + server."""
    if state.global_model is not None:
        return list(state.global_model)
    return list(state.global_device) + list(state.global_server)


def weights_sha256(state):
    """SHA-256 of every trained parameter, the local-loss head included."""
    digest = hashlib.sha256()
    for layer in model_layers(state) + list(state.global_head or ()):
        for name, arr in sorted(layer.params().items()):
            digest.update(f"{layer.kind}.{name}{arr.shape}{arr.dtype}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1))
    os.replace(tmp, path)


def normalise(elapsed, probe_before, probe_after):
    """Seconds at the reference host speed: the measured time scaled by
    REFERENCE_PROBE_S over the host probe timed around it."""
    return elapsed * REFERENCE_PROBE_S / (0.5 * (probe_before + probe_after))


def per_round_min(episodes):
    """Fastest host-normalised time of each round index over whole episodes.

    Episodes of one seed are bit-identical, so every repeat of round t does
    the same work; what varies is the host. The minimum over repeats keeps
    each round's own cost, and the spread over t that the workload has.
    """
    return [min(times) for times in zip(*(e.round_s for e in episodes if e.complete))]


def run_untraced(run):
    """End-to-end metrics: set-up repeats, then EPISODES whole episodes."""
    start = time.perf_counter()
    setups = [run.setup()[1] for _ in range(SETUP_REPEATS)]
    run.warm_up()
    episodes, hashes, quality = [], [], None
    while len(episodes) < EPISODES and time.perf_counter() - start < EPISODE_CUTOFF_S:
        episode = run.episode()
        if episode.complete:
            quality = run.quality(episode)
            hashes.append(quality.pop("weights_sha256"))
        episode.state = None  # keep memory, and so peak_rss_mb, to one episode
        episodes.append(episode)
        setups.append(episode.setup_s)
        if not episode.complete:
            break
    round_s = per_round_min(episodes)
    if not round_s:
        return None, {}
    metrics = {
        "train_samples_per_s": (episodes[0].samples_per_round * len(round_s) / sum(round_s), "1/s"),
        "round_s_p50": (statistics.median(round_s), "s"),
        "round_s_p90": (statistics.quantiles(round_s, n=10)[8], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "rounds_attempted": sum(len(e.round_s) for e in episodes),
        "episodes": len(episodes),
        "setup_s_samples": setups,
        "round_s_by_episode": [e.round_s for e in episodes],
        "raw_round_s_by_episode": [e.raw_round_s for e in episodes],
        "probe_s_by_episode": [e.probe_s for e in episodes],
        "quality": quality,
        "hashes": hashes,
    }
    return metrics, details


def run_traced(run):
    """Per-layer metrics: untraced and traced episodes of one seed, alternated."""
    run.warm_up()
    tracer = tracing.Tracer()
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run.episode())
        tracer.install({name: run.sfl[name] for name in TRACED_MODULES}, run.sfl["kernel"].Layer)
        try:
            traced.append(run.episode(tracer))
        finally:
            tracer.uninstall()
        if not (plain[-1].complete and traced[-1].complete):
            return None, {}
    qualities = [run.quality(e) for e in plain + traced]
    hashes = [q.pop("weights_sha256") for q in qualities]
    state = traced[-1].state
    activation_bytes = (
        state.ledger.total(purpose="activation") if state.config.mode == "replay" else 0)
    extras = {
        "episodes": len(traced),
        "ledger_entries": len(state.ledger.entries),
        "buffer_bytes": state.buffer.total_bytes() if state.buffer is not None else 0,
        "activation_wire_bytes": activation_bytes,
    }
    rounds = run.raw["rounds"]
    table = tracing.SpanTable(tracer.spans, "diagnostics.record_round")
    traced_wall = sum(t for e in traced for t in e.raw_round_s)
    metrics = tracing.per_layer_metrics(table, rounds, traced_wall, extras)
    overhead = sum(per_round_min(traced)) - sum(per_round_min(plain))
    metrics["trace.overhead_s"] = (overhead / rounds, "s")
    metrics["quality.final_test_acc"] = (qualities[0]["final_test_acc"], "ratio")
    metrics["quality.final_loss"] = (qualities[0]["final_loss"], "nats")
    spans_path = OUT_DIR / run.workload / "spans.jsonl.gz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path, run.workload)
    details = {
        "rounds_attempted": rounds * (len(plain) + len(traced)),
        "plain_round_s_by_episode": [e.raw_round_s for e in plain],
        "traced_round_s_by_episode": [e.raw_round_s for e in traced],
        "probe_s_by_episode": [e.probe_s for e in plain + traced],
        "quality": qualities[0],
        "hashes": hashes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def run_one(args):
    start = time.perf_counter()
    sfl = load_sflsim()
    env = environment.record(ROOT, PACKAGE_DIR)
    host_probe_s = environment.HostProbe()(ops=PROBE_RECORD_OPS)
    steal_before = environment.steal_ticks()
    run = Run(sfl, args.workload, args.seed)
    measure = run_traced if args.trace else run_untraced
    metrics, details = measure(run)
    if metrics is None:
        print(f"error: {args.workload}: no complete episode: {run.failures}", file=sys.stderr)
        return 1
    run.check_hashes(details["hashes"], env)
    steal_after = environment.steal_ticks()
    attempted = details["rounds_attempted"]
    correct = run.failure_count == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_json(OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": run.raw,
        "environment": env,
        "host_probe_s": host_probe_s,
        "reference_probe_s": REFERENCE_PROBE_S,
        "steal_ticks": None if steal_before is None else steal_after - steal_before,
        "run_wall_s": time.perf_counter() - start,
        "failures": run.failures,
        "failure_count": run.failure_count,
        "result": result,
        **details,
    })
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value:14.6g} {unit}")
    for message in run.failures:
        print(f"{args.workload:12s} CHECK FAILED: {message}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in a fresh process; nonzero if any run fails."""
    load_sflsim()  # fail here, not once per workload, outside a full checkout
    summary, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="config seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="nominal run length; recorded, the measured work is fixed (see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
