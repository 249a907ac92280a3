"""The benchmark's workloads are valid runs: at both benchmark seeds each
config passes config.from_dict and runtime.init_state builds it, so a schema
change cannot break the benchmark without a test failing."""

import importlib.util
from pathlib import Path

import pytest

from sflsim import config as config_mod
from sflsim import runtime

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_builds(name, seed):
    cfg = config_mod.from_dict(workloads.config_dict(name, seed))
    state = runtime.init_state(cfg)
    assert cfg.seed == seed and sorted(state.shards) == list(range(cfg.devices))
