"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``python -m pytest perfbench/tests``.  Instances run at the
``tiny`` size in fresh interpreters, exactly as the benchmark runs them.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from metrics import SELF_TIME_METRICS, declared
from tracing import self_times
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _instance(workload, seed, trace, index=0):
    return run.run_instance(
        workload, seed, index, trace, "tiny", run._now() + 120.0
    )


def test_self_time_of_nested_spans():
    # a[0,10] contains b[1,4] (which contains c[2,3]) and b[5,9].
    names = [0, 1, 2, 1]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(names, starts, ends, parents, 3)
    assert own.tolist() == pytest.approx([3.0, 6.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_sibling_spans_do_not_discount_each_other():
    own = self_times([0, 0, 0], [0.0, 0.0, 2.0], [2.0, 2.0, 3.0],
                     [-1, -1, -1], 1)
    assert own.tolist() == pytest.approx([5.0])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(trace, kind):
    result = run.measure("chain_tcp", 3, 0, trace, size="tiny")
    assert result["correct"], result["_failures"]
    spec = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert set(result) >= {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_the_digest_unchanged(workload):
    plain = _instance(workload, 5, 0)
    traced = _instance(workload, 5, 1)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digest"] == traced["digest"]
    assert plain["sim"] == traced["sim"]


def test_an_untraced_run_fails_when_its_twin_disagrees(monkeypatch):
    real = run.run_instance

    def run_instance(*args, sims=None, **kwargs):
        out = real(*args, sims=sims, **kwargs)
        if sims is not None:  # the twin
            out["sim_digests"] = ["0" * 64]
        return out

    monkeypatch.setattr(run, "run_instance", run_instance)
    result = run.measure("chain_leotp", 3, 0, 0, size="tiny")
    assert not result["correct"] and result["failed"] > 0
    assert any("disagree" in f for f in result["_failures"])


def test_another_seed_changes_the_digest():
    for workload in WORKLOADS:
        assert _instance(workload, 5, 0)["digest"] != _instance(
            workload, 6, 0)["digest"]


def test_layer_self_times_add_up_to_the_traced_wall_time():
    layers = _instance("pool_content", 7, 1)["trace"]
    self_s = {k: v for k, v in layers.items() if k.endswith("self_s")}
    assert all(v >= 0 for v in self_s.values()), self_s
    assert sum(self_s.values()) == pytest.approx(layers["trace.wall_s"])
    assert layers["workload.self_s"] > 0 and layers["shard.exchange_self_s"] > 0


def test_traced_instance_writes_its_spans():
    out = _instance("chain_leotp", 7, 1)
    with np.load(out["spans_file"]) as spans:
        assert spans["site"].size == out["spans"]
        own = self_times(
            spans["site"], spans["start"], spans["end"], spans["parent"],
            spans["site_entry"].size,
        )
        site_span = spans["site_span"]
    for span, metric in SELF_TIME_METRICS.items():
        assert own[site_span == span].sum() == pytest.approx(
            out["trace"][metric]
        )


def test_chain_tcp_charges_nothing_to_leotp_layers():
    layers = _instance("chain_tcp", 7, 1)["trace"]
    core = {k: v for k, v in layers.items()
            if k.startswith("core.") and "self_s" in k}
    assert core and all(v == 0.0 for v in core.values()), core
    assert layers["tcp.self_s"] > 0


def test_flags_that_change_the_measurement_are_refused():
    assert run.refused_flags({"LEOTP_PACKET_POOL": "0"})
    assert run.refused_flags({"LEOTP_BENCH_TINY": "1"})
    assert not run.refused_flags({"LEOTP_PACKET_POOL": "1"})


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "spans"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "metrics" not in json.loads(line)
