"""Tiny-size checks of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from spans import per_layer_units  # noqa: E402
from workloads import Certify, Homotopy, Index, Sizes  # noqa: E402

# modes 64 is the smallest truncation that resolves loops turning once
TINY = Sizes(modes=64, grid=1024, turns=(-1, 0, 1), suite_limit=4,
             pairs_per_dim=1, loop_pairs=1, unitaries=1)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
KINDS = {"certify": Certify, "index": Index, "homotopy": Homotopy}
OWN_LAYER = {"certify": "starpoly.ideal_member.rel1-implies-rel2_s",
             "index": "relindex.engine_values_s.N128",
             "homotopy": "balanced.check_balanced_s"}


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = run.measure(KINDS[name](TINY), seed=7,
                                             seconds=0.01, trace=trace)
        return cache[name, trace]

    return get


@pytest.mark.parametrize("name", KINDS)
def test_every_end_to_end_metric_is_emitted(results, name):
    result = results(name, False)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: result["units"][k] for k in result["metrics"]} == expected
    assert all(value > 0 for value in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", KINDS)
def test_every_per_layer_metric_is_emitted(results, name):
    result = results(name, True)
    assert result["units"] == per_layer_units(TINY.modes)
    assert set(result["metrics"]) == set(per_layer_units(TINY.modes))
    assert result["metrics"][OWN_LAYER[name]] > 0
    assert result["metrics"]["trace.overhead"] > 0
    assert result["failed"] == 0


def test_benchmark_json_lists_the_per_layer_metrics():
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed == per_layer_units(Sizes().modes)


def test_index_spans_account_for_the_item_time(results):
    result = results("index", True)
    assert result["span_coverage"] > 0.97
    metrics = result["metrics"]
    assert 0 < metrics["relindex.verify_index_theorem.self_s"] \
        < metrics["relindex.verify_index_theorem_s"]
    assert all(v > 0 for v in result["stage_order"]["seconds"].values())


def test_tracer_restores_every_wrapped_name(results):
    import balk1.balanced
    import balk1.numkern
    import balk1.relindex
    results("index", True)
    results("homotopy", True)
    assert balk1.balanced.opnorm is balk1.numkern.opnorm
    assert balk1.relindex.opnorm is balk1.numkern.opnorm
    assert not hasattr(balk1.relindex.engine_values, "__wrapped__")


@pytest.mark.parametrize("workload", [
    Certify(TINY, expect_certified=False),
    Index(TINY, expected_index=lambda p, q: q - p + 1),
    Homotopy(TINY, c_of_unitary=lambda u: -u),
], ids=["certify", "index", "homotopy"])
def test_a_wrong_reference_answer_counts_as_failure(workload):
    result = run.measure(workload, seed=7, seconds=0.01, trace=False)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_tail_needs_ten_items_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)
    assert run.tail([1.0] * 19) is None


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
