"""Smoke test of the verdict benchmark at toy sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json

import pytest

import run


def _run(workload, trace):
    result, lines = run.run_benchmark(workload, seed=3, seconds=0.2, trace=trace, toy=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    return {name: metric["value"] for name, metric in result["metrics"].items()}, result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_and_counts_repeat(workload):
    plain, result = _run(workload, trace=False)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(value > 0 for value in plain.values())
    traced, result = _run(workload, trace=True)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER_UNITS

    again, _ = _run(workload, trace=False)
    assert again["work_count"] == plain["work_count"]
    traced_again, _ = _run(workload, trace=True)
    for count in ("solver.lift_calls", "solver.changes", "trees.trees_checked",
                  "trees.min_leaf_geq_calls"):
        assert traced_again[count] == traced[count], count
    if workload == "universal":
        assert traced["trees.trees_checked"] == plain["work_count"]
    else:
        assert traced["solver.lift_calls"] == plain["work_count"]


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    # The run imports pgtrees afresh, so the wrong answer is injected into
    # the benchmark's verdict rather than into the program.
    verdict = run.GameCorpus.verdict

    def swapped(self, i, api):
        g, result = verdict(self, i, api)
        regions = type(result.regions)(even=result.regions.odd, odd=result.regions.even)
        return g, dataclasses.replace(result, regions=regions)

    monkeypatch.setattr(run.GameCorpus, "verdict", swapped)
    assert run.main(["--workload", "small", "--seed", "1", "--seconds", "0.1", "--toy"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_scaling_to_the_reference_speed():
    assert run.to_reference(5e6, run.REFERENCE_UNIT_NS) == 5e6
    # while the unit runs twice as long, the program runs 2 ** SENSITIVITY as long
    slowed = 5e6 * 2 ** run.SENSITIVITY
    assert run.to_reference(slowed, 2 * run.REFERENCE_UNIT_NS) == pytest.approx(5e6)


def test_corpus_is_a_function_of_the_seed():
    for workload in run.WORKLOADS:
        a = run.make_corpus(workload, 5, toy=True).digest
        assert a == run.make_corpus(workload, 5, toy=True).digest
        assert a != run.make_corpus(workload, 6, toy=True).digest


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
