"""Smoke tests of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TINY = {"fig1_cli": 10, "rational_n1000": 20, "reduced_n2000": 20}


@pytest.fixture(scope="module")
def spec():
    return json.loads(BENCHMARK_JSON.read_text())


def test_spec_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_and_emits_every_metric(spec, name, trace):
    record = run.measure(name, seed=1, seconds=0.0, trace=trace,
                         n_elements=TINY[name], setup_runs=1)
    result = record["result"]
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)
        assert record["raw"]["wall_s"] > 0 and record["raw"]["ref_s"] > 0
        assert [len(r) for r in record["refs"]] == [len(w) for w in record["walls"]]
    else:
        assert record["unmeasured"] == []
        assert result["metrics"]["tridiag.solve_calls"]["value"] > 0
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.9


def _case(tf, cli, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    case = wl.prepare(tf, cli, workloads.NOMINAL, tmp_path, 0, TINY[name])
    out = wl.collect(case, wl.execute(tf, cli, case))
    return wl, case, out


@pytest.mark.parametrize("name", list(TINY))
def test_corrupted_output_fails_its_gate(name, tmp_path):
    tf, cli = run.load_program()
    wl, case, out = _case(tf, cli, name, tmp_path)
    assert wl.gate(case, out) > 0.0
    out.profile[1] += 1e-6  # breaks the oracle match and the mirror symmetry
    with pytest.raises(workloads.GateError):
        wl.gate(case, out)


def test_a_failed_gate_is_counted(monkeypatch):
    wl = workloads.WORKLOADS["reduced_n2000"]
    real = wl.gate

    def corrupting_gate(case, out):
        out.profile[0] += 1.0
        return real(case, out)

    monkeypatch.setattr(wl, "gate", corrupting_gate)
    result = run.measure(wl.name, seed=0, seconds=0.0, trace=False,
                         n_elements=TINY[wl.name], setup_runs=1)["result"]
    assert not result["correct"]
    # the warm-up and the timed run fail; the two child interpreters load
    # the unpatched gate
    assert (result["attempted"], result["failed"]) == (4, 2)


def test_a_missing_hook_is_reported_not_fatal(monkeypatch):
    tf, cli = run.load_program()
    monkeypatch.delattr(tf, "residual_norm")
    tracer = layers.Tracer(tf, cli)
    tracer.uninstall()
    assert tracer.unmeasured == ["tridiag.residual_norm"]


def test_command_line_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "fig1_cli",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1_cli",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
