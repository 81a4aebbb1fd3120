"""Tests of the scripts in tools/: ab_pairs.py runs as its own process, so
the thread settings it makes stay out of the test process, and
bench_pairs.py's statistics are imported."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def ab_pairs(*args: str) -> list[str]:
    """The lines ``tools/ab_pairs.py`` prints, given ``args``."""
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "ab_pairs.py"), *args],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_cells_prints_one_row_per_size():
    lines = ab_pairs("cells", "--pairs", "1", "--runs", "16")
    assert lines[0].startswith("CELLS = 8192; ")
    assert lines[1].split() == ["m", "K", "per", "step", "per", "block",
                                "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [101, 201, 401, 801, 1001, 2001]
    for row in rows:
        assert len(row) == 5
        # K steps a block, and at least 8, so sizes past the cut-over too
        assert int(row[1]) == max(8192 // int(row[0]), 8)
        assert all(float(value) > 0.0 for value in row[2:])


def test_ab_pairs_solve_prints_one_row_per_size():
    lines = ab_pairs("solve", "--pairs", "1", "--runs", "10")
    assert lines[0].startswith("DENSE_BLOCKS = ")
    assert lines[1].split() == ["m", "blocks", "held:block", "held:dense",
                                "ratio", "once:block", "once:dense", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [33, 64, 101, 128, 129, 256, 384]
    for row in rows:
        assert len(row) == 8
        assert int(row[1]) == -(-int(row[0]) // 32)
        assert all(float(value) > 0.0 for value in row[2:])


def test_ab_pairs_solve_times_the_sizes_it_is_given():
    # past the largest default size, T^-1 is not formed: its columns read -
    lines = ab_pairs("solve", "--pairs", "1", "--runs", "10",
                     "--sizes", "33", "1001")
    small, large = (line.split() for line in lines[2:])
    assert small[:2] == ["33", "2"] and large[:2] == ["1001", "32"]
    assert all(float(value) > 0.0 for value in small[2:])
    assert large[3:5] == large[6:] == ["-", "-"]
    assert float(large[2]) > 0.0 and float(large[5]) > 0.0


def test_ab_pairs_phases_prints_one_row_per_size():
    lines = ab_pairs("phases", "--pairs", "1", "--runs", "4")
    assert lines[0].startswith("rational_sigma, corrected; ")
    assert lines[1].split() == ["N", "sigma", "potential", "source",
                                "advance", "step"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [100, 1000, 2000]
    for row in rows:
        assert len(row) == 6
        assert all(float(value) > 0.0 for value in row[1:])


def test_ab_pairs_csv_prints_one_row_per_size():
    lines = ab_pairs("csv", "--pairs", "1", "--runs", "1")
    assert lines[0].startswith("record_every = 1; ns per value")
    assert lines[1].split() == ["N", "fig1", "rational", "cells"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [100, 1000]
    for row in rows:
        assert len(row) == 4
        assert all(float(value) > 0.0 for value in row[1:])


def test_ab_pairs_csv_compares_the_bytes_of_two_trees():
    lines = ab_pairs("csv", "--against", str(ROOT), "--pairs", "1",
                     "--runs", "1", "--sizes", "100")
    assert lines[0].startswith("csv: 1 pairs")
    assert len(lines) == 7 and lines[-1] == "same output bits: yes"
    for line, figure in zip(lines[3:6], ("fig1", "rational", "cells")):
        assert line.startswith("N 100 ")
        two_sided(line[line.index(figure):], figure, 1)


def two_sided(line: str, label: str, pairs: int) -> None:
    """``line`` gives the figure ``label`` on both sides: each side's
    median and quartiles, their ratio and the pairs the change won."""
    head, change, ratio, won = line.split(", ")
    assert head.startswith(f"{label}: against ")
    for side, text in (("against", head[len(label) + 2:]), ("change", change)):
        name, median, low, high = text.replace("[", "").replace(
            "]", "").split()
        assert name == side and float(median) > 0.0
        assert float(low) <= float(median) <= float(high)
    assert ratio.startswith("ratio ") and float(ratio.split()[1]) > 0.0
    assert won.startswith("change faster in ") and won.endswith(f" of {pairs}")


def test_ab_pairs_compares_the_tree_with_itself():
    # both sides are this tree, imported under two names: the same bits,
    # and a median and quartiles per side
    lines = ab_pairs("fig1_cli", "--against", str(ROOT), "--pairs", "2",
                     "--runs", "1")
    assert lines[0].startswith("fig1_cli: 2 pairs")
    for line, side in zip(lines[1:3], ("against", "change")):
        assert line.split()[:4] == [f"{side}:", "fig1_cli,", "nominal",
                                    "draw;"]
        assert line.endswith(str(ROOT))
    two_sided(lines[3], "workload fig1_cli N 100 ms", 2)
    assert lines[4:] == ["same output bits: yes"]


def test_ab_pairs_compares_a_table_on_two_trees():
    lines = ab_pairs("cells", "--against", str(ROOT), "--pairs", "3",
                     "--runs", "16", "--sizes", "101", "2001")
    assert lines[0].startswith("cells: 3 pairs")
    assert [line.split()[:3] for line in lines[1:3]] == [
        ["against:", "CELLS", "="], ["change:", "CELLS", "="]]
    labels = [f"m {m} K {k} {figure}" for m, k in ((101, 81), (2001, 8))
              for figure in ("per step", "per block")]
    assert len(lines) == 3 + len(labels)
    for line, label in zip(lines[3:], labels):
        two_sided(line, label, 3)


def test_bench_pairs_summary_counts_wins_by_the_better_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 5.0, 3.0]
    lower = bench_pairs().summary(parent, change, "lower")
    # 0.5 < 1 and 3 < 4 win; 2 = 2 is a tie, for neither side
    assert (lower["change_better"], lower["ties"], lower["pairs"]) == (2, 1, 4)
    assert (lower["parent_median"], lower["change_median"]) == (2.5, 2.5)
    assert lower["parent"] == parent and lower["change"] == change
    higher = bench_pairs().summary(parent, change, "higher")
    assert (higher["change_better"], higher["ties"]) == (1, 1)


def test_bench_pairs_quartiles_of_none_one_and_several_values():
    quartiles = bench_pairs().quartiles
    assert quartiles([]) == []
    assert quartiles([2.0]) == [2.0, 2.0]
    assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [1.5, 4.5]


def test_bench_pairs_runs_each_side_with_its_own_bytecode(tmp_path,
                                                         monkeypatch):
    # a side whose tree holds no __pycache__ would compile the package in
    # every child; each side reads and writes its own, written even where
    # the environment says not to
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    module = bench_pairs()
    env = module.child_env(tmp_path / "pycache-parent")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pycache-parent")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PATH"] == os.environ["PATH"]
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs)
        return SimpleNamespace(returncode=0, stderr="")

    monkeypatch.setattr(module.subprocess, "run", run)
    out = tmp_path / "record.json"
    out.write_text(json.dumps({"result": {}}))
    assert module.perfbench(tmp_path, "fig1_cli", 1, 1.0, 0, out, env) == {
        "result": {}}
    assert calls[0]["env"] is env and calls[0]["cwd"] == tmp_path


def test_every_tool_script_is_named_by_a_test():
    source = Path(__file__).read_text()
    for script in sorted(TOOLS.glob("*.py")):
        assert f'"{script.name}"' in source, script.name
