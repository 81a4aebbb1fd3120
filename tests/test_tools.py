"""Smoke tests of the scripts in tools/, each run as its own process so the
thread settings a script makes stay out of the test process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def assigned(path: Path, name: str):
    """The literal a module assigns to ``name``, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_cells_sweep_prints_one_row_per_size():
    script = ROOT / "tools" / "cells_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--steps", "16", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("CELLS = ")
    assert lines[1].split() == ["m", "K", "per", "step", "per", "block",
                                "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == list(assigned(script, "SIZES"))
    for row in rows:
        assert len(row) == 5
        assert all(float(value) > 0.0 for value in row[2:])


def test_solve_sweep_prints_one_row_per_size():
    script = ROOT / "tools" / "solve_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--solves", "10", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("DENSE_BLOCKS = ")
    assert lines[1].split() == ["m", "blocks", "held:block", "held:dense",
                                "ratio", "once:block", "once:dense", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == list(assigned(script, "SIZES"))
    for row in rows:
        assert len(row) == 8
        assert int(row[1]) == -(-int(row[0]) // 32)
        assert all(float(value) > 0.0 for value in row[2:])


def test_solve_sweep_times_the_sizes_it_is_given():
    # past the largest default size, T^-1 is not formed: its columns read -
    script = ROOT / "tools" / "solve_sweep.py"
    assert max(assigned(script, "SIZES")) < 1001
    proc = subprocess.run(
        [sys.executable, str(script), "--solves", "10", "--repeats", "1",
         "--sizes", "33", "1001"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    small, large = (line.split() for line in proc.stdout.splitlines()[2:])
    assert small[:2] == ["33", "2"] and large[:2] == ["1001", "32"]
    assert all(float(value) > 0.0 for value in small[2:])
    assert large[3:5] == large[6:] == ["-", "-"]
    assert float(large[2]) > 0.0 and float(large[5]) > 0.0


def test_stage_sweep_prints_one_row_per_size():
    script = ROOT / "tools" / "stage_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--steps", "4", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("rational_sigma, corrected; ")
    assert lines[1].split() == ["N"] + list(assigned(script, "PHASES"))
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == list(assigned(script, "SIZES"))
    for row in rows:
        assert len(row) == 6
        assert all(float(value) > 0.0 for value in row[1:])


def test_ab_pairs_compares_the_tree_with_itself():
    # both sides are this tree, imported under two names: the same bits,
    # and a median and quartiles per side
    script = ROOT / "tools" / "ab_pairs.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--against", str(ROOT),
         "--workload", "fig1_cli", "--pairs", "2", "--runs", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("fig1_cli, nominal draw: 2 pairs of 1 runs")
    for line, side in zip(lines[1:3], ("against", "change")):
        words = line.split()
        assert words[:2] == [side, "median"] and words[3] == "quartiles"
        assert all(float(value) > 0.0 for value in words[2:3] + words[4:6])
    assert lines[3].startswith("ratio ") and lines[3].endswith(" of 2 pairs")
    assert lines[4] == "same output bits: yes"
