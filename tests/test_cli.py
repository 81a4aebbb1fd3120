import dataclasses
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import thermistor_fem as tf
from helpers import reference_profile_csv, reference_series_csv
from thermistor_fem import cli
from thermistor_fem.cli import (parse_config, run_cli, write_profile_csv,
                                write_series_csv)

MINIMAL = """\
# comment line
n_elements = 20
tau = 0.1            # trailing comment
t_max = 50
beta = 0.2
gamma = 0.1
flux_left = 1
flux_right = 1
steady_tol = 1e-8
record_every = 1
"""


def test_parse_shipped_fig1(fig1_cfg_path):
    config = parse_config(fig1_cfg_path.read_text())
    assert config.n_elements == 100
    assert config.tau == pytest.approx(0.1)
    assert config.beta == pytest.approx(0.2)
    assert config.model.kind == "paper_example"
    assert config.model.parameters["gamma"] == pytest.approx(0.1)
    assert config.variant == tf.CORRECTED
    assert config.record_every == 10


def test_parse_defaults_scheme_and_source():
    config = parse_config(MINIMAL)
    assert config.variant.stiffness == "corrected"
    assert config.variant.source_quadrature == "central"


def test_parse_paper_scheme_tokens():
    text = MINIMAL + "scheme = paper\nsource = paper\n"
    config = parse_config(text)
    assert config.variant.stiffness == "paper_literal"
    assert config.variant.source_quadrature == "paper_literal"


def test_parse_missing_key_names_it():
    text = MINIMAL.replace("tau = 0.1            # trailing comment\n", "")
    with pytest.raises(tf.ConfigurationError, match="tau"):
        parse_config(text)


def test_parse_duplicate_key_reports_line():
    text = MINIMAL + "beta = 0.3\n"
    with pytest.raises(tf.ConfigurationError, match="duplicate key 'beta'"):
        parse_config(text)


def test_parse_unknown_key_reports_line():
    with pytest.raises(tf.ConfigurationError, match="line 1: unknown key"):
        parse_config("bogus = 1\n" + MINIMAL)


def test_parse_bad_value():
    with pytest.raises(tf.ConfigurationError, match="cannot parse"):
        parse_config(MINIMAL.replace("tau = 0.1", "tau = fast"))


def test_parse_conflicting_model_keys():
    with pytest.raises(tf.ConfigurationError, match="conflicting"):
        parse_config(MINIMAL + "k0 = 1\nsigma0 = 1\n")


def test_parse_rational_family():
    text = MINIMAL.replace("gamma = 0.1", "k0 = 1.0") + "sigma0 = 0.5\nlambda = 2.0\n"
    config = parse_config(text)
    assert config.model.kind == "rational_sigma"


def test_physical_constraint_warning(capsys):
    text = MINIMAL.replace("beta = 0.2", "beta = 1.0").replace("gamma = 0.1",
                                                               "gamma = 1.0")
    parse_config(text)
    err = capsys.readouterr().err
    assert "1/beta + 1/2 <= 1/gamma" in err


def test_no_warning_for_benchmark_values(capsys):
    parse_config(MINIMAL)
    assert "violated" not in capsys.readouterr().err


def test_series_csv_counts_and_header():
    config = tf.SimulationConfig(
        n_elements=3, tau=0.1, beta=0.2,
        model=tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 0.0}),
        flux_left=0.0, flux_right=0.0, t_max=0.1,
        steady_tolerance=1e-14, record_every=1)
    result = tf.run(config)
    one = tf.SimulationResult(snapshots=result.snapshots[:1],
                              steady_reached=False, steady_time=None,
                              final_profile=result.final_profile,
                              diagnostics=result.diagnostics,
                              nodes=result.nodes)
    text = write_series_csv(one)
    lines = text.splitlines()
    assert lines[0] == "t,x,u,phi"
    assert len(lines) == 1 + 4
    assert text.endswith("\n")
    # zero run: every temperature entry parses back to exactly 0.0
    assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])
    with pytest.raises(ValueError, match="no snapshots"):
        write_series_csv(dataclasses.replace(one, snapshots=[]))


def test_series_csv_round_trip(fig1_cfg_path, tmp_path):
    config = parse_config(fig1_cfg_path.read_text())
    result = tf.run(config)
    mesh = config.build_mesh()
    text = write_series_csv(result)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == len(result.snapshots) * mesh.n_nodes
    parsed = np.array([[float(v) for v in row] for row in rows])
    k = 0
    for snap in result.snapshots:
        for j in range(mesh.n_nodes):
            for got, want in zip(parsed[k], (snap.time, mesh.nodes[j],
                                             snap.temperature[j],
                                             snap.potential[j])):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            k += 1


def test_cli_run_require_steady(fig1_cfg_path, tmp_path):
    out = tmp_path / "series.csv"
    profile = tmp_path / "profile.csv"
    code = run_cli(["run", "--config", str(fig1_cfg_path),
                    "--out", str(out), "--profile", str(profile),
                    "--require-steady"])
    assert code == 0
    prof_lines = profile.read_text().splitlines()
    assert prof_lines[0] == "x,u"
    assert len(prof_lines) == 100 + 2
    u = np.array([float(line.split(",")[1]) for line in prof_lines[1:]])
    assert u.max() == pytest.approx(0.2625, abs=1e-3)


def test_cli_outputs_are_deterministic(fig1_cfg_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(a)]) == 0
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the series and profile CSVs, as recorded in CHANGES.md; a change
# to the solve path or the CSV writers must leave these bytes unchanged, or
# re-pin them with the old and new hashes in CHANGES.md and a bound against
# the old path (tests/test_solve_path.py).  The case name lists the edits to
# fig1.cfg (see golden_config).
GOLDEN = {
    "run": ("c8346eb9b8b7c5c05d65f4c00ecc2ee84f41b9c7858d370e63a049441c205cbe",
            "c065a720267f591b876782b1d8aa53ddb933f1427dfdc21109721e1dbb94525e"),
    "run-paper": ("14998d2b8c796884609e39798f9f0f1d29533fae09e7313fb13e4d47602cf8e3",
                  "2c5da442382644ac3e902aee326603b04dec823ecd4e3a2673640866de1ebc47"),
    "run-freeze": ("c8346eb9b8b7c5c05d65f4c00ecc2ee84f41b9c7858d370e63a049441c205cbe",
                   "c065a720267f591b876782b1d8aa53ddb933f1427dfdc21109721e1dbb94525e"),
    "run-rational": ("97e3eb8240ad896b44425d0b231ca5d7470cefef779b1c73fd75e36d46999137",
                     "eccb310a0fab711fa319be6e78101b0f07c4c5736e7448d9395d88c2f4b0b210"),
    "run-rational-freeze": (
        "70867f61fb3cbd44f21c81ced0e556906476dde985948eaf34ad88e1ce51fb58",
        "c4d0addeab3a0ce42cad2a13982b533f9e64882cf948884a7eefafb9ce37bde0"),
    "run-rational-paper": (
        "0b33681c7bdd6d69d486d7311c114680be8da4fadb2abfe7c2b073ef7b626acc",
        "7bf551c2cbe19f4fd6f8f726514f5f282c6c148db73270c8691a1116e50a044c"),
    "run-sigma0-zero": ("23e9f6f656d9e5345259415c6eeba58e3740c4462a7b22a0e2e3d83c654bae0d",
                        "7ed7abb5039131cee3e61a5f062972ebeb4c8775df6f57d127e023a54776ab31"),
    "run-reduced": ("4616af8f1cf8ad5f6ab97c9862475afd9f2da2348a580ee83e1d60d5b768a873",
                    "bc7c87c7e4783910de2af9cea4ba1e063e13253d96a35e28865d5b6821d52304"),
}


def golden_config(case: str, text: str) -> str:
    """fig1.cfg with the edits that ``case`` names."""
    if "rational" in case:
        text = text.replace("gamma = 0.1", "k0 = 1\nsigma0 = 1\nlambda = 1")
    if "sigma0-zero" in case:
        text = text.replace("gamma = 0.1", "k0 = 1\nsigma0 = 0")
    if "paper" in case:
        text = text.replace("scheme = corrected", "scheme = paper") \
            .replace("source = central", "source = paper")
    if "freeze" in case:
        text += "freeze_potential = true\n"
    return text


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_csv_outputs_match_golden_hashes(case, fig1_cfg_path, tmp_path):
    text = golden_config(case, fig1_cfg_path.read_text())
    cfg, out, prof = tmp_path / "c.cfg", tmp_path / "s.csv", tmp_path / "p.csv"
    cfg.write_text(text)
    command = "run-reduced" if case == "run-reduced" else "run"
    assert run_cli([command, "--config", str(cfg), "--out", str(out),
                    "--profile", str(prof)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, prof))
    assert digests == GOLDEN[case]


def test_cli_files_hold_the_writers_bytes(fig1_cfg_path, tmp_path):
    out, prof = tmp_path / "s.csv", tmp_path / "p.csv"
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(out),
                    "--profile", str(prof)]) == 0
    result = tf.run(parse_config(fig1_cfg_path.read_text()))
    for path, text in ((out, write_series_csv(result)),
                       (prof, write_profile_csv(result))):
        same = path.read_bytes() == text.encode()  # no multi-MB pytest diff
        assert same, path.name


def hand_built(nodes, snapshots) -> tf.SimulationResult:
    """A result holding ``snapshots``, given as (t, u, phi) triples."""
    snaps = [tf.Snapshot(t, np.array(u, dtype=float), np.array(phi, dtype=float))
             for t, u, phi in snapshots]
    return tf.SimulationResult(snapshots=snaps, steady_reached=False,
                               steady_time=None,
                               final_profile=snaps[-1].temperature,
                               diagnostics=tf.Diagnostics(),
                               nodes=np.array(nodes, dtype=float))


NODES = [0.0, 0.25, 0.5, 0.75, 1.0]
U = [0.0, 0.1, 0.2, 0.3, 0.4]
# written as 5.000000000000e-01, and one ulp up as 5.000000000001e-01
HALFWAY = 0.50000000000005
PHI_A = [0.0, 0.25, HALFWAY, 0.75, 1.0]
PHI_B = [0.0, 0.3, 0.5, 0.7, 1.0]
PHI_A_ZERO = [0.0, 0.25, 0.0, 0.75, 1.0]
PHI_A_NEG_ZERO = [0.0, 0.25, -0.0, 0.75, 1.0]
PHI_A_ULP = [0.0, 0.25, np.nextafter(HALFWAY, 1.0), 0.75, 1.0]
# subnormal, tiny, huge, negative zero and a 13-digit rounding carry
EXTREMES = [5e-324, 1e-300, 1e300, -0.0, 0.99999999999995]
# a late snapshot whose cells are wider than 19 bytes: negative values, and
# non-negative ones with three-digit exponents (the second is written
# 1.000000000000e+100 by its carry)
U_NEG = [0.0, -0.1, 0.2, -0.3, 0.4]
PHI_NEG = [0.0, -0.25, HALFWAY, -0.75, -1.0]
U_WIDE = [0.0, 1e-100, 0.2, 0.3, 0.4]
PHI_WIDE = [0.0, 0.25, 9.9999999999995e99, 0.75, 1.0]


def first_difference(got: str, want: str):
    """(line index, got line, wanted line) of the first line that differs,
    newline included, or None; pytest's diff of two large texts takes
    minutes."""
    for i, pair in enumerate(itertools.zip_longest(
            got.splitlines(keepends=True), want.splitlines(keepends=True))):
        if pair[0] != pair[1]:
            return (i, *pair)
    return None


def phi_sequence(*phis):
    return hand_built(NODES, [(0.1 * i, U, phi) for i, phi in enumerate(phis)])


def shared_phi() -> tf.SimulationResult:
    """Runs of snapshots holding one phi array object, as a run hands them
    out; the fifth snapshot has negative u and starts a run of negative phi,
    so its blocks are padded and their neighbours fixed-width."""
    a, b, neg = (np.array(phi, dtype=float) for phi in (PHI_A, PHI_B, PHI_NEG))
    result = hand_built(NODES, [(0.1 * i, U_NEG if i == 4 else U, PHI_A)
                                for i in range(10)])
    phis = (a, a, a, a, neg, neg, neg, a, a, b)
    return dataclasses.replace(result, snapshots=[
        snap._replace(potential=phi)
        for snap, phi in zip(result.snapshots, phis)])


WRITER_CASES = {
    "a-b-a": lambda: phi_sequence(PHI_A, PHI_A, PHI_B, PHI_B, PHI_A, PHI_A),
    "signed-zero": lambda: phi_sequence(PHI_A_ZERO, PHI_A_ZERO, PHI_A_NEG_ZERO,
                                        PHI_A_NEG_ZERO, PHI_A_ZERO),
    "one-ulp": lambda: phi_sequence(PHI_A, PHI_A, PHI_A_ULP, PHI_A_ULP, PHI_A),
    "extremes": lambda: hand_built(NODES, [
        (t, np.roll(EXTREMES, i), np.roll(EXTREMES, -i))
        for i, t in enumerate(EXTREMES + [-t for t in EXTREMES])]),
    # fixed-width snapshots, one wider, then its phi held and fixed-width again
    "late-negative": lambda: hand_built(NODES, [
        (0.0, U, PHI_A), (0.1, U, PHI_A), (0.2, U, PHI_B), (0.3, U, PHI_B),
        (0.4, U_NEG, PHI_NEG), (0.5, U, PHI_NEG), (0.6, U, PHI_B)]),
    "three-digit-exponent": lambda: hand_built(NODES, [
        (0.0, U, PHI_A), (0.1, U, PHI_A), (0.2, U, PHI_B), (0.3, U, PHI_B),
        (0.4, U_WIDE, PHI_WIDE), (0.5, U, PHI_WIDE), (0.6, U, PHI_B)]),
    "shared-object": shared_phi,
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_series_writer_matches_reference_writer(case):
    result = WRITER_CASES[case]()
    assert first_difference(write_series_csv(result),
                            reference_series_csv(result)) is None


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_profile_writer_matches_reference_writer(case):
    result = WRITER_CASES[case]()
    assert write_profile_csv(result) == reference_profile_csv(result)


@pytest.mark.parametrize("case, phi_repeats", [("run", True),
                                               ("run-rational", False)])
def test_series_writer_matches_reference_on_runs(case, phi_repeats,
                                                 fig1_cfg_path):
    # constant sigma repeats the potential bit for bit; rational sigma does not
    text = golden_config(case, fig1_cfg_path.read_text())
    result = tf.run(parse_config(text.replace("record_every = 10",
                                              "record_every = 1")))
    bits = [s.potential.tobytes() for s in result.snapshots]
    assert any(a == b for a, b in zip(bits, bits[1:])) == phi_repeats
    assert first_difference(write_series_csv(result),
                            reference_series_csv(result)) is None


@pytest.mark.parametrize("block_rows", [1, 10, 15, 35, 10 ** 6])
def test_streamed_blocks_write_the_returned_text(block_rows, monkeypatch):
    # 1, 2, 3, 7 and all snapshots of 5 nodes per block: block edges fall
    # before, inside and after runs of a repeated phi (one array object or
    # equal copies), and between blocks of fixed-width and of padded cells
    for case, make in sorted(WRITER_CASES.items()):
        result = make()
        whole = write_series_csv(result)
        stream = io.BytesIO()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_BLOCK_ROWS", block_rows)
            assert write_series_csv(result, stream) is None
        assert stream.getvalue().decode("ascii") == whole, case


def test_fig1_series_is_written_in_fixed_width_cells(fig1_config, monkeypatch):
    # every t, x, u and phi of fig1 is non-negative with a two-digit exponent,
    # so no block is padded and scanned for NULs
    result = tf.run(fig1_config)
    assert len(result.snapshots) > 3 * cli._BLOCK_ROWS // result.nodes.size

    def refuse(*args):
        raise AssertionError("padded cells")
    monkeypatch.setattr(cli, "_padded", refuse)
    stream = io.BytesIO()
    write_series_csv(result, stream)
    profile = write_profile_csv(result)
    assert first_difference(stream.getvalue().decode("ascii"),
                            reference_series_csv(result)) is None
    assert profile == reference_profile_csv(result)


def test_each_series_block_is_one_cells_call(fig1_config, monkeypatch):
    # a block's t, x, u and phi cells come from one call, which decides
    # their width; the profile is one call too
    result = tf.run(fig1_config)
    per_block = cli._BLOCK_ROWS // result.nodes.size
    blocks = -(-len(result.snapshots) // per_block)
    assert blocks >= 4
    calls = []
    cells = cli._cells

    def counted(*args):
        calls.append(args)
        return cells(*args)
    monkeypatch.setattr(cli, "_cells", counted)
    write_series_csv(result, io.BytesIO())
    assert len(calls) == blocks
    calls.clear()
    write_profile_csv(result)
    assert len(calls) == 1


class RecordingStream(io.BytesIO):
    """A binary stream that keeps the type of each object written to it."""

    def __init__(self):
        super().__init__()
        self.kinds = []

    def write(self, data):
        self.kinds.append(type(data))
        return super().write(data)


@pytest.mark.parametrize("case", ["fig1", "negative"])
def test_series_stream_receives_bytes_and_no_str(case, fig1_config):
    # the series goes to a binary stream: its header as bytes, a block of
    # fixed-width cells as a view of its cells (no copy), a padded block as
    # the bytes left once its NULs are dropped; never a str to re-encode
    config = fig1_config if case == "fig1" \
        else dataclasses.replace(fig1_config, flux_left=-1.0, flux_right=-1.0)
    result = tf.run(config)
    stream = RecordingStream()
    write_series_csv(result, stream)
    assert str not in stream.kinds
    block = bytes if case == "negative" else memoryview
    assert stream.kinds[0] is bytes
    assert set(stream.kinds[1:]) == {block}
    assert len(stream.kinds) > 2
    assert stream.getvalue().decode("ascii") == write_series_csv(result)


def test_cli_streams_the_same_bytes_to_stdout_and_to_out(fig1_cfg_path,
                                                         tmp_path,
                                                         capsysbinary):
    out = tmp_path / "s.csv"
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(out)]) == 0
    assert run_cli(["run", "--config", str(fig1_cfg_path)]) == 0
    same = capsysbinary.readouterr().out == out.read_bytes()
    assert same  # no multi-MB pytest diff


def test_cli_writes_the_series_to_a_text_only_stdout(fig1_cfg_path, tmp_path,
                                                      monkeypatch):
    # a stdout with no binary buffer (an IDE's or a notebook's) gets the
    # same text as --out
    out = tmp_path / "s.csv"
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(out)]) == 0
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_cli(["run", "--config", str(fig1_cfg_path)]) == 0
    same = stdout.getvalue() == out.read_text()
    assert same  # no multi-MB pytest diff


def test_cli_out_naming_a_directory_exits_1(fig1_cfg_path, tmp_path, capsys):
    # the directory passes the check made before the run; opening it fails
    folder, prof = tmp_path / "series", tmp_path / "p.csv"
    folder.mkdir()
    assert run_cli(["run", "--config", str(fig1_cfg_path), "--out", str(folder),
                    "--profile", str(prof)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: cannot write {folder}")
    assert len(captured.err.splitlines()) == 1
    assert not prof.exists()


class ClosedPipeBuffer(io.BytesIO):
    """The binary buffer of a stdout whose reader has gone."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def __init__(self):
        super().__init__()
        self.buffer = ClosedPipeBuffer()

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_exits_141_quietly(fig1_cfg_path, monkeypatch,
                                             capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run_cli(["run", "--config", str(fig1_cfg_path)]) == 141
    assert capsys.readouterr().err == ""


def test_main_exits_141_when_its_pipe_closes(fig1_cfg_path, tmp_path):
    # a 4 MB series against a 64 kB pipe: the writer is still writing when
    # the reader closes after the first line, as `| head -1` does
    cfg = tmp_path / "c.cfg"
    cfg.write_text(fig1_cfg_path.read_text()
                   .replace("record_every = 10", "record_every = 1")
                   .replace("steady_tol = 1e-8", "steady_tol = 1e-10"))
    assert "record_every = 1\n" in cfg.read_text()
    src = str(Path(tf.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from thermistor_fem.cli import main; main()",
         "run", "--config", str(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"t,x,u,phi\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""  # no traceback, no "Exception ignored" at exit


@pytest.mark.parametrize("line", ["beta = inf", "tau = nan", "steady_tol = nan",
                                  "gamma = nan"],
                         ids=["beta_inf", "tau_nan", "steady_tol_nan", "gamma_nan"])
def test_cli_non_finite_value_exits_1(line, tmp_path, capsys):
    key = line.split()[0]
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text("".join(line + "\n" if raw.startswith(key + " ") else raw
                           for raw in MINIMAL.splitlines(keepends=True)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_cli_missing_config_exits_1(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "missing.cfg")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not found" in captured.err


@pytest.mark.parametrize("case", ["config_not_utf8", "out_missing_dir",
                                  "profile_missing_dir"])
def test_cli_unreadable_or_unwritable_path_exits_1(case, tmp_path, capsys,
                                                  monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "s.csv"
    bad = tmp_path / "no_such_dir" / "x.csv"
    if case == "config_not_utf8":
        bad = cfg
        cfg.write_bytes(MINIMAL.encode() + "# r\u00e9sum\u00e9\n".encode("latin-1"))
    argv = ["run", "--config", str(cfg), "--out", str(out)]
    if case == "out_missing_dir":
        argv[-1] = str(bad)
    if case == "profile_missing_dir":
        argv += ["--profile", str(bad)]
    calls = []
    # refused before the run: it never starts and no file is written
    monkeypatch.setattr(cli, "run", lambda config: calls.append(config))
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert str(bad) in captured.err
    assert len(captured.err.splitlines()) == 1
    assert calls == []
    assert not out.exists()


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    gamma = "gamma = 0.1"
    for old, new, message in (
            ("tau = 0.1", "tau = -1", "tau must be positive"),
            ("beta = 0.2", "beta = -5", "beta must be >= 0"),
            ("tau = 0.1", "tau 0.1", "line 3: expected 'key = value'"),
            (gamma, gamma + "\nlambda = 1", "lambda is not a parameter"),
            (gamma, "k0 = 1", "need both k0 and sigma0"),
            (gamma, "sigma0 = 1", "need both k0 and sigma0"),
            (gamma, "", "missing model keys"),
            (gamma, gamma + "\nscheme = literal", "cannot parse scheme"),
            (gamma, gamma + "\nsource = centre", "cannot parse source"),
            (gamma, gamma + "\nfreeze_potential = maybe",
             "expected a boolean")):
        cfg.write_text(MINIMAL.replace(old, new))
        assert run_cli(["run", "--config", str(cfg)]) == 1, new
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, new


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    # beyond the rational_sigma pole 1 + lambda u = 0: with lambda = -1e200
    # the pole is at u = 1e-200, which the first step's heating passes, so
    # the second step's sigma is refused
    cfg = tmp_path / "badmodel.cfg"
    cfg.write_text(MINIMAL.replace("gamma = 0.1", "k0 = 1.0")
                   + "sigma0 = 0.5\nlambda = -1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: u = " in err
    assert "is at or past the pole u = 1e-200 of rational_sigma" in err
    assert err.rstrip().endswith("(step 1)")


def ntc_config(tmp_path, flux):
    """The NTC case: sigma = 1 / (1 - u/2)^2 rises with u up to its pole at
    u = 2; with equal fluxes above about 0.35 no steady state lies below it."""
    cfg = tmp_path / f"ntc_{flux}.cfg"
    cfg.write_text(MINIMAL.replace("gamma = 0.1", "k0 = 1\nsigma0 = 1\n"
                                   "lambda = -0.5")
                   .replace("t_max = 50", "t_max = 200")
                   .replace("flux_left = 1", f"flux_left = {flux}")
                   .replace("flux_right = 1", f"flux_right = {flux}"))
    return cfg


def test_cli_ntc_runaway_fails_at_the_pole(tmp_path, capsys):
    # below the fold the run settles under the pole; above it a step jumps
    # past the pole, where (1 - u/2)^2 grows again and the run would settle
    # on a spurious steady state
    assert run_cli(["run", "--config", str(ntc_config(tmp_path, 0.3))]) == 0
    assert "steady state reached" in capsys.readouterr().err
    for flux in (0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["run", "--config",
                            str(ntc_config(tmp_path, flux))]) == 2
        err = capsys.readouterr().err.rstrip()
        assert "numerical failure: u = " in err, flux
        assert "is at or past the pole u = 2.0 of rational_sigma" in err, flux
        assert re.search(r"\(step [1-9][0-9]*\)$", err), flux


# tau = 1e307 overflows the stiffness rows; at h = 0.1, k = 1 and tau = 0.1
# this beta zeroes the literal row 0 pivot a (beta h / k - 1) + b - tau beta
@pytest.mark.parametrize("edits, message", [
    ({"tau = 0.1 ": "tau = 1e307 ", "t_max = 50": "t_max = 1e307"},
     "solve failed: non-finite entries in sub (step 0)"),
    ({"n_elements = 20": "n_elements = 10",
      "beta = 0.2": "beta = 15.378151260504202\nscheme = paper"},
     "solve failed: zero or near-zero pivot at row 0 (step 0)"),
], ids=["non_finite_rows", "singular_literal_rows"])
@pytest.mark.parametrize("command, phase", [
    ("run", "temperature"), ("run-reduced", "reduced temperature"),
], ids=["run", "run_reduced"])
def test_cli_operator_build_failure_names_its_phase(command, phase, edits,
                                                    message, tmp_path,
                                                    capsys):
    text = MINIMAL
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad_rows.cfg"
    cfg.write_text(text)
    assert run_cli([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"numerical failure: {phase} {message}\n"


def test_cli_overflowing_source_names_its_phase(tmp_path, capsys):
    # fluxes of 1e160 square past the float range in the Joule source
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(MINIMAL.replace("gamma = 0.1", "k0 = 1\nsigma0 = 1")
                   .replace("flux_left = 1", "flux_left = 1e160")
                   .replace("flux_right = 1", "flux_right = 1e160"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "temperature solve failed: non-finite" in err
    assert "warning: overflow" not in err


def test_cli_not_steady_exits_3(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(MINIMAL.replace("t_max = 50", "t_max = 0.2")
                   .replace("steady_tol = 1e-8", "steady_tol = 1e-14"))
    code = run_cli(["run", "--config", str(cfg), "--require-steady"])
    assert code == 3
    # data still lands on stdout, message on stderr
    captured = capsys.readouterr()
    assert captured.out.startswith("t,x,u,phi")
    assert "no steady state" in captured.err


def test_cli_run_reduced(fig1_cfg_path, tmp_path, capsys):
    out = tmp_path / "reduced.csv"
    code = run_cli(["run-reduced", "--config", str(fig1_cfg_path),
                    "--out", str(out), "--require-steady"])
    assert code == 0
    assert out.read_text().startswith("t,x,u,phi")


def test_cli_convergence_output_format(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(MINIMAL.replace("n_elements = 20", "n_elements = 10"))
    code = run_cli(["convergence", "--config", str(cfg), "--levels", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_elements,steady_error,observed_order"
    assert lines[1].startswith("10,")
    assert lines[2].startswith("20,")
    assert lines[1].endswith(",")  # no order for the first level


@pytest.mark.parametrize("edits, code, message", [
    ({"beta = 0.2": "beta = -5"}, 1, "configuration error: beta must be >= 0"),
    ({"beta = 0.2": "beta = 0"}, 1, "configuration error: the convergence study needs beta > 0"),
    # the temperature overflows within a few steps
    ({"gamma = 0.1": "gamma = 1e308"}, 2, "numerical failure: temperature solve failed"),
    ({"t_max = 50": "t_max = 0.2"}, 3, "not steady"),
    ({"gamma = 0.1": "k0 = 1\nsigma0 = 1"}, 1,
     "configuration error: the convergence study needs the paper_example model"),
], ids=["beta_negative", "beta_zero", "model_error", "not_steady",
        "not_paper_example"])
def test_cli_convergence_exit_codes(edits, code, message, tmp_path, capsys):
    text = MINIMAL.replace("n_elements = 20", "n_elements = 10")
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["convergence", "--config", str(cfg), "--levels", "2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_warns_once_on_incompatible_currents(fig1_cfg_path, tmp_path, capsys):
    warning = "warning: boundary currents are incompatible"
    assert run_cli(["run", "--config", str(fig1_cfg_path),
                    "--out", str(tmp_path / "a.csv")]) == 0
    assert warning not in capsys.readouterr().err
    cfg = tmp_path / "flux2.cfg"
    cfg.write_text(fig1_cfg_path.read_text().replace("flux_right = 1",
                                                     "flux_right = 2"))
    assert run_cli(["run", "--config", str(cfg),
                    "--out", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr().err.count(warning) == 1
    # the warning follows the command's own message, whatever the exit code
    cfg.write_text(cfg.read_text().replace("t_max = 200", "t_max = 1"))
    assert run_cli(["run", "--config", str(cfg), "--require-steady",
                    "--out", str(tmp_path / "c.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "no steady state before t_max=1"
    assert err[1].startswith(warning) and len(err) == 2


def test_cli_check_potential(fig1_cfg_path, capsys):
    code = run_cli(["check-potential", "--config", str(fig1_cfg_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "max_deviation_from_linear,compatibility_residual"
    deviation, residual = (float(v) for v in lines[1].split(","))
    assert deviation <= 1e-12
    assert residual == 0.0


@pytest.mark.parametrize("scheme", ["corrected", "paper"])
def test_cli_check_potential_is_runs_first_potential(scheme, fig1_cfg_path,
                                                      tmp_path, capsys):
    text = fig1_cfg_path.read_text().replace("scheme = corrected",
                                             f"scheme = {scheme}")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    config = parse_config(text)
    first = tf.run(dataclasses.replace(config, record_every=1, t_max=config.tau))
    mu = first.snapshots[1].potential
    chord = mu[0] + (mu[-1] - mu[0]) * first.nodes
    d = float(np.max(np.abs(mu - chord)))
    assert run_cli(["check-potential", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[0] == f"{d:.12e}"


def test_cli_check_potential_literal_scheme(tmp_path, capsys):
    cfg = tmp_path / "literal.cfg"
    cfg.write_text(MINIMAL.replace("n_elements = 20", "n_elements = 16")
                   + "scheme = paper\n")
    assert run_cli(["check-potential", "--config", str(cfg)]) == 0
    deviation = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
    assert deviation > 0.01


@pytest.mark.parametrize("scheme", ["corrected", "paper"])
@pytest.mark.parametrize("model", ["k0 = 1\nsigma0 = 0", "gamma = 0"])
def test_cli_check_potential_zero_conductivity(model, scheme, fig1_cfg_path,
                                               tmp_path, capsys):
    # no conduction: run's potential is phi = 0, and so is check-potential's
    cfg = tmp_path / "c.cfg"
    cfg.write_text(fig1_cfg_path.read_text().replace("gamma = 0.1", model)
                   .replace("scheme = corrected", f"scheme = {scheme}"))
    assert run_cli(["check-potential", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"{0.0:.12e},{0.0:.12e}"
    assert run_cli(["run", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("module", ["thermistor_fem", "thermistor_fem.cli"])
def test_python_dash_m_runs_the_cli(module, fig1_cfg_path, tmp_path):
    src = str(Path(tf.__file__).resolve().parent.parent)

    def cli(*args):
        return subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))

    ok = cli("check-potential", "--config", str(fig1_cfg_path))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("max_deviation_from_linear,")
    missing = cli("check-potential", "--config", str(tmp_path / "none.cfg"))
    assert missing.returncode == 1
    assert missing.stderr.startswith("configuration error:")


def test_cli_usage_error_maps_to_config_exit(capsys):
    assert run_cli(["run"]) == 1  # --config is required
    assert run_cli(["--help"]) == 0


def test_profile_writer_matches_nodes(fig1_config):
    result = tf.run(fig1_config)
    lines = write_profile_csv(result).splitlines()
    assert len(lines) == 102
    x0, u0 = (float(v) for v in lines[1].split(","))
    assert x0 == 0.0
    assert u0 == pytest.approx(result.final_profile[0], rel=1e-12)
