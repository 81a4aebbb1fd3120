import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import thermistor_fem as tf
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
    "run": ("52e7a14dbd99cadf125a49593ce08025316a7d1e3b7c236f5aad8f5943cc639a",
            "c065a720267f591b876782b1d8aa53ddb933f1427dfdc21109721e1dbb94525e"),
    "run-paper": ("628b1f19ff32c35726df31fd4f8c8d33c3759a5a968332c83e55918caaaf415c",
                  "2c5da442382644ac3e902aee326603b04dec823ecd4e3a2673640866de1ebc47"),
    "run-freeze": ("52e7a14dbd99cadf125a49593ce08025316a7d1e3b7c236f5aad8f5943cc639a",
                   "c065a720267f591b876782b1d8aa53ddb933f1427dfdc21109721e1dbb94525e"),
    "run-rational": ("c4e3620615dc2fb290a2d31f3065fc179f6442f5a86b7b0cfd841a984787560e",
                     "eccb310a0fab711fa319be6e78101b0f07c4c5736e7448d9395d88c2f4b0b210"),
    "run-rational-freeze": (
        "9a44ae6c5619263c601f4eb26c06d4f139962565d5c791edd0312cb87aad5b59",
        "c4d0addeab3a0ce42cad2a13982b533f9e64882cf948884a7eefafb9ce37bde0"),
    "run-rational-paper": (
        "0b33681c7bdd6d69d486d7311c114680be8da4fadb2abfe7c2b073ef7b626acc",
        "7bf551c2cbe19f4fd6f8f726514f5f282c6c148db73270c8691a1116e50a044c"),
    "run-sigma0-zero": ("23e9f6f656d9e5345259415c6eeba58e3740c4462a7b22a0e2e3d83c654bae0d",
                        "7ed7abb5039131cee3e61a5f062972ebeb4c8775df6f57d127e023a54776ab31"),
    "run-reduced": ("ef8a0626573b8a057c87c0fa450ca5f21d52089a1fb865376ea88d26169ce479",
                    "4b4e663a55f0d4ff9ea95257b83e33b559c18d53ba15860560f15fa3cbb10b5b"),
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


def test_cli_bad_config_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for old, new in (("tau = 0.1", "tau = -1"), ("beta = 0.2", "beta = -5")):
        cfg.write_text(MINIMAL.replace(old, new))
        assert run_cli(["run", "--config", str(cfg)]) == 1, new


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    # beyond the rational_sigma pole 1 + lambda u = 0: with lambda = -1e200,
    # (1 + lambda u)^2 overflows once the first step has heated the bar, so
    # sigma is 0 and the next potential is undetermined
    cfg = tmp_path / "badmodel.cfg"
    cfg.write_text(MINIMAL.replace("gamma = 0.1", "k0 = 1.0")
                   + "sigma0 = 0.5\nlambda = -1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: potential solve failed: zero conductivity" in err


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
], ids=["beta_negative", "beta_zero", "model_error", "not_steady"])
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
