import importlib.util
import subprocess
import sys
from pathlib import Path

import thermistor_fem as tf
import thermistor_fem.cli as cli

REPO_ROOT = Path(__file__).parent.parent


def test_all_names_resolve_once():
    assert len(tf.__all__) == len(set(tf.__all__))
    missing = [name for name in tf.__all__ if not hasattr(tf, name)]
    assert missing == []


def test_benchmark_hooks_resolve():
    # perfbench traces each layer through the public functions its HOOKS
    # table names; a name that stops resolving would go unmeasured
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO_ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{layer}.{name}" for layer, names in layers.HOOKS.items()
               for name in names
               if not callable(getattr(cli if layer == "cli" else tf, name,
                                       None))]
    assert missing == []


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    assert True
"""


def test_failing_property_test_is_reported_under_the_repository_config(
        tmp_path):
    # hypothesis imports libcst to report a failing example, and libcst's
    # import warns a DeprecationWarning, which the config's filters must
    # not turn into an error that aborts the test run
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
