import importlib.util
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
