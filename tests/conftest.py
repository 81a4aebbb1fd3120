import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import thermistor_fem as tf

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture
def fig1_config() -> tf.SimulationConfig:
    """Benchmark parameters: N=100, tau=0.1, beta=0.2, gamma=0.1, corrected scheme."""
    return tf.SimulationConfig(
        n_elements=100,
        tau=0.1,
        beta=0.2,
        model=tf.ModelSpec("paper_example", {"gamma": 0.1}),
        flux_left=1.0,
        flux_right=1.0,
        t_max=200.0,
        variant=tf.CORRECTED,
        steady_tolerance=1e-8,
        record_every=1,
    )


@pytest.fixture
def unit_sigma_model() -> tf.CoefficientModel:
    """k = 1, sigma = 1, unit fluxes."""
    return tf.ModelSpec("constant", {"k0": 1.0, "sigma0": 1.0}).build(1.0, 1.0)


def constant_model(k0: float, sigma0: float, flux_left: float = 1.0,
                   flux_right: float = 1.0) -> tf.CoefficientModel:
    return tf.ModelSpec("constant", {"k0": k0, "sigma0": sigma0}).build(
        flux_left, flux_right)


@pytest.fixture
def fig1_cfg_path() -> Path:
    return REPO_ROOT / "fig1.cfg"
