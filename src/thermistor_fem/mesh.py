"""Uniform mesh on [0, 1] and the piecewise-linear hat basis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of [0, 1] into ``n_elements`` elements.

    ``nodes[j] = j * h`` for j = 0..N with h = 1/N.  Instances are immutable
    (the node array is marked read-only) and safe to share between threads.
    """

    n_elements: int
    h: float
    nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1


def check_integer(name: str, value) -> None:
    """Refuse a ``value`` that is not an integer (a Python or numpy integer;
    bool is not one) with a ConfigurationError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def build_mesh(n_elements: int) -> Mesh:
    """Build the uniform mesh.  Requires an integer ``n_elements >= 3``.

    The minimum of 3 keeps the two boundary rows of the assembled systems
    from overlapping the interior stencil.
    """
    check_integer("n_elements", n_elements)
    if n_elements < 3:
        raise ConfigurationError(
            f"n_elements must be >= 3, got {n_elements}")
    nodes = np.linspace(0.0, 1.0, n_elements + 1)
    nodes.flags.writeable = False
    return Mesh(n_elements=int(n_elements), h=1.0 / n_elements, nodes=nodes)


def eval_hat(mesh: Mesh, j: int, x: float) -> float:
    """Evaluate the hat function v_j at x.

    v_j rises linearly from 0 at x_{j-1} to 1 at x_j and falls back to 0 at
    x_{j+1}; segments outside [0, 1] are clipped, so v_0 and v_N are
    half-hats.
    """
    n = mesh.n_elements
    if not 0 <= j <= n:
        raise ValueError(f"node index {j} outside 0..{n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    h = mesh.h
    left = mesh.nodes[j - 1] if j >= 1 else None
    center = mesh.nodes[j]
    right = mesh.nodes[j + 1] if j <= n - 1 else None
    if left is not None and left <= x <= center:
        return x / h + (1.0 - j)
    if right is not None and center <= x <= right:
        return -x / h + (1.0 + j)
    if x == center:  # boundary node with both neighbours clipped (N = 0 never happens)
        return 1.0
    return 0.0


def mass_row(mesh: Mesh, j: int) -> tuple[float, float, float]:
    """Row of the consistent mass matrix for an interior node: (h/6, 2h/3, h/6)."""
    n = mesh.n_elements
    if not 1 <= j <= n - 1:
        raise ValueError(f"interior node index {j} outside 1..{n - 1}")
    h = mesh.h
    return (h / 6.0, 2.0 * h / 3.0, h / 6.0)
