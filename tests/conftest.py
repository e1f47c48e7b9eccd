import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vemrcp.generators import generate_mesh
from vemrcp.material import LameMaterial
from vemrcp.mesh import MeshFamily, PolygonalMesh

# The session's generated meshes by (family, subdivisions, seed), and the keys
# already checked against a fresh build.
_SHARED_MESHES: dict = {}
_CHECKED_KEYS: set = set()


@pytest.fixture
def mat():
    return LameMaterial(1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def single_cell_mesh(coords) -> PolygonalMesh:
    coords = np.asarray(coords, dtype=float)
    return PolygonalMesh(coords, [0, len(coords)], np.arange(len(coords)))


@pytest.fixture
def unit_square_mesh():
    return single_cell_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def _same(a, b) -> bool:
    """Bitwise equality of arrays, and of tuples of them, else ==."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def shared_mesh(family, subdivisions: int, seed: int = 0) -> PolygonalMesh:
    """`generate_mesh(family, subdivisions, seed)`, built once per test session.

    Only for tests that read the mesh: its arrays are read-only, but its lazy
    quadrature cache may already be full. Tests of the generators, and tests
    that need a cold quadrature fill, call `generate_mesh`. The first repeat of
    a key checks every attribute of the shared mesh but that cache against a
    fresh build.
    """
    key = (MeshFamily(family), subdivisions, seed)
    if key not in _SHARED_MESHES:
        _SHARED_MESHES[key] = generate_mesh(*key)
    elif key not in _CHECKED_KEYS:
        shared, fresh = vars(_SHARED_MESHES[key]), vars(generate_mesh(*key))
        assert shared.keys() == fresh.keys(), key
        for name in shared.keys() - {"_quadrature_cache"}:
            assert _same(shared[name], fresh[name]), (key, name)
        _CHECKED_KEYS.add(key)
    return _SHARED_MESHES[key]
