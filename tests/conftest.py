import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vemrcp.material import LameMaterial
from vemrcp.mesh import MeshFamily, PolygonalMesh


@pytest.fixture
def mat():
    return LameMaterial(1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def single_cell_mesh(coords) -> PolygonalMesh:
    coords = np.asarray(coords, dtype=float)
    return PolygonalMesh(coords, [0, len(coords)], np.arange(len(coords)), MeshFamily.EXTERNAL)


@pytest.fixture
def unit_square_mesh():
    return single_cell_mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
