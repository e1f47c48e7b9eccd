"""Stress-error norm and convergence-study orchestration."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cases import ManufacturedCase, manufactured_case, stress_from_strain, zero_body_force
from .generators import generate_mesh
from .material import LameMaterial, compliance_matrix
from .mesh import GENERATED_FAMILIES, MeshError, MeshFamily, PolygonalMesh
from .quadrature import cell_quadrature
from .recovery import (
    RecoveryConditioningError,
    evaluate_recovered_stress,
    recover_field,
)
from .vem import SolveError, element_stresses, solve_dirichlet_problem

logger = logging.getLogger(__name__)

METHODS = ("vem", "rcp0", "rcp1")


@dataclass
class ConvergenceRecord:
    test: str
    family: MeshFamily
    level: int
    subdivisions: int
    h: float
    dofs: int
    errors: dict
    wall_time: float


def energy_error_norm(
    mesh: PolygonalMesh,
    material: LameMaterial,
    case: ManufacturedCase,
    stresses: dict,
) -> dict:
    """Complementary-energy norms (squared form) of several stress mismatches.

    `stresses` maps a name to a callable stress(cells, points) -> (m, 3),
    where `cells` is an int array naming the cell of each of the (m, 2)
    points. The cell rules are stacked, and the exact stress and the
    compliance matrix formed, once for all fields; each field is then called
    once on the stack. Returns a dict of the same names mapped to the norms.
    """
    nc = mesh.num_cells
    rules = [cell_quadrature(mesh, ci) for ci in range(nc)]
    cells = np.repeat(np.arange(nc), [len(w) for _, w in rules])
    pts = np.concatenate([p for p, _ in rules])
    w = np.concatenate([w for _, w in rules])
    exact = case.stress(pts[:, 0], pts[:, 1])
    Cinv = compliance_matrix(material)
    norms = {}
    for name, stress in stresses.items():
        d = exact - stress(cells, pts)
        # numpy's pairwise sum, not a BLAS dot: OpenBLAS splits a long dot across its
        # threads, which would tie the last bits to OPENBLAS_NUM_THREADS.
        norms[name] = float(np.sum(w * np.einsum("mi,mi->m", d @ Cinv, d)))
    return norms


@dataclass
class LevelResult:
    """Everything a single solve-and-recover pass produced (for exporters)."""

    mesh: PolygonalMesh
    case: ManufacturedCase
    displacement: np.ndarray
    cell_stresses: np.ndarray
    recovered: dict = field(default_factory=dict)


def run_level(
    mesh: PolygonalMesh,
    material: LameMaterial,
    case: ManufacturedCase,
    methods=METHODS,
) -> tuple[LevelResult, dict]:
    """Solve one mesh and compute the requested error norms."""
    u = solve_dirichlet_problem(mesh, material, case.body_force, case.displacement)
    stresses = element_stresses(mesh, material, u)
    result = LevelResult(mesh=mesh, case=case, displacement=u, cell_stresses=stresses)
    fields = {}
    for method in methods:
        if method == "vem":
            fields[method] = lambda cells, points: stresses[cells]
        else:
            recovered = recover_field(mesh, material, u, case.body_force, method)
            result.recovered[method] = recovered
            fields[method] = partial(evaluate_recovered_stress, recovered)
    errors = energy_error_norm(mesh, material, case, fields)
    return result, errors


def run_convergence_study(
    test_id: str,
    family: MeshFamily,
    levels: int,
    material: LameMaterial,
    methods=METHODS,
    seed: int = 0,
    base_subdivisions: int = 8,
    clock=time.perf_counter,
    on_level=None,
) -> list[ConvergenceRecord]:
    """Refinement sweep: subdivisions double per level starting at the base.

    A level that fails with a mesh, solver, recovery-conditioning or linear
    algebra error is logged and skipped; the sweep continues, so callers can
    detect trouble by comparing the record count with `levels`. Any other
    exception is a programming error and propagates.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    case = manufactured_case(test_id, material)
    records = []
    for level in range(levels):
        n = base_subdivisions * 2**level
        start = clock()
        try:
            mesh = generate_mesh(family, n, seed)
            result, errors = run_level(mesh, material, case, methods)
        except (MeshError, SolveError, RecoveryConditioningError, np.linalg.LinAlgError):
            logger.exception("%s/%s level %d (n=%d) failed", test_id, family.value, level, n)
            continue
        elapsed = clock() - start
        record = ConvergenceRecord(
            test=test_id,
            family=family,
            level=level,
            subdivisions=n,
            h=mesh.average_edge_length,
            dofs=2 * mesh.num_vertices,
            errors=errors,
            wall_time=elapsed,
        )
        records.append(record)
        if on_level is not None:
            on_level(record, result)
    return records


def observed_rate(records: list[ConvergenceRecord], method: str) -> float:
    """Least-squares slope of log(error) against log(edge length)."""
    pts = [(r.h, r.errors[method]) for r in records if method in r.errors]
    if len(pts) < 2:
        raise ValueError("need at least two records to fit a rate")
    h = np.log([p[0] for p in pts])
    e = np.log([p[1] for p in pts])
    if np.any(np.diff(e[np.argsort(h)]) < 0.0):
        logger.warning("non-monotone error sequence for method %s", method)
    slope, _ = np.polyfit(h, e, 1)
    return float(slope)


# ---------------------------------------------------------------------------
# linear-field patch test
# ---------------------------------------------------------------------------

PATCH_TEST_COEFFS = (0.3, 1.2, -0.7, -0.4, 0.5, 0.9)
# Pass bounds of the patch test: relative interior displacement error, squared error norms.
PATCH_TEST_DISPLACEMENT_TOL = 1e-10
PATCH_TEST_ENERGY_TOL = 1e-18


def linear_patch_case(material: LameMaterial) -> ManufacturedCase:
    """Affine displacement with constant stress and zero body force."""
    a0, a1, a2, b0, b1, b2 = PATCH_TEST_COEFFS

    def displacement(x, y):
        return np.stack([a0 + a1 * x + a2 * y, b0 + b1 * x + b2 * y], axis=-1)

    def strain(x, y):
        return np.full(np.shape(x) + (3,), [a1, b2, a2 + b1])

    return ManufacturedCase(
        id="linear", displacement=displacement, strain=strain,
        stress=stress_from_strain(material, strain), body_force=zero_body_force,
    )


@dataclass
class PatchTestResult:
    family: MeshFamily
    displacement_error: float
    errors: dict

    def passed(self) -> bool:
        return self.displacement_error <= PATCH_TEST_DISPLACEMENT_TOL and all(
            e <= PATCH_TEST_ENERGY_TOL for e in self.errors.values()
        )


def run_patch_test(
    material: LameMaterial,
    families=None,
    subdivisions: int = 8,
    seed: int = 0,
    methods=METHODS,
) -> list[PatchTestResult]:
    """Impose the affine field on each family and measure the reproduction error."""
    case = linear_patch_case(material)
    results = []
    for family in families if families is not None else GENERATED_FAMILIES:
        mesh = generate_mesh(family, subdivisions, seed)
        result, errors = run_level(mesh, material, case, methods)
        exact = case.displacement(mesh.vertices[:, 0], mesh.vertices[:, 1]).ravel()
        interior = np.repeat(~mesh.boundary_vertex_flags, 2)
        diff = np.abs(result.displacement[interior] - exact[interior])
        rel = float(diff.max() / np.abs(exact).max()) if interior.any() else 0.0
        results.append(PatchTestResult(family=family, displacement_error=rel, errors=errors))
    return results
