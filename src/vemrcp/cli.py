"""Command-line front end: convergence studies, CSV/plot data, VTK export."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cases import CASE_IDS, manufactured_case
from .material import LameMaterial, von_mises
from .mesh import GENERATED_FAMILIES, MeshError, MeshFamily, PolygonalMesh, cell_records, load_mesh
from .recovery import RecoveryConditioningError, evaluate_recovered_stress
from .study import (
    METHODS,
    ConvergenceRecord,
    observed_rate,
    run_convergence_study,
    run_level,
    run_patch_test,
)
from .vem import SolveError

logger = logging.getLogger(__name__)

CSV_HEADER = "test,family,level,h_e,dofs,E_vem,E_rcp0,E_rcp1,time_s"


@dataclass
class StudyConfig:
    test: str = "a"
    families: tuple = GENERATED_FAMILIES
    levels: int = 4
    seed: int = 0
    methods: tuple = METHODS
    lam: float = 1.0
    mu: float = 1.0
    out_dir: Path = Path("out")
    mesh_file: Path | None = None
    patch_test: bool = False
    vtk: bool = False
    base_subdivisions: int = 8
    clock: object = field(default=time.perf_counter, repr=False)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _split_list(raw: list[str]) -> list[str]:
    out = []
    for chunk in raw:
        out.extend(s.strip() for s in chunk.split(","))
    return [s for s in out if s]


def parse_config(argv=None) -> StudyConfig:
    parser = _Parser(
        prog="vemrcp",
        description="Plane-elasticity convergence studies on polygonal meshes "
        "with equilibrated patch stress recovery.",
    )
    parser.add_argument("--test", choices=CASE_IDS, default="a")
    parser.add_argument(
        "--family",
        action="append",
        metavar="NAME[,NAME...]",
        help="mesh families (tri-s quad-s hex-s conc-s tri-u quad-u poly-u conc-u); "
        "default: all eight",
    )
    parser.add_argument("--levels", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", default="vem,rcp0,rcp1")
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--mesh-file", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--patch-test", action="store_true")
    parser.add_argument("--vtk", action="store_true")
    args = parser.parse_args(argv)

    if args.family is None:
        families = GENERATED_FAMILIES
    else:
        names = _split_list(args.family)
        if not names:
            parser.error("empty family list")
        try:
            families = tuple(MeshFamily(name) for name in names)
        except ValueError:
            parser.error(f"unknown mesh family in {names}")
        if MeshFamily.EXTERNAL in families:
            parser.error("family 'external' requires --mesh-file")

    methods = tuple(_split_list([args.methods]))
    if not methods or any(m not in METHODS for m in methods):
        parser.error(f"--methods must be a subset of {','.join(METHODS)}")
    if args.levels < 1:
        parser.error("--levels must be >= 1")
    try:
        LameMaterial(args.lam, args.mu)
    except ValueError as exc:
        parser.error(str(exc))
    if args.mesh_file is not None:
        families = (MeshFamily.EXTERNAL,)

    return StudyConfig(
        test=args.test,
        families=families,
        levels=args.levels,
        seed=args.seed,
        methods=methods,
        lam=args.lam,
        mu=args.mu,
        out_dir=args.out,
        mesh_file=args.mesh_file,
        patch_test=args.patch_test,
        vtk=args.vtk,
    )


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.12e}"


def write_csv(records: list[ConvergenceRecord], path) -> None:
    """One row per refinement level; absent methods are written as nan."""
    lines = [CSV_HEADER]
    for r in records:
        cols = [
            r.test,
            r.family.value,
            str(r.level),
            _fmt(r.h),
            str(r.dofs),
            _fmt(r.errors.get("vem", float("nan"))),
            _fmt(r.errors.get("rcp0", float("nan"))),
            _fmt(r.errors.get("rcp1", float("nan"))),
            _fmt(r.wall_time),
        ]
        lines.append(",".join(cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_dat(records: list[ConvergenceRecord], path) -> None:
    """Gnuplot-friendly companion file: h_e and the error columns."""
    lines = ["# h_e E_vem E_rcp0 E_rcp1"]
    for r in records:
        lines.append(
            " ".join(
                [_fmt(r.h)]
                + [_fmt(r.errors.get(m, float("nan"))) for m in METHODS]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_vtk(mesh: PolygonalMesh, cell_fields: dict, path) -> None:
    """Legacy-ASCII unstructured grid with one scalar per cell per field."""
    for name, values in cell_fields.items():
        if len(values) != mesh.num_cells:
            raise ValueError(
                f"field {name!r} has {len(values)} values for {mesh.num_cells} cells"
            )
    out = ["# vtk DataFile Version 2.0", "vemrcp cell data", "ASCII",
           "DATASET UNSTRUCTURED_GRID"]
    out.append(f"POINTS {mesh.num_vertices} double")
    for x, y in mesh.vertices:
        out.append(f"{_fmt(x)} {_fmt(y)} 0.0")
    out.append(f"CELLS {mesh.num_cells} {len(mesh.indices) + mesh.num_cells}")
    out.extend(cell_records(mesh))
    out.append(f"CELL_TYPES {mesh.num_cells}")
    out.extend(["7"] * mesh.num_cells)  # VTK_POLYGON
    out.append(f"CELL_DATA {mesh.num_cells}")
    for name, values in cell_fields.items():
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(_fmt(float(v)) for v in values)
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")


def _von_mises_fields(result, material, methods) -> dict:
    mesh = result.mesh
    cells, centroids = np.arange(mesh.num_cells), mesh.centroids
    fields = {}
    if "vem" in methods:
        fields["vm_vem"] = von_mises(result.cell_stresses, material)
    for method in ("rcp0", "rcp1"):
        if method in result.recovered:
            stresses = evaluate_recovered_stress(result.recovered[method], cells, centroids)
            fields[f"vm_{method}"] = von_mises(stresses, material)
    exact = result.case.stress(centroids[:, 0], centroids[:, 1])
    fields["vm_exact"] = von_mises(exact, material)
    return fields


# ---------------------------------------------------------------------------
# study driver
# ---------------------------------------------------------------------------

def _print_study(records: list[ConvergenceRecord], methods) -> None:
    header = f"{'level':>5} {'n':>5} {'h_e':>13} {'dofs':>8}"
    for m in METHODS:
        header += f" {'E_' + m:>13}"
    print(header)
    for r in records:
        row = f"{r.level:>5} {r.subdivisions:>5} {r.h:>13.6e} {r.dofs:>8}"
        for m in METHODS:
            row += f" {r.errors[m]:>13.6e}" if m in r.errors else f" {'-':>13}"
        print(row)
    if len(records) >= 2:
        rates = f"{'rate':>5} {'':>5} {'':>13} {'':>8}"
        for m in METHODS:
            rates += f" {observed_rate(records, m):>13.3f}" if m in methods else f" {'-':>13}"
        print(rates)


def _run_patch_test(config: StudyConfig) -> int:
    material = LameMaterial(config.lam, config.mu)
    results = run_patch_test(material, seed=config.seed, methods=config.methods)
    all_ok = True
    for res in results:
        ok = res.passed()
        all_ok &= ok
        errs = " ".join(f"E_{m}={res.errors[m]:.3e}" for m in config.methods)
        print(f"patch-test {res.family.value:>7}: disp_err={res.displacement_error:.3e} "
              f"{errs} {'ok' if ok else 'FAILED'}")
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def _run_external(config: StudyConfig) -> list[ConvergenceRecord]:
    mesh = load_mesh(config.mesh_file)
    material = LameMaterial(config.lam, config.mu)
    case = manufactured_case(config.test, material)
    start = config.clock()
    result, errors = run_level(mesh, material, case, config.methods)
    record = ConvergenceRecord(
        test=config.test,
        family=MeshFamily.EXTERNAL,
        level=0,
        subdivisions=0,
        h=mesh.average_edge_length,
        dofs=2 * mesh.num_vertices,
        errors=errors,
        wall_time=config.clock() - start,
    )
    if config.vtk:
        fields = _von_mises_fields(result, material, config.methods)
        write_vtk(mesh, fields, config.out_dir / f"vm_{config.test}_external.vtk")
    return [record]


def run(config: StudyConfig) -> int:
    """Execute the configured study; returns the process exit code."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.patch_test:
        return _run_patch_test(config)

    material = LameMaterial(config.lam, config.mu)
    failed = False
    for family in config.families:
        if family is MeshFamily.EXTERNAL:
            records = _run_external(config)
            expected = 1
        else:
            exporter = None
            if config.vtk:
                def exporter(record, result, _family=family):
                    fields = _von_mises_fields(result, material, config.methods)
                    name = f"vm_{config.test}_{_family.value}_L{record.level}.vtk"
                    write_vtk(result.mesh, fields, config.out_dir / name)

            records = run_convergence_study(
                config.test,
                family,
                config.levels,
                material,
                methods=config.methods,
                seed=config.seed,
                base_subdivisions=config.base_subdivisions,
                clock=config.clock,
                on_level=exporter,
            )
            expected = config.levels
        if len(records) < expected:
            failed = True
        stem = f"{config.test}_{family.value}"
        write_csv(records, config.out_dir / f"{stem}.csv")
        write_dat(records, config.out_dir / f"{stem}.dat")
        print(f"test {config.test}  family {family.value}")
        _print_study(records, config.methods)
    return 2 if failed else 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    config = parse_config(argv)
    try:
        return run(config)
    except (OSError, MeshError, SolveError, RecoveryConditioningError, np.linalg.LinAlgError):
        logger.exception("study failed")
        return 2


if __name__ == "__main__":
    sys.exit(main())
