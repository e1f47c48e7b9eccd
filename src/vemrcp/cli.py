"""Command-line front end: convergence studies, CSV/plot data, VTK export."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .cases import CASE_IDS, manufactured_case, sample
from .material import LameMaterial, von_mises
from .mesh import GENERATED_FAMILIES, MeshFamily, PolygonalMesh, cell_records, load_mesh
from .recovery import evaluate_recovered_stress
from .study import (
    LEVEL_ERRORS,
    METHODS,
    ConvergenceRecord,
    observed_rate,
    run_convergence_study,
    run_patch_test,
    run_study_level,
)

logger = logging.getLogger(__name__)

CSV_HEADER = "test,family,level,h_e,dofs,E_vem,E_rcp0,E_rcp1,time_s"


@dataclass
class StudyConfig:
    """One CLI run. Its defaults are the CLI's: `parse_config` sets only the given flags."""

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


def _split_list(raw: str) -> tuple[str, ...]:
    """The comma-separated names of `raw`, each once, in first-seen order."""
    names = (s.strip() for s in raw.split(","))
    return tuple(dict.fromkeys(s for s in names if s))


def parse_config(argv=None) -> StudyConfig:
    """Parse argv into a `StudyConfig`; a usage error exits with status 1.

    Each flag's dest is a `StudyConfig` field; a flag not given keeps the field's default.
    """
    parser = _Parser(
        prog="vemrcp",
        description="Plane-elasticity convergence studies on polygonal meshes "
        "with equilibrated patch stress recovery.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--test", choices=CASE_IDS)
    parser.add_argument(
        "--family",
        dest="families",
        action="extend",
        type=_split_list,
        metavar="NAME[,NAME...]",
        help="mesh families (tri-s quad-s hex-s conc-s tri-u quad-u poly-u conc-u); "
        "default: all eight",
    )
    parser.add_argument("--levels", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--methods", type=_split_list)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--mesh-file", type=Path)
    parser.add_argument("--out", dest="out_dir", metavar="OUT", type=Path)
    parser.add_argument("--patch-test", action="store_true")
    parser.add_argument("--vtk", action="store_true")
    args = parser.parse_args(argv)

    if "mesh_file" in args:
        if "patch_test" in args:
            parser.error("--patch-test runs the generated families; it takes no --mesh-file")
        if "families" in args:
            parser.error("--mesh-file runs the one mesh it names; it takes no --family")
        args.families = (MeshFamily.EXTERNAL,)
    elif "families" in args:
        if not args.families:
            parser.error("empty family list")
        try:   # repeated --family flags each give a list; a name repeated across them runs once
            args.families = tuple(dict.fromkeys(MeshFamily(name) for name in args.families))
        except ValueError:
            parser.error(f"unknown mesh family in {args.families}")
        if MeshFamily.EXTERNAL in args.families:
            parser.error("family 'external' requires --mesh-file")
    config = StudyConfig(**vars(args))

    if not config.methods or any(m not in METHODS for m in config.methods):
        parser.error(f"--methods must be a subset of {','.join(METHODS)}")
    if config.levels < 1:
        parser.error("--levels must be >= 1")
    try:
        LameMaterial(config.lam, config.mu)
    except ValueError as exc:
        parser.error(str(exc))
    return config


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
    exact = sample(result.case.stress, centroids, 3, "exact stress")
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
    results = run_patch_test(material, config.families, seed=config.seed, methods=config.methods)
    all_ok = True
    for res in results:
        ok = res.passed()
        all_ok &= ok
        errs = " ".join(f"E_{m}={res.errors[m]:.3e}" for m in config.methods)
        print(f"patch-test {res.family.value:>7}: disp_err={res.displacement_error:.3e} "
              f"{errs} {'ok' if ok else 'FAILED'}")
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def _export_vtk(config: StudyConfig, material: LameMaterial, record, result) -> None:
    """Write one level's von Mises cell fields; an external mesh's file has no level."""
    stem = f"vm_{config.test}_{record.family.value}"
    if record.family is not MeshFamily.EXTERNAL:
        stem += f"_L{record.level}"
    fields = _von_mises_fields(result, material, config.methods)
    write_vtk(result.mesh, fields, config.out_dir / f"{stem}.vtk")


def run(config: StudyConfig) -> int:
    """Execute the configured study; returns the process exit code."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if config.patch_test:
        return _run_patch_test(config)

    material = LameMaterial(config.lam, config.mu)
    on_level = partial(_export_vtk, config, material) if config.vtk else None
    failed = False
    for family in config.families:
        if family is MeshFamily.EXTERNAL:
            case = manufactured_case(config.test, material)
            record = run_study_level(case, family, 0, 0, partial(load_mesh, config.mesh_file),
                                     material, config.methods, config.clock, on_level)
            records = [] if record is None else [record]
            expected = 1
        else:
            records = run_convergence_study(
                config.test,
                family,
                config.levels,
                material,
                methods=config.methods,
                seed=config.seed,
                base_subdivisions=config.base_subdivisions,
                clock=config.clock,
                on_level=on_level,
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
    except LEVEL_ERRORS:
        logger.exception("study failed")
        return 2


if __name__ == "__main__":
    sys.exit(main())
