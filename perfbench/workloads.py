"""The benchmark's workloads and the correctness gate applied to every level.

A workload pass drives vemrcp only through its public entry points
(`study.run_convergence_study` or `cli.main`) and returns the energy-norm
errors of each (family, n) level it ran. `check_pass` then decides, level by
level, whether the pass was correct.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Seed at which the reference errors of every family were recorded. The
# structured families ignore the seed, so their references hold at any seed.
REFERENCE_SEED = 0
STRUCTURED_FAMILIES = frozenset({"tri-s", "quad-s", "hex-s", "conc-s"})
ALL_FAMILIES = ("tri-s", "quad-s", "hex-s", "conc-s", "tri-u", "quad-u", "poly-u", "conc-u")
# Refactors are expected to hold the errors to about 1e-12 relative.
REFERENCE_RTOL = 1e-10
CLI_BASE_SUBDIVISIONS = 8  # fixed by the vemrcp CLI


@dataclass(frozen=True)
class Sweep:
    """One run_convergence_study call: `levels` levels from n = `base` up."""

    family: str
    base: int
    levels: int

    def subdivisions(self) -> list[int]:
        return [self.base * 2**k for k in range(self.levels)]


@dataclass(frozen=True)
class StudyWorkload:
    """Convergence studies called through `vemrcp.study.run_convergence_study`."""

    name: str
    test: str
    methods: tuple
    sweeps: tuple
    seed: int

    def expected_levels(self) -> list[tuple[str, int]]:
        return [(s.family, n) for s in self.sweeps for n in s.subdivisions()]

    def run_pass(self, out_dir: Path) -> tuple[dict, dict]:
        from vemrcp import study
        from vemrcp.material import LameMaterial
        from vemrcp.mesh import MeshFamily

        material = LameMaterial(1.0, 1.0)
        errors = {}
        for s in self.sweeps:
            records = study.run_convergence_study(
                self.test, MeshFamily(s.family), s.levels, material,
                methods=self.methods, seed=self.seed, base_subdivisions=s.base,
            )
            for r in records:
                errors[(s.family, r.subdivisions)] = r.errors
        return errors, {}


@dataclass(frozen=True)
class CliWorkload:
    """One `vemrcp.cli.main` call with CSV, .dat and VTK output."""

    name: str
    test: str
    families: tuple
    levels: int
    seed: int

    def argv(self, out_dir: Path) -> list[str]:
        return [
            "--test", self.test, "--family", ",".join(self.families),
            "--levels", str(self.levels), "--vtk", "--out", str(out_dir),
            "--seed", str(self.seed),
        ]

    def expected_levels(self) -> list[tuple[str, int]]:
        return [
            (f, CLI_BASE_SUBDIVISIONS * 2**k) for f in self.families for k in range(self.levels)
        ]

    def run_pass(self, out_dir: Path) -> tuple[dict, dict]:
        """Run the CLI and read each level's errors back from its CSV."""
        from vemrcp import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(out_dir))
        errors, problems = {}, {}
        for family in self.families:
            keys = [(family, CLI_BASE_SUBDIVISIONS * 2**k) for k in range(self.levels)]
            if code != 0:
                problems.update({k: f"cli.main returned {code}" for k in keys})
                continue
            with open(out_dir / f"{self.test}_{family}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.levels:
                problems.update({k: f"CSV has {len(rows)} rows for {self.levels} levels"
                                 for k in keys})
                continue
            for key, row in zip(keys, rows):
                errors[key] = {m: float(row[f"E_{m}"]) for m in ("vem", "rcp0", "rcp1")}
                vtk = out_dir / f"vm_{self.test}_{family}_L{row['level']}.vtk"
                if not vtk.is_file():
                    problems[key] = f"missing {vtk.name}"
        return errors, problems


# Full-size workloads. Pass times on a 2-core host: about 7, 6 and 4 s.
def _full(name: str, seed: int):
    if name == "study-recover":
        return StudyWorkload(name, "b", ("vem", "rcp0", "rcp1"),
                             (Sweep("conc-u", 8, 2), Sweep("hex-s", 8, 2)), seed)
    if name == "solve-vem":
        return StudyWorkload(name, "a", ("vem",),
                             (Sweep("quad-u", 64, 1), Sweep("conc-u", 32, 1)), seed)
    if name == "cli-small":
        return CliWorkload(name, "a", ALL_FAMILIES, 1, seed)
    raise KeyError(name)


# Tiny variants with the same structure, for testing the benchmark itself.
def _tiny(name: str, seed: int):
    if name == "study-recover":
        return StudyWorkload(name, "b", ("vem", "rcp0", "rcp1"), (Sweep("conc-u", 4, 1),), seed)
    if name == "solve-vem":
        return StudyWorkload(name, "a", ("vem",), (Sweep("quad-u", 4, 1),), seed)
    if name == "cli-small":
        return CliWorkload(name, "a", ("quad-s", "tri-u"), 1, seed)
    raise KeyError(name)


WORKLOADS = ("study-recover", "solve-vem", "cli-small")
SIZES = {"full": _full, "tiny": _tiny}


def make_workload(name: str, seed: int, size: str = "full"):
    return SIZES[size](name, seed)


def load_references(name: str, size: str) -> dict:
    """Reference errors keyed by (family, n); only full-size workloads have them."""
    if size != "full":
        return {}
    data = json.loads(REFERENCE_FILE.read_text())[name]
    return {
        (family, int(n)): errors
        for key, errors in data.items()
        for family, n in [key.rsplit("/", 1)]
    }


def check_level(key, errors, seed: int, references: dict) -> str | None:
    """Return why a level's errors are wrong, or None when they pass."""
    for method, e in errors.items():
        if not (math.isfinite(e) and e > 0.0):
            return f"E_{method} = {e!r} is not finite and positive"
    if "vem" in errors and "rcp1" in errors and not errors["rcp1"] <= errors["vem"]:
        return f"E_rcp1 = {errors['rcp1']:.6e} exceeds E_vem = {errors['vem']:.6e}"
    family, _ = key
    if references and (seed == REFERENCE_SEED or family in STRUCTURED_FAMILIES):
        expected = references.get(key)
        if expected is None:
            return "no reference value"
        for method, ref in expected.items():
            got = errors.get(method)
            if got is None or abs(got - ref) > REFERENCE_RTOL * abs(ref):
                return f"E_{method} = {got!r}, reference {ref!r}"
    return None


def check_pass(workload, errors: dict, problems: dict, references: dict) -> dict:
    """Map every expected level to None (correct) or the reason it failed."""
    out = {}
    for key in workload.expected_levels():
        if key in problems:
            out[key] = problems[key]
        elif key not in errors:
            out[key] = "level missing from the study's records"
        else:
            out[key] = check_level(key, errors[key], workload.seed, references)
    return out
