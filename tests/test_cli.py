"""Argument parsing, CSV/DAT/VTK writers, and end-to-end CLI runs."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from vemrcp.cli import (
    CSV_HEADER,
    StudyConfig,
    _fmt,
    main,
    parse_config,
    run,
    write_csv,
    write_dat,
    write_vtk,
)

DAT_HEADER = "# h_e E_vem E_rcp0 E_rcp1"
from vemrcp.generators import GenerationError, generate_mesh
from vemrcp.material import von_mises
from vemrcp.mesh import GENERATED_FAMILIES, MeshFamily, save_mesh
from vemrcp.study import ConvergenceRecord, observed_rate


def make_records(hs, errs):
    return [
        ConvergenceRecord(
            test="a", family=MeshFamily.QUAD_S, level=k, subdivisions=8 * 2**k,
            h=h, dofs=100 + k, errors=dict(e), wall_time=0.25 * (k + 1),
        )
        for k, (h, e) in enumerate(zip(hs, errs))
    ]


class TestParseConfig:
    def test_single_family(self):
        config = parse_config(["--test", "a", "--family", "hex-s", "--levels", "4"])
        assert config.test == "a"
        assert config.families == (MeshFamily.HEX_S,)
        assert config.levels == 4

    def test_defaults(self):
        config = parse_config([])
        assert config.test == "a"
        assert config.families == GENERATED_FAMILIES
        assert config.levels == 4
        assert config.seed == 0
        assert config.methods == ("vem", "rcp0", "rcp1")
        assert config.lam == 1.0 and config.mu == 1.0

    def test_material_override(self):
        config = parse_config(["--lambda", "2", "--mu", "0.5"])
        assert config.lam == 2.0 and config.mu == 0.5

    def test_mesh_file_forces_external_family(self, tmp_path):
        config = parse_config(["--mesh-file", str(tmp_path / "m.pmesh")])
        assert config.families == (MeshFamily.EXTERNAL,)

    def test_family_comma_list_and_repeat(self):
        config = parse_config(["--family", "tri-s,quad-s", "--family", "poly-u"])
        assert config.families == (MeshFamily.TRI_S, MeshFamily.QUAD_S, MeshFamily.POLY_U)

    def test_empty_family_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--family", ""])
        assert exc.value.code == 1

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--family", "oct-s"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["--frobnicate"])
        assert exc.value.code == 1

    def test_bad_methods_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["--methods", "vem,spr"])

    def test_invalid_material_rejected(self):
        with pytest.raises(SystemExit):
            parse_config(["--mu", "-1"])


class TestWriteCsv:
    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(make_records([0.5], [{"vem": 1e-2, "rcp0": 5e-3, "rcp1": 1e-3}]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip(self, tmp_path):
        records = make_records(
            [0.5, 0.25], [{"vem": 1e-2, "rcp0": 5e-3, "rcp1": 1e-3}] * 2
        )
        path = tmp_path / "out.csv"
        write_csv(records, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, records):
            assert row["test"] == rec.test
            assert row["family"] == rec.family.value
            assert int(row["level"]) == rec.level
            assert float(row["h_e"]) == pytest.approx(rec.h, rel=1e-12)
            assert int(row["dofs"]) == rec.dofs
            for m in ("vem", "rcp0", "rcp1"):
                assert float(row[f"E_{m}"]) == pytest.approx(rec.errors[m], rel=1e-12)
        dat = tmp_path / "out.dat"
        write_dat(records, dat)
        header, *lines = dat.read_text().splitlines()
        assert header == DAT_HEADER
        assert [line.split(" ") for line in lines] == [
            [_fmt(rec.h)] + [_fmt(rec.errors[m]) for m in ("vem", "rcp0", "rcp1")]
            for rec in records
        ]

    def test_rates_recoverable_from_csv(self, tmp_path):
        hs = [0.4, 0.2, 0.1]
        records = make_records(hs, [{"vem": 2.7 * h**2} for h in hs])
        path = tmp_path / "out.csv"
        write_csv(records, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        h = np.log([float(r["h_e"]) for r in rows])
        e = np.log([float(r["E_vem"]) for r in rows])
        slope = np.polyfit(h, e, 1)[0]
        assert slope == pytest.approx(observed_rate(records, "vem"), abs=1e-12)

    def test_absent_method_written_as_nan(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(make_records([0.5], [{"vem": 1e-2}]), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[6] == row[7] == "nan"
        dat = tmp_path / "out.dat"
        write_dat(make_records([0.5], [{"vem": 1e-2}]), dat)
        assert dat.read_text().splitlines() == [DAT_HEADER, f"{_fmt(0.5)} {_fmt(1e-2)} nan nan"]


class TestWriteVtk:
    def test_single_cell_file(self, tmp_path, unit_square_mesh):
        path = tmp_path / "m.vtk"
        write_vtk(unit_square_mesh, {"vm_exact": [1.5]}, path)
        text = path.read_text()
        assert "# vtk DataFile Version 2.0" in text
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "POINTS 4 double" in text
        assert "CELLS 1 5" in text
        assert "CELL_TYPES 1\n7" in text
        assert "SCALARS vm_exact double 1" in text

    def test_field_length_enforced(self, tmp_path, unit_square_mesh):
        with pytest.raises(ValueError, match="2 values for 1 cells"):
            write_vtk(unit_square_mesh, {"vm": [1.0, 2.0]}, tmp_path / "m.vtk")

    def test_exact_von_mises_value_for_case_a(self, tmp_path, unit_square_mesh, mat):
        from vemrcp.cases import manufactured_case

        case = manufactured_case("a", mat)
        vm = von_mises(case.stress(0.5, 0.5), mat)
        assert vm == pytest.approx(3.0 * np.sqrt(3.0))  # sigma = (0, 0, -3) there
        path = tmp_path / "m.vtk"
        write_vtk(unit_square_mesh, {"vm_exact": [vm]}, path)
        assert f"{vm:.12e}" in path.read_text()


class TestRun:
    def small_config(self, tmp_path, **kw):
        defaults = dict(
            test="a",
            families=(MeshFamily.QUAD_S,),
            levels=2,
            seed=0,
            methods=("vem", "rcp0", "rcp1"),
            out_dir=tmp_path,
            base_subdivisions=4,
            clock=lambda: 0.0,
        )
        defaults.update(kw)
        return StudyConfig(**defaults)

    def test_study_writes_monotone_csv(self, tmp_path, capsys):
        config = self.small_config(tmp_path, levels=3)
        assert run(config) == 0
        path = tmp_path / "a_quad-s.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        es = [float(r["E_vem"]) for r in rows]
        assert all(a > b for a, b in zip(es, es[1:]))
        hs = [float(r["h_e"]) for r in rows]
        assert all(a > b for a, b in zip(hs, hs[1:]))
        assert (tmp_path / "a_quad-s.dat").exists()
        assert "rate" in capsys.readouterr().out

    def test_vtk_export(self, tmp_path):
        config = self.small_config(tmp_path, levels=1, vtk=True)
        assert run(config) == 0
        assert (tmp_path / "vm_a_quad-s_L0.vtk").exists()

    def test_bitwise_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            config = self.small_config(out, test="b", families=(MeshFamily.POLY_U,))
            assert run(config) == 0
        assert (out_a / "b_poly-u.csv").read_bytes() == (out_b / "b_poly-u.csv").read_bytes()

    def test_patch_test_mode(self, tmp_path, capsys):
        config = self.small_config(tmp_path, patch_test=True, methods=("vem",))
        assert run(config) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")

    def test_external_mesh_run(self, tmp_path):
        mesh = generate_mesh(MeshFamily.QUAD_S, 3)
        mesh_path = tmp_path / "m.pmesh"
        save_mesh(mesh, mesh_path)
        code = main(
            ["--mesh-file", str(mesh_path), "--test", "a", "--out", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "a_external.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["family"] == "external"

    def test_fallback_mesh_run(self, tmp_path):
        # rcp1 falls back to a single-cell patch at cell 2; rcp0 has no fallback and fails.
        mesh_file = str(Path(__file__).parent / "data" / "fallback.pmesh")
        code = main(["--mesh-file", mesh_file, "--methods", "vem,rcp1", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "a_external.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert math.isnan(float(rows[0]["E_rcp0"]))
        for m in ("vem", "rcp1"):
            e = float(rows[0][f"E_{m}"])
            assert math.isfinite(e) and e > 0.0, (m, e)
        assert main(["--mesh-file", mesh_file, "--out", str(tmp_path / "all")]) == 2

    def test_missing_mesh_file_is_runtime_failure(self, tmp_path):
        code = main(["--mesh-file", str(tmp_path / "nope.pmesh"), "--out", str(tmp_path)])
        assert code == 2

    def test_programming_error_escapes_main(self, tmp_path, monkeypatch):
        import vemrcp.study as study_mod

        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(study_mod, "run_level", broken)
        argv = ["--family", "quad-s", "--levels", "1", "--out", str(tmp_path)]
        with pytest.raises(TypeError, match="injected"):
            main(argv)

    def test_failed_level_exits_two(self, tmp_path, monkeypatch):
        import vemrcp.study as study_mod

        def boom(family, n, seed=0):
            raise GenerationError("generation failed")

        monkeypatch.setattr(study_mod, "generate_mesh", boom)
        config = self.small_config(tmp_path)
        assert run(config) == 2
