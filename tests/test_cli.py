"""Tests for the batch driver: config parsing/round-tripping, the preset
registry, the binary field format, and end-to-end subcommand runs with their
exit-code contract (0 converged, 2 controlled non-convergence, 1 error)."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from nlhelm import cli
from nlhelm import (
    BeamSpec,
    ConfigError,
    HelmholtzProblem,
    Incoming1D,
    Layer,
    MaterialStack,
    Problem1D,
    build_grid_1d,
    build_grid_multi,
    make_incoming,
    solve,
)
from nlhelm.solvers import HistoryEntry, SolveReport
from nlhelm.cli import (
    _GEOMETRY_TAGS,
    _atomic_write,
    _HEADER,
    MAGIC,
    PRESET_NAMES,
    RunConfig,
    build_problem,
    load_config,
    main,
    parse_config,
    preset,
    read_field,
    resolve_output_dir,
    write_field,
)


def write_config(tmp_path, **over):
    cfg = {
        "name": "tiny-slab",
        "geometry": "1d",
        "Zmax": 5.0,
        "N": 64,
        "k0": 4.0,
        "sigma": 1.0,
        "layers": [{"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": 0.0625}],
        "beam_left": {"amplitude_re": 1.0},
        "solver": "newton",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestPresets:
    def test_registry_names(self):
        assert PRESET_NAMES == [
            "collapse-cyl-desk",
            "collapse-cyl-paper",
            "collapse-quintic-desk",
            "collapse-quintic-paper",
            "soliton-2d-desk",
            "soliton-2d-paper",
        ]

    def test_soliton_preset_values(self):
        cfg = preset("soliton-2d-paper")
        assert cfg.geometry == "cartesian"
        assert (cfg.k0, cfg.sigma) == (4.0, 1.0)
        assert (cfg.Zmax, cfg.extent) == (240.0, 12.0)
        assert cfg.layers[0]["eps"] == pytest.approx(1.0 / 16.0)
        assert cfg.beam_left["shape"] == "sech"
        assert cfg.beam_left["r0"] == pytest.approx(math.sqrt(2.0))
        assert cfg.beam_left["adjust"] is True

    def test_collapse_preset_values(self):
        cfg = preset("collapse-cyl-paper")
        assert cfg.geometry == "cylindrical"
        assert (cfg.k0, cfg.Zmax, cfg.extent) == (8.0, 9.0, 3.5)
        assert cfg.layers[0]["eps"] == pytest.approx(0.15)
        quintic = preset("collapse-quintic-paper")
        assert quintic.sigma == 2.0
        assert quintic.layers[0]["eps"] == pytest.approx(0.125)
        assert (quintic.Zmax, quintic.extent) == (6.0, 3.0)

    def test_scale_rewrites_suffix(self):
        desk = preset("soliton-2d-paper", scale="desk")
        assert desk.name == "soliton-2d-desk"
        assert desk.desk_scaled
        assert desk.Zmax == 40.0
        assert desk.N < preset("soliton-2d-paper").N

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("no-such-run")

    def test_presets_parse_cleanly(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            assert parse_config(json.loads(cfg.to_json())) == cfg

    def test_each_call_returns_fresh_objects(self):
        for name in PRESET_NAMES:
            first = preset(name)
            expected = first.to_json()
            first.beam_left["shape"] = "custom"
            first.layers[0]["eps"] = -1.0
            first.layers.append({"z_from": 0.0, "z_to": 1.0, "nu": 2.0, "eps": 0.0})
            assert preset(name).to_json() == expected


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = load_config(path)
        assert parse_config(json.loads(cfg.to_json())) == cfg
        assert cfg.name == raw["name"]

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="k0"):
            parse_config(
                {
                    "name": "x",
                    "geometry": "1d",
                    "Zmax": 1.0,
                    "N": 8,
                    "sigma": 1.0,
                    "layers": [],
                }
            )

    def test_unknown_field_named(self, tmp_path):
        path, _ = write_config(tmp_path, wavelength=0.5)
        with pytest.raises(ConfigError, match="wavelength"):
            load_config(path)

    def test_geometry_and_solver_validation(self, tmp_path):
        path, _ = write_config(tmp_path, geometry="spherical")
        with pytest.raises(ConfigError, match="geometry"):
            load_config(path)
        path, _ = write_config(tmp_path, solver="gauss")
        with pytest.raises(ConfigError, match="solver"):
            load_config(path)

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="src.json: config must be a JSON object"):
            parse_config([{"name": "x"}], source="src.json")

    def test_multid_needs_a_column(self, tmp_path):
        path, _ = write_config(tmp_path, geometry="cartesian", extent=4.0, M=0)
        with pytest.raises(ConfigError, match="M: must be at least 1"):
            load_config(path)

    def test_non_object_layer_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, layers=[[0.0, 5.0, 1.0, 0.0]])
        with pytest.raises(ConfigError, match=r"layers\[0\]: must be an object"):
            load_config(path)

    def test_geometry_alias(self, tmp_path):
        path, _ = write_config(tmp_path, geometry="cartesian2d", extent=4.0, M=8)
        assert load_config(path).geometry == "cartesian"

    def test_multid_requires_extent(self, tmp_path):
        path, _ = write_config(tmp_path, geometry="cartesian", M=8)
        with pytest.raises(ConfigError, match="extent"):
            load_config(path)

    def test_layer_fields_checked(self, tmp_path):
        path, _ = write_config(tmp_path, layers=[{"z_from": 0.0, "z_to": 5.0}])
        with pytest.raises(ConfigError, match=r"layers\[0\]"):
            load_config(path)
        path, _ = write_config(tmp_path, layers=[])
        with pytest.raises(ConfigError, match="layers"):
            load_config(path)

    def test_invalid_json_and_missing_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_stack_must_cover_domain(self, tmp_path):
        path, _ = write_config(
            tmp_path, layers=[{"z_from": 0.0, "z_to": 4.0, "nu": 1.0, "eps": 0.0}]
        )
        with pytest.raises(ConfigError, match="Zmax"):
            build_problem(load_config(path))

    @pytest.mark.parametrize("over", [{}, dict(geometry="cartesian", extent=0.5, M=8)],
                             ids=["1d", "cartesian"])
    def test_beam_amplitude_defaults_to_one(self, tmp_path, over):
        # one rule in every geometry: amplitude_re defaults to 1.0 and
        # amplitude_im to 0.0; the absent right beam injects nothing
        shape = {"shape": "sech", "r0": 0.25} if over else {}

        def incoming(beam):
            path, _ = write_config(tmp_path, **over, beam_left=beam)
            problem = build_problem(load_config(path))[0]
            return problem.einc_left, problem.einc_right

        left, right = incoming(shape)
        unit, _ = incoming({**shape, "amplitude_re": 1.0, "amplitude_im": 0.0})
        assert left.tobytes() == unit.tobytes()
        assert np.abs(left).max() > 0.5
        assert right is None if over else right.tobytes() == bytes(16)

    def test_1d_beams_are_plane_waves_only(self, tmp_path):
        path, _ = write_config(tmp_path, beam_left={"shape": "sech", "r0": 1.0})
        with pytest.raises(ConfigError, match="beam_left"):
            build_problem(load_config(path))

    def test_output_dir_resolution(self, tmp_path, monkeypatch):
        cfg = parse_config(json.loads(preset("soliton-2d-desk").to_json()))
        monkeypatch.delenv("NLHELM_OUTPUT_ROOT", raising=False)
        assert resolve_output_dir(cfg).name == "soliton-2d-desk-out"
        monkeypatch.setenv("NLHELM_OUTPUT_ROOT", str(tmp_path / "root"))
        assert resolve_output_dir(cfg) == tmp_path / "root" / "soliton-2d-desk"
        cfg.output_dir = str(tmp_path / "explicit")
        assert resolve_output_dir(cfg) == tmp_path / "explicit"


def write_header(path, geometry, N, M, h_z, h_perp, k0):
    """A hand-written field file whose body has the node count its header
    declares."""
    path.write_bytes(MAGIC + _HEADER.pack(_GEOMETRY_TAGS[geometry], N, M, h_z, h_perp, k0)
                     + np.ones((N + 7) * M, dtype="<c16").tobytes())


class TestFieldFile:
    def test_round_trip_1d_bit_exact(self, tmp_path):
        grid = build_grid_1d(5.0, 16)
        rng = np.random.default_rng(3)
        E = rng.normal(size=grid.num_nodes) + 1j * rng.normal(size=grid.num_nodes)
        path = tmp_path / "field.bin"
        write_field(path, E, grid, 4.0)
        header, back = read_field(path)
        assert header == {
            "geometry": "1d",
            "N": 16,
            "M": 1,
            "h_z": grid.h,
            "h_perp": 0.0,
            "k0": 4.0,
        }
        assert back.shape == (grid.num_nodes,)
        assert np.array_equal(back, E)

    def test_round_trip_multid(self, tmp_path):
        grid = build_grid_multi(5.0, 16, 3.0, 12, "cylindrical")
        rng = np.random.default_rng(4)
        E = rng.normal(size=(23, 12)) + 1j * rng.normal(size=(23, 12))
        path = tmp_path / "field.bin"
        write_field(path, E, grid, 8.0)
        header, back = read_field(path)
        assert header["geometry"] == "cylindrical"
        assert (header["N"], header["M"]) == (16, 12)
        assert header["h_perp"] == grid.h_perp
        assert np.array_equal(back, E)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_truncated_header_rejected(self, tmp_path):
        grid = build_grid_1d(5.0, 16)
        path = tmp_path / "field.bin"
        write_field(path, np.ones(grid.num_nodes, dtype=complex), grid, 4.0)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated field header")):
            read_field(path)

    def test_unknown_geometry_rejected(self, tmp_path):
        grid = build_grid_1d(5.0, 16)
        path = tmp_path / "field.bin"
        write_field(path, np.ones(grid.num_nodes, dtype=complex), grid, 4.0)
        raw = bytearray(path.read_bytes())
        raw[16:24] = (7).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown geometry tag 7")):
            read_field(path)

    @pytest.mark.parametrize("geometry,N,M", [("1d", 8, 3), ("cartesian", 8, 0)])
    def test_columns_not_fitting_geometry_rejected(self, tmp_path, geometry, N, M):
        # a header and body that agree with each other but not with the
        # geometry's column count
        path = tmp_path / "field.bin"
        write_header(path, geometry, N, M, 0.5, 0.25, 4.0)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: M = {M} does not fit a {geometry} field")):
            read_field(path)

    @pytest.mark.parametrize("geometry,N,h_z,h_perp,k0,named", [
        ("1d", 0, 0.5, 0.0, 4.0, "N = 0 is below the grid minimum of 8"),
        ("cartesian", 7, 0.5, 0.25, 4.0, "N = 7 is below the grid minimum of 8"),
        ("1d", 8, 0.0, 0.0, 4.0, "h_z = 0.0 must be positive and finite"),
        ("1d", 8, math.inf, 0.0, 4.0, "h_z = inf must be positive and finite"),
        ("1d", 8, 0.5, 0.0, -4.0, "k0 = -4.0 must be positive and finite"),
        ("cylindrical", 8, 0.5, 0.25, math.nan, "k0 = nan must be positive and finite"),
        ("cartesian", 8, 0.5, 0.0, 4.0, "h_perp = 0.0 must be positive and finite"),
        ("cylindrical", 8, 0.5, -0.25, 4.0, "h_perp = -0.25 must be positive and finite"),
        ("cartesian", 8, 0.5, math.nan, 4.0, "h_perp = nan must be positive and finite"),
        ("1d", 8, 0.5, math.nan, 4.0, "h_perp = nan must be 0.0 for a 1d field"),
        ("1d", 8, 0.5, 0.25, 4.0, "h_perp = 0.25 must be 0.0 for a 1d field"),
    ])
    def test_header_no_grid_can_write_rejected(self, tmp_path, geometry, N, h_z,
                                               h_perp, k0, named):
        path = tmp_path / "field.bin"
        write_header(path, geometry, N, 1 if geometry == "1d" else 3, h_z, h_perp, k0)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
            read_field(path)

    def test_hand_written_valid_header_accepted(self, tmp_path):
        # the smallest grid, 1d with the h_perp = 0.0 that write_field stores
        path = tmp_path / "field.bin"
        write_header(path, "1d", 8, 1, 0.5, 0.0, 4.0)
        header, E = read_field(path)
        assert (header["N"], header["h_perp"]) == (8, 0.0)
        assert E.shape == (15,)

    def test_problem1d_field_on_problem_grid_round_trips(self, tmp_path):
        # a Problem1D's grid is the Grid1D it was built on, so its solved
        # field writes as a 1d file and reads back bit for bit
        problem = Problem1D(
            build_grid_1d(5.0, 64),
            MaterialStack(k0=4.0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.0, 0.05),)),
            Incoming1D(EincL=1.0))
        E, _ = solve(problem)
        path = tmp_path / "field.bin"
        write_field(path, E, problem.grid, 4.0)
        header, back = read_field(path)
        assert (header["geometry"], header["M"], header["h_perp"]) == ("1d", 1, 0.0)
        assert back.tobytes() == E.tobytes()

    @pytest.mark.parametrize("grid,shape,fits", [
        (build_grid_multi(5.0, 64, 1.0, 8, "cartesian"), (71,), (71, 8)),
        (build_grid_1d(5.0, 64), (71, 8), (71,)),
    ], ids=["1d-field-on-cartesian", "2d-field-on-1d"])
    def test_field_not_fitting_grid_rejected(self, tmp_path, grid, shape, fits):
        path = tmp_path / "field.bin"
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: field shape {shape} does not fit its grid, {fits}")):
            write_field(path, np.ones(shape, dtype=complex), grid, 4.0)
        assert not list(tmp_path.iterdir())

    def test_truncated_body_rejected(self, tmp_path):
        grid = build_grid_1d(5.0, 16)
        path = tmp_path / "field.bin"
        write_field(path, np.ones(grid.num_nodes, dtype=complex), grid, 4.0)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="nodes"):
            read_field(path)


class TestAtomicWrite:
    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _atomic_write(tmp_path / "out" / "report.json", "{}")
        assert list((tmp_path / "out").iterdir()) == []


class TestSolveCommand:
    def test_converged_run_writes_outputs(self, tmp_path, capsys):
        path, raw = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out_dir = tmp_path / "out"
        for name in (
            "field.bin",
            "field.meta.json",
            "on_axis.csv",
            "flux.csv",
            "report.json",
        ):
            assert (out_dir / name).exists(), name
        report = json.loads((out_dir / "report.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] == len(report["history"])
        assert report["factorizations"] == report["iterations"]
        assert report["krylov_iterations"] == 0
        assert report["lu_fill"] > 0
        assert report["mirror_folded"] is False
        header, E = read_field(out_dir / "field.bin")
        assert header["N"] == raw["N"]
        assert np.abs(E).max() == pytest.approx(report["max_amplitude"])
        meta = json.loads((out_dir / "field.meta.json").read_text())
        assert meta["config"]["name"] == raw["name"]
        flux_lines = (out_dir / "flux.csv").read_text().splitlines()
        assert flux_lines[0] == "z,beam_power"
        assert len(flux_lines) > raw["N"]
        assert "converged" in capsys.readouterr().out

    def test_report_holds_every_solve_report_field(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        fields = {f.name for f in dataclasses.fields(SolveReport)}
        assert set(report) == fields | {"runtime_seconds"}
        entry_fields = {f.name for f in dataclasses.fields(HistoryEntry)}
        assert report["history"]
        assert all(set(entry) == entry_fields for entry in report["history"])

    @pytest.mark.parametrize("over", [
        {},
        dict(geometry="cylindrical", Zmax=2.0, N=24, extent=3.0, M=12,
             layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.1}],
             beam_left={"shape": "gaussian", "width": 1.0, "adjust": True}),
    ], ids=["1d", "cylindrical"])
    def test_meta_header_matches_field_file(self, tmp_path, over):
        path, _ = write_config(tmp_path, **over)
        assert main(["solve", str(path)]) == 0
        header, _ = read_field(tmp_path / "out" / "field.bin")
        meta = json.loads((tmp_path / "out" / "field.meta.json").read_text())
        assert {key: meta[key] for key in header} == header

    def test_divergent_run_exits_two_with_report(self, tmp_path, capsys):
        # the weak-contrast iteration has a finite convergence domain; at
        # nu = 1.5 it diverges in a controlled, reported way
        path, _ = write_config(
            tmp_path,
            name="diverges",
            solver="born",
            layers=[{"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": 0.0}],
        )
        assert main(["solve", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is False
        assert report["divergence_reason"]
        assert len(report["history"]) == report["iterations"]
        assert report["lu_fill"] == 0
        assert (tmp_path / "out" / "field.bin").exists()
        assert "did not converge" in capsys.readouterr().out

    def test_mirror_symmetric_run_reports_fold(self, tmp_path, capsys):
        # a centred, untilted beam on a Cartesian section is solved folded
        path, _ = write_config(
            tmp_path,
            name="folded",
            geometry="cartesian",
            Zmax=2.0,
            N=30,
            extent=6.0,
            M=60,
            layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
            beam_left={"shape": "sech", "r0": math.sqrt(2.0), "adjust": True},
        )
        assert main(["solve", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mirror_folded"] is True
        assert report["lu_fill"] > 0
        _, E = read_field(tmp_path / "out" / "field.bin")
        assert np.array_equal(E, E[:, ::-1])

    def test_counter_propagating_beams_reach_the_problem(self, tmp_path, capsys):
        # beam_right enters through the right face; the written field is the
        # solve of the same two-beam problem built by hand
        sech = {"shape": "sech", "r0": math.sqrt(2.0)}
        path, _ = write_config(
            tmp_path, name="pair", geometry="cartesian", Zmax=2.0, N=30,
            extent=6.0, M=60,
            layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
            beam_left=sech, beam_right={**sech, "amplitude_re": 0.5})
        assert main(["solve", str(path)]) == 0
        _, E_cli = read_field(tmp_path / "out" / "field.bin")
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(Layer(0.0, 2.0, 1.0, 0.0625),))
        grid = build_grid_multi(2.0, 30, 6.0, 60, "cartesian")
        left, right = (make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0),
                                              amplitude=amplitude, side=side), grid, mat)
                       for amplitude, side in ((1.0, "left"), (0.5, "right")))
        E, report = solve(HelmholtzProblem(grid, mat, left, right))
        assert report.converged
        assert E_cli.tobytes() == E.tobytes()

    def test_out_of_memory_exits_two_with_report(self, tmp_path, capsys, monkeypatch):
        def splu(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        path, _ = write_config(tmp_path, name="no-memory")
        assert main(["solve", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is False
        assert report["divergence_reason"] == "OutOfMemory"
        assert report["factorizations"] == 0
        assert (tmp_path / "out" / "field.bin").exists()
        assert "OutOfMemory" in capsys.readouterr().out

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, geometry="spherical")
        assert main(["solve", str(path)]) == 1
        assert "geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -3])
    def test_born_needs_an_inner_iteration(self, tmp_path, capsys, count):
        path, _ = write_config(tmp_path, solver="born", born_inner_iterations=count)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: born_inner_iterations must be at least 1\n"
        assert not (tmp_path / "out").exists()

    def test_singular_vacuum_operator_exits_one(self, tmp_path, capsys, monkeypatch):
        # a zero pivot of the vacuum tridiagonals stops Born's first sweep
        factor = scipy.linalg.lapack.zgttrf

        def zero_pivot(*args, **kwargs):
            *lu, _ = factor(*args, **kwargs)
            return (*lu, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", zero_pivot)
        path, _ = write_config(tmp_path, solver="born")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == "error: singular vacuum operator\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("field,value", [
        ("N", "64"), ("Zmax", "5.0"), ("k0", None), ("sigma", True), ("extent", "6"),
        ("M", 8.0), ("omega", [0.5]), ("switch_threshold", "0.01"),
        ("convergence_tol", {}), ("max_iterations", 2.5), ("born_inner_iterations", "5"),
    ])
    def test_mistyped_number_exits_one_naming_field(self, tmp_path, capsys, field, value):
        path, _ = write_config(tmp_path, **{field: value})
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field}: must be" in err
        assert not (tmp_path / "out").exists()

    _MULTID = {"geometry": "cartesian", "extent": 2.0, "M": 8}

    @pytest.mark.parametrize("field,over", [
        ("geometry", {"geometry": ["1d"]}),
        ("solver", {"solver": ["newton"]}),
        ("layers", {"layers": {"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": 0.0}}),
        ("layers[0].nu", {"layers": [{"z_from": 0.0, "z_to": 5.0, "nu": "abc", "eps": 0.0}]}),
        ("beam_left.amplitude_re", {"beam_left": {"amplitude_re": "x"}}),
        ("beam_left.width", {**_MULTID, "beam_left": {"shape": "gaussian", "width": "1"}}),
        ("beam_left.adjust", {**_MULTID, "beam_left": {"shape": "gaussian", "width": 1.0,
                                                        "adjust": "false"}}),
    ])
    def test_mistyped_value_exits_one_naming_field(self, tmp_path, capsys, field, over):
        path, _ = write_config(tmp_path, **over)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field}: must be" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("field,value", [
        ("convergence_tol", math.inf), ("convergence_tol", math.nan),
        ("switch_threshold", math.inf),
    ])
    def test_non_finite_tolerance_exits_one_naming_field(self, tmp_path, capsys,
                                                         field, value):
        path, _ = write_config(tmp_path, **{field: value})
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {field} must be positive and finite, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over,named", [
        ({"layers": [{"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": 0.0, "sigma": 3}]},
         "layers[0]: unknown fields ['sigma']"),
        ({"Zmax": 2}, "layers: stack ends at 5.0, config Zmax is 2"),
        ({**_MULTID, "beam_left": {"shape": "gaussian", "wdith": 1.0}},
         "beam_left: unknown fields ['wdith']"),
        ({"beam_left": {"shape": "sech", "r0": 1.0}},
         "beam_left: 1d beams take only amplitude_re/amplitude_im, got ['r0', 'shape']"),
        # raised while build_problem builds the beams and the stack; M = 48
        # gives steps comparable to h_z
        ({**_MULTID, "M": 48, "beam_left": {"shape": "triangle", "width": 1.0}},
         "beam_left: unknown beam shape 'triangle'"),
        ({**_MULTID, "M": 48, "beam_left": {"width": 1.0}},
         "beam_left: missing field 'shape'"),
        # raised while the beams are sampled on the grid
        ({**_MULTID, "M": 48, "beam_left": {"shape": "custom", "samples": [1.0, 1.0, 1.0]}},
         "beam_left: custom beam has 3 samples, grid has 48"),
        # each sample is a number: null would run a NaN beam, true sample
        # 1.0, and 8 pairs flatten to 16 samples that fit M = 16
        ({**_MULTID, "M": 16, "beam_left": {"shape": "custom", "samples": [None] + [1] * 15}},
         "beam_left.samples[0]: must be a number, got None"),
        ({**_MULTID, "M": 16, "beam_left": {"shape": "custom", "samples": [1] * 15 + [True]}},
         "beam_left.samples[15]: must be a number, got True"),
        ({**_MULTID, "M": 16, "beam_left": {"shape": "custom", "samples": [[1, 2]] * 8}},
         "beam_left.samples[0]: must be a number, got [1, 2]"),
        ({**_MULTID, "M": 16, "beam_right": {"shape": "custom", "samples": [1] * 3 + ["1"] + [1] * 12}},
         "beam_right.samples[3]: must be a number, got '1'"),
        ({**_MULTID, "geometry": "cylindrical", "M": 24,
          "beam_left": {"shape": "gaussian", "width": 1.0, "tilt_angle": 0.1}},
         "beam_left: tilted beams break cylindrical symmetry"),
        ({**_MULTID, "M": 48, "layers": [{"z_from": 0.0, "z_to": 5.0, "nu": 1.0, "eps": -2.0}],
          "beam_left": {"shape": "gaussian", "width": 1.0, "adjust": True}},
         "beam_left: defocusing nonlinearity too strong: negative radicand in the "
         "amplitude adjustment"),
        ({"Zmax": 4.0, "layers": [{"z_from": 1.0, "z_to": 4.0, "nu": 1.5, "eps": 0.0}]},
         "first layer must start at z=0"),
        # JSON as Python reads it takes NaN and Infinity
        ({"k0": math.nan}, "k0 must be positive and finite, got nan"),
        ({"sigma": math.inf}, "sigma must be positive and finite, got inf"),
        ({"layers": [{"z_from": 0.0, "z_to": 5.0, "nu": math.nan, "eps": 0.0}]},
         "layers[0].nu must be finite, got nan"),
        ({"layers": [{"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": -math.inf}]},
         "layers[0].eps must be finite, got -inf"),
        ({"Zmax": math.inf,
          "layers": [{"z_from": 0.0, "z_to": math.inf, "nu": 1.5, "eps": 0.0}]},
         "layers[0].z_to must be finite, got inf"),
        ({**_MULTID, "M": 48, "extent": math.inf}, "extent must be positive and finite, got inf"),
        # a 1d run is one column and would ignore them
        ({"M": 8}, "M: must be 1 for a 1d run, got 8"),
        ({"extent": 3.0}, "extent: must be null for a 1d run, got 3.0"),
        # raised while the problem is built from the beams, stack and grid
        ({"layers": [{"z_from": 0.0, "z_to": 2.51, "nu": 1.5, "eps": 0.0},
                     {"z_from": 2.51, "z_to": 5.0, "nu": 1.0, "eps": 0.0}]},
         "interface at z=2.51 does not lie on a grid node"),
        ({"N": 8, "k0": 40.0}, "k^2 h^2 = 11.7739 >= 4: wave not resolved by the grid"),
        ({**_MULTID, "geometry": "cylindrical", "extent": 0.2,
          "beam_left": {"shape": "gaussian", "width": 0.1}},
         "cylindrical radiation closure needs nu0*k0*Rmax >= 1, got 0.8"),
        ({**_MULTID, "M": 48, "beam_left": {"shape": "gaussian", "width": 1.0,
                                            "amplitude_re": math.nan}},
         "left incoming profile must be finite"),
    ], ids=["layer-key", "Zmax", "beam-key", "1d-beam", "beam-shape", "no-shape",
            "custom-samples", "sample-null", "sample-true", "sample-pair",
            "sample-string", "cyl-tilt", "adjust-radicand", "stack-start", "k0-nan", "sigma-inf", "nu-nan", "eps-minus-inf", "z_to-inf",
            "extent-inf", "1d-M", "1d-extent", "off-grid-interface", "unresolved",
            "cyl-rim", "beam-nan"])
    def test_config_error_names_file_and_field(self, tmp_path, capsys, over, named):
        path, _ = write_config(tmp_path, **over)
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {named}\n"
        assert not (tmp_path / "out").exists()


class TestPresetCommand:
    def test_stdout_emission(self, capsys):
        assert main(["preset", "collapse-cyl-desk"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "collapse-cyl-desk"
        assert data["extent"] == 3.5

    def test_module_entry_point(self):
        # `python -m nlhelm.cli` runs main on the command line
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "nlhelm.cli", "preset", "soliton-2d-desk"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert run.returncode == 0
        assert run.stdout == preset("soliton-2d-desk").to_json()

    def test_out_file_and_scale(self, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        assert main(
            ["preset", "soliton-2d-paper", "--scale", "desk", "--out", str(out)]
        ) == 0
        cfg = load_config(out)
        assert cfg.name == "soliton-2d-desk"
        assert cfg.Zmax == 40.0

    def test_unknown_name_exits_one(self, capsys):
        assert main(["preset", "mystery"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        # the --out directory is a regular file, so it cannot be created
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["preset", "soliton-2d-desk", "--out", str(blocker / "x.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert blocker.is_file()


class TestConvergeCommand:
    def test_nested_linear_study(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            name="conv",
            N=16,
            layers=[{"z_from": 0.0, "z_to": 5.0, "nu": 1.5, "eps": 0.0}],
        )
        assert main(["converge", str(path), "--levels", "3"]) == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        assert lines[0] == "N,M,diff_to_next,rate"
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "level 2: N=64" in out

    def test_multid_study_doubles_both_counts(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, name="conv2d", geometry="cartesian", Zmax=2.0, N=16,
            extent=2.0, M=12,
            layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.05}],
            beam_left={"shape": "gaussian", "width": 1.0})
        assert main(["converge", str(path), "--levels", "2"]) == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
        assert lines[0] == "N,M,diff_to_next,rate"
        levels = [tuple(float(v) for v in line.split(",")[:2]) for line in lines[1:]]
        assert levels == [(16.0, 12.0), (32.0, 24.0)]
        assert "level 1: N=32 M=24" in capsys.readouterr().out

    def test_level_after_a_non_finite_field_starts_from_zero(self, tmp_path, capsys,
                                                            monkeypatch):
        path, _ = write_config(tmp_path)
        guesses = []
        solve = cli.solvers.solve

        def first_field_nan(problem, config=None, method="newton"):
            guesses.append(config.initial_guess)
            E, report = solve(problem, config=config, method=method)
            return (np.full_like(E, np.nan) if len(guesses) == 1 else E), report

        monkeypatch.setattr(cli.solvers, "solve", first_field_nan)
        main(["converge", str(path), "--levels", "3"])
        # level 1 starts from zero; level 2 from level 1's finite field
        assert guesses[1] is None and np.isfinite(guesses[2]).all()
        out = capsys.readouterr().out
        iterations = [int(n) for n in re.findall(r"^level \d.*iterations=(\d+)$", out, re.M)]
        assert len(iterations) == 3 and min(iterations) > 0

    def test_levels_validated(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["converge", str(path), "--levels", "1"]) == 1
        assert "--levels" in capsys.readouterr().err


class TestCompareNlsCommand:
    def test_multid_comparison_outputs(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            name="cmp",
            geometry="cartesian",
            Zmax=2.0,
            N=30,
            extent=6.0,
            M=60,
            layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
            beam_left={"shape": "sech", "r0": math.sqrt(2.0), "adjust": True},
        )
        assert main(["compare-nls", str(path)]) == 0
        out_dir = tmp_path / "out"
        lines = (out_dir / "compare_nls.csv").read_text().splitlines()
        assert lines[0] == "z,nlh_on_axis_abs,nls_on_axis_abs"
        assert len(lines) == 32  # header + N + 1 sampled stations
        nls_report = json.loads((out_dir / "nls_report.json").read_text())
        assert nls_report["blew_up"] is False
        assert nls_report["nlh_converged"] is True
        # the two models track each other over this short propagation
        rows = np.array([list(map(float, ln.split(","))) for ln in lines[1:]])
        assert np.abs(rows[:, 1] - rows[:, 2]).max() < 0.1

    def test_paraxial_blow_up_masks_the_rest(self, tmp_path, capsys, monkeypatch):
        # past the z* of a march that blew up the paraxial column is NaN
        march = cli.nls_march
        monkeypatch.setattr(cli, "nls_march", lambda *args, **kwargs: dataclasses.replace(
            march(*args, **kwargs), blew_up=True, z_star=1.0))
        path, _ = write_config(
            tmp_path, name="cmp", geometry="cartesian", Zmax=2.0, N=30, extent=6.0,
            M=60, layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
            beam_left={"shape": "sech", "r0": math.sqrt(2.0)})
        assert main(["compare-nls", str(path)]) == 0
        lines = (tmp_path / "out" / "compare_nls.csv").read_text().splitlines()
        rows = np.array([list(map(float, ln.split(","))) for ln in lines[1:]])
        past = rows[:, 0] > 1.0
        assert past.sum() == 15
        assert np.isnan(rows[past, 2]).all() and np.isfinite(rows[~past]).all()
        assert "blew up at z = 1" in capsys.readouterr().out

    def test_needs_multid_beam(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["compare-nls", str(path)]) == 1
        assert "multi-D" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", [
        [{"z_from": 0.0, "z_to": 1.0, "nu": 1.5, "eps": 0.0},
         {"z_from": 1.0, "z_to": 2.0, "nu": 1.0, "eps": 0.2}],
        [{"z_from": 0.0, "z_to": 2.0, "nu": 1.5, "eps": 0.0625}],
    ], ids=["two-media", "nu-not-one"])
    def test_stack_the_march_does_not_model_rejected(self, tmp_path, capsys, layers):
        # nls_march models one medium with nu = 1; no linear or mismatched
        # reference is passed off as the config's
        path, _ = write_config(
            tmp_path, name="cmp", geometry="cartesian", Zmax=2.0, N=30, extent=6.0,
            M=60, layers=layers, beam_left={"shape": "sech", "r0": math.sqrt(2.0)})
        assert main(["compare-nls", str(path)]) == 1
        eps = layers[0]["eps"]
        assert capsys.readouterr().err == (
            f"error: {path}: layers: compare-nls needs nu = 1 and the first "
            f"layer's eps = {eps:g} in every layer\n")
        assert not (tmp_path / "out").exists()

    def test_right_beam_rejected(self, tmp_path, capsys):
        # nls_march starts from the left beam only, so a second beam would
        # leave the reference describing another problem
        beam = {"shape": "sech", "r0": math.sqrt(2.0)}
        path, _ = write_config(
            tmp_path, name="cmp", geometry="cartesian", Zmax=2.0, N=30, extent=6.0,
            M=60, layers=[{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
            beam_left=beam, beam_right=beam)
        assert main(["compare-nls", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: beam_right: compare-nls marches the left beam only\n")
        assert not (tmp_path / "out").exists()


class TestArgumentParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_config_dataclass_defaults(self):
        cfg = RunConfig(
            name="x",
            geometry="1d",
            Zmax=1.0,
            N=8,
            k0=1.0,
            sigma=1.0,
            layers=[{"z_from": 0.0, "z_to": 1.0, "nu": 1.0, "eps": 0.0}],
        )
        assert cfg.solver == "newton"
        assert cfg.M == 1
        assert cfg.newton_config().max_iterations == 200
