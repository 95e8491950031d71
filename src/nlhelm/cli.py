"""Batch driver: config parsing, presets, solving, and result serialization.

Subcommands:
  solve <config.json>          solve a run configuration, write outputs
  preset <name> [--scale desk] [--out FILE]   emit a canned configuration
  converge <config.json> --levels K           nested-grid convergence study
  compare-nls <config.json>    solve and march the paraxial reference

Exit codes: 0 converged / success, 2 controlled non-convergence (report still
written), 1 error. The output directory is the config's output_dir, else
$NLHELM_OUTPUT_ROOT/<name>, else ./<name>-out. All files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solvers
from .beams import (
    BeamSpec,
    grid_convergence_study,
    interpolate_field,
    make_incoming,
    nls_march,
    on_axis_index,
    poynting_flux,
)
from .errors import ConfigError, InvalidGrid, NlhError
from .fields import (
    GridMultiD,
    Layer,
    MaterialStack,
    build_grid_1d,
    build_grid_multi,
)
from .helmholtz_nd import HelmholtzProblem
from .solvers import NewtonConfig

__all__ = ["RunConfig", "preset", "run", "main", "read_field", "PRESET_NAMES"]

MAGIC = b"NLHM-FLD-v1\x00\x00\x00\x00\x00"
assert len(MAGIC) == 16
_GEOMETRY_TAGS = {"1d": 0, "cartesian": 1, "cylindrical": 2}
_GEOMETRY_NAMES = {v: k for k, v in _GEOMETRY_TAGS.items()}
_HEADER = struct.Struct("<QQQddd")  # after the magic: (geometry, N, M, h_z, h_perp, k0)


@dataclass
class RunConfig:
    """One solver run, fully serializable to JSON."""

    name: str
    geometry: str            # "1d" | "cartesian" | "cylindrical"
    Zmax: float
    N: int
    k0: float
    sigma: float
    layers: list[dict]       # {"z_from", "z_to", "nu", "eps"}
    extent: float | None = None   # Xmax / Rmax (multi-D only)
    M: int = 1
    # incoming beam per side, None for none: BeamSpec's fields in multi-D, a
    # plane wave's amplitude_re/amplitude_im in 1D; both default to 1 + 0j
    beam_left: dict | None = None
    beam_right: dict | None = None
    solver: str = "newton"   # a key of solvers.METHODS
    # NewtonConfig's settings, copied into it by newton_config()
    omega: float = NewtonConfig.omega
    switch_threshold: float = NewtonConfig.switch_threshold
    convergence_tol: float = NewtonConfig.convergence_tol
    max_iterations: int = NewtonConfig.max_iterations
    born_inner_iterations: int = NewtonConfig.born_inner_iterations
    output_dir: str | None = None
    desk_scaled: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def newton_config(self) -> NewtonConfig:
        return NewtonConfig(**{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(NewtonConfig)
                               if f.name != "initial_guess"})


_REQUIRED = ("name", "geometry", "Zmax", "N", "k0", "sigma", "layers")
_ALIASES = {"cartesian2d": "cartesian"}
# the JSON values that each RunConfig annotation (a string here, see the
# __future__ import) or beam field kind accepts, and how to name them
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "float | None": ((int, float, type(None)), "a number"),
          "str": (str, "a string"), "str | None": ((str, type(None)), "a string"),
          "bool": (bool, "true or false"), "list[dict]": (list, "a list"),
          "list | None": ((list, type(None)), "a list"),
          "dict | None": ((dict, type(None)), "an object")}
# the kind of each beam field
_BEAM_FIELDS = {"shape": "str", "r0": "float | None", "width": "float | None",
                "samples": "list | None", "amplitude_re": "float",
                "amplitude_im": "float", "center": "float", "tilt_angle": "float",
                "adjust": "bool"}
_LAYER_FIELDS = tuple(f.name for f in dataclasses.fields(Layer))


def _check_kind(value, kind: str, field: str, source: str):
    kinds, noun = _KINDS[kind]
    # JSON true/false is a Python int, but counts only as a bool
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise ConfigError(f"{source}: {field}: must be {noun}, got {value!r}")


def parse_config(data: dict, source: str = "<config>") -> RunConfig:
    """Validate a raw dict into a RunConfig; errors name the source and the
    offending field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    kinds = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for key in data:
        if key not in kinds:
            raise ConfigError(f"{source}: unknown field {key!r}")
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"{source}: missing required field {key!r}")
    for key, value in data.items():
        _check_kind(value, kinds[key], key, source)
    data = dict(data)
    data["geometry"] = _ALIASES.get(data["geometry"], data["geometry"])
    cfg = RunConfig(**data)
    if cfg.geometry not in _GEOMETRY_TAGS:
        raise ConfigError(f"{source}: geometry: unknown value {cfg.geometry!r}")
    if cfg.geometry == "1d":  # one column: M and extent would be ignored
        for key, want in (("M", 1), ("extent", None)):
            if getattr(cfg, key) != want:
                raise ConfigError(f"{source}: {key}: must be {json.dumps(want)} "
                                  f"for a 1d run, got {getattr(cfg, key)}")
    else:
        if cfg.extent is None:
            raise ConfigError(f"{source}: extent: required for multi-D runs")
        if cfg.M < 1:
            raise ConfigError(f"{source}: M: must be at least 1")
    if cfg.solver not in solvers.METHODS:
        raise ConfigError(f"{source}: solver: unknown value {cfg.solver!r}")
    if not cfg.layers:
        raise ConfigError(f"{source}: layers: must be non-empty")
    for i, lay in enumerate(cfg.layers):
        if not isinstance(lay, dict):
            raise ConfigError(f"{source}: layers[{i}]: must be an object")
        extra = set(lay) - set(_LAYER_FIELDS)
        if extra:
            raise ConfigError(f"{source}: layers[{i}]: unknown fields {sorted(extra)}")
        for fld in _LAYER_FIELDS:
            if fld not in lay:
                raise ConfigError(f"{source}: layers[{i}].{fld}: missing")
            _check_kind(lay[fld], "float", f"layers[{i}].{fld}", source)
    end = float(cfg.layers[-1]["z_to"])
    if abs(end - cfg.Zmax) > 1e-12 * max(1.0, abs(cfg.Zmax)):
        raise ConfigError(f"{source}: layers: stack ends at {end}, config Zmax is {cfg.Zmax}")
    for side in ("beam_left", "beam_right"):
        beam = getattr(cfg, side)
        if beam is None:
            continue
        if cfg.geometry == "1d":  # a plane wave: its amplitude only
            extra = set(beam) - {"amplitude_re", "amplitude_im"}
            if extra:
                raise ConfigError(
                    f"{source}: {side}: 1d beams take only amplitude_re/amplitude_im, "
                    f"got {sorted(extra)}")
        else:
            extra = set(beam) - _BEAM_FIELDS.keys()
            if extra:
                raise ConfigError(f"{source}: {side}: unknown fields {sorted(extra)}")
        for key, value in beam.items():
            _check_kind(value, _BEAM_FIELDS[key], f"{side}.{key}", source)
        for i, value in enumerate(beam.get("samples") or ()):
            _check_kind(value, "float", f"{side}.samples[{i}]", source)
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data, source=str(path))


def _amplitude(beam: dict) -> complex:
    return complex(beam.get("amplitude_re", 1.0), beam.get("amplitude_im", 0.0))


def _incoming(beam: dict, side: str, grid, mat, source: str) -> np.ndarray:
    """A multi-D config beam sampled on the grid; its errors, from building
    the BeamSpec or sampling it, name source and the beam."""
    if "shape" not in beam:
        raise ConfigError(f"{source}: beam_{side}: missing field 'shape'")
    kwargs = {k: v for k, v in beam.items() if k not in ("amplitude_re", "amplitude_im")}
    try:
        if kwargs.get("samples") is not None:
            kwargs["samples"] = np.asarray(kwargs["samples"], dtype=complex)
        spec = BeamSpec(**kwargs, amplitude=_amplitude(beam), side=side)
        return make_incoming(spec, grid, mat)
    except (ValueError, NlhError) as exc:
        raise ConfigError(f"{source}: beam_{side}: {exc}") from exc


def _material(cfg: RunConfig) -> MaterialStack:
    # parse_config has checked that each layer has exactly Layer's fields
    layers = tuple(Layer(**{k: float(v) for k, v in l.items()}) for l in cfg.layers)
    return MaterialStack(k0=float(cfg.k0), sigma=float(cfg.sigma), layers=layers)


def build_problem(cfg: RunConfig, source: str = "<config>"):
    """(problem, grid, mat, solver_config) from a parsed run configuration;
    its config errors name source, as parse_config's do."""
    try:
        mat = _material(cfg)
        if cfg.geometry == "1d":
            grid = build_grid_1d(cfg.Zmax, cfg.N)
        else:
            grid = build_grid_multi(cfg.Zmax, cfg.N, cfg.extent, cfg.M, cfg.geometry)
    except InvalidGrid as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    def incoming(side):
        beam = getattr(cfg, f"beam_{side}")
        if cfg.geometry == "1d":  # a plane wave; an absent one has amplitude 0
            return np.array([0j if beam is None else _amplitude(beam)])
        return None if beam is None else _incoming(beam, side, grid, mat, source)

    left, right = incoming("left"), incoming("right")
    try:
        problem = HelmholtzProblem(grid, mat, left, right)
    except (NlhError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return problem, grid, mat, cfg.newton_config()


# --- output writing -----------------------------------------------------------

def _atomic_write(path: Path, data: bytes | str):
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _grid_header(grid, k0: float) -> dict:
    """The grid facts a field file carries, as read_field returns them."""
    multi = isinstance(grid, GridMultiD)  # a 1d field carries no transverse step
    return {"geometry": grid.geometry if multi else "1d", "N": grid.N, "M": grid.M,
            "h_z": grid.h_z, "h_perp": grid.h_perp if multi else 0.0, "k0": k0}


def write_field(path, E: np.ndarray, grid, k0: float) -> None:
    """Binary field file: 16-byte magic, (geometry, N, M) as little-endian
    u64, (h_z, h_perp, k0) as little-endian f64, then the complex nodes
    row-major as little-endian f64 (Re, Im) pairs, in read_field's shape."""
    head = _grid_header(grid, k0)
    if np.shape(E) != grid.field_shape:
        raise ValueError(f"{path}: field shape {np.shape(E)} does not fit its grid, "
                         f"{grid.field_shape}")
    header = _HEADER.pack(_GEOMETRY_TAGS[head["geometry"]], head["N"], head["M"],
                          head["h_z"], head["h_perp"], head["k0"])
    body = np.ascontiguousarray(E, dtype=np.complex128).astype("<c16").tobytes()
    _atomic_write(Path(path), MAGIC + header + body)


def read_field(path) -> tuple[dict, np.ndarray]:
    """Inverse of write_field: (header dict, complex field)."""
    raw = Path(path).read_bytes()
    if raw[:16] != MAGIC:
        raise ValueError(f"{path}: not a field file (bad magic)")
    if len(raw) < 16 + _HEADER.size:
        raise ValueError(f"{path}: truncated field header")
    tag, N, M, h_z, h_perp, k0 = _HEADER.unpack_from(raw, 16)
    if tag not in _GEOMETRY_NAMES:
        raise ValueError(f"{path}: unknown geometry tag {tag}")
    geometry = _GEOMETRY_NAMES[tag]
    # a 1d field is one column; a multi-D one has at least one
    if M < 1 or (geometry == "1d" and M != 1):
        raise ValueError(f"{path}: M = {M} does not fit a {geometry} field")
    if N < 8:
        raise ValueError(f"{path}: N = {N} is below the grid minimum of 8")
    # a 1d field has no transverse spacing; it carries h_perp = 0.0
    if geometry == "1d" and h_perp != 0.0:
        raise ValueError(f"{path}: h_perp = {h_perp!r} must be 0.0 for a 1d field")
    positive = {"h_z": h_z, "k0": k0} if geometry == "1d" else \
        {"h_z": h_z, "h_perp": h_perp, "k0": k0}
    for name, value in positive.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{path}: {name} = {value!r} must be positive and finite")
    header = {"geometry": geometry, "N": N, "M": M,
              "h_z": h_z, "h_perp": h_perp, "k0": k0}
    body = np.frombuffer(raw, dtype="<c16", offset=16 + _HEADER.size)
    count = (N + 7) * M
    if body.size != count:
        raise ValueError(f"{path}: expected {count} nodes, found {body.size}")
    E = body.astype(np.complex128)
    if geometry != "1d":
        E = E.reshape(N + 7, M)
    return header, E


def _csv(rows, header: str) -> str:
    out = [header]
    for row in rows:
        out.append(",".join("" if v is None else repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


def resolve_output_dir(cfg: RunConfig) -> Path:
    if cfg.output_dir:
        return Path(cfg.output_dir)
    root = os.environ.get("NLHELM_OUTPUT_ROOT")
    if root:
        return Path(root) / cfg.name
    return Path(f"{cfg.name}-out")


def write_outputs(out_dir: Path, cfg: RunConfig, E: np.ndarray, grid, mat,
                  report: solvers.SolveReport, runtime: float) -> None:
    write_field(out_dir / "field.bin", E, grid, mat.k0)
    meta = {
        **_grid_header(grid, mat.k0),
        "magic": MAGIC.rstrip(b"\x00").decode(),
        "Zmax": grid.Zmax,
        "extent": None if cfg.geometry == "1d" else grid.extent,
        "sigma": mat.sigma,
        "config": cfg.to_dict(),
    }
    _atomic_write(out_dir / "field.meta.json",
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")
    # diagnostics are still written for a diverged run; its amplitudes may
    # overflow to inf, which is the honest value to record
    with np.errstate(over="ignore", invalid="ignore"):
        flux = poynting_flux(E, grid, mat.k0)
        # a 1D field and its S_z read as their single column
        axis = on_axis_index(grid)
        amp_sq = np.abs(E.reshape(len(E), -1)[grid.index(flux.n), axis]) ** 2
        s_axis = flux.S_z.reshape(len(flux.n), -1)[:, axis]
    _atomic_write(
        out_dir / "on_axis.csv",
        _csv(zip(flux.z, amp_sq, s_axis, flux.power),
             "z,abs_E_squared,S_z,beam_power"),
    )
    _atomic_write(out_dir / "flux.csv", _csv(zip(flux.z, flux.power), "z,beam_power"))
    _atomic_write(out_dir / "report.json", json.dumps(
        {**dataclasses.asdict(report), "runtime_seconds": runtime}, indent=2) + "\n")


# --- presets -------------------------------------------------------------------

# base name -> (geometry, k0, sigma, eps, extent, beam_left,
#               {scale: (Zmax, N, M)}); a preset is f"{base}-{scale}"
_PRESETS = {
    "soliton-2d": ("cartesian", 4.0, 1.0, 1.0 / 16.0, 12.0,
                   {"shape": "sech", "r0": math.sqrt(2.0), "adjust": True},
                   {"desk": (40.0, 382, 112), "paper": (240.0, 4480, 112)}),
    "collapse-cyl": ("cylindrical", 8.0, 1.0, 0.15, 3.5,
                     {"shape": "gaussian", "width": 1.0, "adjust": True},
                     {"desk": (9.0, 432, 144), "paper": (9.0, 1080, 360)}),
    "collapse-quintic": ("cartesian", 8.0, 2.0, 0.125, 3.0,
                         {"shape": "gaussian", "width": 1.0, "adjust": True},
                         {"desk": (6.0, 240, 80), "paper": (6.0, 480, 160)}),
}
PRESET_NAMES = sorted(f"{base}-{scale}" for base, row in _PRESETS.items()
                      for scale in row[-1])


def preset(name: str, scale: str | None = None) -> RunConfig:
    """Look up a preset; `scale` rewrites the -paper/-desk suffix."""
    key = name
    if scale is not None:
        base = name.rsplit("-", 1)[0] if name.endswith(("-paper", "-desk")) else name
        key = f"{base}-{scale}"
    if key not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {key!r}; available: {', '.join(PRESET_NAMES)}"
        )
    base, _, scale = key.rpartition("-")
    geometry, k0, sigma, eps, extent, beam, sizes = _PRESETS[base]
    Zmax, N, M = sizes[scale]
    return RunConfig(
        name=key, geometry=geometry, Zmax=Zmax, N=N, extent=extent, M=M, k0=k0,
        sigma=sigma, layers=[{"z_from": 0.0, "z_to": Zmax, "nu": 1.0, "eps": eps}],
        beam_left=dict(beam), desk_scaled=scale == "desk",
    )


# --- subcommand drivers ---------------------------------------------------------

# each subcommand returns its exit code and raises on error; main reports the
# error and exits 1

def run(config_path) -> int:
    """Solve one configuration and write its outputs; returns the exit code."""
    cfg = load_config(config_path)
    problem, grid, mat, solver_cfg = build_problem(cfg, str(config_path))
    t0 = time.perf_counter()
    E, report = solvers.solve(problem, config=solver_cfg, method=cfg.solver)
    runtime = time.perf_counter() - t0
    out_dir = resolve_output_dir(cfg)
    write_outputs(out_dir, cfg, E, grid, mat, report, runtime)
    status = "converged" if report.converged else \
        f"did not converge ({report.divergence_reason})"
    print(f"{cfg.name}: {status} in {report.iterations} iterations, "
          f"max|E| = {report.max_amplitude:.6g}, outputs in {out_dir}")
    return 0 if report.converged else 2


def _cmd_preset(args) -> int:
    text = preset(args.name, args.scale).to_json()
    if args.out:
        _atomic_write(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _refined(cfg: RunConfig, factor: int) -> RunConfig:
    d = cfg.to_dict()
    d["name"] = f"{cfg.name}-x{factor}"
    d["N"] = cfg.N * factor
    if cfg.geometry != "1d":
        d["M"] = cfg.M * factor
    return RunConfig(**d)


def converge(config_path, levels: int) -> int:
    """Solve a factor-2 nested family (coarsest = the config) and report the
    observed convergence rates."""
    if levels < 2:
        raise ConfigError("--levels must be at least 2")
    base = load_config(config_path)
    fields, grids = [], []
    all_converged = True
    for i in range(levels):
        cfg_i = _refined(base, 2 ** i)
        problem, grid, mat, solver_cfg = build_problem(cfg_i, str(config_path))
        # warm start from the previous level, unless its field is not finite
        if fields and np.isfinite(fields[-1]).all():
            guess = interpolate_field(fields[-1], grids[-1], grid)
            solver_cfg = dataclasses.replace(solver_cfg, initial_guess=guess)
        E, report = solvers.solve(problem, config=solver_cfg, method=cfg_i.solver)
        all_converged &= report.converged
        print(f"level {i}: N={cfg_i.N} M={cfg_i.M} converged={report.converged} "
              f"iterations={report.iterations}")
        fields.append(E)
        grids.append(grid)
    table = grid_convergence_study(fields, grids)
    out_dir = resolve_output_dir(base)
    _atomic_write(out_dir / "converge.csv", _csv(table.rows(), "N,M,diff_to_next,rate"))
    for (N, M, diff, rate) in table.rows():
        print(f"N={N} M={M} diff={diff} rate={rate}")
    return 0 if all_converged else 2


def compare_nls(config_path) -> int:
    """Solve the full model, march the paraxial reference from the same
    (unadjusted) input beam, and write the on-axis comparison."""
    cfg, source = load_config(config_path), str(config_path)
    if cfg.geometry == "1d" or cfg.beam_left is None:
        raise ConfigError(f"{source}: compare-nls needs a multi-D config with a left beam")
    if cfg.beam_right is not None:
        raise ConfigError(f"{source}: beam_right: compare-nls marches the left beam only")
    problem, grid, mat, solver_cfg = build_problem(cfg, source)
    # the paraxial model is one medium with nu = 1
    eps = mat.layers[0].eps
    if any(layer.nu != 1.0 or layer.eps != eps for layer in mat.layers):
        raise ConfigError(f"{source}: layers: compare-nls needs nu = 1 and the "
                          f"first layer's eps = {eps:g} in every layer")
    E, report = solvers.solve(problem, config=solver_cfg, method=cfg.solver)
    nls_initial = _incoming({**cfg.beam_left, "adjust": False}, "left", grid, mat, source)
    result = nls_march(grid, mat.k0, eps, mat.sigma, nls_initial, dz=grid.h_z)
    axis = on_axis_index(grid)
    n = np.arange(grid.N + 1)
    z_nodes = grid.z(n)
    nlh_axis = np.abs(E[grid.index(n), axis])
    nls_axis = np.interp(z_nodes, result.z, np.abs(result.on_axis))
    if result.blew_up:
        nls_axis[z_nodes > result.z_star] = np.nan
    out_dir = resolve_output_dir(cfg)
    _atomic_write(out_dir / "compare_nls.csv",
                  _csv(zip(z_nodes, nlh_axis, nls_axis),
                       "z,nlh_on_axis_abs,nls_on_axis_abs"))
    _atomic_write(out_dir / "nls_report.json", json.dumps({
        "blew_up": result.blew_up,
        "z_star": result.z_star,
        "nlh_converged": report.converged,
        "nlh_max_amplitude": report.max_amplitude,
    }, indent=2) + "\n")
    msg = (f"paraxial reference blew up at z = {result.z_star:.4g}"
           if result.blew_up else "paraxial reference stayed bounded")
    print(f"{cfg.name}: {msg}; outputs in {out_dir}")
    return 0 if report.converged else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlhelm",
        description="Layered-Kerr-medium frequency-domain beam solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a run configuration")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=lambda args: run(args.config))

    p_preset = sub.add_parser("preset", help="emit a canned configuration")
    p_preset.add_argument("name")
    p_preset.add_argument("--scale", choices=["paper", "desk"], default=None)
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_conv = sub.add_parser("converge", help="nested-grid convergence study")
    p_conv.add_argument("config")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.set_defaults(func=lambda args: converge(args.config, args.levels))

    p_cmp = sub.add_parser("compare-nls", help="solve and march the paraxial reference")
    p_cmp.add_argument("config")
    p_cmp.set_defaults(func=lambda args: compare_nls(args.config))

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NlhError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
