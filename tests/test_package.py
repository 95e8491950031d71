"""The package's public surface: the names `import nlhelm` exports, where
each is defined, that each module's `__all__` declares its own names, and
that the project's version is the package's."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import nlhelm

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PUBLIC_NAMES = [
    "Abc1DClosure", "AdjustmentUndefined", "BeamSpec", "ConfigError",
    "ConvergenceTable", "DegenerateRoot", "FluxProfile", "Grid1D", "GridMultiD",
    "HelmholtzProblem", "HistoryEntry", "IllConditionedEigenbasis", "Incoming1D",
    "InterfaceOffGrid", "InvalidGrid", "Layer", "MaterialStack", "NewtonConfig",
    "NlhError", "NlsMarchResult", "NodeClass", "NonNestedGrids",
    "OracleRequiresLinear", "Problem1D", "SingularClosure", "SingularMatrix",
    "SolveReport", "SpectrumPeak", "StencilCoeffs", "StencilOutOfRange",
    "TransverseClosure", "TransverseEigensystem", "TransverseSuite",
    "UnresolvedWave", "UnsupportedProfile", "UnsupportedStencil", "UnsupportedTilt",
    "abc_ghost_row", "adjust_for_nls", "apply_stencil", "assemble_1d",
    "assemble_jacobian", "assemble_residual", "born_solve", "build_grid_1d",
    "build_grid_multi", "build_problem_1d", "build_transverse_operator",
    "build_transverse_suite", "central", "characteristic_root", "classify_nodes",
    "critical_power_ratio", "default_closures", "eigensolve_transverse",
    "extension_matrix", "extract_reflection_transmission", "field_zeros",
    "freezing_solve", "from_real_split", "grid_convergence_study",
    "hankel_ratio_alpha", "homogeneous_stack", "interface_nodes",
    "interpolate_field", "kerr_jacobian_block", "make_incoming", "newton_solve",
    "nls_march", "on_axis_index", "one_sided_first_derivative_4node",
    "oscillation_spectrum", "poynting_flux", "radiation_closure",
    "residual_exterior", "residual_interface", "residual_interior_cartesian",
    "residual_interior_cylindrical", "root_from_ksq", "sample_material",
    "soliton_profile", "solve", "solve_1d", "solve_nd", "sommerfeld_alpha",
    "sparse_lu_solve", "symmetric_closure", "to_real_split",
    "transfer_matrix_linear",
]


def test_exported_names_are_pinned():
    assert sorted(nlhelm.__all__) == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for name in nlhelm.__all__:
        obj = getattr(nlhelm, name)
        module = sys.modules[obj.__module__]
        assert getattr(module, name) is obj, name
        assert name in module.__all__, name


def test_no_name_is_declared_by_two_modules():
    owner = {}
    for info in pkgutil.iter_modules(nlhelm.__path__):
        module = importlib.import_module(f"nlhelm.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name not in owner, f"{name} in {owner.get(name)} and {info.name}"
            owner[name] = info.name


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"] == {
        "version": {"attr": "nlhelm.__version__"}}
