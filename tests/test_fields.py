"""Grid, material-stack, and field-container tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhelm.errors import InterfaceOffGrid, InvalidGrid
from nlhelm.fields import (
    GridMultiD,
    Layer,
    MaterialStack,
    NodeClass,
    build_grid_1d,
    build_grid_multi,
    classify_nodes,
    field_zeros,
    from_real_split,
    homogeneous_stack,
    interface_nodes,
    sample_material,
    to_real_split,
)


class TestGrid1D:
    def test_basic_arithmetic(self):
        grid = build_grid_1d(2.0, 8)
        assert grid.h == 0.25
        assert grid.delta == 0.75
        assert grid.num_nodes == 15
        assert grid.z(-3) == -0.75
        assert grid.z(0) == 0.0

    def test_endpoints_exact(self):
        grid = build_grid_1d(1.0, 16)
        assert grid.z(0) == 0.0
        assert grid.z(grid.N) == 1.0

    def test_paper_scale_resolution(self):
        # Zmax=240, N=4480 gives about 30 nodes per wavelength at k0=4
        grid = build_grid_1d(240.0, 4480)
        lam0 = 2.0 * np.pi / 4.0
        assert grid.h == pytest.approx(0.0536, abs=5e-5)
        assert lam0 / grid.h == pytest.approx(29.3, abs=0.05)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidGrid):
            build_grid_1d(1.0, 4)
        with pytest.raises(InvalidGrid):
            build_grid_1d(1.0, 7)

    def test_nonpositive_domain_rejected(self):
        with pytest.raises(InvalidGrid):
            build_grid_1d(0.0, 16)

    @pytest.mark.parametrize("Zmax", [np.inf, np.nan])
    def test_non_finite_domain_rejected(self, Zmax):
        with pytest.raises(InvalidGrid, match="Zmax must be positive and finite"):
            build_grid_1d(Zmax, 16)

    def test_z_nodes_cover_extended_range(self):
        grid = build_grid_1d(1.0, 8)
        zs = grid.z_nodes()
        assert len(zs) == grid.num_nodes
        assert zs[0] == pytest.approx(-3 * grid.h)
        assert zs[-1] == pytest.approx(1.0 + 3 * grid.h)

    def test_no_accumulation_drift(self):
        grid = build_grid_1d(7.3, 1000)
        n = np.arange(-3, 1004)
        assert np.max(np.abs(grid.z_nodes() - n * grid.h)) == 0.0

    def test_states_its_single_column(self):
        grid = build_grid_1d(2.0, 8)
        assert (grid.M, grid.h_perp, grid.geometry) == (1, 1.0, "cartesian")
        assert grid.h_z == grid.h == 0.25
        assert np.array_equal(grid.transverse_coords(), [0.0])
        assert grid.field_shape == (15,)
        # class constants, not fields: the dataclass still sees N, Zmax, h
        assert dataclasses.asdict(grid) == {"N": 8, "Zmax": 2.0, "h": 0.25}
        assert repr(grid) == "Grid1D(N=8, Zmax=2.0, h=0.25)"
        assert dataclasses.replace(grid, N=16).M == 1


class TestGridMultiD:
    def test_cartesian_cell_centers(self):
        grid = build_grid_multi(2.0, 8, 1.0, 4, "cartesian")
        x = grid.transverse_coords()
        assert x == pytest.approx([-0.75, -0.25, 0.25, 0.75])
        # half-offset walls sit exactly on +-Xmax
        assert x[0] - grid.h_perp / 2 == pytest.approx(-1.0)
        assert x[-1] + grid.h_perp / 2 == pytest.approx(1.0)

    def test_cylindrical_cell_centers(self):
        grid = build_grid_multi(2.0, 8, 1.0, 4, "cylindrical")
        rho = grid.transverse_coords()
        assert rho == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert np.all(rho > 0)
        assert rho[0] - grid.h_perp / 2 == pytest.approx(0.0)
        assert rho[-1] + grid.h_perp / 2 == pytest.approx(1.0)

    def test_longitudinal_view_is_1d_grid(self):
        grid = build_grid_multi(2.0, 8, 1.0, 4, "cartesian")
        g1 = grid.longitudinal()
        assert g1.N == 8 and g1.h == grid.h_z and g1.Zmax == 2.0

    def test_aspect_ratio_warning(self):
        with pytest.warns(UserWarning, match="differ"):
            build_grid_multi(1.0, 100, 1.0, 4, "cartesian")

    def test_comparable_steps_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_grid_multi(2.0, 16, 1.0, 8, "cartesian")

    def test_bad_geometry_rejected(self):
        with pytest.raises(InvalidGrid):
            build_grid_multi(1.0, 8, 1.0, 4, "spherical")

    @pytest.mark.parametrize("N,M,named", [(7, 4, "N must be at least 8, got 7"),
                                           (8, 0, "M must be at least 1, got 0")])
    def test_too_few_nodes_rejected(self, N, M, named):
        with pytest.raises(InvalidGrid, match=named):
            build_grid_multi(2.0, N, 1.0, M, "cartesian")

    def test_field_shape(self):
        assert build_grid_multi(2.0, 8, 1.0, 4, "cylindrical").field_shape == (15, 4)

    @pytest.mark.parametrize("Zmax,extent,name", [
        (np.inf, 1.0, "Zmax"), (2.0, np.inf, "extent"), (2.0, np.nan, "extent"),
    ])
    def test_non_finite_domain_rejected(self, Zmax, extent, name):
        with pytest.raises(InvalidGrid, match=f"{name} must be positive and finite"):
            build_grid_multi(Zmax, 8, extent, 4, "cartesian")


# each node count of each builder, as a function of that count
COUNTS = {
    "1d-N": lambda n: build_grid_1d(5.0, n),
    "multi-N": lambda n: build_grid_multi(4.0, n, 2.0, 12, "cartesian"),
    "multi-M": lambda m: build_grid_multi(4.0, 32, 2.0, m, "cartesian"),
}


class TestGridCounts:
    """A node count is an integer: a float is named, not truncated."""

    @pytest.mark.parametrize("count", [64.7, 12.5, np.nan, np.inf, True])
    @pytest.mark.parametrize("case", list(COUNTS))
    def test_non_integral_count_rejected(self, case, count):
        with pytest.raises(InvalidGrid, match=f"^{case[-1]} must be an integer, got"):
            COUNTS[case](count)

    @pytest.mark.parametrize("case", list(COUNTS))
    def test_numpy_integer_count_accepted(self, case):
        grid = COUNTS[case](np.int64(16))
        assert getattr(grid, case[-1]) == 16


class TestMaterialStack:
    def test_contiguity_enforced(self):
        with pytest.raises(InvalidGrid):
            MaterialStack(k0=1.0, sigma=1.0, layers=(
                Layer(0.0, 1.0, 1.0, 0.0), Layer(1.5, 2.0, 1.0, 0.0)))

    def test_positive_k0_sigma_nu(self):
        with pytest.raises(InvalidGrid):
            MaterialStack(k0=0.0, sigma=1.0, layers=(Layer(0.0, 1.0, 1.0, 0.0),))
        with pytest.raises(InvalidGrid):
            MaterialStack(k0=1.0, sigma=0.0, layers=(Layer(0.0, 1.0, 1.0, 0.0),))
        with pytest.raises(InvalidGrid):
            MaterialStack(k0=1.0, sigma=1.0, layers=(Layer(0.0, 1.0, -1.0, 0.0),))

    @pytest.mark.parametrize("k0,sigma,layers,named", [
        (np.nan, 1.0, [(0.0, 1.0, 1.0, 0.0)], "k0 must be positive and finite"),
        (np.inf, 1.0, [(0.0, 1.0, 1.0, 0.0)], "k0 must be positive and finite"),
        (1.0, np.nan, [(0.0, 1.0, 1.0, 0.0)], "sigma must be positive and finite"),
        (1.0, np.inf, [(0.0, 1.0, 1.0, 0.0)], "sigma must be positive and finite"),
        (1.0, 1.0, [(0.0, np.inf, 1.0, 0.0)], "layers[0].z_to must be finite"),
        (1.0, 1.0, [(0.0, 1.0, np.nan, 0.0)], "layers[0].nu must be finite"),
        (1.0, 1.0, [(0.0, 1.0, np.inf, 0.0)], "layers[0].nu must be finite"),
        (1.0, 1.0, [(0.0, 1.0, 1.0, np.nan)], "layers[0].eps must be finite"),
        (1.0, 1.0, [(0.0, 1.0, 1.0, -np.inf)], "layers[0].eps must be finite"),
        (1.0, 1.0, [(0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 1.0, np.nan)],
         "layers[1].eps must be finite"),
    ], ids=["k0-nan", "k0-inf", "sigma-nan", "sigma-inf", "z_to-inf", "nu-nan",
            "nu-inf", "eps-nan", "eps-minus-inf", "second-layer-eps-nan"])
    def test_non_finite_values_rejected(self, k0, sigma, layers, named):
        with pytest.raises(InvalidGrid, match=re.escape(named)):
            MaterialStack(k0=k0, sigma=sigma, layers=tuple(Layer(*v) for v in layers))

    def test_negative_eps_allowed(self):
        mat = MaterialStack(k0=1.0, sigma=1.0, layers=(Layer(0.0, 1.0, 1.0, -0.1),))
        assert mat.layers[0].eps == -0.1

    def test_partition_points(self):
        mat = MaterialStack(k0=1.0, sigma=1.0, layers=(
            Layer(0.0, 1.0, 1.5, 0.0), Layer(1.0, 3.0, 2.0, 0.1)))
        assert mat.partition_points() == pytest.approx([0.0, 1.0, 3.0])
        assert mat.Zmax == 3.0

    def test_empty_stack_rejected(self):
        with pytest.raises(InvalidGrid, match="at least one layer"):
            MaterialStack(k0=1.0, sigma=1.0, layers=())

    @pytest.mark.parametrize("z_to", [1.0, 0.5])
    def test_non_increasing_layer_rejected(self, z_to):
        with pytest.raises(InvalidGrid, match="strictly increasing"):
            MaterialStack(k0=1.0, sigma=1.0, layers=(
                Layer(0.0, 1.0, 1.0, 0.0), Layer(1.0, z_to, 1.0, 0.0)))

    def test_layer_list_kept_as_a_hashable_tuple(self):
        layers = [Layer(0.0, 1.0, 1.5, 0.0), Layer(1.0, 3.0, 2.0, 0.1)]
        mat = MaterialStack(k0=1.0, sigma=1.0, layers=layers)
        assert mat.layers == tuple(layers)
        assert mat == MaterialStack(k0=1.0, sigma=1.0, layers=tuple(layers))
        assert hash(mat) == hash(MaterialStack(k0=1.0, sigma=1.0, layers=tuple(layers)))

    def test_is_linear(self):
        assert homogeneous_stack(1.0, 1.0).is_linear()
        assert not homogeneous_stack(1.0, 1.0, eps=0.1).is_linear()


class TestInterfaceNodes:
    def test_single_layer(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0, nu=1.5)
        assert interface_nodes(grid, mat) == [0, 10]

    def test_two_layers_at_half(self):
        grid = build_grid_1d(2.0, 10)
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(
            Layer(0.0, 1.0, 1.5, 0.0), Layer(1.0, 2.0, 2.0, 0.0)))
        assert interface_nodes(grid, mat) == [0, 5, 10]

    def test_off_grid_interface_rejected(self):
        # z = 0.25 * Zmax with N=10 puts the split at node 2.5
        grid = build_grid_1d(2.0, 10)
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(
            Layer(0.0, 0.5, 1.5, 0.0), Layer(0.5, 2.0, 2.0, 0.0)))
        with pytest.raises(InterfaceOffGrid):
            interface_nodes(grid, mat)

    def test_on_grid_interface_accepted(self):
        # z = 0.3 * Zmax with N=10 lands exactly on node 3
        grid = build_grid_1d(2.0, 10)
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(
            Layer(0.0, 0.6, 1.5, 0.0), Layer(0.6, 2.0, 2.0, 0.0)))
        assert interface_nodes(grid, mat) == [0, 3, 10]

    def test_stack_ending_inside_grid_rejected(self):
        # the partition ends on node 5 of a grid with N = 10
        grid = build_grid_1d(2.0, 10)
        with pytest.raises(InterfaceOffGrid, match="does not span") as exc_info:
            interface_nodes(grid, homogeneous_stack(4.0, 1.0))
        assert exc_info.value.position == 1.0

    def test_error_carries_position(self):
        grid = build_grid_1d(2.0, 10)
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(
            Layer(0.0, 0.5, 1.5, 0.0), Layer(0.5, 2.0, 2.0, 0.0)))
        with pytest.raises(InterfaceOffGrid) as exc_info:
            interface_nodes(grid, mat)
        assert exc_info.value.position == pytest.approx(0.5)


class TestClassifyNodes:
    def test_single_layer_classes(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0, nu=1.5)
        classes = classify_nodes(grid, mat)
        assert len(classes) == grid.num_nodes
        assert classes[0] == NodeClass.ABC_ROW
        assert classes[-1] == NodeClass.ABC_ROW
        iface = [n for n in range(-3, 14) if classes[n + 3] == NodeClass.INTERFACE]
        assert iface == [0, 10]
        interior = [n for n in range(-3, 14) if classes[n + 3] == NodeClass.INTERIOR]
        assert interior == list(range(1, 10))
        exterior = [n for n in range(-3, 14) if classes[n + 3] == NodeClass.EXTERIOR]
        assert exterior == [-2, -1, 11, 12]

    def test_counts_total(self):
        grid = build_grid_1d(2.0, 10)
        mat = MaterialStack(k0=4.0, sigma=1.0, layers=(
            Layer(0.0, 1.0, 1.5, 0.1), Layer(1.0, 2.0, 1.2, 0.0)))
        classes = classify_nodes(grid, mat)
        assert len(classes) == 17
        iface = [n for n in range(-3, 14) if classes[n + 3] == NodeClass.INTERFACE]
        assert iface == [0, 5, 10]

    def test_independent_of_field_and_idempotent(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0, nu=1.5)
        assert classify_nodes(grid, mat) == classify_nodes(grid, mat)


class TestSampleMaterial:
    @pytest.mark.parametrize("n", [-4, 14])
    def test_node_outside_stored_range_rejected(self, n):
        grid = build_grid_1d(2.0, 10)
        with pytest.raises(ValueError, match=f"node {n} outside stored range"):
            sample_material(homogeneous_stack(4.0, 2.0), grid, n, "right")

    def test_slab_one_sided_limits(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0, nu=1.5, eps=0.1)
        assert sample_material(mat, grid, 0, "left") == (1.0, 0.0)
        assert sample_material(mat, grid, 0, "right") == (1.5, 0.1)
        assert sample_material(mat, grid, 5, "left") == (1.5, 0.1)
        assert sample_material(mat, grid, 5, "right") == (1.5, 0.1)
        assert sample_material(mat, grid, 10, "left") == (1.5, 0.1)
        assert sample_material(mat, grid, 10, "right") == (1.0, 0.0)

    def test_exterior_is_vacuum(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0, nu=1.5, eps=0.1)
        for n in (-3, -2, -1, 11, 12, 13):
            for side in ("left", "right"):
                assert sample_material(mat, grid, n, side) == (1.0, 0.0)

    def test_invalid_side_rejected(self):
        grid = build_grid_1d(2.0, 10)
        mat = homogeneous_stack(4.0, 2.0)
        with pytest.raises(ValueError):
            sample_material(mat, grid, 0, "above")

    def test_matches_layer_walk_reference(self):
        # the per-layer walk sample_material used before the cell lookup,
        # on random stacks with repeated materials (matched partitions)
        def layer_walk(mat, grid, n, side):
            nodes = interface_nodes(grid, mat)
            if n < nodes[0] or (n == nodes[0] and side == "left"):
                return (1.0, 0.0)
            if n > nodes[-1] or (n == nodes[-1] and side == "right"):
                return (1.0, 0.0)
            for i, lay in enumerate(mat.layers):
                lo, hi = nodes[i], nodes[i + 1]
                if (lo < n < hi) or (n == lo and side == "right") \
                        or (n == hi and side == "left"):
                    return (lay.nu, lay.eps)

        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.integers(8, 40))
            k = int(rng.integers(1, 6))
            edges = [0, *sorted(rng.choice(np.arange(1, N), k - 1, replace=False)), N]
            mat = MaterialStack(4.0, 1.0, tuple(
                Layer(edges[i] * 0.25, edges[i + 1] * 0.25, float(rng.choice([1.0, 1.5])),
                      float(rng.choice([0.0, 0.1]))) for i in range(k)))
            grid = build_grid_1d(N * 0.25, N)
            for n in range(-3, N + 4):
                for side in ("left", "right"):
                    want = layer_walk(mat, grid, n, side)
                    assert sample_material(mat, grid, n, side) == want


class TestRealSplit:
    def test_round_trip_lossless_1d(self):
        rng = np.random.default_rng(3)
        E = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        v = to_real_split(E)
        assert v.shape == (34,)
        assert v[0] == E[0].real and v[1] == E[0].imag
        back = from_real_split(v, E.shape)
        assert np.array_equal(back, E)

    def test_round_trip_lossless_2d(self):
        rng = np.random.default_rng(4)
        E = rng.standard_normal((15, 6)) + 1j * rng.standard_normal((15, 6))
        v = to_real_split(E)
        assert v.shape == (2 * 15 * 6,)
        # n-major, m-minor: node (n_idx=0, m=1) occupies slots 2,3
        assert v[2] == E[0, 1].real and v[3] == E[0, 1].imag
        back = from_real_split(v, E.shape)
        assert np.array_equal(back, E)

    def test_round_trip_bit_exact_at_special_values(self):
        v = np.array([1.0, np.inf, -0.0, 2.0, np.nan, -np.inf, 0.0, -0.0])
        E = from_real_split(v, (4,))
        assert E.tobytes() == v.tobytes()
        assert to_real_split(E).tobytes() == v.tobytes()
        # both are copies, not views of their input
        assert not np.shares_memory(E, v)
        assert not np.shares_memory(to_real_split(E), E)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_property_round_trip(self, count):
        rng = np.random.default_rng(count)
        E = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 8) \
            + 1j * rng.standard_normal(count)
        assert np.array_equal(from_real_split(to_real_split(E), E.shape), E)


def test_field_zeros_shapes():
    g1 = build_grid_1d(1.0, 8)
    assert field_zeros(g1).shape == (15,)
    g2 = build_grid_multi(1.0, 8, 1.0, 4, "cartesian")
    z = field_zeros(g2)
    assert z.shape == (15, 4)
    assert z.dtype == np.complex128
