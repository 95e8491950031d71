"""Grid, material-stack, and field-container tests."""

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

    def test_negative_eps_allowed(self):
        mat = MaterialStack(k0=1.0, sigma=1.0, layers=(Layer(0.0, 1.0, 1.0, -0.1),))
        assert mat.layers[0].eps == -0.1

    def test_partition_points(self):
        mat = MaterialStack(k0=1.0, sigma=1.0, layers=(
            Layer(0.0, 1.0, 1.5, 0.0), Layer(1.0, 3.0, 2.0, 0.1)))
        assert mat.partition_points() == pytest.approx([0.0, 1.0, 3.0])
        assert mat.Zmax == 3.0

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
