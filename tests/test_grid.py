import dataclasses

import numpy as np
import pytest

from ep_nozzle.errors import DomainError
from ep_nozzle.export import export_deformed_vtk, export_field_csv, export_field_vtk
from ep_nozzle.grid import build_grid, corner_distance, gradient, normal_derivative

from gridpoints import node_coords

AWKWARD = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan, 1.7976931348623157e308, 0.1, -1 / 3])

# the 2D grid has more nodes than one block of rows and a partial last block;
# a subnormal cross_min reaches the ORIGIN line
GRIDS = {
    "2d": dict(dim=2, cross_extents=((5e-324, 0.1),), L=1 / 3, shape=(65, 129)),
    "3d": dict(dim=3, cross_extents=((5e-324, 0.1), (-1 / 3, 1.0)), L=0.7, shape=(9, 8, 17)),
}


def _awkward(n, shift=0):
    """n values cycling through AWKWARD, starting at index shift."""
    return np.roll(AWKWARD, -shift)[np.arange(n) % AWKWARD.size]


def _rows(columns, sep):
    """Per-value oracle of the 17-digit table format."""
    return "".join(sep.join(format(float(v), ".17g") for v in row) + "\n"
                   for row in zip(*columns))


def _vtk_oracle(g, title, dataset, geometry, fields):
    dims = list(g.shape) + [1] * (3 - g.dim)
    order = np.arange(g.n_nodes).reshape(g.shape).ravel(order="F")
    text = (f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET {dataset}\n"
            f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n{geometry}POINT_DATA {g.n_nodes}\n")
    for name, values in fields.items():
        text += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n" + _rows([values[order]], " ")
    return text


def _planes(g):
    """(lower, upper) plane of each axis, axial last, as a (2, dim) array."""
    return np.array([[e[0] for e in g.cross_extents] + [0.0],
                     [e[1] for e in g.cross_extents] + [g.L]])


def _two_grids():
    return (build_grid(dim=2, shape=(9, 17)),
            build_grid(dim=3, cross_extents=((0, 1), (0, 2)), shape=(8, 9, 10)))


class TestBuild:
    def test_interior_is_the_inner_box(self):
        # oracle: a node is interior when every coordinate lies strictly
        # inside its extent
        for g in _two_grids():
            x, (lo, hi) = node_coords(g), _planes(g)
            inside = np.all((x > lo) & (x < hi), axis=1)
            assert np.array_equal(g.interior(x).reshape(-1, g.dim), x[inside])
            assert g.interior(x).shape == tuple(n - 2 for n in g.shape) + (g.dim,)

    def test_faces_cover_the_non_interior_nodes(self):
        # each face lies on its plane, and writing True through the face
        # views marks exactly the nodes off the interior box
        for g in _two_grids():
            x, planes = node_coords(g), _planes(g)
            covered = np.zeros(g.n_nodes, dtype=bool)
            for axis in range(g.dim):
                for side, plane in zip((0, -1), planes[:, axis]):
                    face = g.face(x, axis, side)
                    assert face.shape == g.shape[:axis] + g.shape[axis + 1:] + (g.dim,)
                    assert np.all(face[..., axis] == plane)
                    g.face(covered, axis, side)[...] = True
            assert np.array_equal(covered, ~np.all((x > planes[0]) & (x < planes[1]), axis=1))

    def test_writing_through_a_face_changes_the_field(self):
        g = _two_grids()[1]
        field = np.zeros((g.n_nodes, 2))
        g.face(field, 1, -1)[..., 1] += 1.0
        assert np.array_equal(field.reshape(g.shape + (2,))[:, -1, :, 1], np.ones((8, 10)))
        assert np.sum(field) == 8 * 10

    def test_3d_corner_ring_is_the_zero_set_of_corner_distance(self):
        g = _two_grids()[1]
        assert g.n_nodes == 8 * 9 * 10
        # corner set: boundary ring of each end cap
        ring = 2 * (8 + 9) - 4
        assert np.sum(corner_distance(g) == 0.0) == 2 * ring

    def test_deterministic(self):
        a = build_grid(dim=2, shape=(9, 17))
        b = build_grid(dim=2, shape=(9, 17))
        assert all(np.array_equal(x, y) for x, y in zip(a.axes, b.axes))
        assert a.spacing == b.spacing

    def test_validation(self):
        with pytest.raises(DomainError):
            build_grid(dim=2, shape=(4, 17))
        with pytest.raises(DomainError):
            build_grid(dim=2, cross_extents=((1.0, 1.0),), shape=(9, 17))
        with pytest.raises(DomainError):
            build_grid(dim=4, cross_extents=((0, 1), (0, 1), (0, 1)), shape=(8, 8, 8, 8))

    @pytest.mark.parametrize("extents, L, axis", [
        (((0.0, 1e150),), 1.0, 0),                 # h^3 overflows
        (((0.0, 1e200),), 1.0, 0),                 # h^2 overflows
        (((0.0, 1.0),), 1e-300, 1),                # h^2 underflows to 0
        (((0.0, 1e-110),), 1.0, 0),                # h^3 underflows to 0
        (((0.0, 1.0), (-1e150, 1e150)), 1.0, 1),   # the second cross axis
    ])
    def test_refuses_a_step_whose_square_or_cube_is_not_a_positive_finite_float(
            self, extents, L, axis):
        with pytest.raises(DomainError, match=f"of axis {axis} is out of range"):
            build_grid(dim=len(extents) + 1, cross_extents=extents, L=L,
                       shape=(9,) * len(extents) + (17,))


class TestDifferenceOperators:
    def test_linear_field_exact(self):
        g = build_grid(dim=2, shape=(9, 17))
        x = node_coords(g)
        f = 2.0 * x[:, 0] - 3.0 * x[:, 1]
        grad = gradient(g, f)
        assert np.max(np.abs(grad[:, 0] - 2.0)) < 1e-13
        assert np.max(np.abs(grad[:, 1] + 3.0)) < 1e-13

    def test_constant_field_zero_gradient(self):
        g = build_grid(dim=2, shape=(9, 17))
        assert np.max(np.abs(gradient(g, np.full(g.n_nodes, 4.2)))) < 1e-12

    @pytest.mark.parametrize(
        "fn,grad,lap",
        [
            (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
             lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                           np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)),
             lambda x, y: -2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)),
            (lambda x, y: np.exp(x) * np.cos(y),
             lambda x, y: (np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y)),
             lambda x, y: np.zeros_like(x)),
            (lambda x, y: x ** 4 + y ** 4,
             lambda x, y: (4 * x ** 3, 4 * y ** 3),
             lambda x, y: 12 * x ** 2 + 12 * y ** 2),
        ],
    )
    def test_second_order_convergence(self, fn, grad, lap):
        gerrs, lerrs = [], []
        for shape in [(17, 17), (33, 33), (65, 65)]:
            g = build_grid(dim=2, shape=shape)
            x, y = node_coords(g).T
            gr = gradient(g, fn(x, y))
            exact = np.stack(grad(x, y), axis=1)
            gerrs.append(np.max(np.abs(gr - exact)))
            num = sum(gradient(g, gr[:, a])[:, a] for a in range(g.dim))
            # the composition is fully centered two nodes from the boundary
            e = np.abs(num - lap(x, y)).reshape(g.shape)
            lerrs.append(e[2:-2, 2:-2].max())
        for errs in (gerrs, lerrs):
            if errs[-1] < 1e-12:  # exactly representable fields
                continue
            orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert all(o > 1.6 for o in orders)

    def test_shape_mismatch(self):
        g = build_grid(dim=2, shape=(9, 17))
        with pytest.raises(DomainError):
            gradient(g, np.zeros(g.n_nodes + 1))

    def test_gradient_equals_numpy_over_all_axes(self):
        # one axis at a time gives the bits of one np.gradient call
        for g in _two_grids() + (build_grid(dim=2, shape=(160, 40)),):
            f = np.sin(3.0 * node_coords(g)).sum(axis=1)
            parts = np.gradient(f.reshape(g.shape), *g.spacing, edge_order=2)
            assert np.array_equal(gradient(g, f), np.stack([p.ravel() for p in parts], axis=1))

    def test_gradient_on_exactly_uniform_axes_is_the_coordinate_gradient(self):
        # where every linspace step is the same float, the spacing is that
        # step and np.gradient of the coordinates takes the same formula
        for g in (build_grid(dim=2, shape=(17, 33)),
                  build_grid(dim=3, cross_extents=((0, 1), (0, 2)), shape=(9, 9, 17))):
            assert all((np.diff(x) == h).all() for x, h in zip(g.axes, g.spacing))
            f = np.sin(3.0 * node_coords(g)).sum(axis=1)
            parts = np.gradient(f.reshape(g.shape), *g.axes, edge_order=2)
            assert np.array_equal(gradient(g, f), np.stack([p.ravel() for p in parts], axis=1))

    @pytest.mark.parametrize("cross", [
        np.linspace(0.0, 1.0, 9),       # steps exactly equal
        np.linspace(0.0, 1.0, 160),     # steps uneven in the last bits
    ])
    def test_normal_derivative_is_the_gradient_on_the_face(self, cross):
        g = build_grid(dim=3, cross_extents=((0, 1), (0, 2)), shape=(cross.size, 9, 10))
        assert np.array_equal(g.axes[0], cross)
        x = node_coords(g)
        f = np.exp(x @ np.array([0.7, -0.3, 0.2])) + np.cos(5.0 * x[:, 0])
        grad = gradient(g, f)
        for axis in range(g.dim):
            for side in (0, -1):
                assert np.array_equal(normal_derivative(g, f, axis, side),
                                      g.face(grad, axis, side)[..., axis])


class TestCornerDistance:
    def test_at_corner(self):
        g = build_grid(dim=2, shape=(9, 17))
        x = node_coords(g)
        corner = np.isin(x[:, 0], [0.0, 1.0]) & np.isin(x[:, 1], [0.0, g.L])
        d = corner_distance(g)
        assert np.sum(corner) == 4
        assert np.min(d[corner]) == 0.0
        assert np.max(d[corner]) == 0.0

    @pytest.mark.parametrize("kind", GRIDS)
    def test_matches_per_node_oracle(self, kind):
        # the per-node formula on the meshgrid coordinates, bit for bit
        g = build_grid(**GRIDS[kind])
        x = node_coords(g)
        axial = np.minimum(np.abs(x[:, -1]), np.abs(g.L - x[:, -1]))
        lateral = np.inf
        for a, (lo, hi) in enumerate(g.cross_extents):
            lateral = np.minimum(lateral, np.minimum(np.abs(x[:, a] - lo), np.abs(hi - x[:, a])))
        expected = np.sqrt(lateral ** 2 + axial ** 2)
        assert np.array_equal(corner_distance(g).view(np.uint64), expected.view(np.uint64))

    def test_center_of_unit_square(self):
        g = build_grid(dim=2, shape=(9, 9))
        d = corner_distance(g)
        center = np.argmin(np.linalg.norm(node_coords(g) - 0.5, axis=1))
        assert d[center] == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_monotone_along_midline(self):
        g = build_grid(dim=2, shape=(9, 33))
        d = corner_distance(g).reshape(g.shape)
        mid = d[4, :]  # along the axis at the cross midline
        k = np.argmax(mid)
        assert np.all(np.diff(mid[: k + 1]) >= 0)
        assert np.all(np.diff(mid[k:]) <= 0)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        g = build_grid(dim=2, shape=(9, 17))
        x = node_coords(g)
        f = x[:, 0] + 2.0 * x[:, 1]
        path = tmp_path / "field.csv"
        export_field_csv(g, {"f": f}, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data["f"] == pytest.approx(f)
        assert data["x"] == pytest.approx(x[:, 0])

    def test_vtk_header_and_payload(self, tmp_path):
        g = build_grid(dim=2, shape=(9, 17))
        f = np.arange(g.n_nodes, dtype=float)
        path = tmp_path / "field.vtk"
        export_field_vtk(g, {"f": f}, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET STRUCTURED_POINTS" in lines
        assert f"DIMENSIONS {g.shape[0]} {g.shape[1]} 1" in lines
        start = lines.index("LOOKUP_TABLE default") + 1
        vals = np.array([float(v) for v in lines[start : start + g.n_nodes]])
        # first axis varies fastest in the VTK ordering
        assert vals == pytest.approx(f.reshape(g.shape).ravel(order="F"))

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize("kind", GRIDS)
    def test_csv_bytes_match_oracle(self, tmp_path, kind, deformed):
        g = build_grid(**GRIDS[kind])
        # deformed: awkward cross coordinates; the axial column is the grid's
        cross = np.column_stack([_awkward(g.n_nodes, a + 3) for a in range(g.dim - 1)])
        fields = {"f": _awkward(g.n_nodes), "Psi": _awkward(g.n_nodes, 1)}
        path = tmp_path / "field.csv"
        export_field_csv(g, fields, path, cross=cross if deformed else None)
        x = node_coords(g)
        pts = [*cross.T, x[:, -1]] if deformed else list(x.T)
        header = ",".join(["x", "y", "z"][: g.dim] + list(fields)) + "\n"
        expected = header + _rows([*pts, *fields.values()], ",")
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("kind", GRIDS)
    def test_csv_bytes_match_oracle_on_awkward_axes(self, tmp_path, kind):
        # every axis cycles through AWKWARD, so each coordinate column holds
        # the subnormal, -1/3, -0, inf and nan at several positions
        g = build_grid(**GRIDS[kind])
        axes = tuple(_awkward(n, a) for a, n in enumerate(g.shape))
        g = dataclasses.replace(g, axes=axes)
        fields = {"psi": _awkward(g.n_nodes, 6)}
        path = tmp_path / "field.csv"
        export_field_csv(g, fields, path)
        pts = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
        header = ",".join(["x", "y", "z"][: g.dim] + list(fields)) + "\n"
        expected = header + _rows([*pts, *fields.values()], ",")
        assert path.read_bytes() == expected.encode()
        assert ",-0.33333333333333331," in expected and "\n4.9406564584124654e-324," in expected

    @pytest.mark.parametrize("kind", GRIDS)
    def test_structured_points_bytes_match_oracle(self, tmp_path, kind):
        g = build_grid(**GRIDS[kind])
        fields = {"f": _awkward(g.n_nodes), "Psi": _awkward(g.n_nodes, 5)}
        path = tmp_path / "field.vtk"
        export_field_vtk(g, fields, path)
        pad = 3 - g.dim
        origin = [ax[0] for ax in g.axes] + [0.0] * pad
        spacing = list(g.spacing) + [1.0] * pad
        geometry = "ORIGIN " + _rows([[v] for v in origin], " ")
        geometry += "SPACING " + _rows([[v] for v in spacing], " ")
        expected = _vtk_oracle(g, "nozzle fields", "STRUCTURED_POINTS", geometry, fields)
        assert path.read_bytes() == expected.encode()
        assert "\nORIGIN 4.9406564584124654e-324 " in expected

    @pytest.mark.parametrize("kind", GRIDS)
    def test_structured_grid_bytes_match_oracle(self, tmp_path, kind):
        g = build_grid(**GRIDS[kind])
        # awkward cross coordinates; the axial column is the grid's
        cross = np.column_stack([_awkward(g.n_nodes, a + 3) for a in range(g.dim - 1)])
        fields = {"psi": _awkward(g.n_nodes, 2)}
        path = tmp_path / "field.vtk"
        export_deformed_vtk(g, cross, fields, path)
        order = np.arange(g.n_nodes).reshape(g.shape).ravel(order="F")
        points = [cross[order, a] for a in range(g.dim - 1)] + [node_coords(g)[order, -1]]
        points += [np.zeros(g.n_nodes)] * (3 - g.dim)
        geometry = f"POINTS {g.n_nodes} double\n" + _rows(points, " ")
        expected = _vtk_oracle(g, "deformed nozzle", "STRUCTURED_GRID", geometry, fields)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_deformed_vtk_refuses_wrong_field_length(self, tmp_path, extra):
        g = build_grid(dim=2, shape=(9, 17))
        f = np.zeros(g.n_nodes + extra)
        with pytest.raises(DomainError):
            export_deformed_vtk(g, node_coords(g)[:, :-1], {"f": f}, tmp_path / "field.vtk")

    @pytest.mark.parametrize("kind", GRIDS)
    def test_deformed_writers_refuse_an_axial_column(self, tmp_path, kind):
        # the writers take the cross coordinates only: full (N, dim)
        # coordinates, whose axial column they would not write, are refused
        g = build_grid(**GRIDS[kind])
        f = np.zeros(g.n_nodes)
        for write, name in [(export_deformed_vtk, "field.vtk"),
                            (lambda g, c, fields, p: export_field_csv(g, fields, p, cross=c),
                             "field.csv")]:
            with pytest.raises(DomainError, match="cross coordinates"):
                write(g, node_coords(g), {"f": f}, tmp_path / name)
            assert not (tmp_path / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        g = build_grid(dim=2, shape=(9, 17))
        f = np.sin(node_coords(g)[:, 0] * 7.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_field_csv(g, {"f": f}, p1)
        export_field_csv(g, {"f": f}, p2)
        assert p1.read_bytes() == p2.read_bytes()
