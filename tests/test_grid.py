import numpy as np
import pytest

from ep_nozzle.errors import DomainError
from ep_nozzle.export import export_deformed_vtk, export_field_csv, export_field_vtk
from ep_nozzle.grid import (
    TAG_CORNER,
    TAG_GAMMA0,
    TAG_GAMMAL,
    TAG_GAMMAW,
    TAG_INTERIOR,
    build_grid,
    corner_distance,
    divergence,
    gradient,
)

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


class TestBuild:
    def test_tag_partition_and_counts(self):
        g = build_grid(dim=2, shape=(9, 17))
        assert np.sum(g.tags == TAG_CORNER) == 4
        assert np.sum(g.tags == TAG_GAMMA0) == 7
        assert np.sum(g.tags == TAG_GAMMAL) == 7
        # two walls, axial interior nodes only (ends are corners)
        assert np.sum(g.tags == TAG_GAMMAW) == 30
        boundary = g.gamma0 | g.gammaL | g.wall
        assert np.sum(boundary) == 2 * 9 + 2 * 17 - 4
        assert np.all((g.tags == TAG_INTERIOR) == ~boundary)

    def test_every_boundary_node_single_tag(self):
        g = build_grid(dim=2, shape=(9, 17))
        # tags are a function, so the partition is automatic; check masks
        corner_nodes = g.corner
        assert np.all(g.tags[corner_nodes] == TAG_CORNER)
        assert not np.any(g.tags[g.gamma0 & ~corner_nodes] == TAG_GAMMAW)

    def test_deterministic(self):
        a = build_grid(dim=2, shape=(9, 17))
        b = build_grid(dim=2, shape=(9, 17))
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.tags, b.tags)

    def test_3d_tags(self):
        g = build_grid(dim=3, cross_extents=((0, 1), (0, 2)), shape=(8, 9, 10))
        assert g.n_nodes == 8 * 9 * 10
        # corner set: boundary ring of each end cap
        ring = 2 * (8 + 9) - 4
        assert np.sum(g.tags == TAG_CORNER) == 2 * ring

    def test_validation(self):
        with pytest.raises(DomainError):
            build_grid(dim=2, shape=(4, 17))
        with pytest.raises(DomainError):
            build_grid(dim=2, cross_extents=((1.0, 1.0),), shape=(9, 17))
        with pytest.raises(DomainError):
            build_grid(dim=4, cross_extents=((0, 1), (0, 1), (0, 1)), shape=(8, 8, 8, 8))


class TestDifferenceOperators:
    def test_linear_field_exact(self):
        g = build_grid(dim=2, shape=(9, 17))
        f = 2.0 * g.coords[:, 0] - 3.0 * g.coords[:, 1]
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
            x, y = g.coords[:, 0], g.coords[:, 1]
            gr = gradient(g, fn(x, y))
            exact = np.stack(grad(x, y), axis=1)
            gerrs.append(np.max(np.abs(gr - exact)))
            num = divergence(g, gr)
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
        with pytest.raises(DomainError):
            divergence(g, np.zeros((g.n_nodes, 3)))


class TestCornerDistance:
    def test_at_corner(self):
        g = build_grid(dim=2, shape=(9, 17))
        d = corner_distance(g)
        assert np.min(d[g.corner]) == 0.0
        assert np.max(d[g.corner]) == 0.0

    def test_center_of_unit_square(self):
        g = build_grid(dim=2, shape=(9, 9))
        d = corner_distance(g)
        center = np.argmin(np.linalg.norm(g.coords - 0.5, axis=1))
        assert d[center] == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_monotone_along_midline(self):
        g = build_grid(dim=2, shape=(9, 33))
        d = g.reshape(corner_distance(g))
        mid = d[4, :]  # along the axis at the cross midline
        k = np.argmax(mid)
        assert np.all(np.diff(mid[: k + 1]) >= 0)
        assert np.all(np.diff(mid[k:]) <= 0)


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        g = build_grid(dim=2, shape=(9, 17))
        f = g.coords[:, 0] + 2.0 * g.coords[:, 1]
        path = tmp_path / "field.csv"
        export_field_csv(g, {"f": f}, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data["f"] == pytest.approx(f)
        assert data["x"] == pytest.approx(g.coords[:, 0])

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
        coords = np.column_stack([_awkward(g.n_nodes, a + 3) for a in range(g.dim)])
        fields = {"f": _awkward(g.n_nodes), "Psi": _awkward(g.n_nodes, 1)}
        path = tmp_path / "field.csv"
        export_field_csv(g, fields, path, coords=coords if deformed else None)
        pts = coords if deformed else g.coords
        header = ",".join(["x", "y", "z"][: g.dim] + list(fields)) + "\n"
        expected = header + _rows([*pts.T, *fields.values()], ",")
        assert path.read_bytes() == expected.encode()

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
        coords = np.column_stack([_awkward(g.n_nodes, a + 3) for a in range(g.dim)])
        fields = {"psi": _awkward(g.n_nodes, 2)}
        path = tmp_path / "field.vtk"
        export_deformed_vtk(g, coords, fields, path)
        order = np.arange(g.n_nodes).reshape(g.shape).ravel(order="F")
        points = [coords[order, a] for a in range(g.dim)] + [np.zeros(g.n_nodes)] * (3 - g.dim)
        geometry = f"POINTS {g.n_nodes} double\n" + _rows(points, " ")
        expected = _vtk_oracle(g, "deformed nozzle", "STRUCTURED_GRID", geometry, fields)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_deformed_vtk_refuses_wrong_field_length(self, tmp_path, extra):
        g = build_grid(dim=2, shape=(9, 17))
        f = np.zeros(g.n_nodes + extra)
        with pytest.raises(DomainError):
            export_deformed_vtk(g, g.coords, {"f": f}, tmp_path / "field.vtk")

    def test_deterministic_bytes(self, tmp_path):
        g = build_grid(dim=2, shape=(9, 17))
        f = np.sin(g.coords[:, 0] * 7.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_field_csv(g, {"f": f}, p1)
        export_field_csv(g, {"f": f}, p2)
        assert p1.read_bytes() == p2.read_bytes()
