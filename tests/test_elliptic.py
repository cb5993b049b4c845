import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from ep_nozzle import driver
from ep_nozzle.elliptic import (
    DiscreteOperator,
    LinearData,
    apply_operator,
    assemble_rhs,
    build_quadrature,
    check_wall_compatibility,
    coercivity_check,
    cross_term_sum,
    make_coeffs,
    quadratic_form,
    solve,
)
from ep_nozzle import elliptic
from ep_nozzle.checks import manufactured, manufactured_rhs, mms_solve
from ep_nozzle.errors import NotSubsonicError, SingularAssemblyError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

from gridpoints import node_coords

LAW = GasLaw(gamma=2.0, k0=1.0)


def _background(n_axial_intervals, params=OneDParams(0.5, 1.2, 0.1, 1.0, 1.0)):
    n = aligned_steps(1024, n_axial_intervals)
    return integrate_ivp(LAW, params, n)


CONST_PARAMS = OneDParams(0.5, 1.0, 0.0, 1.0, 1.0)


def _dirichlet_mask(g):
    """Oracle of the identity rows of [v; W]: v where x_n = 0, W where x_n is
    0 or L."""
    xn = node_coords(g)[:, -1]
    return np.concatenate([xn == 0.0, (xn == 0.0) | (xn == g.L)])


def _zero_dirichlet(g, xi, eta):
    """Zero a test pair on the identity rows of the oracle."""
    mask = _dirichlet_mask(g)
    xi[mask[:g.n_nodes]] = 0.0
    eta[mask[g.n_nodes:]] = 0.0


@pytest.fixture(scope="module")
def setup_small():
    g = build_grid(dim=2, shape=(17, 33))
    bg = _background(32)
    coeffs = make_coeffs(LAW, bg, g)
    op = DiscreteOperator(coeffs, g)
    return g, bg, coeffs, op


class TestQuadrature:
    def test_weights_sum_to_volume(self):
        g = build_grid(dim=2, shape=(9, 17))
        q = build_quadrature(g)
        assert np.sum(q.w) == pytest.approx(1.0, rel=1e-13)
        assert np.sum(q.exit_w) == pytest.approx(1.0, rel=1e-13)

    def test_gradient_exact_on_linear(self):
        g = build_grid(dim=2, shape=(9, 17))
        q = build_quadrature(g)
        x, y = node_coords(g).T
        f = 3.0 * x - 2.0 * y
        assert np.max(np.abs(q.G[0] @ f - 3.0)) < 1e-13
        assert np.max(np.abs(q.G[1] @ f + 2.0)) < 1e-13

    def test_3d_weights(self):
        g = build_grid(dim=3, cross_extents=((0, 1), (0, 2)), shape=(8, 9, 10))
        q = build_quadrature(g)
        assert np.sum(q.w) == pytest.approx(2.0, rel=1e-13)


class TestCoeffs:
    def test_constant_background_values(self):
        g = build_grid(dim=2, shape=(9, 17))
        bg = _background(16, CONST_PARAMS)
        c = make_coeffs(LAW, bg, g)
        assert c.aii[:, 0] == pytest.approx(np.ones(g.shape[-1]), rel=1e-12)
        assert c.aii[:, 1] == pytest.approx(np.full(g.shape[-1], 0.875), rel=1e-12)
        assert c.lam == pytest.approx(0.875, rel=1e-12)
        assert np.all(c.dzA + c.dqB == 0.0)
        assert c.delta3 > 0

    def test_not_subsonic_background_rejected(self):
        g = build_grid(dim=2, shape=(9, 17))
        bg = _background(16, CONST_PARAMS)
        # forge a supersonic sample by scaling the speed; the closure density
        # at the tripled speed stays above vacuum
        import dataclasses

        fake = dataclasses.replace(bg, u=bg.u * 3.0)
        with pytest.raises(NotSubsonicError):
            make_coeffs(LAW, fake, g)


def _lift_grid(dim):
    if dim == 2:
        return build_grid(dim=2, shape=(33, 17))
    return build_grid(dim=3, cross_extents=((0.0, 1.0),) * 2, shape=(33, 33, 17))


def _end_plane_mode(g, sine_axis=None):
    """Product over the cross axes of cos(pi x_a), with sin on sine_axis."""
    mode = np.ones(g.cross_shape())
    for a in range(g.dim - 1):
        shape = [1] * (g.dim - 1)
        shape[a] = -1
        fn = np.sin if a == sine_axis else np.cos
        mode = mode * fn(np.pi * g.axes[a]).reshape(shape)
    return mode


class TestLift:
    """Wall-compatibility check on the end-plane Dirichlet data."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_compatible_mode_no_warning(self, dim, recwarn):
        g = _lift_grid(dim)
        mode = 0.01 * _end_plane_mode(g)
        check_wall_compatibility(mode, np.zeros(g.cross_shape()), g)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("dim, sine_axis", [(2, 0), (3, 0), (3, 1)])
    def test_incompatible_mode_warns(self, dim, sine_axis):
        g = _lift_grid(dim)
        bad = 0.5 * _end_plane_mode(g, sine_axis)
        with pytest.warns(UserWarning, match="compatibility"):
            check_wall_compatibility(bad, np.zeros(g.cross_shape()), g)


class TestSystemStructure:
    def test_trivial_data_zero_solution(self, setup_small):
        g, bg, coeffs, op = setup_small
        nc = g.shape[0]
        v, W, residual = solve(op, assemble_rhs(op, LinearData(W_en=np.zeros(nc), W_ex=np.zeros(nc))))
        assert residual == 0.0
        assert np.all(v == 0.0)
        assert np.all(W == 0.0)

    def test_dirichlet_rows_identity(self, setup_small):
        g, bg, coeffs, op = setup_small
        K = op.K.tocsr()
        for row in np.flatnonzero(_dirichlet_mask(g))[::23]:
            sl = slice(K.indptr[row], K.indptr[row + 1])
            cols = K.indices[sl]
            vals = K.data[sl]
            nz = vals != 0.0
            assert np.array_equal(cols[nz], [row])
            assert vals[nz] == pytest.approx([1.0])

    @pytest.mark.parametrize("grid", ["2d", "3d"])
    def test_dirichlet_values_exact(self, grid):
        g, op = _operator(grid)
        W_en = 0.02 * _end_plane_mode(g)
        W_ex = -0.01 * _end_plane_mode(g)
        v, W, _ = solve(op, assemble_rhs(op, LinearData(W_en=W_en, W_ex=W_ex)))
        Wm = W.reshape(g.shape)
        assert np.array_equal(Wm[..., 0], W_en)
        assert np.array_equal(Wm[..., -1], W_ex)
        assert np.all(v.reshape(g.shape)[..., 0] == 0.0)

    def test_cross_terms_cancel_exactly(self, setup_small):
        g, bg, coeffs, op = setup_small
        rng = np.random.default_rng(0)
        for _ in range(100):
            xi = rng.standard_normal(g.n_nodes)
            eta = rng.standard_normal(g.n_nodes)
            _zero_dirichlet(g, xi, eta)
            total, scale = cross_term_sum(op, xi, eta)
            assert abs(total) <= 1e-12 * max(scale, 1.0)
            _, _, c1, c2 = quadratic_form(op, xi, eta)
            assert abs(c1 + c2) <= 1e-12 * max(abs(c1) + abs(c2), 1.0)

    def test_coercivity_bound(self, setup_small):
        g, bg, coeffs, op = setup_small
        ratio = coercivity_check(op, trials=100, seed=3)
        assert ratio >= 0.9 * min(coeffs.lam, 1.0)

    def test_pure_eta_ratio_at_least_one(self, setup_small):
        g, bg, coeffs, op = setup_small
        rng = np.random.default_rng(1)
        for _ in range(20):
            eta = rng.standard_normal(g.n_nodes)
            _zero_dirichlet(g, np.zeros(g.n_nodes), eta)
            Q, D, _, _ = quadratic_form(op, np.zeros(g.n_nodes), eta)
            assert Q / D >= 1.0

    def test_zero_test_pair_rejected(self, setup_small):
        # the seminorm denominator vanishes on constants, so a zero or
        # constant test pair carries no ratio; coercivity_check refuses D <= 0
        g, bg, coeffs, op = setup_small
        ones = np.ones(g.n_nodes)
        assert np.all(op.blocks["Dsemi"] @ ones == 0.0)
        assert quadratic_form(op, ones, ones)[1] == 0.0
        zero = np.zeros(g.n_nodes)
        assert quadratic_form(op, zero, zero) == (0.0, 0.0, 0.0, 0.0)

    def test_smallest_eigenvalue_positive(self, setup_small):
        # inverse power iteration on the symmetrized interior block
        g, bg, coeffs, op = setup_small
        free = ~_dirichlet_mask(g)
        K = sp.bmat(
            [[op.blocks["Kvv"], op.blocks["KvW"]], [op.blocks["KWv"], op.blocks["KWW"]]],
            format="csr",
        )[free][:, free]
        Ksym = 0.5 * (K + K.T)
        lu = splu(Ksym.tocsc())
        rng = np.random.default_rng(5)
        x = rng.standard_normal(Ksym.shape[0])
        for _ in range(30):
            x = lu.solve(x)
            x /= np.linalg.norm(x)
        lam_min = float(x @ (Ksym @ x))
        assert lam_min > 0.0


# ---------------------------------------------------------------------------
# method of manufactured solutions on the constant background


class TestManufactured:
    def test_convergence_order(self):
        errs = []
        for shape in [(17, 33), (33, 65)]:
            _, _, _, v, W, v_exact, W_exact, residual = mms_solve(shape)
            errs.append(max(np.max(np.abs(v - v_exact)), np.max(np.abs(W - W_exact))))
            assert residual < 1e-11
        order = np.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3

    def test_assembled_residual_of_interpolant(self):
        # applying the operator to the nodal interpolant reproduces the rhs at
        # second order on interior rows
        res = []
        for shape in [(17, 33), (33, 65)]:
            g, op, *_ = mms_solve(shape)
            _, rhs = manufactured_rhs(op)
            v_exact, W_exact = manufactured(*node_coords(g).T)
            U = np.concatenate([v_exact, W_exact])
            r = op.K @ U - rhs
            cellvol = np.prod(g.spacing)
            inner = (slice(1, -1),) * g.dim
            r_v = np.abs(r[: g.n_nodes].reshape(g.shape)[inner]) / cellvol
            r_W = np.abs(r[g.n_nodes :].reshape(g.shape)[inner]) / cellvol
            res.append(max(r_v.max(), r_W.max()))
        order = np.log2(res[0] / res[1])
        assert order > 1.6

    def test_wall_conormal_residual_refines(self):
        resid = []
        for shape in [(17, 33), (33, 65)]:
            g, op, data, v, W, *_ = mms_solve(shape)
            from ep_nozzle.grid import gradient

            # the walls x = 0 and x = 1, where a11 = 1 and the normal is axis 0
            walls = (gradient(g, v) - data.wall_flux_v).reshape(g.shape + (2,))[[0, -1], :, 0]
            resid.append(np.max(np.abs(walls)))
        assert resid[1] < resid[0] / 2.5


def test_3d_zero_data_and_cancellation():
    g = build_grid(dim=3, cross_extents=((0, 1), (0, 1)), shape=(8, 8, 17))
    bg = _background(16)
    coeffs = make_coeffs(LAW, bg, g)
    op = DiscreteOperator(coeffs, g)
    nc = g.cross_shape()
    v, W, _ = solve(op, assemble_rhs(op, LinearData(W_en=np.zeros(nc), W_ex=np.zeros(nc))))
    assert np.all(v == 0.0) and np.all(W == 0.0)
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(g.n_nodes)
    eta = rng.standard_normal(g.n_nodes)
    _zero_dirichlet(g, xi, eta)
    total, scale = cross_term_sum(op, xi, eta)
    assert abs(total) <= 1e-12 * max(scale, 1.0)
    ratio = coercivity_check(op, trials=20, seed=7)
    assert ratio >= 0.9 * min(coeffs.lam, 1.0)


# ---------------------------------------------------------------------------
# cross-check against the boundary-lift formulation of the same system


def _lift_path_solve(op, rhs):
    """Oracle: move a linear-in-axial lift of the end data, the W entries
    of rhs on the end planes, to the right-hand side, solve with zero
    Dirichlet rows, and add the lift back."""
    g = op.grid
    t = g.axes[-1] / g.L
    W = rhs[g.n_nodes:].reshape(g.shape)
    Wbd = ((1.0 - t) * W[..., :1] + t * W[..., -1:]).ravel()
    N = g.n_nodes
    dir_mask = _dirichlet_mask(g)
    rhs = rhs.copy()
    rhs[:N] -= op.blocks["KvW"] @ Wbd
    rhs[N:] -= op.blocks["KWW"] @ Wbd
    rhs[dir_mask] = 0.0
    U = splu(op.K.tocsc()).solve(rhs)
    U[dir_mask] = 0.0
    return U[:N], U[N:] + Wbd


GRIDS = {
    "2d": dict(dim=2, shape=(17, 33)),
    "3d": dict(dim=3, cross_extents=((0, 1), (0, 1)), shape=(8, 8, 17)),
    # unequal cross sizes and extents: the two cross eigenbases differ
    "3d-unequal": dict(dim=3, cross_extents=((0, 1), (0, 1.5)), shape=(8, 11, 17)),
}


def _operator(grid):
    g = build_grid(**GRIDS[grid])
    coeffs = make_coeffs(LAW, _background(g.shape[-1] - 1), g)
    return g, DiscreteOperator(coeffs, g)


def _random_data(g, seed):
    rng = np.random.default_rng(seed)
    mode = np.ones(g.cross_shape())
    for a, (lo, hi) in enumerate(g.cross_extents):
        shape = [1] * (g.dim - 1)
        shape[a] = -1
        mode = mode * np.cos(np.pi * (g.axes[a] - lo) / (hi - lo)).reshape(shape)
    return LinearData(
        W_en=0.3 + 0.02 * mode, W_ex=-0.2 - 0.01 * mode,
        F=1e-2 * rng.standard_normal((g.n_nodes, g.dim)),
        f=1e-2 * rng.standard_normal(g.n_nodes),
        g_exit=1e-2 * rng.standard_normal(mode.size),
    )


def _wall_data(g, op):
    # recast wall conditions, passed as PicardState.step passes map corrections
    data = _random_data(g, 4)
    rng = np.random.default_rng(5)
    H2 = 1e-2 * rng.standard_normal((g.n_nodes, g.dim))
    data.F2 = data.wall_flux_W = H2
    data.wall_flux_v = data.F
    return data


def _mms_case():
    g = build_grid(dim=2, shape=(17, 33))
    coeffs = make_coeffs(LAW, _background(32, CONST_PARAMS), g)
    op = DiscreteOperator(coeffs, g)
    return op, manufactured_rhs(op)[1]


@pytest.mark.parametrize("case", ["random-2d", "random-3d", "manufactured", "wall-2d", "wall-3d"])
def test_identity_row_solve_matches_lift_path(case):
    if case == "manufactured":
        op, rhs = _mms_case()
    else:
        g, op = _operator(case.split("-")[1])
        rhs = assemble_rhs(op, _wall_data(g, op) if case.startswith("wall") else _random_data(g, 3))
    v, W, residual = solve(op, rhs)
    v_ref, W_ref = _lift_path_solve(op, rhs)
    assert residual < 1e-12
    assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))
    assert np.max(np.abs(W - W_ref)) <= 1e-12 * np.max(np.abs(W_ref))


# ---------------------------------------------------------------------------
# quadrature maps built in CSR against a COO construction


def _coo_quadrature(g):
    """G[a] and P of the corner rule, assembled from COO triplets."""
    d, shape = g.dim, g.shape
    cell_shape = tuple(n - 1 for n in shape)
    n_cells = int(np.prod(cell_shape))
    cell_idx = np.stack([ix.ravel() for ix in np.indices(cell_shape)], axis=0)
    corners = list(itertools.product((0, 1), repeat=d))
    nq = n_cells * len(corners)
    qnode = np.empty(nq, dtype=np.int64)
    rows, cols, vals = ([[] for _ in range(d)] for _ in range(3))
    for c_id, kappa in enumerate(corners):
        q_ids = np.arange(n_cells) * len(corners) + c_id
        node_multi = cell_idx + np.asarray(kappa)[:, None]
        qnode[q_ids] = np.ravel_multi_index(node_multi, shape)
        for a in range(d):
            plus = node_multi.copy()
            plus[a] = cell_idx[a] + 1
            minus = node_multi.copy()
            minus[a] = cell_idx[a]
            inv_h = 1.0 / g.spacing[a]
            rows[a].append(np.concatenate([q_ids, q_ids]))
            cols[a].append(np.concatenate([np.ravel_multi_index(plus, shape),
                                           np.ravel_multi_index(minus, shape)]))
            vals[a].append(np.concatenate([np.full(n_cells, inv_h), np.full(n_cells, -inv_h)]))
    G = [sp.csr_matrix((np.concatenate(vals[a]), (np.concatenate(rows[a]),
                                                  np.concatenate(cols[a]))),
                       shape=(nq, g.n_nodes)) for a in range(d)]
    P = sp.csr_matrix((np.ones(nq), (np.arange(nq), qnode)), shape=(nq, g.n_nodes))
    return G, P, qnode


@pytest.mark.parametrize("grid", list(GRIDS))
def test_quadrature_matches_coo_construction(grid):
    g = build_grid(**GRIDS[grid])
    q = build_quadrature(g)
    G, P, qnode = _coo_quadrature(g)
    assert np.array_equal(q.qnode, qnode)
    for got, want in zip((*q.G, q.P), (*G, P), strict=True):
        assert got.has_canonical_format
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), part


# ---------------------------------------------------------------------------
# the separable direct solve against sparse LU of the assembled operator


@pytest.mark.parametrize("grid", list(GRIDS))
def test_separable_solve_matches_sparse_lu(grid):
    g, op = _operator(grid)
    rhs = assemble_rhs(op, _wall_data(g, op))
    v, W, residual = solve(op, rhs)
    U = splu(op.K.tocsc()).solve(rhs)
    N = g.n_nodes
    assert residual < 1e-12
    assert np.max(np.abs(v - U[:N])) <= 1e-12 * np.max(np.abs(U[:N]))
    assert np.max(np.abs(W - U[N:])) <= 1e-12 * np.max(np.abs(U[N:]))


@pytest.mark.parametrize("grid", list(GRIDS))
def test_cross_modes_diagonalize_stiffness_and_mass(grid):
    g, op = _operator(grid)
    assert len(op.cross_modes) == g.dim - 1
    for a, (V, lam) in enumerate(op.cross_modes):
        n, h = g.shape[a], g.spacing[a]
        T = np.diag(np.r_[0.5, np.ones(n - 2), 0.5] * h)
        S = (np.diag(np.r_[1.0, np.full(n - 2, 2.0), 1.0]) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
        assert np.max(np.abs(V.T @ T @ V - np.eye(n))) < 1e-13
        assert np.max(np.abs(V.T @ S @ V - np.diag(lam))) < 1e-13 * np.max(lam)


def test_failed_band_factorization_raises():
    # no v stiffness and no coupling: the free v rows of node 1 vanish
    import dataclasses

    g = build_grid(**GRIDS["2d"])
    coeffs = make_coeffs(LAW, _background(g.shape[-1] - 1), g)
    zero = {name: np.zeros_like(getattr(coeffs, name)) for name in ("aii", "dzA", "dqB")}
    with pytest.raises(SingularAssemblyError, match="singular pivot block at axial node 1"):
        DiscreteOperator(dataclasses.replace(coeffs, **zero), g)


# ---------------------------------------------------------------------------
# the solve's residual: K applied from the separable 1D factors


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dim=st.sampled_from([2, 3]),
    shape=st.lists(st.integers(8, 12), min_size=3, max_size=3),
    extents=st.lists(st.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
                     min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_operator_matches_assembled_operator(dim, shape, extents, seed):
    g = build_grid(dim=dim, cross_extents=tuple((0.0, e) for e in extents[:dim - 1]),
                   shape=tuple(shape[:dim]))
    op = DiscreteOperator(make_coeffs(LAW, _background(g.shape[-1] - 1), g), g)
    U = np.random.default_rng(seed).standard_normal(2 * g.n_nodes)
    KU = op.K @ U
    assert np.max(np.abs(apply_operator(op, U) - KU)) <= 1e-14 * np.max(np.abs(KU))


def test_fixed_point_leaves_the_operator_unassembled():
    g = build_grid(**GRIDS["2d"])
    bg = _background(g.shape[-1] - 1)
    state = driver.PicardState(LAW, bg, g)
    data = driver.perturb_data(bg, g, 1e-3)
    driver.run_fixed_point(driver.IterationConfig(), data, state)
    assert "K" not in state.op.__dict__
    assert "blocks" not in state.op.__dict__


def test_residual_does_not_read_the_factorization():
    g, op = _operator("2d")
    rhs = assemble_rhs(op, _random_data(g, 3))
    assert solve(op, rhs)[2] < 1e-12
    pivot_inv = op.pivot_inv
    pivot_inv[pivot_inv.shape[0] // 2, 0, 0, 0] *= 1.01
    assert solve(op, rhs)[2] > 1e-8


def test_solve_residual_is_the_absolute_residual_and_keeps_the_data():
    # max |a| is reduced as max(a.max(), -a.min()): negation is exact, so the
    # bits are np.abs's; the solve leaves the caller's right-hand side as it was
    rng = np.random.default_rng(5)
    for a in (rng.standard_normal(1001), -np.abs(rng.standard_normal(64)), np.zeros(3)):
        assert elliptic._max_abs(a) == float(np.max(np.abs(a)))
    assert np.isnan(elliptic._max_abs(np.array([1.0, np.nan, -2.0])))
    g, op = _operator("2d")
    rhs = assemble_rhs(op, _random_data(g, 3))
    kept = rhs.copy()
    first = solve(op, rhs)
    assert np.array_equal(rhs, kept)
    second = solve(op, rhs)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))


def _arrays(obj):
    """The arrays held by obj, inside tuples, lists and dicts too."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    if isinstance(obj, dict):
        return _arrays(list(obj.values()))
    return []


def _float_arrays(obj):
    """The float arrays held by obj, inside tuples, lists and dicts too."""
    return [a for a in _arrays(obj) if a.dtype.kind == "f"]


@pytest.mark.parametrize("grid", list(GRIDS))
def test_operator_holds_no_nodal_float_array(grid):
    # the quadrature and the factorization aside, the operator keeps axial
    # and cross-axis data only
    g, op = _operator(grid)
    held = {name: value for name, value in vars(op).items() if name not in ("quad", "pivot_inv")}
    assert [a.shape for a in _float_arrays(list(held.values())) if a.size >= g.n_nodes] == []


@pytest.mark.parametrize("grid", list(GRIDS))
def test_zero_cross_mode_is_the_axial_operator(grid):
    # mode 0 is constant over the cross-section, with eigenvalue 0, so its
    # pivot blocks are those of the axial blocks alone: the twisted block LU
    # of the axial operator, each pivot inverted by np.linalg.inv. The top
    # front runs down to node t - 1, the bottom front up to node t + 1, and
    # the twist node t = n // 2 takes both; pivot_inv holds node j // 2 at
    # even positions j, node n - 1 - j // 2 at odd ones, the twist last
    g, op = _operator(grid)
    assert all(lam[0] == 0.0 for _, lam in op.cross_modes)
    lower, upper, diag = op.axial_blocks
    n = g.shape[-1]
    t = n // 2
    pivots = {0: np.linalg.inv(diag[0]), n - 1: np.linalg.inv(diag[n - 1])}
    for k in range(1, t):
        pivots[k] = np.linalg.inv(diag[k] - lower[k - 1] @ pivots[k - 1] @ upper[k - 1])
    for k in range(n - 2, t, -1):
        pivots[k] = np.linalg.inv(diag[k] - upper[k] @ pivots[k + 1] @ lower[k])
    pivots[t] = np.linalg.inv(diag[t] - lower[t - 1] @ pivots[t - 1] @ upper[t - 1]
                              - upper[t] @ pivots[t + 1] @ lower[t])
    order = [j // 2 if j % 2 == 0 else n - 1 - j // 2 for j in range(n)]
    assert sorted(order) == list(range(n)) and order[-1] == t
    expected = np.array([pivots[k] for k in order])
    np.testing.assert_allclose(op.pivot_inv[..., 0], expected,
                               rtol=0, atol=1e-13 * np.max(np.abs(expected)))
    assert np.count_nonzero(op.pivot_inv[..., 1:] != op.pivot_inv[..., :1]) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_pivot_block_raises(monkeypatch):
    axial_blocks = elliptic._axial_blocks

    def non_finite(*args):
        lower, upper, diag = axial_blocks(*args)
        diag[3, 0, 0] = np.nan
        return lower, upper, diag

    monkeypatch.setattr(elliptic, "_axial_blocks", non_finite)
    with pytest.raises(SingularAssemblyError, match="singular pivot block at axial node 3"):
        _operator("3d")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nan_nodes, named", [((-2,), -2), ((3, -2), 3)],
                         ids=["bottom-front", "both-fronts"])
def test_non_finite_pivot_is_named_by_the_front_that_meets_it(monkeypatch, nan_nodes, named):
    # the bottom front eliminates node n-1 first and meets node n-2 second;
    # every pivot it forms after that one, and the twist's, are NaN too. With
    # a NaN in each front the lower node is named
    axial_blocks = elliptic._axial_blocks
    n = GRIDS["3d"]["shape"][-1]

    def non_finite(*args):
        lower, upper, diag = axial_blocks(*args)
        diag[list(nan_nodes), 1, 1] = np.nan
        return lower, upper, diag

    monkeypatch.setattr(elliptic, "_axial_blocks", non_finite)
    with pytest.raises(SingularAssemblyError,
                       match=f"singular pivot block at axial node {named % n}\\)"):
        _operator("3d")


# ---------------------------------------------------------------------------
# the block LU of the mode systems against sparse LU of the assembled operator


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dim=st.sampled_from([2, 3]),
    shape=st.lists(st.integers(8, 12), min_size=3, max_size=3),
    extents=st.lists(st.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
                     min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
# nodes_axial 8 and 9: the two fronts meet with one node to spare on the
# top front (even n) and evenly (odd n)
@example(dim=2, shape=[10, 8, 8], extents=[1.0, 1.5], seed=0)
@example(dim=2, shape=[10, 9, 8], extents=[1.0, 1.5], seed=1)
@example(dim=3, shape=[9, 10, 8], extents=[1.0, 1.5], seed=2)
@example(dim=3, shape=[9, 10, 9], extents=[1.0, 1.5], seed=3)
def test_block_lu_solve_matches_sparse_lu(dim, shape, extents, seed):
    g = build_grid(dim=dim, cross_extents=tuple((0.0, e) for e in extents[:dim - 1]),
                   shape=tuple(shape[:dim]))
    op = DiscreteOperator(make_coeffs(LAW, _background(g.shape[-1] - 1), g), g)
    rhs = assemble_rhs(op, _random_data(g, seed))
    v, W, residual = solve(op, rhs)
    U = splu(op.K.tocsc()).solve(rhs)
    N = g.n_nodes
    assert residual < 1e-12
    assert np.max(np.abs(v - U[:N])) <= 1e-12 * np.max(np.abs(U[:N]))
    assert np.max(np.abs(W - U[N:])) <= 1e-12 * np.max(np.abs(U[N:]))


# ---------------------------------------------------------------------------
# the right-hand side and the H1 seminorm with slices, against the CSR maps


def _csr_rhs(op, data):
    """assemble_rhs through the per-point maps: G[a]^T (w F[qnode, a]) for the
    divergence-form terms and a bincount of w s over qnode for the volume terms.
    The boundary planes are found by their coordinates, and their surface
    weights are the nodal mass over the half cell width normal to them."""
    g, q, N = op.grid, op.quad, op.grid.n_nodes
    wq, qn = q.w, q.qnode
    x = node_coords(g)
    mass = np.bincount(qn, weights=wq, minlength=N)
    walls = [(axis, sign, idx, mass[idx] / (0.5 * g.spacing[axis]))
             for axis, extent in enumerate(g.cross_extents)
             for sign, plane in zip((-1.0, 1.0), extent)
             for idx in [np.flatnonzero(x[:, axis] == plane)]]
    entrance, exit_ = np.flatnonzero(x[:, -1] == 0.0), np.flatnonzero(x[:, -1] == g.L)
    exit_w = mass[exit_] / (0.5 * g.spacing[-1])
    bv = np.zeros(N)
    bW = np.zeros(N)
    for b, F in ((bv, data.F), (bW, data.F2)):
        for a in range(g.dim):
            b += q.G[a].T @ (wq * F[qn, a])
        for axis, sign, idx, fw in walls:
            b[idx] -= fw * (sign * F[idx, axis])
    bW -= np.bincount(qn, weights=wq * data.f[qn], minlength=N)
    bv[exit_] -= exit_w * data.F[exit_, -1]
    bv[exit_] -= exit_w * op.coeffs.exit_scale * data.g_exit
    bv[exit_] += exit_w * op.coeffs.exit_wflux * np.ravel(data.W_ex)
    for b, flux in ((bv, data.wall_flux_v), (bW, data.wall_flux_W)):
        for axis, sign, idx, fw in walls:
            b[idx] += fw * (sign * flux[idx, axis])
    bv[entrance] = 0.0
    bW[entrance] = np.ravel(data.W_en)
    bW[exit_] = np.ravel(data.W_ex)
    return np.concatenate([bv, bW])


@pytest.mark.parametrize("grid", list(GRIDS))
def test_slice_rhs_matches_csr_maps(grid):
    g, op = _operator(grid)
    data = _wall_data(g, op)
    rng = np.random.default_rng(6)
    # a wall flux of its own, not F or F2
    data.wall_flux_v = 1e-2 * rng.standard_normal((g.n_nodes, g.dim))
    want = _csr_rhs(op, data)
    got = assemble_rhs(op, data)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # each term alone, so that no term hides under a larger one
    zeroed = {k: np.zeros_like(v) for k, v in vars(data).items()}
    for name in ("F", "f", "F2", "wall_flux_v", "wall_flux_W"):
        one = LinearData(**{**zeroed, name: getattr(data, name)})
        want = _csr_rhs(op, one)
        assert np.max(np.abs(want)) > 0.0, name
        assert np.max(np.abs(assemble_rhs(op, one) - want)) <= 1e-14 * np.max(np.abs(want)), name


@pytest.mark.parametrize("grid", list(GRIDS))
def test_h1_seminorm_matches_csr_maps(grid):
    g, op = _operator(grid)
    q = op.quad
    f = np.random.default_rng(7).standard_normal(g.n_nodes)
    want = np.sqrt(sum(float(np.sum(q.w * (q.G[a] @ f) ** 2)) for a in range(g.dim)))
    got = driver.field_norms(f, g, q)["h1_seminorm"]
    assert abs(got - want) <= 1e-14 * want


def test_fixed_point_leaves_the_quadrature_maps_unbuilt():
    g = build_grid(**GRIDS["2d"])
    bg = _background(g.shape[-1] - 1)
    state = driver.PicardState(LAW, bg, g)
    data = driver.perturb_data(bg, g, 1e-3)
    driver.run_fixed_point(driver.IterationConfig(), data, state)
    for name in ("G", "P", "qnode", "w"):
        assert name not in state.op.quad.__dict__, name
    # the inverted pivot blocks aside, the frozen state holds no nodal array:
    # no mask, no index set and no nodal mass
    held = [vars(state.op), vars(state.op.quad), vars(state.coeffs)]
    nodal = [(name, a.shape) for d in held for name, value in d.items() if name != "pivot_inv"
             for a in _arrays(value) if a.size >= g.n_nodes]
    assert nodal == []
