import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ep_nozzle import driver
from ep_nozzle.elliptic import (
    DiscreteOperator,
    LinearData,
    build_quadrature,
    coercivity_check,
    cross_term_sum,
    lift_boundary,
    make_coeffs,
    quadratic_form,
    solve,
)
from ep_nozzle.errors import NotSubsonicError
from ep_nozzle.gas import GasLaw
from ep_nozzle.grid import build_grid
from ep_nozzle.ode1d import OneDParams, aligned_steps, integrate_ivp

LAW = GasLaw(gamma=2.0, k0=1.0)


def _background(n_axial_intervals, params=OneDParams(0.5, 1.2, 0.1, 1.0, 1.0)):
    n = aligned_steps(1024, n_axial_intervals)
    return integrate_ivp(LAW, params, n)


CONST_PARAMS = OneDParams(0.5, 1.0, 0.0, 1.0, 1.0)


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
        f = 3.0 * g.coords[:, 0] - 2.0 * g.coords[:, 1]
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
        assert c.aii[0] == pytest.approx(np.ones(g.n_nodes), rel=1e-12)
        assert c.aii[1] == pytest.approx(np.full(g.n_nodes, 0.875), rel=1e-12)
        assert c.lam == pytest.approx(0.875, rel=1e-12)
        assert np.all(c.dzA + c.dqB == 0.0)
        assert c.delta3 > 0

    def test_not_subsonic_background_rejected(self):
        g = build_grid(dim=2, shape=(9, 17))
        bg = _background(16, CONST_PARAMS)
        # forge a supersonic sample by scaling the speed
        import dataclasses

        fake = dataclasses.replace(bg, u=bg.u * 10.0)
        with pytest.raises(NotSubsonicError):
            make_coeffs(LAW, fake, g)


class TestLift:
    def test_linear_interpolation(self):
        g = build_grid(dim=2, shape=(9, 17))
        lift = lift_boundary(np.full(9, 0.1), np.full(9, 0.2), g)
        vals = g.reshape(lift)
        mid = np.argmin(np.abs(g.axes[1] - 0.5))
        assert vals[:, 0] == pytest.approx(0.1)
        assert vals[:, -1] == pytest.approx(0.2)
        assert vals[:, mid] == pytest.approx(0.1 + 0.1 * g.axes[1][mid] / g.L)

    def test_zero_data(self):
        g = build_grid(dim=2, shape=(9, 17))
        assert np.all(lift_boundary(np.zeros(9), np.zeros(9), g) == 0.0)

    def test_compatible_mode_no_warning(self, recwarn):
        g = build_grid(dim=2, shape=(33, 17))
        mode = 0.01 * np.cos(np.pi * g.axes[0])
        lift_boundary(mode, np.zeros(33), g)
        assert len(recwarn) == 0

    def test_incompatible_mode_warns(self):
        g = build_grid(dim=2, shape=(33, 17))
        bad = 0.5 * np.sin(np.pi * g.axes[0])
        with pytest.warns(UserWarning, match="compatibility"):
            lift_boundary(bad, np.zeros(33), g)


class TestSystemStructure:
    def test_trivial_data_zero_solution(self, setup_small):
        g, bg, coeffs, op = setup_small
        nc = g.shape[0]
        v, W, residual = solve(op, LinearData(W_en=np.zeros(nc), W_ex=np.zeros(nc)))
        assert residual == 0.0
        assert np.all(v == 0.0)
        assert np.all(W == 0.0)

    def test_dirichlet_rows_identity(self, setup_small):
        g, bg, coeffs, op = setup_small
        K = op.K.tocsr()
        dir_mask = np.concatenate([op.dirichlet_v, op.dirichlet_W])
        for row in np.flatnonzero(dir_mask)[::23]:
            sl = slice(K.indptr[row], K.indptr[row + 1])
            cols = K.indices[sl]
            vals = K.data[sl]
            nz = vals != 0.0
            assert np.array_equal(cols[nz], [row])
            assert vals[nz] == pytest.approx([1.0])

    def test_dirichlet_values_exact(self, setup_small):
        g, bg, coeffs, op = setup_small
        nc = g.shape[0]
        W_en = 0.02 * np.cos(np.pi * g.axes[0])
        W_ex = -0.01 * np.cos(np.pi * g.axes[0])
        v, W, _ = solve(op, LinearData(W_en=W_en, W_ex=W_ex))
        Wm = g.reshape(W)
        assert Wm[:, 0] == pytest.approx(W_en, abs=1e-15)
        assert Wm[:, -1] == pytest.approx(W_ex, abs=1e-15)
        assert np.all(g.reshape(v)[:, 0] == 0.0)

    def test_cross_terms_cancel_exactly(self, setup_small):
        g, bg, coeffs, op = setup_small
        rng = np.random.default_rng(0)
        for _ in range(100):
            xi = rng.standard_normal(g.n_nodes)
            eta = rng.standard_normal(g.n_nodes)
            xi[op.dirichlet_v] = 0.0
            eta[op.dirichlet_W] = 0.0
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
            eta[op.dirichlet_W] = 0.0
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
        free = ~np.concatenate([op.dirichlet_v, op.dirichlet_W])
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


C_EN, C_EX = 0.3, 0.2


def manufactured(x, y):
    v = np.sin(np.pi * x) * y ** 2
    W = np.cos(np.pi * x) * (C_EN * (1 - y) + C_EX * y + y * (1 - y))
    return v, W


def manufactured_data(g, op):
    # constant background: a = diag(1, 0.875), dzB = 0.5, dzA = (0, 0.25)
    a11, ann, dzB, dzA_n, J0, pp = 1.0, 0.875, 0.5, 0.25, 0.5, 2.0
    X, Y = g.coords[:, 0], g.coords[:, 1]
    xc = g.axes[0]

    def v_x(x, y):
        return np.pi * np.cos(np.pi * x) * y ** 2

    def v_y(x, y):
        return 2 * y * np.sin(np.pi * x)

    def W_fn(x, y):
        return np.cos(np.pi * x) * (C_EN * (1 - y) + C_EX * y + y * (1 - y))

    def W_x(x, y):
        return -np.pi * np.sin(np.pi * x) * (C_EN * (1 - y) + C_EX * y + y * (1 - y))

    def W_y(x, y):
        return np.cos(np.pi * x) * (-C_EN + C_EX + 1 - 2 * y)

    s1 = (
        a11 * (-np.pi ** 2 * np.sin(np.pi * X) * Y ** 2)
        + ann * 2 * np.sin(np.pi * X)
        + dzA_n * W_y(X, Y)
    )
    f = (
        -np.pi ** 2 * W_fn(X, Y)
        - 2 * np.cos(np.pi * X)
        - dzB * W_fn(X, Y)
        + dzA_n * v_y(X, Y)
    )
    g_exit = -(J0 / pp) * v_y(xc, 1.0)
    wf_v = []
    wf_W = []
    for axis, sign, fidx, fw in op.quad.wall_faces:
        wf_v.append(sign * a11 * v_x(X[fidx], Y[fidx]))
        wf_W.append(sign * W_x(X[fidx], Y[fidx]))
    return LinearData(
        W_en=W_fn(xc, 0.0), W_ex=W_fn(xc, 1.0), s1=s1, f=f, g_exit=g_exit,
        wall_flux_v=wf_v, wall_flux_W=wf_W,
    )


def _mms_solve(shape):
    g = build_grid(dim=2, shape=shape)
    bg = _background(shape[-1] - 1, CONST_PARAMS)
    coeffs = make_coeffs(LAW, bg, g)
    op = DiscreteOperator(coeffs, g)
    data = manufactured_data(g, op)
    v, W, residual = solve(op, data)
    v_exact, W_exact = manufactured(g.coords[:, 0], g.coords[:, 1])
    return g, op, data, v, W, v_exact, W_exact, residual


class TestManufactured:
    def test_convergence_order(self):
        errs = []
        for shape in [(17, 33), (33, 65)]:
            _, _, _, v, W, v_exact, W_exact, residual = _mms_solve(shape)
            errs.append(max(np.max(np.abs(v - v_exact)), np.max(np.abs(W - W_exact))))
            assert residual < 1e-11
        order = np.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.3

    def test_assembled_residual_of_interpolant(self):
        # applying the operator to the nodal interpolant reproduces the rhs at
        # second order on interior rows
        res = []
        for shape in [(17, 33), (33, 65)]:
            g, op, data, *_ = _mms_solve(shape)
            from ep_nozzle.elliptic import assemble_rhs

            rhs, lift = assemble_rhs(op, data)
            v_exact, W_exact = manufactured(g.coords[:, 0], g.coords[:, 1])
            U = np.concatenate([v_exact, W_exact - lift])
            r = op.K @ U - rhs
            interior = g.tags == 0
            cellvol = np.prod(g.spacing)
            r_v = np.abs(r[: g.n_nodes][interior]) / cellvol
            r_W = np.abs(r[g.n_nodes :][interior]) / cellvol
            res.append(max(r_v.max(), r_W.max()))
        order = np.log2(res[0] / res[1])
        assert order > 1.6

    def test_wall_conormal_residual_refines(self):
        resid = []
        for shape in [(17, 33), (33, 65)]:
            g, op, data, v, W, *_ = _mms_solve(shape)
            from ep_nozzle.grid import gradient

            gv = gradient(g, v)
            worst = 0.0
            for (axis, sign, fidx, fw), wf in zip(op.quad.wall_faces, data.wall_flux_v):
                aval = 1.0 if axis == 0 else 0.875
                worst = max(worst, np.max(np.abs(sign * aval * gv[fidx, axis] - wf)))
            resid.append(worst)
        assert resid[1] < resid[0] / 2.5


def test_3d_zero_data_and_cancellation():
    g = build_grid(dim=3, cross_extents=((0, 1), (0, 1)), shape=(8, 8, 17))
    bg = _background(16)
    coeffs = make_coeffs(LAW, bg, g)
    op = DiscreteOperator(coeffs, g)
    nc = g.cross_shape()
    v, W, _ = solve(op, LinearData(W_en=np.zeros(nc), W_ex=np.zeros(nc)))
    assert np.all(v == 0.0) and np.all(W == 0.0)
    rng = np.random.default_rng(2)
    xi = rng.standard_normal(g.n_nodes)
    eta = rng.standard_normal(g.n_nodes)
    xi[op.dirichlet_v] = 0.0
    eta[op.dirichlet_W] = 0.0
    total, scale = cross_term_sum(op, xi, eta)
    assert abs(total) <= 1e-12 * max(scale, 1.0)
    ratio = coercivity_check(op, trials=20, seed=7)
    assert ratio >= 0.9 * min(coeffs.lam, 1.0)
