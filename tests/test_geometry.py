"""Christoffel/Riemann/sectional chain and the L2 curvature score."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebench.errors import DegenerateMetricError
from curvebench.geometry import (
    EIG_FLOOR,
    MODES,
    PLANE_FLOOR,
    REG_SCALE,
    SectionalCurvatureField,
    TensorGrid,
    christoffel,
    l2_curvature_score,
    pullback_from_jacobian,
    regularization_for,
    riemann_at,
    sectional_at,
    unit_grid,
    unpack_symmetric,
)


def symbolic_sectional(g_expr, coords, point):
    """Independent oracle: textbook sectional curvature via sympy.

    Uses the standard convention (positively curved spheres) with explicit
    index loops and symbolic differentiation, sharing no code with the
    numeric implementation.
    """
    n = len(coords)
    ginv = g_expr.inv()
    gamma = [[[sum(sp.Rational(1, 2) * ginv[k, m] * (
        sp.diff(g_expr[m, i], coords[j])
        + sp.diff(g_expr[m, j], coords[i])
        - sp.diff(g_expr[i, j], coords[m])
    ) for m in range(n)) for j in range(n)] for i in range(n)] for k in range(n)]
    # standard R(e_i, e_j)e_k = sum_l R^l_kij e_l with
    # R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_ip G^p_jk - G^l_jp G^p_ik
    def riem(l, k, i, j):
        expr = sp.diff(gamma[l][j][k], coords[i]) - sp.diff(gamma[l][i][k], coords[j])
        for p in range(n):
            expr += gamma[l][i][p] * gamma[p][j][k] - gamma[l][j][p] * gamma[p][i][k]
        return expr

    subs = dict(zip(coords, point))
    out = []
    for i, j in zip(*np.triu_indices(n, 1)):
        num = sum(riem(l, j, i, j) * g_expr[l, i] for l in range(n))
        den = g_expr[i, i] * g_expr[j, j] - g_expr[i, j] ** 2
        out.append(float((num / den).subs(subs)))
    return np.array(out)


def numeric_sectional_from_symbolic_metric(g_expr, coords, point, mode="standard"):
    """Feed exact metric derivatives (evaluated symbolically) to the
    numeric chain."""
    n = len(coords)
    subs = dict(zip(coords, point))
    g = np.array([[float(g_expr[i, j].subs(subs)) for j in range(n)] for i in range(n)])
    dg = np.array(
        [[[float(sp.diff(g_expr[i, j], coords[k]).subs(subs)) for k in range(n)]
          for j in range(n)] for i in range(n)]
    )
    d2g = np.array(
        [[[[float(sp.diff(g_expr[i, j], coords[k], coords[l]).subs(subs))
            for l in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]
    )
    return sectional_at(g, riemann_at(*christoffel(g, dg, d2g)), mode=mode)[0], g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_components_and_planes_are_in_lexicographic_order(n):
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    mats = unpack_symmetric(np.arange(len(upper)), n, 0)
    for idx, (i, j) in enumerate(upper):
        assert mats[i, j] == mats[j, i] == idx
    assert list(zip(*np.triu_indices(n, 1))) == [(i, j) for i, j in upper if i < j]


class TestPullback:
    def test_identity_jacobian(self):
        assert np.array_equal(pullback_from_jacobian(np.eye(2)), np.eye(2))

    def test_rectangular_jacobian(self):
        J = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(pullback_from_jacobian(J), [[2, 1], [1, 2]])

    def test_scaling(self):
        assert np.array_equal(pullback_from_jacobian(2 * np.eye(2)), 4 * np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            pullback_from_jacobian(np.array([[np.nan, 0], [0, 1]]))


def gamma_only(g, dg):
    """Christoffel symbols of a metric whose second derivatives vanish."""
    return christoffel(g, dg, np.zeros(dg.shape + (dg.shape[-1],)))[0]


class TestChristoffel:
    def test_constant_metric_has_no_connection(self):
        g = np.array([[2.0, 0.3], [0.3, 1.5]])
        gamma, dgamma = christoffel(g, np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        assert np.array_equal(gamma, np.zeros((2, 2, 2)))
        assert np.array_equal(dgamma, np.zeros((2, 2, 2, 2)))

    def test_polar_type_metric(self):
        # g = diag(1, x1^2) at x1 = 2; symbolic oracle gives
        # Gamma^1_22 = -x1 = -2, Gamma^2_12 = 1/x1 = 0.5
        g = np.diag([1.0, 4.0])
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = 4.0
        gamma = gamma_only(g, dg)
        assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
        others = gamma.copy()
        others[0, 1, 1] = others[1, 0, 1] = others[1, 1, 0] = 0.0
        assert np.max(np.abs(others)) == 0.0

    def test_sphere_metric_at_quarter_pi(self):
        x1 = np.pi / 4
        g = np.diag([1.0, np.sin(x1) ** 2])
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = np.sin(2 * x1)
        gamma = gamma_only(g, dg)
        assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_lower_indices_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            g = a @ a.T + 3 * np.eye(3)
            dg = rng.normal(size=(3, 3, 3))
            dg = 0.5 * (dg + dg.swapaxes(0, 1))
            gamma = gamma_only(g, dg)
            assert np.array_equal(gamma, gamma.swapaxes(1, 2))

    def test_singular_metric_raises(self):
        with pytest.raises(DegenerateMetricError, match="not invertible"):
            christoffel(np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))


class TestRiemann:
    def test_flat_space(self):
        r = riemann_at(np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2)))
        assert np.array_equal(r, np.zeros((2, 2, 2, 2)))

    def test_antisymmetry_in_first_two_indices(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            gamma = rng.normal(size=(3, 3, 3))
            gamma = 0.5 * (gamma + gamma.swapaxes(1, 2))
            dgamma = rng.normal(size=(3, 3, 3, 3))
            r = riemann_at(gamma, dgamma)
            assert np.max(np.abs(r + r.swapaxes(1, 2))) < 1e-12


def batch_last(a, core: int):
    """A batch-first array with its ``core`` trailing component axes moved
    to the front: the layout of the curvature chain."""
    nb = a.ndim - core
    return np.moveaxis(a, tuple(range(nb)), tuple(range(core, a.ndim)))


def batch_first(a, core: int):
    """Inverse of :func:`batch_last`."""
    nb = a.ndim - core
    return np.moveaxis(a, tuple(range(core, a.ndim)), tuple(range(nb)))


def christoffel_einsum(g, dg, d2g, lam):
    """:func:`christoffel`'s contractions as einsums over batch-first arrays,
    kept as the reference its component-first einsums must equal bit for
    bit."""
    n = g.shape[-1]
    ginv = np.linalg.inv(g + lam[..., None, None] * np.eye(n))
    nb = dg.ndim - 3
    term = (dg + dg.transpose(*range(nb), nb, nb + 2, nb + 1)
            - dg.transpose(*range(nb), nb + 2, nb, nb + 1))
    gamma = 0.5 * np.einsum("...mk,...mij->...kij", ginv, term)
    dginv = -np.einsum("...ma,...abl,...bk->...mkl", ginv, dg, ginv)
    dterm = (d2g + d2g.swapaxes(-3, -2)
             - d2g.transpose(*range(nb), nb + 2, nb, nb + 1, nb + 3))
    dgamma = 0.5 * (
        np.einsum("...mkl,...mij->...kijl", dginv, term)
        + np.einsum("...mk,...mijl->...kijl", ginv, dterm)
    )
    return gamma, dgamma


def riemann_einsum(gamma, dgamma):
    """:func:`riemann_at` as einsums over batch-first arrays, kept as the
    reference its component-first einsums must equal bit for bit."""
    nb = gamma.ndim - 3
    t1 = dgamma.transpose(*range(nb), nb, nb + 1, nb + 3, nb + 2)
    t2 = dgamma.transpose(*range(nb), nb, nb + 3, nb + 1, nb + 2)
    q1 = np.einsum("...pik,...ljp->...lijk", gamma, gamma)
    q2 = np.einsum("...pjk,...lip->...lijk", gamma, gamma)
    return t1 - t2 + q1 - q2


def sectional_batch_first(g, riem, mode):
    """:func:`sectional_at` on batch-first arrays, pair by pair, kept as the
    reference its one fancy-indexed pass must equal bit for bit."""
    n = g.shape[-1]
    pairs = list(zip(*np.triu_indices(n, 1)))
    out = np.empty(g.shape[:-2] + (len(pairs),))
    floored = np.zeros(g.shape[:-2], dtype=bool)
    for idx, (i, j) in enumerate(pairs):
        num = -np.einsum("...l,...l->...", riem[..., :, i, j, j], g[..., :, i])
        den = g[..., i, i] * g[..., j, j] - g[..., i, j] ** 2
        bad = den <= PLANE_FLOOR
        floored |= bad
        den = np.where(bad, PLANE_FLOOR, den)
        if mode == "paper_sqrt":
            den = np.sqrt(den)
        out[..., idx] = num / den
    return out, floored


def regularization_batch_first(g):
    """:func:`regularization_for` on batch-first arrays, kept as the
    reference it must equal bit for bit."""
    n = g.shape[-1]
    w = np.linalg.eigvalsh(g)[..., 0]
    tr = np.einsum("...ii->...", g)
    lam = np.where(w < EIG_FLOOR, np.maximum(REG_SCALE * tr / n, EIG_FLOOR - w), 0.0)
    return lam if lam.ndim else float(lam)


BATCHES = [(), (1,), (7,), (2, 5), (300,)]


class TestContractionsMatchEinsum:
    """christoffel and riemann_at, whose einsums run over component-first
    arrays, equal the batch-first einsum forms bit for bit, signed zeros
    included, for any batch shape and 1 to 4 coordinates."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        batch=st.sampled_from(BATCHES),
        zero_share=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_einsum(self, n, batch, zero_share, seed):
        rng = np.random.default_rng(seed)

        def draw(shape):
            # some exact (and negative) zeros, as a constant metric has
            return rng.normal(size=shape) * (rng.random(shape) >= zero_share) \
                * rng.choice([-1.0, 1.0], size=shape)

        a = rng.normal(size=batch + (n, n))
        g = a @ a.swapaxes(-1, -2) + rng.uniform(0.0, 0.2) * np.eye(n)
        dg = draw(batch + (n, n, n))
        dg = dg + dg.swapaxes(-3, -2)
        d2g = draw(batch + (n, n, n, n))
        d2g = d2g + d2g.swapaxes(-1, -2)
        lam = rng.uniform(0.0, 1e-3, size=batch) * (rng.random(batch) < 0.3)
        gamma, dgamma = christoffel(batch_last(g, 2), batch_last(dg, 3),
                                    batch_last(d2g, 4), lam)
        ref_gamma, ref_dgamma = christoffel_einsum(g, dg, d2g, lam)
        assert batch_first(gamma, 3).tobytes() == ref_gamma.tobytes()
        assert batch_first(dgamma, 4).tobytes() == ref_dgamma.tobytes()
        riem = batch_first(riemann_at(gamma, dgamma), 4)
        assert riem.tobytes() == riemann_einsum(ref_gamma, ref_dgamma).tobytes()


class TestSectionalMatchesBatchFirst:
    """sectional_at and regularization_for on component-first arrays equal
    their batch-first forms bit for bit, floored planes included."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        batch=st.sampled_from(BATCHES),
        mode=st.sampled_from(MODES),
        flat_share=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_batch_first(self, n, batch, mode, flat_share, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=batch + (n, n))
        # a rank-one metric on a drawn share of the nodes: every plane there
        # has zero area, so the floor fires and the weight is positive
        flat = rng.random(batch + (1, 1)) < flat_share
        a = np.where(flat, a[..., :1] * np.ones(n), a)
        g = a @ a.swapaxes(-1, -2) + rng.uniform(0.0, 0.2) * np.eye(n) * ~flat
        shape = batch + (n, n, n, n)
        # some exact (and negative) zeros, so that signed zeros are checked
        riem = rng.normal(size=shape) * (rng.random(shape) >= flat_share) \
            * rng.choice([-1.0, 1.0], size=shape)
        values, floored = sectional_at(batch_last(g, 2), batch_last(riem, 4), mode)
        ref_values, ref_floored = sectional_batch_first(g, riem, mode)
        assert batch_first(values, 1).tobytes() == ref_values.tobytes()
        assert np.asarray(floored).tobytes() == ref_floored.tobytes()
        lam = regularization_for(batch_last(g, 2))
        assert np.asarray(lam).tobytes() == np.asarray(regularization_batch_first(g)).tobytes()


class TestSectional:
    def test_flat_metric_gives_exact_zero(self):
        k, floored = sectional_at(np.eye(2), np.zeros((2, 2, 2, 2)))
        assert np.array_equal(k, [0.0])
        assert not floored

    def test_sphere_and_hyperbolic_constants(self):
        x1, x2 = sp.symbols("x1 x2")
        sphere = sp.Matrix([[1, 0], [0, sp.sin(x1) ** 2]])
        hyper = sp.Matrix([[1, 0], [0, sp.exp(2 * x1)]])
        for g_expr, expect in ((sphere, 1.0), (hyper, -1.0)):
            for point in [(0.7, 0.2), (1.1, 0.9), (0.45, 0.0)]:
                got, _ = numeric_sectional_from_symbolic_metric(g_expr, (x1, x2), point)
                assert got[0] == pytest.approx(expect, abs=1e-10)

    def test_against_symbolic_oracle_non_diagonal(self):
        # a generic non-diagonal metric: the full chain must agree with the
        # independent symbolic-differentiation pipeline
        x1, x2 = sp.symbols("x1 x2")
        g_expr = sp.Matrix(
            [[1 + x2**2, sp.Rational(1, 2) * x1 * x2],
             [sp.Rational(1, 2) * x1 * x2, 1 + x1**2]]
        )
        for point in [(0.3, 0.4), (0.9, 0.1), (0.5, 0.8)]:
            got, _ = numeric_sectional_from_symbolic_metric(g_expr, (x1, x2), point)
            want = symbolic_sectional(g_expr, (x1, x2), point)
            assert np.allclose(got, want, atol=1e-10)

    def test_against_symbolic_oracle_three_dimensional(self):
        coords = sp.symbols("x1 x2 x3")
        x1, x2, x3 = coords
        g_expr = sp.Matrix(
            [
                [2 + sp.sin(x2), 0, sp.Rational(1, 4) * x3],
                [0, 1 + x1**2, 0],
                [sp.Rational(1, 4) * x3, 0, sp.exp(x1)],
            ]
        )
        point = (0.4, 0.7, 0.2)
        got, _ = numeric_sectional_from_symbolic_metric(g_expr, coords, point)
        want = symbolic_sectional(g_expr, coords, point)
        assert got.shape == (3,)
        assert np.allclose(got, want, atol=1e-9)

    def test_modes_agree_on_identity_metric(self):
        rng = np.random.default_rng(3)
        riem = rng.normal(size=(2, 2, 2, 2))
        k_std, _ = sectional_at(np.eye(2), riem, mode="standard")
        k_sqrt, _ = sectional_at(np.eye(2), riem, mode="paper_sqrt")
        assert np.array_equal(k_std, k_sqrt)

    def test_mode_ratio_is_sqrt_of_denominator(self):
        g = np.diag([4.0, 4.0])  # D = 16, sqrt(D) = 4
        rng = np.random.default_rng(4)
        riem = rng.normal(size=(2, 2, 2, 2))
        k_std, _ = sectional_at(g, riem, mode="standard")
        k_sqrt, _ = sectional_at(g, riem, mode="paper_sqrt")
        assert np.allclose(k_sqrt, 4.0 * k_std)
        # shared zero set
        assert (k_std[0] == 0.0) == (k_sqrt[0] == 0.0)

    def test_degenerate_plane_is_floored(self):
        # a zero-area plane is floored and marked, not raised on
        g = batch_last(np.stack([np.eye(2), np.diag([1.0, 0.0])]), 2)
        riem = np.ones((2, 2, 2, 2, 2))
        for mode in MODES:
            k, floored = sectional_at(g, riem, mode=mode)
            assert floored.tolist() == [False, True]
            assert np.all(np.isfinite(k))
            den = PLANE_FLOOR if mode == "standard" else np.sqrt(PLANE_FLOOR)
            assert k[0, 1] == -1.0 / den

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            sectional_at(np.eye(2), np.zeros((2, 2, 2, 2)), mode="fancy")


class TestSameDimensionFlatness:
    def test_parabolic_shear_is_flat(self):
        # f(x) = (x1, x2 + x1^2) is a same-dimension immersion; the pullback
        # of the flat metric stays flat.  Analytic derivative chain:
        # J = [[1, 0], [2 x1, 1]], g = J^T J depends only on x1.
        xs = np.linspace(0.0, 1.0, 9)
        for x1 in xs:
            g = np.array([[1 + 4 * x1**2, 2 * x1], [2 * x1, 1.0]])
            dg = np.zeros((2, 2, 2))
            dg[0, 0, 0] = 8 * x1
            dg[0, 1, 0] = dg[1, 0, 0] = 2.0
            d2g = np.zeros((2, 2, 2, 2))
            d2g[0, 0, 0, 0] = 8.0
            k, _ = sectional_at(g, riemann_at(*christoffel(g, dg, d2g)))
            assert np.max(np.abs(k)) < 1e-6

    def test_linear_isometry_scores_zero(self):
        grid = unit_grid(2, 8)
        n = grid.num_points
        values = np.zeros((n, 1))
        fld = SectionalCurvatureField(grid=grid, values=values)
        assert l2_curvature_score(fld, trim=2) == 0.0


class TestRegularization:
    def test_healthy_metric_needs_none(self):
        assert regularization_for(np.eye(2)) == 0.0

    def test_degenerate_metric_gets_floor(self):
        lam = regularization_for(np.diag([1.0, 0.0]))
        assert lam > 0.0
        assert np.linalg.eigvalsh(np.diag([1.0, 0.0]) + lam * np.eye(2))[0] >= 1e-10


class TestL2Score:
    def test_zero_field_scores_zero(self):
        grid = unit_grid(2, 16)
        fld = SectionalCurvatureField(grid=grid, values=np.zeros((grid.num_points, 1)))
        assert l2_curvature_score(fld) == 0.0

    def test_constant_field_scores_c_sqrt_v(self):
        grid = unit_grid(2, 32)
        c = 2.5
        fld = SectionalCurvatureField(
            grid=grid, values=np.full((grid.num_points, 1), c)
        )
        trim = 2
        side = grid.axes[0][-1 - trim] - grid.axes[0][trim]
        measure = side**2
        assert l2_curvature_score(fld, trim=trim) == pytest.approx(
            abs(c) * np.sqrt(measure), rel=1e-12
        )

    def test_two_constant_pairs_combine_in_quadrature(self):
        # n = 3 gives three coordinate pairs; fill two with constants over a
        # grid whose trimmed region has measure exactly one
        trim = 2
        nodes = 9
        span = (nodes - 1) / (nodes - 1 - 2 * trim)
        axis = np.linspace(0.0, span, nodes)
        grid = TensorGrid((axis, axis, axis))
        values = np.zeros((grid.num_points, 3))
        c1, c2 = 1.5, -2.0
        values[:, 0] = c1
        values[:, 1] = c2
        fld = SectionalCurvatureField(grid=grid, values=values)
        assert l2_curvature_score(fld, trim=trim) == pytest.approx(
            np.hypot(c1, c2), rel=1e-10
        )

    def test_axis_permutation_invariance(self):
        rng = np.random.default_rng(5)
        grid = unit_grid(2, 16)
        vals = rng.normal(size=(16, 16))
        fld = SectionalCurvatureField(grid=grid, values=vals.reshape(-1, 1))
        fld_t = SectionalCurvatureField(grid=grid, values=vals.T.reshape(-1, 1))
        assert abs(l2_curvature_score(fld) - l2_curvature_score(fld_t)) < 1e-10

    def test_trim_validation(self):
        grid = unit_grid(2, 16)
        fld = SectionalCurvatureField(grid=grid, values=np.zeros((256, 1)))
        with pytest.raises(ValueError):
            l2_curvature_score(fld, trim=0)
        # trim = 7 leaves exactly two interior nodes on a 16-node axis: legal
        l2_curvature_score(fld, trim=7)
        with pytest.raises(ValueError):
            l2_curvature_score(fld, trim=8)


class TestFieldTypes:
    def test_connection_and_curvature_fields_over_a_grid(self):
        grid = unit_grid(2, 8)
        pts = grid.points()
        g = np.zeros((grid.num_points, 2, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.exp(2 * pts[:, 0])
        dg = np.zeros((grid.num_points, 2, 2, 2))
        dg[:, 1, 1, 0] = 2 * np.exp(2 * pts[:, 0])
        d2g = np.zeros((grid.num_points, 2, 2, 2, 2))
        d2g[:, 1, 1, 0, 0] = 4 * np.exp(2 * pts[:, 0])
        g, dg, d2g = batch_last(g, 2), batch_last(dg, 3), batch_last(d2g, 4)
        gamma, dgamma = christoffel(g, dg, d2g)
        riem = riemann_at(gamma, dgamma)
        assert gamma.shape == (2, 2, 2, grid.num_points)
        assert riem.shape == (2, 2, 2, 2, grid.num_points)
        k, floored = sectional_at(g, riem)
        assert k.shape == (1, grid.num_points)
        assert np.allclose(k[0], -1.0, atol=1e-10)
        assert not floored.any()

    def test_sectional_field_pair_count(self):
        grid = unit_grid(3, 4)
        with pytest.raises(ValueError):
            SectionalCurvatureField(grid=grid, values=np.zeros((grid.num_points, 2)))

    def test_tensor_grid_validation(self):
        with pytest.raises(ValueError):
            TensorGrid((np.array([0.0, 0.0, 1.0]),))

    @pytest.mark.parametrize("axis", [
        [0.0, np.nan, 1.0, 2.0],
        [0.0, 1.0, 2.0, np.inf],
        [-np.inf, 0.0, 1.0, 2.0],
    ])
    def test_tensor_grid_rejects_non_finite_axes(self, axis):
        with pytest.raises(ValueError, match="finite"):
            TensorGrid((np.array(axis), np.arange(4.0)))
