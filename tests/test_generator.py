"""Instance generation: grids, rotations, immersions, suite enumeration."""

import numpy as np
import pytest

from curvebench.generator import (
    InstanceDescriptor,
    derive_seed,
    enumerate_suite,
    instance_id_for,
    make_descriptor,
    makegen,
    sample_special_orthogonal,
)
from curvebench import fileio
from curvebench.geometry import unit_grid


def flat_flat(eta=0.0, seed=7, resolution=32):
    return make_descriptor(("flat", "flat"), (1.2, 1.2), eta=eta, seed=seed,
                           grid_resolution=resolution)


class TestMakeGrid:
    """The source grid every instance is evaluated on: unit_grid(n, r).points()."""

    def test_one_dimensional_axis(self):
        pts = unit_grid(1, 4).points()
        assert np.array_equal(pts[:, 0], np.array([0, 1, 2, 3]) / 3)

    def test_two_dimensional_cardinality(self):
        pts = unit_grid(2, 4).points()
        assert pts.shape == (16, 2)
        assert pts.min() == 0.0
        assert pts.max() == 1.0

    def test_row_major_ordering(self):
        pts = unit_grid(2, 4).points()
        # second axis varies fastest
        assert np.array_equal(pts[1], [0.0, 1 / 3])
        assert np.array_equal(pts[4], [1 / 3, 0.0])

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            unit_grid(2, 3)


class TestSpecialOrthogonal:
    def test_so1_is_trivial(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(sample_special_orthogonal(1, rng), np.array([[1.0]]))

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_orthogonal_and_proper(self, m):
        rng = np.random.default_rng(42)
        for _ in range(25):
            q = sample_special_orthogonal(m, rng)
            assert np.max(np.abs(q.T @ q - np.eye(m))) < 1e-10
            assert abs(np.linalg.det(q) - 1.0) < 1e-8

    def test_haar_entry_is_sign_symmetric(self):
        # Monte-Carlo oracle: under Haar measure each entry has zero mean
        rng = np.random.default_rng(2024)
        total = 0.0
        n_samples = 10_000
        for _ in range(n_samples):
            total += sample_special_orthogonal(3, rng)[0, 0]
        assert abs(total / n_samples) < 0.02

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_special_orthogonal(0, np.random.default_rng(0))


class TestDescriptor:
    def test_instance_id_is_deterministic(self):
        d1 = flat_flat(seed=1)
        d2 = flat_flat(seed=2)
        assert d1.instance_id == d2.instance_id  # id excludes the seed

    def test_mismatched_id_rejected(self):
        with pytest.raises(ValueError, match="instance_id"):
            InstanceDescriptor(
                n=2, m=7, families=("flat", "flat"), thetas=(1.2, 1.2), eta=0.0,
                seed=0, grid_resolution=32, instance_id="bogus",
            )

    def test_dimension_ordering_enforced(self):
        with pytest.raises(ValueError, match="m > n"):
            make_descriptor(("flat", "flat"), (1.2, 1.2), m=2)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            make_descriptor(("flat", "flat"), (1.2, 1.2), eta=-0.5)

    def test_family_arity_must_match(self):
        with pytest.raises(ValueError):
            make_descriptor(("flat",), (1.2, 1.8))


class TestMakegen:
    def test_seeded_determinism(self):
        d = flat_flat(eta=0.01)
        m1, m2 = makegen(d), makegen(d)
        assert np.array_equal(m1.rotation, m2.rotation)
        assert np.array_equal(m1.translation, m2.translation)
        for c1, c2 in zip(m1.curves, m2.curves):
            assert np.array_equal(c1.points, c2.points)

    def test_flat_flat_identity_rotation_is_padded_grid(self):
        d = flat_flat()
        imap = makegen(d, rotation=np.eye(7))
        out = imap.evaluate(np.array([[0.3, 0.8]]))
        assert np.allclose(out.points[0], [0.3, 0.8, 0, 0, 0, 0, 0], atol=1e-12)

    def test_translation_scale_matches_eta(self):
        # entries of the translation are N(0, eta^2); estimate the standard
        # deviation over many independently seeded instances
        draws = []
        for seed in range(300):
            d = flat_flat(eta=0.01, seed=seed)
            draws.extend(makegen(d).translation)
        assert np.std(draws) == pytest.approx(0.01, rel=0.15)

    def test_zero_eta_means_zero_translation(self):
        assert np.array_equal(makegen(flat_flat(eta=0.0)).translation, np.zeros(7))

    def test_rotation_override_hook(self):
        d = flat_flat()
        imap = makegen(d, rotation=np.eye(7))
        assert np.array_equal(imap.rotation, np.eye(7))

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            makegen(flat_flat(), rotation=np.eye(7) * 2)


class TestEvaluateImmersion:
    def test_rotation_preserves_norms(self):
        d = make_descriptor(("circle", "sine"), (1.2, 1.8), eta=0.0, seed=3)
        imap = makegen(d)
        grid = unit_grid(2, 8).points()
        rotated = imap.evaluate(grid).points
        plain = imap.unrotated(grid)
        assert np.allclose(
            np.linalg.norm(rotated, axis=1), np.linalg.norm(plain, axis=1), atol=1e-10
        )

    def test_identical_inputs_identical_outputs(self):
        d = flat_flat(eta=0.01)
        imap = makegen(d)
        grid = unit_grid(2, 8).points()
        assert np.array_equal(
            imap.evaluate(grid).points,
            imap.evaluate(grid.copy()).points,
        )

    def test_out_of_domain_coordinate_names_row(self):
        imap = makegen(flat_flat())
        bad = np.array([[0.1, 0.2], [0.3, 1.7], [0.5, 0.5]])
        with pytest.raises(ValueError, match="row 1"):
            imap.evaluate(bad)

    def test_serialize_roundtrip_reproduces_bit_exactly(self, tmp_path):
        d = make_descriptor(("logistic", "circle"), (1.8, 1.2), eta=0.01, seed=99)
        grid = unit_grid(2, 16).points()
        before = makegen(d).evaluate(grid).points
        path = tmp_path / "instance.json"
        fileio.write_instance_json(path, d)
        restored = fileio.read_instance_json(path)
        after = makegen(restored).evaluate(grid).points
        assert np.array_equal(before, after)


class TestPullbackInvariants:
    def test_rotation_invariance_of_pullback(self):
        d = make_descriptor(("sine", "polyroll"), (1.2, 1.8), eta=0.0, seed=11)
        with_r = makegen(d)
        without_r = makegen(d, rotation=np.eye(7))
        grid = unit_grid(2, 8).points()
        g1 = with_r.pullback_metrics(grid)
        g2 = without_r.pullback_metrics(grid)
        assert np.max(np.abs(g1 - g2)) < 1e-8

    def test_pullback_diagonal_is_unit(self):
        # each axis curve is unit speed, so g_ii = 1
        d = make_descriptor(("circle", "logistic"), (1.8, 1.8), eta=0.0, seed=5)
        g = makegen(d).pullback_metrics(unit_grid(2, 8).points())
        assert np.max(np.abs(g[:, 0, 0] - 1.0)) < 1e-6
        assert np.max(np.abs(g[:, 1, 1] - 1.0)) < 1e-6

    def test_adjacent_curves_share_a_coordinate(self):
        # the padding overlap makes g_12 = sin(alpha_1) cos(alpha_2) != 0
        d = make_descriptor(("circle", "circle"), (1.2, 1.2), eta=0.0, seed=5)
        g = makegen(d).pullback_metrics(np.array([[0.25, 0.1]]))
        assert abs(g[0, 0, 1]) > 1e-3


class TestEnumerateSuite:
    def test_suite_has_sixty_instances(self):
        suite = enumerate_suite(base_seed=0)
        assert len(suite) == 60

    def test_dimensions_and_parameters(self):
        for d in enumerate_suite(base_seed=0):
            assert d.n == 2 and d.m == 7
            assert d.eta == 0.01
            assert set(d.thetas) <= {1.2, 1.8}
            assert d.grid_resolution == 32

    def test_family_multiset_theta_coverage(self):
        suite = enumerate_suite(base_seed=0)
        flat_flat_instances = [
            d for d in suite if d.families == ("flat", "flat")
        ]
        assert len(flat_flat_instances) == 4
        assert {d.thetas for d in flat_flat_instances} == {
            (1.2, 1.2), (1.2, 1.8), (1.8, 1.2), (1.8, 1.8)
        }

    def test_instance_ids_unique_and_seeds_independent(self):
        suite = enumerate_suite(base_seed=123)
        ids = [d.instance_id for d in suite]
        assert len(set(ids)) == 60
        seeds = [d.seed for d in suite]
        assert len(set(seeds)) == 60

    def test_enumeration_is_deterministic(self):
        s1 = enumerate_suite(base_seed=9)
        s2 = enumerate_suite(base_seed=9)
        assert [d.instance_id for d in s1] == [d.instance_id for d in s2]
        assert [d.seed for d in s1] == [d.seed for d in s2]

    def test_seed_derivation_is_stable(self):
        # frozen: sha256-based stream derivation must never change silently
        assert derive_seed(0, "probe") == derive_seed(0, "probe")
        assert derive_seed(0, "probe") != derive_seed(1, "probe")

    def test_ids_follow_parameter_format(self):
        iid = instance_id_for(2, 7, ("flat", "circle"), (1.2, 1.8), 0.01, 32)
        assert iid == "flat1.2-circle1.8-e0.01-r32-n2m7"
