"""Proximal mappings: closed forms against grid search, Moreau optimality,
projection idempotence, firm nonexpansiveness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (grid_project_l1_ball_2d, grid_project_l1_ball_3d,
                     grid_prox_separable)
from sbopt.errors import NonComposableProx
from sbopt.model import NonsmoothTerm
from sbopt.prox import compose_prox, project_box, project_l1_ball, prox_l1

vectors = st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=1,
                   max_size=6).map(lambda v: np.asarray(v))


class TestProxL1:
    def test_hand_values(self):
        np.testing.assert_allclose(prox_l1(np.array([2.0]), 0.5), [1.5])
        np.testing.assert_allclose(prox_l1(np.array([0.3]), 0.5), [0.0])
        np.testing.assert_allclose(prox_l1(np.array([-1.0, 1.0, 0.0]), 1.0),
                                   [0.0, 0.0, 0.0])

    def test_moreau_optimality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.normal(size=6) * 3
            t = 10 ** rng.uniform(-2, 1)
            p = prox_l1(y, t)
            r = (y - p) / t
            assert np.all(np.abs(r) <= 1.0 + 1e-10)
            nz = p != 0
            np.testing.assert_allclose(r[nz], np.sign(p[nz]), atol=1e-10)

    @given(u=vectors, v=st.data())
    @settings(max_examples=60, deadline=None)
    def test_firmly_nonexpansive(self, u, v):
        w = v.draw(st.lists(st.floats(-4.0, 4.0, allow_nan=False),
                            min_size=len(u), max_size=len(u)).map(np.asarray))
        d_in = np.linalg.norm(u - w)
        d_out = np.linalg.norm(prox_l1(u, 0.7) - prox_l1(w, 0.7))
        assert d_out <= d_in + 1e-12


class TestProjectL1Ball:
    def test_hand_values(self):
        y = np.array([0.5, -0.3])
        np.testing.assert_array_equal(project_l1_ball(y, 1.0), y)
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0),
                                   [1.0, 0.0])
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 1.0]), 1.0),
                                   [1.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.normal(size=5) * 4
            p = project_l1_ball(y, 1.3)
            np.testing.assert_array_equal(project_l1_ball(p, 1.3), p)

    def test_matches_2d_grid_search(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            y = rng.uniform(-4, 4, size=2)
            r = 1.0 + 2 * rng.random()
            got = project_l1_ball(y, r)
            want = grid_project_l1_ball_2d(y, r)
            assert np.max(np.abs(got - want)) <= 2e-3

    def test_matches_3d_grid_search(self):
        rng = np.random.default_rng(4)
        for _ in range(2):
            y = rng.uniform(-4, 4, size=3)
            r = 1.0 + rng.random()
            got = project_l1_ball(y, r)
            want = grid_project_l1_ball_3d(y, r)
            assert np.max(np.abs(got - want)) <= 2e-3

    @given(u=vectors)
    @settings(max_examples=60, deadline=None)
    def test_feasible_output(self, u):
        p = project_l1_ball(u, 1.5)
        assert np.sum(np.abs(p)) <= 1.5 + 1e-9


class TestComposeProx:
    def test_indicator_is_gamma_invariant(self):
        ball = NonsmoothTerm.indicator_l1_ball(2.0)
        zero = NonsmoothTerm.zero()
        rng = np.random.default_rng(5)
        s1 = compose_prox(zero, ball, 1e5)
        s2 = compose_prox(zero, ball, 3.7)
        for _ in range(20):
            y = rng.normal(size=4) * 5
            np.testing.assert_array_equal(s1.prox(y, 0.1), s2.prox(y, 0.1))
            np.testing.assert_array_equal(s1.prox(y, 0.1), project_l1_ball(y, 2.0))

    def test_l1_with_zero_has_unit_weight(self):
        spec = compose_prox(NonsmoothTerm.l1_norm(1.0), NonsmoothTerm.zero(), 123.0)
        y = np.array([2.0, -0.4])
        np.testing.assert_array_equal(spec.prox(y, 0.5), prox_l1(y, 0.5))

    def test_l1_in_gamma_slot_scales(self):
        spec = compose_prox(NonsmoothTerm.zero(), NonsmoothTerm.l1_norm(0.5), 4.0)
        y = np.array([3.0, -3.0])
        np.testing.assert_array_equal(spec.prox(y, 0.5), prox_l1(y, 0.5 * 4.0 * 0.5))

    def test_l1_plus_box_matches_grid(self):
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        spec = compose_prox(NonsmoothTerm.l1_norm(1.0),
                            NonsmoothTerm.indicator_box(lo, hi), 2.0)
        rng = np.random.default_rng(6)
        for _ in range(3):
            y = rng.uniform(-3, 3, size=3)
            t = 0.5
            got = spec.prox(y, t)

            def coord(j):
                return lambda v: np.abs(v) + np.where(
                    (v >= -1.0) & (v <= 1.0), 0.0, np.inf)
            want = grid_prox_separable([coord(j) for j in range(3)], y, t)
            assert np.max(np.abs(got - want)) <= 2e-3
            np.testing.assert_allclose(
                got, project_box(prox_l1(y, t), lo, hi), atol=1e-15)

    def test_box_plus_l1_scales_the_weight_by_gamma(self):
        # in the gamma slot the l1 weight is gamma * w: 2.5 * 0.4 = 1
        lo, hi = np.full(3, -1.0), np.full(3, 1.5)
        spec = compose_prox(NonsmoothTerm.indicator_box(lo, hi),
                            NonsmoothTerm.l1_norm(0.4), 2.5)
        y = np.array([3.0, -0.3, 1.2])
        np.testing.assert_array_equal(
            spec.prox(y, 0.5), project_box(prox_l1(y, 0.5), lo, hi))
        np.testing.assert_allclose(spec.prox(y, 0.5), [1.5, 0.0, 0.7])

    def test_box_pair_projects_onto_the_intersection(self):
        spec = compose_prox(
            NonsmoothTerm.indicator_box(np.array([-1.0, 0.0]),
                                        np.array([2.0, 3.0])),
            NonsmoothTerm.indicator_box(np.array([-2.0, 0.5]),
                                        np.array([1.0, 4.0])), 7.0)
        for y, want in (([5.0, -5.0], [1.0, 0.5]), ([-5.0, 5.0], [-1.0, 3.0]),
                        ([0.25, 1.0], [0.25, 1.0])):
            np.testing.assert_array_equal(spec.prox(np.array(y), 0.1), want)

    def test_disjoint_boxes_are_not_composable(self):
        with pytest.raises(NonComposableProx, match="intersection is empty"):
            compose_prox(NonsmoothTerm.indicator_box(np.zeros(2), np.ones(2)),
                         NonsmoothTerm.indicator_box(np.array([0.0, 2.0]),
                                                     np.array([1.0, 3.0])),
                         1.0)

    def test_l1_plus_l1_adds_weights(self):
        spec = compose_prox(NonsmoothTerm.l1_norm(1.0), NonsmoothTerm.l1_norm(2.0), 3.0)
        y = np.array([10.0, -10.0])
        np.testing.assert_array_equal(spec.prox(y, 0.1), prox_l1(y, 0.1 * 7.0))

    def test_ball_pair_takes_smaller_radius(self):
        spec = compose_prox(NonsmoothTerm.indicator_l1_ball(1.0),
                            NonsmoothTerm.indicator_l1_ball(2.5), 9.0)
        y = np.array([4.0, 0.0])
        np.testing.assert_allclose(spec.prox(y, 1.0), [1.0, 0.0])

    def test_unsupported_pair_raises(self):
        with pytest.raises(NonComposableProx):
            compose_prox(NonsmoothTerm.l1_norm(1.0),
                         NonsmoothTerm.indicator_l1_ball(1.0), 1.0)

    def test_evaluate_extended_real(self):
        spec = compose_prox(NonsmoothTerm.l1_norm(2.0),
                            NonsmoothTerm.indicator_box(np.array([-1.0]),
                                                        np.array([1.0])), 5.0)
        assert spec.evaluate(np.array([0.5])) == pytest.approx(1.0)
        assert spec.evaluate(np.array([2.0])) == np.inf

    def test_separable_proxes_match_grid(self):
        # every supported prox on n <= 3 against the 1-D exhaustive oracle
        rng = np.random.default_rng(7)
        cases = [
            (compose_prox(NonsmoothTerm.l1_norm(0.8), NonsmoothTerm.zero(), 1.0),
             lambda j: lambda v: 0.8 * np.abs(v)),
            (compose_prox(NonsmoothTerm.zero(),
                          NonsmoothTerm.indicator_box(np.full(3, -0.7),
                                                      np.full(3, 1.2)), 2.0),
             lambda j: lambda v: np.where((v >= -0.7) & (v <= 1.2), 0.0, np.inf)),
        ]
        for spec, coord in cases:
            y = rng.uniform(-4, 4, size=3)
            t = 0.7
            got = spec.prox(y, t)
            want = grid_prox_separable([coord(j) for j in range(3)], y, t)
            assert np.max(np.abs(got - want)) <= 2e-3

    @given(u=vectors)
    @settings(max_examples=40, deadline=None)
    def test_composed_prox_firmly_nonexpansive(self, u):
        spec = compose_prox(NonsmoothTerm.l1_norm(1.0),
                            NonsmoothTerm.indicator_box(
                                np.full(len(u), -1.0), np.full(len(u), 1.0)), 2.0)
        v = u + 0.3
        d_out = np.linalg.norm(spec.prox(u, 0.5) - spec.prox(v, 0.5))
        assert d_out <= np.linalg.norm(u - v) + 1e-12
