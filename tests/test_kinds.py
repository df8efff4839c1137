"""The term kinds: each built-in kind's value, prox and subgradient are the
closed-form mappings of ``sbopt.prox`` bit for bit, an unknown kind is a
typed error, and a ``Domain`` is its indicator term."""

import math

import numpy as np
import pytest

from helpers import single_level
from sbopt.errors import InvalidStrongConvexity, UnsupportedTerm
from sbopt.model import NonsmoothTerm
from sbopt.prox import project_box, project_l1_ball, prox_l1
from sbopt.subgrad import (Domain, StronglyConvex, SubgradConfig,
                           assemble_subgradient, subgrad_solve,
                           subgradient_oracle)

RNG = np.random.default_rng(5)
POINTS = [RNG.normal(scale=2.0, size=6) for _ in range(5)] + [
    np.array([0.0, -0.0, 1.5, -1.5, 3.0, 0.25])]
LO = np.array([-1.0, -0.5, -2.0, 0.0, -1.0, -3.0])
HI = np.array([1.0, 0.5, 0.0, 2.0, 1.0, 3.0])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKindTable:
    @pytest.mark.parametrize("weight,c,t", [(1.0, 1.0, 0.3), (0.7, 3.5, 0.013),
                                            (2.5, 1e-3, 11.0)])
    def test_l1(self, weight, c, t):
        term = NonsmoothTerm.l1_norm(weight)
        prox = term.prox(c)
        for y in POINTS:
            assert term.value(y) == weight * float(np.abs(y).sum())
            assert _same(prox(y, t), prox_l1(y, t * (c * weight)))
            assert _same(term.subgradient(y), weight * np.sign(y))

    def test_l1_ball(self):
        term = NonsmoothTerm.indicator_l1_ball(2.0)
        prox = term.prox(7.0)
        for y in POINTS:
            p = prox(y, 0.4)
            assert _same(p, project_l1_ball(y, 2.0))
            assert term.value(p) == 0.0
            inside = float(np.abs(y).sum()) <= 2.0 * (1 + 1e-12)
            assert term.value(y) == (0.0 if inside else math.inf)
        assert term.norm_bound == 2.0
        with pytest.raises(UnsupportedTerm):
            term.subgradient(POINTS[0])

    def test_box(self):
        term = NonsmoothTerm.indicator_box(LO, HI)
        prox = term.prox(0.5)
        for y in POINTS:
            p = prox(y, 3.0)
            assert _same(p, project_box(y, LO, HI))
            assert term.value(p) == 0.0
            inside = bool(np.all(y >= LO) and np.all(y <= HI))
            assert term.value(y) == (0.0 if inside else math.inf)
        assert term.norm_bound == float(np.linalg.norm(np.maximum(np.abs(LO),
                                                                  np.abs(HI))))
        with pytest.raises(UnsupportedTerm):
            term.subgradient(POINTS[0])

    def test_zero(self):
        term = NonsmoothTerm.zero()
        prox = term.prox(4.0)
        for y in POINTS:
            assert term.value(y) == 0.0
            p = prox(y, 2.0)
            assert _same(p, y) and p is not y
            assert _same(term.subgradient(y), np.zeros_like(y))
        assert term.norm_bound == math.inf

    def test_custom(self):
        calls = []

        def prox_oracle(y, t):
            calls.append(t)
            return y * 0.5

        term = NonsmoothTerm.custom(lambda x: 3, prox_oracle=prox_oracle,
                                    subgrad_oracle=lambda x: -x)
        assert term.value(POINTS[0]) == 3.0 and type(term.value(POINTS[0])) is float
        assert _same(term.prox(0.7)(POINTS[0], 0.3), POINTS[0] * 0.5)
        assert calls == [0.3 * 0.7]
        assert _same(term.subgradient(POINTS[0]), -POINTS[0])
        assert term.norm_bound is None

        bare = NonsmoothTerm.custom(lambda x: 0.0)
        assert bare.prox(1.0) is None
        with pytest.raises(UnsupportedTerm):
            bare.subgradient(POINTS[0])

    def test_subgradient_oracle_delegates_to_the_term(self):
        term = NonsmoothTerm.l1_norm(0.3)
        for y in POINTS:
            assert _same(subgradient_oracle(term, y), term.subgradient(y))

    def test_subgradient_bound(self):
        # weight*sqrt(n) for l1, the custom term's lipschitz; None for the
        # kinds that add no subgradient
        assert NonsmoothTerm.l1_norm(0.3).subgradient_bound(16) == 0.3 * 4.0
        assert NonsmoothTerm.custom(lambda x: 0.0,
                                    lipschitz=2.5).subgradient_bound(16) == 2.5
        for term in (NonsmoothTerm.zero(), NonsmoothTerm.indicator_l1_ball(1.0),
                     NonsmoothTerm.indicator_box(LO, HI)):
            assert term.subgradient_bound(6) is None
        with pytest.raises(UnsupportedTerm):
            NonsmoothTerm.custom(lambda x: 0.0).subgradient_bound(6)

    def test_unknown_kind_is_a_typed_error(self):
        with pytest.raises(UnsupportedTerm) as err:
            NonsmoothTerm(kind="L1")
        assert "L1" in str(err.value)


class TestDomainIsItsIndicator:
    @pytest.mark.parametrize("make_domain,term", [
        (Domain.all_space, NonsmoothTerm.zero()),
        (lambda: Domain.l1_ball(2.0), NonsmoothTerm.indicator_l1_ball(2.0)),
        (lambda: Domain.box(LO, HI), NonsmoothTerm.indicator_box(LO, HI)),
    ])
    def test_contains_and_project_agree_with_the_term(self, make_domain, term):
        domain = make_domain()
        prox = term.prox(1.0)
        for y in POINTS + [2.0 * p for p in POINTS]:
            assert domain.contains(y) == (term.value(y) == 0.0)
            assert _same(domain.project(y), prox(y, 1.0))
            assert domain.contains(domain.project(y))
        assert domain.bounded == term.is_indicator
        assert domain.bounded == math.isfinite(term.norm_bound)

    def test_unbounded_box_is_not_bounded(self):
        # a box with an infinite side bounds nothing, so the strongly
        # convex schedule rejects it as it rejects all of R^n
        domain = Domain.box([-math.inf, 0.0], [math.inf, 1.0])
        assert not domain.bounded
        assert Domain.box([-1.0, 0.0], [1.0, 1.0]).bounded
        f2 = NonsmoothTerm.custom(lambda x: float(x @ x), lipschitz=1.0,
                                  subgrad_oracle=lambda x: 2.0 * x)
        objective = assemble_subgradient(single_level(f2, 2), 1.0, domain)
        config = SubgradConfig(schedule=StronglyConvex(2.0), max_iters=5,
                               domain=domain)
        with pytest.raises(InvalidStrongConvexity):
            subgrad_solve(objective, np.zeros(2), config)

    def test_box_boundary_is_exact_in_both(self):
        # 1 + 1e-13 is outside [-1, 1]: the box rule admits no slack, so
        # Domain.contains and the term's value agree at the boundary
        x = np.array([1.0 + 1e-13])
        domain = Domain.box([-1.0], [1.0])
        term = NonsmoothTerm.indicator_box([-1.0], [1.0])
        assert not domain.contains(x)
        assert term.value(x) == math.inf
        edge = np.array([1.0])
        assert domain.contains(edge) and term.value(edge) == 0.0
        assert _same(domain.project(x), edge)

    def test_non_indicator_term_rejected(self):
        with pytest.raises(UnsupportedTerm):
            Domain(NonsmoothTerm.l1_norm(1.0))
