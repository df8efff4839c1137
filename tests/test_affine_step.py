"""The affine forward step of a quadratic penalized objective.

``_affine_step(phi)`` gives (M, c), with y - grad_step(y) = M y + c, exactly
when phi is ``assemble_penalized``'s sum of the shipped squared norm and the
shipped least-squares loss, A m x n with n <= 2m; the accelerated engine
then steps with one product by M.  Each test here checks one part of that
contract: the route rule, the agreement of the two forms to rounding level,
that the map follows the objective it is built from, and the scale
invariance of the iterates (criterion 8)."""

import dataclasses

import numpy as np
import pytest

from sbopt.apg import ApgConfig, pb_apg
from sbopt.bench.synth import synth_lsrp
from sbopt.model import (PenalizedObjective, SmoothTerm, _affine_step, _gram,
                         assemble_penalized, elastic_net_problem,
                         logistic_min_norm_problem, min_norm_problem)

EPS = np.finfo(float).eps


def _problem(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return elastic_net_problem(rng.normal(size=(m, n)), rng.normal(size=m),
                               tau=0.1)


def _route(instance, gamma=10.0):
    return _affine_step(assemble_penalized(instance, gamma).phi)


def _gap_bound(objective, M, c, y):
    # both forms round in sums of at most m + n products whose terms are
    # bounded by ||y|| or ||c||, as M's spectrum lies in [0, 1) and
    # (gamma/(m L)) ||A||^2 <= 1; the worst seen is 3.4 eps (||y|| + ||c||)
    m, n = objective.phi.payload[2].shape
    gap = np.abs((M @ y + c) - (y - objective.grad_step(y))).max()
    return gap, 2 * (m + n) * EPS * (np.linalg.norm(y) + np.linalg.norm(c))


class TestRoute:
    @pytest.mark.parametrize("m", [1, 3, 20])
    def test_chosen_up_to_n_equal_2m(self, m):
        for n in (1, m, 2 * m):
            assert _route(_problem(m, n)) is not None
        assert _route(_problem(m, 2 * m + 1)) is None

    def test_min_norm_problems_with_and_without_a_ball(self):
        rng = np.random.default_rng(1)
        A, b = rng.normal(size=(20, 5)), rng.normal(size=20)
        for inst in (min_norm_problem(A, b),
                     min_norm_problem(A, b, l1_radius=0.5)):
            assert _route(inst, 1e3) is not None

    def test_not_chosen_for_a_logistic_g1(self):
        rng = np.random.default_rng(2)
        inst = logistic_min_norm_problem(rng.normal(size=(20, 5)),
                                         rng.choice([-1.0, 1.0], size=20))
        assert _route(inst) is None

    def test_not_chosen_for_custom_terms(self):
        inst = _problem(10, 8)
        f1 = SmoothTerm(inst.f1.value_oracle, inst.f1.gradient_oracle,
                        inst.f1.lipschitz_grad, inst.f1.strong_convexity)
        g1 = SmoothTerm(inst.g1.value_oracle, inst.g1.gradient_oracle,
                        inst.g1.lipschitz_grad)
        bare = dataclasses.replace(inst.g1, payload=None)
        for custom in (dataclasses.replace(inst, f1=f1),
                       dataclasses.replace(inst, g1=g1),
                       dataclasses.replace(inst, g1=bare)):
            assert _route(custom) is None

    def test_not_chosen_for_the_lower_objective_linked_to_its_instance(self):
        # phi = g1 alone, as the G* reference solves it: the instance's terms
        # would give a map with the tau term that this phi does not have
        inst = _problem(10, 8)
        objective = assemble_penalized(inst, 10.0)
        lower = PenalizedObjective(gamma=1.0, phi=inst.g1, psi=objective.psi,
                                   instance=inst)
        assert _affine_step(lower.phi) is None


class TestAgreesWithTheGradientStep:
    def test_random_instances(self):
        rng = np.random.default_rng(30)
        for i in range(200):
            m = int(rng.integers(1, 50))
            n = int(rng.integers(1, 2 * m + 1))
            A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-2, 2)
            b = rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2)
            inst = (elastic_net_problem(A, b, tau=10.0 ** rng.uniform(-3, 1))
                    if i % 2 else min_norm_problem(A, b))
            gamma = 10.0 ** rng.uniform(-2, 6)
            objective = assemble_penalized(inst, gamma)
            M, c = _affine_step(objective.phi)
            for _ in range(5):
                y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
                gap, bound = _gap_bound(objective, M, c, y)
                assert gap <= bound, (m, n, gamma)

    def test_a_replaced_constant_moves_the_map_with_the_gradient_step(self):
        # the map is built from the objective's own phi on each run, so a
        # phi with another step constant gives the map of that constant
        rng = np.random.default_rng(31)
        objective = assemble_penalized(_problem(12, 20), 1e3)
        phi = objective.phi
        for L in (2.0 * phi.lipschitz_grad, 10.0 * phi.lipschitz_grad):
            moved = dataclasses.replace(
                objective, phi=dataclasses.replace(phi, lipschitz_grad=L))
            M, c = _affine_step(moved.phi)
            for _ in range(5):
                gap, bound = _gap_bound(moved, M, c, rng.normal(size=20))
                assert gap <= bound, L


class TestGram:
    def test_formed_once_per_term_and_only_for_a_read_only_a(self):
        inst = _problem(12, 20)
        A = inst.g1.payload[0]
        assert not A.flags.writeable
        assert _gram(A) is _gram(A)
        for gamma in (1.0, 1e3):
            M, _ = _route(inst, gamma)
            assert not np.shares_memory(M, _gram(A))
        # a caller's writable array may change, so its A'A is formed anew
        B = np.array(A)
        G = _gram(B)
        B[0, 0] += 1.0
        assert _gram(B) is not G
        np.testing.assert_allclose(_gram(B), B.T @ B, rtol=1e-12, atol=1e-9)


class TestScaleInvariance:
    def test_scaled_objective_takes_the_same_iterates(self):
        # criterion 8: c * Phi_gamma with step constant c * L_gamma takes the
        # same steps, bit for bit, on the affine route too
        objective = assemble_penalized(synth_lsrp(30, 45, 2), 1e3)
        assert _affine_step(objective.phi) is not None
        cfg = ApgConfig(epsilon=1e-30, max_iters=400, restart=True,
                        keep_iterates=True)
        x0 = np.zeros(45)
        _, ref = pb_apg(objective, x0, cfg)
        assert len(ref.iterates) == 401
        for c in (1e-3, 1.0 / 3.0, 7.0):
            _, trace = pb_apg(objective.scaled(c), x0, cfg)
            assert len(trace.iterates) == 401
            for got, want in zip(trace.iterates, ref.iterates):
                assert got.tobytes() == want.tobytes(), c
