"""Model layer: oracles, constants, penalized assembly."""

import dataclasses

import numpy as np
import pytest

import sbopt
from helpers import central_diff, toy_quadratic_instance
from sbopt.adaptive import LadderConfig, apb_apg, ladder_entry_index
from sbopt.apg import ApgConfig, iteration_budget, pb_apg, pb_apg_sc, sc_budget
from sbopt.errors import (DimensionMismatch, InvalidErrorBound, InvalidLadder,
                          InvalidStrongConvexity, NonComposableProx,
                          Nonconvergence, UnsupportedTerm)
from sbopt.model import (BilevelInstance, NonsmoothTerm, SmoothTerm,
                         assemble_penalized, lambda_max_gram,
                         least_squares_value_grad, lipschitz_least_squares,
                         lipschitz_logistic, logistic_value_grad, max_affine,
                         min_norm_problem, squared_norm_term)
from sbopt.penalty import gamma_star, gamma_total, suboptimality_lower_bound
from sbopt.prox import compose_prox
from sbopt.reference import lower_opt_value, upper_opt_value
from sbopt.subgrad import (Diminishing, Domain, StronglyConvex, SubgradConfig,
                           assemble_nonsmooth, subgrad_solve)


class TestLipschitzCalculators:
    def test_logistic_hand_values(self):
        assert lipschitz_logistic(np.array([[2.0]])) == pytest.approx(1.0, rel=1e-10)
        assert lipschitz_logistic(np.eye(2)) == pytest.approx(1.0 / 8.0, rel=1e-10)

    def test_logistic_zero_matrix(self):
        assert lipschitz_logistic(np.zeros((3, 2))) == 0.0

    def test_least_squares_hand_values(self):
        assert lipschitz_least_squares(np.array([[2.0]])) == pytest.approx(4.0, rel=1e-10)
        assert lipschitz_least_squares(np.diag([1.0, 3.0])) == pytest.approx(4.5, rel=1e-10)
        assert lipschitz_least_squares(np.zeros((2, 2))) == 0.0

    def test_power_iteration_matches_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
            lam = lambda_max_gram(A)
            expected = float(np.linalg.eigvalsh(A.T @ A)[-1])
            assert lam == pytest.approx(expected, rel=1e-8)


class TestLogisticOracle:
    def test_value_at_zero(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        b = np.array([1.0, -1.0, 1.0])
        v, g = logistic_value_grad(A, b, np.zeros(2))
        assert v == pytest.approx(np.log(2.0), rel=1e-14)
        np.testing.assert_allclose(g, -(A.T @ b) / (2 * len(b)), rtol=1e-14)

    def test_large_margin_is_stable(self):
        v, g = logistic_value_grad(np.array([[1.0]]), np.array([1.0]),
                                   np.array([10.0]))
        assert v == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-12)
        v, g = logistic_value_grad(np.array([[1.0]]), np.array([1.0]),
                                   np.array([1000.0]))
        assert np.isfinite(v) and np.isfinite(g).all()
        v, _ = logistic_value_grad(np.array([[1.0]]), np.array([-1.0]),
                                   np.array([1000.0]))
        assert v == pytest.approx(1000.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m, n = rng.integers(2, 8), rng.integers(2, 6)
            A = rng.normal(size=(m, n))
            b = rng.choice([-1.0, 1.0], size=m)
            x = rng.normal(size=n)
            _, g = logistic_value_grad(A, b, x)
            fd = central_diff(lambda z: logistic_value_grad(A, b, z)[0], x)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            logistic_value_grad(np.eye(2), np.ones(3), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            least_squares_value_grad(np.eye(2), np.ones(2), np.zeros(3))


class TestSmoothTermContracts:
    def test_gradients_match_finite_differences_on_shipped_losses(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        terms = [sbopt.least_squares_smooth_term(A, b),
                 sbopt.logistic_smooth_term(A, np.sign(b) + (np.sign(b) == 0)),
                 squared_norm_term(0.7)]
        for term in terms:
            for _ in range(5):
                x = rng.normal(size=4)
                h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
                fd = central_diff(term.value, x, h=h)
                np.testing.assert_allclose(term.grad(x), fd, rtol=1e-5, atol=1e-8)

    def test_lipschitz_bound_holds_on_random_pairs(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(7, 5))
        b = rng.choice([-1.0, 1.0], size=7)
        term = sbopt.logistic_smooth_term(A, b)
        for _ in range(50):
            x, y = rng.normal(size=5), rng.normal(size=5)
            lhs = np.linalg.norm(term.grad(x) - term.grad(y))
            assert lhs <= term.lipschitz_grad * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_shipped_losses_do_not_alias_caller_arrays(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(7, 5))
        b = rng.choice([-1.0, 1.0], size=7)
        x = rng.normal(size=5)
        for make in (sbopt.logistic_smooth_term, sbopt.least_squares_smooth_term):
            A_own, b_own = A.copy(), b.copy()
            term = make(A_own, b_own)
            value, grad, lip = term.value(x), term.grad(x), term.lipschitz_grad
            A_own *= 10.0
            b_own *= -1.0
            assert term.value(x) == value
            np.testing.assert_array_equal(term.grad(x), grad)
            assert term.lipschitz_grad == lip
            for arr in term.payload:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_shipped_losses_reject_wrong_length_points(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 4))
        b = rng.choice([-1.0, 1.0], size=6)
        for make in (sbopt.logistic_smooth_term, sbopt.least_squares_smooth_term):
            term = make(A, b)
            for x in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
                for oracle in (term.value, term.grad, term.value_grad):
                    with pytest.raises(DimensionMismatch):
                        oracle(x)
            with pytest.raises(DimensionMismatch):
                make(A, b[:5])

    def test_strong_convexity_quadratic_lower_bound(self):
        # upper level of the logistic family: (1/2)||x||^2 with mu = 1
        term = squared_norm_term(1.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            lhs = term.value(y)
            rhs = (term.value(x) + term.grad(x) @ (y - x)
                   + 0.5 * term.strong_convexity * np.sum((y - x) ** 2))
            assert lhs >= rhs - 1e-12


class TestNonsmoothTerm:
    def test_indicator_values(self):
        ball = NonsmoothTerm.indicator_l1_ball(1.0)
        assert ball.value(np.array([0.5, -0.4])) == 0.0
        assert ball.value(np.array([2.0, 0.0])) == np.inf
        box = NonsmoothTerm.indicator_box(np.array([-1.0]), np.array([1.0]))
        assert box.value(np.array([0.3])) == 0.0
        assert box.value(np.array([1.5])) == np.inf

    def test_l1_value(self):
        t = NonsmoothTerm.l1_norm(2.0)
        assert t.value(np.array([1.0, -3.0])) == pytest.approx(8.0)

    def test_max_affine_lowest_index_at_ties(self):
        term = max_affine(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                          np.array([0.0, 0.0, 0.0]))
        g = term.subgrad_oracle(np.array([1.0, 1.0]))  # rows 0,1,2 all tie
        np.testing.assert_array_equal(g, np.array([1.0, 0.0]))

    def test_max_affine_and_box_do_not_alias_caller_arrays(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        c = np.array([1.0, 0.0])
        term = max_affine(A, c)
        x = np.array([1.0, 0.5])
        value, lip = term.value(x), term.lipschitz
        assert (value, lip) == (2.0, 1.0)
        A *= 10.0
        assert term.value(x) == value
        assert term.lipschitz == lip
        np.testing.assert_array_equal(term.subgrad_oracle(x), [1.0, 0.0])

        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        box = NonsmoothTerm.indicator_box(lo, hi)
        hi[:] = lo
        assert box.value(np.array([0.5, -0.5])) == 0.0
        assert not box.lo.flags.writeable and not box.hi.flags.writeable

    def test_max_affine_subgradient_inequality(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 3))
        c = rng.normal(size=4)
        term = max_affine(A, c)
        for _ in range(100):
            x = rng.normal(size=3)
            g = term.subgrad_oracle(x)
            y = rng.normal(size=3)
            assert term.value(y) >= term.value(x) + g @ (y - x) - 1e-10


class TestInstanceValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(InvalidErrorBound):
            BilevelInstance(dim=1, f1=squared_norm_term(), f2=NonsmoothTerm.zero(),
                            g1=SmoothTerm.zero(), g2=NonsmoothTerm.zero(),
                            alpha=0.5, rho=1.0, subgrad_diameter=1.0)

    def test_rho_nonpositive_rejected(self):
        with pytest.raises(InvalidErrorBound):
            BilevelInstance(dim=1, f1=squared_norm_term(), f2=NonsmoothTerm.zero(),
                            g1=SmoothTerm.zero(), g2=NonsmoothTerm.zero(),
                            alpha=1.0, rho=0.0, subgrad_diameter=1.0)


class TestAssemblePenalized:
    def test_constants_and_gradient_linearity(self):
        inst = toy_quadratic_instance()
        rng = np.random.default_rng(11)
        for _ in range(20):
            gamma = float(10 ** rng.uniform(-2, 4))
            obj = assemble_penalized(inst, gamma)
            assert obj.phi.lipschitz_grad == inst.f1.lipschitz_grad + gamma * inst.g1.lipschitz_grad
            x = rng.normal(size=1)
            np.testing.assert_allclose(
                obj.phi.grad(x) - inst.f1.grad(x), gamma * inst.g1.grad(x),
                rtol=1e-12, atol=1e-12)

    def test_zero_lower_smooth_part(self):
        inst = toy_quadratic_instance()
        import dataclasses
        inst0 = dataclasses.replace(inst, g1=SmoothTerm.zero())
        obj = assemble_penalized(inst0, 1.0)
        assert obj.l_gamma == inst.f1.lipschitz_grad

    def test_hand_derived_1d(self):
        # f1 = (1/2)(x-1)^2, g1 = (1/2)x^2, gamma=2: L = 3, grad(phi)(1) = 2
        f1 = SmoothTerm(lambda x: 0.5 * float((x[0] - 1) ** 2), lambda x: x - 1.0, 1.0, 1.0)
        g1 = SmoothTerm(lambda x: 0.5 * float(x[0] ** 2), lambda x: x.copy(), 1.0, 1.0)
        inst = BilevelInstance(dim=1, f1=f1, f2=NonsmoothTerm.zero(), g1=g1,
                               g2=NonsmoothTerm.zero(), alpha=2.0, rho=1.0,
                               subgrad_diameter=1.0)
        obj = assemble_penalized(inst, 2.0)
        assert obj.l_gamma == 3.0
        assert obj.phi.grad(np.array([1.0]))[0] == 2.0

    def test_lrp_shape(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(8, 5))
        b = rng.choice([-1.0, 1.0], size=8)
        inst = sbopt.logistic_min_norm_problem(A, b, l1_radius=10.0)
        gamma = 1e5
        obj = assemble_penalized(inst, gamma)
        # phi gradient at 0 is gamma * grad g1(0), since grad f1(0) = 0
        np.testing.assert_allclose(obj.phi.grad(np.zeros(5)),
                                   gamma * inst.g1.grad(np.zeros(5)), rtol=1e-12)
        # psi prox is the L1-ball projection, gamma-independent
        y = rng.normal(size=5) * 20
        np.testing.assert_array_equal(obj.psi.prox(y, 1.0 / obj.l_gamma),
                                      sbopt.project_l1_ball(y, 10.0))

    def test_non_composable_pair(self):
        inst = toy_quadratic_instance()
        import dataclasses
        bad = dataclasses.replace(
            inst, f2=NonsmoothTerm.l1_norm(1.0),
            g2=NonsmoothTerm.indicator_l1_ball(1.0))
        with pytest.raises(NonComposableProx):
            assemble_penalized(bad, 1.0)

    def test_gamma_positive_required(self):
        with pytest.raises(ValueError):
            assemble_penalized(toy_quadratic_instance(), 0.0)


class TestScaledView:
    def test_reported_constants_scale(self):
        inst = toy_quadratic_instance()
        obj = assemble_penalized(inst, 3.0)
        sc = obj.scaled(10.0)
        assert sc.l_gamma == pytest.approx(10.0 * obj.l_gamma)
        x = np.array([0.7])
        assert sc.value(x) == pytest.approx(10.0 * obj.value(x))

    def test_step_path_is_scale_free(self):
        inst = toy_quadratic_instance()
        obj = assemble_penalized(inst, 3.0)
        sc = obj.scaled(1.0 / 3.0)
        y = np.array([0.4])
        np.testing.assert_array_equal(obj.grad_step(y), sc.grad_step(y))
        np.testing.assert_array_equal(obj.prox_step(y), sc.prox_step(y))



def _nan_cases():
    """(id, call with one NaN argument, the exception and message its check
    raises for a bad finite value)."""
    nan = float("nan")
    inst = toy_quadratic_instance()
    obj = assemble_penalized(inst, 1.0)
    cfg = ApgConfig(epsilon=1e-6)
    x0 = np.zeros(1)
    l1 = NonsmoothTerm.l1_norm(1.0)
    l1_lip = dataclasses.replace(l1, lipschitz=1.0)
    A, b = np.eye(3), np.ones(3)
    nan_l = dataclasses.replace(obj.phi, lipschitz_grad=nan)
    return [
        ("l1_norm", lambda: NonsmoothTerm.l1_norm(nan),
         ValueError, "l1 weight must be positive"),
        ("l1_ball", lambda: NonsmoothTerm.indicator_l1_ball(nan),
         ValueError, "l1 ball radius must be positive"),
        ("box", lambda: NonsmoothTerm.indicator_box([0.0], [nan]),
         ValueError, "box bounds must satisfy"),
        ("compose_prox", lambda: compose_prox(l1, l1, nan),
         ValueError, "gamma must be positive"),
        ("dim", lambda: dataclasses.replace(inst, dim=nan),
         ValueError, "dim must be a positive integer"),
        ("alpha", lambda: dataclasses.replace(inst, alpha=nan),
         InvalidErrorBound, "alpha must be >= 1"),
        ("rho", lambda: min_norm_problem(A, b, rho=nan),
         InvalidErrorBound, "rho must be positive"),
        ("l_f", lambda: min_norm_problem(A, b, l_f=nan),
         ValueError, "subgrad_diameter must be positive"),
        ("assemble_penalized", lambda: assemble_penalized(inst, nan),
         ValueError, "gamma must be positive"),
        ("scaled", lambda: obj.scaled(nan),
         ValueError, "scale factor must be positive"),
        ("apg_epsilon", lambda: pb_apg(obj, x0, ApgConfig(epsilon=nan)),
         ValueError, "epsilon must be positive"),
        ("apg_radius", lambda: ApgConfig(epsilon=1e-6, radius_bound=nan),
         ValueError, "radius_bound must be positive"),
        ("apg_record_every", lambda: ApgConfig(epsilon=1e-6, record_every=nan),
         ValueError, "record_every must be a positive integer"),
        ("pb_apg_lipschitz",
         lambda: pb_apg(dataclasses.replace(obj, phi=nan_l), x0, cfg),
         ValueError, "positive Lipschitz constant"),
        ("pb_apg_sc_mu", lambda: pb_apg_sc(obj, nan, x0, cfg),
         InvalidStrongConvexity, "need 0 < mu <= L_gamma"),
        ("iteration_budget", lambda: iteration_budget(1.0, 1.0, nan),
         ValueError, "l_gamma, radius and epsilon must be positive"),
        ("sc_budget_mu", lambda: sc_budget(1.0, nan, 1.0, 1.0),
         InvalidStrongConvexity, "need 0 < mu <= l_gamma"),
        ("sc_budget_radius", lambda: sc_budget(1.0, 0.5, nan, 1.0),
         ValueError, "radius and epsilon must be positive"),
        ("apb_apg_nu", lambda: apb_apg(inst, x0, LadderConfig(
            gamma0=1.0, nu=nan, eta=10.0, epsilon0=1e-6), cfg),
         InvalidLadder, "need nu > 1 and eta > 1"),
        ("ladder_gamma0", lambda: LadderConfig(
            gamma0=nan, nu=20.0, eta=10.0, epsilon0=1e-6),
         InvalidLadder, "gamma0, epsilon0 and stop_epsilon must be positive"),
        ("entry_alpha", lambda: ladder_entry_index(
            nan, 1.0, 1.0, 1.0, 1.0, 20.0, 10.0),
         InvalidErrorBound, "alpha must be >= 1"),
        ("entry_eta", lambda: ladder_entry_index(
            2.0, 1.0, 1.0, 1.0, 1.0, 20.0, nan),
         InvalidLadder, "need nu > 1 and eta > 1"),
        ("gamma_star", lambda: gamma_star(nan, 1.0, 1.0, 1e-3),
         InvalidErrorBound, "alpha must be >= 1"),
        ("gamma_star_epsilon", lambda: gamma_star(2.0, 1.0, 1.0, nan),
         InvalidErrorBound, "rho, l_f and epsilon must be positive"),
        ("gamma_total_beta", lambda: gamma_total(2.0, 1.0, 1.0, 1e-3, nan),
         InvalidErrorBound, "beta must be positive"),
        ("lower_bound_beta", lambda: suboptimality_lower_bound(
            2.0, 1.0, 1.0, 1e-3, nan),
         InvalidErrorBound, "beta must be positive"),
        ("diminishing", lambda: Diminishing(nan),
         ValueError, "radius must be positive"),
        ("strongly_convex", lambda: StronglyConvex(nan),
         ValueError, "mu must be positive"),
        ("assemble_nonsmooth", lambda: assemble_nonsmooth(l1, l1, nan),
         ValueError, "gamma must be positive"),
        ("subgrad_max_iters", lambda: SubgradConfig(
            Diminishing(1.0), nan, Domain.all_space()),
         ValueError, "max_iters must be positive"),
        ("subgrad_record_every", lambda: SubgradConfig(
            Diminishing(1.0), 10, Domain.all_space(), record_every=nan),
         ValueError, "record_every must be a positive integer"),
        ("subgrad_lipschitz", lambda: subgrad_solve(
            dataclasses.replace(assemble_nonsmooth(l1_lip, l1_lip, 1.0),
                                subgrad_lipschitz=nan),
            np.zeros(2), SubgradConfig(Diminishing(1.0), 10, Domain.all_space())),
         UnsupportedTerm, "no subgradient Lipschitz constant"),
        ("relaxation", lambda: upper_opt_value(inst, 0.0, relaxation=nan),
         ValueError, "relaxation must be positive"),
        ("lower_lipschitz", lambda: lower_opt_value(
            dataclasses.replace(inst, g1=dataclasses.replace(
                inst.g1, lipschitz_grad=nan))),
         Nonconvergence, "no smooth part to drive"),
    ]


def _count_cases():
    inst = toy_quadratic_instance()
    everywhere = Domain.all_space()
    return [
        ("dim", lambda v: dataclasses.replace(inst, dim=v), 1,
         "dim must be a positive integer"),
        ("apg_max_iters", lambda v: ApgConfig(epsilon=1e-6, max_iters=v), 0,
         "max_iters must be None or a nonnegative integer"),
        ("apg_record_every", lambda v: ApgConfig(epsilon=1e-6, record_every=v),
         1, "record_every must be a positive integer"),
        ("subgrad_max_iters",
         lambda v: SubgradConfig(Diminishing(1.0), v, everywhere), 1,
         "max_iters must be positive"),
        ("subgrad_record_every", lambda v: SubgradConfig(
            Diminishing(1.0), 10, everywhere, record_every=v), 1,
         "record_every must be a positive integer"),
    ]


@pytest.mark.parametrize("case", _count_cases(), ids=lambda case: case[0])
def test_counts_take_integers_only(case):
    # a float, even a whole one, a bool or a value below the least count
    # fails the check, where 2.5 used to pass; NumPy integers pass
    _, make, least, message = case
    for bad in (2.5, float(least + 1), True, least - 1, -3):
        with pytest.raises(ValueError, match=message):
            make(bad)
    for good in (least, least + 2, np.int64(least + 1), np.int32(least + 3)):
        make(good)


def test_integer_max_iters_runs_that_many_iterations():
    obj = assemble_penalized(toy_quadratic_instance(), 1.0)
    _, trace = pb_apg(obj, np.zeros(1),
                      ApgConfig(epsilon=1e-6, max_iters=np.int64(7)))
    assert trace.total_iterations == 7


@pytest.mark.parametrize("case", _nan_cases(), ids=lambda case: case[0])
def test_nan_argument_fails_its_check(case):
    # NaN fails every argument check, with the exception and message a bad
    # finite value gets
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()
