"""Row anchoring and the Sinkhorn transport anchors, with the generalized KL
divergence and the unbalanced objective they optimize as test helpers."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from attnkit import anchor
from attnkit.anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    row_anchor,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from attnkit.errors import EmptyCol, EmptyRow, Infeasible, InvalidBudget, NoConvergence
from attnkit.score import EvidenceKernel


def oracle_kl(a, b):
    """Scalar-loop generalized KL with the 0 log 0 convention."""
    total = 0.0
    for av, bv in zip(np.ravel(a), np.ravel(b)):
        if av > 0 and bv == 0:
            return math.inf
        if av > 0:
            total += av * math.log(av / bv) - av + bv
        else:
            total += bv
    return total


def generalized_kl(a, b) -> float:
    """Sum of a*log(a/b) - a + b over all entries of nonnegative arrays.

    Uses the conventions 0*log(0/b) = 0 and KL = +inf as soon as some
    entry has a > 0 with b = 0. Infinity is an in-band return value,
    not an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} disagree")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("generalized KL is defined for nonnegative arrays")
    pos = a > 0
    if (b[pos] == 0).any():
        return math.inf
    total = float(np.sum(b - a))
    total += float(np.sum(a[pos] * np.log(a[pos] / b[pos])))
    return total


def unbalanced_objective(plan_values, kernel, marginals, lam_out, lam_in) -> float:
    """KL(plan||K) + lam_out KL(row marginal||mu_out) + lam_in KL(col
    marginal||mu_in); the quantity the unbalanced anchor minimizes."""
    plan_values = np.asarray(plan_values, dtype=np.float64)
    return (
        generalized_kl(plan_values, kernel.values)
        + lam_out * generalized_kl(plan_values.sum(axis=1), marginals.mu_out)
        + lam_in * generalized_kl(plan_values.sum(axis=0), marginals.mu_in)
    )


def random_masked_kernel(rng, n_x, n_y, density=0.6):
    """Positive masked kernel with every row and column live."""
    while True:
        mask = rng.random((n_x, n_y)) < density
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    values = np.where(mask, rng.uniform(0.2, 3.0, (n_x, n_y)), 0.0)
    return EvidenceKernel(values, mask)


def feasible_instance(rng, n_x, n_y):
    """Kernel plus marginals that some masked coupling achieves exactly.

    Drawing a positive masked matrix and reading off its own marginals
    guarantees feasibility by construction.
    """
    witness = random_masked_kernel(rng, n_x, n_y)
    marginals = Marginals(witness.values.sum(axis=1), witness.values.sum(axis=0))
    kernel = EvidenceKernel(
        np.where(witness.mask, rng.uniform(0.2, 3.0, (n_x, n_y)), 0.0),
        witness.mask,
    )
    return kernel, marginals


def cycle_perturbations(rng, plan_values, mask, eps, count):
    """Marginal-preserving rewirings of the plan along 2x2 sub-cycles."""
    n_x, n_y = plan_values.shape
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        i1, i2 = rng.choice(n_x, size=2, replace=False)
        j1, j2 = rng.choice(n_y, size=2, replace=False)
        if not (mask[i1, j1] and mask[i1, j2] and mask[i2, j1] and mask[i2, j2]):
            continue
        cap = min(plan_values[i1, j2], plan_values[i2, j1])
        if cap <= 0:
            continue
        step = min(eps, 0.5 * cap)
        perturbed = plan_values.copy()
        perturbed[i1, j1] += step
        perturbed[i2, j2] += step
        perturbed[i1, j2] -= step
        perturbed[i2, j1] -= step
        out.append(perturbed)
    return out


def _reference_lse_rows(log_m):
    """Row-wise log-sum-exp that tolerates -inf entries (empty rows ->
    -inf)."""
    peak = log_m.max(axis=1)
    out = np.full(log_m.shape[0], -np.inf)
    finite = np.isfinite(peak)
    if finite.any():
        shifted = np.exp(log_m[finite] - peak[finite][:, None])
        out[finite] = peak[finite] + np.log(shifted.sum(axis=1))
    return out


def _reference_log_kernel(kernel):
    out = np.full(kernel.shape, -np.inf)
    out[kernel.mask] = np.log(kernel.values[kernel.mask])
    return out


def _reference_plan(log_k, f, g, mu_out, mu_in):
    plan = np.exp(f[:, None] + log_k + g[None, :])
    error = float(
        np.abs(plan.sum(axis=1) - mu_out).sum()
        + np.abs(plan.sum(axis=0) - mu_in).sum()
    )
    return plan, error


def reference_balanced(kernel, marginals, tol=1e-9, max_iter=10000):
    """The log-domain balanced loop: one n x n log-sum-exp per
    half-step and a full plan with its marginal error every iteration.
    Same stall rule as the library solver."""
    log_k = _reference_log_kernel(kernel)
    mu_out, mu_in = marginals.mu_out, marginals.mu_in
    f = np.zeros(kernel.shape[0])
    g = np.zeros(kernel.shape[1])
    best_error = math.inf
    stalled = 0
    for iterations in range(1, max_iter + 1):
        f = np.log(mu_out) - _reference_lse_rows(log_k + g[None, :])
        g = np.log(mu_in) - _reference_lse_rows((log_k + f[:, None]).T)
        plan, error = _reference_plan(log_k, f, g, mu_out, mu_in)
        if error <= tol:
            break
        if error <= 0.999 * best_error:
            best_error = error
            stalled = 0
        else:
            stalled += 1
            if stalled >= 100:
                raise Infeasible(
                    f"marginal error stalled at {error:.3e} after {iterations} iterations"
                )
    return plan, iterations, error <= tol


def reference_unbalanced(kernel, marginals, lam_out, lam_in, tol=1e-9, max_iter=10000):
    """The log-domain damped loop, stopping when the log scalings move
    at most tol in the max norm."""
    log_k = _reference_log_kernel(kernel)
    mu_out, mu_in = marginals.mu_out, marginals.mu_in
    frac_out = lam_out / (lam_out + 1.0)
    frac_in = lam_in / (lam_in + 1.0)
    rows_live = kernel.mask.any(axis=1)
    cols_live = kernel.mask.any(axis=0)
    f = np.zeros(kernel.shape[0])
    g = np.zeros(kernel.shape[1])
    converged = False
    for iterations in range(1, max_iter + 1):
        f_new = frac_out * (np.log(mu_out) - _reference_lse_rows(log_k + g[None, :]))
        f_new[~rows_live] = 0.0
        g_new = frac_in * (np.log(mu_in) - _reference_lse_rows((log_k + f_new[:, None]).T))
        g_new[~cols_live] = 0.0
        step = max(float(np.abs(f_new - f).max()), float(np.abs(g_new - g).max()))
        f, g = f_new, g_new
        if step <= tol:
            converged = True
            break
    plan, _ = _reference_plan(log_k, f, g, mu_out, mu_in)
    return plan, iterations, converged


def wide_range_instance(rng, n_x, n_y, spread, dead=False):
    """Masked kernel exp(U(-spread, spread)) with feasible marginals.

    With dead=True row 0 and column 0 are masked out and the marginals
    are unrelated draws, for the unbalanced anchor.
    """
    first_live = 1 if dead else 0
    while True:
        mask = rng.random((n_x, n_y)) < 0.6
        mask[:first_live] = False
        mask[:, :first_live] = False
        live = mask[first_live:, first_live:]
        if live.any(axis=1).all() and live.any(axis=0).all():
            break
    values = np.where(mask, np.exp(rng.uniform(-spread, spread, (n_x, n_y))), 0.0)
    if dead:
        marginals = Marginals(rng.uniform(0.5, 2.0, n_x), rng.uniform(0.5, 2.0, n_y))
    else:
        witness = np.where(mask, rng.uniform(0.2, 3.0, (n_x, n_y)), 0.0)
        marginals = Marginals(witness.sum(axis=1), witness.sum(axis=0))
    return EvidenceKernel(values, mask), marginals


def band_instance(rng, n=256, window=48):
    """Band mask |i-j| <= window, kernel exp(N(0, 1)), marginals of a
    positive plan on the band: the `ga run` window workload's shape."""
    idx = np.arange(n)
    mask = np.abs(idx[:, None] - idx[None, :]) <= window
    witness = np.where(mask, rng.uniform(0.2, 3.0, (n, n)), 0.0)
    values = np.where(mask, np.exp(rng.normal(size=(n, n))), 0.0)
    return (
        EvidenceKernel(values, mask),
        Marginals(witness.sum(axis=1), witness.sum(axis=0)),
    )


@pytest.fixture
def fold_count(monkeypatch):
    """Counts how often a solver folds its scalings into the potentials
    (every K~ build after the first)."""
    builds = []
    real = anchor._fold

    def counting(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(anchor, "_fold", counting)
    return lambda: len(builds) - 1


def assert_plans_agree(plan, reference, mask):
    ref_values, ref_iterations, ref_converged = reference
    assert plan.iterations == ref_iterations
    assert plan.converged == ref_converged
    # Subnormal entries carry no 1e-11 relative precision.
    npt.assert_allclose(
        plan.values[mask], ref_values[mask], rtol=1e-11, atol=np.finfo(float).tiny
    )


class TestRowAnchor:
    def test_two_to_one_ratio(self):
        kernel = EvidenceKernel(np.array([[2.0, 1.0]]), np.array([[True, True]]))
        family = row_anchor(kernel)
        npt.assert_allclose(family.values, [[2 / 3, 1 / 3]], rtol=1e-15)

    def test_empty_row_is_fatal(self):
        kernel = EvidenceKernel(
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[True, False], [False, False]]),
        )
        with pytest.raises(EmptyRow, match="^row 1 has zero total mass$") as exc:
            row_anchor(kernel)
        assert exc.value.row == 1

    def test_row_whose_sum_overflows_is_normalized_from_its_largest_entry(self):
        # 1e308 + 1e308 overflows to inf; the row is normalized from the
        # entries over 1e308 instead, and the other rows keep their bits.
        values = np.array([[1e308, 1e308, 0.0], [1.0, 2.0, 4.0], [1e308, 9e307, 1e300]])
        kernel = EvidenceKernel(values, values > 0)
        family = row_anchor(kernel)
        npt.assert_array_equal(family.values[0], [0.5, 0.5, 0.0])
        assert family.values[1].tobytes() == (values[1] / values[1].sum()).tobytes()
        npt.assert_allclose(family.values[2], np.array([1.0, 0.9, 1e-8]) / 1.90000001, rtol=1e-15)

    def test_row_sum_message_prints_a_float(self):
        with pytest.raises(ValueError, match=r"^row 0 sums to 0\.5, not 1 within 1e-12$"):
            ConditionalFamily(np.array([[0.25, 0.25]]), np.ones((1, 2), dtype=bool))

    def test_row_sum_message_names_the_row_that_is_off(self):
        # Row 0 sums to 1 exactly; row 1 is the one half a unit off.
        with pytest.raises(ValueError, match=r"^row 1 sums to 0\.5, not 1 within 1e-12$"):
            ConditionalFamily(np.array([[0.5, 0.5], [0.25, 0.25]]), np.ones((2, 2), dtype=bool))

    def test_row_scaling_is_a_gauge(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            kernel = random_masked_kernel(rng, 5, 7)
            scale = rng.uniform(0.1, 10.0, 5)
            scaled = EvidenceKernel(kernel.values * scale[:, None], kernel.mask)
            base = row_anchor(kernel).values
            rescaled = row_anchor(scaled).values
            assert np.abs(base - rescaled).max() <= 1e-12


class TestGeneralizedKl:
    def test_frozen_value(self):
        # 2 log 2 - 2 + 1, from the scalar oracle.
        assert generalized_kl([2.0], [1.0]) == pytest.approx(
            0.3862943611198906, abs=1e-15
        )

    def test_self_divergence_vanishes(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.0, 4.0, (5, 5))
        assert generalized_kl(a, a) == 0.0

    def test_infinite_when_reference_support_is_smaller(self):
        assert generalized_kl([[1.0, 0.0]], [[0.0, 1.0]]) == math.inf

    def test_zero_against_positive_costs_the_mass(self):
        assert generalized_kl([0.0, 0.0], [1.5, 0.5]) == pytest.approx(2.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = np.where(rng.random((4, 6)) < 0.8, rng.uniform(0, 2, (4, 6)), 0.0)
            b = np.where(rng.random((4, 6)) < 0.8, rng.uniform(0, 2, (4, 6)), 0.0)
            assert generalized_kl(a, b) == pytest.approx(
                oracle_kl(a, b), rel=1e-13
            )

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError):
            generalized_kl([-1.0], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"shapes \(2,\) and \(1, 2\) disagree"):
            generalized_kl([1.0, 2.0], [[1.0, 2.0]])


class TestSinkhornBalanced:
    def test_uniform_two_by_two(self):
        kernel = EvidenceKernel(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        plan = sinkhorn_balanced(kernel, Marginals([1.0, 1.0], [1.0, 1.0]))
        assert plan.converged
        npt.assert_allclose(plan.values, [[0.5, 0.5], [0.5, 0.5]], atol=1e-9)

    def test_diagonal_mask_forces_the_identity_coupling(self):
        mask = np.eye(2, dtype=bool)
        kernel = EvidenceKernel(np.eye(2) * np.array([3.0, 0.1]), mask)
        plan = sinkhorn_balanced(kernel, Marginals([1.0, 2.0], [1.0, 2.0]))
        assert plan.converged
        npt.assert_allclose(plan.values, np.diag([1.0, 2.0]), atol=1e-9)

    def test_feasible_kernel_is_its_own_projection(self):
        # When the kernel already meets the marginals, KL projection onto
        # the coupling polytope must return it unchanged.
        rng = np.random.default_rng(19)
        kernel = random_masked_kernel(rng, 6, 5)
        marginals = Marginals(kernel.values.sum(axis=1), kernel.values.sum(axis=0))
        plan = sinkhorn_balanced(kernel, marginals)
        assert plan.converged
        npt.assert_allclose(plan.values, kernel.values, atol=1e-8)

    def test_marginals_met_on_random_feasible_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            kernel, marginals = feasible_instance(
                rng, int(rng.integers(2, 9)), int(rng.integers(2, 9))
            )
            plan = sinkhorn_balanced(kernel, marginals)
            assert plan.converged
            err = (
                np.abs(plan.row_marginal - marginals.mu_out).sum()
                + np.abs(plan.col_marginal - marginals.mu_in).sum()
            )
            assert err <= 1e-8
            assert (plan.values[~kernel.mask] == 0).all()

    def test_diagonal_rescaling_of_kernel_does_not_move_the_plan(self):
        rng = np.random.default_rng(47)
        kernel, marginals = feasible_instance(rng, 5, 6)
        a = rng.uniform(0.2, 5.0, 5)
        b = rng.uniform(0.2, 5.0, 6)
        scaled = EvidenceKernel(a[:, None] * kernel.values * b[None, :], kernel.mask)
        base = sinkhorn_balanced(kernel, marginals)
        moved = sinkhorn_balanced(scaled, marginals)
        assert np.abs(base.values - moved.values).max() <= 1e-6

    def test_plan_scalings_are_log_additive_on_support(self):
        # The fitted plan must have the diag(a) K diag(b) form, which
        # makes log(plan/K) sum to zero around every 2x2 cycle of the
        # support.
        rng = np.random.default_rng(53)
        kernel, marginals = feasible_instance(rng, 6, 6)
        plan = sinkhorn_balanced(kernel, marginals)
        ratio = np.where(kernel.mask, plan.values / np.where(kernel.mask, kernel.values, 1.0), 1.0)
        log_ratio = np.log(ratio)
        for i1, i2, j1, j2 in [(0, 1, 0, 1), (2, 4, 1, 3), (0, 5, 2, 5)]:
            if kernel.mask[i1, j1] and kernel.mask[i1, j2] and kernel.mask[i2, j1] and kernel.mask[i2, j2]:
                cyc = (
                    log_ratio[i1, j1]
                    - log_ratio[i1, j2]
                    + log_ratio[i2, j2]
                    - log_ratio[i2, j1]
                )
                assert abs(cyc) <= 1e-7

    def test_kl_optimal_among_cycle_perturbations(self):
        rng = np.random.default_rng(59)
        kernel, marginals = feasible_instance(rng, 6, 6)
        plan = sinkhorn_balanced(kernel, marginals)
        base = generalized_kl(plan.values, kernel.values)
        for other in cycle_perturbations(rng, plan.values, kernel.mask, 0.05, 40):
            assert generalized_kl(other, kernel.values) >= base - 1e-10

    def test_mismatched_total_mass_rejected(self):
        kernel = EvidenceKernel(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(Infeasible):
            sinkhorn_balanced(kernel, Marginals([1.0, 1.0], [1.0, 2.0]))

    def test_structurally_infeasible_mask_stalls_out(self):
        # Row 0 can only reach column 0 yet must ship 2 units while
        # column 0 accepts only 1; the solver must diagnose this rather
        # than loop forever.
        mask = np.array([[True, False], [True, True]])
        kernel = EvidenceKernel(np.where(mask, 1.0, 0.0), mask)
        with pytest.raises(Infeasible):
            sinkhorn_balanced(kernel, Marginals([2.0, 1.0], [1.0, 2.0]))

    def test_empty_row_rejected_up_front(self):
        mask = np.array([[True, True], [False, False]])
        kernel = EvidenceKernel(np.where(mask, 1.0, 0.0), mask)
        with pytest.raises(EmptyRow):
            sinkhorn_balanced(kernel, Marginals([1.0, 1.0], [1.0, 1.0]))

    def test_empty_col_rejected_up_front(self):
        mask = np.array([[True, False], [True, False]])
        kernel = EvidenceKernel(np.where(mask, 1.0, 0.0), mask)
        with pytest.raises(EmptyCol, match="masked-out column cannot carry") as exc:
            sinkhorn_balanced(kernel, Marginals([1.0, 1.0], [1.0, 1.0]))
        assert exc.value.col == 1


class TestSinkhornUnbalanced:
    def test_one_by_one_fixed_point(self):
        kernel = EvidenceKernel(np.array([[1.0]]), np.array([[True]]))
        plan = sinkhorn_unbalanced(kernel, Marginals([1.0], [1.0]), 1.0, 1.0)
        assert plan.converged
        npt.assert_allclose(plan.values, [[1.0]], atol=1e-12)

    def test_large_penalties_recover_the_balanced_plan(self):
        rng = np.random.default_rng(61)
        kernel, marginals = feasible_instance(rng, 4, 5)
        hard = sinkhorn_balanced(kernel, marginals)
        soft = sinkhorn_unbalanced(kernel, marginals, 1e6, 1e6, tol=1e-12)
        assert np.abs(soft.values - hard.values).max() <= 1e-4

    def test_objective_beats_random_perturbations(self):
        rng = np.random.default_rng(67)
        kernel = random_masked_kernel(rng, 4, 4)
        marginals = Marginals(rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4))
        plan = sinkhorn_unbalanced(kernel, marginals, 2.0, 0.7, tol=1e-12)
        assert plan.converged
        base = unbalanced_objective(plan.values, kernel, marginals, 2.0, 0.7)
        for _ in range(100):
            jitter = np.where(
                kernel.mask, rng.uniform(0.9, 1.1, kernel.shape), 1.0
            )
            other = plan.values * jitter
            assert (
                unbalanced_objective(other, kernel, marginals, 2.0, 0.7)
                >= base - 1e-10
            )

    def test_column_rescaling_moves_the_unbalanced_plan(self):
        # Unlike the balanced anchor, the penalized one is not invariant
        # under diagonal rescaling of the kernel: the KL-to-kernel term
        # sees the scale.
        rng = np.random.default_rng(71)
        kernel = random_masked_kernel(rng, 3, 3, density=1.0)
        marginals = Marginals([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        base = sinkhorn_unbalanced(kernel, marginals, 1.0, 1.0, tol=1e-12)
        scaled = EvidenceKernel(kernel.values * np.array([4.0, 1.0, 0.25]), kernel.mask)
        moved = sinkhorn_unbalanced(scaled, marginals, 1.0, 1.0, tol=1e-12)
        assert np.abs(base.values - moved.values).max() > 1e-3

    def test_exhaustion_returns_unconverged(self):
        rng = np.random.default_rng(73)
        kernel = random_masked_kernel(rng, 5, 5)
        marginals = Marginals(rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5))
        plan = sinkhorn_unbalanced(kernel, marginals, 3.0, 3.0, tol=1e-14, max_iter=2)
        assert not plan.converged
        assert plan.iterations == 2


class TestSolverBudget:
    @pytest.mark.parametrize(
        "budget, field",
        [
            ({"max_iter": 0}, "max_iter"),
            ({"max_iter": -1}, "max_iter"),
            ({"tol": -1e-12}, "tol"),
            ({"tol": math.nan}, "tol"),
        ],
    )
    @pytest.mark.parametrize("unbalanced", [False, True])
    def test_budget_that_cannot_run_is_rejected(self, budget, field, unbalanced):
        kernel = EvidenceKernel(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        marginals = Marginals([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match=field):
            if unbalanced:
                sinkhorn_unbalanced(kernel, marginals, 1.0, 1.0, **budget)
            else:
                sinkhorn_balanced(kernel, marginals, **budget)

    def test_zero_tolerance_and_one_iteration_run(self):
        kernel = EvidenceKernel(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        plan = sinkhorn_balanced(
            kernel, Marginals([1.0, 1.0], [1.0, 1.0]), tol=0.0, max_iter=1
        )
        assert plan.iterations == 1
        npt.assert_allclose(plan.values, 0.5, rtol=1e-15)


class TestAgainstLogDomainReference:
    """The stabilized scaling loops against the log-domain loops they
    replaced, kept above as reference_balanced/reference_unbalanced."""

    @pytest.mark.parametrize(
        "spread, seed, folds",
        [
            (1.0, 0, 0),
            (1.0, 1, 0),
            (1.0, 2, 0),
            (30.0, 0, 0),
            (30.0, 1, 0),
            (30.0, 2, 0),
            (200.0, 0, 0),
            (200.0, 37, 0),
            # Needs scalings past 1e100 against the first iteration's
            # plan, so the loop folds them into the potentials once.
            (250.0, 21, 1),
        ],
    )
    def test_balanced_matches_on_wide_range_kernels(self, spread, seed, folds, fold_count):
        rng = np.random.default_rng(seed)
        n_x, n_y = (int(v) for v in rng.integers(2, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, spread)
        plan = sinkhorn_balanced(kernel, marginals)
        assert fold_count() == folds
        assert_plans_agree(plan, reference_balanced(kernel, marginals), kernel.mask)

    def test_balanced_exhausted_on_a_fold_returns_that_iterate(self, fold_count):
        # This instance folds after iteration 188, so its last iteration
        # runs against the rebuilt K~.
        rng = np.random.default_rng(21)
        n_x, n_y = (int(v) for v in rng.integers(2, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, 250.0)
        plan = sinkhorn_balanced(kernel, marginals, max_iter=189)
        assert fold_count() == 1
        reference = reference_balanced(kernel, marginals, max_iter=189)
        assert_plans_agree(plan, reference, kernel.mask)

    @pytest.mark.parametrize("exponent", [200, 300, 308])
    def test_balanced_keeps_a_column_far_below_its_rows(self, exponent):
        # Column 1 sits 10^(2 * exponent) below each row's maximum, far
        # past the range of doubles.
        kernel = EvidenceKernel(
            np.array([[10.0**exponent, 10.0**-exponent]] * 2), np.ones((2, 2), dtype=bool)
        )
        marginals = Marginals([1.0, 1.0], [1.0, 1.0])
        plan = sinkhorn_balanced(kernel, marginals)
        assert_plans_agree(plan, reference_balanced(kernel, marginals), kernel.mask)
        npt.assert_allclose(plan.values, 0.5, rtol=1e-13)

    def test_balanced_may_stop_one_iteration_earlier_at_the_tolerance(self):
        # At e^200 the reference's plan, an exp of potential sums, reads
        # its marginal error to about 1e-11, so where that error crosses
        # tol within one iteration the two loops can stop one apart. 2 of
        # the 18 converging draws of seeds 0-39 do; the stabilized plan
        # then meets tol by its own row and column sums.
        rng = np.random.default_rng(9)
        n_x, n_y = (int(v) for v in rng.integers(2, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, 200.0)
        plan = sinkhorn_balanced(kernel, marginals)
        _, ref_iterations, ref_converged = reference_balanced(kernel, marginals)
        assert ref_converged and plan.converged
        assert plan.iterations == ref_iterations - 1
        assert plan.marginal_error <= 1e-9

    def test_balanced_matches_on_a_window_band(self):
        kernel, marginals = band_instance(np.random.default_rng(5))
        plan = sinkhorn_balanced(kernel, marginals)
        assert plan.iterations > 100
        assert_plans_agree(plan, reference_balanced(kernel, marginals), kernel.mask)

    @pytest.mark.parametrize("seed, folds", [(0, 0), (1, 0), (4, 1)])
    def test_same_stall_at_e340(self, seed, folds, fold_count):
        rng = np.random.default_rng(seed)
        n_x, n_y = (int(v) for v in rng.integers(2, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, 340.0)
        with pytest.raises(Infeasible) as ref:
            reference_balanced(kernel, marginals)
        with pytest.raises(Infeasible) as got:
            sinkhorn_balanced(kernel, marginals)
        # Same stalled error and the same iteration.
        assert str(got.value) == str(ref.value)
        assert fold_count() == folds

    @pytest.mark.parametrize(
        "spread, dead, seed, folds",
        [
            (1.0, False, 83, 0),
            (30.0, False, 83, 0),
            (200.0, False, 83, 0),
            (1.0, True, 83, 0),
            (200.0, True, 83, 0),
            # Folds only because plan entries that K~ holds below the
            # normal doubles grow back into the normal range.
            (600.0, True, 83, 2),
            (600.0, True, 94, 1),
        ],
    )
    def test_unbalanced_matches(self, spread, dead, seed, folds, fold_count):
        rng = np.random.default_rng(seed)
        n_x, n_y = (int(v) for v in rng.integers(3, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, spread, dead=dead)
        plan = sinkhorn_unbalanced(kernel, marginals, 2.0, 0.5)
        assert fold_count() == folds
        assert_plans_agree(
            plan, reference_unbalanced(kernel, marginals, 2.0, 0.5), kernel.mask
        )
        if dead:
            assert (plan.values[0] == 0).all() and (plan.values[:, 0] == 0).all()

    def test_unbalanced_exhausted_on_a_fold_returns_that_iterate(self, fold_count):
        # This instance folds after iteration 2.
        rng = np.random.default_rng(94)
        n_x, n_y = (int(v) for v in rng.integers(3, 25, 2))
        kernel, marginals = wide_range_instance(rng, n_x, n_y, 600.0, dead=True)
        plan = sinkhorn_unbalanced(kernel, marginals, 2.0, 0.5, max_iter=3)
        assert fold_count() == 1
        reference = reference_unbalanced(kernel, marginals, 2.0, 0.5, max_iter=3)
        assert_plans_agree(plan, reference, kernel.mask)

    @pytest.mark.parametrize("exponent", [200, 300, 308])
    @pytest.mark.parametrize("lam_out, lam_in", [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_unbalanced_keeps_a_column_far_below_its_rows(
        self, exponent, lam_out, lam_in, transpose
    ):
        # At 10^300 or more the plan's column 1 is subnormal for (2, 0.5),
        # and so is row 1 of the transposed kernel for (0.5, 2); K~ keeps
        # them only by lifting them at each fold.
        values = np.array([[10.0**exponent, 10.0**-exponent]] * 2)
        kernel = EvidenceKernel(
            values.T if transpose else values, np.ones((2, 2), dtype=bool)
        )
        marginals = Marginals([1.0, 1.0], [1.0, 1.0])
        plan = sinkhorn_unbalanced(kernel, marginals, lam_out, lam_in)
        reference = reference_unbalanced(kernel, marginals, lam_out, lam_in)
        assert_plans_agree(plan, reference, kernel.mask)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unbalanced_column_past_the_lift_is_a_numeric_failure(self):
        # The plan's column 1 is about e^-1370, more than the lift can
        # bring back into K~; the log-domain reference returns zeros there.
        kernel = EvidenceKernel(
            np.array([[1e300, 1e-300]] * 2), np.ones((2, 2), dtype=bool)
        )
        marginals = Marginals([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NoConvergence, match="range of doubles"):
            sinkhorn_unbalanced(kernel, marginals, 100.0, 0.001)


class TestOneScalingLoop:
    """Both anchors run one scaling loop: the balanced anchor at
    exponent 1, the unbalanced one on its live rows and columns."""

    # The sha256 of plan.values.tobytes() and the iteration count, taken
    # from the balanced anchor's own loop before the two anchors shared
    # one (numpy 2.4.6 on OpenBLAS 0.3.31, x86-64; another BLAS build
    # may round the matrix-vector products differently).
    @pytest.mark.parametrize(
        "spread, seed, iterations, digest",
        [
            (1.0, 0, 15, "89fbc6e590b32020059132dfefd7272e703264e6c9c6bd499818ec2d8a1f81b9"),
            (1.0, 1, 19, "582c16add9c0e39de4bc81d56d17209244c5132315f1c3de7c443b8acdbffb85"),
            (1.0, 2, 20, "1262c84f4359451f069b2aa1d5c5afed3fa7f5eccf82ca1ee6877cb79ff7025b"),
            (30.0, 0, 1420, "27d7fe582cfdab3ee1fb638fae99873ec34dbab51ceba2001d2cb4e29bdd873d"),
            (30.0, 1, 825, "a191c55c43b09731bf199ab2a4ab0c801fb62bcbdb77e9f0d13cac2df1b6c1e5"),
            (30.0, 2, 1407, "2651a4f10689082c557fd7683407d698041fe5f9a0349bcf49404d0d2790df9e"),
            (200.0, 0, 2327, "e1aa3fdc56468579bd7df1b48510fff7d56ee8cab5967ee68fb832976ed4f27f"),
            (200.0, 37, 2059, "58fc95e835ce147d0e3c1f690b8f1fb648a8437ff5fb9114a5f7d6665ff99e3e"),
            (250.0, 21, 5248, "3fb29ef539daa814f164a8cfed584ab69ce76fb1d3c80ae8c1f9c53bde1f69f6"),
            (None, 5, 170, "453bcc20cfb44cd8493f146335ac4042dcc400c56ee4d43e70afa9857dd79efd"),
        ],
    )
    def test_balanced_plan_keeps_its_bits(self, spread, seed, iterations, digest):
        rng = np.random.default_rng(seed)
        if spread is None:
            kernel, marginals = band_instance(rng)
        else:
            n_x, n_y = (int(v) for v in rng.integers(2, 25, 2))
            kernel, marginals = wide_range_instance(rng, n_x, n_y, spread)
        plan = sinkhorn_balanced(kernel, marginals)
        assert plan.iterations == iterations
        assert hashlib.sha256(plan.values.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("spread", [1.0, 30.0, 600.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unbalanced_dead_rows_and_columns_are_cut_before_the_loop(self, spread, seed):
        # Rows 1 and 4 and column 2 are masked out; the plan is exactly
        # zero there, and its live block is the plan of the live
        # submatrix alone, bit for bit.
        rng = np.random.default_rng(seed)
        rows, cols = [0, 2, 3, 5, 6], [0, 1, 3, 4, 5]
        while True:
            mask = np.zeros((7, 6), dtype=bool)
            mask[np.ix_(rows, cols)] = rng.random((5, 5)) < 0.6
            if mask[rows].any(axis=1).all() and mask[:, cols].any(axis=0).all():
                break
        values = np.where(mask, np.exp(rng.uniform(-spread, spread, mask.shape)), 0.0)
        marginals = Marginals(rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 6))
        plan = sinkhorn_unbalanced(EvidenceKernel(values, mask), marginals, 2.0, 0.5)
        live = np.ix_(rows, cols)
        alone = sinkhorn_unbalanced(
            EvidenceKernel(values[live], mask[live]),
            Marginals(marginals.mu_out[rows], marginals.mu_in[cols]),
            2.0,
            0.5,
        )
        assert (plan.values[[1, 4]] == 0).all() and (plan.values[:, 2] == 0).all()
        assert plan.values[live].tobytes() == alone.values.tobytes()
        assert (plan.iterations, plan.converged) == (alone.iterations, alone.converged)


class TestRowAnchorOfAPlan:
    def test_rows_renormalize(self):
        plan = TransportPlan(
            np.array([[1.0, 3.0], [2.0, 2.0]]),
            np.ones((2, 2), dtype=bool),
            converged=True,
            iterations=1,
        )
        family = row_anchor(plan)
        npt.assert_allclose(family.values, [[0.25, 0.75], [0.5, 0.5]], rtol=1e-15)

    def test_divides_by_the_row_marginal_bit_for_bit(self):
        # Conditioning a plan is dividing each row by the plan's own
        # outgoing mass, the same float operation row by row.
        rng = np.random.default_rng(81)
        for _ in range(10):
            kernel, marginals = feasible_instance(rng, 6, 5)
            for plan in (
                sinkhorn_balanced(kernel, marginals),
                sinkhorn_unbalanced(kernel, marginals, 0.5, 2.0),
            ):
                family = row_anchor(plan)
                want = plan.values / plan.row_marginal[:, None]
                assert family.values.tobytes() == want.tobytes()
                assert np.array_equal(family.mask, plan.mask)

    def test_round_trip_with_row_anchor(self):
        # Anchoring by rows directly, or transporting onto the kernel's
        # own marginals and then conditioning, must agree.
        rng = np.random.default_rng(79)
        kernel = random_masked_kernel(rng, 5, 5)
        marginals = Marginals(kernel.values.sum(axis=1), kernel.values.sum(axis=0))
        plan = sinkhorn_balanced(kernel, marginals)
        via_plan = row_anchor(plan)
        direct = row_anchor(kernel)
        assert np.abs(via_plan.values - direct.values).max() <= 1e-8

    def test_zero_mass_row_is_an_empty_row(self):
        # Row 1 is admissible but carries no mass: nothing to condition.
        plan = TransportPlan(
            np.array([[1.0, 1.0], [0.0, 0.0]]),
            np.ones((2, 2), dtype=bool),
            converged=True,
            iterations=1,
        )
        with pytest.raises(EmptyRow, match="^row 1 has zero total mass$") as exc:
            row_anchor(plan)
        assert exc.value.row == 1


class TestConstructors:
    def test_conditional_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConditionalFamily(np.array([[0.6, 0.6]]), np.ones((1, 2), dtype=bool))

    def test_conditional_empty_row_must_be_zero(self):
        values = np.array([[1.0, 0.0], [0.0, 0.0]])
        mask = np.array([[True, False], [False, False]])
        ConditionalFamily(values, mask)  # fine: empty row is all zero
        bad = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            ConditionalFamily(bad, mask)

    def test_plan_mass_off_mask_rejected(self):
        with pytest.raises(ValueError):
            TransportPlan(
                np.array([[1.0, 0.5]]),
                np.array([[True, False]]),
                converged=True,
                iterations=0,
            )

    def test_marginals_must_be_positive(self):
        with pytest.raises(ValueError):
            Marginals([1.0, 0.0], [0.5, 0.5])

    @pytest.mark.parametrize("field", ["mu_out", "mu_in"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones((2, 1)), "must be a nonempty vector"),
            (np.array(1.0), "must be a nonempty vector"),
            (np.array([]), "must be a nonempty vector"),
            ([1.0, np.inf], "entries must be finite and strictly positive"),
            ([1.0, -1.0], "entries must be finite and strictly positive"),
        ],
        ids=["matrix", "scalar", "empty", "inf", "negative"],
    )
    def test_marginals_name_the_field_they_refuse(self, field, bad, message):
        masses = {"mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0], field: bad}
        with pytest.raises(InvalidBudget, match=f"^{field} {message}$") as info:
            Marginals(**masses)
        assert info.value.field == field

    def test_marginals_matched_predicate(self):
        assert Marginals([1.0, 2.0], [1.5, 1.5]).matched()
        assert not Marginals([1.0, 2.0], [1.5, 2.5]).matched()

    def test_marginals_matched_past_the_largest_double(self):
        # Both totals are 2e308; compared in units of 1e308 they match.
        assert Marginals([1e308, 1e308], [1e308, 1e308]).matched()
        assert not Marginals([1e308, 1e308], [1e308, 5e307]).matched()
