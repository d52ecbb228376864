"""The property harness itself: its rewiring sampler and KL gaps, and that each
suite fails when the code it verifies is broken."""

from itertools import combinations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import attnkit.checks as checks
from attnkit.anchor import TransportPlan, generalized_kl, sinkhorn_balanced
from attnkit.checks import (
    _cycle_perturbations,
    _feasible_transport_instance,
    _kl_gaps,
    run_criterion,
)
from attnkit.score import EvidenceKernel


def _rewired(plan, rewirings):
    """The full plans that the (rows, cols, steps) arrays describe."""
    plans = []
    for (i1, i2), (j1, j2), step in zip(*rewirings):
        out = plan.copy()
        out[[i1, i2], [j1, j2]] += step
        out[[i1, i2], [j2, j1]] -= step
        plans.append(out)
    return plans


@st.composite
def plans_on_masks(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    mask = draw(arrays(np.bool_, shape))
    # Zeros on the mask exercise the rejection of rectangles with no
    # mass to move; a bounded range keeps every step visible in float64.
    mass = draw(
        arrays(
            np.float64,
            shape,
            elements=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
        )
    )
    return np.where(mask, mass, 0.0), mask


@settings(max_examples=200, deadline=None)
@given(plans_on_masks(), st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_rewirings_are_feasible_two_by_two_cycles(instance, seed, count):
    plan, mask = instance
    rows, cols, steps = _cycle_perturbations(np.random.default_rng(seed), plan, mask, count)
    assert rows.shape == cols.shape == (steps.size, 2)
    rewirings = _rewired(plan, (rows, cols, steps))
    assert len(rewirings) <= count
    for out in rewirings:
        npt.assert_allclose(out.sum(axis=1), plan.sum(axis=1), rtol=1e-12, atol=0)
        npt.assert_allclose(out.sum(axis=0), plan.sum(axis=0), rtol=1e-12, atol=0)
        assert (out >= 0).all()
        assert not out[~mask].any()
        rows, cols = np.nonzero(out != plan)
        assert rows.size == 4
        assert len(set(rows.tolist())) == 2 and len(set(cols.tolist())) == 2


def test_full_mask_yields_the_full_count():
    rng = np.random.default_rng(3)
    plan = rng.uniform(0.1, 2.0, (5, 7))
    mask = np.ones((5, 7), dtype=bool)
    assert len(_rewired(plan, _cycle_perturbations(rng, plan, mask, count=100))) == 100


def test_rewirings_move_mass_only_on_the_mask():
    # The plan here carries mass off the mask, so positive off-corner
    # mass alone would not keep a rewiring on it.
    rng = np.random.default_rng(7)
    plan = rng.uniform(0.1, 2.0, (6, 6))
    mask = rng.random((6, 6)) < 0.6
    rewirings = _rewired(plan, _cycle_perturbations(rng, plan, mask, count=50))
    assert rewirings
    for out in rewirings:
        assert mask[out != plan].all()


def test_masks_without_a_rectangle_yield_nothing():
    rng = np.random.default_rng(5)
    permutation = np.eye(5, dtype=bool)[[2, 0, 4, 1, 3]]
    for mask in (
        permutation,
        np.ones((1, 6), dtype=bool),
        np.ones((6, 1), dtype=bool),
        np.zeros((3, 3), dtype=bool),
    ):
        plan = np.where(mask, 1.0, 0.0)
        assert _rewired(plan, _cycle_perturbations(rng, plan, mask)) == []


def test_kl_gaps_match_the_difference_of_full_kls():
    rng = np.random.default_rng(11)
    off_optimum_gaps = []
    for _ in range(8):
        kernel, marginals = _feasible_transport_instance(rng, 16)
        optimal = sinkhorn_balanced(kernel, marginals).values
        # The optimal plan of another kernel on the same mask meets the
        # same marginals without being KL-optimal for this one.
        reweighted = EvidenceKernel(
            kernel.values * rng.uniform(0.1, 10.0, kernel.shape), kernel.mask
        )
        off_optimum = sinkhorn_balanced(reweighted, marginals).values
        for plan in (optimal, off_optimum):
            rewirings = _cycle_perturbations(rng, plan, kernel.mask)
            gaps = _kl_gaps(plan, kernel.values, *rewirings)
            base = generalized_kl(plan, kernel.values)
            full = [
                base - generalized_kl(other, kernel.values)
                for other in _rewired(plan, rewirings)
            ]
            assert gaps.shape == (len(full),)
            npt.assert_allclose(gaps, full, rtol=0, atol=1e-12)
        off_optimum_gaps.extend(gaps)  # the last plan compared is off the optimum
    assert len(off_optimum_gaps) >= 400
    assert max(off_optimum_gaps) > 0


def test_kl_gaps_take_zero_log_zero_on_empty_corners():
    plan = np.array([[0.0, 1.0], [1.0, 0.0]])
    kernel = np.array([[1.0, 2.0], [3.0, 4.0]])
    rewiring = (np.array([[0, 1]]), np.array([[0, 1]]), np.array([0.25]))
    (other,) = _rewired(plan, rewiring)
    npt.assert_allclose(
        _kl_gaps(plan, kernel, *rewiring),
        [generalized_kl(plan, kernel) - generalized_kl(other, kernel)],
        rtol=0,
        atol=1e-15,
    )


def _by_name(results):
    return {r.name: r for r in results}


def test_barrier_suite_catches_a_dropped_predecessor(monkeypatch):
    real = checks.predecessor_sets

    def without_self(inf, t):
        return [pre - {x} for x, pre in enumerate(real(inf, t))]

    monkeypatch.setattr(checks, "predecessor_sets", without_self)
    results = _by_name(run_criterion("influence_barrier", seed=0))
    assert not results["barrier_outside_predecessors"].passed
    assert results["barrier_outside_predecessors"].max_deviation > 0


def _first_cycle(plan, mask):
    for i1, i2 in combinations(range(mask.shape[0]), 2):
        for j1, j2 in combinations(range(mask.shape[1]), 2):
            if mask[[i1, i1, i2, i2], [j1, j2, j1, j2]].all():
                if min(plan[i1, j2], plan[i2, j1]) > 0:
                    return i1, i2, j1, j2
    return None


@pytest.mark.parametrize("seed, kl_cases", [(0, 30), (5, 28)])
def test_sinkhorn_kl_line_counts_only_instances_with_a_rewiring(
    monkeypatch, seed, kl_cases
):
    # Seed 5 draws two instances whose masks admit no rectangle with
    # mass to move; the KL property compares nothing on them.
    compared = []
    real = checks._cycle_perturbations

    def counting(rng, plan, mask, count=100):
        found = real(rng, plan, mask, count)
        compared.append(bool(_rewired(plan, found)))
        return found

    monkeypatch.setattr(checks, "_cycle_perturbations", counting)
    results = _by_name(run_criterion("transport_anchor", seed=seed))
    assert results["sinkhorn_marginals"].cases == 30
    assert results["sinkhorn_scaling_invariance"].cases == 30
    assert results["sinkhorn_kl_optimality"].cases == sum(compared) == kl_cases


def test_sinkhorn_suite_catches_a_feasible_but_suboptimal_plan(monkeypatch):
    real = checks.sinkhorn_balanced

    def off_the_optimum(kernel, marginals):
        plan = real(kernel, marginals)
        cycle = _first_cycle(plan.values, kernel.mask)
        if cycle is None:
            return plan
        i1, i2, j1, j2 = cycle
        step = 0.5 * min(plan.values[i1, j2], plan.values[i2, j1])
        values = plan.values.copy()
        values[[i1, i2], [j1, j2]] += step
        values[[i1, i2], [j2, j1]] -= step
        return TransportPlan(values, plan.mask, plan.converged, plan.iterations)

    monkeypatch.setattr(checks, "sinkhorn_balanced", off_the_optimum)
    results = _by_name(run_criterion("transport_anchor", seed=0))
    assert results["sinkhorn_marginals"].passed
    assert not results["sinkhorn_kl_optimality"].passed
