"""The property harness itself: its rewiring sampler, and that each
suite fails when the code it verifies is broken."""

from itertools import combinations

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import attnkit.checks as checks
from attnkit.anchor import TransportPlan
from attnkit.checks import _cycle_perturbations, run_criterion


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
    rewirings = list(
        _cycle_perturbations(np.random.default_rng(seed), plan, mask, count)
    )
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
    assert len(list(_cycle_perturbations(rng, plan, mask, count=100))) == 100


def test_rewirings_move_mass_only_on_the_mask():
    # The plan here carries mass off the mask, so positive off-corner
    # mass alone would not keep a rewiring on it.
    rng = np.random.default_rng(7)
    plan = rng.uniform(0.1, 2.0, (6, 6))
    mask = rng.random((6, 6)) < 0.6
    rewirings = list(_cycle_perturbations(rng, plan, mask, count=50))
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
        assert list(_cycle_perturbations(rng, plan, mask)) == []


def _by_name(results):
    return {r.name: r for r in results}


def test_barrier_suite_catches_a_dropped_predecessor(monkeypatch):
    real = checks.predecessor_set

    def without_self(inf, x, t):
        return real(inf, x, t) - {x}

    monkeypatch.setattr(checks, "predecessor_set", without_self)
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
