"""The property harness itself: its rewiring sampler and KL gaps, and that each
suite fails when the code it verifies is broken."""

import os
from itertools import combinations
from unittest.mock import patch

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import attnkit.checks as checks
import attnkit.lowrank as lowrank
import attnkit.operator as operator
from attnkit.anchor import TransportPlan, sinkhorn_balanced
from attnkit.checks import (
    SUITES,
    _cycle_perturbations,
    _feasible_transport_instance,
    _kl_gaps,
    _link_composition,
    run_checks,
    run_criterion,
)
from attnkit.errors import NonFinite
from attnkit.gauge import CenteredDecomposition, center_scores
from attnkit.lowrank import LowRankChart, SvdResult, svd
from attnkit.score import EvidenceKernel

from test_anchor import generalized_kl
from test_spread import _hold_back, _one_worker, no_child_left  # noqa: F401


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


def _whole_batch_perturbations(rng, plan, mask, count=100):
    """The sampler before its scan stopped early: every candidate of
    both batches is vetted, then the first count finds are kept."""
    rows, cols = np.nonzero(mask)
    if min(mask.shape) < 2 or rows.size < 4:
        return np.empty((0, 2), np.intp), np.empty((0, 2), np.intp), np.empty(0)
    first = rng.integers(rows.size, size=count * 200)
    i1, j1 = rows[first], cols[first]
    second = rng.integers(rows.size, size=count * 200)
    i2, j2 = rows[second], cols[second]
    keep = np.flatnonzero((i1 != i2) & (j1 != j2) & mask[i1, j2] & mask[i2, j1])
    caps = np.minimum(plan[i1[keep], j2[keep]], plan[i2[keep], j1[keep]])
    has_mass = caps > 0
    keep, caps = keep[has_mass][:count], caps[has_mass][:count]
    steps = rng.uniform(0.1, 0.5, keep.size) * caps
    return np.stack([i1[keep], i2[keep]], 1), np.stack([j1[keep], j2[keep]], 1), steps


@settings(max_examples=200, deadline=None)
@given(
    plans_on_masks(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.sampled_from([1, 3, 64, checks._SCAN_BLOCK]),
)
def test_the_early_stopping_scan_picks_the_whole_batch_rewirings(instance, seed, count, block):
    # Small blocks put the count-th find past many block boundaries.
    plan, mask = instance
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with patch.object(checks, "_SCAN_BLOCK", block):
        got = _cycle_perturbations(rng, plan, mask, count)
    expected = _whole_batch_perturbations(reference_rng, plan, mask, count)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # The generator stands where the whole-batch sampler left it.
    assert rng.random() == reference_rng.random()


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

    def without_self(masks, t):
        return [pre - {x} for x, pre in enumerate(real(masks, t))]

    monkeypatch.setattr(checks, "predecessor_sets", without_self)
    results = _by_name(run_criterion("influence_barrier", seed=0))
    assert not results["barrier_outside_predecessors"].passed
    assert results["barrier_outside_predecessors"].max_deviation > 0


def test_ffn_suite_catches_a_dropped_output_bias(monkeypatch):
    # The suite's direct route is ffn_apply, the block ga stage-run runs.
    real = operator.ffn_apply

    def without_b2(rows, params):
        return real(rows, params) - params.b2

    monkeypatch.setattr(operator, "ffn_apply", without_b2)
    (report,) = run_checks(["ffn"], seed=0)
    assert not report.passed
    assert report.properties[0].max_deviation > 1.0


def test_barrier_runs_end_at_their_last_compared_stage(monkeypatch):
    # At seed 0 the 282 runs would take 777 staged blocks at full depth.
    blocks = []
    real = checks.run_schedule

    def counting(initial, schedule):
        blocks.append(len(schedule))
        return real(initial, schedule)

    monkeypatch.setattr(checks, "run_schedule", counting)
    results = _by_name(run_criterion("influence_barrier", seed=0))
    assert len(blocks) == 282 and sum(blocks) == 394
    assert results["barrier_outside_predecessors"].cases == 802


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


def _failed_lines(suite):
    (report,) = run_checks([suite], seed=0)
    return {p.name for p in report.properties if not p.passed}


def test_cycle_sum_suite_catches_an_interaction_that_drops_to_zero(monkeypatch):
    # A zero interaction has zero margins and is blind to unary shifts,
    # so only the cross differences can tell it from the real one.
    def no_interaction(scores):
        dec = center_scores(scores)
        zero = np.zeros_like(dec.interaction)
        return CenteredDecomposition(dec.grand_mean, dec.row_means, dec.col_means, zero,
                                     dec.key_bias)

    monkeypatch.setattr(checks, "center_scores", no_interaction)
    monkeypatch.setattr(lowrank, "center_scores", no_interaction)
    assert _failed_lines("cycle-sum") == {"interaction_keeps_cross_differences"}


def _whole_interaction_residual(chart, interaction):
    return LowRankChart(chart.Q, chart.L, chart.rank, float(np.linalg.norm(interaction)),
                        chart.key_bias, chart.degenerate)


def _halved_factors(chart, interaction):
    return LowRankChart(chart.Q / 2, chart.L / 2, chart.rank, chart.frobenius_residual,
                        chart.key_bias, chart.degenerate)


def _halved_factors_measured(chart, interaction):
    q, l = chart.Q / 2, chart.L / 2
    return LowRankChart(q, l, chart.rank, float(np.linalg.norm(interaction - q @ l.T)),
                        chart.key_bias, chart.degenerate)


@pytest.mark.parametrize(
    "mutant", [_whole_interaction_residual, _halved_factors, _halved_factors_measured]
)
def test_eckart_young_suite_catches_a_wrong_normal_form(monkeypatch, mutant):
    real = checks.score_normal_form

    def wrong(scores, rank):
        return mutant(real(scores, rank), center_scores(scores).interaction)

    monkeypatch.setattr(checks, "score_normal_form", wrong)
    assert "truncation_residual_identity" in _failed_lines("eckart-young")


def _double_centering_mutant(change):
    """center_scores whose interaction is change(scores, decomposition)."""
    def mutant(scores):
        dec = center_scores(scores)
        return CenteredDecomposition(dec.grand_mean, dec.row_means, dec.col_means,
                                     change(np.asarray(scores, dtype=np.float64), dec),
                                     dec.key_bias)
    return mutant


def _row_centering_only(scores, dec):
    return scores - dec.row_means[:, None]


def _grand_mean_dropped(scores, dec):
    return dec.interaction - dec.grand_mean


@pytest.mark.parametrize("change", [_row_centering_only, _grand_mean_dropped])
def test_gauge_suite_catches_a_unary_field_left_in(monkeypatch, change):
    # Both keep every cross difference, so only the gauge suite sees them.
    mutant = _double_centering_mutant(change)
    monkeypatch.setattr(checks, "center_scores", mutant)
    monkeypatch.setattr(lowrank, "center_scores", mutant)
    assert _failed_lines("gauge") == {
        "interaction_margins_vanish",
        "unary_shift_invariance",
        "separable_scores_center_to_zero",
    }
    assert _failed_lines("cycle-sum") == set()


def test_a_scaled_interaction_passes_the_gauge_suite_but_not_cycle_sum(monkeypatch):
    # Twice the interaction still has zero margins and ignores unary
    # fields; its cross differences are twice those of the scores.
    mutant = _double_centering_mutant(lambda scores, dec: 2.0 * dec.interaction)
    monkeypatch.setattr(checks, "center_scores", mutant)
    monkeypatch.setattr(lowrank, "center_scores", mutant)
    assert _failed_lines("gauge") == set()
    assert _failed_lines("cycle-sum") == {"interaction_keeps_cross_differences"}


def _uncentred_factors(real, scores, rank):
    chart = real(scores, rank)
    result = svd(scores)
    root = np.sqrt(result.sigma[:rank])
    q, l = result.U[:, :rank] * root, result.V[:, :rank] * root
    return LowRankChart(q, l, rank, float(np.linalg.norm(np.asarray(scores) - q @ l.T)),
                        chart.key_bias, chart.degenerate)


def _one_factor_too_many(real, scores, rank):
    chart = real(scores, rank + 1)
    return LowRankChart(chart.Q, chart.L, rank, chart.frobenius_residual, chart.key_bias,
                        chart.degenerate)


@pytest.mark.parametrize(
    "mutant, failed",
    [
        (_uncentred_factors, {"truncation_residual_identity", "truncation_beats_random_factors"}),
        (_one_factor_too_many, {"truncation_residual_identity"}),
    ],
)
def test_eckart_young_suite_catches_a_chart_of_the_wrong_matrix_or_rank(
    monkeypatch, mutant, failed
):
    real = checks.score_normal_form
    monkeypatch.setattr(checks, "score_normal_form",
                        lambda scores, rank: mutant(real, scores, rank))
    assert _failed_lines("eckart-young") == failed


def test_eckart_young_suite_catches_wrong_singular_values(monkeypatch):
    def halved(matrix):
        result = svd(matrix)
        return SvdResult(result.U, result.sigma / 2, result.V)

    monkeypatch.setattr(checks, "svd", halved)
    assert _failed_lines("eckart-young") == {
        "svd_reconstruction",
        "truncation_residual_identity",
    }


class TestLinkComposition:
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]

    @staticmethod
    def square(w):
        return 1.0 + w * w

    def test_exponential_passes_exactly(self):
        worst = _link_composition("link", lambda w: np.exp(-w / 2.0), self.grid)
        assert worst.result(len(self.grid), None).passed
        assert worst.value <= 1e-12

    def test_square_plus_one_fails_with_frozen_violation(self):
        # Single-point grid isolates the witness pair (1, 1):
        # g(2) = 5 against g(1)^2 = 4 gives |5-4| / (1+4) = 0.2.
        result = _link_composition("link", self.square, [1.0]).result(1, None)
        assert not result.passed
        npt.assert_allclose(result.max_deviation, 0.2, rtol=1e-15)
        assert result.witness == {"witness": [1.0, 1.0]}

    def test_square_plus_one_fails_on_full_grid(self):
        worst = _link_composition("link", self.square, self.grid)
        assert not worst.result(len(self.grid), None).passed
        assert worst.value >= 0.1

    def test_exp_with_slope_passes(self):
        worst = _link_composition("link", lambda w: np.exp(-3.0 * w), self.grid)
        assert worst.result(len(self.grid), None).passed

    def test_softplus_fails(self):
        worst = _link_composition("link", lambda w: np.logaddexp(0.0, -w), self.grid)
        assert not worst.result(len(self.grid), None).passed

    def test_the_witness_is_the_first_worst_pair(self):
        # On [-1, 1], 1 + s^2 violates most at (-1, 1) and at (1, -1):
        # g(0) = 1 against g(-1) g(1) = 4 gives 3/5. The first pair stays.
        worst = _link_composition("link", self.square, [-1.0, 1.0])
        npt.assert_allclose(worst.value, 0.6, rtol=1e-15)
        assert worst.witness == {"witness": [-1.0, 1.0]}


def test_link_forcing_line_records_the_shortfall_below_its_margin(monkeypatch):
    # A square link that only just misses composing leaves a shortfall
    # of 0.1 minus its violation, with the violation as witness.
    real = checks._link_composition

    def weak(name, g, grid):
        worst = real(name, g, grid)
        if name == "square_link":
            worst.value = 0.04
        return worst

    monkeypatch.setattr(checks, "_link_composition", weak)
    results = _by_name(run_criterion("link_compositionality", seed=0))
    forced = results["square_link_fails_to_compose"]
    assert not forced.passed and forced.cases == 25
    npt.assert_allclose(forced.max_deviation, 0.06, rtol=1e-12)
    assert forced.witness == {"violation": 0.04}
    assert results["exponential_link_composes"].passed


def test_link_line_checks_the_kernel_that_assemble_kernel_builds(monkeypatch):
    # A kernel of softplus entries log(1 + e^s) is positive but does not
    # compose; the line must see it through assemble_kernel.
    assert _by_name(run_criterion("link_compositionality", seed=0))[
        "exponential_link_composes"].passed

    def softplus_kernel(score, prior=None, tau=1.0):
        values = np.where(score.mask, np.log1p(np.exp(score.values)), 0.0)
        return EvidenceKernel(values, score.mask)

    monkeypatch.setattr(checks, "assemble_kernel", softplus_kernel)
    assert not _by_name(run_criterion("link_compositionality", seed=0))[
        "exponential_link_composes"].passed


# run_checks spreads its criteria over forked workers, one per CPU of
# the affinity mask (attnkit.spread). The tests below set that mask and
# wrap os.fork with the helpers of test_spread.


def _raising(log, message):
    """A criterion that logs the pid it runs in, then raises."""

    def criterion(rng, tol=None):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        raise NonFinite(message)

    return criterion


def _as_json(reports):
    return [r.as_json() for r in reports]


@pytest.mark.parametrize("seed", range(7))
def test_one_worker_gives_the_report_of_the_default_run(monkeypatch, no_child_left, seed):
    spread = _as_json(run_checks(list(SUITES), seed=seed))
    _one_worker(monkeypatch)
    assert _as_json(run_checks(list(SUITES), seed=seed)) == spread


def test_repeated_suites_beyond_the_job_pipe_all_run(monkeypatch, no_child_left):
    # 300 jobs make more than the pipe's 128 records: a record then
    # claims a range of consecutive jobs.
    suites = ["cycle-sum"] * 300
    spread = run_checks(suites, seed=3)
    assert len(spread) == 300
    (line,) = {str(r.as_json()) for r in spread}
    _one_worker(monkeypatch)
    assert str(run_checks(["cycle-sum"], seed=3)[0].as_json()) == line


@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_raising_criterion_raises_from_run_checks(monkeypatch, tmp_path, no_child_left, side):
    # The held-back side runs nothing: the other one hits the raise
    # first, and the re-run in report order raises it in the caller.
    log = tmp_path / "pids"
    monkeypatch.setitem(checks.CRITERIA, "kernel_pushforward", _raising(log, "x"))
    _hold_back(monkeypatch, "parent" if side == "child" else "child")
    with pytest.raises(NonFinite) as info:
        run_checks(["composition", "cycle-sum"], seed=0)
    assert type(info.value) is NonFinite and str(info.value) == "x"
    first, rerun = (int(pid) for pid in log.read_text().split())
    assert (first == os.getpid()) == (side == "parent")
    assert rerun == os.getpid()


def test_the_earlier_raising_criterion_wins(monkeypatch, tmp_path, no_child_left):
    # The child runs the earlier one and stops; the parent, held back,
    # claims the rest and hits the later one itself. Report order still
    # decides which one run_checks raises.
    log = tmp_path / "pids"
    monkeypatch.setitem(checks.CRITERIA, "softmax_reduction", _raising(log, "early"))
    monkeypatch.setitem(checks.CRITERIA, "cycle_sum_invariance", _raising(log, "late"))
    _hold_back(monkeypatch, "parent")
    with pytest.raises(NonFinite, match="^early$"):
        run_checks(["composition", "cycle-sum"], seed=0)
    child, late, rerun = (int(pid) for pid in log.read_text().split())
    assert child != os.getpid() and late == rerun == os.getpid()


def test_jobs_of_a_child_that_died_are_rerun(monkeypatch, no_child_left):
    with monkeypatch.context() as m:
        _one_worker(m)
        expected = _as_json(run_checks(["composition", "cycle-sum"], seed=1))
    parent = os.getpid()
    real = checks.CRITERIA["link_compositionality"]

    def dies_in_a_child(rng, tol=None):
        if os.getpid() != parent:
            os._exit(1)
        return real(rng, tol)

    monkeypatch.setitem(checks.CRITERIA, "link_compositionality", dies_in_a_child)
    _hold_back(monkeypatch, "parent")
    assert _as_json(run_checks(["composition", "cycle-sum"], seed=1)) == expected


def _refusing(rng, tol=None):
    raise ValueError("refused")


@pytest.mark.parametrize("workers", ["one", "two"])
def test_a_criterion_that_refuses_is_one_failed_property(monkeypatch, no_child_left, workers):
    # A plain ValueError, a library type refusing what the code under
    # check built, is a broken law, not a crash. With two workers the
    # child runs the refusing criterion.
    monkeypatch.setitem(checks.CRITERIA, "mixture_flattening", _refusing)
    if workers == "one":
        _one_worker(monkeypatch)
    else:
        _hold_back(monkeypatch, "parent")
    mixture, cycle_sum = run_checks(["mixture", "cycle-sum"], seed=0)
    assert mixture.as_json() == {"suite": "mixture", "passed": False, "properties": [{
        "name": "mixture_flattening", "cases": 0, "max_deviation": 1.0, "tolerance": 0.0,
        "passed": False, "witness": {"error": "refused"}}]}
    assert cycle_sum.passed
