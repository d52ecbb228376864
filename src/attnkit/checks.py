"""Seeded property suites for the check harness.

Every identity the library stands on gets a randomized verifier here:
anchor gauge invariance, the direct-softmax reduction, transport
marginals and KL optimality, Eckart-Young optimality of the score
normal form, centering, the feedforward kernel form, mixture
flattening, the influence barrier, link compositionality, pushforward
accounting, the cross differences that centering keeps, and chart
freedom. Each verifier draws its instances from a generator
seeded per criterion, so a fixed seed reproduces the exact report, and
run_checks spreads the criteria over forked worker processes with
attnkit.spread, in any order.

Deviations are always "should be small" numbers compared against a
tolerance; forcing-style criteria (where a named non-example must fail
by a margin) report the shortfall below the required margin instead, so
passing still means deviation <= tolerance.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .anchor import (
    ConditionalFamily,
    Marginals,
    row_anchor,
    sinkhorn_balanced,
)
from .carrier import RefinementMap, pushforward_kernel
from .errors import NonFinite
from .gauge import center_scores, scale_kernel
from .lowrank import score_normal_form, svd
from .operator import (
    AttentionParams,
    FfnParams,
    attention,
    ffn_as_ga,
    flatten_mixture,
    masked_row_softmax,
    update,
)
from .score import EvidenceKernel, Frozen, MaskedScore, assemble_kernel
from .spread import spread
from .staged import ScheduleStep, predecessor_sets, run_schedule


class PropertyResult(Frozen):
    """Outcome of one verified property: worst deviation vs tolerance."""

    def __init__(self, name: str, cases: int, max_deviation: float, tolerance: float,
                 passed: bool, witness: dict | None = None):
        self.__dict__.update(name=name, cases=cases, max_deviation=max_deviation,
                             tolerance=tolerance, passed=passed, witness=witness)

    def as_json(self) -> dict:
        out = {
            "name": self.name,
            "cases": self.cases,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class SuiteReport(Frozen):
    """All properties of one named suite, plus wall time.

    seconds stays out of the JSON form on purpose: reports must be
    byte-identical across runs with the same seed.
    """

    def __init__(self, suite: str, properties: tuple, seconds: float):
        self.__dict__.update(suite=suite, properties=properties, seconds=seconds)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def as_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "properties": [p.as_json() for p in self.properties],
        }


class _Worst:
    """One property's verdict: the largest deviation seen (see) or a
    summed count (add), and the witness of the first case that reached
    it or was counted. Values at or below 0 record nothing. result, the
    one place a PropertyResult is built, checks it against tol (the
    default tolerance when None) and shows the witness only on a failure."""

    def __init__(self, name, default_tol):
        self.name = name
        self.default_tol = default_tol
        self.value = 0.0
        self.witness = None

    def see(self, value, **witness):
        if value > self.value:
            self.value = value
            self.witness = witness

    def add(self, count, **witness):
        if count > 0:
            self.value += count
            if self.witness is None:
                self.witness = witness

    def result(self, cases, tol):
        tolerance = self.default_tol if tol is None else tol
        deviation = float(self.value)
        passed = deviation <= tolerance
        return PropertyResult(
            name=self.name,
            cases=cases,
            max_deviation=deviation,
            tolerance=tolerance,
            passed=passed,
            witness=None if passed else self.witness,
        )


def _masked_instance(rng, n_max, density_min=0.2, square=True, scale=4.0):
    n_x = int(rng.integers(2, n_max + 1))
    n_y = n_x if square else int(rng.integers(2, n_max + 1))
    density = float(rng.uniform(density_min, 1.0))
    mask = rng.random((n_x, n_y)) < density
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, int(rng.integers(n_y))] = True
    scores = np.where(mask, rng.uniform(-scale, scale, (n_x, n_y)), 0.0)
    return scores, mask


def check_row_gauge_invariance(rng, tol=None):
    """Adding a per-row shift to the scores must not move the anchored
    conditionals."""
    worst = _Worst("row_gauge_invariance", 1e-12)
    cases = 100
    for i in range(cases):
        scores, mask = _masked_instance(rng, 64)
        shifts = rng.uniform(-3.0, 3.0, scores.shape[0])
        base = row_anchor(assemble_kernel(MaskedScore(scores, mask)))
        shifted = row_anchor(assemble_kernel(MaskedScore(scores + shifts[:, None], mask)))
        dev = float(np.abs(base.values - shifted.values).max())
        worst.see(dev, case=i, n=scores.shape[0], deviation=dev)
    return [worst.result(cases, tol)]


def check_softmax_reduction(rng, tol=None):
    """Unit temperature, unit prior, full mask: the anchored operator is
    plain softmax attention coded directly."""
    worst = _Worst("softmax_reduction", 1e-12)
    cases = 50
    for i in range(cases):
        n = int(rng.integers(2, 33))
        d_model = int(rng.integers(2, 9))
        d_k = int(rng.integers(1, 9))
        d_v = int(rng.integers(1, 9))
        e = rng.normal(size=(n, d_model))
        params = AttentionParams(
            w_q=rng.normal(size=(d_model, d_k)),
            w_k=rng.normal(size=(d_model, d_k)),
            w_v=rng.normal(size=(d_model, d_v)),
        )
        weights, out = attention(e, params)

        q, k, v = e @ params.w_q, e @ params.w_k, e @ params.w_v
        s = (q @ k.T) / math.sqrt(d_k)
        s = s - s.max(axis=1, keepdims=True)
        w = np.exp(s)
        w = w / w.sum(axis=1, keepdims=True)
        dev = max(
            float(np.abs(weights - w).max()),
            float(np.abs(out - w @ v).max()),
        )
        worst.see(dev, case=i, n=n, deviation=dev)
    return [worst.result(cases, tol)]


def _feasible_transport_instance(rng, n_max):
    scores, mask = _masked_instance(rng, n_max, square=False, scale=1.5)
    witness_values = np.where(mask, rng.uniform(0.2, 3.0, mask.shape), 0.0)
    for j in np.flatnonzero(~mask.any(axis=0)):
        i = int(rng.integers(mask.shape[0]))
        mask[i, j] = True
        witness_values[i, j] = 1.0
    kernel = EvidenceKernel(np.where(mask, np.exp(scores), 0.0), mask)
    marginals = Marginals(witness_values.sum(axis=1), witness_values.sum(axis=0))
    return kernel, marginals


# Rewiring candidates vetted per step of _cycle_perturbations' scan.
_SCAN_BLOCK = 1024


def _cycle_perturbations(rng, plan, mask, count=100):
    """Up to count feasible 2x2 rewirings of plan on mask, as arrays.

    Two batches of count * 200 corner indices (i1, j1), (i2, j2) are
    drawn uniformly from the mask support, which makes every admissible
    ordered rectangle equally likely. The first count candidates, in
    draw order, whose off-corners (i1, j2), (i2, j1) are on the mask and
    carry mass move a uniform 10-50% of the smaller off-corner mass onto
    the corners, so both marginals stay fixed. Candidates are vetted in
    blocks of _SCAN_BLOCK, and the scan stops at the block that holds the
    count-th find: both batches are always drawn in full, so the
    generator's stream does not depend on where the scan stopped.
    Returns rows [i1, i2] and cols [j1, j2], each (k, 2), and steps (k,).
    """
    rows, cols = np.nonzero(mask)
    # A rectangle needs two rows, two columns and four support entries.
    if min(mask.shape) < 2 or rows.size < 4:
        return np.empty((0, 2), np.intp), np.empty((0, 2), np.intp), np.empty(0)
    first = rng.integers(rows.size, size=count * 200)
    second = rng.integers(rows.size, size=count * 200)
    found, caps, total = [], [], 0
    for start in range(0, first.size, _SCAN_BLOCK):
        f, s = first[start : start + _SCAN_BLOCK], second[start : start + _SCAN_BLOCK]
        i1, j1, i2, j2 = rows[f], cols[f], rows[s], cols[s]
        ok = np.flatnonzero((i1 != i2) & (j1 != j2) & mask[i1, j2] & mask[i2, j1])
        cap = np.minimum(plan[i1[ok], j2[ok]], plan[i2[ok], j1[ok]])
        has_mass = cap > 0
        found.append(start + ok[has_mass])
        caps.append(cap[has_mass])
        total += caps[-1].size
        if total >= count:
            break
    keep, caps = np.concatenate(found)[:count], np.concatenate(caps)[:count]
    steps = rng.uniform(0.1, 0.5, keep.size) * caps
    f, s = first[keep], second[keep]
    return np.stack([rows[f], rows[s]], 1), np.stack([cols[f], cols[s]], 1), steps


def _kl_gaps(plan, kernel, rows, cols, steps):
    """KL(plan) - KL(rewired) per rewiring, from the four entries it
    touches. No net mass moves, so the -p + k terms of the KL cancel."""
    r, c = rows[:, [0, 1, 0, 1]], cols[:, [0, 1, 1, 0]]
    p, k = plan[r, c], kernel[r, c]
    moved = p + steps[:, None] * np.array([1.0, 1.0, -1.0, -1.0])
    before = p * np.log(np.where(p > 0, p / k, 1.0))  # 0 log 0 = 0
    return (before - moved * np.log(moved / k)).sum(axis=1)


def check_transport_anchor(rng, tol=None):
    """Balanced transport: marginals met, scaling-gauge blind, and KL
    optimal against feasible rewirings. The KL line counts only the
    instances whose mask admits at least one rewiring."""
    cases = 30
    kl_cases = 0
    marginal_gap = _Worst("sinkhorn_marginals", 1e-8)
    scaling = _Worst("sinkhorn_scaling_invariance", 1e-6)
    optimality = _Worst("sinkhorn_kl_optimality", 1e-10)
    for i in range(cases):
        kernel, marginals = _feasible_transport_instance(rng, 64)
        plan = sinkhorn_balanced(kernel, marginals)
        dev = float(
            np.abs(plan.row_marginal - marginals.mu_out).sum()
            + np.abs(plan.col_marginal - marginals.mu_in).sum()
        )
        marginal_gap.see(dev, case=i, shape=list(kernel.shape), deviation=dev)

        a = rng.uniform(0.25, 4.0, kernel.shape[0])
        b = rng.uniform(0.25, 4.0, kernel.shape[1])
        replan = sinkhorn_balanced(scale_kernel(kernel, a, b), marginals)
        dev = float(np.abs(plan.values - replan.values).max())
        scaling.see(dev, case=i, shape=list(kernel.shape), deviation=dev)

        rows, cols, steps = _cycle_perturbations(rng, plan.values, kernel.mask)
        if steps.size:
            kl_cases += 1
            gap = float(_kl_gaps(plan.values, kernel.values, rows, cols, steps).max())
            optimality.see(gap, case=i, excess=gap)
    return [
        marginal_gap.result(cases, tol),
        scaling.result(cases, tol),
        optimality.result(kl_cases, tol),
    ]


def check_truncation_optimality(rng, tol=None):
    """Eckart-Young on the score normal form: its residual, reported and
    as left by its factors, is the tail energy of the double-centered
    interaction; no random factor pair fits that interaction closer;
    and the SVD reconstructs its input."""
    cases = 20
    identity = _Worst("truncation_residual_identity", 1e-8)
    optimality = _Worst("truncation_beats_random_factors", 1e-10)
    recon = _Worst("svd_reconstruction", 1e-8)
    for i in range(cases):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(2, 13))
        matrix = rng.normal(size=(n, m))
        result = svd(matrix)
        dev = float(np.abs((result.U * result.sigma) @ result.V.T - matrix).max())
        recon.see(dev, case=i, deviation=dev)

        rank = int(rng.integers(1, min(n, m)))
        chart = score_normal_form(matrix, rank)
        interaction = center_scores(matrix).interaction
        sigma = svd(interaction).sigma
        tail = float((sigma[rank:] ** 2).sum())
        fit = float(np.linalg.norm(interaction - chart.Q @ chart.L.T))
        rel = max(abs(chart.frobenius_residual**2 - tail), abs(fit**2 - tail))
        rel /= max(float((sigma**2).sum()), 1e-300)
        identity.see(rel, case=i, rank=rank, deviation=rel)

        # One block holds the same normals as 200 alternating x, y draws.
        draws = rng.normal(size=(200, (n + m) * rank))
        x = draws[:, : n * rank].reshape(200, n, rank)
        y = draws[:, n * rank :].reshape(200, m, rank)
        contenders = np.linalg.norm(interaction - x @ y.transpose(0, 2, 1), axis=(1, 2))
        shortfall = chart.frobenius_residual - float(contenders.min())
        optimality.see(shortfall, case=i, rank=rank, excess=shortfall)
    return [identity.result(cases, tol), optimality.result(cases, tol), recon.result(cases, tol)]


def check_score_centering(rng, tol=None):
    """Double centering kills unary fields and nothing else."""
    cases = 40
    lines = [
        _Worst("interaction_margins_vanish", 1e-10),
        _Worst("unary_shift_invariance", 1e-10),
        _Worst("separable_scores_center_to_zero", 1e-10),
    ]
    for i in range(cases):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(2, 33))
        scores = rng.normal(size=(n, m)) * 3.0
        dec = center_scores(scores)
        margins = max(
            float(np.abs(dec.interaction.sum(axis=0)).max()),
            float(np.abs(dec.interaction.sum(axis=1)).max()),
        )
        lines[0].see(margins, case=i, deviation=margins)

        r = rng.normal(size=n) * 2.0
        c = rng.normal(size=m) * 2.0
        shifted = center_scores(scores + r[:, None] + c[None, :])
        dev = float(np.abs(shifted.interaction - dec.interaction).max())
        lines[1].see(dev, case=i, deviation=dev)

        dev = float(np.abs(center_scores(r[:, None] + c[None, :]).interaction).max())
        lines[2].see(dev, case=i, deviation=dev)
    return [line.result(cases, tol) for line in lines]


def check_ffn_equivalence(rng, tol=None):
    """Direct two-layer evaluation equals the signed-carrier kernel form."""
    worst = _Worst("ffn_signed_kernel_equivalence", 1e-10)
    cases = 100
    activations = ("relu", "gelu", "tanh")
    for i in range(cases):
        d_model = int(rng.integers(1, 17))
        d_ff = int(rng.integers(1, 65))
        params = FfnParams(
            w1=rng.normal(size=(d_ff, d_model)),
            b1=rng.normal(size=d_ff),
            w2=rng.normal(size=(d_model, d_ff)),
            b2=rng.normal(size=d_model),
            activation=activations[i % 3],
        )
        x = rng.normal(size=d_model)
        direct, ga_form = ffn_as_ga(x[None, :], params)
        dev = float(np.abs(direct - ga_form).max())
        worst.see(dev, case=i, activation=activations[i % 3], deviation=dev)
    return [worst.result(cases, tol)]


def _mixed_update(gates, branches) -> np.ndarray:
    """sum_b gate(., b) * update(W_b, v_b), summed in branch order: the
    mixture that updating with the flattened weights must reproduce."""
    out = np.zeros((gates.shape[0], branches[0][1].shape[1]))
    for b, (weights, values) in enumerate(branches):
        out += gates[:, b : b + 1] * update(weights, values)
    return out


def check_mixture_flattening(rng, tol=None):
    """Mixtures of updates equal one update over the branch union."""
    cases = 50
    cond = _Worst("conditional_mixture_flattening", 1e-12)
    plan = _Worst("plan_mixture_flattening", 1e-12)
    for i in range(cases):
        n_x = int(rng.integers(2, 9))
        n_branches = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))

        cond_branches = []
        plan_branches = []
        for _ in range(n_branches):
            n_y = int(rng.integers(2, 7))
            mask = rng.random((n_x, n_y)) < 0.7
            for r in np.flatnonzero(~mask.any(axis=1)):
                mask[r, int(rng.integers(n_y))] = True
            raw = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
            family_values = raw / raw.sum(axis=1, keepdims=True)
            field_values = rng.normal(size=(n_y, d))
            cond_branches.append((ConditionalFamily(family_values, mask), field_values))
            plan_branches.append((EvidenceKernel(raw, mask), field_values))
        stacked = np.concatenate([v for _, v in cond_branches], axis=0)

        raw_gates = rng.uniform(0.05, 1.0, (n_x, n_branches))
        gates = raw_gates / raw_gates.sum(axis=1, keepdims=True)
        flattened = ConditionalFamily(*flatten_mixture(gates, [w for w, _ in cond_branches]))
        dev = float(np.abs(update(flattened, stacked) - _mixed_update(gates, cond_branches)).max())
        cond.see(dev, case=i, branches=n_branches, deviation=dev)

        beta = rng.uniform(0.0, 2.0, (n_x, n_branches))
        plan_flat = EvidenceKernel(*flatten_mixture(beta, [w for w, _ in plan_branches]))
        dev = float(np.abs(update(plan_flat, stacked) - _mixed_update(beta, plan_branches)).max())
        plan.see(dev, case=i, branches=n_branches, deviation=dev)
    return [cond.result(cases, tol), plan.result(cases, tol)]


def _adjacency(masks):
    """adjacency[s][v]: the rows u with masks[s][v, u], as Python lists."""
    return [
        [[u for u, on in enumerate(row) if on] for row in np.asarray(mask).tolist()]
        for mask in masks
    ]


def _oracle_predecessors(adjacency, x, t):
    frontier = {x}
    for s in range(t - 1, -1, -1):
        frontier = {u for v in frontier for u in adjacency[s][v]}
    return frontier


def check_influence_barrier(rng, tol=None):
    """Perturbations outside the composed predecessor set never move the
    stage update, bit for bit.

    Stage masks always include the diagonal: the residual path and the
    query-side read mean every row depends on its own past, so a
    relation without self-edges would under-report reachability.

    One perturbed run per row u answers every (x, t) it lies outside
    of, against one unperturbed run. Each run stops at the last stage it
    is compared on: a run stopped at t gives the same stage-t bits as a
    full-depth run.
    """
    cases = 50
    barrier = _Worst("barrier_outside_predecessors", 0.0)
    oracle = _Worst("predecessors_match_path_oracle", 0.0)
    checked = 0
    for i in range(cases):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 5))
        schedule = []
        for _ in range(depth):
            mask = rng.random((n, n)) < rng.uniform(0.2, 0.8)
            mask[np.arange(n), np.arange(n)] = True
            schedule.append(
                ScheduleStep(
                    mask=mask,
                    attn=AttentionParams(
                        w_q=rng.normal(size=(d, d)) * 0.4,
                        w_k=rng.normal(size=(d, d)) * 0.4,
                        w_v=rng.normal(size=(d, d)) * 0.4,
                    ),
                    ffn=FfnParams(
                        w1=rng.normal(size=(2 * d, d)) * 0.4,
                        b1=rng.normal(size=2 * d) * 0.1,
                        w2=rng.normal(size=(d, 2 * d)) * 0.4,
                        b2=rng.normal(size=d) * 0.1,
                        activation=("relu", "gelu", "tanh")[i % 3],
                    ),
                )
            )
        initial = rng.normal(size=(n, d))
        masks = [step.mask for step in schedule]
        adjacency = _adjacency(masks)
        outside = {}
        for t in range(1, depth + 1):
            for x, pre in enumerate(predecessor_sets(masks, t)):
                if pre != _oracle_predecessors(adjacency, x, t):
                    oracle.add(1, case=i, x=x, t=t)
                for u in range(n):
                    if u not in pre:
                        outside.setdefault(u, []).append((x, t))
        last = {u: max(t for _, t in pairs) for u, pairs in outside.items()}
        base = run_schedule(initial, schedule[: max(last.values(), default=0)]).updates
        for u in sorted(outside):
            perturbed = initial.copy()
            perturbed[u] = perturbed[u] + rng.normal(size=d)
            bumped = run_schedule(perturbed, schedule[: last[u]]).updates
            for x, t in outside[u]:
                checked += 1
                if not np.array_equal(base[t - 1][x], bumped[t - 1][x]):
                    barrier.add(1, case=i, x=x, t=t, u=u)
    return [barrier.result(checked, tol), oracle.result(cases, tol)]


def _link_composition(name, g, grid) -> _Worst:
    """The evidence factor must be multiplicative. g maps an array of
    works w to the factors of the scores -w, entry by entry; each grid
    pair (w1, w2) deviates by |g(w1+w2) - g(w1) g(w2)| / (1 + |g(w1) g(w2)|),
    and the first worst pair is the witness. Exponential factors pass at
    rounding level, anything else is expected to fail visibly."""
    worst = _Worst(name, 1e-12)
    works = [float(w) for w in grid]
    single = g(np.array([works]))[0].tolist()
    joint = g(np.add.outer(works, works)).tolist()
    for w1, g1, row in zip(works, single, joint):
        for w2, g2, g12 in zip(works, single, row):
            rhs = g1 * g2
            worst.see(abs(g12 - rhs) / (1.0 + abs(rhs)), witness=[w1, w2])
    return worst


def check_link_compositionality(rng, tol=None):
    """The kernel that assemble_kernel builds composes over work; 1 + s^2
    must fail by a margin of 0.1: that line records the shortfall below it."""
    grid = np.linspace(0.2, 5.0, 25)

    def shipped(w):
        return assemble_kernel(MaskedScore(-w, np.ones(w.shape, dtype=bool))).values

    composes = _link_composition("exponential_link_composes", shipped, grid)
    violation = _link_composition("square_link", lambda w: 1.0 + w * w, grid).value
    forced = _Worst("square_link_fails_to_compose", 0.0)
    forced.see(0.1 - violation, violation=violation)
    return [composes.result(grid.size, tol), forced.result(grid.size, tol)]


def check_kernel_pushforward(rng, tol=None):
    """Coarse-graining conserves mass and induces exactly the right
    support."""
    cases = 30
    mass = _Worst("pushforward_mass_conservation", 1e-12)
    support = _Worst("pushforward_support_exact", 0.0)
    for i in range(cases):
        n = int(rng.integers(3, 41))
        density = float(rng.uniform(0.2, 0.9))
        mask = rng.random((n, n)) < density
        values = np.where(mask, rng.uniform(0.05, 3.0, (n, n)), 0.0)
        kernel = EvidenceKernel(values, mask)
        n_c = int(rng.integers(1, n + 1))
        assignment = rng.integers(0, n_c, size=n)
        assignment[:n_c] = np.arange(n_c)  # keep the quotient surjective
        rho = RefinementMap(assignment, n_c)
        coarse = pushforward_kernel(kernel, rho, rho)
        total = float(values.sum())
        dev = abs(float(coarse.values.sum()) - total) / max(total, 1e-300)
        mass.see(dev, case=i, deviation=dev)
        expected_support = np.zeros((n_c, n_c), dtype=bool)
        fine_rows, fine_cols = np.nonzero(mask)
        expected_support[assignment[fine_rows], assignment[fine_cols]] = True
        bad = int((coarse.mask != expected_support).sum())
        support.add(bad, case=i, bad_entries=bad)
    return [mass.result(cases, tol), support.result(cases, tol)]


def _cross_differences(matrix):
    """M[x,y] - M[x,0] - M[0,y] + M[0,0]: every 2x2 cross difference
    M[x,y] - M[x,y'] - M[x',y] + M[x',y'] is a sum of these."""
    return matrix - matrix[:, :1] - matrix[:1, :] + matrix[0, 0]


def check_cycle_sum_invariance(rng, tol=None):
    """The cycle sums of the bipartite carrier graph, the 2x2 cross
    differences of a score matrix, are the invariants of its unary
    gauge: double centering S0 + r 1^T + 1 c^T keeps those of S."""
    cases = 30
    worst = _Worst("interaction_keeps_cross_differences", 1e-10)
    for i in range(cases):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(2, 33))
        r = rng.normal(size=n) * 2.0
        c = rng.normal(size=m) * 2.0
        scores = rng.normal(size=(n, m)) * 3.0 + r[:, None] + c[None, :]
        interaction = center_scores(scores).interaction
        dev = float(np.abs(_cross_differences(interaction) - _cross_differences(scores)).max())
        worst.see(dev, case=i, shape=[n, m], deviation=dev)
    return [worst.result(cases, tol)]


def check_chart_freedom(rng, tol=None):
    """Invertible factor maps move the chart, not the scores or weights."""
    cases = 50
    product = _Worst("chart_product_invariance", 1e-8)
    weight = _Worst("chart_weight_invariance", 1e-8)
    for i in range(cases):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(2, 17))
        r = int(rng.integers(1, 5))
        q = rng.normal(size=(n, r))
        l = rng.normal(size=(m, r))
        q1, _ = np.linalg.qr(rng.normal(size=(r, r)))
        q2, _ = np.linalg.qr(rng.normal(size=(r, r)))
        a = q1 @ np.diag(rng.uniform(0.5, 2.0, r)) @ q2
        q_new, l_new = q @ a.T, l @ np.linalg.inv(a)
        dev = float(np.abs(q_new @ l_new.T - q @ l.T).max())
        product.see(dev, case=i, rank=r, deviation=dev)

        full = np.ones((n, m), dtype=bool)
        before = masked_row_softmax(q @ l.T, full)
        after = masked_row_softmax(q_new @ l_new.T, full)
        dev = float(np.abs(before - after).max())
        weight.see(dev, case=i, rank=r, deviation=dev)
    return [product.result(cases, tol), weight.result(cases, tol)]


CRITERIA = {
    "row_gauge_invariance": check_row_gauge_invariance,
    "softmax_reduction": check_softmax_reduction,
    "transport_anchor": check_transport_anchor,
    "truncation_optimality": check_truncation_optimality,
    "score_centering": check_score_centering,
    "ffn_equivalence": check_ffn_equivalence,
    "mixture_flattening": check_mixture_flattening,
    "influence_barrier": check_influence_barrier,
    "link_compositionality": check_link_compositionality,
    "kernel_pushforward": check_kernel_pushforward,
    "cycle_sum_invariance": check_cycle_sum_invariance,
    "chart_freedom": check_chart_freedom,
}

SUITES = {
    "gauge": ("row_gauge_invariance", "score_centering"),
    "sinkhorn": ("transport_anchor",),
    "eckart-young": ("truncation_optimality", "chart_freedom"),
    "ffn": ("ffn_equivalence",),
    "mixture": ("mixture_flattening",),
    "barrier": ("influence_barrier",),
    "composition": ("softmax_reduction", "link_compositionality", "kernel_pushforward"),
    "cycle-sum": ("cycle_sum_invariance",),
}

_CRITERIA_INDEX = {name: k for k, name in enumerate(CRITERIA)}


def run_criterion(name: str, seed: int, tol: float | None = None):
    """Run one named criterion with its own derived generator."""
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}")
    rng = np.random.default_rng([seed, _CRITERIA_INDEX[name]])
    return CRITERIA[name](rng, tol)


def _timed(criterion, seed, tol):
    """(properties, seconds) of one criterion. A ValueError other than
    NonFinite, a library type refusing what the code under check built,
    is one failed property named after the criterion: no cases, and the
    error's message as its witness."""
    start = time.perf_counter()
    try:
        properties = run_criterion(criterion, seed, tol)
    except NonFinite:
        raise
    except ValueError as exc:
        properties = [PropertyResult(criterion, 0, 1.0, 0.0, False, {"error": str(exc)})]
    return properties, time.perf_counter() - start


def run_checks(suites, seed: int = 0, tol: float | None = None) -> list[SuiteReport]:
    """Run the named suites, each a key of SUITES; deterministic for a
    fixed seed.

    tol, when given, replaces every property's default tolerance,
    which is how the harness surfaces floating-point witnesses on
    demand (tol=0).

    The criteria of every suite, repeats included, are jobs spread over
    the CPUs this process may run on (spread), so the first criterion
    that raises raises as it would in one process. A suite's seconds are
    the sum of its criteria's own times.
    """
    jobs = [criterion for suite in suites for criterion in SUITES[suite]]
    ran = iter(spread(lambda k: _timed(jobs[k], seed, tol), len(jobs)))
    reports = []
    for suite in suites:
        done = [next(ran) for _ in SUITES[suite]]
        reports.append(SuiteReport(suite=suite, properties=tuple(p for ps, _ in done for p in ps),
                                   seconds=sum(seconds for _, seconds in done)))
    return reports
