"""Seeded property suites for the check harness.

Every identity the library stands on gets a randomized verifier here:
anchor gauge invariance, the direct-softmax reduction, transport
marginals and KL optimality, truncation optimality, centering, the
feedforward kernel form, mixture flattening, the influence barrier,
link compositionality, pushforward accounting, cycle invariants, and
chart freedom. Each verifier draws its instances from a generator
seeded per criterion, so a fixed seed reproduces the exact report.

Deviations are always "should be small" numbers compared against a
tolerance; forcing-style criteria (where a named non-example must fail
by a margin) report the shortfall below the required margin instead, so
passing still means deviation <= tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .anchor import (
    ConditionalFamily,
    Marginals,
    row_anchor,
    sinkhorn_balanced,
)
from .carrier import RefinementMap, pushforward_kernel
from .errors import UnknownSuite
from .gauge import GaugeGraph, center_scores, cycle_sum, weighted_row_center
from .lowrank import reparameterize_chart, svd, truncate
from .operator import (
    AttentionParams,
    FfnParams,
    ValueField,
    attention,
    conditional_update,
    ffn_as_ga,
    gated_mixture_conditional,
    gated_mixture_plan,
    masked_row_softmax,
)
from .score import EvidenceKernel, Link, MaskedScore, assemble_kernel
from .staged import (
    ChartSpec,
    ScheduleStep,
    StagedConfig,
    influence_relation,
    predecessor_sets,
    run_schedule,
)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one verified property: worst deviation vs tolerance."""

    name: str
    cases: int
    max_deviation: float
    tolerance: float
    passed: bool
    witness: dict | None = None

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


@dataclass(frozen=True)
class SuiteReport:
    """All properties of one named suite, plus wall time.

    seconds stays out of the JSON form on purpose: reports must be
    byte-identical across runs with the same seed.
    """

    suite: str
    properties: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def as_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "properties": [p.as_json() for p in self.properties],
        }


def _result(name, cases, deviation, default_tol, tol_override, witness=None):
    tolerance = default_tol if tol_override is None else tol_override
    deviation = float(deviation)
    passed = deviation <= tolerance
    return PropertyResult(
        name=name,
        cases=cases,
        max_deviation=deviation,
        tolerance=tolerance,
        passed=passed,
        witness=witness if not passed else None,
    )


class _Worst:
    """One property's verdict: the largest deviation seen (see) or a
    summed count (add), and the witness of the first case that reached
    it or was counted. Values at or below 0 record nothing."""

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
        return _result(self.name, cases, self.value, self.default_tol, tol, self.witness)


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
    link = Link("exp")
    for i in range(cases):
        scores, mask = _masked_instance(rng, 64)
        shifts = rng.uniform(-3.0, 3.0, scores.shape[0])
        base = row_anchor(assemble_kernel(MaskedScore(scores, mask), None, link))
        shifted = row_anchor(
            assemble_kernel(MaskedScore(scores + shifts[:, None], mask), None, link)
        )
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
        family, out = attention(e, params)

        q, k, v = e @ params.w_q, e @ params.w_k, e @ params.w_v
        s = (q @ k.T) / math.sqrt(d_k)
        s = s - s.max(axis=1, keepdims=True)
        w = np.exp(s)
        w = w / w.sum(axis=1, keepdims=True)
        dev = max(
            float(np.abs(family.values - w).max()),
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


def _cycle_perturbations(rng, plan, mask, count=100):
    """Up to count feasible 2x2 rewirings of plan on mask, as arrays.

    One batch of count * 200 candidate corner pairs (i1, j1), (i2, j2)
    is drawn uniformly from the mask support, which makes every
    admissible ordered rectangle equally likely. The first count
    candidates, in draw order, whose off-corners (i1, j2), (i2, j1) are
    on the mask and carry mass move a uniform 10-50% of the smaller
    off-corner mass onto the corners, so both marginals stay fixed.
    Returns rows [i1, i2] and cols [j1, j2], each (k, 2), and steps (k,).
    """
    rows, cols = np.nonzero(mask)
    # A rectangle needs two rows, two columns and four support entries.
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
        scaled = EvidenceKernel(
            a[:, None] * kernel.values * b[None, :], kernel.mask
        )
        replan = sinkhorn_balanced(scaled, marginals)
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
    """Rank-r truncation: residual identity, optimality against random
    factorizations, and lossless reconstruction."""
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

        total_energy = float((result.sigma**2).sum())
        rank = int(rng.integers(1, min(n, m)))
        approx, residual = truncate(matrix, rank)
        tail = float((result.sigma[rank:] ** 2).sum())
        rel = abs(residual**2 - tail) / max(total_energy, 1e-300)
        identity.see(rel, case=i, rank=rank, deviation=rel)

        # One block holds the same normals as 200 alternating x, y draws.
        draws = rng.normal(size=(200, (n + m) * rank))
        x = draws[:, : n * rank].reshape(200, n, rank)
        y = draws[:, n * rank :].reshape(200, m, rank)
        contenders = np.linalg.norm(matrix - x @ y.transpose(0, 2, 1), axis=(1, 2))
        shortfall = residual - float(contenders.min())
        optimality.see(shortfall, case=i, rank=rank, excess=shortfall)
    return [identity.result(cases, tol), optimality.result(cases, tol), recon.result(cases, tol)]


def check_score_centering(rng, tol=None):
    """Double centering kills unary fields and nothing else."""
    cases = 40
    lines = [
        _Worst("interaction_margins_vanish", 1e-10),
        _Worst("unary_shift_invariance", 1e-10),
        _Worst("separable_scores_center_to_zero", 1e-10),
        _Worst("weighted_center_zero_mean", 1e-12),
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

        weights = rng.uniform(0.05, 2.0, (n, m))
        centered = weighted_row_center(scores, weights)
        dev = float(np.abs((weights * centered).sum(axis=1)).max())
        lines[3].see(dev, case=i, deviation=dev)
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
        direct, ga_form = ffn_as_ga(x, params)
        dev = float(np.abs(direct - ga_form).max())
        worst.see(dev, case=i, activation=activations[i % 3], deviation=dev)
    return [worst.result(cases, tol)]


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
            cond_branches.append(
                (ConditionalFamily(family_values, mask), ValueField(field_values))
            )
            plan_branches.append(
                (EvidenceKernel(raw, mask), ValueField(field_values))
            )

        raw_gates = rng.uniform(0.05, 1.0, (n_x, n_branches))
        gates = raw_gates / raw_gates.sum(axis=1, keepdims=True)
        out, flattened = gated_mixture_conditional(gates, cond_branches)
        stacked = ValueField(
            np.concatenate([f.values for _, f in cond_branches], axis=0)
        )
        dev = float(np.abs(conditional_update(flattened, stacked) - out).max())
        cond.see(dev, case=i, branches=n_branches, deviation=dev)

        beta = rng.uniform(0.0, 2.0, (n_x, n_branches))
        plan_out, plan_flat = gated_mixture_plan(beta, plan_branches)
        plan_stacked = np.concatenate([f.values for _, f in plan_branches], axis=0)
        dev = float(np.abs(plan_flat.values @ plan_stacked - plan_out).max())
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
        cfg = StagedConfig(chart=ChartSpec("rms_norm"))
        masks = [step.mask for step in schedule]
        inf = influence_relation(masks)
        adjacency = _adjacency(masks)
        outside = {}
        for t in range(1, depth + 1):
            for x, pre in enumerate(predecessor_sets(inf, t)):
                if pre != _oracle_predecessors(adjacency, x, t):
                    oracle.add(1, case=i, x=x, t=t)
                for u in range(n):
                    if u not in pre:
                        outside.setdefault(u, []).append((x, t))
        # One perturbed run per row u answers every (x, t) it lies
        # outside of: a full-depth run gives the same stage-t bits as a
        # run stopped at t.
        base = run_schedule(initial, schedule, cfg).updates
        for u in sorted(outside):
            perturbed = initial.copy()
            perturbed[u] = perturbed[u] + rng.normal(size=d)
            bumped = run_schedule(perturbed, schedule, cfg).updates
            for x, t in outside[u]:
                checked += 1
                if not np.array_equal(base[t - 1][x], bumped[t - 1][x]):
                    barrier.add(1, case=i, x=x, t=t, u=u)
    return [barrier.result(checked, tol), oracle.result(cases, tol)]


def check_link_compositionality(rng, tol=None):
    """The exponential family composes over work; 1 + s^2 must fail by a
    margin."""
    from .score import check_link_compositionality as link_report

    grid = np.linspace(0.2, 5.0, 25)
    exp_report = link_report(Link("exp", tau=1.0), grid)
    exp_dev = exp_report.max_violation

    forced = link_report(Link("square-plus-one"), grid)
    required = 0.1
    shortfall = max(0.0, required - forced.max_violation)
    return [
        _result(
            "exponential_link_composes",
            grid.size,
            exp_dev,
            1e-12,
            tol,
            {"witness": list(map(float, exp_report.witness or ()))},
        ),
        _result(
            "square_link_fails_to_compose",
            grid.size,
            shortfall,
            0.0,
            tol,
            {"violation": float(forced.max_violation)},
        ),
    ]


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
        rho = RefinementMap("fine", "coarse", assignment, n_c)
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


def check_cycle_sum_invariance(rng, tol=None):
    """Cycle sums of an edge potential survive any vertex regauging."""
    cases = 30
    worst = _Worst("cycle_sum_gauge_invariance", 1e-12)
    for i in range(cases):
        n = int(rng.integers(3, 13))
        edge_index: dict = {}
        edges: list = []

        def edge_of(u, v):
            key = (int(u), int(v))
            if key not in edge_index:
                edge_index[key] = len(edges)
                edges.append(key)
            return edge_index[key]

        cycles = []
        for _ in range(10):
            length = int(rng.integers(2, 7))
            verts = [int(rng.integers(n))]
            while len(verts) < length:
                nxt = int(rng.integers(n))
                if nxt != verts[-1]:
                    verts.append(nxt)
            if verts[-1] == verts[0]:
                verts[-1] = (verts[-1] + 1) % n
            cycles.append(
                [edge_of(a, b) for a, b in zip(verts, verts[1:] + verts[:1])]
            )
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edge_of(u, v)

        graph = GaugeGraph(
            n_vertices=n,
            edges=tuple(edges),
            edge_potential=rng.normal(size=len(edges)) * 2.0,
            vertex_potential=rng.normal(size=n) * 2.0,
        )
        regauged = graph.regauged()
        for cycle in cycles:
            dev = abs(cycle_sum(graph, cycle) - cycle_sum(regauged, cycle))
            worst.see(dev, case=i, cycle_length=len(cycle), deviation=dev)
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
        q_new, l_new = reparameterize_chart(q, l, a)
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
        raise UnknownSuite(f"unknown criterion {name!r}")
    rng = np.random.default_rng([seed, _CRITERIA_INDEX[name]])
    return CRITERIA[name](rng, tol)


def run_checks(suites, seed: int = 0, tol: float | None = None) -> list[SuiteReport]:
    """Run the named suites; deterministic for a fixed seed.

    tol, when given, replaces every property's default tolerance,
    which is how the harness surfaces floating-point witnesses on
    demand (tol=0).
    """
    reports = []
    for suite in suites:
        if suite not in SUITES:
            raise UnknownSuite(
                f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}"
            )
        start = time.perf_counter()
        properties = []
        for criterion in SUITES[suite]:
            properties.extend(run_criterion(criterion, seed, tol))
        reports.append(
            SuiteReport(
                suite=suite,
                properties=tuple(properties),
                seconds=time.perf_counter() - start,
            )
        )
    return reports
