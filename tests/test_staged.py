"""Stage composition, history readout, influence sets, and the barrier."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnkit.anchor import ConditionalFamily
from attnkit.carrier import RefinementMap
from attnkit.errors import (
    CarrierMismatch,
    EmptyRow,
    IndexOutOfRange,
    NonSquareMask,
    ShapeMismatch,
)
from attnkit.operator import AttentionParams, FfnParams, attention
from attnkit.staged import (
    ChartSpec,
    CompSpec,
    InfluenceData,
    ScheduleStep,
    StagedConfig,
    apply_chart,
    apply_comp,
    barrier_check,
    full_history_readout,
    influence_relation,
    predecessor_set,
    predecessor_sets,
    run_block,
    run_schedule,
)


def make_attn(rng, d, mask=None, zero_values=False):
    w_v = np.zeros((d, d)) if zero_values else rng.normal(size=(d, d)) * 0.3
    return AttentionParams(
        w_q=rng.normal(size=(d, d)) * 0.3,
        w_k=rng.normal(size=(d, d)) * 0.3,
        w_v=w_v,
        mask=mask,
    )


def make_ffn(rng, d, zero=False):
    if zero:
        return FfnParams(
            w1=np.zeros((2 * d, d)),
            b1=np.zeros(2 * d),
            w2=np.zeros((d, 2 * d)),
            b2=np.zeros(d),
            activation="relu",
        )
    return FfnParams(
        w1=rng.normal(size=(2 * d, d)) * 0.3,
        b1=rng.normal(size=2 * d) * 0.1,
        w2=rng.normal(size=(d, 2 * d)) * 0.3,
        b2=rng.normal(size=d) * 0.1,
        activation="gelu",
    )


def diagonal_mask(rng, n, density=0.5):
    mask = rng.random((n, n)) < density
    mask[np.arange(n), np.arange(n)] = True
    return mask


def manual_chart(r, kind, eps=1e-6):
    if kind == "identity":
        return r
    if kind == "rms_norm":
        return r / np.sqrt((r * r).mean(axis=1, keepdims=True) + eps)
    mean = r.mean(axis=1, keepdims=True)
    return (r - mean) / np.sqrt(r.var(axis=1, keepdims=True) + eps)


def manual_softmax_rows(logits, mask):
    out = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        cols = np.flatnonzero(mask[i])
        row = logits[i, cols]
        w = np.exp(row - row.max())
        out[i, cols] = w / w.sum()
    return out


def oracle_pre(masks, x, t):
    """Exhaustive path enumeration through the stage relations."""
    if t == 0:
        return {x}
    frontier = {x}
    for s in range(t - 1, -1, -1):
        frontier = {
            u
            for v in frontier
            for u in np.flatnonzero(np.asarray(masks[s])[v])
        }
    return {int(u) for u in frontier}


class TestCharts:
    def test_identity_chart(self):
        r = np.array([[1.0, 2.0]])
        npt.assert_array_equal(apply_chart(r, ChartSpec("identity")), r)

    def test_layer_norm_frozen(self):
        out = apply_chart(np.array([[1.0, 3.0]]), ChartSpec("layer_norm"))
        npt.assert_allclose(out, [[-1.0, 1.0]], atol=1e-5)

    def test_rms_norm_formula(self):
        rng = np.random.default_rng(111)
        r = rng.normal(size=(4, 6))
        out = apply_chart(r, ChartSpec("rms_norm", eps=1e-6))
        npt.assert_allclose(out, manual_chart(r, "rms_norm"), atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        r=arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(1, 70)),
            elements=st.floats(-1e6, 1e6),
        ),
        eps=st.floats(1e-12, 1.0),
    )
    def test_rms_norm_is_the_mean_formula_bitwise(self, r, eps):
        want = r / np.sqrt((r * r).mean(axis=1) + eps)[:, None]
        got = apply_chart(r, ChartSpec("rms_norm", eps=eps))
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError):
            ChartSpec("batch_norm")


class TestComps:
    def test_additive(self):
        out = apply_comp([[1.0, 1.0]], [[0.5, -0.5]], CompSpec("additive"))
        npt.assert_allclose(out, [[1.5, 0.5]])

    def test_gated_interpolates_between_skip_and_sum(self):
        rng = np.random.default_rng(113)
        d = 3
        r = rng.normal(size=(4, d))
        delta = rng.normal(size=(4, d))
        comp = CompSpec("gated", gate=rng.normal(size=(2 * d, d)))
        out = apply_comp(r, delta, comp)
        lo = np.minimum(r, r + delta)
        hi = np.maximum(r, r + delta)
        assert ((out >= lo - 1e-12) & (out <= hi + 1e-12)).all()

    def test_gated_needs_a_gate(self):
        with pytest.raises(ValueError):
            CompSpec("gated")

    def test_postnorm_renormalizes(self):
        rng = np.random.default_rng(115)
        r = rng.normal(size=(3, 5)) * 10
        delta = rng.normal(size=(3, 5))
        out = apply_comp(r, delta, CompSpec("postnorm", norm="rms_norm", eps=1e-6))
        npt.assert_allclose(out, manual_chart(r + delta, "rms_norm"), atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            apply_comp(np.ones((2, 2)), np.ones((2, 3)), CompSpec("additive"))


class TestRunBlock:
    def test_zero_operators_fix_the_record(self):
        rng = np.random.default_rng(117)
        r = rng.normal(size=(4, 3))
        cfg = StagedConfig(chart=ChartSpec("identity"))
        out = run_block(
            r, make_attn(rng, 3, zero_values=True), make_ffn(rng, 3, zero=True), cfg
        )
        npt.assert_allclose(out, r, atol=1e-15)

    def test_matches_straight_line_reference_gelu(self):
        import math

        rng = np.random.default_rng(119)
        d = 4
        r = rng.normal(size=(5, d))
        mask = diagonal_mask(rng, 5)
        attn = make_attn(rng, d, mask=mask)
        ffn = make_ffn(rng, d)
        cfg = StagedConfig(chart=ChartSpec("rms_norm"))
        got = run_block(r, attn, ffn, cfg)

        h = manual_chart(r, "rms_norm")
        q, k, v = h @ attn.w_q, h @ attn.w_k, h @ attn.w_v
        weights = manual_softmax_rows((q @ k.T) / np.sqrt(d), mask)
        mid = r + weights @ v
        h2 = manual_chart(mid, "rms_norm")
        hidden = h2 @ ffn.w1.T + ffn.b1
        erf = np.array([[math.erf(z / math.sqrt(2.0)) for z in row] for row in hidden])
        f = (0.5 * hidden * (1.0 + erf)) @ ffn.w2.T + ffn.b2
        assert np.abs(got - (mid + f)).max() <= 1e-12

    def test_matches_straight_line_reference_relu(self):
        rng = np.random.default_rng(121)
        d = 4
        r = rng.normal(size=(5, d))
        mask = diagonal_mask(rng, 5)
        attn = make_attn(rng, d, mask=mask)
        ffn = FfnParams(
            w1=rng.normal(size=(7, d)),
            b1=rng.normal(size=7),
            w2=rng.normal(size=(d, 7)),
            b2=rng.normal(size=d),
            activation="relu",
        )
        for kind in ("identity", "rms_norm", "layer_norm"):
            cfg = StagedConfig(chart=ChartSpec(kind))
            got = run_block(r, attn, ffn, cfg)
            h = manual_chart(r, kind)
            q, k, v = h @ attn.w_q, h @ attn.w_k, h @ attn.w_v
            weights = manual_softmax_rows((q @ k.T) / np.sqrt(d), mask)
            mid = r + weights @ v
            h2 = manual_chart(mid, kind)
            f = np.maximum(h2 @ ffn.w1.T + ffn.b1, 0.0) @ ffn.w2.T + ffn.b2
            assert np.abs(got - (mid + f)).max() <= 1e-12

    def test_empty_row_policy_flows_through(self):
        rng = np.random.default_rng(123)
        r = rng.normal(size=(2, 3))
        mask = np.array([[True, True], [False, False]])
        attn = make_attn(rng, 3, mask=mask)
        ffn = make_ffn(rng, 3, zero=True)
        with pytest.raises(EmptyRow):
            run_block(r, attn, ffn, StagedConfig(chart=ChartSpec("identity")))
        cfg = StagedConfig(chart=ChartSpec("identity"), zero_update_on_empty=True)
        out = run_block(r, attn, ffn, cfg)
        assert np.isfinite(out).all()
        # Row 1 received a zero attention update and a zero feedforward,
        # so it is carried through unchanged.
        npt.assert_allclose(out[1], r[1], atol=1e-15)


class TestFullHistoryReadout:
    def test_one_hot_gate_is_markov_memory(self):
        rng = np.random.default_rng(125)
        records = [rng.normal(size=(3, 2)) for _ in range(4)]
        alpha = [np.zeros(3)] * 3 + [np.ones(3)]
        phi = [None] * 4
        npt.assert_allclose(
            full_history_readout(records, alpha, phi), records[-1], atol=1e-15
        )

    def test_uniform_gates_average(self):
        records = [np.full((2, 2), 1.0), np.full((2, 2), 3.0)]
        alpha = [np.full(2, 0.5), np.full(2, 0.5)]
        out = full_history_readout(records, alpha, [None, None])
        npt.assert_allclose(out, np.full((2, 2), 2.0))

    def test_matches_naive_sum_with_placements(self):
        rng = np.random.default_rng(127)
        sizes = [5, 3, 4]
        n_now = 4
        records = [rng.normal(size=(n, 2)) for n in sizes]
        alpha = [rng.normal(size=n_now) for _ in sizes]
        phi = [rng.normal(size=(n_now, n)) for n in sizes]
        got = full_history_readout(records, alpha, phi)
        want = np.zeros((n_now, 2))
        for a_k, p_k, r_k in zip(alpha, phi, records):
            want += a_k[:, None] * (p_k @ r_k)
        npt.assert_allclose(got, want, atol=1e-13)

    def test_history_validation(self):
        with pytest.raises(ShapeMismatch):
            full_history_readout([], [], [])
        with pytest.raises(ShapeMismatch):
            full_history_readout([np.ones((2, 2))], [np.ones(2)], [None, None])


def chain_mask(n):
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, i] = True
        if i > 0:
            mask[i, i - 1] = True
    return mask


class TestInfluence:
    def test_markov_relations_are_the_masks(self):
        masks = [chain_mask(4), np.ones((4, 4), dtype=bool)]
        inf = influence_relation(masks)
        npt.assert_array_equal(inf.relations[0], masks[0])
        npt.assert_array_equal(inf.relations[1], masks[1])

    def test_chain_predecessors_frozen(self):
        inf = influence_relation([chain_mask(4), chain_mask(4)])
        assert predecessor_set(inf, 2, 0) == {2}
        assert predecessor_set(inf, 2, 1) == {1, 2}
        assert predecessor_set(inf, 2, 2) == {0, 1, 2}
        assert predecessor_set(inf, 0, 2) == {0}

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(129)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            depth = int(rng.integers(1, 5))
            masks = [diagonal_mask(rng, n, density=0.4) for _ in range(depth)]
            inf = influence_relation(masks)
            for x in range(n):
                for t in range(depth + 1):
                    assert predecessor_set(inf, x, t) == oracle_pre(masks, x, t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_all_rows_match_one_row_at_a_time(self, data):
        n = data.draw(st.integers(1, 9))
        depth = data.draw(st.integers(1, 5))
        masks = [data.draw(arrays(np.bool_, (n, n))) for _ in range(depth)]
        inf = influence_relation(masks)
        t = data.draw(st.integers(0, depth))
        rows = predecessor_sets(inf, t)
        assert rows == [predecessor_set(inf, x, t) for x in range(n)]
        assert rows == [oracle_pre(masks, x, t) for x in range(n)]

    def test_all_rows_validate_the_depth(self):
        inf = influence_relation([chain_mask(3)])
        assert predecessor_sets(inf, 1) == [{0}, {0, 1}, {1, 2}]
        with pytest.raises(IndexOutOfRange):
            predecessor_sets(inf, 2)
        with pytest.raises(IndexOutOfRange):
            predecessor_sets(inf, -1)
        with pytest.raises(IndexOutOfRange):
            predecessor_sets(InfluenceData(()), 0)

    def test_index_validation(self):
        inf = influence_relation([chain_mask(3)])
        with pytest.raises(IndexOutOfRange):
            predecessor_set(inf, 5, 1)
        with pytest.raises(IndexOutOfRange):
            predecessor_set(inf, 0, 2)
        with pytest.raises(NonSquareMask):
            influence_relation([np.ones((2, 3), dtype=bool)])


def build_schedule(rng, n, d, depth, chart="identity"):
    schedule = [
        ScheduleStep(
            mask=diagonal_mask(rng, n),
            attn=make_attn(rng, d),
            ffn=make_ffn(rng, d),
        )
        for _ in range(depth)
    ]
    cfg = StagedConfig(chart=ChartSpec(chart))
    return rng.normal(size=(n, d)), schedule, cfg


class TestBarrier:
    def test_trace_updates_are_record_differences(self):
        rng = np.random.default_rng(131)
        initial, schedule, cfg = build_schedule(rng, 4, 3, 3)
        trace = run_schedule(initial, schedule, cfg)
        assert len(trace.records) == 4 and len(trace.updates) == 3
        for s in range(3):
            npt.assert_allclose(
                trace.updates[s], trace.records[s + 1] - trace.records[s], atol=0
            )

    def test_stopping_early_leaves_earlier_updates_bitwise_equal(self):
        # The barrier suite reads stage t from one full-depth run.
        rng = np.random.default_rng(132)
        initial, schedule, cfg = build_schedule(rng, 5, 3, 4, chart="rms_norm")
        full = run_schedule(initial, schedule, cfg).updates
        for t in range(1, 5):
            stopped = run_schedule(initial, schedule[:t], cfg).updates
            assert len(stopped) == t
            assert all(np.array_equal(a, b) for a, b in zip(stopped, full))

    def test_distance_two_on_the_chain(self):
        # On the causal chain, row 0 at stage 1 can only see row 0, so a
        # perturbation two steps downstream cannot reach it.
        rng = np.random.default_rng(133)
        n, d = 4, 3
        schedule = [
            ScheduleStep(make_attn(rng, d), make_ffn(rng, d), mask=chain_mask(n))
            for _ in range(2)
        ]
        initial = rng.normal(size=(n, d))
        cfg = StagedConfig(chart=ChartSpec("identity"))
        delta = rng.normal(size=d)
        assert barrier_check(initial, schedule, cfg, x=0, t=1, u=2, delta=delta)
        assert barrier_check(initial, schedule, cfg, x=0, t=2, u=3, delta=delta)
        # Inside the predecessor set the update does move for a generic
        # perturbation.
        assert not barrier_check(initial, schedule, cfg, x=2, t=1, u=1, delta=delta)

    def test_zero_perturbation_never_moves_anything(self):
        rng = np.random.default_rng(135)
        initial, schedule, cfg = build_schedule(rng, 3, 2, 2)
        assert barrier_check(initial, schedule, cfg, x=1, t=2, u=0, delta=np.zeros(2))

    def test_outside_predecessors_is_always_bitwise_clean(self):
        rng = np.random.default_rng(137)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 4))
            depth = int(rng.integers(1, 4))
            initial, schedule, cfg = build_schedule(rng, n, d, depth, chart="rms_norm")
            inf = influence_relation([step.mask for step in schedule])
            for t in range(1, depth + 1):
                for x in range(n):
                    pre = predecessor_set(inf, x, t)
                    for u in range(n):
                        if u in pre:
                            continue
                        delta = rng.normal(size=d)
                        assert barrier_check(initial, schedule, cfg, x, t, u, delta)

    def test_matrix_perturbation_form(self):
        rng = np.random.default_rng(139)
        initial, schedule, cfg = build_schedule(rng, 3, 2, 1)
        full = np.zeros((3, 2))
        full[1] = [0.5, -0.5]
        barrier_check(initial, schedule, cfg, x=0, t=1, u=1, delta=full)
        full[2] = [1.0, 0.0]
        with pytest.raises(ValueError):
            barrier_check(initial, schedule, cfg, x=0, t=1, u=1, delta=full)

    def test_index_validation(self):
        rng = np.random.default_rng(141)
        initial, schedule, cfg = build_schedule(rng, 3, 2, 1)
        with pytest.raises(IndexOutOfRange):
            barrier_check(initial, schedule, cfg, x=9, t=1, u=0, delta=np.zeros(2))
        with pytest.raises(IndexOutOfRange):
            barrier_check(initial, schedule, cfg, x=0, t=1, u=3, delta=np.zeros(2))
        with pytest.raises(IndexOutOfRange):
            barrier_check(initial, schedule, cfg, x=0, t=2, u=0, delta=np.zeros(2))
        with pytest.raises(ShapeMismatch):
            barrier_check(initial[0], schedule, cfg, x=0, t=1, u=0, delta=np.zeros(2))

    def test_row_x_indexes_the_stage_carrier(self):
        # After a merge to two rows, row 2 of the initial records exists
        # but the stage-1 update has no row 2.
        rng = np.random.default_rng(142)
        d = 2
        refine = RefinementMap("base", "half", [0, 0, 1, 1], 2)
        schedule = [ScheduleStep(make_attn(rng, d), make_ffn(rng, d), refine=refine)]
        initial = rng.normal(size=(4, d))
        cfg = StagedConfig(chart=ChartSpec("identity"))
        assert not barrier_check(initial, schedule, cfg, x=1, t=1, u=3, delta=np.ones(d))
        with pytest.raises(IndexOutOfRange):
            barrier_check(initial, schedule, cfg, x=2, t=1, u=3, delta=np.ones(d))


class TestRunSchedule:
    def test_builds_no_conditional_family(self, monkeypatch):
        built = []
        real = ConditionalFamily.__post_init__

        def spy(self):
            built.append(self.shape)
            real(self)

        monkeypatch.setattr(ConditionalFamily, "__post_init__", spy)
        rng = np.random.default_rng(141)
        initial, schedule, cfg = build_schedule(rng, 5, 3, 4, chart="rms_norm")
        run_schedule(initial, schedule, cfg)
        assert built == []
        attention(initial, schedule[0].attn)  # the spy sees the public path
        assert built == [(5, 5)]

    def test_flat_schedule_equals_repeated_blocks(self):
        rng = np.random.default_rng(143)
        d, n = 3, 4
        cfg = StagedConfig(chart=ChartSpec("rms_norm"))
        steps = [
            ScheduleStep(attn=make_attn(rng, d), ffn=make_ffn(rng, d))
            for _ in range(3)
        ]
        initial = rng.normal(size=(n, d))
        trace = run_schedule(initial, steps, cfg)
        current = initial
        full = np.ones((n, n), dtype=bool)
        from dataclasses import replace as dc_replace

        for step, got in zip(steps, trace.records[1:]):
            current = run_block(
                current, dc_replace(step.attn, mask=full), step.ffn, cfg
            )
            npt.assert_allclose(got, current, atol=1e-13)

    def test_pooling_duplicated_rows_recovers_them(self):
        rng = np.random.default_rng(145)
        d = 3
        base = rng.normal(size=(2, d))
        doubled = np.repeat(base, 2, axis=0)  # rows 0,0,1,1
        refine = RefinementMap("base", "half", [0, 0, 1, 1], 2)
        cfg = StagedConfig(chart=ChartSpec("identity"))
        step = ScheduleStep(
            attn=make_attn(rng, d, zero_values=True),
            ffn=make_ffn(rng, d, zero=True),
            refine=refine,
        )
        trace = run_schedule(doubled, [step], cfg)
        npt.assert_allclose(trace.records[1], base, atol=1e-15)
        assert trace.carrier_ids == ("base", "half")

    def test_mask_pushforward_through_merge(self):
        rng = np.random.default_rng(147)
        d = 2
        fine_mask = np.zeros((4, 4), dtype=bool)
        fine_mask[0, 1] = True
        fine_mask[np.arange(4), np.arange(4)] = True
        refine = RefinementMap("base", "pair", [0, 0, 1, 1], 2)
        steps = [
            ScheduleStep(
                attn=make_attn(rng, d), ffn=make_ffn(rng, d), mask=fine_mask
            ),
            ScheduleStep(
                attn=make_attn(rng, d), ffn=make_ffn(rng, d), refine=refine
            ),
        ]
        trace = run_schedule(rng.normal(size=(4, d)), steps, StagedConfig(chart=ChartSpec("identity")))
        # The fine relation only connects within and between the first
        # bucket, so the coarse mask is diagonal plus nothing else off
        # bucket 0's diagonal entry.
        expected = np.array([[True, False], [False, True]])
        npt.assert_array_equal(trace.masks[1], expected)
        assert trace.records[2].shape == (2, d)

    def test_refinement_id_chain_checked(self):
        rng = np.random.default_rng(149)
        refine = RefinementMap("other", "c", [0, 0], 1)
        step = ScheduleStep(
            attn=make_attn(rng, 2), ffn=make_ffn(rng, 2), refine=refine
        )
        with pytest.raises(CarrierMismatch):
            run_schedule(rng.normal(size=(2, 2)), [step], StagedConfig(chart=ChartSpec("identity")))

    def test_stale_mask_size_rejected(self):
        rng = np.random.default_rng(151)
        d = 2
        refine = RefinementMap("base", "c", [0, 0, 1], 2)
        steps = [
            ScheduleStep(
                attn=make_attn(rng, d),
                ffn=make_ffn(rng, d),
                mask=np.ones((3, 3), dtype=bool),
            ),
            ScheduleStep(
                attn=make_attn(rng, d),
                ffn=make_ffn(rng, d),
                refine=refine,
                mask=np.ones((3, 3), dtype=bool),
            ),
        ]
        with pytest.raises(CarrierMismatch):
            run_schedule(rng.normal(size=(3, d)), steps, StagedConfig(chart=ChartSpec("identity")))
