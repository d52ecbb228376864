"""Stage composition, influence sets, and the barrier."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnkit import cli, staged
from attnkit.anchor import ConditionalFamily
from attnkit.carrier import RefinementMap
from attnkit.errors import EmptyRow
from attnkit.operator import AttentionParams, FfnParams
from attnkit.staged import (
    ChartSpec,
    CompSpec,
    ScheduleStep,
    StagedConfig,
    apply_chart,
    apply_comp,
    predecessor_sets,
    run_schedule,
)


def make_attn(rng, d, zero_values=False):
    w_v = np.zeros((d, d)) if zero_values else rng.normal(size=(d, d)) * 0.3
    return AttentionParams(
        w_q=rng.normal(size=(d, d)) * 0.3,
        w_k=rng.normal(size=(d, d)) * 0.3,
        w_v=w_v,
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


def one_block(records, attn, ffn, cfg, mask=None):
    """One two-sublayer stage, run as a one-step schedule."""
    return run_schedule(records, [ScheduleStep(attn, ffn, mask=mask)], cfg).records[1]


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

    def test_huge_rows_are_charted_not_zeroed(self):
        rms, layer = ChartSpec("rms_norm"), ChartSpec("layer_norm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = apply_chart([[1e200, 1e200], [1.0, 2.0]], rms)
            centered = apply_chart([[1e200, -1e200]], layer)
            three = apply_chart([[1e308, 1e308, -1e308]], layer)
        npt.assert_array_equal(mixed[0], [1.0, 1.0])
        # A row with a finite scale keeps the plain formula's bits.
        assert np.array_equal(mixed[1], apply_chart([[1.0, 2.0]], rms)[0])
        npt.assert_array_equal(centered, [[1.0, -1.0]])
        # Divided by 1e308: mean 1/3, centered (2/3, 2/3, -4/3), variance
        # 8/9, so the chart is (1, 1, -2) / sqrt(2).
        npt.assert_allclose(three, [[2**-0.5, 2**-0.5, -(2**0.5)]], rtol=1e-15)

    def test_a_huge_row_keeps_its_chart_in_a_run(self):
        # With eps = 1e-300 both (1e200, 1e200) and (1, 1) chart to
        # exactly (1, 1), so row 1 reads the same keys and values in
        # both runs. A huge row charted to 0 would change them.
        rng = np.random.default_rng(116)
        step = ScheduleStep(make_attn(rng, 2), make_ffn(rng, 2))
        cfg = StagedConfig(chart=ChartSpec("rms_norm", eps=1e-300))
        huge = run_schedule([[1e200, 1e200], [1.0, 2.0]], [step], cfg)
        unit = run_schedule([[1.0, 1.0], [1.0, 2.0]], [step], cfg)
        assert np.array_equal(huge.updates[0][1], unit.updates[0][1])
        assert np.isfinite(huge.records[1]).all()

    @settings(max_examples=200, deadline=None)
    @given(
        r=arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(1, 70)),
            elements=st.floats(-1e6, 1e6),
        ),
        eps=st.floats(1e-12, 1.0),
    )
    def test_layer_norm_is_the_centered_formula_bitwise(self, r, eps):
        centered = r - r.mean(axis=1, keepdims=True)
        want = centered / np.sqrt(r.var(axis=1, keepdims=True) + eps)
        got = apply_chart(r, ChartSpec("layer_norm", eps=eps))
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
        with pytest.raises(ValueError, match="record and update shapes disagree"):
            apply_comp(np.ones((2, 2)), np.ones((2, 3)), CompSpec("additive"))


class TestRunBlock:
    def test_zero_operators_fix_the_record(self):
        rng = np.random.default_rng(117)
        r = rng.normal(size=(4, 3))
        cfg = StagedConfig(chart=ChartSpec("identity"))
        out = one_block(
            r, make_attn(rng, 3, zero_values=True), make_ffn(rng, 3, zero=True), cfg
        )
        npt.assert_allclose(out, r, atol=1e-15)

    def test_matches_straight_line_reference_gelu(self):
        import math

        rng = np.random.default_rng(119)
        d = 4
        r = rng.normal(size=(5, d))
        mask = diagonal_mask(rng, 5)
        attn = make_attn(rng, d)
        ffn = make_ffn(rng, d)
        cfg = StagedConfig(chart=ChartSpec("rms_norm"))
        got = one_block(r, attn, ffn, cfg, mask)

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
        attn = make_attn(rng, d)
        ffn = FfnParams(
            w1=rng.normal(size=(7, d)),
            b1=rng.normal(size=7),
            w2=rng.normal(size=(d, 7)),
            b2=rng.normal(size=d),
            activation="relu",
        )
        for kind in ("identity", "rms_norm", "layer_norm"):
            cfg = StagedConfig(chart=ChartSpec(kind))
            got = one_block(r, attn, ffn, cfg, mask)
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
        attn = make_attn(rng, 3)
        ffn = make_ffn(rng, 3, zero=True)
        with pytest.raises(EmptyRow):
            one_block(r, attn, ffn, StagedConfig(chart=ChartSpec("identity")), mask)
        cfg = StagedConfig(chart=ChartSpec("identity"), zero_update_on_empty=True)
        out = one_block(r, attn, ffn, cfg, mask)
        assert np.isfinite(out).all()
        # Row 1 received a zero attention update and a zero feedforward,
        # so it is carried through unchanged.
        npt.assert_allclose(out[1], r[1], atol=1e-15)


def chain_mask(n):
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, i] = True
        if i > 0:
            mask[i, i - 1] = True
    return mask


class TestInfluence:
    def test_markov_relations_are_the_masks(self):
        # One stage back, the predecessors of row x are the mask's row x.
        for mask in (chain_mask(4), np.ones((4, 4), dtype=bool)):
            expected = [set(np.flatnonzero(row).tolist()) for row in mask]
            assert predecessor_sets([mask, chain_mask(4)], 1) == expected

    def test_chain_predecessors_frozen(self):
        masks = [chain_mask(4), chain_mask(4)]
        assert predecessor_sets(masks, 0)[2] == {2}
        assert predecessor_sets(masks, 1)[2] == {1, 2}
        assert predecessor_sets(masks, 2)[2] == {0, 1, 2}
        assert predecessor_sets(masks, 2)[0] == {0}

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(129)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            depth = int(rng.integers(1, 5))
            masks = [diagonal_mask(rng, n, density=0.4) for _ in range(depth)]
            for t in range(depth + 1):
                for x, pre in enumerate(predecessor_sets(masks, t)):
                    assert pre == oracle_pre(masks, x, t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_all_rows_match_path_enumeration_on_any_masks(self, data):
        n = data.draw(st.integers(1, 9))
        depth = data.draw(st.integers(1, 5))
        masks = [data.draw(arrays(np.bool_, (n, n))) for _ in range(depth)]
        t = data.draw(st.integers(0, depth))
        assert predecessor_sets(masks, t) == [oracle_pre(masks, x, t) for x in range(n)]

    def test_all_rows_validate_the_depth(self):
        masks = [chain_mask(3)]
        assert predecessor_sets(masks, 1) == [{0}, {0, 1}, {1, 2}]
        with pytest.raises(ValueError, match="depth 2 out of range"):
            predecessor_sets(masks, 2)
        with pytest.raises(ValueError, match="depth -1 out of range"):
            predecessor_sets(masks, -1)
        with pytest.raises(ValueError, match="no stages recorded"):
            predecessor_sets([], 0)

    def test_masks_must_be_square_and_agree(self):
        with pytest.raises(ValueError, match=r"stage 0 mask has shape \(2, 3\)"):
            predecessor_sets([np.ones((2, 3), dtype=bool)], 0)
        with pytest.raises(ValueError, match="stage masks disagree on the carrier size"):
            predecessor_sets([chain_mask(2), chain_mask(3)], 0)


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


def perturb(initial, u, delta):
    """initial with delta added to row u."""
    out = initial.copy()
    out[u] = out[u] + delta
    return out


def prefix_case(rng, kind):
    """A depth-4 schedule on 6 rows of width 3, composed as kind says:
    additive, gated or postnorm; dead-row (row 0 attends to nothing, its
    attention update is zero); refine (stage 2 pools pairs of rows)."""
    n, d = 6, 3
    initial, schedule, cfg = build_schedule(rng, n, d, 4, chart="rms_norm")
    if kind == "gated":
        gate = rng.normal(size=(2 * d, d))
        cfg = StagedConfig(ChartSpec("rms_norm"), CompSpec("gated", gate=gate))
    elif kind == "postnorm":
        cfg = StagedConfig(ChartSpec("layer_norm"), CompSpec("postnorm", norm="layer_norm"))
    elif kind == "dead-row":
        cfg = StagedConfig(ChartSpec("rms_norm"), zero_update_on_empty=True)
        for step in schedule:
            step.mask[0] = False
    elif kind == "refine":
        refine = RefinementMap("base", "pairs", [0, 0, 1, 1, 2, 2], 3)
        schedule[1] = ScheduleStep(schedule[1].attn, schedule[1].ffn, refine=refine)
        schedule[2] = ScheduleStep(schedule[2].attn, schedule[2].ffn, mask=diagonal_mask(rng, 3))
        schedule[3] = ScheduleStep(schedule[3].attn, schedule[3].ffn)
    return initial, schedule, cfg


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

    @pytest.mark.parametrize("kind", ["additive", "gated", "postnorm", "dead-row", "refine"])
    def test_stopping_early_leaves_earlier_updates_bitwise_equal(self, kind):
        # The barrier suite stops each run at the last stage it compares.
        for seed in range(5):
            initial, schedule, cfg = prefix_case(np.random.default_rng([150, seed]), kind)
            full = run_schedule(initial, schedule, cfg).updates
            for t in range(len(schedule) + 1):
                stopped = run_schedule(initial, schedule[:t], cfg).updates
                assert len(stopped) == t
                for a, b in zip(stopped, full):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

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
        base = run_schedule(initial, schedule, cfg).updates
        bumped_2 = run_schedule(perturb(initial, 2, delta), schedule, cfg).updates
        bumped_3 = run_schedule(perturb(initial, 3, delta), schedule, cfg).updates
        assert np.array_equal(base[0][0], bumped_2[0][0])
        assert np.array_equal(base[1][0], bumped_3[1][0])
        # Inside the predecessor set the update does move for a generic
        # perturbation.
        bumped_1 = run_schedule(perturb(initial, 1, delta), schedule, cfg).updates
        assert not np.array_equal(base[0][2], bumped_1[0][2])

    def test_zero_perturbation_never_moves_anything(self):
        rng = np.random.default_rng(135)
        initial, schedule, cfg = build_schedule(rng, 3, 2, 2)
        base = run_schedule(initial, schedule, cfg).updates
        bumped = run_schedule(perturb(initial, 0, np.zeros(2)), schedule, cfg).updates
        assert all(np.array_equal(a, b) for a, b in zip(base, bumped))

    def test_outside_predecessors_is_always_bitwise_clean(self):
        rng = np.random.default_rng(137)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 4))
            depth = int(rng.integers(1, 4))
            initial, schedule, cfg = build_schedule(rng, n, d, depth, chart="rms_norm")
            masks = [step.mask for step in schedule]
            base = run_schedule(initial, schedule, cfg).updates
            for u in range(n):
                bumped = run_schedule(
                    perturb(initial, u, rng.normal(size=d)), schedule, cfg
                ).updates
                for t in range(1, depth + 1):
                    for x, pre in enumerate(predecessor_sets(masks, t)):
                        if u not in pre:
                            assert np.array_equal(base[t - 1][x], bumped[t - 1][x])

    def test_row_x_indexes_the_stage_carrier(self):
        # After a merge to two rows, row 3 of the initial records lands
        # in coarse row 1, and the stage-1 update has no row 2.
        rng = np.random.default_rng(142)
        d = 2
        refine = RefinementMap("base", "half", [0, 0, 1, 1], 2)
        schedule = [ScheduleStep(make_attn(rng, d), make_ffn(rng, d), refine=refine)]
        initial = rng.normal(size=(4, d))
        cfg = StagedConfig(chart=ChartSpec("identity"))
        base = run_schedule(initial, schedule, cfg).updates[0]
        bumped = run_schedule(perturb(initial, 3, np.ones(d)), schedule, cfg).updates[0]
        assert base.shape == bumped.shape == (2, d)
        assert not np.array_equal(base[1], bumped[1])


class TestRunSchedule:
    def test_builds_no_conditional_family(self, monkeypatch):
        built = []
        real = ConditionalFamily.__init__

        def spy(self, values, mask):
            real(self, values, mask)
            built.append(self.shape)

        monkeypatch.setattr(ConditionalFamily, "__init__", spy)
        rng = np.random.default_rng(141)
        initial, schedule, cfg = build_schedule(rng, 5, 3, 4, chart="rms_norm")
        run_schedule(initial, schedule, cfg)
        assert built == []
        # The CLI attention op wraps the weights for printing and binding.
        attn = schedule[0].attn
        cli._attention(initial, w_q=attn.w_q, w_k=attn.w_k, w_v=attn.w_v)
        assert built == [(5, 5)]

    def test_calls_attention_once_per_stage(self, monkeypatch):
        # The staged block reaches attention through its module-level
        # name, once per stage, under that stage's mask.
        seen = []
        real = staged.attention

        def counting(embeddings, params, mask=None, zero_empty=False):
            seen.append((params, mask))
            return real(embeddings, params, mask, zero_empty)

        monkeypatch.setattr(staged, "attention", counting)
        rng = np.random.default_rng(144)
        initial, schedule, cfg = build_schedule(rng, 5, 3, 4, chart="rms_norm")
        trace = run_schedule(initial, schedule, cfg)
        assert len(seen) == len(schedule) == 4
        for (params, mask), step, stage_mask in zip(seen, schedule, trace.masks):
            assert params is step.attn
            assert np.array_equal(mask, stage_mask)

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
        for step, got in zip(steps, trace.records[1:]):
            current = one_block(current, step.attn, step.ffn, cfg)
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
        with pytest.raises(ValueError, match="refinement leaves 'other' but the run is on 'base'"):
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
        message = r"working mask shape \(3, 3\) does not fit carrier of size 2"
        with pytest.raises(ValueError, match=message):
            run_schedule(rng.normal(size=(3, d)), steps, StagedConfig(chart=ChartSpec("identity")))
