"""Attention, feedforward, and mixture operators against naive oracles."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnkit.anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    plan_to_conditional,
    row_anchor,
    sinkhorn_balanced,
)
from attnkit.errors import (
    EmptyRow,
    GateNotStochastic,
    MissingAlignment,
    NegativeGate,
    ShapeMismatch,
)
from attnkit.operator import (
    AlignmentMaps,
    AttentionParams,
    FfnParams,
    ValueField,
    _erf,
    _gelu,
    attention,
    conditional_update,
    ffn_apply,
    ffn_as_ga,
    gated_mixture_conditional,
    gated_mixture_plan,
    integral_view,
    masked_row_softmax,
    multi_head,
    plan_update,
    signed_hidden_carrier,
)
from attnkit.score import BaselinePrior, EvidenceKernel


def oracle_attention_weights(e, params):
    """Scalar-loop softmax of q.k/sqrt(d_k) + bias over the mask."""
    n = e.shape[0]
    q = e @ params.w_q
    k = e @ params.w_k
    mask = params.mask if params.mask is not None else np.ones((n, n), dtype=bool)
    weights = np.zeros((n, n))
    for i in range(n):
        logits = {}
        for j in range(n):
            if not mask[i, j]:
                continue
            s = float(q[i] @ k[j]) / math.sqrt(params.d_k)
            if params.key_bias is not None:
                s += float(params.key_bias[j])
            logit = s / params.tau
            if params.prior is not None:
                logit += math.log(float(params.prior.values[i, j]))
            logits[j] = logit
        peak = max(logits.values())
        total = sum(math.exp(v - peak) for v in logits.values())
        for j, v in logits.items():
            weights[i, j] = math.exp(v - peak) / total
    return weights


def oracle_update_with_maps(weights, mask, values, table):
    n_x, n_y = weights.shape
    d = values.shape[1]
    out = np.zeros((n_x, d))
    for x in range(n_x):
        for y in range(n_y):
            if mask[x, y]:
                out[x] += weights[x, y] * (table[(x, y)] @ values[y])
    return out


def random_conditional(rng, n_x, n_y):
    mask = rng.random((n_x, n_y)) < 0.7
    mask[:, 0] = True
    raw = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
    return ConditionalFamily(raw / raw.sum(axis=1, keepdims=True), mask)


class TestUpdates:
    def test_plan_update_is_matrix_action(self):
        plan = TransportPlan(
            np.array([[1.0, 2.0], [0.5, 0.5]]),
            np.ones((2, 2), dtype=bool),
            converged=True,
            iterations=0,
        )
        field = ValueField(np.array([[1.0, 0.0], [0.0, 1.0]]))
        npt.assert_array_equal(plan_update(plan, field), plan.values)

    def test_conditional_update_averages(self):
        family = ConditionalFamily(
            np.array([[0.5, 0.5]]), np.ones((1, 2), dtype=bool)
        )
        field = ValueField(np.array([[2.0], [4.0]]))
        npt.assert_allclose(conditional_update(family, field), [[3.0]])

    def test_per_edge_maps_match_triple_loop(self):
        rng = np.random.default_rng(33)
        family = random_conditional(rng, 4, 5)
        field = ValueField(rng.normal(size=(5, 3)))
        table = {
            (int(x), int(y)): rng.normal(size=(3, 3))
            for x, y in np.argwhere(family.mask)
        }
        got = conditional_update(family, field, AlignmentMaps.per_edge(table))
        want = oracle_update_with_maps(family.values, family.mask, field.values, table)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_identity_table_reduces_to_plain_update(self):
        rng = np.random.default_rng(39)
        family = random_conditional(rng, 3, 4)
        field = ValueField(rng.normal(size=(4, 2)))
        table = {
            (int(x), int(y)): np.eye(2) for x, y in np.argwhere(family.mask)
        }
        npt.assert_allclose(
            conditional_update(family, field, AlignmentMaps.per_edge(table)),
            conditional_update(family, field),
            atol=1e-14,
        )

    def test_missing_edge_map_is_fatal(self):
        family = ConditionalFamily(
            np.array([[0.5, 0.5]]), np.ones((1, 2), dtype=bool)
        )
        field = ValueField(np.array([[1.0], [2.0]]))
        with pytest.raises(MissingAlignment) as exc:
            conditional_update(
                family, field, AlignmentMaps.per_edge({(0, 0): np.eye(1)})
            )
        assert exc.value.pair == (0, 1)

    def test_plan_factors_through_conditional(self):
        # A plan update is the row-mass times the conditional update of
        # the normalized plan. This is the bridge between the two
        # operator families.
        rng = np.random.default_rng(45)
        mask = rng.random((5, 5)) < 0.8
        mask[np.arange(5), np.arange(5)] = True
        values = np.where(mask, rng.uniform(0.1, 2.0, (5, 5)), 0.0)
        plan = TransportPlan(values, mask, converged=True, iterations=0)
        field = ValueField(rng.normal(size=(5, 3)))
        family = plan_to_conditional(plan, plan.row_marginal)
        lhs = plan_update(plan, field)
        rhs = plan.row_marginal[:, None] * conditional_update(family, field)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestMaskedRowSoftmax:
    def test_uniform_logits(self):
        out = masked_row_softmax(np.zeros((1, 2)), np.ones((1, 2), dtype=bool))
        npt.assert_allclose(out, [[0.5, 0.5]])

    def test_mask_restricts_support(self):
        out = masked_row_softmax(
            np.array([[5.0, 5.0, 5.0]]), np.array([[True, False, True]])
        )
        npt.assert_allclose(out, [[0.5, 0.0, 0.5]])

    def test_huge_logits_stay_finite(self):
        out = masked_row_softmax(
            np.array([[1000.0, 999.0]]), np.ones((1, 2), dtype=bool)
        )
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_row_policies(self):
        logits = np.zeros((2, 2))
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(EmptyRow):
            masked_row_softmax(logits, mask)
        out = masked_row_softmax(logits, mask, on_empty="zero")
        npt.assert_array_equal(out[1], [0.0, 0.0])
        with pytest.raises(ValueError):
            masked_row_softmax(logits, mask, on_empty="skip")


class TestAttention:
    def test_single_token_attends_to_itself(self):
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        family, out = attention(np.array([[1.0, 2.0]]), params)
        npt.assert_allclose(family.values, [[1.0]])
        npt.assert_allclose(out, [[1.0, 2.0]])

    def test_identical_keys_split_evenly(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0]])
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        family, _ = attention(e, params)
        npt.assert_allclose(family.values, np.full((2, 2), 0.5), atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n, d_model, d_k, d_v = 5, 4, 3, 2
            e = rng.normal(size=(n, d_model))
            mask = rng.random((n, n)) < 0.8
            mask[np.arange(n), np.arange(n)] = True
            params = AttentionParams(
                w_q=rng.normal(size=(d_model, d_k)),
                w_k=rng.normal(size=(d_model, d_k)),
                w_v=rng.normal(size=(d_model, d_v)),
                tau=float(rng.uniform(0.5, 2.0)),
                key_bias=rng.normal(size=n),
                prior=BaselinePrior(rng.uniform(0.5, 2.0, (n, n))),
                mask=mask,
            )
            family, out = attention(e, params)
            want = oracle_attention_weights(e, params)
            assert np.abs(family.values - want).max() <= 1e-12
            npt.assert_allclose(out, want @ (e @ params.w_v), atol=1e-12)

    def test_temperature_absorbs_into_query_scale(self):
        rng = np.random.default_rng(55)
        e = rng.normal(size=(4, 3))
        w_q = rng.normal(size=(3, 3))
        w_k = rng.normal(size=(3, 3))
        w_v = rng.normal(size=(3, 2))
        tau = 2.5
        hot = AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v, tau=tau)
        absorbed = AttentionParams(w_q=w_q / tau, w_k=w_k, w_v=w_v, tau=1.0)
        hot_family, _ = attention(e, hot)
        cold_family, _ = attention(e, absorbed)
        assert np.abs(hot_family.values - cold_family.values).max() <= 1e-12

    def test_causal_mask_zeroes_the_future(self):
        rng = np.random.default_rng(65)
        e = rng.normal(size=(4, 3))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        params = AttentionParams(
            w_q=rng.normal(size=(3, 2)),
            w_k=rng.normal(size=(3, 2)),
            w_v=rng.normal(size=(3, 2)),
            mask=mask,
        )
        family, _ = attention(e, params)
        assert (family.values[~mask] == 0).all()

    def test_weights_agree_with_row_anchored_kernel(self):
        # The softmax route and the explicit kernel-then-anchor route
        # must produce the same conditional family.
        rng = np.random.default_rng(75)
        e = rng.normal(size=(5, 3))
        mask = rng.random((5, 5)) < 0.7
        mask[np.arange(5), np.arange(5)] = True
        params = AttentionParams(
            w_q=rng.normal(size=(3, 2)),
            w_k=rng.normal(size=(3, 2)),
            w_v=rng.normal(size=(3, 2)),
            tau=1.3,
            mask=mask,
        )
        family, _ = attention(e, params)
        q = e @ params.w_q
        k = e @ params.w_k
        scores = (q @ k.T) / math.sqrt(2) / params.tau
        kernel_values = np.where(mask, np.exp(scores - scores.max()), 0.0)
        anchored = row_anchor(EvidenceKernel(kernel_values, mask))
        assert np.abs(family.values - anchored.values).max() <= 1e-12


class TestMultiHead:
    def test_single_head_identity_projection(self):
        rng = np.random.default_rng(81)
        e = rng.normal(size=(3, 4))
        head = AttentionParams(
            w_q=rng.normal(size=(4, 2)),
            w_k=rng.normal(size=(4, 2)),
            w_v=rng.normal(size=(4, 4)),
        )
        _, single = attention(e, head)
        npt.assert_allclose(multi_head(e, [head], np.eye(4)), single, atol=1e-14)

    def test_duplicate_heads_average_back(self):
        rng = np.random.default_rng(85)
        e = rng.normal(size=(3, 4))
        head = AttentionParams(
            w_q=rng.normal(size=(4, 2)),
            w_k=rng.normal(size=(4, 2)),
            w_v=rng.normal(size=(4, 3)),
        )
        _, single = attention(e, head)
        w_o = np.concatenate([0.5 * np.eye(3), 0.5 * np.eye(3)], axis=0)
        npt.assert_allclose(multi_head(e, [head, head], w_o), single, atol=1e-13)

    def test_three_heads_match_manual_concat(self):
        rng = np.random.default_rng(87)
        e = rng.normal(size=(4, 5))
        heads = [
            AttentionParams(
                w_q=rng.normal(size=(5, 2)),
                w_k=rng.normal(size=(5, 2)),
                w_v=rng.normal(size=(5, 3)),
            )
            for _ in range(3)
        ]
        w_o = rng.normal(size=(9, 5))
        manual = np.concatenate(
            [attention(e, h)[1] for h in heads], axis=1
        ) @ w_o
        npt.assert_allclose(multi_head(e, heads, w_o), manual, atol=1e-13)

    def test_projection_shape_checked(self):
        e = np.zeros((2, 3))
        head = AttentionParams(w_q=np.eye(3), w_k=np.eye(3), w_v=np.eye(3))
        with pytest.raises(ShapeMismatch):
            multi_head(e, [head], np.eye(4))


class TestFfn:
    def test_relu_pair_builds_the_identity(self):
        # ReLU(x) - ReLU(-x) = x, so the stacked [I; -I] / [I, -I] block
        # computes the identity map exactly.
        d = 3
        params = FfnParams(
            w1=np.concatenate([np.eye(d), -np.eye(d)], axis=0),
            b1=np.zeros(2 * d),
            w2=np.concatenate([np.eye(d), -np.eye(d)], axis=1),
            b2=np.zeros(d),
            activation="relu",
        )
        rng = np.random.default_rng(91)
        x = rng.normal(size=(5, d))
        npt.assert_allclose(ffn_apply(x, params), x, atol=1e-14)

    def test_zero_input_returns_output_bias(self):
        rng = np.random.default_rng(93)
        for activation in ("relu", "gelu", "tanh"):
            b2 = rng.normal(size=3)
            params = FfnParams(
                w1=rng.normal(size=(6, 3)),
                b1=np.zeros(6),
                w2=rng.normal(size=(3, 6)),
                b2=b2,
                activation=activation,
            )
            direct, ga_form = ffn_as_ga(np.zeros(3), params)
            npt.assert_allclose(direct, b2, atol=1e-14)
            npt.assert_allclose(ga_form, b2, atol=1e-14)

    def test_signed_split_matches_direct_route(self):
        rng = np.random.default_rng(95)
        for _ in range(100):
            d_model = int(rng.integers(1, 6))
            d_ff = int(rng.integers(1, 12))
            activation = ("relu", "gelu", "tanh")[int(rng.integers(3))]
            params = FfnParams(
                w1=rng.normal(size=(d_ff, d_model)),
                b1=rng.normal(size=d_ff),
                w2=rng.normal(size=(d_model, d_ff)),
                b2=rng.normal(size=d_model),
                activation=activation,
            )
            x = rng.normal(size=d_model)
            direct, ga_form = ffn_as_ga(x, params)
            assert np.abs(direct - ga_form).max() <= 1e-10
            npt.assert_allclose(direct, ffn_apply(x[None, :], params)[0], atol=1e-12)

    def test_signed_carrier_doubles_the_hidden_axis(self):
        union = signed_hidden_carrier(4)
        assert union.n == 8
        assert union.flatten_index("neg", 0) == 4

    def test_gelu_is_exact_at_known_points(self):
        params = FfnParams(
            w1=np.eye(1), b1=np.zeros(1), w2=np.eye(1), b2=np.zeros(1),
            activation="gelu",
        )
        # gelu(1) = 0.5 (1 + erf(1/sqrt 2)) and gelu(0) = 0.
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        npt.assert_allclose(ffn_apply([[1.0]], params), [[expected]], atol=1e-15)
        npt.assert_allclose(ffn_apply([[0.0]], params), [[0.0]], atol=1e-15)


def scipy_erf():
    # scipy is the oracle only; the library itself never imports it.
    from scipy.special import erf

    return erf


def scipy_gelu(x):
    return 0.5 * x * (1.0 + scipy_erf()(x / math.sqrt(2.0)))


def assert_same_bits(ours, oracle):
    ours = np.asarray(ours, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    assert ours.shape == oracle.shape
    diff = np.flatnonzero(ours.view(np.int64) != oracle.view(np.int64))
    assert diff.size == 0, (
        f"{diff.size} entries differ, first at {diff[0]}: "
        f"{ours.flat[diff[0]]!r} vs {oracle.flat[diff[0]]!r}"
    )


EDGES = np.array(
    [
        0.0, -0.0, 1.0, -1.0, 8.0, -8.0, 26.0, 26.5, 26.6, 27.0, -26.6,
        np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
        2.2250738585072014e-308, 1e-310, -1e-310, 1.7976931348623157e308,
    ]
    + [math.sqrt(2.0) * v for v in (1.0, -1.0, 8.0, -8.0)]
)
# NaNs with a payload and with the sign bit set: scipy returns its own NaN.
NAN_PAYLOADS = np.array(
    [0x7FF8000000000123, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64
).view(np.float64)


class TestErf:
    def test_matches_scipy_bitwise_on_seeded_draws(self):
        # 10M draws over scales from deep inside |x| <= 1 to far past 8,
        # so every branch and both branch boundaries see millions.
        rng = np.random.default_rng(2016)
        for sigma in (1e-3, 0.1, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 8.0, 30.0):
            x = rng.standard_normal(1_000_000) * sigma
            assert_same_bits(_erf(x), scipy_erf()(x))

    # gelu(-inf) = -inf * 0 and the signalling NaN raise numpy's invalid
    # flag, on the oracle as on the port.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_scipy_bitwise_on_edges_and_neighbours(self):
        x = np.concatenate([EDGES, NAN_PAYLOADS])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        assert_same_bits(_erf(x), scipy_erf()(x))
        assert_same_bits(_gelu(x), scipy_gelu(x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_matches_scipy_bitwise_on_any_float(self, v):
        x = np.array([v, -v])
        assert_same_bits(_erf(x), scipy_erf()(x))
        assert_same_bits(_gelu(x), scipy_gelu(x))

    def test_keeps_the_input_shape(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert _erf(x).shape == (2, 3, 4)
        assert_same_bits(_gelu(x), scipy_gelu(x))

    def test_gelu_at_size_is_pinned(self):
        # sha256 of the exact-erf gelu on a 128 x 256 N(0, 1) hidden
        # layer, recorded from the scipy-backed implementation.
        x = np.random.default_rng(0).standard_normal((128, 256))
        digest = hashlib.sha256(_gelu(x).tobytes()).hexdigest()
        assert digest == (
            "498fbbf122b8f0c03acc3e15417576224cb36dafa643991f3dc1fefc26b92c89"
        )


class TestMixtures:
    def test_single_branch_is_transparent(self):
        rng = np.random.default_rng(97)
        family = random_conditional(rng, 3, 4)
        field = ValueField(rng.normal(size=(4, 2)))
        out, flattened = gated_mixture_conditional(
            np.ones((3, 1)), [(family, field)]
        )
        npt.assert_allclose(out, conditional_update(family, field), atol=1e-14)
        npt.assert_allclose(flattened.values, family.values, atol=1e-15)

    def test_one_hot_gate_selects_a_branch(self):
        rng = np.random.default_rng(99)
        families = [random_conditional(rng, 3, 4) for _ in range(2)]
        fields = [ValueField(rng.normal(size=(4, 2))) for _ in range(2)]
        gates = np.tile([0.0, 1.0], (3, 1))
        out, flattened = gated_mixture_conditional(
            gates, list(zip(families, fields))
        )
        npt.assert_allclose(out, conditional_update(families[1], fields[1]), atol=1e-14)
        assert not flattened.mask[:, : families[0].shape[1]].any()

    def test_flattened_family_reproduces_the_mixture(self):
        rng = np.random.default_rng(101)
        n_x = 4
        branches = []
        for _ in range(3):
            family = random_conditional(rng, n_x, int(rng.integers(2, 6)))
            field = ValueField(rng.normal(size=(family.shape[1], 3)))
            branches.append((family, field))
        raw = rng.uniform(0.1, 1.0, (n_x, 3))
        gates = raw / raw.sum(axis=1, keepdims=True)
        out, flattened = gated_mixture_conditional(gates, branches)
        stacked = ValueField(
            np.concatenate([f.values for _, f in branches], axis=0)
        )
        assert np.abs(conditional_update(flattened, stacked) - out).max() <= 1e-12

    def test_flattened_plan_reproduces_the_mixture(self):
        rng = np.random.default_rng(103)
        n_x = 3
        branches = []
        for _ in range(2):
            n_y = int(rng.integers(2, 5))
            mask = rng.random((n_x, n_y)) < 0.8
            values = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
            kernel = EvidenceKernel(values, mask)
            branches.append((kernel, ValueField(rng.normal(size=(n_y, 2)))))
        gates = rng.uniform(0.0, 2.0, (n_x, 2))
        out, flattened = gated_mixture_plan(gates, branches)
        stacked = np.concatenate([f.values for _, f in branches], axis=0)
        assert np.abs(flattened.values @ stacked - out).max() <= 1e-12

    def test_residual_stream_is_a_two_branch_plan_mixture(self):
        # x + attention(x) is itself a gated plan mixture: an identity
        # kernel branch carrying the embeddings plus the attention plan.
        rng = np.random.default_rng(105)
        e = rng.normal(size=(4, 3))
        params = AttentionParams(
            w_q=rng.normal(size=(3, 2)),
            w_k=rng.normal(size=(3, 2)),
            w_v=rng.normal(size=(3, 3)),
        )
        family, attn_out = attention(e, params)
        identity_kernel = EvidenceKernel(np.eye(4), np.eye(4, dtype=bool))
        attn_kernel = EvidenceKernel(family.values, family.mask)
        out, _ = gated_mixture_plan(
            np.ones((4, 2)),
            [
                (identity_kernel, ValueField(e)),
                (attn_kernel, ValueField(e @ params.w_v)),
            ],
        )
        npt.assert_allclose(out, e + attn_out, atol=1e-12)

    def test_gate_row_sums_enforced(self):
        family = ConditionalFamily(np.array([[1.0]]), np.array([[True]]))
        field = ValueField(np.array([[1.0]]))
        with pytest.raises(GateNotStochastic):
            gated_mixture_conditional(np.array([[0.5]]), [(family, field)])
        with pytest.raises(GateNotStochastic):
            gated_mixture_conditional(np.array([[-1.0, 2.0]]), [(family, field), (family, field)])

    def test_plan_gates_must_be_nonnegative(self):
        kernel = EvidenceKernel(np.array([[1.0]]), np.array([[True]]))
        field = ValueField(np.array([[1.0]]))
        with pytest.raises(NegativeGate):
            gated_mixture_plan(np.array([[-0.5]]), [(kernel, field)])

    @pytest.mark.parametrize(
        "mix, weights_type",
        [
            (gated_mixture_conditional, ConditionalFamily),
            (gated_mixture_plan, EvidenceKernel),
        ],
        ids=["conditional", "plan"],
    )
    @pytest.mark.parametrize(
        "case", ["no_branches", "gate_width", "query_size", "value_width"]
    )
    def test_branch_shapes_are_checked(self, mix, weights_type, case):
        field = ValueField(np.array([[1.0]]))
        one_row = (weights_type(np.array([[1.0]]), np.array([[True]])), field)
        two_rows = (weights_type(np.ones((2, 1)), np.ones((2, 1), dtype=bool)), field)
        wide = (one_row[0], ValueField(np.array([[1.0, 2.0]])))
        gates, branches = {
            "no_branches": (np.zeros((2, 0)), []),
            "gate_width": (np.array([[0.5, 0.5]]), [one_row]),
            "query_size": (np.array([[0.5, 0.5]]), [one_row, two_rows]),
            "value_width": (np.array([[0.5, 0.5]]), [one_row, wide]),
        }[case]
        with pytest.raises(ShapeMismatch):
            mix(gates, branches)


class TestIntegralView:
    def test_integrals_are_bitwise_the_plan_update(self):
        rng = np.random.default_rng(107)
        mask = rng.random((4, 5)) < 0.7
        values = np.where(mask, rng.uniform(0.1, 2.0, (4, 5)), 0.0)
        kernel = EvidenceKernel(values, mask)
        field = ValueField(rng.normal(size=(5, 3)))
        view = integral_view(kernel, field)
        assert np.array_equal(view.integrals, kernel.values @ field.values)
        npt.assert_array_equal(view.masses, kernel.values)

    def test_normalized_rows_match_row_anchor(self):
        rng = np.random.default_rng(109)
        mask = np.ones((3, 4), dtype=bool)
        kernel = EvidenceKernel(rng.uniform(0.1, 2.0, (3, 4)), mask)
        field = ValueField(rng.normal(size=(4, 2)))
        view = integral_view(kernel, field)
        family = row_anchor(kernel)
        npt.assert_allclose(view.normalized, family.values, atol=1e-15)
        npt.assert_allclose(
            view.conditional_integrals, conditional_update(family, field), atol=1e-15
        )

    def test_dead_rows_are_flagged_and_zeroed(self):
        mask = np.array([[True, True], [False, False]])
        kernel = EvidenceKernel(np.where(mask, 1.0, 0.0), mask)
        field = ValueField(np.array([[1.0], [2.0]]))
        view = integral_view(kernel, field)
        npt.assert_array_equal(view.has_mass, [True, False])
        npt.assert_array_equal(view.normalized[1], [0.0, 0.0])
        npt.assert_array_equal(view.conditional_integrals[1], [0.0])
