"""Attention, feedforward, and mixture operators against naive oracles."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnkit.anchor
import attnkit.operator
from attnkit.anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    row_anchor,
    sinkhorn_balanced,
)
from attnkit.errors import EmptyRow, NonFinite
from attnkit.operator import (
    AttentionParams,
    FfnParams,
    _erf,
    _gelu,
    attention,
    ffn_apply,
    ffn_as_ga,
    flatten_mixture,
    masked_row_softmax,
    update,
)
from attnkit.score import BaselinePrior, EvidenceKernel, MaskedScore, assemble_kernel


def oracle_attention_weights(e, params, mask):
    """Scalar-loop softmax of q.k/sqrt(d_k) + bias over the mask."""
    n = e.shape[0]
    q = e @ params.w_q
    k = e @ params.w_k
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


def random_conditional(rng, n_x, n_y):
    mask = rng.random((n_x, n_y)) < 0.7
    mask[:, 0] = True
    raw = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
    return ConditionalFamily(raw / raw.sum(axis=1, keepdims=True), mask)


def weight_matrices(rng, n_x, n_y):
    """A kernel, a conditional family and a plan on one random mask, by kind."""
    mask = rng.random((n_x, n_y)) < 0.7
    mask[:, 0] = True
    raw = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
    return {
        "kernel": EvidenceKernel(raw, mask),
        "conditional": ConditionalFamily(raw / raw.sum(axis=1, keepdims=True), mask),
        "plan": TransportPlan(raw, mask, converged=True, iterations=0),
    }


class TestUpdates:
    def test_plan_update_is_matrix_action(self):
        plan = TransportPlan(
            np.array([[1.0, 2.0], [0.5, 0.5]]),
            np.ones((2, 2), dtype=bool),
            converged=True,
            iterations=0,
        )
        npt.assert_array_equal(update(plan, np.array([[1.0, 0.0], [0.0, 1.0]])), plan.values)

    def test_conditional_update_averages(self):
        family = ConditionalFamily(
            np.array([[0.5, 0.5]]), np.ones((1, 2), dtype=bool)
        )
        npt.assert_allclose(update(family, np.array([[2.0], [4.0]])), [[3.0]])

    @pytest.mark.parametrize("kind", ["kernel", "conditional", "plan"])
    def test_is_the_matrix_product_bit_for_bit(self, kind):
        rng = np.random.default_rng(44)
        weights = weight_matrices(rng, 6, 5)[kind]
        values = rng.normal(size=(5, 3))
        assert_same_bits(update(weights, values), weights.values @ values)

    @pytest.mark.parametrize("kind", ["kernel", "conditional", "plan"])
    def test_refuses_non_finite_values_and_a_row_count_mismatch(self, kind):
        rng = np.random.default_rng(46)
        weights = weight_matrices(rng, 3, 4)[kind]
        values = np.ones((4, 2))
        values[2, 1] = np.inf
        with pytest.raises(ValueError, match="^value field entries must be finite$"):
            update(weights, values)
        with pytest.raises(ValueError, match="^weight columns 4 != value rows 3$"):
            update(weights, np.ones((3, 2)))

    def test_plan_factors_through_conditional(self):
        # A plan update is the row-mass times the conditional update of
        # the normalized plan. This is the bridge between the two
        # operator families.
        rng = np.random.default_rng(45)
        mask = rng.random((5, 5)) < 0.8
        mask[np.arange(5), np.arange(5)] = True
        values = np.where(mask, rng.uniform(0.1, 2.0, (5, 5)), 0.0)
        plan = TransportPlan(values, mask, converged=True, iterations=0)
        values = rng.normal(size=(5, 3))
        family = row_anchor(plan)
        lhs = update(plan, values)
        rhs = plan.row_marginal[:, None] * update(family, values)
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

    def test_an_empty_row_raises(self):
        logits = np.zeros((3, 2))
        mask = np.array([[True, True], [False, False], [False, False]])
        with pytest.raises(EmptyRow, match="^row 1 has no admissible entries$"):
            masked_row_softmax(logits, mask)


def test_row_anchor_and_the_softmax_share_one_divide(monkeypatch):
    # A divide by the row maximum in place of the row mass shows on both
    # routes: each of them normalizes through _normalize_rows.
    def by_row_max(weights):
        weights /= weights.max(axis=1)[:, None]
        return weights

    for module in (attnkit.anchor, attnkit.operator):
        monkeypatch.setattr(module, "_normalize_rows", by_row_max)
    full = np.ones((1, 2), dtype=bool)
    with pytest.raises(ValueError, match=r"^row 0 sums to 1\.5, not 1"):
        row_anchor(EvidenceKernel(np.array([[2.0, 1.0]]), full))
    npt.assert_array_equal(masked_row_softmax(np.zeros((1, 2)), full), [[1.0, 1.0]])


def out_of_place_softmax(logits, mask):
    """masked_row_softmax as it was written before it worked in place;
    the bitwise reference on masks without empty rows."""
    shifted = np.where(mask, logits, -np.inf)
    weights = np.exp(shifted - shifted.max(axis=1)[:, None])
    return weights / weights.sum(axis=1)[:, None]


def live_mask(rng, shape, density):
    """A random mask of about density, with one admitted entry forced
    into each row so that no row is empty."""
    mask = rng.random(shape) < density
    mask[np.arange(shape[0]), rng.integers(0, shape[1], shape[0])] = True
    return mask


class TestMaskedRowSoftmaxBits:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_out_of_place_formula(self, n, m, density, scale, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, m)) * scale
        mask = live_mask(rng, (n, m), density)
        got = masked_row_softmax(logits, mask)
        assert_same_bits(got, out_of_place_softmax(logits, mask))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1000), (300, 300), (1000, 3)])
    def test_matches_the_out_of_place_formula_at_size(self, shape):
        rng = np.random.default_rng(sum(shape))
        logits = rng.normal(size=shape) * 10.0
        for density in (0.05, 0.5, 1.0):
            mask = live_mask(rng, shape, density)
            got = masked_row_softmax(logits, mask)
            assert_same_bits(got, out_of_place_softmax(logits, mask))


class TestAttentionReturnsArrays:
    @pytest.mark.parametrize("n", [1, 3, 8, 33])
    def test_weights_are_a_conditional_family_on_the_mask(self, n):
        # attention builds no family; the weights it returns are the
        # ones a family on the mask accepts, bit for bit.
        rng = np.random.default_rng(70 + n)
        d_model, d_k, d_v = 4, 3, 2
        e = rng.normal(size=(n, d_model))
        for mask in (None, rng.random((n, n)) < 0.6):
            if mask is not None:
                mask[:, 0] = True
            params = AttentionParams(
                w_q=rng.normal(size=(d_model, d_k)),
                w_k=rng.normal(size=(d_model, d_k)),
                w_v=rng.normal(size=(d_model, d_v)),
                tau=0.7,
                key_bias=rng.normal(size=n),
                prior=BaselinePrior(rng.uniform(0.5, 2.0, (n, n))),
            )
            weights, out = attention(e, params, mask)
            assert type(weights) is np.ndarray and type(out) is np.ndarray
            full = np.ones((n, n), dtype=bool) if mask is None else mask
            assert_same_bits(ConditionalFamily(weights, full).values, weights)
            assert_same_bits(out, weights @ (e @ params.w_v))

    def test_an_empty_mask_row_raises(self):
        rng = np.random.default_rng(77)
        e = rng.normal(size=(5, 3))
        mask = rng.random((5, 5)) < 0.5
        mask[:, 0] = True
        mask[2] = False
        params = AttentionParams(
            w_q=rng.normal(size=(3, 3)), w_k=rng.normal(size=(3, 3)), w_v=np.eye(3)
        )
        with pytest.raises(EmptyRow, match="^row 2 has no admissible entries$") as exc:
            attention(e, params, mask)
        assert exc.value.row == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weights_are_a_numeric_failure(self):
        params = AttentionParams(w_q=np.eye(2) * 1e200, w_k=np.eye(2) * 1e200, w_v=np.eye(2))
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFinite, match="conditional values must be finite and nonnegative"):
            attention(e, params)


class TestAttention:
    def test_params_refuse_a_value_projection_of_another_input_width(self):
        with pytest.raises(ValueError, match="^w_v input dimension must match w_q$"):
            AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.ones((3, 2)))

    @pytest.mark.parametrize(
        "embeddings, shape",
        [
            (np.ones((2, 3)), r"\(2, 3\)"),
            (np.ones(2), r"\(2,\)"),
            (np.ones((1, 2, 2)), r"\(1, 2, 2\)"),
        ],
        ids=["width", "vector", "3-d"],
    )
    def test_embeddings_must_be_n_by_d_model(self, embeddings, shape):
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        with pytest.raises(ValueError, match=f"^embeddings must be n x 2, got {shape}$"):
            attention(embeddings, params)

    def test_prior_must_be_n_by_n(self):
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2),
                                 prior=BaselinePrior(np.ones((3, 3))))
        with pytest.raises(ValueError, match="^prior shape must match the token count$"):
            attention(np.ones((2, 2)), params)

    def test_single_token_attends_to_itself(self):
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        weights, out = attention(np.array([[1.0, 2.0]]), params)
        npt.assert_allclose(weights, [[1.0]])
        npt.assert_allclose(out, [[1.0, 2.0]])

    def test_identical_keys_split_evenly(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0]])
        params = AttentionParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2))
        weights, _ = attention(e, params)
        npt.assert_allclose(weights, np.full((2, 2), 0.5), atol=1e-15)

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
            )
            weights, out = attention(e, params, mask)
            want = oracle_attention_weights(e, params, mask)
            assert np.abs(weights - want).max() <= 1e-12
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
        hot_weights, _ = attention(e, hot)
        cold_weights, _ = attention(e, absorbed)
        assert np.abs(hot_weights - cold_weights).max() <= 1e-12

    def test_causal_mask_zeroes_the_future(self):
        rng = np.random.default_rng(65)
        e = rng.normal(size=(4, 3))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        params = AttentionParams(
            w_q=rng.normal(size=(3, 2)),
            w_k=rng.normal(size=(3, 2)),
            w_v=rng.normal(size=(3, 2)),
        )
        weights, _ = attention(e, params, mask)
        assert (weights[~mask] == 0).all()

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
        )
        weights, _ = attention(e, params, mask)
        q = e @ params.w_q
        k = e @ params.w_k
        scores = (q @ k.T) / math.sqrt(2) / params.tau
        kernel_values = np.where(mask, np.exp(scores - scores.max()), 0.0)
        anchored = row_anchor(EvidenceKernel(kernel_values, mask))
        assert np.abs(weights - anchored.values).max() <= 1e-12

    def test_weights_are_the_anchored_gibbs_kernel_at_any_temperature(self):
        # attention's softmax of s/tau + log(prior) and the row-anchored
        # kernel prior * exp(s/tau) that assemble_kernel builds are one
        # conditional family, with a key bias and a prior, for tau in [0.3, 3].
        rng = np.random.default_rng(85)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            d_model, d_k, d_v = (int(d) for d in rng.integers(1, 9, size=3))
            e = rng.normal(size=(n, d_model))
            mask = rng.random((n, n)) < rng.uniform(0.2, 1.0)
            mask[np.arange(n), rng.integers(n, size=n)] = True
            params = AttentionParams(
                w_q=rng.normal(size=(d_model, d_k)),
                w_k=rng.normal(size=(d_model, d_k)),
                w_v=rng.normal(size=(d_model, d_v)),
                tau=float(rng.uniform(0.3, 3.0)),
                key_bias=rng.normal(size=n),
                prior=BaselinePrior(rng.uniform(0.1, 5.0, (n, n))),
            )
            weights, _ = attention(e, params, mask)
            q, k = e @ params.w_q, e @ params.w_k
            scores = (q @ k.T) / math.sqrt(d_k) + params.key_bias[None, :]
            kernel = assemble_kernel(MaskedScore(scores, mask), params.prior, params.tau)
            want = row_anchor(kernel).values
            assert (weights[~mask] == 0).all()
            npt.assert_allclose(weights[mask], want[mask], rtol=1e-13, atol=0)


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
            direct, ga_form = ffn_as_ga(np.zeros((1, 3)), params)
            npt.assert_allclose(direct, [b2], atol=1e-14)
            npt.assert_allclose(ga_form, [b2], atol=1e-14)

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
            x = rng.normal(size=(1, d_model))
            direct, ga_form = ffn_as_ga(x, params)
            assert np.abs(direct - ga_form).max() <= 1e-10
            # The direct route is the block that ga stage-run runs.
            npt.assert_array_equal(direct, ffn_apply(x, params))

    def test_each_row_of_a_batch_matches_its_one_row_call(self):
        rng = np.random.default_rng(97)
        for activation in ("relu", "gelu", "tanh"):
            params = FfnParams(
                w1=rng.normal(size=(9, 4)),
                b1=rng.normal(size=9),
                w2=rng.normal(size=(4, 9)),
                b2=rng.normal(size=4),
                activation=activation,
            )
            rows = rng.normal(size=(7, 4))
            direct, ga_form = ffn_as_ga(rows, params)
            assert direct.shape == ga_form.shape == (7, 4)
            for i in range(7):
                one_direct, one_ga = ffn_as_ga(rows[i : i + 1], params)
                npt.assert_allclose(direct[i : i + 1], one_direct, rtol=0, atol=1e-13)
                npt.assert_allclose(ga_form[i : i + 1], one_ga, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("which", ["w1", "w2"])
    def test_weights_must_be_matrices(self, which):
        fields = {"w1": np.eye(2), "b1": np.zeros(2), "w2": np.eye(2), "b2": np.zeros(2)}
        fields[which] = np.ones(2)
        with pytest.raises(ValueError, match="^w1 and w2 must be matrices$"):
            FfnParams(**fields)

    def test_a_vector_is_no_batch(self):
        params = FfnParams(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3), b2=np.zeros(3))
        for rows in (np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="^input rows must have length 3$"):
                ffn_as_ga(rows, params)

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


def assert_within_ulps(ours, oracle, ulps):
    """NaN exactly where the oracle is NaN, and every other entry at most
    ulps representable doubles away from the oracle's (-0.0 and 0.0 are
    one double here)."""
    ours = np.asarray(ours, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    assert ours.shape == oracle.shape
    lo = hi = ours
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero(((lo > oracle) | (oracle > hi)) | (np.isnan(ours) != np.isnan(oracle)))
    assert bad.size == 0, (
        f"{bad.size} entries are more than {ulps} ulp away, first at {bad[0]}: "
        f"{ours.flat[bad[0]]!r} vs {oracle.flat[bad[0]]!r}"
    )


def assert_gelu_follows_scipy_erf(x):
    # erf within 3 ulp (1.5 eps) of scipy's moves the rounded 1 + erf by
    # at most 2.5 eps, and the rounded 0.5 * x * (1 + erf) by at most
    # 2.25 eps |x|; 4 eps |x| leaves a margin.
    ours, oracle = _gelu(x), scipy_gelu(x)
    with np.errstate(invalid="ignore"):
        near = np.abs(ours - oracle) <= 4 * np.finfo(np.float64).eps * np.abs(x)
    bad = np.flatnonzero(~(near | (ours == oracle) | (np.isnan(ours) & np.isnan(oracle))))
    assert bad.size == 0, f"gelu({x.flat[bad[0]]!r}) = {ours.flat[bad[0]]!r} vs {oracle.flat[bad[0]]!r}"


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
    # math.erf is the C library's erf; scipy evaluates Cephes' rational
    # approximations. On glibc the two sit at most 3 ulp apart (measured
    # on the draws below), and the C library's is the nearer to exact.
    SCALES = (1e-3, 0.1, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 8.0, 30.0)

    def draws(self):
        # 10M draws over scales from deep inside |x| <= 1 to far past 8.
        rng = np.random.default_rng(2016)
        for sigma in self.SCALES:
            yield rng.standard_normal(1_000_000) * sigma

    def test_within_3_ulp_of_scipy_on_seeded_draws(self):
        for x in self.draws():
            assert_within_ulps(_erf(x), scipy_erf()(x), 3)

    def test_within_1_ulp_of_the_exact_value_on_seeded_draws(self):
        import mpmath

        with mpmath.workprec(200):
            for x in self.draws():
                x = x[:2000]
                exact = [float(mpmath.erf(mpmath.mpf(v))) for v in x.tolist()]
                assert_within_ulps(_erf(x), exact, 1)

    # gelu(-inf) = -inf * 0 and the signalling NaN raise numpy's invalid
    # flag, on the oracle as on ours.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_within_3_ulp_of_scipy_on_edges_and_neighbours(self):
        x = np.concatenate([EDGES, NAN_PAYLOADS])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        assert_within_ulps(_erf(x), scipy_erf()(x), 3)
        assert_gelu_follows_scipy_erf(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_within_3_ulp_of_scipy_on_any_float(self, v):
        x = np.array([v, -v])
        assert_within_ulps(_erf(x), scipy_erf()(x), 3)
        assert_gelu_follows_scipy_erf(x)

    def test_exact_values_and_shape(self):
        assert_same_bits(_erf(np.array([0.0, -0.0, np.inf, -np.inf])),
                         np.array([0.0, -0.0, 1.0, -1.0]))
        assert np.isnan(_erf(np.array([np.nan, -np.nan]))).all()
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert _erf(x).shape == (2, 3, 4)
        assert _gelu(x).shape == (2, 3, 4)

    def test_gelu_at_size_is_pinned(self):
        # sha256 of the exact-erf gelu on a 128 x 256 N(0, 1) hidden
        # layer, recorded with glibc's erf; another C library may round
        # some entries differently.
        x = np.random.default_rng(0).standard_normal((128, 256))
        digest = hashlib.sha256(_gelu(x).tobytes()).hexdigest()
        assert digest == (
            "4e4a28ba0418bc979584cbdc0dbdb494364463fb7029c43c66eadbee3f0e393e"
        )


def mixed_update(gates, branches):
    """sum_b gate(., b) * (W_b @ v_b), one branch at a time."""
    return sum(gates[:, b : b + 1] * (w.values @ v) for b, (w, v) in enumerate(branches))


class TestMixtures:
    def test_single_branch_is_transparent(self):
        rng = np.random.default_rng(97)
        family = random_conditional(rng, 3, 4)
        values = rng.normal(size=(4, 2))
        flattened = ConditionalFamily(*flatten_mixture(np.ones((3, 1)), [family]))
        assert_same_bits(flattened.values, family.values)
        npt.assert_array_equal(flattened.mask, family.mask)
        npt.assert_allclose(update(flattened, values), update(family, values), atol=1e-14)

    def test_one_hot_gate_selects_a_branch(self):
        rng = np.random.default_rng(99)
        families = [random_conditional(rng, 3, 4) for _ in range(2)]
        fields = [rng.normal(size=(4, 2)) for _ in range(2)]
        gates = np.tile([0.0, 1.0], (3, 1))
        flattened = ConditionalFamily(*flatten_mixture(gates, families))
        out = update(flattened, np.concatenate(fields, axis=0))
        npt.assert_allclose(out, update(families[1], fields[1]), atol=1e-14)
        assert not flattened.mask[:, : families[0].shape[1]].any()

    def test_mask_is_the_positive_gates_and_each_branch_mask(self):
        rng = np.random.default_rng(107)
        kernels = [weight_matrices(rng, 4, n_y)["kernel"] for n_y in (3, 5)]
        gates = rng.uniform(0.5, 2.0, (4, 2))
        gates[[0, 2], 0] = 0.0
        gates[3, 1] = 0.0
        values, mask = flatten_mixture(gates, kernels)
        expected = np.concatenate(
            [(gates[:, b : b + 1] > 0) & k.mask for b, k in enumerate(kernels)], axis=1
        )
        npt.assert_array_equal(mask, expected)
        assert_same_bits(
            values,
            np.concatenate([gates[:, b : b + 1] * k.values for b, k in enumerate(kernels)], axis=1),
        )
        # A zero gate prunes its block, and the support still equals the mask.
        EvidenceKernel(values, mask)

    def test_flattened_family_reproduces_the_mixture(self):
        rng = np.random.default_rng(101)
        n_x = 4
        branches = []
        for _ in range(3):
            family = random_conditional(rng, n_x, int(rng.integers(2, 6)))
            branches.append((family, rng.normal(size=(family.shape[1], 3))))
        raw = rng.uniform(0.1, 1.0, (n_x, 3))
        gates = raw / raw.sum(axis=1, keepdims=True)
        flattened = ConditionalFamily(*flatten_mixture(gates, [w for w, _ in branches]))
        stacked = np.concatenate([v for _, v in branches], axis=0)
        assert np.abs(update(flattened, stacked) - mixed_update(gates, branches)).max() <= 1e-12

    def test_flattened_plan_reproduces_the_mixture(self):
        rng = np.random.default_rng(103)
        n_x = 3
        branches = []
        for _ in range(2):
            n_y = int(rng.integers(2, 5))
            mask = rng.random((n_x, n_y)) < 0.8
            values = np.where(mask, rng.uniform(0.1, 2.0, (n_x, n_y)), 0.0)
            kernel = EvidenceKernel(values, mask)
            branches.append((kernel, rng.normal(size=(n_y, 2))))
        gates = rng.uniform(0.0, 2.0, (n_x, 2))
        flattened = EvidenceKernel(*flatten_mixture(gates, [w for w, _ in branches]))
        stacked = np.concatenate([v for _, v in branches], axis=0)
        assert np.abs(update(flattened, stacked) - mixed_update(gates, branches)).max() <= 1e-12

    def test_flattening_computes_no_branch_update(self, monkeypatch):
        def no_update(weights, values):
            raise AssertionError("flatten_mixture called update")

        monkeypatch.setattr(attnkit.operator, "update", no_update)
        rng = np.random.default_rng(109)
        families = [random_conditional(rng, 3, n_y) for n_y in (2, 4)]
        values, mask = flatten_mixture(np.full((3, 2), 0.5), families)
        assert values.shape == mask.shape == (3, 6)

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
        weights, attn_out = attention(e, params)
        identity_kernel = EvidenceKernel(np.eye(4), np.eye(4, dtype=bool))
        attn_kernel = EvidenceKernel(weights, np.ones((4, 4), dtype=bool))
        gates = np.ones((4, 2))
        flattened = EvidenceKernel(*flatten_mixture(gates, [identity_kernel, attn_kernel]))
        out = update(flattened, np.concatenate([e, e @ params.w_v], axis=0))
        npt.assert_allclose(out, e + attn_out, atol=1e-12)

    def test_gate_row_sums_enforced(self):
        # The conditional law is the family's own row-sum check.
        family = ConditionalFamily(np.array([[1.0]]), np.array([[True]]))
        with pytest.raises(ValueError, match="^row 0 sums to 0.5, not 1 within 1e-12$"):
            ConditionalFamily(*flatten_mixture(np.array([[0.5]]), [family]))
        with pytest.raises(ValueError, match="gates must be nonnegative and finite"):
            flatten_mixture(np.array([[-1.0, 2.0]]), [family, family])

    def test_plan_gates_must_be_nonnegative(self):
        kernel = EvidenceKernel(np.array([[1.0]]), np.array([[True]]))
        with pytest.raises(ValueError, match="^gates must be nonnegative and finite$"):
            flatten_mixture(np.array([[-0.5]]), [kernel])
        with pytest.raises(ValueError, match="^gates must be nonnegative and finite$"):
            flatten_mixture(np.array([[np.nan]]), [kernel])
        with pytest.raises(ValueError, match="^gates must be nonnegative and finite$"):
            flatten_mixture(np.array([[np.inf]]), [kernel])

    @pytest.mark.parametrize(
        "weights_type", [ConditionalFamily, EvidenceKernel], ids=["conditional", "plan"]
    )
    @pytest.mark.parametrize("case", ["no_branches", "gate_width", "query_size"])
    def test_branch_shapes_are_checked(self, weights_type, case):
        one_row = weights_type(np.array([[1.0]]), np.array([[True]]))
        two_rows = weights_type(np.ones((2, 1)), np.ones((2, 1), dtype=bool))
        gates, weights, message = {
            "no_branches": (np.zeros((2, 0)), [], "a mixture needs at least one branch"),
            "gate_width": (np.array([[0.5, 0.5]]), [one_row],
                           "gates must be n_x by number of branches"),
            "query_size": (np.array([[0.5, 0.5]]), [one_row, two_rows],
                           "branches must share the query carrier"),
        }[case]
        with pytest.raises(ValueError, match=message):
            flatten_mixture(gates, weights)
