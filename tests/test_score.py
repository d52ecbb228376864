"""Kernel assembly, the support law, and the temperature."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.anchor import ConditionalFamily, TransportPlan
from attnkit.errors import InvalidBudget, NonFinite
from attnkit.score import (
    BaselinePrior,
    EvidenceKernel,
    MaskedMatrix,
    MaskedScore,
    assemble_kernel,
)


def oracle_assemble(scores, mask, prior, link_fn):
    """Independent per-entry evaluation with Python scalars."""
    n, m = scores.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            if mask[i, j]:
                out[i, j] = prior[i, j] * link_fn(scores[i, j])
    return out


def dense(values) -> MaskedScore:
    values = np.asarray(values, dtype=np.float64)
    return MaskedScore(values, np.ones(values.shape, dtype=bool))


def test_zero_scores_unit_prior_gives_all_ones():
    score = dense(np.zeros((3, 4)))
    kernel = assemble_kernel(score, BaselinePrior(np.ones((3, 4))), tau=1.0)
    npt.assert_array_equal(kernel.values, np.ones((3, 4)))


def test_log_scores_exponentiate():
    score = dense([[math.log(2.0), 0.0]])
    kernel = assemble_kernel(score, BaselinePrior(np.ones((1, 2))), tau=1.0)
    npt.assert_allclose(kernel.values, [[2.0, 1.0]], rtol=1e-15)


def test_assemble_matches_per_entry_oracle():
    rng = np.random.default_rng(42)
    scores = rng.normal(size=(5, 5))
    mask = rng.random((5, 5)) < 0.4
    prior = rng.uniform(0.5, 2.0, size=(5, 5))
    tau = 0.5
    kernel = assemble_kernel(MaskedScore(scores, mask), BaselinePrior(prior), tau)
    expected = oracle_assemble(scores, mask, prior, lambda s: math.exp(s / tau))
    npt.assert_allclose(kernel.values, expected, rtol=1e-15)
    npt.assert_array_equal(kernel.mask, mask)


def test_support_equals_mask_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = rng.integers(1, 9, size=2)
        mask = rng.random((n, m)) < rng.uniform(0.2, 1.0)
        scores = rng.normal(scale=3.0, size=(n, m))
        prior = rng.uniform(0.1, 5.0, size=(n, m))
        kernel = assemble_kernel(MaskedScore(scores, mask), BaselinePrior(prior), tau=0.7)
        npt.assert_array_equal(kernel.values > 0, mask)


def test_assemble_without_prior_is_exp_only():
    score = dense([[1.0, -1.0]])
    kernel = assemble_kernel(score)
    npt.assert_allclose(kernel.values, [[math.e, 1.0 / math.e]], rtol=1e-15)


def test_assemble_shape_mismatch():
    with pytest.raises(ValueError, match=r"prior shape \(2, 3\) != score shape \(2, 2\)"):
        assemble_kernel(
            dense(np.zeros((2, 2))),
            BaselinePrior(np.ones((2, 3))),
        )


def test_exp_underflow_is_a_numeric_failure():
    # exp(-800) is below the smallest subnormal double.
    score = dense([[-800.0]])
    with pytest.raises(NonFinite, match="underflowed to 0"):
        assemble_kernel(score)


def test_prior_times_exp_underflow_is_a_numeric_failure():
    # exp(-700) ~ 1e-304 is a normal double, but 1e-300 times it is 0.
    score = dense([[-700.0, 0.0], [0.0, 1.0]])
    prior = BaselinePrior([[1e-300, 1.0], [1.0, 1.0]])
    with pytest.raises(NonFinite, match="underflowed to 0"):
        assemble_kernel(score, prior)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
def test_temperature_must_be_strictly_positive(tau):
    with pytest.raises(InvalidBudget, match="tau must be strictly positive") as info:
        assemble_kernel(dense([[0.0]]), tau=tau)
    assert info.value.field == "tau"


def test_dividing_by_the_temperature_keeps_the_bits_of_the_unit_one():
    # exp(s / 1.0) is exp(s) to the bit, and exp(s / 0.5) is exp(2 s).
    s = np.random.default_rng(3).normal(scale=5.0, size=(4, 6))
    npt.assert_array_equal(assemble_kernel(dense(s)).values, np.exp(s))
    npt.assert_array_equal(assemble_kernel(dense(s), tau=0.5).values, np.exp(2.0 * s))


def test_masked_score_rejects_nonfinite_on_mask():
    values = np.array([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        MaskedScore(values, np.array([[True, True]]))
    # Off the mask anything goes; it is zeroed at construction.
    score = MaskedScore(values, np.array([[False, True]]))
    npt.assert_array_equal(score.values, [[0.0, 0.0]])


def test_evidence_kernel_rejects_support_mismatch():
    with pytest.raises(ValueError):
        EvidenceKernel(np.array([[1.0, 0.0]]), np.array([[True, True]]))
    with pytest.raises(ValueError):
        EvidenceKernel(np.array([[1.0, 0.5]]), np.array([[True, False]]))


def _plan(values, mask):
    return TransportPlan(values, mask, converged=True, iterations=0)


MASKED_TYPES = {
    "base": MaskedMatrix,
    "kernel": EvidenceKernel,
    "conditional": ConditionalFamily,
    "plan": _plan,
}
# Positive on the mask and row-stochastic, so every type accepts it.
GOOD_VALUES = [[0.25, 0.75], [0.0, 1.0]]
GOOD_MASK = [[True, True], [False, True]]


@pytest.mark.parametrize("build", MASKED_TYPES.values(), ids=MASKED_TYPES.keys())
@pytest.mark.parametrize(
    "values, mask, error, match",
    [
        ([[math.nan, 0.75], [0.0, 1.0]], GOOD_MASK, ValueError, "finite and nonnegative"),
        ([[-0.25, 1.25], [0.0, 1.0]], GOOD_MASK, ValueError, "finite and nonnegative"),
        ([[0.25, 0.75], [0.5, 0.5]], GOOD_MASK, ValueError, "off the mask"),
        (GOOD_VALUES, [[True, True, True], [False, True, True]], ValueError,
         r"mask shape \(2, 3\) != values shape \(2, 2\)"),
        (GOOD_VALUES, [[1, 2], [0, 1]], ValueError, "boolean or 0/1"),
    ],
    ids=["nan", "negative", "off-mask", "mask-shape", "mask-not-0-1"],
)
def test_masked_matrix_types_share_the_base_checks(build, values, mask, error, match):
    build(np.array(GOOD_VALUES), np.array(GOOD_MASK))
    with pytest.raises(error, match=match):
        build(np.array(values), np.array(mask))


@pytest.mark.parametrize("build", MASKED_TYPES.values(), ids=MASKED_TYPES.keys())
@pytest.mark.parametrize("values", [[1.0, 2.0], np.ones((1, 2, 2))], ids=["vector", "3-d"])
def test_masked_matrix_values_must_be_2d(build, values):
    message = rf"^(matrix|kernel|conditional|plan) values must be 2-d, got ndim={np.ndim(values)}$"
    with pytest.raises(ValueError, match=message):
        build(values, np.ones(np.shape(values), dtype=bool))


@pytest.mark.parametrize("build", MASKED_TYPES.values(), ids=MASKED_TYPES.keys())
def test_masked_matrix_types_store_read_only_float64_copies(build):
    values = np.array([[1, 0], [0, 1]])
    mask = np.array([[1, 0], [0, 1]])
    obj = build(values, mask)
    values[0, 0] = 7
    mask[0, 0] = 0
    assert obj.values.dtype == np.float64 and obj.mask.dtype == np.bool_
    npt.assert_array_equal(obj.values, [[1.0, 0.0], [0.0, 1.0]])
    npt.assert_array_equal(obj.mask, [[True, False], [False, True]])
    assert not obj.values.flags.writeable and not obj.mask.flags.writeable
    assert obj.shape == (2, 2)


def test_prior_must_be_strictly_positive():
    with pytest.raises(ValueError):
        BaselinePrior(np.array([[1.0, 0.0]]))
