"""Scaling actions, centering, and the cross differences centering keeps."""

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.anchor import row_anchor
from attnkit.errors import NonFinite
from attnkit.gauge import center_scores, scale_kernel
from attnkit.score import EvidenceKernel


def oracle_scale(values, a, b):
    out = np.zeros_like(values)
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            out[i, j] = a[i] * values[i, j] * b[j]
    return out


def oracle_double_center(s):
    """Entry by entry: S[x,y] - mean_y' S[x,y'] - mean_x' S[x',y] + mean S."""
    n, m = s.shape
    grand = sum(s[x, y] for x in range(n) for y in range(m)) / (n * m)
    out = np.zeros_like(s)
    for x in range(n):
        row = sum(s[x, y] for y in range(m)) / m
        for y in range(m):
            col = sum(s[xx, y] for xx in range(n)) / n
            out[x, y] = s[x, y] - row - col + grand
    return out


def cycle_sum(matrix, rows, cols):
    """Alternating sum around the closed walk x0 y0 x1 y1 ... x_{k-1} y_{k-1}
    of the bipartite carrier graph: + M[x_i, y_i] - M[x_{i+1}, y_i]."""
    k = len(rows)
    return sum(matrix[rows[i], cols[i]] - matrix[rows[(i + 1) % k], cols[i]]
               for i in range(k))


def random_kernel(rng, n_x, n_y):
    mask = np.ones((n_x, n_y), dtype=bool)
    return EvidenceKernel(rng.uniform(0.1, 4.0, (n_x, n_y)), mask)


class TestScaleKernel:
    def test_identity_scaling(self):
        kernel = EvidenceKernel(np.array([[1.0, 2.0]]), np.ones((1, 2), dtype=bool))
        scaled = scale_kernel(kernel, [1.0], [1.0, 1.0])
        npt.assert_array_equal(scaled.values, kernel.values)

    def test_matches_entry_oracle(self):
        rng = np.random.default_rng(3)
        kernel = random_kernel(rng, 4, 5)
        a = rng.uniform(0.5, 2.0, 4)
        b = rng.uniform(0.5, 2.0, 5)
        scaled = scale_kernel(kernel, a, b)
        npt.assert_allclose(scaled.values, oracle_scale(kernel.values, a, b), rtol=1e-15)

    def test_nonpositive_scaling_rejected(self):
        kernel = EvidenceKernel(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match="a must be finite and strictly positive"):
            scale_kernel(kernel, [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="b must be finite and strictly positive"):
            scale_kernel(kernel, [1.0, 1.0], [1.0, -2.0])

    def test_scaling_preserves_row_anchor_up_to_left_factor(self):
        rng = np.random.default_rng(13)
        kernel = random_kernel(rng, 5, 5)
        scaled = scale_kernel(kernel, rng.uniform(0.2, 3.0, 5), np.ones(5))
        npt.assert_allclose(
            row_anchor(scaled).values, row_anchor(kernel).values, atol=1e-12
        )


class TestCenterScores:
    def test_tiny_frozen_decomposition(self):
        # [[1,2],[3,4]] is a pure unary sum: rows (1.5, 3.5), cols (2, 3),
        # grand mean 2.5, so the interaction vanishes identically.
        dec = center_scores([[1.0, 2.0], [3.0, 4.0]])
        assert dec.grand_mean == 2.5
        npt.assert_allclose(dec.row_means, [1.5, 3.5])
        npt.assert_allclose(dec.col_means, [2.0, 3.0])
        npt.assert_allclose(dec.interaction, np.zeros((2, 2)), atol=1e-15)
        npt.assert_allclose(dec.key_bias, [-0.5, 0.5])

    def test_constant_matrix_centers_to_zero(self):
        dec = center_scores(np.full((3, 4), 7.0))
        npt.assert_allclose(dec.interaction, 0.0, atol=1e-15)
        assert dec.grand_mean == 7.0

    def test_reconstruction_and_zero_margins(self):
        rng = np.random.default_rng(41)
        s = rng.normal(size=(5, 7))
        dec = center_scores(s)
        # S(x,y) = row_means[x] + col_means[y] - grand_mean + interaction[x,y]
        rebuilt = (
            dec.row_means[:, None] + dec.col_means[None, :] - dec.grand_mean
            + dec.interaction
        )
        npt.assert_allclose(rebuilt, s, atol=1e-12)
        npt.assert_allclose(dec.interaction.sum(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(dec.interaction.sum(axis=1), 0.0, atol=1e-12)

    def test_double_centering_is_idempotent(self):
        rng = np.random.default_rng(49)
        s = rng.normal(size=(4, 6))
        once = center_scores(s).interaction
        twice = center_scores(once).interaction
        npt.assert_allclose(twice, once, atol=1e-12)

    def test_unary_shifts_leave_interaction_fixed(self):
        rng = np.random.default_rng(57)
        s = rng.normal(size=(5, 5))
        r = rng.normal(size=5)
        c = rng.normal(size=5)
        shifted = s + r[:, None] + c[None, :]
        base = center_scores(s).interaction
        after = center_scores(shifted).interaction
        assert np.abs(base - after).max() <= 1e-10

    def test_interaction_keeps_every_cross_difference(self):
        # S[x,y] - S[x,y'] - S[x',y] + S[x',y'] is a cycle sum of the
        # bipartite carrier graph, blind to unary fields.
        rng = np.random.default_rng(61)
        s = rng.normal(size=(4, 5)) + rng.normal(size=4)[:, None] + rng.normal(size=5)
        inter = center_scores(s).interaction
        for x in range(4):
            for x2 in range(4):
                for y in range(5):
                    for y2 in range(5):
                        want = s[x, y] - s[x, y2] - s[x2, y] + s[x2, y2]
                        got = inter[x, y] - inter[x, y2] - inter[x2, y] + inter[x2, y2]
                        assert abs(got - want) <= 1e-12

    def test_separable_scores_have_no_interaction(self):
        r = np.array([0.0, 1.0, -2.0])
        c = np.array([3.0, -1.0])
        dec = center_scores(r[:, None] + c[None, :])
        npt.assert_allclose(dec.interaction, 0.0, atol=1e-14)

    def test_row_and_col_modes(self):
        s = np.array([[1.0, 3.0], [2.0, 6.0]])
        npt.assert_allclose(center_scores(s, mode="row"), [[-1.0, 1.0], [-2.0, 2.0]])
        npt.assert_allclose(center_scores(s, mode="col"), [[-0.5, -1.5], [0.5, 1.5]])
        with pytest.raises(ValueError):
            center_scores(s, mode="diag")

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="plain centering needs fully finite scores"):
            center_scores([[1.0, np.inf], [0.0, 2.0]])
        with pytest.raises(ValueError, match="plain centering needs fully finite scores"):
            center_scores([[1.0, np.nan]])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(67)
        for shape in [(1, 4), (4, 1), (3, 3), (5, 2)]:
            s = rng.normal(size=shape) * 3.0
            npt.assert_allclose(center_scores(s).interaction, oracle_double_center(s),
                                atol=1e-12)

    def test_row_and_col_modes_zero_their_own_margin(self):
        rng = np.random.default_rng(71)
        s = rng.normal(size=(4, 6)) + 5.0
        npt.assert_allclose(center_scores(s, mode="row").sum(axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(center_scores(s, mode="col").sum(axis=0), 0.0, atol=1e-12)
        # Each single centering keeps the other margin's spread.
        npt.assert_allclose(center_scores(s, mode="row").sum(axis=0),
                            s.sum(axis=0) - s.sum() / 6, atol=1e-12)

    def test_longer_cycles_are_kept(self):
        # A 6-cycle x0 y0 x1 y1 x2 y2 is no single 2x2 cross difference,
        # but it is still blind to unary fields.
        rng = np.random.default_rng(73)
        s = rng.normal(size=(5, 5)) + rng.normal(size=5)[:, None] + rng.normal(size=5)
        inter = center_scores(s).interaction
        for rows, cols in [([0, 2, 4], [1, 3, 0]), ([4, 1], [2, 3]), ([3, 0, 1, 2], [0, 1, 4, 3])]:
            assert cycle_sum(inter, rows, cols) == pytest.approx(cycle_sum(s, rows, cols),
                                                                  abs=1e-12)

    def test_separable_scores_have_zero_cycle_sums(self):
        r = np.array([1.0, -4.0, 2.5])
        c = np.array([0.5, 7.0, -1.0])
        s = r[:, None] + c[None, :]
        assert cycle_sum(s, [0, 1, 2], [0, 1, 2]) == 0.0
        assert cycle_sum(s, [2, 0], [1, 2]) == 0.0

    def test_key_bias_is_the_centered_column_field(self):
        rng = np.random.default_rng(79)
        s = rng.normal(size=(3, 5))
        dec = center_scores(s)
        npt.assert_allclose(dec.key_bias, s.mean(axis=0) - s.mean(), atol=1e-15)
        assert abs(float(dec.key_bias.sum())) <= 1e-12

    def test_single_row_is_all_key_bias(self):
        # One query: every column difference is a column field.
        dec = center_scores([[2.0, -1.0, 5.0]])
        npt.assert_allclose(dec.interaction, 0.0, atol=1e-15)
        npt.assert_allclose(dec.key_bias, [0.0, -3.0, 3.0], atol=1e-15)

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="scores must be a 2-d matrix"):
            center_scores([1.0, 2.0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            center_scores(np.zeros((0, 3)))

    def test_overflowing_sums_are_centered_at_scale(self):
        # Every entry, mean and interaction entry is a double; the row
        # and column sums are not, so centering runs on s / 1e308.
        dec = center_scores([[1e308, 1e308], [1e308, 1e308]])
        assert dec.grand_mean == 1e308
        npt.assert_array_equal(dec.row_means, [1e308, 1e308])
        npt.assert_array_equal(dec.col_means, [1e308, 1e308])
        npt.assert_array_equal(dec.interaction, np.zeros((2, 2)))
        npt.assert_array_equal(dec.key_bias, [0.0, 0.0])
        dec = center_scores([[1e308, -1e308], [1e308, 1e308]])
        assert dec.grand_mean == 5e307
        npt.assert_array_equal(dec.row_means, [0.0, 1e308])
        npt.assert_array_equal(dec.col_means, [1e308, 0.0])
        npt.assert_array_equal(dec.interaction, [[5e307, -5e307], [-5e307, 5e307]])
        npt.assert_array_equal(dec.key_bias, [5e307, -5e307])
        rows = center_scores([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]], mode="row")
        npt.assert_array_equal(rows, np.zeros((2, 2)))

    def test_interaction_past_the_largest_double_is_nonfinite(self):
        # The interaction entry 16M/9 is past the largest double, at any scale.
        m = 1.7e308
        with pytest.raises(NonFinite, match="centering overflowed"):
            center_scores([[m, -m, -m], [-m, m, m], [-m, m, m]])

    def test_scores_that_do_not_overflow_keep_the_plain_bits(self):
        s = np.random.default_rng(43).normal(scale=1e3, size=(6, 9))
        row, col, grand = s.mean(axis=1), s.mean(axis=0), s.mean()
        dec = center_scores(s)
        npt.assert_array_equal(dec.interaction, s - row[:, None] - col[None, :] + grand)
        npt.assert_array_equal(dec.key_bias, col - grand)
        npt.assert_array_equal(center_scores(s, mode="row"), s - row[:, None])
        npt.assert_array_equal(center_scores(s, mode="col"), s - col[None, :])
