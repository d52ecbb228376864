"""Scaling actions, centering, and cycle invariants on the gauge graph."""

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.anchor import row_anchor
from attnkit.gauge import (
    GaugeGraph,
    center_scores,
    coboundary,
    cycle_sum,
    scale_kernel,
    weighted_row_center,
)
from attnkit.score import EvidenceKernel


def oracle_scale(values, a, b):
    out = np.zeros_like(values)
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            out[i, j] = a[i] * values[i, j] * b[j]
    return out


def oracle_weighted_center(scores, weights):
    out = np.zeros_like(scores)
    for i in range(scores.shape[0]):
        mass = weights[i].sum()
        mean = sum(
            weights[i, j] * scores[i, j]
            for j in range(scores.shape[1])
            if weights[i, j] > 0
        ) / mass
        for j in range(scores.shape[1]):
            if weights[i, j] > 0:
                out[i, j] = scores[i, j] - mean
    return out


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


class TestWeightedRowCenter:
    def test_uniform_weights_reduce_to_plain_row_centering(self):
        rng = np.random.default_rng(63)
        s = rng.normal(size=(4, 5))
        w = np.ones_like(s)
        npt.assert_allclose(
            weighted_row_center(s, w), center_scores(s, mode="row"), atol=1e-13
        )

    def test_point_mass_weight_zeroes_its_row(self):
        s = np.array([[5.0, 9.0, -1.0]])
        w = np.array([[0.0, 1.0, 0.0]])
        npt.assert_allclose(weighted_row_center(s, w), [[0.0, 0.0, 0.0]])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(69)
        for _ in range(10):
            s = rng.normal(size=(5, 6))
            w = np.where(rng.random((5, 6)) < 0.7, rng.uniform(0.1, 2.0, (5, 6)), 0.0)
            w[:, 0] = np.maximum(w[:, 0], 0.3)  # keep every row alive
            npt.assert_allclose(
                weighted_row_center(s, w), oracle_weighted_center(s, w), atol=1e-12
            )

    def test_centered_scores_have_zero_weighted_mean(self):
        rng = np.random.default_rng(77)
        s = rng.normal(size=(6, 6))
        w = rng.uniform(0.1, 1.0, (6, 6))
        centered = weighted_row_center(s, w)
        npt.assert_allclose((w * centered).sum(axis=1), 0.0, atol=1e-12)

    def test_off_support_garbage_is_ignored(self):
        s = np.array([[2.0, np.inf], [1.0, 3.0]])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = weighted_row_center(s, w)
        npt.assert_allclose(out[0], [0.0, 0.0])

    def test_dead_row_rejected(self):
        with pytest.raises(ValueError, match="reference weight row 1 has zero total mass"):
            weighted_row_center(np.ones((2, 2)), [[1.0, 1.0], [0.0, 0.0]])

    def test_nonfinite_on_support_rejected(self):
        with pytest.raises(ValueError, match="scores must be finite on the weight support"):
            weighted_row_center([[np.nan, 1.0]], [[1.0, 1.0]])


def triangle():
    return GaugeGraph(
        n_vertices=3,
        edges=((0, 1), (1, 2), (2, 0)),
        edge_potential=[1.0, 2.0, -3.0],
        vertex_potential=[0.5, -1.0, 2.0],
    )


class TestGaugeGraph:
    def test_coboundary_oracle(self):
        g = triangle()
        expected = [
            g.vertex_potential[1] - g.vertex_potential[0],
            g.vertex_potential[2] - g.vertex_potential[1],
            g.vertex_potential[0] - g.vertex_potential[2],
        ]
        npt.assert_allclose(coboundary(g), expected, rtol=1e-15)

    def test_coboundary_needs_a_potential(self):
        g = GaugeGraph(2, ((0, 1),), [1.0])
        with pytest.raises(ValueError, match="graph carries no vertex potential"):
            coboundary(g)

    def test_triangle_cycle_sums_to_zero(self):
        assert cycle_sum(triangle(), [0, 1, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_coboundary_telescopes_around_any_cycle(self):
        rng = np.random.default_rng(83)
        n = 6
        edges = tuple(
            (u, v) for u in range(n) for v in range(n) if u != v
        )
        g = GaugeGraph(
            n,
            edges,
            rng.normal(size=len(edges)),
            vertex_potential=rng.normal(size=n),
        )
        d_phi = coboundary(g)
        lookup = {e: k for k, e in enumerate(edges)}
        # Walk a non-simple closed loop 0->3->1->3->5->0.
        loop_vertices = [0, 3, 1, 3, 5, 0]
        loop = [
            lookup[(a, b)] for a, b in zip(loop_vertices, loop_vertices[1:])
        ]
        total = float(d_phi[loop].sum())
        assert abs(total) <= 1e-12

    def test_cycle_sum_is_gauge_invariant(self):
        rng = np.random.default_rng(89)
        g = triangle()
        regauged = g.regauged()
        for cycle in ([0, 1, 2], [1, 2, 0]):
            assert cycle_sum(g, cycle) == pytest.approx(
                cycle_sum(regauged, cycle), abs=1e-12
            )
        # A fresh random potential on the same graph, same story.
        g2 = GaugeGraph(
            3, g.edges, rng.normal(size=3), vertex_potential=rng.normal(size=3)
        )
        assert cycle_sum(g2, [0, 1, 2]) == pytest.approx(
            cycle_sum(g2.regauged(), [0, 1, 2]), abs=1e-12
        )

    def test_broken_chain_rejected(self):
        g = GaugeGraph(3, ((0, 1), (0, 2)), [1.0, 1.0])
        with pytest.raises(ValueError, match="edge 0 ends at 1 but edge 1 starts at 0"):
            cycle_sum(g, [0, 1])
        with pytest.raises(ValueError, match="empty edge sequence"):
            cycle_sum(g, [])
        with pytest.raises(ValueError, match="edge index 7 out of range"):
            cycle_sum(g, [0, 7])

    def test_open_path_rejected(self):
        g = GaugeGraph(3, ((0, 1), (1, 2)), [1.0, 1.0])
        with pytest.raises(ValueError, match="edge 1 ends at 2 but edge 0 starts at 0"):
            cycle_sum(g, [0, 1])
