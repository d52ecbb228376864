"""SVD contract, and Eckart-Young optimality of the score normal form."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.errors import NoConvergence, NonFinite
from attnkit.gauge import center_scores
from attnkit.lowrank import (
    SvdResult,
    degenerate_truncation,
    score_normal_form,
    svd,
)


def oracle_top_singular_value(m, iters=5000):
    """Power iteration on M^T M, no factorization routines involved."""
    gram = m.T @ m
    v = np.full(gram.shape[0], 1.0 / math.sqrt(gram.shape[0]))
    for _ in range(iters):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(float(v @ gram @ v))


def oracle_truncation(m, rank):
    """Best rank-r approximation straight from numpy's SVD."""
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    return (u[:, :rank] * sigma[:rank]) @ vt[:rank]


class TestSvd:
    def test_diagonal_frozen(self):
        result = svd(np.diag([3.0, 1.0]))
        npt.assert_allclose(result.sigma, [3.0, 1.0])
        npt.assert_allclose(result.U, np.eye(2), atol=1e-15)
        npt.assert_allclose(result.V, np.eye(2), atol=1e-15)

    def test_zero_matrix(self):
        result = svd(np.zeros((3, 2)))
        npt.assert_allclose(result.sigma, [0.0, 0.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for shape in [(4, 4), (6, 3), (3, 7)]:
            m = rng.normal(size=shape)
            r = svd(m)
            npt.assert_allclose((r.U * r.sigma) @ r.V.T, m, atol=1e-10)

    def test_singular_values_match_trace_and_determinant(self):
        # Two identities that do not route through any factorization:
        # sum of squares is the Frobenius norm squared, and the product
        # is |det| for square input.
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.normal(size=(5, 5)) + np.eye(5)
            sigma = svd(m).sigma
            assert float((sigma**2).sum()) == pytest.approx(
                float((m**2).sum()), rel=1e-12
            )
            assert float(np.prod(sigma)) == pytest.approx(
                abs(float(np.linalg.det(m))), rel=1e-9
            )

    def test_top_singular_value_matches_power_iteration(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m = rng.normal(size=(6, 4))
            assert svd(m).sigma[0] == pytest.approx(
                oracle_top_singular_value(m), rel=1e-8
            )

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(5, 5))
        first = svd(m)
        for k in range(first.sigma.size):
            lead = int(np.argmax(np.abs(first.U[:, k])))
            assert first.U[lead, k] >= 0
        second = svd(m)
        npt.assert_array_equal(first.U, second.U)
        npt.assert_array_equal(first.V, second.V)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd([[1.0, np.nan]])

    @pytest.mark.parametrize("m", [[1.0, 2.0], 3.0, np.ones((2, 2, 2))],
                             ids=["vector", "scalar", "3-d"])
    def test_input_must_be_a_matrix(self, m):
        with pytest.raises(ValueError, match="^svd input must be a matrix$"):
            svd(m)

    def test_backend_failure_maps_to_no_convergence(self, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", explode)
        with pytest.raises(NoConvergence):
            svd(np.eye(2))

    @pytest.mark.parametrize(
        "u, v",
        [
            (np.eye(2), np.eye(2)[:, :1]),
            (np.eye(2)[:, :1], np.eye(2)),
            (np.ones(2), np.eye(2)[:, :1]),
            (np.eye(2)[:, :1], np.ones(2)),
        ],
        ids=["u-columns", "v-columns", "u-not-a-matrix", "v-not-a-matrix"],
    )
    def test_result_refuses_factor_shapes_that_disagree(self, u, v):
        with pytest.raises(ValueError, match="^factor shapes disagree with the singular values$"):
            SvdResult(u, np.array([1.0]), v)

    def test_result_validates_orthonormality(self):
        with pytest.raises(ValueError):
            SvdResult(np.ones((2, 2)), np.array([1.0, 1.0]), np.eye(2))
        with pytest.raises(ValueError):
            SvdResult(np.eye(2), np.array([1.0, 2.0]), np.eye(2))


class TestDegenerateTruncation:
    def test_tied_boundary_flags(self):
        assert degenerate_truncation([2.0, 1.0, 1.0], 2)
        assert not degenerate_truncation([3.0, 2.0, 1.0], 2)

    def test_edges_never_flag(self):
        assert not degenerate_truncation([1.0, 1.0], 0)
        assert not degenerate_truncation([1.0, 1.0], 2)


class TestNormalFormFactors:
    """Q = U sqrt(S) and L = V sqrt(S) of the double-centered scores."""

    def test_rank_one_outer_product(self):
        # Zero-sum u and v: the outer product is its own interaction.
        u = np.array([1.0, 2.0, -3.0])
        v = np.array([3.0, 1.0, -4.0])
        chart = score_normal_form(np.outer(u, v), 1)
        npt.assert_allclose(chart.Q @ chart.L.T, np.outer(u, v), atol=1e-12)

    def test_symmetric_rank_one_splits_evenly(self):
        # u u^T with u = (2, -1, -1) has the one singular value |u|^2 = 6
        # and singular vectors u / sqrt(6): each factor is exactly u.
        u = np.array([2.0, -1.0, -1.0])
        chart = score_normal_form(np.outer(u, u), 1)
        npt.assert_allclose(chart.Q, u[:, None], atol=1e-14)
        npt.assert_allclose(chart.L, u[:, None], atol=1e-14)

    def test_product_reproduces_truncation(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(5, 7))
        interaction = center_scores(m).interaction
        for rank in (1, 3, 4):
            chart = score_normal_form(m, rank)
            npt.assert_allclose(
                chart.Q @ chart.L.T, oracle_truncation(interaction, rank), atol=1e-10
            )

    def test_symmetric_energy_split(self):
        rng = np.random.default_rng(18)
        chart = score_normal_form(rng.normal(size=(4, 4)), 3)
        npt.assert_allclose(
            (chart.Q**2).sum(axis=0), (chart.L**2).sum(axis=0), rtol=1e-10
        )


class TestScoreNormalForm:
    def test_separable_scores_need_no_rank(self):
        r = np.array([1.0, -2.0, 0.5])
        c = np.array([0.0, 3.0])
        chart = score_normal_form(r[:, None] + c[None, :], 0)
        assert chart.frobenius_residual <= 1e-12
        npt.assert_allclose(chart.key_bias, c - c.mean(), atol=1e-14)

    def test_planted_rank_one_interaction(self):
        # Zero-mean factors survive double centering untouched, so a
        # rank-1 chart should recover the planted product exactly.
        u = np.array([1.0, -1.0, 2.0, -2.0])
        v = np.array([3.0, -3.0])
        scores = np.outer(u, v) + 5.0
        chart = score_normal_form(scores, 1)
        assert chart.rank == 1
        assert chart.frobenius_residual <= 1e-10
        npt.assert_allclose(chart.Q @ chart.L.T, np.outer(u, v), atol=1e-10)

    def test_full_rank_reproduces_row_centered_scores(self):
        rng = np.random.default_rng(24)
        scores = rng.normal(size=(5, 6))
        chart = score_normal_form(scores, 5)
        rebuilt = chart.key_bias[None, :] + chart.Q @ chart.L.T
        npt.assert_allclose(rebuilt, scores - scores.mean(axis=1)[:, None], atol=1e-10)

    def test_residual_matches_direct_truncation(self):
        rng = np.random.default_rng(26)
        scores = rng.normal(size=(6, 6))
        interaction = center_scores(scores).interaction
        for rank in (1, 2, 4):
            chart = score_normal_form(scores, rank)
            residual = np.linalg.norm(interaction - oracle_truncation(interaction, rank))
            assert chart.frobenius_residual == pytest.approx(residual, abs=1e-12)

    def test_residual_equals_tail_energy(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            scores = rng.normal(size=(7, 5))
            sigma = svd(center_scores(scores).interaction).sigma
            for rank in range(6):
                tail = math.sqrt(float((sigma[rank:] ** 2).sum()))
                residual = score_normal_form(scores, rank).frobenius_residual
                assert residual == pytest.approx(tail, abs=1e-10)

    def test_beats_random_factorizations(self):
        rng = np.random.default_rng(14)
        scores = rng.normal(size=(6, 6))
        interaction = center_scores(scores).interaction
        residual = score_normal_form(scores, 2).frobenius_residual
        for _ in range(200):
            x = rng.normal(size=(6, 2))
            y = rng.normal(size=(6, 2))
            contender = float(np.linalg.norm(interaction - x @ y.T))
            assert contender >= residual - 1e-12

    def test_degenerate_flag_propagates(self):
        scores = np.diag([1.0, 1.0, 1.0, 1.0]) * 4.0
        interaction = center_scores(scores).interaction
        sigma = svd(interaction).sigma
        chart = score_normal_form(scores, 1)
        assert chart.degenerate == degenerate_truncation(sigma, 1)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=r"rank 5 not in \[0, 3\]"):
            score_normal_form(np.eye(3), 5)
        with pytest.raises(ValueError, match=r"rank -1 not in \[0, 3\]"):
            score_normal_form(np.eye(3), -1)

    def test_overflowing_factors_are_nonfinite(self):
        # Centering is exact; the singular value 2e308 is not a double.
        with pytest.raises(NonFinite, match="chart factors overflowed"):
            score_normal_form([[1e308, -1e308], [-1e308, 1e308]], 1)

    def test_residual_past_the_largest_double_is_nonfinite(self):
        # Rank 0 keeps no factor, so the residual is the whole interaction,
        # of norm 2e308.
        scores = [[1e308, -1e308], [-1e308, 1e308]]
        with pytest.raises(NonFinite, match="truncation residual overflowed"):
            score_normal_form(scores, 0)

    def test_residual_past_the_range_of_squares_is_the_tail_energy(self):
        # Entries near 1e200 square past the largest double, but the
        # factors and the residual are in range.
        rng = np.random.default_rng(5)
        scores = center_scores(rng.normal(size=(3, 3)) * 1e200).interaction
        sigma = svd(scores).sigma
        tail = math.hypot(sigma[1], sigma[2])
        chart = score_normal_form(scores, 1)
        assert chart.frobenius_residual == pytest.approx(tail, rel=1e-12)

    def test_full_rank_is_lossless(self):
        rng = np.random.default_rng(28)
        scores = rng.normal(size=(4, 6))
        interaction = center_scores(scores).interaction
        chart = score_normal_form(scores, 4)
        assert chart.frobenius_residual <= 1e-10
        npt.assert_allclose(chart.Q @ chart.L.T, interaction, atol=1e-10)

    def test_rank_zero_keeps_no_factor(self):
        rng = np.random.default_rng(30)
        scores = rng.normal(size=(3, 5))
        interaction = center_scores(scores).interaction
        chart = score_normal_form(scores, 0)
        assert chart.Q.shape == (3, 0) and chart.L.shape == (5, 0)
        assert chart.frobenius_residual == pytest.approx(
            float(np.linalg.norm(interaction)), rel=1e-12
        )

    def test_rank_one_drops_the_smaller_value(self):
        # Orthonormal zero-sum directions: the interaction is its own
        # SVD, with singular values 3 and 1.
        u1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
        u2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
        v1 = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2)
        v2 = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2)
        scores = 3.0 * np.outer(u1, v1) + np.outer(u2, v2)
        chart = score_normal_form(scores, 1)
        assert chart.frobenius_residual == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(chart.Q @ chart.L.T, 3.0 * np.outer(u1, v1), atol=1e-12)
        assert not chart.degenerate

    def test_residual_never_grows_with_rank(self):
        rng = np.random.default_rng(32)
        scores = rng.normal(size=(6, 5))
        residuals = [score_normal_form(scores, r).frobenius_residual for r in range(6)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-10

    def test_factor_columns_are_orthogonal_with_singular_value_norms(self):
        rng = np.random.default_rng(34)
        scores = rng.normal(size=(7, 5))
        sigma = svd(center_scores(scores).interaction).sigma
        chart = score_normal_form(scores, 3)
        npt.assert_allclose(chart.Q.T @ chart.Q, np.diag(sigma[:3]), atol=1e-10)
        npt.assert_allclose(chart.L.T @ chart.L, np.diag(sigma[:3]), atol=1e-10)

    def test_factors_carry_no_unary_field(self):
        # The interaction has zero margins, so each kept singular vector
        # is orthogonal to the constant one.
        rng = np.random.default_rng(36)
        chart = score_normal_form(rng.normal(size=(5, 6)) + 4.0, 3)
        npt.assert_allclose(chart.Q.sum(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(chart.L.sum(axis=0), 0.0, atol=1e-12)

    def test_unary_shifts_move_only_the_key_bias(self):
        rng = np.random.default_rng(38)
        scores = rng.normal(size=(5, 4))
        r = rng.normal(size=5)
        c = rng.normal(size=4)
        base = score_normal_form(scores, 2)
        shifted = score_normal_form(scores + r[:, None] + c[None, :], 2)
        npt.assert_allclose(shifted.Q @ shifted.L.T, base.Q @ base.L.T, atol=1e-12)
        assert shifted.frobenius_residual == pytest.approx(base.frobenius_residual, abs=1e-12)
        npt.assert_allclose(shifted.key_bias, base.key_bias + c - c.mean(), atol=1e-12)


class TestChartFreedom:
    """Any invertible r x r map A takes a chart (Q, L) to (Q A^T, L A^{-1})
    without touching the products q(x) . k(y)."""

    def test_invertible_map_keeps_the_products(self):
        rng = np.random.default_rng(40)
        chart = score_normal_form(rng.normal(size=(6, 5)), 3)
        a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        q, l = chart.Q @ a.T, chart.L @ np.linalg.inv(a)
        npt.assert_allclose(q @ l.T, chart.Q @ chart.L.T, atol=1e-10)

    def test_scalar_map_moves_scale_between_factors(self):
        rng = np.random.default_rng(42)
        chart = score_normal_form(rng.normal(size=(4, 4)), 2)
        a = 2.0 * np.eye(2)
        q, l = chart.Q @ a.T, chart.L @ np.linalg.inv(a)
        npt.assert_allclose(q, 2.0 * chart.Q, rtol=1e-15)
        npt.assert_allclose(l, 0.5 * chart.L, rtol=1e-15)
        # The normal form splits the energy evenly; a scaled chart does not.
        assert float((q**2).sum()) == pytest.approx(16.0 * float((l**2).sum()), rel=1e-12)
