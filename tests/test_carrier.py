"""Refinement maps and kernel pushforward."""

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.carrier import RefinementMap, pushforward_kernel
from attnkit.score import EvidenceKernel


def oracle_pushforward(values, mask, map_x, map_y, n_cx, n_cy):
    """Naive double loop over fine pairs."""
    out = np.zeros((n_cx, n_cy))
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            if mask[i, j]:
                out[map_x[i], map_y[j]] += values[i, j]
    return out


def random_surjection(rng, n_fine, n_coarse, fine, coarse):
    while True:
        candidate = rng.integers(0, n_coarse, size=n_fine)
        if np.unique(candidate).size == n_coarse:
            return RefinementMap(fine, coarse, candidate, n_coarse)


def test_refinement_must_be_surjective():
    with pytest.raises(ValueError):
        RefinementMap("a", "b", [0, 0, 0], 2)
    with pytest.raises(ValueError):
        RefinementMap("a", "b", [0, 2], 2)


@pytest.mark.parametrize(
    "entries, n_coarse",
    [([0, 0, 0], 2), ([1, 1], 2), ([0, 2, 2, 0], 3), ([3, 0, 1, 3], 5)],
)
def test_refinement_names_the_missed_bucket_error(entries, n_coarse):
    with pytest.raises(ValueError, match="'a'->'b' misses a coarse bucket"):
        RefinementMap("a", "b", entries, n_coarse)


@pytest.mark.parametrize("entries", [[0, 2], [-1, 0, 1], [0, 1, 5]])
def test_refinement_rejects_an_entry_out_of_coarse_range(entries):
    with pytest.raises(ValueError, match="out of coarse range"):
        RefinementMap("a", "b", entries, 2)


def test_pushforward_all_ones_pairing():
    values = np.ones((4, 4))
    kernel = EvidenceKernel(values, values > 0)
    rho = RefinementMap("f", "c", [0, 0, 1, 1], 2)
    coarse = pushforward_kernel(kernel, rho, rho)
    npt.assert_array_equal(coarse.values, np.full((2, 2), 4.0))
    assert coarse.mask.all()


def test_pushforward_zero_kernel_keeps_empty_mask():
    kernel = EvidenceKernel(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))
    rho = RefinementMap("f", "c", [0, 0, 1, 1], 2)
    coarse = pushforward_kernel(kernel, rho, rho)
    npt.assert_array_equal(coarse.values, np.zeros((2, 2)))
    assert not coarse.mask.any()


def test_pushforward_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    values = np.where(rng.random((6, 6)) < 0.5, rng.uniform(0.1, 3.0, (6, 6)), 0.0)
    kernel = EvidenceKernel(values, values > 0)
    rho_x = random_surjection(rng, 6, 3, "f", "cx")
    rho_y = random_surjection(rng, 6, 2, "f", "cy")
    coarse = pushforward_kernel(kernel, rho_x, rho_y)
    expected = oracle_pushforward(values, kernel.mask, rho_x.map, rho_y.map, 3, 2)
    npt.assert_allclose(coarse.values, expected, rtol=1e-15)


def test_pushforward_conserves_mass_and_support():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        values = np.where(rng.random((n, n)) < 0.6, rng.uniform(0.01, 2.0, (n, n)), 0.0)
        kernel = EvidenceKernel(values, values > 0)
        n_c = int(rng.integers(1, n + 1))
        rho = random_surjection(rng, n, n_c, "f", "c")
        coarse = pushforward_kernel(kernel, rho, rho)
        npt.assert_allclose(coarse.values.sum(), values.sum(), rtol=1e-12)
        expected_mask = oracle_pushforward(values, kernel.mask, rho.map, rho.map, n_c, n_c) > 0
        npt.assert_array_equal(coarse.mask, expected_mask)


def test_pushforward_shape_disagreement():
    kernel = EvidenceKernel(np.ones((3, 3)), np.ones((3, 3), dtype=bool))
    rho = RefinementMap("f", "c", [0, 1], 2)
    with pytest.raises(ValueError, match="does not match refinement domains"):
        pushforward_kernel(kernel, rho, rho)
