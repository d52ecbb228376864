"""Carriers, refinement composition, pushforward, and branch unions."""

import numpy as np
import numpy.testing as npt
import pytest

from attnkit.carrier import (
    BranchCarrier,
    Carrier,
    RefinementMap,
    branch_union,
    compose_refinement,
    identity_refinement,
    pushforward_kernel,
)
from attnkit.errors import CarrierMismatch, DuplicateTag
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


def test_identity_composes_neutrally():
    rho = RefinementMap("fine", "coarse", [0, 0, 1, 1], 2)
    ident = identity_refinement("coarse", 2)
    composed = compose_refinement(ident, rho)
    npt.assert_array_equal(composed.map, rho.map)
    assert composed.fine == "fine" and composed.coarse == "coarse"


def test_constant_collapse():
    rho = RefinementMap("a", "b", [0, 0, 1, 1], 2)
    sigma = RefinementMap("b", "c", [0, 0], 1)
    composed = compose_refinement(sigma, rho)
    npt.assert_array_equal(composed.map, [0, 0, 0, 0])


def test_random_composition_matches_pointwise_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_surjection(rng, 6, 3, "l0", "l1")
        sigma = random_surjection(rng, 3, 2, "l1", "l2")
        composed = compose_refinement(sigma, rho)
        for i in range(6):
            assert composed.map[i] == sigma.map[rho.map[i]]


def test_composition_is_associative_on_chains():
    rng = np.random.default_rng(9)
    for _ in range(10):
        r0 = random_surjection(rng, 8, 5, "l0", "l1")
        r1 = random_surjection(rng, 5, 3, "l1", "l2")
        r2 = random_surjection(rng, 3, 2, "l2", "l3")
        left = compose_refinement(r2, compose_refinement(r1, r0))
        right = compose_refinement(compose_refinement(r2, r1), r0)
        npt.assert_array_equal(left.map, right.map)


def test_composition_rejects_broken_chain():
    rho = RefinementMap("a", "b", [0, 1], 2)
    sigma = RefinementMap("c", "d", [0, 0], 1)
    with pytest.raises(CarrierMismatch):
        compose_refinement(sigma, rho)


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
    with pytest.raises(CarrierMismatch):
        pushforward_kernel(kernel, rho, rho)


def test_branch_union_single_branch():
    carrier = Carrier("tokens", ("a", "b"))
    union = branch_union([("only", carrier)])
    assert union.flat_labels == (("only", "a"), ("only", "b"))
    assert union.n == 2


def test_branch_union_sizes_add():
    union = branch_union(
        [("x", Carrier.indexed("x", 2)), ("y", Carrier.indexed("y", 3))]
    )
    assert union.n == 5


def test_branch_union_round_trip_indices():
    branches = [
        ("a", Carrier.indexed("a", 2)),
        ("b", Carrier.indexed("b", 4)),
        ("c", Carrier.indexed("c", 3)),
    ]
    union = branch_union(branches)
    # Index-arithmetic oracle: offsets are cumulative branch sizes.
    offsets = {"a": 0, "b": 2, "c": 6}
    for tag, carrier in branches:
        for local in range(carrier.n):
            flat = union.flatten_index(tag, local)
            assert flat == offsets[tag] + local
            assert union.unflatten_index(flat) == (tag, local)


def test_branch_union_duplicate_tags():
    carrier = Carrier.indexed("z", 2)
    with pytest.raises(DuplicateTag):
        branch_union([("t", carrier), ("t", carrier)])


def test_carrier_label_validation():
    with pytest.raises(ValueError):
        Carrier("bad", ("a", "a"))
    with pytest.raises(ValueError):
        Carrier("empty", ())
