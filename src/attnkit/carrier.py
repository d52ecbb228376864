"""Finite carriers, refinement maps between scales, and kernel pushforward.

A carrier is an ordered set of bucket labels at one scale. A refinement
map sends every fine bucket onto a coarse one (surjectively); kernels
follow along by summing their admissible entries into the coarse cells.
Branch carriers glue several carriers into one flat index set, which is
how mixture-style operators get a single kernel over all branches.

Labels are strings for I/O purposes only; all numeric code works on
indices 0..n-1.

After a pushforward the caller re-anchors from the pushed kernel; that
is the one aggregation regime implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CarrierMismatch, DuplicateTag
from .score import EvidenceKernel


@dataclass(frozen=True)
class Carrier:
    """Ordered, pairwise-distinct bucket labels at one scale."""

    id: str
    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise ValueError("carrier needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"carrier {self.id!r} has duplicate labels")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def indexed(cls, id: str, n: int) -> "Carrier":
        return cls(id, tuple(f"{id}:{i}" for i in range(n)))


@dataclass(frozen=True)
class RefinementMap:
    """Surjective bucket map from a fine carrier onto a coarse one.

    map[i] is the coarse index that fine index i lands in.
    """

    fine: str
    coarse: str
    map: np.ndarray
    n_coarse: int

    def __post_init__(self):
        arr = np.array(self.map, dtype=np.intp, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("refinement map must be a nonempty 1-d index array")
        if arr.min() < 0 or arr.max() >= self.n_coarse:
            raise ValueError("refinement map entry out of coarse range")
        if not np.bincount(arr, minlength=self.n_coarse).all():
            raise ValueError(
                f"refinement {self.fine!r}->{self.coarse!r} misses a coarse bucket"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "map", arr)

    @property
    def n_fine(self) -> int:
        return int(self.map.size)


def identity_refinement(carrier_id: str, n: int) -> RefinementMap:
    return RefinementMap(carrier_id, carrier_id, np.arange(n), n)


def compose_refinement(outer: RefinementMap, inner: RefinementMap) -> RefinementMap:
    """Chain inner (fine -> mid) with outer (mid -> coarse)."""
    if inner.coarse != outer.fine:
        raise CarrierMismatch(
            f"cannot chain {inner.fine!r}->{inner.coarse!r} with "
            f"{outer.fine!r}->{outer.coarse!r}"
        )
    if inner.n_coarse != outer.n_fine:
        raise CarrierMismatch(
            f"intermediate sizes disagree: {inner.n_coarse} vs {outer.n_fine}"
        )
    return RefinementMap(inner.fine, outer.coarse, outer.map[inner.map], outer.n_coarse)


def pushforward_kernel(
    kernel: EvidenceKernel, rho_x: RefinementMap, rho_y: RefinementMap
) -> EvidenceKernel:
    """Sum the kernel into coarse cells along both refinement maps.

    The coarse mask is the support of the summed kernel: a cell is
    admissible iff at least one admissible fine pair with positive
    value lands in it (strict > 0, no epsilon).
    """
    if kernel.shape != (rho_x.n_fine, rho_y.n_fine):
        raise CarrierMismatch(
            f"kernel shape {kernel.shape} does not match refinement domains "
            f"({rho_x.n_fine}, {rho_y.n_fine})"
        )
    coarse = np.zeros((rho_x.n_coarse, rho_y.n_coarse))
    np.add.at(coarse, (rho_x.map[:, None], rho_y.map[None, :]), kernel.values)
    return EvidenceKernel(coarse, coarse > 0)


@dataclass(frozen=True)
class BranchCarrier:
    """Several carriers glued into one index set of (tag, label) pairs.

    Flat order is branch order first, then within-branch label order.
    """

    branches: tuple[tuple[str, Carrier], ...]

    def __post_init__(self):
        branches = tuple((str(tag), carrier) for tag, carrier in self.branches)
        if not branches:
            raise ValueError("branch carrier needs at least one branch")
        tags = [tag for tag, _ in branches]
        if len(set(tags)) != len(tags):
            raise DuplicateTag(f"duplicate branch tags in {tags}")
        object.__setattr__(self, "branches", branches)

    @property
    def n(self) -> int:
        return sum(carrier.n for _, carrier in self.branches)

    @property
    def flat_labels(self) -> tuple[tuple[str, str], ...]:
        out = []
        for tag, carrier in self.branches:
            out.extend((tag, label) for label in carrier.labels)
        return tuple(out)

    def offset(self, tag: str) -> int:
        pos = 0
        for branch_tag, carrier in self.branches:
            if branch_tag == tag:
                return pos
            pos += carrier.n
        raise KeyError(f"no branch tagged {tag!r}")

    def flatten_index(self, tag: str, local: int) -> int:
        for branch_tag, carrier in self.branches:
            if branch_tag == tag:
                if not 0 <= local < carrier.n:
                    raise IndexError(f"local index {local} out of range for {tag!r}")
                return self.offset(tag) + local
        raise KeyError(f"no branch tagged {tag!r}")

    def unflatten_index(self, index: int) -> tuple[str, int]:
        pos = int(index)
        if pos < 0:
            raise IndexError(f"flat index {index} out of range")
        for tag, carrier in self.branches:
            if pos < carrier.n:
                return tag, pos
            pos -= carrier.n
        raise IndexError(f"flat index {index} out of range")


def branch_union(branches) -> BranchCarrier:
    """Build the flat carrier over an ordered list of (tag, Carrier)."""
    return BranchCarrier(tuple(branches))
