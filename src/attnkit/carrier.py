"""Refinement maps between carrier scales, and kernel pushforward.

A carrier is an ordered index set 0..n-1 at one scale, named by a
string id. A refinement map sends every fine bucket onto a coarse one
(surjectively); kernels follow along by summing their admissible
entries into the coarse cells.

After a pushforward the caller re-anchors from the pushed kernel; that
is the one aggregation regime implemented here.
"""

from __future__ import annotations

import numpy as np

from .score import EvidenceKernel, Frozen


class RefinementMap(Frozen):
    """Surjective bucket map from a fine carrier onto a coarse one.

    map[i] is the coarse index that fine index i lands in.
    """

    def __init__(self, fine: str, coarse: str, map: np.ndarray, n_coarse: int):
        try:
            arr = np.array(map, dtype=np.intp, copy=True)
        except OverflowError as exc:  # an entry no index can hold
            raise ValueError("refinement map entry out of coarse range") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("refinement map must be a nonempty 1-d index array")
        if arr.min() < 0 or arr.max() >= n_coarse:
            raise ValueError("refinement map entry out of coarse range")
        # More buckets than entries cannot all be hit; bincount would
        # allocate every one of them first.
        if n_coarse > arr.size or not np.bincount(arr, minlength=n_coarse).all():
            raise ValueError(f"refinement {fine!r}->{coarse!r} misses a coarse bucket")
        arr.setflags(write=False)
        self.__dict__.update(fine=fine, coarse=coarse, map=arr, n_coarse=n_coarse)

    @property
    def n_fine(self) -> int:
        return int(self.map.size)


def pushforward_kernel(
    kernel: EvidenceKernel, rho_x: RefinementMap, rho_y: RefinementMap
) -> EvidenceKernel:
    """Sum the kernel into coarse cells along both refinement maps.

    The coarse mask is the support of the summed kernel: a cell is
    admissible iff at least one admissible fine pair with positive
    value lands in it (strict > 0, no epsilon).
    """
    if kernel.shape != (rho_x.n_fine, rho_y.n_fine):
        raise ValueError(
            f"kernel shape {kernel.shape} does not match refinement domains "
            f"({rho_x.n_fine}, {rho_y.n_fine})"
        )
    coarse = np.zeros((rho_x.n_coarse, rho_y.n_coarse))
    np.add.at(coarse, (rho_x.map[:, None], rho_y.map[None, :]), kernel.values)
    return EvidenceKernel(coarse, coarse > 0)
