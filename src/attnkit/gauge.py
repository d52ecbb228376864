"""Scaling actions, centering quotients, and the discrete gauge graph.

Row anchoring is blind to positive left scalings of the kernel, and
balanced transport anchoring is blind to two-sided scalings; this
module provides the group action and the unary-field quotients on
score matrices (row, column, double, and weighted row centering).

The graph part is the 1-cochain picture of the same idea: an edge
potential changes by a coboundary phi(v) - phi(u) under a vertex
regauging, and sums around directed cycles are the invariants.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite
from .score import EvidenceKernel, Frozen


def _positive_vector(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    if not np.isfinite(arr).all() or (arr <= 0).any():
        raise ValueError(f"{name} must be finite and strictly positive")
    return arr


def scale_kernel(kernel: EvidenceKernel, a, b) -> EvidenceKernel:
    """Two-sided scaling action: K'[i,j] = a[i] K[i,j] b[j]."""
    n_x, n_y = kernel.shape
    a = _positive_vector(a, n_x, "row scaling a")
    b = _positive_vector(b, n_y, "column scaling b")
    with np.errstate(over="ignore"):  # checked below
        scaled = a[:, None] * kernel.values * b[None, :]
    # Every factor is positive on the mask: inf there overflowed, 0 underflowed.
    if not np.isfinite(scaled).all():
        raise NonFinite("scaled kernel overflowed to a non-finite entry")
    if not scaled[kernel.mask].all():
        raise NonFinite("scaled kernel entry underflowed to 0 on the mask")
    return EvidenceKernel(scaled, kernel.mask)


class CenteredDecomposition(Frozen):
    """Grand mean, unary fields, and the double-centered interaction.

    Reconstruction: S(x,y) = row_means[x] + col_means[y] - grand_mean
    + interaction[x,y]. The key bias is col_means - grand_mean, the
    column field a row-anchored probe can still see.
    """

    def __init__(self, grand_mean: float, row_means: np.ndarray, col_means: np.ndarray,
                 interaction: np.ndarray, key_bias: np.ndarray):
        self.__dict__.update(grand_mean=grand_mean, row_means=row_means, col_means=col_means,
                             interaction=interaction, key_bias=key_bias)


def center_scores(scores, mode: str = "double"):
    """Remove unary fields from a fully finite score matrix.

    mode "row" subtracts row means, "col" subtracts column means (both
    return a matrix), and "double" returns the full decomposition whose
    interaction part has zero row and column sums. Masked or non-finite
    input is rejected; use weighted_row_center with an explicit
    reference weight instead of letting a convention be picked
    silently.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("scores must be a 2-d matrix")
    if not np.isfinite(s).all():
        raise ValueError(
            "plain centering needs fully finite scores; arithmetic means are "
            "undefined under a mask"
        )
    if mode not in ("row", "col", "double"):
        raise ValueError(f"unknown centering mode {mode!r}")
    # A mean of finite scores can overflow in its sum, and a difference
    # of finite ones past the range of doubles; either shows in the result.
    with np.errstate(over="ignore", invalid="ignore"):
        row_means = s.mean(axis=1)
        col_means = s.mean(axis=0)
        if mode == "row":
            interaction = s - row_means[:, None]
        elif mode == "col":
            interaction = s - col_means[None, :]
        else:
            grand_mean = float(s.mean())
            interaction = s - row_means[:, None] - col_means[None, :] + grand_mean
    if not np.isfinite(interaction).all():
        raise NonFinite("centering overflowed to a non-finite value")
    if mode != "double":
        return interaction
    return CenteredDecomposition(
        grand_mean=grand_mean,
        row_means=row_means,
        col_means=col_means,
        interaction=interaction,
        key_bias=col_means - grand_mean,
    )


def weighted_row_center(scores, weights) -> np.ndarray:
    """Subtract the weighted row mean under a nonnegative reference weight.

    Only entries in supp(weights) are meaningful; the result is zeroed
    elsewhere. Every row needs positive total weight.
    """
    s = np.asarray(scores, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.ndim != 2:
        raise ValueError("scores and weights must be matrices of equal shape")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("reference weights must be finite and nonnegative")
    support = w > 0
    if not np.isfinite(s[support]).all():
        raise ValueError("scores must be finite on the weight support")
    row_mass = w.sum(axis=1)
    dead = np.flatnonzero(row_mass == 0)
    if dead.size:
        raise ValueError(f"reference weight row {int(dead[0])} has zero total mass")
    masked_scores = np.where(support, s, 0.0)
    mean = (w * masked_scores).sum(axis=1) / row_mass
    return np.where(support, s - mean[:, None], 0.0)


class GaugeGraph(Frozen):
    """Directed graph with an edge potential and an optional vertex one."""

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...],
                 edge_potential: np.ndarray, vertex_potential: np.ndarray | None = None):
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
        a = np.array(edge_potential, dtype=np.float64, copy=True)
        if a.shape != (len(edges),):
            raise ValueError("edge potential length must equal edge count")
        a.setflags(write=False)
        phi = vertex_potential
        if phi is not None:
            phi = np.array(phi, dtype=np.float64, copy=True)
            if phi.shape != (n_vertices,):
                raise ValueError("vertex potential length must equal vertex count")
            phi.setflags(write=False)
        self.__dict__.update(n_vertices=n_vertices, edges=edges, edge_potential=a,
                             vertex_potential=phi)

    def regauged(self) -> "GaugeGraph":
        """The same graph with A replaced by A + d(phi)."""
        a = self.edge_potential + coboundary(self)
        return GaugeGraph(self.n_vertices, self.edges, a, self.vertex_potential)


def coboundary(graph: GaugeGraph) -> np.ndarray:
    """Per-edge difference (d phi)(u -> v) = phi(v) - phi(u)."""
    phi = graph.vertex_potential
    if phi is None:
        raise ValueError("graph carries no vertex potential")
    heads = np.array([v for _, v in graph.edges], dtype=np.intp)
    tails = np.array([u for u, _ in graph.edges], dtype=np.intp)
    return phi[heads] - phi[tails]


def cycle_sum(graph: GaugeGraph, cycle) -> float:
    """Sum the edge potential along a directed cycle of edge indices.

    The edge sequence must chain head-to-tail and close up; revisiting
    vertices is allowed (non-simple cycles telescope just the same).
    """
    cycle = [int(e) for e in cycle]
    if not cycle:
        raise ValueError("empty edge sequence")
    for e in cycle:
        if not 0 <= e < len(graph.edges):
            raise ValueError(f"edge index {e} out of range")
    for here, there in zip(cycle, cycle[1:] + cycle[:1]):
        if graph.edges[here][1] != graph.edges[there][0]:
            raise ValueError(
                f"edge {here} ends at {graph.edges[here][1]} but edge {there} "
                f"starts at {graph.edges[there][0]}"
            )
    return float(graph.edge_potential[cycle].sum())
