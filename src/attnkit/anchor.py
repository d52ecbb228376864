"""Anchoring rules that turn an evidence kernel into a canonical object.

Two families are implemented. Row anchoring normalizes each row of the
kernel into a conditional distribution (the softmax route). Transport
anchoring fits a nonnegative coupling to marginal data by Sinkhorn
scaling, either with hard marginal constraints (balanced) or with KL
penalties on the marginals (unbalanced). Both solvers run their first
iteration in the log domain and every later one as stabilized scaling
(Schmitzer 2016): two matrix-vector products against
K~ = exp(log K + f + g), with the scalings folded into the log
potentials f and g whenever an entry leaves [1e-100, 1e100], or an
entry K~ holds below the normal doubles grows back into the plan's
normal range. So every plan entry that is a normal double comes from a
normal entry of K~, and a wide kernel range costs no accuracy; only an
unbalanced plan with a whole row or column far below the range of
doubles makes the solver give up, with NoConvergence.

The generalized KL divergence both anchors optimize is also here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    EmptyCol,
    EmptyRow,
    Infeasible,
    InvalidBudget,
    NoConvergence,
    ShapeMismatch,
    ZeroMarginal,
)
from .score import EvidenceKernel, MaskedMatrix


def _marginal_vectors(marginals: Marginals, shape) -> tuple[np.ndarray, np.ndarray]:
    """The target masses, checked against the kernel shape; Marginals
    has already checked that they are finite and strictly positive."""
    for name, arr, n in zip(("mu_out", "mu_in"), (marginals.mu_out, marginals.mu_in), shape):
        if arr.size != n:
            raise ShapeMismatch(f"{name} must be a vector of length {n}")
    return marginals.mu_out, marginals.mu_in


@dataclass(frozen=True)
class ConditionalFamily(MaskedMatrix):
    """Row-stochastic family supported on the mask.

    Rows whose mask is empty are identically zero; every other row sums
    to 1 within 1e-12.
    """

    kind: ClassVar[str] = "conditional"

    def __post_init__(self):
        super().__post_init__()
        sums = self.values.sum(axis=1)
        nonempty = self.mask.any(axis=1)
        if (np.abs(sums[nonempty] - 1.0) > 1e-12).any():
            worst = int(np.argmax(np.abs(sums - 1.0) * nonempty))
            raise ValueError(
                f"row {worst} sums to {sums[worst]!r}, not 1 within 1e-12"
            )


@dataclass(frozen=True)
class Marginals:
    """Target row and column masses, all strictly positive."""

    mu_out: np.ndarray
    mu_in: np.ndarray

    def __post_init__(self):
        mu_out = np.array(self.mu_out, dtype=np.float64, copy=True)
        mu_in = np.array(self.mu_in, dtype=np.float64, copy=True)
        for name, arr in (("mu_out", mu_out), ("mu_in", mu_in)):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a nonempty vector")
            if not np.isfinite(arr).all() or (arr <= 0).any():
                raise ValueError(f"{name} entries must be finite and strictly positive")
            arr.setflags(write=False)
        object.__setattr__(self, "mu_out", mu_out)
        object.__setattr__(self, "mu_in", mu_in)

    def matched(self, rel_tol: float = 1e-9) -> bool:
        total_out = float(self.mu_out.sum())
        total_in = float(self.mu_in.sum())
        return abs(total_out - total_in) <= rel_tol * total_out


@dataclass(frozen=True)
class TransportPlan(MaskedMatrix):
    """Nonnegative coupling with its achieved marginals and solver state."""

    kind: ClassVar[str] = "plan"

    converged: bool
    iterations: int
    marginal_error: float = 0.0
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        row_marginal = self.values.sum(axis=1)
        col_marginal = self.values.sum(axis=0)
        row_marginal.setflags(write=False)
        col_marginal.setflags(write=False)
        object.__setattr__(self, "row_marginal", row_marginal)
        object.__setattr__(self, "col_marginal", col_marginal)


def row_anchor(kernel: EvidenceKernel) -> ConditionalFamily:
    """Normalize each kernel row into a conditional distribution.

    Fails hard on rows with no admissible evidence; there is no fallback
    distribution.
    """
    mass = kernel.values.sum(axis=1)
    empty = np.flatnonzero(mass == 0)
    if empty.size:
        raise EmptyRow(int(empty[0]))
    return ConditionalFamily(kernel.values / mass[:, None], kernel.mask)


def generalized_kl(a, b) -> float:
    """Sum of a*log(a/b) - a + b over all entries of nonnegative arrays.

    Uses the conventions 0*log(0/b) = 0 and KL = +inf as soon as some
    entry has a > 0 with b = 0. Infinity is an in-band return value,
    not an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} disagree")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("generalized KL is defined for nonnegative arrays")
    pos = a > 0
    if (b[pos] == 0).any():
        return math.inf
    total = float(np.sum(b - a))
    total += float(np.sum(a[pos] * np.log(a[pos] / b[pos])))
    return total


_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def _log_kernel(kernel: EvidenceKernel) -> np.ndarray:
    out = np.full(kernel.shape, -np.inf)
    m = kernel.mask
    out[m] = np.log(kernel.values[m])
    return out


def _log_sum_exp(log_m: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along an axis that tolerates -inf entries (an all
    -inf slice gives -inf)."""
    peak = log_m.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return peak.squeeze(axis) + np.log(np.exp(log_m - peak).sum(axis=axis))


def _check_budget(tol: float, max_iter: int) -> None:
    if max_iter < 1:
        raise InvalidBudget("max_iter", f"must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise InvalidBudget("tol", f"must be nonnegative, got {tol!r}")


def _fold(log_k: np.ndarray, f: np.ndarray, g: np.ndarray):
    """Rebuild K~ at the total log scalings f and g.

    Returns K~, its potentials, the scalings a and b against it, and the
    entries K~ holds below the normal doubles (rows, columns, logs). K~
    is exp(log K + f + g) with a = b = 1, except that a column, then a
    row, of K~ that peaks below e^-300 is lifted by up to e^220, and a
    or b, still inside the fold range, undoes the lift. So K~ b and a K~
    stay positive where the plan falls far below the range of doubles.
    """
    log_plan = log_k + f[:, None] + g[None, :]
    lift_g = np.clip(-300.0 - log_plan.max(axis=0), 0.0, 220.0)
    log_plan += lift_g
    lift_f = np.clip(-300.0 - log_plan.max(axis=1), 0.0, 220.0)
    log_plan += lift_f[:, None]
    rows, cols = np.nonzero((log_plan < _LOG_TINY) & (log_plan > -np.inf))
    flushed = (rows, cols, log_plan[rows, cols])
    a = np.exp(-lift_f)
    b = np.exp(-lift_g)
    return np.exp(log_plan), f + lift_f, g + lift_g, a, b, flushed


def _needs_fold(a: np.ndarray, b: np.ndarray, flushed) -> bool:
    """An entry of a or b left [1e-100, 1e100], or an entry K~ holds
    below the normal doubles has grown into a normal plan entry."""
    if max(a.max(), b.max()) > 1e100 or min(a.min(), b.min()) < 1e-100:
        return True
    rows, cols, log_k_tilde = flushed
    if not rows.size:
        return False
    return (log_k_tilde + np.log(a)[rows] + np.log(b)[cols]).max() >= _LOG_TINY


def _marginal_error(plan, mu_out, mu_in) -> float:
    return float(
        np.abs(plan.sum(axis=1) - mu_out).sum()
        + np.abs(plan.sum(axis=0) - mu_in).sum()
    )


def _final_plan(k_tilde, a, b, iterations: int) -> np.ndarray:
    plan = k_tilde * np.outer(a, b)
    if not np.isfinite(plan).all():
        raise NoConvergence(
            f"scalings left the range of doubles by iteration {iterations}"
        )
    return plan


def sinkhorn_balanced(
    kernel: EvidenceKernel,
    marginals: Marginals,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> TransportPlan:
    """Fit Pi = diag(a) K diag(b) to both marginals exactly (up to tol).

    Convergence is measured as the L1 error of the achieved marginals
    against the targets. Infeasible masks are diagnosed when that error
    stalls: no improvement by factor 0.999 over 100 consecutive
    iterations.

    The first iteration runs in the log domain and leaves potentials f
    and g. The others use stabilized scaling (Schmitzer 2016): scalings
    a and b against K~ = exp(log K + f + g), two matrix-vector products
    per iteration, which also give the error the stall rule reads.
    Whenever an entry of a or b leaves [1e-100, 1e100], or an entry K~
    holds below the normal doubles would now be a normal plan entry, a
    and b are folded into f and g and K~ is rebuilt. The returned
    marginal_error and converged flag come from the plan's own row and
    column sums.

    Raises InvalidBudget, a ValueError, for max_iter < 1 or a negative
    or NaN tol, and NoConvergence if the scalings leave the range of
    doubles.
    """
    _check_budget(tol, max_iter)
    mu_out, mu_in = _marginal_vectors(marginals, kernel.shape)
    if not marginals.matched():
        raise Infeasible(
            f"total masses differ: {mu_out.sum()} vs {mu_in.sum()}"
        )
    empty_rows = np.flatnonzero(~kernel.mask.any(axis=1))
    if empty_rows.size:
        raise EmptyRow(int(empty_rows[0]), "masked-out row cannot carry positive marginal")
    empty_cols = np.flatnonzero(~kernel.mask.any(axis=0))
    if empty_cols.size:
        raise EmptyCol(int(empty_cols[0]), "masked-out column cannot carry positive marginal")

    log_k = _log_kernel(kernel)
    # K~ starts as the first iteration's plan: its columns sum to mu_in,
    # so no row or column of it underflows to zero, whatever the range
    # of the kernel.
    f = np.log(mu_out) - _log_sum_exp(log_k, axis=1)
    g = np.log(mu_in) - _log_sum_exp(log_k + f[:, None], axis=0)
    k_tilde, f, g, a, b, flushed = _fold(log_k, f, g)
    k_b = k_tilde @ b
    error = _marginal_error(k_tilde * np.outer(a, b), mu_out, mu_in)

    best_error = math.inf
    stalled = 0
    iterations = 1
    while error > tol:
        # Stall detection doubles as the infeasibility diagnosis: a mask
        # that admits no coupling leaves the marginal error bounded away
        # from zero while the scalings drift.
        if error <= 0.999 * best_error:
            best_error = error
            stalled = 0
        else:
            stalled += 1
            if stalled >= 100:
                raise Infeasible(
                    f"marginal error stalled at {error:.3e} after {iterations} iterations"
                )
        if iterations == max_iter:
            break
        if _needs_fold(a, b, flushed):
            k_tilde, f, g, a, b, flushed = _fold(log_k, f + np.log(a), g + np.log(b))
            k_b = k_tilde @ b
        iterations += 1
        a = mu_out / k_b
        kt_a = a @ k_tilde
        b = mu_in / kt_a
        k_b = k_tilde @ b
        error = float(np.abs(a * k_b - mu_out).sum() + np.abs(b * kt_a - mu_in).sum())
    plan = _final_plan(k_tilde, a, b, iterations)
    error = _marginal_error(plan, mu_out, mu_in)
    return TransportPlan(
        plan,
        kernel.mask,
        converged=error <= tol,
        iterations=iterations,
        marginal_error=error,
    )


def sinkhorn_unbalanced(
    kernel: EvidenceKernel,
    marginals: Marginals,
    lam_out: float = 1.0,
    lam_in: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> TransportPlan:
    """KL-penalized transport anchor via damped Sinkhorn scaling.

    The damped updates
        a <- (mu_out / (K b)) ** (lam_out / (lam_out + 1))
        b <- (mu_in / (K^T a)) ** (lam_in / (lam_in + 1))
    run until the total log scalings F + log a and G + log b (0 on
    empty rows and columns) move at most tol in the max norm. On
    iteration exhaustion the last iterate is returned with
    converged=False rather than raising.

    As in the balanced anchor, the first iteration runs in the log
    domain and the others scale against K~ = exp(log K + F + G), with a
    and b folded into F and G by the same two rules. A row or column of
    the plan can fall far below the range of doubles here; K~ keeps it
    by a lift of up to e^220 (see _fold), and past that the scalings
    overflow and NoConvergence is raised. Raises InvalidBudget, a
    ValueError, for a penalty that is not strictly positive, max_iter < 1
    or a negative or NaN tol.
    """
    for name, lam in (("lam_out", lam_out), ("lam_in", lam_in)):
        if not lam > 0:
            raise InvalidBudget(name, f"must be strictly positive, got {lam!r}")
    _check_budget(tol, max_iter)
    n_x, n_y = kernel.shape
    mu_out, mu_in = _marginal_vectors(marginals, kernel.shape)
    if not kernel.mask.any():
        raise EmptyRow(0, "kernel mask is empty; nothing to anchor")

    frac_out = lam_out / (lam_out + 1.0)
    frac_in = lam_in / (lam_in + 1.0)
    log_k = _log_kernel(kernel)
    log_mu_out = np.log(mu_out)
    log_mu_in = np.log(mu_in)
    rows_live = kernel.mask.any(axis=1)
    cols_live = kernel.mask.any(axis=0)

    # f and g are the total log scalings; K~ starts as the first
    # iteration's plan, and big_f, big_g are the potentials it carries.
    # Dead rows and columns carry no mass either way and stay at 0.
    f = np.where(rows_live, frac_out * (log_mu_out - _log_sum_exp(log_k, axis=1)), 0.0)
    g = frac_in * (log_mu_in - _log_sum_exp(log_k + f[:, None], axis=0))
    g = np.where(cols_live, g, 0.0)
    step = max(float(np.abs(f).max()), float(np.abs(g).max()))
    k_tilde, big_f, big_g, a, b, flushed = _fold(log_k, f, g)
    iterations = 1
    while step > tol and iterations < max_iter:
        if _needs_fold(a, b, flushed):
            k_tilde, big_f, big_g, a, b, flushed = _fold(log_k, f, g)
        iterations += 1
        log_k_b = np.log(k_tilde @ b, where=rows_live, out=np.zeros(n_x))
        f_new = np.where(rows_live, frac_out * (log_mu_out - log_k_b + big_f), 0.0)
        a = np.exp(f_new - big_f)
        log_kt_a = np.log(a @ k_tilde, where=cols_live, out=np.zeros(n_y))
        g_new = np.where(cols_live, frac_in * (log_mu_in - log_kt_a + big_g), 0.0)
        b = np.exp(g_new - big_g)
        step = max(float(np.abs(f_new - f).max()), float(np.abs(g_new - g).max()))
        f = f_new
        g = g_new
    plan = _final_plan(k_tilde, a, b, iterations)
    return TransportPlan(
        plan,
        kernel.mask,
        converged=step <= tol,
        iterations=iterations,
        marginal_error=_marginal_error(plan, mu_out, mu_in),
    )


def unbalanced_objective(
    plan_values, kernel: EvidenceKernel, marginals: Marginals, lam_out: float, lam_in: float
) -> float:
    """KL(plan||K) + lam_out KL(row marginal||mu_out) + lam_in KL(col
    marginal||mu_in); the quantity the unbalanced anchor minimizes."""
    plan_values = np.asarray(plan_values, dtype=np.float64)
    return (
        generalized_kl(plan_values, kernel.values)
        + lam_out * generalized_kl(plan_values.sum(axis=1), marginals.mu_out)
        + lam_in * generalized_kl(plan_values.sum(axis=0), marginals.mu_in)
    )


def plan_to_conditional(plan: TransportPlan, mu_out) -> ConditionalFamily:
    """Divide each plan row by its outgoing mass.

    mu_out must be consistent with the plan's achieved row marginal
    (pass plan.row_marginal unless you know better); otherwise the
    row-stochastic invariant fails at construction.
    """
    mu_out = np.asarray(mu_out, dtype=np.float64)
    if mu_out.shape != (plan.shape[0],):
        raise ShapeMismatch(f"mu_out must have length {plan.shape[0]}")
    bad = np.flatnonzero(~(mu_out > 0))
    if bad.size:
        raise ZeroMarginal(int(bad[0]))
    return ConditionalFamily(plan.values / mu_out[:, None], plan.mask)
