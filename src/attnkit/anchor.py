"""Anchoring rules that turn an evidence kernel into a canonical object.

Two families are implemented. Row anchoring normalizes each row of a
kernel or a plan into a conditional distribution through _normalize_rows,
the one row divide, which attention's masked softmax ends in too.
Transport anchoring fits a nonnegative coupling to marginal data by
Sinkhorn scaling, either with hard marginal constraints (balanced) or
with KL penalties on the marginals (unbalanced).

Both transport anchors run one scaling loop, _scale: the damped update
a <- (mu_out / (K b)) ** e, with e = lam / (lam + 1) for a penalty lam
and e = 1 for a hard constraint (Chizat et al. 2018). They differ only
in the stop rule. The loop takes a kernel with no empty row or column:
the balanced anchor refuses one, and the unbalanced anchor cuts its dead
rows and columns out before the loop and gives them zero mass. The
first iteration runs in the log domain and every later one as
stabilized scaling (Schmitzer 2016): two matrix-vector products against
K~ = exp(log K + F + G), with the scalings folded into the log
potentials F and G whenever an entry leaves [1e-100, 1e100], or an
entry K~ holds below the normal doubles grows back into the plan's
normal range. So every plan entry that is a normal double comes from a
normal entry of K~, and a wide kernel range costs no accuracy; only an
unbalanced plan with a whole row or column far below the range of
doubles makes the solver give up, with NoConvergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyCol, EmptyRow, Infeasible, InvalidBudget, NoConvergence
from .score import EvidenceKernel, Frozen, MaskedMatrix


class ConditionalFamily(MaskedMatrix):
    """Row-stochastic family supported on the mask.

    Rows whose mask is empty are identically zero; every other row sums
    to 1 within 1e-12.
    """

    kind = "conditional"

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        super().__init__(values, mask)
        sums = self.values.sum(axis=1)
        nonempty = self.mask.any(axis=1)
        if (np.abs(sums[nonempty] - 1.0) > 1e-12).any():
            worst = int(np.argmax(np.abs(sums - 1.0) * nonempty))
            raise ValueError(
                f"row {worst} sums to {float(sums[worst])!r}, not 1 within 1e-12"
            )


class Marginals(Frozen):
    """Target row and column masses: nonempty vectors of finite, strictly
    positive entries. InvalidBudget names the one that is not."""

    def __init__(self, mu_out: np.ndarray, mu_in: np.ndarray):
        mu_out = np.array(mu_out, dtype=np.float64, copy=True)
        mu_in = np.array(mu_in, dtype=np.float64, copy=True)
        for name, arr in (("mu_out", mu_out), ("mu_in", mu_in)):
            if arr.ndim != 1 or arr.size == 0:
                raise InvalidBudget(name, "must be a nonempty vector")
            if not np.isfinite(arr).all() or (arr <= 0).any():
                raise InvalidBudget(name, "entries must be finite and strictly positive")
            arr.setflags(write=False)
        self.__dict__.update(mu_out=mu_out, mu_in=mu_in)

    def _totals(self) -> tuple[float, float, float]:
        """Both total masses in units of the largest entry of either
        vector, and that entry, so that no sum overflows."""
        scale = max(self.mu_out.max(), self.mu_in.max())
        return float((self.mu_out / scale).sum()), float((self.mu_in / scale).sum()), float(scale)

    def matched(self) -> bool:
        total_out, total_in, _ = self._totals()
        return abs(total_out - total_in) <= 1e-9 * total_out


class TransportPlan(MaskedMatrix):
    """Nonnegative coupling with its achieved marginals and solver state."""

    kind = "plan"

    def __init__(self, values: np.ndarray, mask: np.ndarray, converged: bool, iterations: int,
                 marginal_error: float = 0.0):
        super().__init__(values, mask)
        row_marginal = self.values.sum(axis=1)
        col_marginal = self.values.sum(axis=0)
        row_marginal.setflags(write=False)
        col_marginal.setflags(write=False)
        self.__dict__.update(converged=converged, iterations=iterations,
                             marginal_error=marginal_error, row_marginal=row_marginal,
                             col_marginal=col_marginal)


def _normalize_rows(weights: np.ndarray) -> np.ndarray:
    """weights, each row divided in place by its total mass. A row with
    zero mass raises EmptyRow; a row whose sum overflows is normalized
    from its entries over its largest one."""
    mass = weights.sum(axis=1)
    if not (mass.all() and mass.max() < math.inf):
        empty = np.flatnonzero(mass == 0)
        if empty.size:
            raise EmptyRow(int(empty[0]), f"row {empty[0]} has zero total mass")
        for row in np.flatnonzero(np.isinf(mass)):
            weights[row] /= weights[row].max()
            mass[row] = weights[row].sum()
    weights /= mass[:, None]
    return weights


def row_anchor(matrix: MaskedMatrix) -> ConditionalFamily:
    """Normalize each row of a kernel or a plan into a conditional
    distribution; a row with zero mass is fatal, with no fallback."""
    with np.errstate(over="ignore"):
        return ConditionalFamily(_normalize_rows(matrix.values.copy()), matrix.mask)


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


def _checked_masses(kernel, marginals: Marginals, tol: float, max_iter: int):
    """The target masses, once the budget and their lengths against the
    kernel check out (Marginals has checked the rest); a refusal is an
    InvalidBudget on its field."""
    if max_iter < 1:
        raise InvalidBudget("max_iter", f"must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise InvalidBudget("tol", f"must be nonnegative, got {tol!r}")
    for name, arr, n in zip(("mu_out", "mu_in"), (marginals.mu_out, marginals.mu_in), kernel.shape):
        if arr.size != n:
            raise InvalidBudget(name, f"must be a vector of length {n}")
    return marginals.mu_out, marginals.mu_in


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
    # Masses near the largest double can sum past it; the error is then
    # inf, which no tolerance passes and no report prints.
    with np.errstate(over="ignore"):
        return float(
            np.abs(plan.sum(axis=1) - mu_out).sum()
            + np.abs(plan.sum(axis=0) - mu_in).sum()
        )


def _scale(log_k, mu_out, mu_in, e_out, e_in, tol, max_iter, balanced):
    """The scaling loop of both anchors, on a kernel with no empty row
    or column: the plan, the iteration count and the last stop measure.

    Against K~ = exp(log K + F + G) the log-domain half-step
    e (log mu_out - LSE(log K + G)) reads
    a <- (mu_out / (K~ b)) ** e_out * exp((e_out - 1) F), and the gauge
    exp((e_out - 1) F) changes only at a fold; at e = 1 this is
    mu_out / (K~ b) bit for bit, and the loop computes just that
    quotient (numpy has no fast path for a power of 1.0). (Folded into
    the target as mu_out * exp((1 - 1/e) F), the gauge underflows on a
    lifted row or column at e = 1/2 or 1/3.) balanced picks the stop
    rule: the L1 marginal error with the stall diagnosis, or else the
    max-norm step of the total log scalings F + log a and G + log b.
    """
    # K~ starts as the first iteration's plan, so no row or column of
    # it underflows to zero, whatever the range of the kernel.
    f = e_out * (np.log(mu_out) - _log_sum_exp(log_k, axis=1))
    g = e_in * (np.log(mu_in) - _log_sum_exp(log_k + f[:, None], axis=0))
    k_tilde, big_f, big_g, a, b, flushed = _fold(log_k, f, g)
    gauge_f, gauge_g = np.exp((e_out - 1.0) * big_f), np.exp((e_in - 1.0) * big_g)
    k_b = k_tilde @ b
    if balanced:
        error = _marginal_error(k_tilde * np.outer(a, b), mu_out, mu_in)
    else:
        error = max(float(np.abs(f).max()), float(np.abs(g).max()))
    best_error, stalled, iterations = math.inf, 0, 1
    while error > tol:
        # Stall detection doubles as the infeasibility diagnosis: a mask
        # that admits no coupling leaves the marginal error bounded away
        # from zero while the scalings drift.
        if balanced and error <= 0.999 * best_error:
            best_error, stalled = error, 0
        elif balanced:
            stalled += 1
            if stalled >= 100:
                raise Infeasible(
                    f"marginal error stalled at {error:.3e} after {iterations} iterations"
                )
        if iterations == max_iter:
            break
        if _needs_fold(a, b, flushed):
            k_tilde, big_f, big_g, a, b, flushed = _fold(
                log_k, big_f + np.log(a), big_g + np.log(b)
            )
            gauge_f, gauge_g = np.exp((e_out - 1.0) * big_f), np.exp((e_in - 1.0) * big_g)
            k_b = k_tilde @ b
        iterations += 1
        a = mu_out / k_b if e_out == 1.0 else (mu_out / k_b) ** e_out * gauge_f
        kt_a = a @ k_tilde
        b = mu_in / kt_a if e_in == 1.0 else (mu_in / kt_a) ** e_in * gauge_g
        k_b = k_tilde @ b
        if balanced:
            error = float(np.abs(a * k_b - mu_out).sum() + np.abs(b * kt_a - mu_in).sum())
        else:
            f_new, g_new = big_f + np.log(a), big_g + np.log(b)
            error = max(float(np.abs(f_new - f).max()), float(np.abs(g_new - g).max()))
            f, g = f_new, g_new
    plan = k_tilde * np.outer(a, b)
    if not np.isfinite(plan).all():
        raise NoConvergence(f"scalings left the range of doubles by iteration {iterations}")
    return plan, iterations, error


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
    iterations. The returned marginal_error and converged flag come
    from the plan's own row and column sums.

    Raises InvalidBudget, a ValueError, for max_iter < 1, a negative or
    NaN tol or marginals of the wrong length, and NoConvergence if the
    scalings leave the range of doubles.
    """
    mu_out, mu_in = _checked_masses(kernel, marginals, tol, max_iter)
    if not marginals.matched():
        total_out, total_in, scale = marginals._totals()
        raise Infeasible(
            f"total masses differ: {total_out:.10g} vs {total_in:.10g} in units of {scale:.10g}"
        )
    empty_rows = np.flatnonzero(~kernel.mask.any(axis=1))
    if empty_rows.size:
        raise EmptyRow(int(empty_rows[0]), "masked-out row cannot carry positive marginal")
    empty_cols = np.flatnonzero(~kernel.mask.any(axis=0))
    if empty_cols.size:
        raise EmptyCol(int(empty_cols[0]), "masked-out column cannot carry positive marginal")
    log_k = _log_kernel(kernel)
    plan, iterations, _ = _scale(log_k, mu_out, mu_in, 1.0, 1.0, tol, max_iter, balanced=True)
    error = _marginal_error(plan, mu_out, mu_in)
    return TransportPlan(
        plan, kernel.mask, converged=error <= tol, iterations=iterations, marginal_error=error
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
    run on the live block of the kernel (its rows and columns with some
    mask entry; the others carry no mass) until the total log scalings
    move at most tol in the max norm. On iteration exhaustion the last
    iterate is returned with converged=False rather than raising.

    A row or column of the plan can fall far below the range of doubles
    here; K~ keeps it by a lift of up to e^220 (see _fold), and past
    that the scalings overflow and NoConvergence is raised. Raises
    InvalidBudget, a ValueError, for a penalty that is not > 0, max_iter
    < 1, a negative or NaN tol or marginals of the wrong length.
    """
    for name, lam in (("lam_out", lam_out), ("lam_in", lam_in)):
        if not lam > 0:
            raise InvalidBudget(name, f"must be strictly positive, got {lam!r}")
    mu_out, mu_in = _checked_masses(kernel, marginals, tol, max_iter)
    if not kernel.mask.any():
        raise EmptyRow(0, "kernel mask is empty; nothing to anchor")
    rows, cols = kernel.mask.any(axis=1), kernel.mask.any(axis=0)
    live = np.ix_(rows, cols)
    plan = np.zeros(kernel.shape)
    e_out, e_in = lam_out / (lam_out + 1.0), lam_in / (lam_in + 1.0)
    log_k = _log_kernel(kernel)[live]
    plan[live], iterations, step = _scale(
        log_k, mu_out[rows], mu_in[cols], e_out, e_in, tol, max_iter, balanced=False
    )
    error = _marginal_error(plan, mu_out, mu_in)
    return TransportPlan(
        plan, kernel.mask, converged=step <= tol, iterations=iterations, marginal_error=error
    )
