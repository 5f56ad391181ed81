"""Barycenter-based averaging of similarity matrices.

Layers are combined into a single matrix by minimizing the weighted sum of
squared distances under one of three metrics:

* Frobenius: the weighted arithmetic mean (closed form).
* Riemannian (affine-invariant): the unique solution of
  ``sum_l w_l log(X^{1/2} S_l^{-1} X^{1/2}) = 0``, found by the gradient
  iteration ``X <- X^{1/2} exp(theta T) X^{1/2}`` on the tangent
  ``T = sum_l w_l log(X^{-1/2} S_l X^{-1/2})``.
* Wasserstein (Bures): the unique solution of
  ``X = sum_l w_l (X^{1/2} S_l X^{1/2})^{1/2}``, found by the gradient
  iteration ``X <- M X M`` with ``M = I + eta (T - I)``, where ``T = X^{-1/2}
  (sum_l w_l (X^{1/2} S_l X^{1/2})^{1/2}) X^{-1/2}`` averages the optimal
  maps from ``X`` to the layers; ``eta = 1`` is the classical fixed-point map.

Both metric means take their steps from one Barzilai-Borwein rule,
``_bb_step``, clipped to an interval whose lower end has a convergence
proof.

Layer weights come from the matrix of RV coefficients: either its leading
eigenvector (the natural companion of the arithmetic mean) or its normalized
off-diagonal row sums (the companion of the two metric means).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionError,
    InvalidInput,
    InvalidParameter,
    SingularMatrix,
    check_field_types,
)
from .matcore import eig_floor, fro_norm, spectral_fns, sym_eigen, sym_matrix
from .parallel import map_ordered
from .simbuild import layer_matrix
from .snf import FusionResult, iterate

__all__ = [
    "BarycenterConfig",
    "rv_matrix",
    "weights_frobenius",
    "weights_rowsum",
    "uniform_weights",
    "check_weights",
    "barycenter_frobenius",
    "barycenter_riemannian",
    "barycenter_wasserstein",
    "solve_barycenter",
]

#: Gap under which the two largest RV eigenvalues count as coincident.
SPECTRAL_GAP_TOL = 1e-10

WEIGHT_SUM_TOL = 1e-12

#: How negative a layer's smallest eigenvalue may be, relative to max(1, trace/n),
#: before a metric mean rejects it; covers roundoff on layers PSD by construction.
PSD_TOL_REL = 1e-8

#: Largest Barzilai-Borwein step of the Wasserstein update.
WASSERSTEIN_STEP_MAX = 3.0

#: Smallest eigenvalue that a Wasserstein step above 1 leaves in ``I + eta (T - I)``.
PD_MARGIN = 0.5


@dataclass
class BarycenterConfig:
    """Settings of the iterative barycenter solvers.

    Both metric means need positive semidefinite layers: a layer whose
    smallest eigenvalue lies below ``-PSD_TOL_REL * max(1, trace/n)`` raises
    ``InvalidInput``, whatever the jitter.  ``jitter=None`` resolves to the
    solver's default: 1e-8 for the Riemannian metric (whose machinery needs
    strictly positive definite layers) and 0 for the Wasserstein metric.  A
    positive jitter adds ``jitter * (trace/n) * I`` to any PSD layer whose
    smallest eigenvalue sits below the positivity floor ``eig_floor``.
    """

    tol: float = 1e-10
    max_iter: int = 1000
    jitter: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if not self.tol > 0:
            raise InvalidParameter("tol must be positive")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be >= 1")
        if self.jitter is not None and self.jitter < 0:
            raise InvalidParameter("jitter must be nonnegative")


def _coerce_layers(layers) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Labels and matrices of a Multiplex, or of a sequence of layers or arrays.

    Each item is read by ``layer_matrix``; every item must share the first
    one's labels.
    """
    labels, mats = None, []
    for item in layers:
        item_labels, m = layer_matrix(item)
        if labels is None:
            labels = item_labels
        elif item_labels != labels:
            raise DimensionError("layers must share one node-label list and dimension")
        mats.append(m)
    if not mats:
        raise InvalidInput("need at least one layer")
    return labels, mats


def check_weights(w, m: int) -> np.ndarray:
    """Validate a weight vector: length m, nonnegative, summing to one."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != m:
        raise DimensionError(f"expected {m} weights, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise InvalidInput("weights contain non-finite values")
    if w.min() < -WEIGHT_SUM_TOL:
        raise InvalidInput(f"weights must be nonnegative; min {w.min():.3e}")
    if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInput(f"weights must sum to 1; got {w.sum()!r}")
    return np.clip(w, 0.0, None)


def uniform_weights(m: int) -> np.ndarray:
    """The vector (1/m, ..., 1/m)."""
    if m < 1:
        raise InvalidParameter("need at least one layer")
    return np.full(m, 1.0 / m)


def rv_matrix(layers) -> np.ndarray:
    """Matrix of RV coefficients between all layer pairs.

    ``r_ij = <S_i, S_j>_F / (||S_i||_F ||S_j||_F)``; by Cauchy-Schwarz this
    never exceeds one, so roundoff above 1 is clipped.  The diagonal is set
    to exactly one.  The products of each layer with the later ones are one
    item of ``map_ordered``.
    """
    _, mats = _coerce_layers(layers)
    m = len(mats)
    if m < 2:
        raise InvalidInput("RV matrix needs at least two layers")
    norms = np.array([fro_norm(s) for s in mats])
    if norms.min() == 0.0:
        raise InvalidInput("RV coefficient is undefined for an all-zero layer")
    rows = map_ordered(
        lambda i: [float(np.sum(mats[i] * mats[j])) for j in range(i + 1, m)], range(m), mats[0].shape[0]
    )
    r = np.ones((m, m))
    for i, row in enumerate(rows):
        for j, dot in enumerate(row, start=i + 1):
            r[i, j] = r[j, i] = min(dot / (norms[i] * norms[j]), 1.0)
    return r


def _check_rv(R) -> np.ndarray:
    r = sym_matrix(R)
    if r.shape[0] < 2:
        raise InvalidInput("need at least two layers")
    return r


def weights_frobenius(R) -> np.ndarray:
    """Leading-eigenvector weights for the arithmetic (Frobenius) mean.

    The first eigenvector of the RV matrix is divided by its component sum,
    which rescales it to sum to one whatever its sign.

    Raises
    ------
    DegenerateSpectrum
        When the leading eigenvalue is not simple, so no canonical leading
        eigenvector exists.
    """
    r = _check_rv(R)
    values, vectors = sym_eigen(r)
    if values[0] - values[1] < SPECTRAL_GAP_TOL:
        raise DegenerateSpectrum(
            f"leading RV eigenvalue is not simple (gap {values[0] - values[1]:.3e})"
        )
    q1 = vectors[:, 0]
    total = float(q1.sum())
    if total == 0.0:
        raise InvalidInput("leading eigenvector has zero component sum")
    w = q1 / total
    if w.min() < -SPECTRAL_GAP_TOL:
        raise InvalidInput(
            f"leading eigenvector yields negative weights (min {w.min():.3e})"
        )
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def weights_rowsum(R) -> np.ndarray:
    """Off-diagonal row-sum weights, the companion of the metric means.

    ``w = (R - I) 1 / (1' (R - I) 1)``: a layer highly correlated with the
    others is the most representative and receives the largest weight.
    """
    r = _check_rv(R)
    rowsums = r.sum(axis=1) - np.diag(r)
    total = float(rowsums.sum())
    if not total > 0:
        raise InvalidInput("all off-diagonal RV coefficients are zero")
    if rowsums.min() < 0:
        raise InvalidInput("off-diagonal RV coefficients must be nonnegative")
    return rowsums / total


def _prepare_pd(mats: list[np.ndarray], jitter: float, require_pd: bool) -> list[np.ndarray]:
    """The layers, jittered where needed: each must be PSD up to ``PSD_TOL_REL``
    before any jitter and, with ``require_pd``, at or above the floor after it."""
    out = []
    for idx, m in enumerate(mats):
        n = m.shape[0]
        scale = float(np.trace(m)) / n
        lam_min = float(np.linalg.eigvalsh(m).min())
        if lam_min < -PSD_TOL_REL * max(1.0, scale):
            raise InvalidInput(f"layer {idx} is not positive semidefinite")
        floor = eig_floor(m)
        if lam_min < floor and jitter > 0:
            # adding c*I shifts every eigenvalue by exactly c
            m = m + jitter * scale * np.eye(n)
            lam_min += jitter * scale
        if require_pd and lam_min < floor:
            raise SingularMatrix(
                f"layer {idx} is singular (min eigenvalue {lam_min:.3e}); "
                "pass a positive jitter to regularize"
            )
        out.append(m)
    return out


def _weighted_sum(mats: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    acc = w[0] * mats[0]
    for wl, m in zip(w[1:], mats[1:]):
        acc += wl * m
    return acc


def barycenter_frobenius(layers, w) -> FusionResult:
    """Weighted arithmetic mean of the layers (exact, no iteration)."""
    labels, mats = _coerce_layers(layers)
    w = check_weights(w, len(mats))
    return FusionResult(labels, _weighted_sum(mats, w), "sma-frobenius", True, 0, weights=w)


def _bini_iannazzo_step(conds, w) -> float:
    """Step length with a convergence proof (Bini and Iannazzo, LAA 438, 2013).

    ``2 / sum_l w_l ((c_l + 1) / (c_l - 1)) log c_l``, where ``c_l`` is the
    condition number of the whitened layer ``X^{-1/2} S_l X^{-1/2}``.  Each
    term tends to 2 as ``c_l -> 1``; near 1 it is the series
    ``2 + (c_l - 1)^2 / 6``, so near-identical layers give no 0/0.
    """
    total = 0.0
    for wl, c in zip(w, conds):
        d = c - 1.0
        total += wl * (2.0 + d * d / 6.0 if d < 1e-4 else (c + 1.0) / d * np.log(c))
    return 2.0 / total


def _bb_step(step: float, lo: float, hi: float, prev_sq: float, prev_dot: float,
             fall_back: bool) -> float:
    """Step length of a metric-mean update after the first.

    The Barzilai-Borwein step ``step <G', G'> / <G', G' - G>`` on the
    previous and current gradients ``G'`` and ``G``, given as ``prev_sq =
    <G', G'>`` and ``prev_dot = <G', G>``, clipped to ``[lo, hi]``.  ``lo``
    itself when that denominator is not positive, or when ``fall_back`` is
    set: the residual has just risen, so this one update takes the safe step
    and the next resumes the quotient.
    """
    denom = prev_sq - prev_dot
    if fall_back or not denom > 0:
        return lo
    return min(hi, max(lo, step * prev_sq / denom))


def barycenter_riemannian(layers, w, cfg: BarycenterConfig | None = None) -> FusionResult:
    """Affine-invariant (Karcher) mean of positive definite layers.

    Starts from the arithmetic mean and iterates the exponential-map update
    ``X <- X^{1/2} exp(theta T) X^{1/2}`` on the tangent ``T = sum_l w_l
    log(X^{-1/2} S_l X^{-1/2})`` until ``||T||_F`` is at most ``tol * m``.
    Hitting ``max_iter`` returns a result flagged ``converged=False``.

    The first step is ``theta = 1``, which solves two layers at once: from
    the arithmetic mean their whitened forms sum to I, so they commute.
    Later steps are the Barzilai-Borwein step of ``_bb_step``, clipped to
    ``[theta_k, 1]`` with ``theta_k`` the step of Bini and Iannazzo
    (``_bini_iannazzo_step``), which comes with a convergence proof.  The
    update right after a rise of the residual takes ``theta_k``; the next
    one resumes the quotient.  The m ``log`` calls of an update go through
    ``map_ordered``, and ``_weighted_sum`` adds them in layer order.
    """
    cfg = cfg or BarycenterConfig()
    labels, mats = _coerce_layers(layers)
    w = check_weights(w, len(mats))
    mats = _prepare_pd(mats, 1e-8 if cfg.jitter is None else cfg.jitter, require_pd=True)
    n = mats[0].shape[0]

    def karcher(x):
        theta, prev = 1.0, None
        while True:
            xs, xis = spectral_fns(x, "sqrt", "invsqrt")
            logs = map_ordered(lambda s: spectral_fns(xis @ s @ xis, "log", extremes=True), mats, n)
            tangent = _weighted_sum([log_s for log_s, _ in logs], w)
            conds = [hi / lo for _, (lo, hi) in logs]
            residual = fro_norm(tangent)
            yield residual, x
            if prev is not None:
                prev_tangent, prev_residual = prev
                theta = _bb_step(
                    theta, _bini_iannazzo_step(conds, w), 1.0, prev_residual**2,
                    float(np.vdot(prev_tangent, tangent)), residual > prev_residual,
                )
            prev = tangent, residual
            x = xs @ spectral_fns(theta * tangent, "exp")[0] @ xs
            x = (x + x.T) / 2.0

    # The first residual precedes any update, so max_iter updates give max_iter + 1.
    x, history, converged = iterate(
        karcher(_weighted_sum(mats, w)), cfg.tol * len(mats), cfg.max_iter + 1
    )
    return FusionResult(labels, x, "sma-riemannian", converged, len(history) - 1, tuple(history), w)


def _pd_step_cap(t: np.ndarray) -> float:
    """Largest Wasserstein step that keeps ``M = I + eta (T - I)`` definite.

    ``M``'s smallest eigenvalue is ``1 - eta (1 - lambda_min(T))``, which
    stays at or above ``PD_MARGIN`` for every ``eta`` up to ``(1 - PD_MARGIN)
    / (1 - lambda_min(T))``.  The cap is never below 1, the step at which
    ``M = T``, and there is none when ``lambda_min(T) >= 1``.
    """
    gap = 1.0 - float(np.linalg.eigvalsh(t)[0])
    return max(1.0, (1.0 - PD_MARGIN) / gap) if gap > 0 else np.inf


def barycenter_wasserstein(layers, w, cfg: BarycenterConfig | None = None) -> FusionResult:
    """Bures-Wasserstein mean of positive semidefinite layers.

    Starts from the arithmetic mean and takes gradient steps in the Bures
    geometry until ``||X - sum_l w_l (X^{1/2} S_l X^{1/2})^{1/2}||_F <= tol``.
    With ``T = X^{-1/2} (sum_l w_l (X^{1/2} S_l X^{1/2})^{1/2}) X^{-1/2}``,
    the weighted mean of the optimal maps from ``X`` to the layers, the
    update is ``X <- M X M`` with ``M = I + eta (T - I)``.  The step ``eta =
    1`` is the fixed-point map of Alvarez-Esteban et al., which is proven to
    converge, and the first update takes it.  Later steps are the
    Barzilai-Borwein step of ``_bb_step`` on the gradients ``G = T - I``,
    clipped to ``[1, WASSERSTEIN_STEP_MAX]``; the update right after a rise
    of the residual takes ``eta = 1``.

    ``M X M`` is a congruence, formed as the Gram product ``(M X^{1/2})
    (M X^{1/2})'``, so ``X`` stays symmetric positive semidefinite, and
    definite while ``M`` is.  A step above 1 is capped by ``_pd_step_cap``,
    at the cost of one ``eigvalsh`` of ``T``, so that ``M``'s smallest
    eigenvalue stays at or above ``PD_MARGIN = 1/2``; at ``eta = 1``, ``M =
    T``.  Layers may be semidefinite as long as the iterate stays positive
    definite.  The m square roots of an update go through ``map_ordered``,
    and ``_weighted_sum`` adds them in layer order.
    """
    cfg = cfg or BarycenterConfig()
    labels, mats = _coerce_layers(layers)
    w = check_weights(w, len(mats))
    mats = _prepare_pd(mats, cfg.jitter or 0.0, require_pd=False)
    n = mats[0].shape[0]
    eye = np.eye(n)

    def bures_descent(x):
        eta, prev = 1.0, None
        while True:
            xs, xis = spectral_fns(x, "sqrt", "invsqrt")
            mean_root = _weighted_sum(
                map_ordered(lambda s: spectral_fns(xs @ s @ xs, "sqrt")[0], mats, n), w
            )
            residual = fro_norm(x - mean_root)
            yield residual, x
            t = xis @ mean_root @ xis
            grad = t - eye
            if prev is not None:
                prev_grad, prev_residual = prev
                eta = _bb_step(
                    eta, 1.0, WASSERSTEIN_STEP_MAX, float(np.vdot(prev_grad, prev_grad)),
                    float(np.vdot(prev_grad, grad)), residual > prev_residual,
                )
                if eta > 1.0:
                    eta = min(eta, _pd_step_cap(t))
            prev = grad, residual
            b = (eye + eta * grad) @ xs
            x = b @ b.T

    x, history, converged = iterate(bures_descent(_weighted_sum(mats, w)), cfg.tol, cfg.max_iter + 1)
    return FusionResult(labels, x, "sma-wasserstein", converged, len(history) - 1, tuple(history), w)


def solve_barycenter(layers, w, metric: str, cfg: BarycenterConfig | None = None) -> FusionResult:
    """Barycenter of ``layers`` under ``metric``: frobenius, riemannian or wasserstein.

    ``cfg`` holds the iterative solvers' settings; the Frobenius mean is
    closed-form and ignores it.
    """
    if metric == "frobenius":
        return barycenter_frobenius(layers, w)
    if metric == "riemannian":
        return barycenter_riemannian(layers, w, cfg)
    if metric == "wasserstein":
        return barycenter_wasserstein(layers, w, cfg)
    raise InvalidParameter(f"unknown metric {metric!r}")
