"""Similarity Network Fusion through the cross diffusion process.

Each layer is normalized twice: globally (entries divided by the total entry
sum, giving the initial status matrix P) and locally (rows restricted to the
k nearest neighbours and rescaled to sum to one, giving the fixed kernel Q).
The status matrices then diffuse through the other layers' kernels,

    P_l  <-  Q_l @ mean(P_h, h != l) @ Q_l.T

until the largest per-layer change is at most a tolerance.  The fused
matrix is the average of the final status matrices, re-weighted back onto
the [0, 1] similarity scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidParameter, check_field_types
from .matcore import fro_norm
from .parallel import map_ordered
from .simbuild import Multiplex, SimilarityLayer, layer_matrix

__all__ = [
    "SnfConfig",
    "FusionResult",
    "iterate",
    "default_k",
    "global_normalize",
    "local_normalize",
    "cdp_step",
    "snf_fuse",
]


#: Roundoff excursion outside [0, 1] that ``FusionResult.as_layer`` clips.
CLIP_TOL = 1e-8


def default_k(n: int) -> int:
    """Neighbourhood size used when none is configured: max(1, round(n/3))."""
    return max(1, round(n / 3))


@dataclass
class SnfConfig:
    """Tuning knobs for one fusion run.

    ``k=None`` resolves to ``default_k(n)`` at fusion time.  Initial status
    matrices always use the total-sum normalization (``global_normalize``),
    not the row normalization of Wang et al.'s eq. 1.
    """

    k: int | None = None
    epsilon: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        check_field_types(self)
        if self.k is not None and self.k < 1:
            raise InvalidParameter(f"k must be >= 1, got {self.k}")
        if not self.epsilon > 0:
            raise InvalidParameter("epsilon must be positive")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be >= 1")


@dataclass
class FusionResult:
    """A fused monoplex plus solver diagnostics."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    method: str
    converged: bool
    iterations: int
    residual_history: tuple[float, ...] = ()
    weights: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        """The last entry of ``residual_history``; 0.0 when it is empty (the Frobenius mean)."""
        return self.residual_history[-1] if self.residual_history else 0.0

    def outcome(self) -> dict:
        """``converged``, ``iterations``, ``residual`` and ``weights``, as every report writes them."""
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "weights": None if self.weights is None else list(self.weights),
        }

    def as_layer(self) -> SimilarityLayer:
        """View the monoplex as a similarity layer.

        Entries may stray outside [0, 1] by roundoff amounts when the solver
        ran on general SPD inputs; excursions up to ``CLIP_TOL`` are clipped,
        larger ones raise ``InvalidInput``.
        """
        m = self.matrix
        if m.min() < -CLIP_TOL or m.max() > 1.0 + CLIP_TOL:
            raise InvalidInput(
                f"monoplex entries outside [0, 1] by more than {CLIP_TOL:g}: "
                f"range [{m.min():.6g}, {m.max():.6g}]"
            )
        return SimilarityLayer(self.labels, np.clip(m, 0.0, 1.0))


def iterate(steps, tol: float, limit: int):
    """Run a fixed-point iteration under the one stopping rule of every solver.

    ``steps`` yields ``(residual, state)`` pairs.  Stops at the first
    residual ``<= tol`` or after ``limit`` residuals; returns the last state,
    every residual in order, and whether the tolerance was met.
    """
    history, converged = [], False
    for residual, state in steps:
        history.append(residual)
        converged = residual <= tol
        if converged or len(history) >= limit:
            break
    return state, history, converged


def global_normalize(S) -> np.ndarray:
    """Divide every entry by the sum over all entries (total sum = 1)."""
    _, m = layer_matrix(S)
    total = float(m.sum())
    if not total > 0:
        raise InvalidInput("cannot normalize a layer whose entries sum to zero")
    return m / total


def local_normalize(S, k: int) -> np.ndarray:
    """Restrict each row to its k most similar other nodes and rescale.

    Neighbour ties are broken towards the smaller node index.  Rows whose
    selected neighbours all have zero similarity are left all-zero (callers
    flag them in diagnostics).
    """
    _, m = layer_matrix(S)
    n = m.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidParameter(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    # Negated, so that the k most similar come first; +inf keeps a node out
    # of its own neighbourhood.
    d = -m
    np.fill_diagonal(d, np.inf)
    part = np.partition(d, k - 1, axis=1)
    # A row's sum runs over its k values in descending order of similarity,
    # as a stable sort would list them; negation commutes with rounding.
    total = -np.sort(part[:, :k], axis=1).sum(axis=1, keepdims=True)
    # The k-th value's ties fill the places left, smallest indices first.
    kth = part[:, k - 1, None]
    nbrs = d < kth
    ties = d == kth
    left = k - np.count_nonzero(nbrs, axis=1, keepdims=True)
    nbrs |= ties & (np.cumsum(ties, axis=1) <= left)
    return np.divide(m, total, out=np.zeros_like(m), where=nbrs & (total > 0))


def _owner(a: np.ndarray):
    """The object that holds the memory of ``a``: ``a`` itself, or the root of its views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a if a.base is None else a.base


def cdp_step(P: list[np.ndarray], Q: list[np.ndarray], out: list[np.ndarray]) -> float:
    """One simultaneous cross-diffusion update of all layers; returns how far they moved.

    ``P`` holds the status matrices and ``Q`` the fixed kernels, one per
    layer, all of one shape.  Every layer's new status is computed from the
    old ``P``, symmetrized (the update rule is not exactly symmetry-preserving
    in floating point) and written into ``out``, one array per layer; no
    array of ``out`` may share memory with an array of ``P`` or ``Q``.
    Returns the largest Frobenius norm of ``out[l] - P[l]``.  Each layer is
    one item of a single ``map_ordered`` call and allocates only its running
    sum, which then holds its change.
    """
    m = len(P)
    if m < 2:
        raise InvalidInput("cross diffusion needs at least two layers")
    if len(Q) != m:
        raise DimensionError(f"expected {m} kernels, got {len(Q)}")
    if len(out) != m:
        raise DimensionError(f"expected {m} output arrays, got {len(out)}")
    shape = P[0].shape
    if any(x.shape != shape for x in (*P, *Q, *out)):
        raise DimensionError(f"every status matrix, kernel and output must have shape {shape}")
    if {id(_owner(o)) for o in out} & {id(_owner(x)) for x in (*P, *Q)}:
        raise DimensionError("an output array is, or views, a status matrix or kernel")

    def update(l):
        # Sum the other layers in index order and in place: total - own
        # breaks exact ties between identical layers by roundoff.
        others = np.zeros_like(P[l])
        for h in range(m):
            if h != l:
                others += P[h]
        others /= m - 1
        np.matmul(Q[l], others, out=out[l])
        np.matmul(out[l], Q[l].T, out=others)
        np.add(others, others.T, out=out[l])
        out[l] /= 2.0
        return fro_norm(np.subtract(out[l], P[l], out=others))

    return max(map_ordered(update, range(m), shape[0]))


def _reweight(fused: np.ndarray) -> np.ndarray:
    """Rescale an averaged status matrix back onto the similarity scale.

    Entries are divided by the largest off-diagonal value, clipped to
    [0, 1], and the diagonal is set to one.
    """
    top = float(fused[~np.eye(fused.shape[0], dtype=bool)].max())
    s = np.clip(fused / top if top > 0 else fused, 0.0, 1.0)
    np.fill_diagonal(s, 1.0)
    return s


def snf_fuse(layers: Multiplex, cfg: SnfConfig | None = None) -> FusionResult:
    """Fuse a multiplex into one similarity matrix by cross diffusion.

    Iterates ``cdp_step`` until the largest per-layer Frobenius change is at
    most ``cfg.epsilon`` or ``cfg.max_iter`` steps have run.  Hitting the
    iteration cap is reported through ``converged=False``, not an exception.
    The kernels are one ``map_ordered`` call, each step is one more (inside
    ``cdp_step``), and the steps write into two lists of status matrices in
    turn.
    """
    cfg = cfg or SnfConfig()
    if layers.m < 2:
        raise InvalidInput("fusion needs at least two layers")
    if layers.n < 2:
        raise InvalidInput(f"fusion needs at least two nodes, got {layers.n}")
    k = cfg.k if cfg.k is not None else default_k(layers.n)

    Q = map_ordered(lambda lay: local_normalize(lay, k), layers, layers.n)

    # Rows whose k nearest neighbours all have zero similarity.
    dead = {name: np.flatnonzero(q.sum(axis=1) == 0).tolist() for name, q in zip(layers.names, Q)}
    dead = {name: rows for name, rows in dead.items() if rows}

    def diffuse(P):
        spare = [np.empty_like(p) for p in P]
        while True:
            yield cdp_step(P, Q, spare), spare
            P, spare = spare, P

    # The residual follows each step, so max_iter residuals mean max_iter steps.
    # The state of the last step taken is not written again, as no step follows it.
    P, history, converged = iterate(
        diffuse([global_normalize(lay) for lay in layers]), cfg.epsilon, cfg.max_iter
    )
    return FusionResult(
        layers.labels, _reweight(sum(P) / len(P)), "snf", converged, len(history), tuple(history),
        diagnostics={"zero_neighbour_rows": dead} if dead else {},
    )
