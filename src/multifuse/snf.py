"""Similarity Network Fusion through the cross diffusion process.

Each layer is normalized twice: globally (entries divided by the total entry
sum, giving the initial status matrix P) and locally (rows restricted to the
k nearest neighbours and rescaled to sum to one, giving the fixed kernel Q).
The status matrices then diffuse through the other layers' kernels,

    P_l  <-  Q_l @ mean(P_h, h != l) @ Q_l.T

until the largest per-layer change drops below a tolerance.  The fused
matrix is the average of the final status matrices, re-weighted back onto
the [0, 1] similarity scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvalidParameter
from .matcore import fro_norm
from .simbuild import Multiplex, SimilarityLayer

__all__ = [
    "SnfConfig",
    "StatusMatrices",
    "FusionResult",
    "default_k",
    "global_normalize",
    "local_normalize",
    "cdp_step",
    "snf_fuse",
]


def default_k(n: int) -> int:
    """Neighbourhood size used when none is configured: max(1, round(n/3))."""
    return max(1, round(n / 3))


@dataclass
class SnfConfig:
    """Tuning knobs for one fusion run.

    ``k=None`` resolves to ``default_k(n)`` at fusion time.  Initial status
    matrices always use the published total-sum normalization
    (``global_normalize``).
    """

    k: int | None = None
    epsilon: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise InvalidParameter(f"k must be >= 1, got {self.k}")
        if not self.epsilon > 0:
            raise InvalidParameter("epsilon must be positive")
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be >= 1")


@dataclass
class StatusMatrices:
    """Diffusion state: current status matrices, fixed kernels, history."""

    P: list[np.ndarray]
    Q: list[np.ndarray]
    t: int = 0
    residuals: list[list[float]] = field(default_factory=list)


@dataclass
class FusionResult:
    """A fused monoplex plus solver diagnostics."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    method: str
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = ()
    weights: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def as_layer(self, clip_tol: float = 1e-8) -> SimilarityLayer:
        """View the monoplex as a similarity layer.

        Entries may stray outside [0, 1] by roundoff amounts when the solver
        ran on general SPD inputs; excursions up to ``clip_tol`` are clipped,
        larger ones raise ``InvalidInput``.
        """
        m = self.matrix
        if m.min() < -clip_tol or m.max() > 1.0 + clip_tol:
            raise InvalidInput(
                f"monoplex entries outside [0, 1] by more than {clip_tol:g}: "
                f"range [{m.min():.6g}, {m.max():.6g}]"
            )
        return SimilarityLayer(self.labels, np.clip(m, 0.0, 1.0), "external")


def _matrix_of(S) -> np.ndarray:
    if isinstance(S, SimilarityLayer):
        return S.S
    return np.asarray(S, dtype=float)


def global_normalize(S) -> np.ndarray:
    """Divide every entry by the sum over all entries (total sum = 1)."""
    m = _matrix_of(S)
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
    m = _matrix_of(S)
    n = m.shape[0]
    if not 1 <= k <= n - 1:
        raise InvalidParameter(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    q = np.zeros_like(m)
    for i in range(n):
        others = np.concatenate((np.arange(i), np.arange(i + 1, n)))
        # Stable sort on the negated similarities: ties keep index order.
        order = np.argsort(-m[i, others], kind="stable")
        nbrs = others[order[:k]]
        total = float(m[i, nbrs].sum())
        if total > 0:
            q[i, nbrs] = m[i, nbrs] / total
    return q


def zero_neighbour_rows(Q: np.ndarray) -> list[int]:
    """Indices of rows that could not be locally normalized."""
    return np.flatnonzero(Q.sum(axis=1) == 0).tolist()


def cdp_step(state: StatusMatrices) -> StatusMatrices:
    """One simultaneous cross-diffusion update of all layers.

    Every layer's new status is computed from the time-t snapshot, then
    symmetrized (the update rule is not exactly symmetry-preserving in
    floating point).
    """
    m = len(state.P)
    if m < 2:
        raise InvalidInput("cross diffusion needs at least two layers")
    new_p = []
    step_res = []
    for l in range(m):
        acc = np.zeros_like(state.P[l])
        for h in range(m):
            if h != l:
                acc += state.P[h]
        mixed = state.Q[l] @ (acc / (m - 1)) @ state.Q[l].T
        mixed = (mixed + mixed.T) / 2.0
        new_p.append(mixed)
        step_res.append(fro_norm(mixed - state.P[l]))
    return StatusMatrices(new_p, state.Q, state.t + 1, state.residuals + [step_res])


def _reweight(fused: np.ndarray) -> np.ndarray:
    """Rescale an averaged status matrix back onto the similarity scale.

    Entries are divided by the largest off-diagonal value, clipped to
    [0, 1], and the diagonal is set to one.
    """
    s = fused.copy()
    n = s.shape[0]
    if n > 1:
        off = s[~np.eye(n, dtype=bool)]
        top = float(off.max())
        if top > 0:
            s = s / top
    s = np.clip(s, 0.0, 1.0)
    np.fill_diagonal(s, 1.0)
    return s


def snf_fuse(layers: Multiplex, cfg: SnfConfig | None = None) -> FusionResult:
    """Fuse a multiplex into one similarity matrix by cross diffusion.

    Iterates ``cdp_step`` until the largest per-layer Frobenius change falls
    below ``cfg.epsilon`` or ``cfg.max_iter`` steps have run.  Hitting the
    iteration cap is reported through ``converged=False``, not an exception.
    """
    cfg = cfg or SnfConfig()
    if layers.m < 2:
        raise InvalidInput("fusion needs at least two layers")
    n = layers.n
    k = cfg.k if cfg.k is not None else default_k(n)

    mats = layers.matrices()
    p0 = [global_normalize(s) for s in mats]
    q = [local_normalize(s, k) for s in mats]

    diagnostics = {}
    dead = {name: zero_neighbour_rows(qm) for name, qm in zip(layers.names, q)}
    dead = {name: rows for name, rows in dead.items() if rows}
    if dead:
        diagnostics["zero_neighbour_rows"] = dead

    state = StatusMatrices(p0, q)
    converged = False
    for _ in range(cfg.max_iter):
        state = cdp_step(state)
        if max(state.residuals[-1]) < cfg.epsilon:
            converged = True
            break

    fused = state.P[0].copy()
    for mat in state.P[1:]:
        fused += mat
    fused /= len(state.P)
    fused = (fused + fused.T) / 2.0

    history = tuple(max(r) for r in state.residuals)
    return FusionResult(
        labels=layers.labels,
        matrix=_reweight(fused),
        method="snf",
        converged=converged,
        iterations=state.t,
        residual=history[-1],
        residual_history=history,
        weights=None,
        diagnostics=diagnostics,
    )
