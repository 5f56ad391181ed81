"""Construction of per-layer similarity matrices.

Two input shapes are supported: feature tables (one observation vector per
entity) turned into similarities with an RBF kernel or a joint
presence-absence indicator, and bipartite incidence matrices projected onto
the shared node set and scored with the Jaccard or cosine coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGroup, DimensionError, InvalidInput, InvalidParameter
from .matcore import sq_distances, square_matrix, sym_matrix

__all__ = [
    "FeatureTable",
    "IncidenceMatrix",
    "SimilarityLayer",
    "Multiplex",
    "rbf_similarity",
    "auto_sigma",
    "presence_similarity",
    "one_mode_projection",
    "jaccard_from_projection",
    "cosine_from_projection",
]

LAYER_KINDS = ("rbf", "presence", "jaccard", "cosine", "external")


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class FeatureTable:
    """Per-entity observation vectors for one measurement layer.

    ``rows`` has shape (n, p): one length-p observation per labelled entity.
    Scalar observations may be passed as a 1-D array.
    """

    labels: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidInput(f"feature rows must be (n, p) with n,p >= 1, got {rows.shape}")
        if not np.isfinite(rows).all():
            raise InvalidInput("feature table contains non-finite values")
        self.labels = tuple(str(x) for x in self.labels)
        if len(self.labels) != rows.shape[0]:
            raise InvalidInput(
                f"{len(self.labels)} labels for {rows.shape[0]} rows"
            )
        self.rows = _lock(rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass
class IncidenceMatrix:
    """Binary membership of items (rows) in groups (columns)."""

    items: tuple[str, ...]
    groups: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 1:
            raise InvalidInput(f"incidence matrix must be 2-D and nonempty, got {e.shape}")
        if not np.isin(e, (0.0, 1.0)).all():
            raise InvalidInput("incidence entries must be 0 or 1")
        self.items = tuple(str(x) for x in self.items)
        self.groups = tuple(str(x) for x in self.groups)
        if len(self.items) != e.shape[0] or len(self.groups) != e.shape[1]:
            raise InvalidInput("label counts do not match incidence shape")
        self.entries = _lock(e)


@dataclass
class SimilarityLayer:
    """Symmetric similarity matrix with entries in [0, 1] over labelled nodes.

    ``kind`` records how the matrix was built; ``external`` marks matrices
    loaded from files or produced by fusion rather than by one of the four
    constructions here.  Constructed kinds carry a unit diagonal.
    """

    labels: tuple[str, ...]
    S: np.ndarray
    kind: str = "external"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise InvalidParameter(f"unknown layer kind {self.kind!r}")
        s = sym_matrix(self.S)
        self.labels = tuple(str(x) for x in self.labels)
        if len(self.labels) != s.shape[0]:
            raise InvalidInput(f"{len(self.labels)} labels for order {s.shape[0]}")
        if s.min() < 0.0 or s.max() > 1.0:
            raise InvalidInput(
                f"similarity entries must lie in [0, 1]; range "
                f"[{s.min():.3e}, {s.max():.3e}]"
            )
        if self.kind != "external" and not np.all(np.diag(s) == 1.0):
            raise InvalidInput(f"{self.kind} similarity must have unit diagonal")
        self.S = _lock(s)

    @property
    def n(self) -> int:
        return self.S.shape[0]


def default_labels(n: int) -> tuple[str, ...]:
    """The node labels of a bare n x n array: ``"0"`` to ``str(n - 1)``."""
    return tuple(str(i) for i in range(n))


def layer_matrix(S) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """Labels (``None`` for a bare array) and float matrix of a layer or array.

    The one reader of a "layer or array" argument.  A bare array is returned
    as given, not symmetrised; it must be square (else ``DimensionError``),
    nonempty and finite (else ``InvalidInput``).
    """
    if isinstance(S, SimilarityLayer):
        return S.labels, S.S
    return None, square_matrix(S)


@dataclass
class Multiplex:
    """Ordered stack of similarity layers over one shared node-label list."""

    layers: tuple[SimilarityLayer, ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.layers = tuple(self.layers)
        if len(self.layers) < 1:
            raise InvalidInput("a multiplex needs at least one layer")
        labels = self.layers[0].labels
        for lay in self.layers[1:]:
            if lay.labels != labels:
                raise DimensionError("all layers must share the same node labels")
        if not self.names:
            self.names = tuple(f"layer{l}" for l in range(len(self.layers)))
        else:
            self.names = tuple(str(x) for x in self.names)
        if len(self.names) != len(self.layers):
            raise InvalidInput("one name per layer required")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layers[0].labels

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def m(self) -> int:
        return len(self.layers)

    def matrices(self) -> list[np.ndarray]:
        return [lay.S for lay in self.layers]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i):
        return self.layers[i]


def auto_sigma(table: FeatureTable) -> float:
    """Scale-adaptive RBF bandwidth: mean squared pairwise distance.

    The mean excludes the diagonal.  Falls back to 1.0 when all rows
    coincide (every distance is zero, so the kernel value is 1 regardless).
    """
    d2 = sq_distances(table.rows)
    n = d2.shape[0]
    if n < 2:
        return 1.0
    off = d2[~np.eye(n, dtype=bool)]
    mean = float(off.mean())
    return mean if mean > 0.0 else 1.0


def rbf_similarity(table: FeatureTable, sigma: float | None = None) -> SimilarityLayer:
    """Gaussian kernel similarity ``exp(-d^2 / sigma)`` between feature rows.

    ``sigma=None`` selects the scale-adaptive default from ``auto_sigma``.
    """
    if sigma is not None and not sigma > 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    if sigma is None:
        sigma = auto_sigma(table)
    d2 = sq_distances(table.rows)
    s = np.exp(-d2 / sigma)
    np.fill_diagonal(s, 1.0)
    return SimilarityLayer(table.labels, s, "rbf")


def presence_similarity(table: FeatureTable) -> SimilarityLayer:
    """Joint presence-absence similarity: 1 where observations coincide.

    Every observation must be 0 or 1.
    """
    rows = table.rows
    if not np.isin(rows, (0.0, 1.0)).all():
        raise InvalidInput("presence similarity needs binary observations")
    s = np.all(rows[:, None, :] == rows[None, :, :], axis=-1).astype(float)
    return SimilarityLayer(table.labels, s, "presence")


def one_mode_projection(B: IncidenceMatrix) -> np.ndarray:
    """Co-membership counts ``B.T @ B`` over the group set.

    Entry (i, j) counts the items belonging to both group i and group j;
    the diagonal holds group sizes.
    """
    return B.entries.T @ B.entries


def _projection_diagonal(g: np.ndarray) -> np.ndarray:
    d = np.diag(g)
    empty = np.flatnonzero(d <= 0)
    if empty.size:
        raise DegenerateGroup(
            f"groups with no items cannot be similarity-scored: indices {empty.tolist()}"
        )
    return d


def jaccard_from_projection(G, labels=None) -> SimilarityLayer:
    """Jaccard similarity ``g_ij / (g_ii + g_jj - g_ij)`` of a projection."""
    g = sym_matrix(G)
    d = _projection_diagonal(g)
    denom = d[:, None] + d[None, :] - g
    if denom.min() <= 0:
        raise InvalidInput("jaccard denominator must be positive for every pair")
    s = g / denom
    np.fill_diagonal(s, 1.0)
    return SimilarityLayer(labels or default_labels(g.shape[0]), s, "jaccard")


def cosine_from_projection(G, labels=None) -> SimilarityLayer:
    """Cosine similarity ``g_ij / sqrt(g_ii * g_jj)`` of a projection."""
    g = sym_matrix(G)
    d = _projection_diagonal(g)
    s = g / np.sqrt(np.outer(d, d))
    np.fill_diagonal(s, 1.0)
    return SimilarityLayer(labels or default_labels(g.shape[0]), s, "cosine")
