"""Construction of per-layer similarity matrices.

A feature table (one observation vector per entity) becomes a similarity
layer through a Gaussian (RBF) kernel on the squared distances between its
rows.  Layers over one shared node set stack into a multiplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidParameter
from .matcore import sq_distances, square_matrix, sym_matrix

__all__ = [
    "FeatureTable",
    "SimilarityLayer",
    "Multiplex",
    "rbf_similarity",
    "auto_sigma",
]


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_unique(names: tuple[str, ...], what: str):
    """Raise ``InvalidInput`` naming the first of ``names`` that repeats."""
    seen = set()
    for x in names:
        if x in seen:
            raise InvalidInput(f"duplicate {what} {x!r}")
        seen.add(x)


@dataclass
class FeatureTable:
    """Per-entity observation vectors for one measurement layer.

    ``rows`` has shape (n, p): one length-p observation per labelled entity.
    Scalar observations may be passed as a 1-D array.  ``name`` names the
    layer; the pipeline uses the stem of the CSV file the table was read from.
    """

    labels: tuple[str, ...]
    rows: np.ndarray
    name: str = ""

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
class SimilarityLayer:
    """Symmetric similarity matrix with entries in [0, 1] over distinct node labels.

    The diagonal is not checked: ``rbf_similarity`` sets it to 1, while a
    matrix loaded from a file or produced by fusion keeps the one it has.
    """

    labels: tuple[str, ...]
    S: np.ndarray

    def __post_init__(self):
        s = sym_matrix(self.S)
        self.labels = tuple(str(x) for x in self.labels)
        if len(self.labels) != s.shape[0]:
            raise InvalidInput(f"{len(self.labels)} labels for order {s.shape[0]}")
        _check_unique(self.labels, "node label")
        if s.min() < 0.0 or s.max() > 1.0:
            raise InvalidInput(
                f"similarity entries must lie in [0, 1]; range "
                f"[{s.min():.3e}, {s.max():.3e}]"
            )
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
        _check_unique(self.names, "layer name")

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
    if sigma is not None and not 0 < sigma < np.inf:
        raise InvalidParameter(f"sigma must be positive and finite, got {sigma}")
    if sigma is None:
        sigma = auto_sigma(table)
    d2 = sq_distances(table.rows)
    s = np.exp(-d2 / sigma)
    np.fill_diagonal(s, 1.0)
    return SimilarityLayer(table.labels, s)

