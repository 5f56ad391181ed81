"""Post-fusion analysis: distance correlation and modularity clustering.

Distance correlation between two similarity networks treats each node's
similarity profile (its matrix row) as a sample point, builds the pairwise
Euclidean distance matrix of those points for each network, double-centers
both, and correlates them.  Clustering is a deterministic, seeded Louvain
sweep over the weighted graph with self-loops excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, InvalidParameter
from .matcore import sq_distances
from .simbuild import SimilarityLayer, layer_matrix

__all__ = [
    "Partition",
    "CenteredDistances",
    "centered_distances",
    "distance_correlation",
    "correlation_table",
    "louvain_communities",
    "modularity",
]

GAIN_TOL = 1e-12


@dataclass
class Partition:
    """Community assignment over labelled nodes, with its modularity score."""

    labels: tuple[str, ...]
    community: np.ndarray
    modularity: float

    def __post_init__(self):
        self.labels = tuple(str(x) for x in self.labels)
        comm = np.asarray(self.community, dtype=np.int64)
        if comm.ndim != 1 or comm.shape[0] != len(self.labels):
            raise InvalidInput("one community index per label required")
        uniq = np.unique(comm)
        if not np.array_equal(uniq, np.arange(uniq.shape[0])):
            raise InvalidInput("community indices must be contiguous from 0")
        self.community = comm

    @property
    def n_communities(self) -> int:
        return int(self.community.max()) + 1


def _double_center(d: np.ndarray) -> np.ndarray:
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


@dataclass(frozen=True)
class CenteredDistances:
    """One network's double-centered distance matrix, as distance correlation reads it."""

    labels: tuple[str, ...]
    matrix: np.ndarray


def centered_distances(network) -> CenteredDistances:
    """Double-center the Euclidean distances between the rows of ``network``.

    ``distance_correlation`` and ``correlation_table`` accept the result in
    place of the network, so a network correlated with several others is
    centered once.  A ``CenteredDistances`` is returned as it is.
    """
    if isinstance(network, CenteredDistances):
        return network
    labels, x = layer_matrix(network)
    return CenteredDistances(labels, _double_center(np.sqrt(sq_distances(x))))


def distance_correlation(A, B) -> float:
    """Generalized distance correlation between two networks, in [0, 1].

    Parameters
    ----------
    A, B : SimilarityLayer, array_like or CenteredDistances
        Square matrices over the same node set; each row is one node's
        sample point.

    Returns 0 when either network has zero distance variance (all profiles
    coincide).
    """
    a, b = centered_distances(A), centered_distances(B)
    if a.matrix.shape != b.matrix.shape:
        raise DimensionError(f"order mismatch: {a.matrix.shape[0]} vs {b.matrix.shape[0]}")
    if a.labels != b.labels:
        raise DimensionError("networks are defined over different node labels")
    if a.matrix.shape[0] < 2:
        raise InvalidInput("distance correlation needs at least two nodes")
    ac, bc = a.matrix, b.matrix
    dcov2 = float((ac * bc).mean())
    dvar_a = float((ac * ac).mean())
    dvar_b = float((bc * bc).mean())
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    dcor2 = max(dcov2, 0.0) / np.sqrt(dvar_a * dvar_b)
    return float(min(np.sqrt(dcor2), 1.0))


def correlation_table(names, networks) -> SimilarityLayer:
    """Pairwise distance correlations between several networks, each centered once.

    The table is a ``SimilarityLayer`` over ``names``, with a unit diagonal,
    so it can be clustered, exported and written like any network.
    """
    nets = [centered_distances(x) for x in networks]
    if len(names) != len(nets):
        raise InvalidInput("one name per network required")
    k = len(nets)
    v = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            v[i, j] = v[j, i] = distance_correlation(nets[i], nets[j])
    return SimilarityLayer(names, v)


def _graph_weights(S) -> tuple[tuple[str, ...], np.ndarray]:
    labels, mat = layer_matrix(S)
    w = mat.copy()
    np.fill_diagonal(w, 0.0)
    if w.min() < 0:
        raise InvalidInput("edge weights must be nonnegative")
    return labels, w


def _modularity_value(w: np.ndarray, comm: np.ndarray, resolution: float) -> float:
    two_m = float(w.sum())
    if two_m <= 0:
        return 0.0
    c = _aggregate(w, comm)
    return float(np.trace(c) / two_m - resolution * ((c.sum(axis=1) / two_m) ** 2).sum())


def _renumber(comm: np.ndarray) -> np.ndarray:
    """Community indices 0, 1, ... in order of first occurrence."""
    _, first, inverse = np.unique(comm, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _greedy_pass(w: np.ndarray, resolution: float, rng) -> tuple[bool, np.ndarray]:
    """Local-move phase: sweep nodes (seeded order) until no gain remains."""
    n = w.shape[0]
    k = w.sum(axis=1)
    two_m = float(w.sum())
    comm = np.arange(n)
    tot = k.copy()
    order = rng.permutation(n)
    moved_any = False
    while True:
        moved = False
        for i in order:
            c_old = comm[i]
            tot[c_old] -= k[i]
            links = np.bincount(comm, weights=w[i], minlength=n)
            links[c_old] -= w[i, i]
            # Score differences are proportional to modularity gains.  The
            # best linked community (argmax: the smallest index among ties)
            # wins if it beats staying in c_old by more than GAIN_TOL.
            score = links - resolution * k[i] * tot / two_m
            base = score[c_old]
            score[links <= 0] = -np.inf
            best_c = int(np.argmax(score))
            gain = 2.0 * (score[best_c] - base) / two_m
            if best_c != c_old and gain > GAIN_TOL:
                comm[i] = best_c
                moved = True
                moved_any = True
            tot[comm[i]] += k[i]
        if not moved:
            break
    return moved_any, _renumber(comm)


def _aggregate(w: np.ndarray, comm: np.ndarray) -> np.ndarray:
    n_comm = int(comm.max()) + 1
    member = np.zeros((w.shape[0], n_comm))
    member[np.arange(w.shape[0]), comm] = 1.0
    return member.T @ w @ member


def louvain_communities(S, resolution: float = 1.0, seed: int = 0) -> Partition:
    """Louvain modularity clustering of a similarity network.

    Diagonal entries are excluded (self-similarity carries no relational
    information).  The node sweep order is drawn from a generator seeded
    with the nonnegative ``seed``, making the partition fully deterministic.
    A network with no off-diagonal weight, such as a single node, puts
    every node in its own community, with modularity 0.
    """
    if not 0 < resolution < math.inf:
        raise InvalidParameter(f"resolution must be positive and finite, got {resolution!r}")
    if seed < 0:
        raise InvalidParameter(f"seed must be nonnegative, got {seed!r}")
    labels, w = _graph_weights(S)
    if w.sum() <= 0:
        return Partition(labels, np.arange(w.shape[0]), 0.0)
    rng = np.random.default_rng(seed)
    assign = np.arange(w.shape[0])
    graph = w
    while True:
        moved, comm = _greedy_pass(graph, resolution, rng)
        assign = comm[assign]
        if not moved or int(comm.max()) + 1 == graph.shape[0]:
            break
        graph = _aggregate(graph, comm)
    final = _renumber(assign)
    score = _modularity_value(w, final, resolution)
    return Partition(labels, final, score)


def modularity(S, partition, resolution: float = 1.0) -> float:
    """Weighted modularity of a partition, with self-loops excluded.

    A graph with no off-diagonal weight scores 0 by convention.
    """
    if not 0 < resolution < math.inf:
        raise InvalidParameter(f"resolution must be positive and finite, got {resolution!r}")
    labels, w = _graph_weights(S)
    if isinstance(partition, Partition):
        if partition.labels != labels:
            raise DimensionError("partition labels do not match the network")
        comm = partition.community
    else:
        comm = np.asarray(partition, dtype=np.int64)
    if comm.shape != (w.shape[0],):
        raise InvalidInput("partition must cover every node exactly once")
    return _modularity_value(w, comm, resolution)
