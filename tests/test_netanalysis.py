import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multifuse import netanalysis
from multifuse.errors import DimensionError, InvalidInput, InvalidParameter
from multifuse.netanalysis import (
    Partition,
    centered_distances,
    correlation_table,
    distance_correlation,
    louvain_communities,
    modularity,
)
from multifuse.simbuild import SimilarityLayer

from oracles import (
    best_two_block,
    dcor_reference,
    greedy_pass_reference,
    modularity_reference,
    renumber_reference,
)


def rand_similarity(rng, n):
    s = rng.uniform(0.0, 1.0, (n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return s


def two_cliques(n_each=4):
    n = 2 * n_each
    w = np.zeros((n, n))
    w[:n_each, :n_each] = 1.0
    w[n_each:, n_each:] = 1.0
    np.fill_diagonal(w, 0.0)
    return w


def random_planted_blocks(rng, n, k):
    """Symmetric weights over ``k`` random blocks: U(0.5, 1) within a block, U(0, 0.3) across."""
    block = rng.integers(0, k, n)
    same = block[:, None] == block[None, :]
    w = np.triu(np.where(same, rng.uniform(0.5, 1.0, (n, n)), rng.uniform(0.0, 0.3, (n, n))), 1)
    return w + w.T


def planted_blocks(n=10, within=0.9, between=0.1):
    half = n // 2
    s = np.full((n, n), between)
    s[:half, :half] = within
    s[half:, half:] = within
    np.fill_diagonal(s, 1.0)
    return s


class TestDistanceCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rand_similarity(rng, 6)
            assert abs(distance_correlation(a, a) - 1.0) <= 1e-12

    def test_distance_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rand_similarity(rng, 6)
        b = rand_similarity(rng, 6)
        base = distance_correlation(a, b)
        for factor in (0.25, 3.0):
            assert abs(distance_correlation(a, factor * b) - base) <= 1e-12

    def test_four_node_fixture_matches_oracle(self):
        a = np.array(
            [
                [1.0, 0.8, 0.2, 0.4],
                [0.8, 1.0, 0.3, 0.1],
                [0.2, 0.3, 1.0, 0.6],
                [0.4, 0.1, 0.6, 1.0],
            ]
        )
        b = np.array(
            [
                [1.0, 0.1, 0.7, 0.3],
                [0.1, 1.0, 0.4, 0.9],
                [0.7, 0.4, 1.0, 0.2],
                [0.3, 0.9, 0.2, 1.0],
            ]
        )
        assert abs(distance_correlation(a, b) - dcor_reference(a, b)) <= 1e-12

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            a, b = rand_similarity(rng, n), rand_similarity(rng, n)
            v = distance_correlation(a, b)
            assert v == distance_correlation(b, a)
            assert 0.0 <= v <= 1.0

    def test_constant_network_gives_zero(self):
        a = np.ones((4, 4))
        b = rand_similarity(np.random.default_rng(3), 4)
        assert distance_correlation(a, b) == 0.0

    @settings(deadline=None)
    @given(st.integers(3, 12), st.integers(0, 2**32 - 1), st.data())
    def test_permutation_invariance(self, n, seed, data):
        # worst change in two runs of 1000 draws: 3.3e-16
        rng = np.random.default_rng(seed)
        labels = [f"e{i}" for i in range(n)]
        a, b = (SimilarityLayer(labels, rand_similarity(rng, n)) for _ in range(2))
        perm = data.draw(st.permutations(range(n)))
        moved = [SimilarityLayer([labels[i] for i in perm], x.S[np.ix_(perm, perm)]) for x in (a, b)]
        assert abs(distance_correlation(*moved) - distance_correlation(a, b)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            distance_correlation(np.eye(3), np.eye(4))

    def test_one_node_rejected(self):
        with pytest.raises(InvalidInput, match="at least two nodes"):
            distance_correlation(np.eye(1), np.eye(1))

    def test_bare_array_against_relabelled_layer(self):
        # a bare array's nodes are labelled "0" to "n-1"
        with pytest.raises(DimensionError, match="different node labels"):
            distance_correlation(np.eye(3), SimilarityLayer(("a", "b", "c"), np.eye(3)))

    def test_label_mismatch(self):
        a = SimilarityLayer(("a", "b"), np.eye(2))
        b = SimilarityLayer(("a", "c"), np.eye(2))
        with pytest.raises(DimensionError):
            distance_correlation(a, b)

    def test_centered_once_gives_the_same_values(self):
        # the pipeline centers each network once and passes the result on
        rng = np.random.default_rng(6)
        nets = [rand_similarity(rng, 7) for _ in range(4)]
        centered = [centered_distances(x) for x in nets]
        table = correlation_table("wxyz", nets)
        for i in range(4):
            for j in range(4):
                if i != j:
                    value = distance_correlation(nets[i], nets[j])
                    assert table.S[i, j] == value
                    assert distance_correlation(centered[i], nets[j]) == value
                    assert distance_correlation(centered[i], centered[j]) == value
        assert centered_distances(centered[0]) is centered[0]
        assert correlation_table("wxyz", centered).S.tolist() == table.S.tolist()

    def test_centered_keeps_the_label_check(self):
        a = centered_distances(SimilarityLayer(("a", "b"), np.eye(2)))
        with pytest.raises(DimensionError):
            distance_correlation(a, SimilarityLayer(("a", "c"), np.eye(2)))

    def test_table_contract(self):
        rng = np.random.default_rng(5)
        nets = [rand_similarity(rng, 5) for _ in range(4)]
        table = correlation_table(("w", "x", "y", "z"), nets)
        assert table.labels == ("w", "x", "y", "z")
        assert np.array_equal(table.S, table.S.T)
        assert np.abs(np.diag(table.S) - 1.0).max() <= 1e-12

    def test_table_needs_one_name_per_network(self):
        with pytest.raises(InvalidInput, match="one name per network"):
            correlation_table(("w",), [np.eye(3), np.eye(3)])

    def test_table_names_must_be_distinct(self):
        rng = np.random.default_rng(8)
        a, b = rand_similarity(rng, 4), rand_similarity(rng, 4)
        with pytest.raises(InvalidInput, match="duplicate node label 'w'"):
            correlation_table(("w", "w"), [a, b])

    def test_memory_is_quadratic(self):
        # n^3 difference temporaries would take 8 * 300^3 bytes = 216 MB
        rng = np.random.default_rng(10)
        a, b = rand_similarity(rng, 300), rand_similarity(rng, 300)
        tracemalloc.start()
        try:
            distance_correlation(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


class TestLouvain:
    def test_two_cliques_recovered(self):
        w = two_cliques(4)
        part = louvain_communities(w)
        assert part.n_communities == 2
        assert len(set(part.community[:4])) == 1
        assert len(set(part.community[4:])) == 1
        assert part.community[0] != part.community[4]
        assert np.isclose(part.modularity, 0.5, atol=1e-15)

    def test_complete_graph_single_community(self):
        w = np.ones((6, 6))
        np.fill_diagonal(w, 0.0)
        part = louvain_communities(w)
        assert part.n_communities == 1

    def test_planted_blocks_match_exhaustive_optimum(self):
        s = planted_blocks()
        part = louvain_communities(s)
        best_q, best_comm = best_two_block(np.where(np.eye(10, dtype=bool), 0.0, s))
        assert part.n_communities == 2
        got = {frozenset(np.flatnonzero(part.community == c)) for c in range(2)}
        want = {frozenset(np.flatnonzero(best_comm == c)) for c in range(2)}
        assert got == want
        assert abs(part.modularity - best_q) <= 1e-12

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        s = rand_similarity(rng, 12)
        a = louvain_communities(s, seed=3)
        b = louvain_communities(s, seed=3)
        assert np.array_equal(a.community, b.community)
        assert a.modularity == b.modularity

    def test_reported_modularity_matches_scorer_exactly(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            s = rand_similarity(rng, 9)
            part = louvain_communities(s, seed=seed)
            assert part.modularity == modularity(s, part)

    def test_edgeless_graph_gives_singletons(self):
        for n in (1, 2, 4):
            labels = tuple(f"v{i}" for i in range(n))
            part = louvain_communities(SimilarityLayer(labels, np.eye(n)), seed=3)
            assert part.labels == labels
            assert part.community.tolist() == list(range(n))
            assert part.modularity == 0.0
            assert modularity(np.eye(n), part.community) == 0.0

    def test_negative_weights_rejected(self):
        s = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(InvalidInput):
            louvain_communities(s)

    def test_resolution_validated(self):
        with pytest.raises(InvalidParameter):
            louvain_communities(two_cliques(), resolution=0.0)

    def test_partition_indices_contiguous(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            s = rand_similarity(rng, 10)
            part = louvain_communities(s, seed=seed)
            uniq = np.unique(part.community)
            assert np.array_equal(uniq, np.arange(uniq.size))


@st.composite
def integer_graphs(draw):
    """Symmetric graphs with small integer weights (many exact ties), often with isolated nodes."""
    n = draw(st.integers(2, 12))
    upper = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=n * n, max_size=n * n))
    w = np.triu(np.array(upper, dtype=float).reshape(n, n), 1)
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=n // 2))
    w[isolated, :] = w[:, isolated] = 0.0
    assume(w.sum() > 0)
    return w + w.T


class TestLouvainMatchesLoopReference:
    """The vectorised candidate scan and renumbering give the loops' partition."""

    @settings(deadline=None, max_examples=150)
    @given(
        w=integer_graphs(),
        resolution=st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, 4.0]),
        seed=st.integers(0, 5),
    )
    # a 4-cycle whose sweep meets a two-way tie: the highest index would give [0, 0, 1, 1]
    @example(w=np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], float),
             resolution=1.0, seed=0)
    def test_same_partition(self, w, resolution, seed):
        got = louvain_communities(w, resolution, seed)
        with mock.patch.object(netanalysis, "_greedy_pass", greedy_pass_reference), \
                mock.patch.object(netanalysis, "_renumber", renumber_reference):
            want = louvain_communities(w, resolution, seed)
        assert np.array_equal(got.community, want.community)
        assert got.modularity == want.modularity

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=20))
    def test_renumber_by_first_occurrence(self, comm):
        comm = np.array(comm)
        assert np.array_equal(netanalysis._renumber(comm), renumber_reference(comm))


class TestModularity:
    def test_singleton_partition_on_edgeless_graph(self):
        assert modularity(np.eye(5), np.arange(5)) == 0.0

    def test_two_clique_hand_value(self):
        w = two_cliques(4)
        comm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert np.isclose(modularity(w, comm), 0.5, atol=1e-15)

    def test_merged_cliques_score_lower(self):
        w = two_cliques(4)
        split = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        merged = np.zeros(8, dtype=int)
        assert modularity(w, merged) < modularity(w, split)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            s = rand_similarity(rng, n)
            comm = rng.integers(0, 3, n)
            assert abs(modularity(s, comm) - modularity_reference(s, comm)) <= 1e-12

    def test_louvain_score_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(10)
        for _ in range(200):
            n, k = int(rng.integers(4, 61)), int(rng.integers(1, 5))
            resolution = float(rng.choice([0.5, 1.0, 2.0]))
            w = random_planted_blocks(rng, n, k)
            part = louvain_communities(w, resolution)
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_weighted_edges_from((i, j, w[i, j]) for i, j in zip(*np.triu_indices(n, 1)))
            communities = [set(np.flatnonzero(part.community == c).tolist()) for c in range(part.n_communities)]
            want = nx.community.modularity(g, communities, resolution=resolution)
            assert abs(part.modularity - want) <= 1e-12

    def test_resolution_scaling(self):
        w = two_cliques(4)
        comm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        q1 = modularity(w, comm, resolution=1.0)
        q2 = modularity(w, comm, resolution=2.0)
        assert q2 < q1

    def test_label_mismatch_rejected(self):
        lay = SimilarityLayer(("a", "b"), np.eye(2))
        part = Partition(("a", "x"), np.array([0, 1]), 0.0)
        with pytest.raises(DimensionError):
            modularity(lay, part)

    def test_resolution_validated(self):
        with pytest.raises(InvalidParameter):
            modularity(two_cliques(), np.zeros(8, dtype=int), resolution=np.inf)

    def test_coverage_check(self):
        with pytest.raises(InvalidInput):
            modularity(two_cliques(), np.zeros(3, dtype=int))


class TestTypes:
    def test_partition_contiguity_enforced(self):
        with pytest.raises(InvalidInput):
            Partition(("a", "b"), np.array([0, 2]), 0.0)

    def test_partition_needs_one_index_per_label(self):
        with pytest.raises(InvalidInput, match="one community index per label"):
            Partition(("a", "b"), [0], 0.0)
