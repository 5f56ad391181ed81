import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multifuse.errors import DimensionError, InvalidInput, InvalidParameter
from multifuse.simbuild import FeatureTable, Multiplex, SimilarityLayer, rbf_similarity
from multifuse.snf import (
    SnfConfig,
    cdp_step,
    default_k,
    global_normalize,
    iterate,
    local_normalize,
    snf_fuse,
)

from oracles import cdp_step_reference, local_normalize_reference, snf_reference

LABELS3 = ("a", "b", "c")

# documented 3-node fixture used across the suite
FIX_S1 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.3], [0.1, 0.3, 1.0]])
FIX_S2 = np.array([[1.0, 0.2, 0.7], [0.2, 1.0, 0.5], [0.7, 0.5, 1.0]])
FIX_S3 = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])


def layer(mat, labels=None):
    labels = labels or tuple(f"n{i}" for i in range(np.shape(mat)[0]))
    return SimilarityLayer(labels, mat)


@st.composite
def seeded_rbf_multiplexes(draw):
    """2 to 6 RBF layers over 3 to 30 nodes, each with 1 to 20 uniform sites.

    The rows come from one drawn seed.
    """
    n, m = draw(st.integers(3, 30)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"n{i}" for i in range(n))
    return Multiplex(tuple(
        rbf_similarity(FeatureTable(labels, rng.uniform(0.0, 10.0, (n, draw(st.integers(1, 20))))))
        for _ in range(m)
    ))


def fixture_multiplex():
    return Multiplex((layer(FIX_S1, LABELS3), layer(FIX_S2, LABELS3)))


def rbf_with_duplicates(n, seed=0, sites=20):
    """An RBF layer over n entities, a fifth of which repeat others' rows: ties at every distance."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, 10.0, (n, sites))
    rows[n // 2:n // 2 + n // 5] = rows[:n // 5]
    return rbf_similarity(FeatureTable(tuple(f"n{i}" for i in range(n)), rows))


class TestGlobalNormalize:
    def test_uniform(self):
        assert np.array_equal(global_normalize(np.ones((2, 2))), np.full((2, 2), 0.25))

    def test_identity(self):
        assert np.array_equal(global_normalize(np.eye(2)), np.diag([0.5, 0.5]))

    def test_direct(self):
        m = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(global_normalize(m), m / 5.0)

    def test_zero_layer(self):
        with pytest.raises(InvalidInput):
            global_normalize(np.zeros((3, 3)))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            global_normalize(np.ones((2, 3)))


class TestLocalNormalize:
    def test_full_neighbourhood_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 1.0, (3, 3))
        s = (s + s.T) / 2
        q = local_normalize(s, 2)
        assert np.allclose(q.sum(axis=1), 1.0)
        assert np.array_equal(np.diag(q), np.zeros(3))

    def test_direct_values(self):
        s = np.array(
            [
                [1.0, 0.6, 0.3, 0.1],
                [0.6, 1.0, 0.2, 0.2],
                [0.3, 0.2, 1.0, 0.2],
                [0.1, 0.2, 0.2, 1.0],
            ]
        )
        q = local_normalize(s, 2)
        assert np.isclose(q[0, 1], 2.0 / 3.0)
        assert np.isclose(q[0, 2], 1.0 / 3.0)
        assert q[0, 3] == 0.0

    def test_tie_break_lowest_index(self):
        s = np.full((4, 4), 0.5)
        np.fill_diagonal(s, 1.0)
        q = local_normalize(s, 1)
        # uniform off-diagonal: node 0 picks node 1, everyone else picks node 0
        assert q[0, 1] == 1.0
        assert q[1, 0] == 1.0
        assert q[2, 0] == 1.0
        assert q[3, 0] == 1.0

    def test_k_range(self):
        with pytest.raises(InvalidParameter):
            local_normalize(np.eye(3), 3)
        with pytest.raises(InvalidParameter):
            local_normalize(np.eye(3), 0)

    def test_zero_row_left_zero(self):
        s = np.eye(3)  # no off-diagonal similarity at all
        q = local_normalize(s, 1)
        assert np.array_equal(q, np.zeros((3, 3)))

    @pytest.mark.parametrize("n, k", [(400, 133), (1000, 333)])
    def test_large_layer_with_ties_matches_row_loop(self, n, k):
        s = rbf_with_duplicates(n)
        ranked = -np.sort(-s.S[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
        assert (ranked[:, k - 1] == ranked[:, k]).any()  # a tie at the k-th value decides
        assert np.array_equal(local_normalize(s, k), local_normalize_reference(s.S, k))

    @pytest.mark.parametrize("k", [1, 6, 11])
    def test_diagonal_at_the_row_minimum(self, k):
        rng = np.random.default_rng(4)
        m = rng.uniform(0.5, 1.0, (12, 12))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.25)  # each node is its own least similar node
        assert np.array_equal(local_normalize(m, k), local_normalize_reference(m, k))


@st.composite
def tied_matrix_and_k(draw):
    n = draw(st.integers(2, 30))
    # a small value set makes neighbour ties and all-zero rows common
    m = draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    return m, draw(st.integers(1, n - 1))


@settings(deadline=None)
@given(tied_matrix_and_k())
def test_local_normalize_matches_row_loop(case):
    m, k = case
    # a bare array is read as its symmetric part
    assert np.array_equal(local_normalize(m, k), local_normalize_reference((m + m.T) / 2, k))


class TestCdpStep:
    def test_identical_layers(self):
        p = global_normalize(FIX_S1)
        q = local_normalize(FIX_S1, 1)
        out = cdp_step([p.copy(), p.copy()], [q, q])
        expected = q @ p @ q.T
        expected = (expected + expected.T) / 2
        assert len(out) == 2
        assert np.allclose(out[0], expected, atol=1e-15)
        assert np.allclose(out[1], expected, atol=1e-15)

    def test_matches_reference_step(self):
        mats = [FIX_S1, FIX_S2]
        p = [global_normalize(s) for s in mats]
        q = [local_normalize(s, 1) for s in mats]
        out = cdp_step([x.copy() for x in p], q)
        ref = cdp_step_reference(p, q)
        for got, want in zip(out, ref):
            assert np.allclose(got, want, atol=1e-15)

    def test_identity_kernel_returns_mean_of_others(self):
        rng = np.random.default_rng(1)
        p = [rng.random((3, 3)) for _ in range(3)]
        p = [(x + x.T) / 2 for x in p]
        out = cdp_step([x.copy() for x in p], [np.eye(3)] * 3)
        assert np.allclose(out[0], (p[1] + p[2]) / 2, atol=1e-15)

    def test_output_given_matches_reference_bytes(self):
        mats = [rbf_with_duplicates(120, seed) for seed in range(4)]
        p = [global_normalize(s) for s in mats]
        q = [local_normalize(s, 40) for s in mats]
        out = [np.full_like(x, np.nan) for x in p]
        got = cdp_step(p, q, out=out)
        assert got is out
        for a, b in zip(got, cdp_step_reference(p, q)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("alias", [lambda p, q: p[1], lambda p, q: p[0][:, ::-1], lambda p, q: q[0]],
                             ids=["status", "status-view", "kernel"])
    def test_output_sharing_an_operand(self, alias):
        p = [global_normalize(s) for s in (FIX_S1, FIX_S2)]
        q = [local_normalize(s, 1) for s in (FIX_S1, FIX_S2)]
        with pytest.raises(DimensionError):
            cdp_step(p, q, out=[np.empty((3, 3)), alias(p, q)])

    def test_needs_two_layers(self):
        with pytest.raises(InvalidInput):
            cdp_step([np.eye(2)], [np.eye(2)])

    @pytest.mark.parametrize(
        "P, Q",
        [
            ([np.eye(3)] * 3, [np.eye(3)] * 2),
            ([np.eye(3)] * 2, [np.eye(3)] * 3),
            ([np.eye(4)] * 2, [np.eye(3)] * 2),
        ],
        ids=["kernel-short", "kernel-over", "kernel-smaller"],
    )
    def test_mismatched_operands(self, P, Q):
        with pytest.raises(DimensionError):
            cdp_step(P, Q)


@pytest.mark.parametrize(
    "residuals, tol, limit, expected",
    [
        ([4.0, 2.0, 0.5, 0.1], 1.0, 10, (2, [4.0, 2.0, 0.5], True)),
        ([4.0, 2.0, 1.0, 0.1], 1.0, 10, (2, [4.0, 2.0, 1.0], True)),
        ([4.0, 3.0, 2.0, 1.0], 0.5, 2, (1, [4.0, 3.0], False)),
        ([4.0, 3.0, 0.5, 0.1], 0.5, 3, (2, [4.0, 3.0, 0.5], True)),
        ([0.0, 5.0], 0.5, 1, (0, [0.0], True)),
    ],
    ids=["below-tol", "equal-to-tol", "cap", "tol-at-cap", "first-residual"],
)
def test_iterate_stopping_rule(residuals, tol, limit, expected):
    # the state is the index of its residual; no step runs past the stop
    pulled = []

    def steps():
        for i, r in enumerate(residuals):
            pulled.append(i)
            yield r, i

    assert iterate(steps(), tol, limit) == expected
    assert len(pulled) == len(expected[1])


class TestSnfFuse:
    def test_uniform_layers_constant_offdiagonal(self):
        lay = layer(np.ones((4, 4)))
        res = snf_fuse(Multiplex((lay, lay, lay)))
        off = res.matrix[~np.eye(4, dtype=bool)]
        assert np.all(off == off[0])
        assert np.array_equal(np.diag(res.matrix), np.ones(4))

    def test_two_layer_fixture_matches_reference(self):
        # With two layers the update swaps the layers' mass components each
        # step, so the stopping rule is never met; the contract is a
        # converged=False flag with the output equal to the reference run.
        res = snf_fuse(fixture_multiplex(), SnfConfig(k=1, epsilon=1e-8))
        ref, _, _ = snf_reference([FIX_S1, FIX_S2], k=1, eps=1e-8, max_iter=100)
        assert not res.converged
        assert np.abs(res.matrix - ref).max() <= 1e-10

    def test_three_layer_fixture_matches_reference(self):
        mx = Multiplex((layer(FIX_S1, LABELS3), layer(FIX_S2, LABELS3), layer(FIX_S3, LABELS3)))
        res = snf_fuse(mx, SnfConfig(k=2, epsilon=1e-8))
        ref, _, ref_iters = snf_reference(
            [FIX_S1, FIX_S2, FIX_S3], k=2, eps=1e-8, max_iter=100
        )
        assert res.converged
        assert res.iterations == ref_iters
        assert np.abs(res.matrix - ref).max() <= 1e-10

    def test_diagnostics_contract(self):
        mx = Multiplex((layer(FIX_S1, LABELS3), layer(FIX_S2, LABELS3), layer(FIX_S3, LABELS3)))
        res = snf_fuse(mx, SnfConfig(k=2, epsilon=1e-8))
        assert res.converged
        assert np.isfinite(res.residual_history).all()
        assert res.residual < 1e-8
        assert res.residual == res.residual_history[-1]
        assert len(res.residual_history) == res.iterations

    def test_residual_history_is_largest_layer_change(self):
        mats = [FIX_S1, FIX_S2, FIX_S3]
        mx = Multiplex(tuple(layer(s, LABELS3) for s in mats))
        res = snf_fuse(mx, SnfConfig(k=2, epsilon=1e-8))
        p = [s / s.sum() for s in mats]
        q = [local_normalize_reference(s, 2) for s in mats]
        for got in res.residual_history:
            new_p = cdp_step_reference(p, q)
            want = max(np.linalg.norm(a - b, "fro") for a, b in zip(new_p, p))
            assert abs(got - want) <= 1e-15
            p = new_p

    def test_repeated_fusion_gives_equal_bytes(self):
        # n = 120 maps the kernels and the updates; the steps reuse two lists of status matrices
        mx = Multiplex(tuple(rbf_with_duplicates(120, seed) for seed in range(5)))
        first, second = snf_fuse(mx), snf_fuse(mx)
        assert first.iterations > 2
        assert np.array_equal(first.matrix, second.matrix)
        assert first.residual_history == second.residual_history

    def test_nonconvergence_is_flagged_not_raised(self):
        res = snf_fuse(fixture_multiplex(), SnfConfig(k=2, epsilon=1e-15, max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.residual_history) == 2

    def test_needs_two_layers(self):
        with pytest.raises(InvalidInput):
            snf_fuse(Multiplex((layer(np.eye(3)),)))

    def test_needs_two_nodes(self):
        # checked before k is resolved, so the error names the node count, not k
        with pytest.raises(InvalidInput, match="^fusion needs at least two nodes, got 1$"):
            snf_fuse(Multiplex((layer(np.eye(1)), layer(np.eye(1)))))

    def test_output_is_valid_similarity_layer(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = rng.integers(3, 10), rng.integers(2, 5)
            mats = []
            for _ in range(m):
                s = rng.uniform(0.0, 1.0, (n, n))
                s = (s + s.T) / 2
                np.fill_diagonal(s, 1.0)
                mats.append(layer(s, tuple(f"n{i}" for i in range(n))))
            res = snf_fuse(Multiplex(tuple(mats)))
            assert np.array_equal(res.matrix, res.matrix.T)
            assert res.matrix.min() >= 0.0 and res.matrix.max() <= 1.0
            assert np.array_equal(np.diag(res.matrix), np.ones(n))
            assert (np.stack(res.residual_history) >= 0).all()
            res.as_layer()

    def test_random_multiplexes_converge(self):
        # m >= 3 so the mass components mix instead of swapping (the m=2
        # oscillation is covered above); n >= 6 keeps the default
        # neighbourhood size at 2 or more.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(3, 5))
            mats = []
            for _ in range(m):
                s = rng.uniform(0.0, 1.0, (n, n))
                s = (s + s.T) / 2
                np.fill_diagonal(s, 1.0)
                mats.append(layer(s, tuple(f"n{i}" for i in range(n))))
            res = snf_fuse(Multiplex(tuple(mats)), SnfConfig(epsilon=1e-6, max_iter=200))
            assert res.converged and res.residual < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seeded_rbf_multiplexes(), st.data())
    def test_permutation_equivariance(self, multiplex, data):
        perm = data.draw(st.permutations(range(multiplex.n)))
        base = snf_fuse(multiplex)
        permuted = snf_fuse(
            Multiplex(tuple(layer(lay.S[np.ix_(perm, perm)], tuple(lay.labels[i] for i in perm)) for lay in multiplex))
        )
        assert permuted.iterations == base.iterations
        assert np.abs(permuted.matrix - base.matrix[np.ix_(perm, perm)]).max() <= 1e-12

    def test_default_k(self):
        assert default_k(16) == 5
        assert default_k(2) == 1
