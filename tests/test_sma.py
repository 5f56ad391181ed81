import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifuse.errors import (
    DegenerateSpectrum,
    DimensionError,
    InvalidInput,
    InvalidParameter,
    SingularMatrix,
)
from multifuse import matcore, sma
from multifuse.matcore import fro_norm
from multifuse.simbuild import FeatureTable, SimilarityLayer, rbf_similarity
from multifuse.sma import (
    BarycenterConfig,
    barycenter_frobenius,
    barycenter_riemannian,
    barycenter_wasserstein,
    check_weights,
    rv_matrix,
    solve_barycenter,
    uniform_weights,
    weights_frobenius,
    weights_rowsum,
)

from oracles import geometric_mean_pair, log_euclidean_mean, wasserstein_mean_pair


def rand_spd(rng, n, lo=1e-1, hi=1e1):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return (q * vals) @ q.T


def rand_cp(rng, n, r=None):
    """Nonnegative PSD (completely positive) matrix with unit diagonal."""
    r = r or n + 2
    y = rng.random((r, n))
    s = y.T @ y
    d = np.sqrt(np.diag(s))
    s = s / np.outer(d, d)
    s = np.minimum((s + s.T) / 2, 1.0)  # normalization roundoff can leave 1+ulp
    np.fill_diagonal(s, 1.0)
    return s


class TestRvMatrix:
    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(0)
        r = rv_matrix([rand_cp(rng, 5) for _ in range(4)])
        assert np.array_equal(np.diag(r), np.ones(4))
        assert np.array_equal(r, r.T)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        s = rand_cp(rng, 4)
        r = rv_matrix([s, 0.37 * s])
        assert np.isclose(r[0, 1], 1.0, atol=1e-12)
        assert r[0, 1] <= 1.0

    def test_identity_vs_ones(self):
        r = rv_matrix([np.eye(2), np.ones((2, 2))])
        assert np.isclose(r[0, 1], 1.0 / np.sqrt(2.0), atol=1e-15)

    def test_zero_layer_rejected(self):
        with pytest.raises(InvalidInput):
            rv_matrix([np.zeros((2, 2)), np.eye(2)])

    def test_bare_arrays_are_symmetrised(self):
        a = np.array([[1.0, 0.9, 0.0], [0.1, 1.0, 0.4], [0.2, 0.6, 1.0]])
        assert np.array_equal(rv_matrix([a, a.T]), np.ones((2, 2)))

    def test_entries_in_unit_interval_for_nonneg_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = rv_matrix([rand_cp(rng, 6) for _ in range(3)])
            assert r.min() >= 0.0 and r.max() <= 1.0


@st.composite
def rbf_layer_sets(draw):
    """m >= 2 RBF layers over n >= 1 entities, as the pipeline builds them.

    Rows repeat, may share a large offset, and every layer uses the
    scale-adaptive bandwidth or one extreme ``sigma``.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(2, 5))
    sigma = draw(st.sampled_from([None, 1e-300, 1e-8, 1e8, 1e300]))
    labels = tuple(f"e{i}" for i in range(n))
    layers = []
    for _ in range(m):
        p = draw(st.integers(1, 3))
        profile = st.lists(st.floats(0.0, 10.0), min_size=p, max_size=p)
        distinct = draw(st.lists(profile, min_size=1, max_size=n))
        pick = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        offset = draw(st.sampled_from([0.0, 1e6, 1e12]))
        rows = np.array([distinct[i] for i in pick]) + offset
        layers.append(rbf_similarity(FeatureTable(labels, rows), sigma))
    return layers


class TestWeights:
    @settings(max_examples=200, deadline=None)
    @given(rbf_layer_sets())
    def test_rbf_layers_give_positive_rv_and_weights(self, layers):
        # unit diagonal and entries in [0, 1]: <S_i, S_j>_F >= n and ||S||_F <= n
        n = layers[0].n
        r = rv_matrix(layers)
        assert r.min() >= 1.0 / n - 1e-12
        for w in (weights_frobenius(r), weights_rowsum(r)):
            assert w.min() > 0.0
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_frobenius_identical_layers_uniform(self):
        r = np.ones((4, 4))
        w = weights_frobenius(r)
        assert np.allclose(w, 0.25, atol=1e-12)

    def test_frobenius_two_layers_half(self):
        for r12 in (0.2, 0.5, 0.9):
            w = weights_frobenius([[1.0, r12], [r12, 1.0]])
            assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_frobenius_ordering(self):
        r = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
        w = weights_frobenius(r)
        assert abs(w[0] - w[1]) <= 1e-9
        assert w[0] > w[2]

    def test_frobenius_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            weights_frobenius(np.eye(3))

    def test_rowsum_identical_layers_uniform(self):
        w = weights_rowsum(np.ones((5, 5)))
        assert np.allclose(w, 0.2, atol=1e-15)

    def test_rowsum_two_layers_half_regardless(self):
        for r12 in (0.1, 0.7):
            w = weights_rowsum([[1.0, r12], [r12, 1.0]])
            assert np.array_equal(w, [0.5, 0.5])

    def test_rowsum_direct_value(self):
        r = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
        w = weights_rowsum(r)
        assert np.allclose(w, np.array([1.0, 1.0, 0.2]) / 2.2, atol=1e-15)

    def test_rowsum_zero_offdiagonal(self):
        with pytest.raises(InvalidInput):
            weights_rowsum(np.eye(3))

    def test_weight_contracts_on_random_rv(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            r = rv_matrix([rand_cp(rng, 5) for _ in range(m)])
            for w in (weights_frobenius(r), weights_rowsum(r)):
                assert w.min() >= 0.0
                assert abs(w.sum() - 1.0) <= 1e-12

    def test_check_weights_rejects_bad(self):
        with pytest.raises(InvalidInput):
            check_weights([0.7, 0.7], 2)
        with pytest.raises(InvalidInput):
            check_weights([1.5, -0.5], 2)
        with pytest.raises(DimensionError):
            check_weights([1.0], 2)

    def test_uniform(self):
        assert np.array_equal(uniform_weights(4), np.full(4, 0.25))


class TestFrobeniusBarycenter:
    def test_identical_layers(self):
        rng = np.random.default_rng(4)
        s = rand_cp(rng, 5)
        res = barycenter_frobenius([s, s, s], uniform_weights(3))
        assert np.allclose(res.matrix, s, atol=1e-15)
        assert res.converged and res.iterations == 0 and res.residual == 0.0

    def test_scalar_mean(self):
        res = barycenter_frobenius([np.array([[4.0]]), np.array([[9.0]])], [0.5, 0.5])
        assert res.matrix[0, 0] == 6.5

    def test_elementwise_mean(self):
        res = barycenter_frobenius(
            [np.diag([1.0, 4.0]), np.diag([4.0, 1.0])], [0.5, 0.5]
        )
        assert np.array_equal(res.matrix, np.diag([2.5, 2.5]))

    @pytest.mark.parametrize(
        "layers",
        [
            [SimilarityLayer(("a", "b", "c"), np.eye(3)), np.eye(3)],
            [np.eye(3), SimilarityLayer(("a", "b", "c"), np.eye(3))],
            [np.eye(3), np.eye(2)],
        ],
        ids=["layer-array", "array-layer", "unequal-orders"],
    )
    def test_layers_must_share_labels(self, layers):
        with pytest.raises(DimensionError):
            barycenter_frobenius(layers, [0.5, 0.5])


class TestRiemannianBarycenter:
    def test_identical_layers_fixed_point(self):
        rng = np.random.default_rng(5)
        s = rand_spd(rng, 6)
        res = barycenter_riemannian([s, s, s], uniform_weights(3))
        assert res.converged and res.iterations == 0
        assert fro_norm(res.matrix - s) <= 1e-10

    def test_scalar_geometric_mean(self):
        res = barycenter_riemannian([np.array([[4.0]]), np.array([[9.0]])], [0.5, 0.5])
        assert np.isclose(res.matrix[0, 0], 6.0, atol=1e-12)

    def test_pair_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a, b = rand_spd(rng, 6), rand_spd(rng, 6)
            res = barycenter_riemannian([a, b], [0.5, 0.5])
            assert res.converged
            assert fro_norm(res.matrix - geometric_mean_pair(a, b)) <= 1e-9

    def test_commuting_layers_match_log_euclidean(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        mats = [(q * np.exp(rng.uniform(-1, 1, 5))) @ q.T for _ in range(4)]
        w = np.array([0.1, 0.2, 0.3, 0.4])
        res = barycenter_riemannian(mats, w)
        assert fro_norm(res.matrix - log_euclidean_mean(mats, w)) <= 1e-8

    def test_singular_layer_raises_without_jitter(self):
        sing = np.diag([1.0, 0.0])
        cfg = BarycenterConfig(jitter=0.0)
        with pytest.raises(SingularMatrix):
            barycenter_riemannian([sing, np.eye(2)], [0.5, 0.5], cfg)

    def test_singular_layer_solved_with_jitter(self):
        sing = np.diag([1.0, 0.0])
        res = barycenter_riemannian([sing, np.eye(2)], [0.5, 0.5])  # default jitter 1e-8
        assert res.converged

    def test_layer_reordering_invariance(self):
        rng = np.random.default_rng(8)
        mats = [rand_spd(rng, 5) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        a = barycenter_riemannian(mats, w)
        b = barycenter_riemannian(mats[::-1], w[::-1])
        assert fro_norm(a.matrix - b.matrix) <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        mats = [rand_cp(rng, 6) for _ in range(3)]
        w = uniform_weights(3)
        perm = rng.permutation(6)
        base = barycenter_riemannian(mats, w)
        permuted = barycenter_riemannian([m[np.ix_(perm, perm)] for m in mats], w)
        assert fro_norm(permuted.matrix - base.matrix[np.ix_(perm, perm)]) <= 1e-9


class TestWassersteinBarycenter:
    def test_identical_layers_fixed_point(self):
        rng = np.random.default_rng(10)
        s = rand_spd(rng, 6)
        res = barycenter_wasserstein([s, s, s], uniform_weights(3))
        assert res.converged and res.iterations == 0
        assert fro_norm(res.matrix - s) <= 1e-10

    def test_scalar_closed_form(self):
        res = barycenter_wasserstein([np.array([[4.0]]), np.array([[9.0]])], [0.5, 0.5])
        assert np.isclose(res.matrix[0, 0], 6.25, atol=1e-12)

    def test_pair_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = rand_spd(rng, 6), rand_spd(rng, 6)
            res = barycenter_wasserstein([a, b], [0.5, 0.5])
            assert res.converged
            assert fro_norm(res.matrix - wasserstein_mean_pair(a, b, 0.5, 0.5)) <= 1e-9

    def test_psd_layers_allowed_when_mean_is_pd(self):
        sing = np.diag([1.0, 0.0])
        res = barycenter_wasserstein([sing, np.eye(2)], [0.5, 0.5])
        assert res.converged

    def test_indefinite_layer_rejected(self):
        with pytest.raises(InvalidInput):
            barycenter_wasserstein([np.diag([1.0, -1.0]), np.eye(2)], [0.5, 0.5])

    def test_layer_reordering_invariance(self):
        rng = np.random.default_rng(13)
        mats = [rand_spd(rng, 5) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        a = barycenter_wasserstein(mats, w)
        b = barycenter_wasserstein(mats[::-1], w[::-1])
        assert fro_norm(a.matrix - b.matrix) <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        mats = [rand_cp(rng, 6) for _ in range(3)]
        w = uniform_weights(3)
        perm = rng.permutation(6)
        base = barycenter_wasserstein(mats, w)
        permuted = barycenter_wasserstein([m[np.ix_(perm, perm)] for m in mats], w)
        assert fro_norm(permuted.matrix - base.matrix[np.ix_(perm, perm)]) <= 1e-9


class TestSolveBarycenter:
    @pytest.mark.parametrize(
        "metric, solver",
        [
            ("frobenius", barycenter_frobenius),
            ("riemannian", barycenter_riemannian),
            ("wasserstein", barycenter_wasserstein),
        ],
    )
    def test_dispatches_to_solver(self, metric, solver):
        rng = np.random.default_rng(18)
        mats = [rand_spd(rng, 5) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(solve_barycenter(mats, w, metric).matrix, solver(mats, w).matrix)

    @pytest.mark.parametrize("max_iter", [1, 3])
    @pytest.mark.parametrize("metric", ["riemannian", "wasserstein"])
    def test_nonconvergence_flagged(self, metric, max_iter):
        # iterations counts updates; the first residual precedes any update.  Three
        # layers, since the Karcher mean of two is met in one step.
        rng = np.random.default_rng(12)
        mats = [rand_spd(rng, 5) for _ in range(3)]
        cfg = BarycenterConfig(max_iter=max_iter)
        res = solve_barycenter(mats, [0.5, 0.3, 0.2], metric, cfg)
        assert not res.converged
        assert res.iterations == max_iter
        assert len(res.residual_history) == max_iter + 1
        assert res.residual == res.residual_history[-1]

    def test_unknown_metric_raises(self):
        with pytest.raises(InvalidParameter):
            solve_barycenter([np.eye(2), np.eye(2)], [0.5, 0.5], "euclidean")


class TestOrderings:
    def test_scalar_ordering(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            vals = rng.uniform(0.1, 10.0, m)
            w = rng.dirichlet(np.ones(m))
            layers = [np.array([[v]]) for v in vals]
            f = barycenter_frobenius(layers, w).matrix[0, 0]
            r = barycenter_riemannian(layers, w).matrix[0, 0]
            ws = barycenter_wasserstein(layers, w).matrix[0, 0]
            assert r <= ws + 1e-12
            assert ws <= f + 1e-12

    def test_as_layer_guard(self):
        # barycenters of general SPD inputs leave the [0, 1] similarity range
        rng = np.random.default_rng(17)
        res = barycenter_frobenius([10.0 * np.eye(3), 12.0 * np.eye(3)], [0.5, 0.5])
        with pytest.raises(InvalidInput):
            res.as_layer()
        ok = barycenter_frobenius([rand_cp(rng, 4), rand_cp(rng, 4)], [0.5, 0.5])
        layer = ok.as_layer()
        assert layer.kind == "external"
        assert layer.S.min() >= 0.0 and layer.S.max() <= 1.0

    def test_swelling_order_sample(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(2, 5))
            mats = [rand_cp(rng, n) for _ in range(m)]
            w = rng.dirichlet(np.ones(m))
            f = barycenter_frobenius(mats, w).matrix
            ws = barycenter_wasserstein(mats, w).matrix
            gap_eigs = np.linalg.eigvalsh((f - ws + (f - ws).T) / 2)
            assert gap_eigs.min() >= -1e-8
            assert np.linalg.det(ws) <= np.linalg.det(f) + 1e-8


def test_metric_solvers_bypass_sym_eigen(monkeypatch):
    # V f(L) V.T does not depend on eigenvector signs, so the solver loops
    # must not pay for sym_eigen's validation and sign convention
    calls = []
    original = matcore.sym_eigen

    def counting(M):
        calls.append(1)
        return original(M)

    monkeypatch.setattr(sma, "sym_eigen", counting)
    monkeypatch.setattr(matcore, "sym_eigen", counting)
    rng = np.random.default_rng(11)
    layers = [rand_cp(rng, 6) for _ in range(3)]
    w = uniform_weights(3)
    assert barycenter_riemannian(layers, w).converged
    assert barycenter_wasserstein(layers, w).converged
    assert calls == []
