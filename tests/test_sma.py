import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power

from multifuse.errors import (
    DegenerateSpectrum,
    DimensionError,
    InvalidInput,
    InvalidParameter,
    SingularMatrix,
)
from multifuse import matcore, sma
from multifuse.matcore import fro_norm
from multifuse.simbuild import FeatureTable, Multiplex, SimilarityLayer, rbf_similarity
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

from oracles import (
    geometric_mean_pair,
    log_euclidean_mean,
    wasserstein_fixed_point_reference,
    wasserstein_mean_pair,
)


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

    def test_one_layer_rejected(self):
        with pytest.raises(InvalidInput, match="at least two layers"):
            rv_matrix([np.eye(2)])

    def test_no_layers_rejected(self):
        with pytest.raises(InvalidInput, match="need at least one layer"):
            rv_matrix([])
        with pytest.raises(InvalidInput, match="need at least one layer"):
            barycenter_frobenius([], [])

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


@st.composite
def seeded_rbf_layers(draw):
    """2 to 5 RBF layers over 3 to 12 nodes, each with 5 to 20 uniform sites.

    The rows come from one drawn seed.  Five or more random sites keep each
    layer's condition number below about 1e3.  With 3 to 6 sites it reached
    4e5 in 1000 draws, and the Wasserstein mean's permutation error 1.2e-12.
    """
    n, m = draw(st.integers(3, 12)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"e{i}" for i in range(n))
    return [
        rbf_similarity(FeatureTable(labels, rng.uniform(0.0, 10.0, (n, draw(st.integers(5, 20))))))
        for _ in range(m)
    ]


def permuted(layers, perm):
    """The layers with node ``perm[i]`` moved to position ``i``, labels included."""
    return [SimilarityLayer([lay.labels[i] for i in perm], lay.S[np.ix_(perm, perm)]) for lay in layers]


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

    @pytest.mark.parametrize("weights", [weights_frobenius, weights_rowsum])
    def test_one_layer_rejected(self, weights):
        with pytest.raises(InvalidInput, match="need at least two layers"):
            weights([[1.0]])

    def test_frobenius_zero_component_sum(self):
        with pytest.raises(InvalidInput, match="zero component sum"):
            weights_frobenius([[1.0, -0.5], [-0.5, 1.0]])

    def test_frobenius_negative_weights(self):
        # the leading eigenvector's sum is negative, so the division flips its sign
        r = [[1.0, -0.9, -0.9], [-0.9, 1.0, 0.5], [-0.9, 0.5, 1.0]]
        with pytest.raises(InvalidInput, match=r"negative weights \(min -1\.391e\+00\)"):
            weights_frobenius(r)

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

    def test_rowsum_negative_offdiagonal(self):
        r = np.array([[1.0, 0.9, -0.5], [0.9, 1.0, 0.1], [-0.5, 0.1, 1.0]])
        with pytest.raises(InvalidInput, match="must be nonnegative"):
            weights_rowsum(r)

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
        with pytest.raises(InvalidInput, match="non-finite"):
            check_weights([np.nan, 1.0], 2)

    def test_uniform(self):
        assert np.array_equal(uniform_weights(4), np.full(4, 0.25))
        with pytest.raises(InvalidParameter):
            uniform_weights(0)


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

    @settings(deadline=None)
    @given(rbf_layer_sets(), st.data())
    def test_permutation_equivariance(self, layers, data):
        # an entrywise weighted sum: relabelling the nodes permutes it exactly
        perm = data.draw(st.permutations(range(layers[0].n)))
        w = weights_rowsum(rv_matrix(layers))
        base = barycenter_frobenius(layers, w)
        moved = barycenter_frobenius(permuted(layers, perm), w)
        assert moved.labels == tuple(base.labels[i] for i in perm)
        assert np.array_equal(moved.matrix, base.matrix[np.ix_(perm, perm)])


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

    @settings(deadline=None)
    @given(seeded_rbf_layers(), st.data())
    def test_permutation_equivariance(self, layers, data):
        # worst entry error in two runs of 1000 draws: 9.0e-15, 110 times below the bound
        perm = data.draw(st.permutations(range(layers[0].n)))
        w = weights_rowsum(rv_matrix(layers))
        base = barycenter_riemannian(layers, w)
        moved = barycenter_riemannian(permuted(layers, perm), w)
        assert moved.labels == tuple(base.labels[i] for i in perm)
        assert moved.iterations == base.iterations
        assert np.abs(moved.matrix - base.matrix[np.ix_(perm, perm)]).max() <= 1e-12


def planted_rbf_multiplex(n, groups, m=9, p=20, seed=0):
    """RBF layers over planted groups, shaped like the pipeline's inputs.

    Each entity's profile in a layer is 0.75 x its group's profile plus
    0.25 x uniform noise, with about 10 % of the cells zeroed.
    """
    rng = np.random.default_rng(seed)
    groups_of = np.arange(n) % groups
    rng.shuffle(groups_of)
    labels = tuple(f"e{i:04d}" for i in range(n))
    layers = []
    for _ in range(m):
        base = rng.uniform(0.05, 1.0, (groups, p))
        rows = 0.75 * base[groups_of] + 0.25 * rng.uniform(0.0, 1.0, (n, p))
        rows[rng.random((n, p)) < 0.1] = 0.0
        layers.append(rbf_similarity(FeatureTable(labels, rows)))
    return Multiplex(tuple(layers))


class TestKarcherStep:
    def test_weighted_pair_in_one_update(self):
        # from the arithmetic mean the whitened pair sums to I, so the two
        # commute and the first step, theta = 1, lands on the mean
        rng = np.random.default_rng(19)
        for w2 in (0.1, 0.3, 0.8):
            a, b = rand_spd(rng, 6), rand_spd(rng, 6)
            res = barycenter_riemannian([a, b], [1.0 - w2, w2])
            assert res.converged and res.iterations == 1
            a12 = fractional_matrix_power(a, 0.5)
            am12 = np.linalg.inv(a12)
            expected = a12 @ fractional_matrix_power(am12 @ b @ am12, w2) @ a12
            assert fro_norm(res.matrix - np.real(expected)) <= 1e-9

    def test_near_identical_layers_give_finite_step(self):
        assert sma._bini_iannazzo_step([1.0, 1.0], [0.5, 0.5]) == 1.0
        assert np.isclose(sma._bini_iannazzo_step([1.0 + 1e-13, 1.0], [0.5, 0.5]), 1.0)
        # the series and the closed form agree where they meet
        below, above = (sma._bini_iannazzo_step([c], [1.0]) for c in (1.0 + 0.99e-4, 1.0 + 1.01e-4))
        assert abs(below - above) <= 1e-9
        # a tol no residual meets forces updates with every c_l within roundoff of 1
        rng = np.random.default_rng(20)
        s = rand_spd(rng, 5)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            res = barycenter_riemannian(
                [s, s * (1.0 + 1e-13), s], uniform_weights(3), BarycenterConfig(tol=1e-300, max_iter=3)
            )
        assert res.iterations == 3 and np.isfinite(res.residual_history).all()
        assert fro_norm(res.matrix - s) <= 1e-10 * fro_norm(s)

    def test_step_rule(self):
        # Barzilai-Borwein step theta <T', T'> / <T', T' - T>, clipped to [theta_k, 1]
        assert sma._bb_step(0.5, 0.2, 1.0, 1.0, 0.2, False) == 0.625
        assert sma._bb_step(0.9, 0.2, 1.0, 1.0, 0.5, False) == 1.0
        assert sma._bb_step(0.5, 0.2, 1.0, 1.0, -9.0, False) == 0.2
        # theta_k when the denominator is not positive or right after a rise
        assert sma._bb_step(0.5, 0.2, 1.0, 1.0, 1.0, False) == 0.2
        assert sma._bb_step(0.5, 0.2, 1.0, 1.0, 0.2, True) == 0.2
        # the Wasserstein clip [1, 3] of the same rule
        hi = sma.WASSERSTEIN_STEP_MAX
        assert hi == 3.0
        assert sma._bb_step(1.0, 1.0, hi, 1.0, 0.5, False) == 2.0
        assert sma._bb_step(2.0, 1.0, hi, 1.0, 0.5, False) == 3.0
        assert sma._bb_step(1.0, 1.0, hi, 1.0, -1.0, False) == 1.0
        assert sma._bb_step(2.0, 1.0, hi, 1.0, 1.0, False) == 1.0
        assert sma._bb_step(1.0, 1.0, hi, 1.0, 0.5, True) == 1.0

    def test_theta_k_after_the_residual_rises(self, monkeypatch):
        # theta_k for the one update right after each rise, the quotient otherwise
        steps = []
        pick = sma._bb_step

        def recording(step, lo, hi, prev_sq, prev_dot, fall_back):
            quotient = pick(step, lo, hi, prev_sq, prev_dot, False)
            steps.append((fall_back, lo, pick(step, lo, hi, prev_sq, prev_dot, fall_back), quotient))
            return steps[-1][2]

        monkeypatch.setattr(sma, "_bb_step", recording)
        rng = np.random.default_rng(1)
        mats = [rand_spd(rng, 5, 1e-2, 1e2) for _ in range(4)]
        res = barycenter_riemannian(mats, [0.4, 0.3, 0.2, 0.1])
        assert res.converged
        history = np.array(res.residual_history)
        # steps[j] picks the update after residual j + 1
        rose = history[1:-1] > history[:-2]
        assert rose.any() and len(steps) == len(rose)
        for (fall_back, theta_k, theta, quotient), r in zip(steps, rose):
            assert fall_back == r
            assert theta == (theta_k if r else quotient)
        # the quotient resumes after the first rise
        after = steps[int(np.flatnonzero(rose)[0]) + 1:]
        assert any(theta != theta_k for _, theta_k, theta, _ in after)
        assert all(0.0 < theta_k <= 1.0 for _, theta_k, _, _ in steps)

    def test_rises_cost_one_step_each(self):
        # with theta_k kept for good after a rise, six of these draws took 37-56 updates
        for seed in range(30):
            rng = np.random.default_rng(seed)
            mats = [rand_spd(rng, 5, 1e-2, 1e2) for _ in range(4)]
            res = barycenter_riemannian(mats, [0.4, 0.3, 0.2, 0.1])
            assert res.converged and res.iterations <= 30, seed

    def test_eigh_calls_per_update(self, monkeypatch):
        # one for X^{1/2} and X^{-1/2}, one log per layer, one exp
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(1)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        rng = np.random.default_rng(21)
        mats = [rand_spd(rng, 5) for _ in range(4)]
        res = barycenter_riemannian(mats, uniform_weights(4))
        assert res.converged and res.iterations > 1
        assert len(calls) == res.iterations * (4 + 2) + 4 + 1

    def test_converges_at_n400(self):
        # four planted groups over nine RBF layers: the step theta = 1 never converges here
        mx = planted_rbf_multiplex(400, 4)
        res = barycenter_riemannian(mx, weights_rowsum(rv_matrix(mx)), BarycenterConfig(max_iter=40))
        assert res.converged


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

    @settings(deadline=None)
    @given(seeded_rbf_layers(), st.data())
    def test_permutation_equivariance(self, layers, data):
        # worst entry error in two runs of 1000 draws: 7.3e-14, 14 times below the bound
        perm = data.draw(st.permutations(range(layers[0].n)))
        w = weights_rowsum(rv_matrix(layers))
        base = barycenter_wasserstein(layers, w)
        moved = barycenter_wasserstein(permuted(layers, perm), w)
        assert moved.labels == tuple(base.labels[i] for i in perm)
        assert moved.iterations == base.iterations
        assert np.abs(moved.matrix - base.matrix[np.ix_(perm, perm)]).max() <= 1e-12


class TestWassersteinStep:
    def test_pd_step_cap(self):
        # (1 - 1/2) / (1 - lambda_min(T)), never below 1, none once lambda_min(T) >= 1
        assert sma._pd_step_cap(np.diag([0.9, 1.1])) == pytest.approx(5.0, rel=1e-12)
        assert sma._pd_step_cap(np.diag([0.2, 1.5])) == 1.0
        assert sma._pd_step_cap(np.diag([1.0, 2.0])) == np.inf
        rng = np.random.default_rng(22)
        for _ in range(50):
            t = rand_spd(rng, 6, 0.3, 3.0)
            cap = sma._pd_step_cap(t)
            lam_min = np.linalg.eigvalsh(np.eye(6) + cap * (t - np.eye(6)))[0]
            bound = sma.PD_MARGIN if cap > 1.0 else np.linalg.eigvalsh(t)[0]
            assert lam_min >= bound - 1e-12

    def test_converges_at_n160(self):
        # the fixed-point map (eta = 1) takes 22 updates here
        mx = planted_rbf_multiplex(160, 2)
        w = weights_rowsum(rv_matrix(mx))
        res = barycenter_wasserstein(mx, w)
        assert res.converged and res.iterations <= 16
        reference = wasserstein_fixed_point_reference([layer.S for layer in mx.layers], w, iters=30)
        assert np.abs(res.matrix - reference).max() <= 1e-10

    def test_pd_clip_binds(self, monkeypatch):
        # two ill-conditioned layers: the quotient asks for eta = 3 where lambda_min(T) = 0.33
        quotients, capped, lowest = [], [], []
        bb, cap_of, spectral = sma._bb_step, sma._pd_step_cap, sma.spectral_fns

        def recording_bb(*args):
            quotients.append(bb(*args))
            return quotients[-1]

        def recording_cap(t):
            cap = cap_of(t)
            if cap < quotients[-1]:
                eye = np.eye(t.shape[0])
                capped.append((np.linalg.eigvalsh(t)[0], np.linalg.eigvalsh(eye + cap * (t - eye))[0]))
            return cap

        def recording_spectral(m, *tags, **kwargs):
            if "invsqrt" in tags:
                lowest.append(np.linalg.eigvalsh(m)[0])
            return spectral(m, *tags, **kwargs)

        monkeypatch.setattr(sma, "_bb_step", recording_bb)
        monkeypatch.setattr(sma, "_pd_step_cap", recording_cap)
        monkeypatch.setattr(sma, "spectral_fns", recording_spectral)
        rng = np.random.default_rng(14)
        a, b = (rand_spd(rng, 4, 1e-3, 1e3) for _ in range(2))
        w1, w2 = rng.dirichlet(np.ones(2))
        res = barycenter_wasserstein([a, b], [w1, w2])
        assert res.converged and res.residual <= BarycenterConfig().tol
        assert fro_norm(res.matrix - wasserstein_mean_pair(a, b, w1, w2)) <= 1e-9
        # every iterate is positive definite; a capped step leaves M's smallest
        # eigenvalue at 1/2, or at lambda_min(T) when the cap is eta = 1
        assert min(lowest) > 0.0 and len(lowest) == res.iterations + 1
        assert any(lam_t < 0.5 for lam_t, _ in capped)
        assert all(lam_m >= min(sma.PD_MARGIN, lam_t) - 1e-12 for lam_t, lam_m in capped)

    def test_step_one_after_a_rise(self, monkeypatch):
        steps = []
        bb = sma._bb_step

        def recording(step, lo, hi, prev_sq, prev_dot, fall_back):
            steps.append((fall_back, bb(step, lo, hi, prev_sq, prev_dot, fall_back)))
            return steps[-1][1]

        monkeypatch.setattr(sma, "_bb_step", recording)
        rng = np.random.default_rng(0)
        mats = [rand_spd(rng, 5, 1e-3, 1e3) for _ in range(3)]
        res = barycenter_wasserstein(mats, rng.dirichlet(np.ones(3)))
        assert res.converged
        history = np.array(res.residual_history)
        rose = history[1:-1] > history[:-2]
        assert rose.any() and [f for f, _ in steps] == list(rose)
        assert all(eta == 1.0 for fall_back, eta in steps if fall_back)
        assert any(eta > 1.0 for fall_back, eta in steps if not fall_back)


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

    @pytest.mark.parametrize("jitter", [None, 0.0, 4.0])
    @pytest.mark.parametrize("metric", ["riemannian", "wasserstein"])
    def test_non_psd_layer_rejected_by_both_means(self, metric, jitter):
        # checked before any jitter, which would otherwise shift the layer to PD
        layers = [np.diag([1.0, -0.5]), np.eye(2)]
        with pytest.raises(InvalidInput, match="layer 0 is not positive semidefinite"):
            solve_barycenter(layers, [0.5, 0.5], metric, BarycenterConfig(jitter=jitter))


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
