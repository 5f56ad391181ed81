import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multifuse.errors import DimensionError, InvalidInput, InvalidParameter
from multifuse.netanalysis import distance_correlation, louvain_communities, modularity
from multifuse.simbuild import FeatureTable, Multiplex, SimilarityLayer, auto_sigma, rbf_similarity
from multifuse.sma import barycenter_frobenius, rv_matrix, weights_rowsum
from multifuse.snf import global_normalize, local_normalize


def table(rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    labels = labels or [f"e{i}" for i in range(rows.shape[0])]
    return FeatureTable(labels, rows)


class TestTypes:
    def test_feature_table_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            table([[0.0], [np.inf]])

    def test_feature_table_label_mismatch(self):
        with pytest.raises(InvalidInput):
            FeatureTable(("a",), np.zeros((2, 1)))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (0, 2)])
    def test_feature_table_rejects_bad_shapes(self, shape):
        with pytest.raises(InvalidInput, match=r"must be \(n, p\) with n,p >= 1"):
            FeatureTable(("a",) * shape[0], np.zeros(shape))

    def test_feature_table_scalar_rows_become_one_column(self):
        assert FeatureTable(("a", "b"), [1.0, 2.0]).rows.tolist() == [[1.0], [2.0]]

    def test_layer_needs_one_label_per_node(self):
        with pytest.raises(InvalidInput, match="1 labels for order 2"):
            SimilarityLayer(("a",), np.eye(2))

    def test_layer_range_check(self):
        with pytest.raises(InvalidInput):
            SimilarityLayer(("a", "b"), [[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(InvalidInput):
            SimilarityLayer(("a", "b"), [[1.0, -0.1], [-0.1, 1.0]])

    def test_layer_rejects_duplicate_labels(self):
        with pytest.raises(InvalidInput, match="duplicate node label 'a'"):
            SimilarityLayer(("a", "a", "b"), np.eye(3))

    @pytest.mark.parametrize("label", ["a\0b", "a\x01b", "\ud800", "\x0b", "\ufffe"])
    def test_layer_rejects_label_outside_xml_chars(self, label):
        with pytest.raises(InvalidInput, match=re.escape(f"node label {label!r} holds ")):
            SimilarityLayer(("a", label), np.eye(2))

    def test_layer_keeps_tab_newlines_and_other_planes(self):
        labels = ("t\tb", "c\rr\nl", "\x7f\x85\ufffd", "\U0001f600")
        assert SimilarityLayer(labels, np.eye(4)).labels == labels

    def test_multiplex_label_agreement(self):
        a = SimilarityLayer(("a", "b"), np.eye(2))
        b = SimilarityLayer(("a", "c"), np.eye(2))
        with pytest.raises(DimensionError):
            Multiplex((a, b))

    def test_multiplex_default_names(self):
        a = SimilarityLayer(("a", "b"), np.eye(2))
        mx = Multiplex((a, a))
        assert mx.names == ("layer0", "layer1")
        assert mx.m == 2 and mx.n == 2

    def test_multiplex_needs_a_layer_and_one_name_each(self):
        a = SimilarityLayer(("a", "b"), np.eye(2))
        with pytest.raises(InvalidInput, match="at least one layer"):
            Multiplex(())
        with pytest.raises(InvalidInput, match="one name per layer"):
            Multiplex((a, a), ("L",))

    def test_multiplex_rejects_duplicate_names(self):
        a = SimilarityLayer(("a", "b"), np.eye(2))
        with pytest.raises(InvalidInput, match="duplicate layer name 'L'"):
            Multiplex((a, a, a), ("L", "M", "L"))

    def test_multiplex_rejects_name_outside_xml_chars(self):
        # what os.fsdecode makes of a file stem that is not UTF-8
        a = SimilarityLayer(("a", "b"), np.eye(2))
        with pytest.raises(InvalidInput, match=re.escape("layer name 'lay\\udcffer' holds '\\udcff'")):
            Multiplex((a, a), ("L", "lay\udcffer"))


class TestRbf:
    def test_zero_distance(self):
        lay = rbf_similarity(table([[1.0, 2.0], [1.0, 2.0]]), sigma=3.0)
        assert lay.S[0, 1] == 1.0

    def test_unit_distance_unit_sigma(self):
        lay = rbf_similarity(table([0.0, 1.0]), sigma=1.0)
        assert np.isclose(lay.S[0, 1], np.exp(-1.0), atol=1e-12)
        assert np.isclose(lay.S[0, 1], 0.3678794, atol=1e-7)

    def test_large_sigma_limit(self):
        rng = np.random.default_rng(0)
        lay = rbf_similarity(table(rng.uniform(-5, 5, (6, 3))), sigma=1e9)
        assert (lay.S >= 1 - 1e-6).all()

    def test_sigma_validation(self):
        for sigma in (0.0, -2.0, np.inf, np.nan):
            with pytest.raises(InvalidParameter, match="positive and finite"):
                rbf_similarity(table([0.0, 1.0]), sigma=sigma)

    def test_unit_diagonal(self):
        # the RV weight tables rely on it: see README, "Both weight tables always exist"
        rng = np.random.default_rng(4)
        for sigma in (None, 0.01, 2.0):  # None: auto_sigma
            for _ in range(20):
                rows = rng.uniform(-1e3, 1e3, (rng.integers(1, 12), rng.integers(1, 6)))
                assert np.all(np.diag(rbf_similarity(table(rows), sigma).S) == 1.0)

    def test_duplicate_labels(self):
        with pytest.raises(InvalidInput, match="duplicate node label 'x'"):
            rbf_similarity(table([0.0, 1.0, 2.0], ["x", "y", "x"]))

    def test_auto_sigma_is_mean_squared_distance(self):
        # distances^2 between scalars 0, 1, 3: {1, 9, 4}, mean 14/3
        assert np.isclose(auto_sigma(table([0.0, 1.0, 3.0])), 14.0 / 3.0)

    def test_auto_sigma_degenerate_rows(self):
        assert auto_sigma(table([2.0, 2.0])) == 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-1, 1, (7, 4))
        shift = rng.uniform(-100, 100, 4)
        a = rbf_similarity(table(rows), sigma=2.0)
        b = rbf_similarity(table(rows + shift), sigma=2.0)
        assert np.allclose(a.S, b.S, atol=1e-9)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(2)
        lay = rbf_similarity(table(rng.standard_normal((9, 5))))
        assert np.array_equal(lay.S, lay.S.T)

    @settings(deadline=None)
    @given(
        arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=st.floats(0.0, 10.0)),
        st.sampled_from([None, 1.0, 100.0]),
        st.data(),
    )
    def test_permutation_equivariance(self, rows, sigma, data):
        perm = data.draw(st.permutations(range(len(rows))))
        base = rbf_similarity(table(rows), sigma)
        permuted = rbf_similarity(table(rows[perm], [base.labels[i] for i in perm]), sigma)
        assert permuted.labels == tuple(base.labels[i] for i in perm)
        assert np.abs(permuted.S - base.S[np.ix_(perm, perm)]).max() <= 1e-12


NAN_MATRIX = np.array([[1.0, 0.5, np.nan], [0.5, 1.0, 0.2], [np.nan, 0.2, 1.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda s: distance_correlation(s, np.eye(3)),
        lambda s: louvain_communities(s),
        lambda s: modularity(s, [0, 0, 1]),
        lambda s: local_normalize(s, 1),
        global_normalize,
    ],
    ids=["distance_correlation", "louvain_communities", "modularity", "local_normalize",
         "global_normalize"],
)
def test_bare_array_with_nan_rejected(call):
    # every "layer or array" argument is read by layer_matrix
    with pytest.raises(InvalidInput, match="non-finite"):
        call(NAN_MATRIX)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: SimilarityLayer(("a", "b"), s),
        weights_rowsum,
        lambda s: rv_matrix([s, s]),
        lambda s: distance_correlation(s, s),
    ],
    ids=["SimilarityLayer", "weights_rowsum", "rv_matrix", "distance_correlation"],
)
def test_nonsquare_array_raises_dimension_error(call):
    # layer_matrix reads a bare array with matcore.sym_matrix
    with pytest.raises(DimensionError, match="square"):
        call(np.ones((2, 3)))


NONSYMMETRIC = np.array(
    [[1.0, 0.9, 0.1, 0.2], [0.7, 1.0, 0.3, 0.0], [0.0, 0.2, 1.0, 0.8], [0.1, 0.1, 0.6, 1.0]]
)


def louvain_outcome(s):
    part = louvain_communities(s)
    return [*part.community, part.modularity]


@pytest.mark.parametrize(
    "call",
    [
        lambda s: distance_correlation(s, np.eye(4)),
        lambda s: local_normalize(s, 2),
        global_normalize,
        louvain_outcome,
        lambda s: rv_matrix([s, np.eye(4)]),
        lambda s: barycenter_frobenius([s, np.eye(4)], [0.5, 0.5]).matrix,
    ],
    ids=["distance_correlation", "local_normalize", "global_normalize", "louvain_communities",
         "rv_matrix", "barycenter_frobenius"],
)
def test_bare_array_is_read_as_its_symmetric_part(call):
    assert np.array_equal(call(NONSYMMETRIC), call((NONSYMMETRIC + NONSYMMETRIC.T) / 2))
