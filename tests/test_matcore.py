from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multifuse.errors import DimensionError, InvalidInput, InvalidParameter, SingularMatrix
from multifuse.matcore import (
    MATRIX_FUNCTIONS,
    eig_floor,
    fro_norm,
    spectral_fns,
    sq_distances,
    sym_eigen,
    sym_matrix,
)

SQRT3 = np.sqrt(3.0)
TAG_SETS = [c for r in range(1, 5) for c in combinations(MATRIX_FUNCTIONS, r)]


def mat_fn(M, f):
    """One matrix function of a validated matrix through the spectral kernel."""
    return spectral_fns(sym_matrix(M), f)[0]


class TestSymMatrix:
    def test_symmetrizes(self):
        m = sym_matrix([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(m, m.T)
        assert m[0, 1] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_matrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            sym_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            sym_matrix(np.zeros((0, 0)))


class TestSymEigen:
    def test_identity(self):
        values, vectors = sym_eigen(np.eye(3))
        assert np.allclose(values, [1.0, 1.0, 1.0])
        assert np.allclose(vectors @ vectors.T, np.eye(3))

    def test_diagonal(self):
        values, vectors = sym_eigen(np.diag([4.0, 1.0]))
        assert np.array_equal(values, [4.0, 1.0])
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 = 1 -> x in {3, 1}
        values, vectors = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(values, [3.0, 1.0], atol=1e-14)
        # sign convention: first nonzero component positive
        assert (vectors[0] > 0).all()

    def test_nonincreasing_and_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = sym_matrix(rng.standard_normal((6, 6)))
            values, vectors = sym_eigen(m)
            assert (np.diff(values) <= 0).all()
            assert fro_norm(vectors.T @ vectors - np.eye(6)) <= 1e-10 * 6
            assert fro_norm((vectors * values) @ vectors.T - m) <= 1e-10 * (1 + fro_norm(m))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        m = sym_matrix(rng.standard_normal((8, 8)))
        a = sym_eigen(m)
        b = sym_eigen(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            sym_eigen([[np.inf, 0.0], [0.0, 1.0]])


class TestMatFn:
    """The matrix functions of ``spectral_fns``, one tag at a time and together."""

    def test_sqrt_diagonal(self):
        assert np.allclose(mat_fn(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0]))

    def test_log_identity(self):
        assert np.allclose(mat_fn(np.eye(3), "log"), np.zeros((3, 3)))

    def test_sqrt_two_by_two(self):
        # reassembled by hand from the eigenpair (3, 1)
        expected = 0.5 * np.array([[SQRT3 + 1, SQRT3 - 1], [SQRT3 - 1, SQRT3 + 1]])
        assert np.allclose(mat_fn([[2.0, 1.0], [1.0, 2.0]], "sqrt"), expected, atol=1e-14)

    def test_sqrt_roundtrip_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = rng.standard_normal((8, 8))
            m = sym_matrix(a.T @ a)
            root = mat_fn(m, "sqrt")
            assert fro_norm(root @ root - m) <= 1e-9 * fro_norm(m)

    def test_exp_log_roundtrip_pd(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = rng.standard_normal((8, 8))
            m = sym_matrix(a.T @ a) + 0.5 * np.eye(8)
            assert fro_norm(mat_fn(mat_fn(m, "log"), "exp") - m) <= 1e-9 * fro_norm(m)

    def test_invsqrt(self):
        m = sym_matrix([[2.0, 1.0], [1.0, 2.0]])
        inv_root = mat_fn(m, "invsqrt")
        assert np.allclose(inv_root @ m @ inv_root, np.eye(2), atol=1e-12)

    def test_log_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_fn(np.diag([1.0, 0.0]), "log")

    def test_invsqrt_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_fn(np.diag([1.0, 1e-15]), "invsqrt")

    def test_unknown_tag(self):
        with pytest.raises(InvalidParameter):
            mat_fn(np.eye(2), "cube")
        with pytest.raises(InvalidParameter):
            spectral_fns(np.eye(2), "sqrt", "cube")

    @pytest.mark.parametrize("tags", TAG_SETS, ids="+".join)
    def test_spectral_fns_match_mat_fn(self, tags):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((7, 7))
        m = sym_matrix(a.T @ a + 0.5 * np.eye(7))
        out = spectral_fns(m, *tags)
        assert len(out) == len(tags)
        for f, x in zip(tags, out):
            assert np.array_equal(x, mat_fn(m, f)), f
            assert np.array_equal(x, x.T)

    def test_spectral_fns_checks(self):
        with pytest.raises(SingularMatrix):
            spectral_fns(np.diag([1.0, 0.0]), "sqrt", "invsqrt")
        (root,) = spectral_fns(np.diag([4.0, -1.0]), "sqrt")
        assert np.array_equal(root, np.diag([2.0, 0.0]))
        assert np.allclose(spectral_fns(np.diag([-50.0, 1.0]), "exp")[0], np.diag(np.exp([-50.0, 1.0])))

    def test_spectral_fns_extremes(self):
        m = sym_matrix([[2.0, 1.0], [1.0, 2.0]])
        root, (lo, hi) = spectral_fns(m, "sqrt", extremes=True)
        assert np.array_equal(root, spectral_fns(m, "sqrt")[0])
        assert np.allclose((lo, hi), (1.0, 3.0), rtol=1e-14)
        assert spectral_fns(np.diag([5.0, -2.0, 0.5]), extremes=True) == ((-2.0, 5.0),)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_spectral_fns_reject_nonfinite(self, bad):
        m = np.eye(3)
        m[1, 0] = m[0, 1] = bad
        for tags in TAG_SETS:
            with pytest.raises(InvalidInput):
                spectral_fns(m, *tags)


def test_eig_floor_scales_with_trace():
    assert eig_floor(np.eye(3)) == 1e-12
    assert eig_floor(100.0 * np.eye(3)) == 1e-10


@st.composite
def offset_rows(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 8))
    base = draw(arrays(float, (n, p), elements=st.floats(-10.0, 10.0)))
    offset = draw(arrays(float, p, elements=st.floats(-1e6, 1e6)))
    return base + offset, draw(st.permutations(range(n)))


@settings(deadline=None)
@given(offset_rows())
def test_sq_distances_match_explicit_differences(case):
    rows, perm = case
    d2 = sq_distances(rows)
    diff = rows[:, None, :] - rows[None, :, :]
    ref = np.einsum("ijk,ijk->ij", diff, diff)
    tol = 1e-9 * max(1.0, ref.max())
    assert np.abs(d2 - ref).max() <= tol
    assert np.array_equal(d2, d2.T)
    assert not np.diag(d2).any()
    assert d2.min() >= 0.0
    perm = np.array(perm)
    assert np.abs(sq_distances(rows[perm]) - d2[np.ix_(perm, perm)]).max() <= tol
