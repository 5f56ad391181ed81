"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from multifuse.matcore import fro_norm
from multifuse.netanalysis import distance_correlation, louvain_communities
from multifuse.pipeline import PipelineConfig, run_pipeline
from multifuse.simbuild import Multiplex, SimilarityLayer
from multifuse.sma import (
    barycenter_frobenius,
    barycenter_riemannian,
    barycenter_wasserstein,
    rv_matrix,
    uniform_weights,
    weights_frobenius,
    weights_rowsum,
)
from multifuse.snf import SnfConfig, snf_fuse

from oracles import (
    best_two_block,
    dcor_reference,
    geometric_mean_pair,
    snf_reference,
    wasserstein_fixed_point_reference,
    wasserstein_mean_pair,
)

DATA = Path(__file__).parent / "data" / "synthetic"


def rand_spd(rng, n, lo=1e-2, hi=1e2):
    """Random SPD matrix with condition number at most hi/lo."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return (q * vals) @ q.T


def rand_cp(rng, n):
    """Nonnegative PSD matrix with unit diagonal."""
    y = rng.random((n + 2, n))
    s = y.T @ y
    d = np.sqrt(np.diag(s))
    s = s / np.outer(d, d)
    s = np.minimum((s + s.T) / 2, 1.0)  # normalization roundoff can leave 1+ulp
    np.fill_diagonal(s, 1.0)
    return s


def two_block_layer(n=8, within=0.9, between=0.1):
    half = n // 2
    s = np.full((n, n), between)
    s[:half, :half] = within
    s[half:, half:] = within
    np.fill_diagonal(s, 1.0)
    return SimilarityLayer(tuple(f"n{i}" for i in range(n)), s)


def offdiag(m):
    return m[~np.eye(m.shape[0], dtype=bool)]


def test_c01_riemannian_pair_matches_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a, b = rand_spd(rng, 10), rand_spd(rng, 10)
        res = barycenter_riemannian([a, b], [0.5, 0.5])
        worst = max(worst, fro_norm(res.matrix - geometric_mean_pair(a, b)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, worst
    assert elapsed < 10.0, elapsed
    print(f"ACCEPTANCE 01 riemannian m=2 oracle: worst {worst:.2e}, {elapsed:.2f}s PASS")


def test_c02_wasserstein_pair_matches_closed_form():
    rng = np.random.default_rng(102)
    # validate the closed form once against a long literal fixed-point run
    a, b = rand_spd(rng, 10), rand_spd(rng, 10)
    closed = wasserstein_mean_pair(a, b, 0.5, 0.5)
    reference = wasserstein_fixed_point_reference([a, b], [0.5, 0.5])
    assert fro_norm(closed - reference) <= 1e-10
    worst = 0.0
    for _ in range(100):
        a, b = rand_spd(rng, 10), rand_spd(rng, 10)
        res = barycenter_wasserstein([a, b], [0.5, 0.5])
        worst = max(worst, fro_norm(res.matrix - wasserstein_mean_pair(a, b, 0.5, 0.5)))
    assert worst <= 1e-8, worst
    print(f"ACCEPTANCE 02 wasserstein m=2 oracle: worst {worst:.2e} PASS")


def test_c03_fixed_points_and_rank_preservation():
    layer = two_block_layer(8)
    s = layer.S
    w = uniform_weights(3)
    for solver in (barycenter_frobenius, barycenter_riemannian, barycenter_wasserstein):
        if solver is barycenter_frobenius:
            res = solver([s, s, s], w)
        else:
            res = solver([s, s, s], w)
        assert fro_norm(res.matrix - s) <= 1e-10, solver.__name__

    mx = Multiplex((layer, layer, layer))
    fused = snf_fuse(mx, SnfConfig(k=7, epsilon=1e-6))
    assert fused.converged
    rho = spearmanr(offdiag(fused.matrix), offdiag(s)).statistic
    assert rho == 1.0, rho
    print("ACCEPTANCE 03 identical-layer fixed points, spearman 1.0 PASS")


def test_c04_swelling_order():
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 6))
        mats = [rand_cp(rng, n) for _ in range(m)]
        w = rng.dirichlet(np.ones(m))
        f = barycenter_frobenius(mats, w).matrix
        ws = barycenter_wasserstein(mats, w).matrix
        gap = (f - ws + (f - ws).T) / 2
        assert np.linalg.eigvalsh(gap).min() >= -1e-8
        assert np.linalg.det(ws) <= np.linalg.det(f) + 1e-8
    print("ACCEPTANCE 04 swelling order (F - W psd, det order) on 200 multiplexes PASS")


def test_c05_scalar_ordering():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        layers = [np.array([[v]]) for v in rng.uniform(0.1, 10.0, m)]
        w = rng.dirichlet(np.ones(m))
        f = barycenter_frobenius(layers, w).matrix[0, 0]
        r = barycenter_riemannian(layers, w).matrix[0, 0]
        ws = barycenter_wasserstein(layers, w).matrix[0, 0]
        assert r <= ws + 1e-12
        assert ws <= f + 1e-12
    print("ACCEPTANCE 05 scalar ordering R <= W <= F on 1000 multiplexes PASS")


def test_c06_weight_contracts():
    rng = np.random.default_rng(106)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        rv = rv_matrix([rand_cp(rng, 6) for _ in range(m)])
        for w in (weights_frobenius(rv), weights_rowsum(rv)):
            assert w.min() >= 0.0
            assert abs(float(w.sum()) - 1.0) <= 1e-12

    s = rand_cp(rng, 7)
    layer = SimilarityLayer(tuple(f"n{i}" for i in range(7)), s)
    rv = rv_matrix(Multiplex((layer, layer, layer, layer)))
    for w in (weights_frobenius(rv), weights_rowsum(rv)):
        assert np.abs(w - 0.25).max() <= 1e-12
    print("ACCEPTANCE 06 weight contracts (sum 1, nonneg, uniform on ties) PASS")


def test_c07_snf_convergence_and_oracle():
    rng = np.random.default_rng(107)
    cfg = SnfConfig(k=4, epsilon=1e-6, max_iter=200)
    for _ in range(100):
        mats = []
        for _ in range(4):
            s = rng.uniform(0.0, 1.0, (12, 12))
            s = (s + s.T) / 2
            np.fill_diagonal(s, 1.0)
            mats.append(SimilarityLayer(tuple(f"n{i}" for i in range(12)), s))
        res = snf_fuse(Multiplex(tuple(mats)), cfg)
        assert res.converged and res.iterations <= 200
        assert res.residual < 1e-6

    s1 = np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.3], [0.1, 0.3, 1.0]])
    s2 = np.array([[1.0, 0.2, 0.7], [0.2, 1.0, 0.5], [0.7, 0.5, 1.0]])
    s3 = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])
    labels = ("a", "b", "c")
    mx = Multiplex(tuple(SimilarityLayer(labels, s) for s in (s1, s2, s3)))
    res = snf_fuse(mx, SnfConfig(k=2, epsilon=1e-8))
    ref, _, _ = snf_reference([s1, s2, s3], k=2, eps=1e-8, max_iter=100)
    assert res.converged
    assert np.abs(res.matrix - ref).max() <= 1e-10
    print("ACCEPTANCE 07 snf convergence on 100 multiplexes, 3-node oracle match PASS")


def test_c08_dcor_contracts():
    rng = np.random.default_rng(108)

    def rand_net(n):
        s = rng.uniform(0.0, 1.0, (n, n))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 1.0)
        return s

    for _ in range(50):
        a = rand_net(int(rng.integers(3, 12)))
        assert abs(distance_correlation(a, a) - 1.0) <= 1e-12

    for _ in range(500):
        n = int(rng.integers(3, 12))
        a, b = rand_net(n), rand_net(n)
        v = distance_correlation(a, b)
        assert v == distance_correlation(b, a)
        assert 0.0 <= v <= 1.0

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
    print("ACCEPTANCE 08 dcor contracts (self=1, symmetry, range, oracle) PASS")


def test_c09_louvain():
    w = np.zeros((8, 8))
    w[:4, :4] = 1.0
    w[4:, 4:] = 1.0
    np.fill_diagonal(w, 0.0)
    part = louvain_communities(w)
    assert part.n_communities == 2
    assert len(set(part.community[:4])) == 1 and len(set(part.community[4:])) == 1
    assert part.community[0] != part.community[4]

    s = np.full((10, 10), 0.1)
    s[:5, :5] = 0.9
    s[5:, 5:] = 0.9
    np.fill_diagonal(s, 1.0)
    part = louvain_communities(s)
    zeroed = np.where(np.eye(10, dtype=bool), 0.0, s)
    best_q, best_comm = best_two_block(zeroed)
    got = {frozenset(np.flatnonzero(part.community == c)) for c in range(part.n_communities)}
    want = {frozenset(np.flatnonzero(best_comm == c)) for c in range(2)}
    assert got == want
    assert abs(part.modularity - best_q) <= 1e-12

    rng = np.random.default_rng(109)
    r = rng.uniform(0.0, 1.0, (12, 12))
    r = (r + r.T) / 2
    np.fill_diagonal(r, 1.0)
    first = louvain_communities(r, seed=5)
    second = louvain_communities(r, seed=5)
    assert np.array_equal(first.community, second.community)
    assert first.modularity == second.modularity
    print("ACCEPTANCE 09 louvain (cliques, planted blocks vs enumeration, determinism) PASS")


def test_c10_pipeline_regression(tmp_path):
    paths = tuple(sorted(str(p) for p in DATA.glob("*.csv")))
    assert len(paths) == 9
    start = time.perf_counter()
    report_a = run_pipeline(PipelineConfig(inputs=paths, output_dir=str(tmp_path / "a")))
    run_pipeline(PipelineConfig(inputs=paths, output_dir=str(tmp_path / "b")))
    elapsed = time.perf_counter() - start

    # byte-identical artifacts across the two runs
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    # shapes: 16 entities after filtering, 4 monoplexes, 4x4 dcor table,
    # 9-entry snf-vs-layer table
    assert report_a.filter_log.total == 18
    assert len(report_a.filter_log.retained) == 16
    assert report_a.filter_log.removed_everywhere == ("sp017",)
    assert report_a.filter_log.removed_partial == (("sp018", ("layer03",)),)
    assert len(report_a.fusion) == 4
    assert all(r.converged for r in report_a.fusion.values())
    table = report_a.monoplex_dcor
    assert table.S.shape == (4, 4)
    assert np.array_equal(table.S, table.S.T)
    assert np.abs(np.diag(table.S) - 1.0).max() <= 1e-12
    assert len(report_a.snf_layer_dcor) == 9
    assert all(0.0 <= v <= 1.0 for _, v in report_a.snf_layer_dcor)

    # regression canaries frozen from the first validated run
    names = table.labels
    i_snf, i_f, i_w = names.index("snf"), names.index("sma-frobenius"), names.index("sma-wasserstein")
    assert abs(table.S[i_snf, i_f] - 0.9801365703268942) <= 1e-6
    assert abs(table.S[i_f, i_w] - 0.9992047243532995) <= 1e-6
    assert abs(report_a.weight_tables["frobenius"][0] - 0.1107276001036403) <= 1e-6

    # the three barycenter monoplexes recover the planted two groups
    planted = np.array([0] * 8 + [1] * 8)
    for method in ("sma-frobenius", "sma-riemannian", "sma-wasserstein"):
        part = report_a.partitions[method]
        assert part.n_communities == 2
        agree = (part.community == planted).all() or (part.community == 1 - planted).all()
        assert agree, method

    assert elapsed < 30.0, elapsed
    print(f"ACCEPTANCE 10 pipeline regression (byte-identical, shapes, canaries) {elapsed:.2f}s PASS")
