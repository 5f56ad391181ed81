"""Independent reference implementations used as test oracles.

Everything here is written from the defining formulas, with scipy (Schur
based matrix functions) or plain Python loops, sharing no code path with the
package under test.  The artifact writers' references build their text with
``csv.writer`` and an ElementTree DOM.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.linalg import inv, sqrtm


# -- matrix means -----------------------------------------------------------


def geometric_mean_pair(a, b):
    """Closed-form geometric mean A#B via scipy's Schur-based sqrtm."""
    a12 = np.real(sqrtm(a))
    am12 = inv(a12)
    return a12 @ np.real(sqrtm(am12 @ b @ am12)) @ a12


def wasserstein_mean_pair(a, b, w1, w2):
    """Closed-form Bures-Wasserstein mean of two SPD matrices.

    ``w1^2 A + w2^2 B + w1 w2 ((AB)^{1/2} + (BA)^{1/2})`` with the cross
    roots computed through the symmetric product.
    """
    a12 = np.real(sqrtm(a))
    am12 = inv(a12)
    cross = a12 @ np.real(sqrtm(a12 @ b @ a12)) @ am12  # (A B)^{1/2}
    return w1 * w1 * a + w2 * w2 * b + w1 * w2 * (cross + cross.T)


def wasserstein_fixed_point_reference(mats, w, iters=5000, tol=1e-14):
    """Literal fixed-point run for the Bures-Wasserstein barycenter."""
    x = sum(wl * m for wl, m in zip(w, mats))
    for _ in range(iters):
        x12 = np.real(sqrtm(x))
        xm12 = inv(x12)
        mean_root = sum(wl * np.real(sqrtm(x12 @ m @ x12)) for wl, m in zip(w, mats))
        new_x = xm12 @ mean_root @ mean_root @ xm12
        new_x = (new_x + new_x.T) / 2.0
        if np.linalg.norm(new_x - x, "fro") < tol:
            x = new_x
            break
        x = new_x
    return x


def log_euclidean_mean(mats, w):
    """exp(sum w_l log S_l) via scipy (coincides with the Karcher mean for
    commuting matrices)."""
    from scipy.linalg import expm, logm

    acc = sum(wl * np.real(logm(m)) for wl, m in zip(w, mats))
    return np.real(expm(acc))


# -- cross diffusion --------------------------------------------------------


def snf_reference(mats, k, eps, max_iter):
    """Literal cross-diffusion run: normalizations, update, re-weighting.

    Returns (fused similarity matrix, status matrices, iterations).
    """
    m = len(mats)
    n = mats[0].shape[0]

    p = [np.asarray(s, float) / np.asarray(s, float).sum() for s in mats]

    q = []
    for s in mats:
        qs = np.zeros((n, n))
        for i in range(n):
            others = [j for j in range(n) if j != i]
            ranked = sorted(others, key=lambda j: (-s[i, j], j))
            nbrs = ranked[:k]
            denom = sum(s[i, j] for j in nbrs)
            if denom > 0:
                for j in nbrs:
                    qs[i, j] = s[i, j] / denom
        q.append(qs)

    t = 0
    for t in range(1, max_iter + 1):
        new_p = []
        res = []
        for l in range(m):
            avg = np.zeros((n, n))
            for h in range(m):
                if h != l:
                    avg += p[h]
            avg /= m - 1
            upd = q[l] @ avg @ q[l].T
            upd = (upd + upd.T) / 2.0
            new_p.append(upd)
            res.append(np.linalg.norm(upd - p[l], "fro"))
        p = new_p
        if max(res) <= eps:
            break

    fused = sum(p) / m
    fused = (fused + fused.T) / 2.0
    out = fused.copy()
    off = out[~np.eye(n, dtype=bool)]
    if n > 1 and off.max() > 0:
        out = out / off.max()
    out = np.clip(out, 0.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return out, p, t


def local_normalize_reference(s, k):
    """k-nearest-neighbour row normalization, one stable sort per row."""
    m = np.asarray(s, dtype=float)
    n = m.shape[0]
    q = np.zeros_like(m)
    for i in range(n):
        others = np.concatenate((np.arange(i), np.arange(i + 1, n)))
        order = np.argsort(-m[i, others], kind="stable")
        nbrs = others[order[:k]]
        total = float(m[i, nbrs].sum())
        if total > 0:
            q[i, nbrs] = m[i, nbrs] / total
    return q


def cdp_step_reference(p_list, q_list):
    """One literal cross-diffusion update of every layer."""
    m = len(p_list)
    out = []
    for l in range(m):
        avg = sum(p_list[h] for h in range(m) if h != l) / (m - 1)
        upd = q_list[l] @ avg @ q_list[l].T
        out.append((upd + upd.T) / 2.0)
    return out


# -- distance correlation ---------------------------------------------------


def dcor_reference(a, b):
    """Textbook distance correlation of row profiles, pure Python loops."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]

    def dist(mat):
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                d[i][j] = math.sqrt(sum((mat[i][k] - mat[j][k]) ** 2 for k in range(mat.shape[1])))
        return d

    def center(d):
        row = [sum(d[i]) / n for i in range(n)]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)]

    ca = center(dist(a))
    cb = center(dist(b))
    dcov2 = sum(ca[i][j] * cb[i][j] for i in range(n) for j in range(n)) / (n * n)
    va = sum(ca[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    vb = sum(cb[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    if va <= 0 or vb <= 0:
        return 0.0
    return math.sqrt(max(dcov2, 0.0) / math.sqrt(va * vb))


# -- modularity -------------------------------------------------------------


def modularity_reference(w, comm, gamma=1.0):
    """Direct double-loop weighted modularity with zeroed diagonal."""
    w = np.asarray(w, float).copy()
    np.fill_diagonal(w, 0.0)
    two_m = w.sum()
    if two_m <= 0:
        return 0.0
    k = w.sum(axis=1)
    n = w.shape[0]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if comm[i] == comm[j]:
                q += w[i, j] / two_m - gamma * k[i] * k[j] / (two_m * two_m)
    return q


def renumber_reference(comm):
    """Community indices 0, 1, ... in order of first occurrence, by a dict scan."""
    mapping = {}
    out = np.empty_like(comm)
    for i, c in enumerate(comm):
        if c not in mapping:
            mapping[c] = len(mapping)
        out[i] = mapping[c]
    return out


def greedy_pass_reference(w, resolution, rng):
    """Louvain's local-move phase with a per-community candidate loop.

    Same sweep order, scores and 1e-12 gain threshold as the package; the
    ascending scan with a strict ``>`` breaks ties toward the smallest index.
    """
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
            base = links[c_old] - resolution * k[i] * tot[c_old] / two_m
            best_c, best_score = c_old, base
            for c in np.flatnonzero(links > 0):
                if c == c_old:
                    continue
                score = links[c] - resolution * k[i] * tot[c] / two_m
                if score > best_score:
                    best_c, best_score = c, score
            gain = 2.0 * (best_score - base) / two_m
            if best_c != c_old and gain > 1e-12:
                comm[i] = best_c
                moved = True
                moved_any = True
            tot[comm[i]] += k[i]
        if not moved:
            break
    return moved_any, renumber_reference(comm)


def best_two_block(w, gamma=1.0):
    """Exhaustive search over all 2-block partitions (node 0 fixed)."""
    n = w.shape[0]
    best_q = -np.inf
    best = None
    for bits in itertools.product((0, 1), repeat=n - 1):
        comm = np.array((0,) + bits)
        q = modularity_reference(w, comm, gamma)
        if q > best_q:
            best_q = q
            best = comm
    return best_q, best


# -- artifact writers -------------------------------------------------------


def _fmt17(x):
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return format(x, ".17g")


def _csv_text(rows):
    """``csv.writer`` rows ended by LF, quoting a field that holds CR as well as LF.

    Each row is written with a CRLF terminator, which makes ``csv.writer``
    quote both characters, and its terminator is then replaced by LF.
    """
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def similarity_csv_reference(labels, matrix):
    """Text of a labelled full-matrix CSV, one ``csv.writer`` field per value."""
    rows = [[""] + list(labels)]
    for lab, row in zip(labels, np.asarray(matrix, dtype=float)):
        rows.append([lab] + [_fmt17(v) for v in row])
    return _csv_text(rows)


def export_graph_reference(labels, s, community, fmt, threshold):
    """Text of an edge list, GraphML file or matrix CSV of the network ``s``.

    ``community`` holds one community index per label, or is None.  GraphML
    is built as an ElementTree DOM, indented and serialized.
    """
    if fmt == "csv-matrix":
        return similarity_csv_reference(labels, s)
    iu, ju = np.triu_indices(len(labels), 1)
    w = s[iu, ju]
    keep = w > threshold
    edges = [(labels[i], labels[j], _fmt17(x)) for i, j, x in zip(iu[keep], ju[keep], w[keep])]
    if fmt == "edge-list":
        return _csv_text([("source", "target", "weight"), *edges])
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    ET.SubElement(
        root, "key", id="w", **{"for": "edge"}, attrib={"attr.name": "weight", "attr.type": "double"}
    )
    if community is not None:
        ET.SubElement(
            root, "key", id="c", **{"for": "node"}, attrib={"attr.name": "community", "attr.type": "int"}
        )
    graph = ET.SubElement(root, "graph", id="G", edgedefault="undirected")
    for idx, lab in enumerate(labels):
        node = ET.SubElement(graph, "node", id=lab)
        if community is not None:
            ET.SubElement(node, "data", key="c").text = str(int(community[idx]))
    for source, target, weight in edges:
        edge = ET.SubElement(graph, "edge", source=source, target=target)
        ET.SubElement(edge, "data", key="w").text = weight
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"
