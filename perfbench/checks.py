"""Output checks, written with numpy and scipy only.

Each check reads one run's artifact directory (``run_pipeline``'s
``output_dir``) and returns a list of problems; an empty list means it
passed.  None of them calls multifuse.  ``self_test`` corrupts copies of a
good artifact set and confirms that every applicable check then fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

BARYCENTERS = ("sma-frobenius", "sma-riemannian", "sma-wasserstein")
FIXED_POINT_TOL = 1e-8
DCOR_TOL = 1e-6
MIN_ARI = 0.9
# The solvers' documented layer regularization: a layer whose smallest
# eigenvalue is below 1e-12 * max(1, trace/n) gets jitter * (trace/n) * I,
# with jitter 1e-8 for the Riemannian metric and 0 for Wasserstein.
EIG_FLOOR_REL = 1e-12
RIEMANNIAN_JITTER = 1e-8


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0][1:]
    return labels, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def _eig_fn(a: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * fn(w)) @ v.T


def _sqrt_psd(a):
    return _eig_fn(a, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def _layers(run: Path) -> list[np.ndarray]:
    report = json.loads((run / "report.json").read_text())
    return [read_matrix(run / "layers" / f"{name}.csv")[1] for name in report["layers"]]


def _weights(run: Path, method: str) -> np.ndarray:
    report = json.loads((run / "report.json").read_text())
    return np.array(report["fusion"][method]["weights"])


def check_monoplexes(run: Path) -> list[str]:
    problems = []
    for path in sorted(run.glob("monoplex_*.csv")):
        s = read_matrix(path)[1]
        if not np.array_equal(s, s.T):
            problems.append(f"{path.name}: not symmetric")
        if s.min() < 0.0 or s.max() > 1.0:
            problems.append(f"{path.name}: entries outside [0, 1]")
    if not problems and not list(run.glob("monoplex_*.csv")):
        problems.append("no monoplex written")
    return problems


def wasserstein_residual(x, layers, w) -> float:
    """||X - sum_l w_l (X^1/2 S_l X^1/2)^1/2||_F / ||X||_F."""
    xs = _sqrt_psd(x)
    mean_root = sum(wl * _sqrt_psd(xs @ s @ xs) for wl, s in zip(w, layers))
    return float(np.linalg.norm(x - mean_root) / np.linalg.norm(x))


def riemannian_tangent_norm(x, layers, w) -> float:
    """||sum_l w_l log(X^-1/2 S_l X^-1/2)||_F with the solver's layer jitter."""
    n = x.shape[0]
    xis = _eig_fn(x, lambda v: 1.0 / np.sqrt(v))
    tangent = np.zeros_like(x)
    for wl, s in zip(w, layers):
        scale = float(np.trace(s)) / n
        if np.linalg.eigvalsh(s).min() < EIG_FLOOR_REL * max(1.0, scale):
            s = s + RIEMANNIAN_JITTER * scale * np.eye(n)
        tangent += wl * _eig_fn(xis @ s @ xis, np.log)
    return float(np.linalg.norm(tangent))


def check_barycenters(run: Path) -> list[str]:
    problems = []
    layers = None
    for method, residual in (("sma-wasserstein", wasserstein_residual),
                             ("sma-riemannian", riemannian_tangent_norm)):
        path = run / f"monoplex_{method}.csv"
        if not path.exists():
            continue
        layers = layers or _layers(run)
        value = residual(read_matrix(path)[1], layers, _weights(run, method))
        if not value <= FIXED_POINT_TOL:
            problems.append(f"{method}: fixed-point residual {value:.3e} > {FIXED_POINT_TOL:g}")
    return problems


def dcor(a: np.ndarray, b: np.ndarray) -> float:
    """Distance correlation of two networks' row profiles, O(n^2) memory."""
    da = squareform(pdist(a))
    db = squareform(pdist(b))
    da = da - da.mean(axis=0) - da.mean(axis=1)[:, None] + da.mean()
    db = db - db.mean(axis=0) - db.mean(axis=1)[:, None] + db.mean()
    dvar = float((da * da).mean()) * float((db * db).mean())
    if dvar <= 0.0:
        return 0.0
    return float(min(np.sqrt(max(float((da * db).mean()), 0.0) / np.sqrt(dvar)), 1.0))


def check_dcor(run: Path) -> list[str]:
    problems = []
    names, table = read_matrix(run / "dcor_monoplexes.csv")
    mono = {name: read_matrix(run / f"monoplex_{name}.csv")[1] for name in names}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            ref = dcor(mono[a], mono[b])
            if not abs(table[i, j] - ref) <= DCOR_TOL:
                problems.append(f"dcor({a}, {b}) = {table[i, j]!r}, reference {ref!r}")
    path = run / "dcor_snf_vs_layers.csv"
    if path.exists():
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for name, value in rows:
            ref = dcor(mono["snf"], read_matrix(run / "layers" / f"{name}.csv")[1])
            if not abs(float(value) - ref) <= DCOR_TOL:
                problems.append(f"dcor(snf, {name}) = {value}, reference {ref!r}")
    return problems


def ari(a, b) -> float:
    """Adjusted Rand index of two labelings of the same items."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(table, (ia, ib), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([len(ia)]))
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def partition_ari(run: Path, planted: dict[str, int]) -> dict[str, float]:
    found: dict[str, dict[str, int]] = {}
    with open(run / "partitions.csv", newline="") as fh:
        for method, label, community in list(csv.reader(fh))[1:]:
            found.setdefault(method, {})[label] = int(community)
    return {
        method: ari([planted[k] for k in planted], [comm.get(k, -1) for k in planted])
        for method, comm in found.items()
    }


def group_contrast(run: Path, planted: dict[str, int], method: str) -> dict[str, float]:
    """Mean off-diagonal similarity within and between planted groups."""
    labels, s = read_matrix(run / f"monoplex_{method}.csv")
    g = np.array([planted[lab] for lab in labels])
    same = g[:, None] == g[None, :]
    np.fill_diagonal(same, False)
    between = g[:, None] != g[None, :]
    return {"within": float(s[same].mean()), "between": float(s[between].mean())}


def check_partitions(run: Path, planted: dict[str, int]) -> list[str]:
    scores = partition_ari(run, planted)
    return [f"{m}: ARI {scores[m]:.4f} < {MIN_ARI}" for m in BARYCENTERS
            if m in scores and not scores[m] >= MIN_ARI]


def content_checks(run: Path, planted: dict[str, int]) -> list[str]:
    return (check_monoplexes(run) + check_barycenters(run) + check_dcor(run)
            + check_partitions(run, planted))


# ---------------------------------------------------------------------------
# self-test: every check must fail on a corrupted copy of good artifacts


def _rewrite_matrix(path: Path, edit):
    labels, s = read_matrix(path)
    s = edit(s)
    lines = ["," + ",".join(labels)]
    lines += [lab + "," + ",".join(format(v, ".17g") for v in row) for lab, row in zip(labels, s)]
    path.write_text("\n".join(lines) + "\n")


def _flip_byte(run: Path):
    path = run / "report.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _nudge(delta):
    """Edit moving entries (0, 1) and (1, 0) by ``delta``."""
    def edit(s):
        s = s.copy()
        s[0, 1] = s[1, 0] = abs(s[0, 1] - delta)
        return s
    return edit


def _asymmetric(run: Path):
    def edit(s):
        s = s.copy()
        s[0, 1] = np.nextafter(s[0, 1], -1.0)
        return s
    _rewrite_matrix(sorted(run.glob("monoplex_*.csv"))[0], edit)


def _perturb_barycenters(run: Path):
    for method in ("sma-wasserstein", "sma-riemannian"):
        _rewrite_matrix(run / f"monoplex_{method}.csv", _nudge(1e-5))


def _perturb_dcor_table(run: Path):
    _rewrite_matrix(run / "dcor_monoplexes.csv", _nudge(1e-4))


def _perturb_dcor_layers(run: Path):
    path = run / "dcor_snf_vs_layers.csv"
    header, first, *rest = path.read_text().splitlines()
    name, value = first.split(",")
    path.write_text("\n".join([header, f"{name},{abs(float(value) - 1e-4)!r}", *rest]) + "\n")


def _merge_communities(run: Path):
    path = run / "partitions.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = rows[:1] + [[m, lab, "0"] for m, lab, _ in rows[1:]]
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def self_test(good: Path, planted: dict[str, int], scratch: Path) -> dict[str, str]:
    """Run each check on a corrupted copy of ``good``; "detected" is a pass."""
    reference = digest_tree(good)
    cases = [
        ("byte_identity", _flip_byte, lambda run: digest_tree(run) != reference),
        ("monoplex", _asymmetric, lambda run: bool(check_monoplexes(run))),
    ]
    if (good / "dcor_snf_vs_layers.csv").exists():
        cases.append(("dcor_layers", _perturb_dcor_layers, lambda run: bool(check_dcor(run))))
    if (good / "monoplex_sma-wasserstein.csv").exists():
        cases += [
            ("dcor_table", _perturb_dcor_table, lambda run: bool(check_dcor(run))),
            ("fixed_point", _perturb_barycenters, lambda run: len(check_barycenters(run)) == 2),
            ("partition_ari", _merge_communities, lambda run: bool(check_partitions(run, planted))),
        ]
    outcome = {}
    for name, corrupt, fails in cases:
        copy = scratch / f"selftest-{name}"
        shutil.copytree(good, copy)
        try:
            corrupt(copy)
            outcome[name] = "detected" if fails(copy) else "MISSED"
        finally:
            shutil.rmtree(copy)
    return outcome
