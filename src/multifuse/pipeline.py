"""End-to-end pipeline: abundance tables in, fused networks and reports out.

Input contract (one CSV per layer): the header row holds the site ids (first
cell is an arbitrary entity-column title), each following row holds an entity
id and its nonnegative measurements.  The layer name is the file stem.

Every artifact is plain CSV or JSON with floats rendered at 17 significant
digits, so outputs are diffable and runs with identical inputs and
configuration are byte-identical.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    EmptyAfterFilter,
    EmptyTable,
    InvalidInput,
    InvalidParameter,
    ParseError,
    check_field_types,
)
from .netanalysis import (
    Partition,
    centered_distances,
    correlation_table,
    distance_correlation,
    louvain_communities,
)
from .parallel import map_ordered
from .simbuild import FeatureTable, Multiplex, SimilarityLayer, rbf_layer
from .sma import (
    BarycenterConfig,
    rv_matrix,
    solve_barycenter,
    uniform_weights,
    weights_frobenius,
    weights_rowsum,
)
from .snf import FusionResult, SnfConfig, snf_fuse

__all__ = [
    "FilterLog",
    "PipelineConfig",
    "RunReport",
    "load_abundance_tables",
    "filter_entities",
    "run_pipeline",
    "fuse_stages",
    "fuse_method",
    "export_graph",
    "load_similarity_csv",
    "write_similarity_csv",
    "fmt17",
    "dumps_json17",
    "ALL_METHODS",
    "WEIGHT_MODES",
    "EXPORT_FORMATS",
]

ALL_METHODS = ("snf", "sma-frobenius", "sma-riemannian", "sma-wasserstein")
WEIGHT_MODES = ("paired", "uniform", "rv-leading-eigenvector", "rv-rowsum")
EXPORT_FORMATS = ("edge-list", "graphml", "csv-matrix")


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact).

    Adding 0.0 folds -0.0 into 0.0.  ``_chars17`` renders arrays of floats
    to the same texts.
    """
    return "%.17g" % (float(x) + 0.0)


def _json_fragment(obj) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidInput(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json17(obj, indent: int = 0) -> str:
    """JSON text with every float at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_json17(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps_json17(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_fragment(obj)


def _read_csv_records(path: Path) -> list[tuple[int, list[str]]]:
    """The nonblank records of a UTF-8 CSV file, each with the file line it starts on.

    A record that ``csv`` rejects, such as one whose unclosed quote runs past
    the field size limit, raises ``ParseError`` naming the line it starts on.
    """
    numbered = []
    first = 1
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    numbered.append((first, row))
                first = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}:{first}: {exc}") from exc
    return numbered


def _numbers(path: Path, lineno: int, cells) -> list[float]:
    """The cells of one record as floats; a cell that is not a number raises ``ParseError``."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        for cell in cells:
            try:
                float(cell)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: not a number: {cell!r}") from exc


def _check_values(path: Path, numbered, v: np.ndarray, upper: float = np.inf):
    """Raise ``ParseError`` at the first entry of ``v`` outside [0, upper] or not finite.

    ``v[r, c]`` was read from cell ``c + 1`` of record ``numbered[r]``; the
    message names that record's file line and the cell's text.
    """
    bad = np.argwhere(~((v >= 0) & (v <= upper) & (v < np.inf)))  # nan fails every test
    if len(bad):
        r, c = bad[0]
        lineno, row = numbered[r]
        x, cell = v[r, c], row[c + 1]
        if not np.isfinite(x):
            raise ParseError(f"{path}:{lineno}: non-finite value {cell!r}")
        if x < 0:
            raise ParseError(f"{path}:{lineno}: negative value {cell!r}")
        raise ParseError(f"{path}:{lineno}: value {cell!r} above {upper:g}")


def _parse_abundance_csv(path: Path) -> FeatureTable:
    numbered = _read_csv_records(path)
    if not numbered:
        raise ParseError(f"{path}: file is empty")
    lineno, header = numbered[0]
    if len(header) < 2:
        raise ParseError(f"{path}:{lineno}: header needs an entity column and at least one site")
    if len(numbered) == 1:
        raise EmptyTable(f"{path}: header only, no entities")
    ids: list[str] = []
    seen: set[str] = set()
    values = []
    for lineno, row in numbered[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
            )
        entity = row[0].strip()
        if not entity:
            raise ParseError(f"{path}:{lineno}: missing entity id")
        if entity in seen:
            raise ParseError(f"{path}:{lineno}: duplicate entity id {entity!r}")
        seen.add(entity)
        values.append(_numbers(path, lineno, row[1:]))
        ids.append(entity)
    v = np.array(values)
    _check_values(path, numbered[1:], v)
    return FeatureTable(tuple(ids), v, path.stem)


def load_abundance_tables(paths) -> list[FeatureTable]:
    """Load one abundance CSV per layer onto a shared entity universe.

    Each table is named by its file stem.  Entity ids are unioned across
    files and sorted; an entity missing from a file appears there as an
    all-zero row (to be removed by the filter).
    """
    tables = [_parse_abundance_csv(Path(p)) for p in paths]
    if not tables:
        raise InvalidInput("no input files given")
    universe = tuple(sorted(set().union(*(t.labels for t in tables))))
    row_of = {e: i for i, e in enumerate(universe)}
    out = []
    for t in tables:
        rows = np.zeros((len(universe), t.rows.shape[1]))
        rows[[row_of[e] for e in t.labels]] = t.rows
        out.append(FeatureTable(universe, rows, t.name))
    return out


@dataclass
class FilterLog:
    """Record of the two-pass entity filter."""

    total: int
    removed_everywhere: tuple[str, ...]
    removed_partial: tuple[tuple[str, tuple[str, ...]], ...]  # (entity, absent layers)
    retained: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "removed_absent_everywhere": list(self.removed_everywhere),
            "removed_absent_in_some_layer": {
                e: list(layers) for e, layers in self.removed_partial
            },
            "retained": list(self.retained),
            "counts": {
                "pass1": len(self.removed_everywhere),
                "pass2": len(self.removed_partial),
                "retained": len(self.retained),
            },
        }


def filter_entities(tables) -> tuple[list[FeatureTable], FilterLog]:
    """Drop entities absent everywhere, then entities absent in any layer.

    The tables hold abundances: they must share one list of distinct entity
    ids, and their values must be nonnegative.  An entity absent from a layer
    is an all-zero row there; such rows have zero similarity to everything
    and break the fusion machinery, so they are removed with a logged reason.
    """
    tables = list(tables)
    if not tables:
        raise InvalidInput("no tables to filter")
    ids = tables[0].labels
    if len(set(ids)) != len(ids):
        raise InvalidInput("duplicate entity ids")
    for t in tables:
        if t.labels != ids:
            raise InvalidInput("tables must share one entity universe")
        if t.rows.min() < 0:
            raise InvalidInput(f"layer {t.name}: negative values")
    present = np.stack([t.rows.sum(axis=1) > 0 for t in tables])  # (m, n)
    somewhere, keep = present.any(axis=0), present.all(axis=0)
    if not keep.any():
        raise EmptyAfterFilter("every entity was removed by the filters")

    names = [t.name for t in tables]
    partial = tuple(
        (ids[col], tuple(compress(names, ~present[:, col])))
        for col in np.flatnonzero(somewhere & ~keep)
    )
    retained = tuple(compress(ids, keep))
    filtered = [FeatureTable(retained, t.rows[keep], t.name) for t in tables]
    return filtered, FilterLog(len(ids), tuple(compress(ids, ~somewhere)), partial, retained)


@dataclass
class PipelineConfig:
    """Everything one reproducible run needs.

    ``sigma=None`` means the per-layer scale-adaptive RBF bandwidth.
    ``weights_mode="paired"`` gives each barycenter its natural companion
    weights (leading eigenvector for Frobenius, row sums for the metric
    means); the other modes force one vector for all of them.
    """

    inputs: tuple[str, ...]
    output_dir: str
    sigma: float | None = None
    snf: SnfConfig = field(default_factory=SnfConfig)
    sma: BarycenterConfig = field(default_factory=BarycenterConfig)
    weights_mode: str = "paired"
    resolution: float = 1.0
    seed: int = 0
    export_threshold: float = 0.0
    methods: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        check_field_types(self)
        self.inputs = tuple(str(p) for p in self.inputs)
        if len(self.inputs) < 2:
            raise InvalidParameter("need at least two layers")
        if self.sigma is not None and not self.sigma > 0:
            raise InvalidParameter("sigma must be positive")
        if not self.resolution > 0:
            raise InvalidParameter("resolution must be positive")
        if self.seed < 0:
            raise InvalidParameter("seed must be nonnegative")
        if self.weights_mode not in WEIGHT_MODES:
            raise InvalidParameter(f"unknown weights mode {self.weights_mode!r}")
        self.methods = tuple(self.methods)
        for m in self.methods:
            if m not in ALL_METHODS:
                raise InvalidParameter(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise InvalidParameter("each method may be requested once")
        if not self.methods:
            raise InvalidParameter("at least one method required")
        missing = [p for p in self.inputs if not Path(p).is_file()]
        if missing:
            raise InvalidParameter(f"input files not found: {missing}")

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Read a UTF-8 JSON config; relative paths resolve against its directory."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(raw, path.parent, where=str(path))

    @classmethod
    def from_dict(cls, raw, base=".", where: str = "config") -> "PipelineConfig":
        """Build a config from the keys of a JSON config object.

        Keys are the field names; ``snf`` holds ``SnfConfig``'s fields and
        ``sma`` holds ``BarycenterConfig``'s.  Absent keys take the dataclass
        defaults; unknown keys raise ``ParseError``.  Relative paths resolve
        against ``base``.
        """
        _check_keys(raw, {f.name for f in fields(cls)}, where)
        given = dict(raw)
        for key, sub in (("snf", SnfConfig), ("sma", BarycenterConfig)):
            sub_raw = given.get(key, {})
            _check_keys(sub_raw, {f.name for f in fields(sub)}, f"{where}: {key}")
            try:
                given[key] = sub(**sub_raw)
            except InvalidParameter as exc:
                exc.add_note(f"[{where}: {key}]")
                raise

        def resolve(p) -> str:
            if not isinstance(p, str):
                raise InvalidParameter(f"{where}: paths must be strings, got {p!r}")
            q = Path(p)
            return str(q if q.is_absolute() else Path(base) / q)

        try:
            inputs = raw["inputs"]
            given["inputs"] = [resolve(p) for p in inputs] if isinstance(inputs, list) else inputs
            given["output_dir"] = resolve(raw["output_dir"])
        except KeyError as exc:
            raise ParseError(f"{where}: missing config key {exc}") from exc
        if isinstance(given.get("sigma"), str):
            if given["sigma"] != "auto":
                raise ParseError(f"{where}: sigma must be a number or 'auto'")
            given["sigma"] = None
        return cls(**given)


def _check_keys(raw, allowed, where: str):
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")


@dataclass
class RunReport:
    """Record of one run: ``fuse_stages`` fills it up to the monoplexes, ``run_pipeline`` the rest.

    ``to_dict`` is ``report.json``; the matrices go to the artifact CSVs.
    """

    multiplex: Multiplex
    filter_log: FilterLog
    sigmas: dict[str, float]
    weight_tables: dict[str, np.ndarray]
    fusion: dict[str, FusionResult]
    monoplexes: dict[str, SimilarityLayer]
    monoplex_dcor: SimilarityLayer | None = None
    snf_layer_dcor: tuple[tuple[str, float], ...] = ()
    partitions: dict[str, Partition] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "layers": list(self.multiplex.names),
            "entities": {
                "initial": self.filter_log.total,
                "final": len(self.filter_log.retained),
            },
            "filter": self.filter_log.to_dict(),
            "rbf_sigma": dict(self.sigmas),
            "weight_tables": {k: list(v) for k, v in self.weight_tables.items()},
            "fusion": {
                name: {"method": r.method, **r.outcome(), "diagnostics": r.diagnostics}
                for name, r in self.fusion.items()
            },
            "monoplex_dcor": {
                "names": list(self.monoplex_dcor.labels),
                "values": [list(row) for row in self.monoplex_dcor.S],
            },
            "snf_vs_layer_dcor": {name: val for name, val in self.snf_layer_dcor},
            "partitions": {
                name: {
                    "modularity": p.modularity,
                    "n_communities": p.n_communities,
                    "community": {
                        lab: int(c) for lab, c in zip(p.labels, p.community)
                    },
                }
                for name, p in self.partitions.items()
            },
        }


def build_layers(tables, sigma: float | None = None) -> tuple[Multiplex, dict[str, float]]:
    """RBF similarity layer per abundance table (site profiles as features).

    Each table is one item of ``map_ordered``.
    """
    tables = list(tables)
    built = map_ordered(lambda t: rbf_layer(t, sigma), tables, len(tables[0].labels) if tables else 0)
    mx = Multiplex(tuple(layer for layer, _ in built), tuple(t.name for t in tables))
    return mx, {t.name: s for t, (_, s) in zip(tables, built)}


def fuse_method(
    multiplex: Multiplex, method: str, cfg: PipelineConfig, tables: dict[str, np.ndarray]
) -> FusionResult:
    """Fuse ``multiplex`` with one of ``ALL_METHODS`` under ``cfg``'s settings.

    Barycenters read their layer weights from ``tables``, the ``frobenius``
    and ``rowsum`` weight tables, as ``cfg.weights_mode`` names: ``paired``
    gives the Frobenius mean ``frobenius`` and the metric means ``rowsum``.
    """
    if method == "snf":
        return snf_fuse(multiplex, cfg.snf)
    mode = cfg.weights_mode
    if mode == "uniform":
        w = uniform_weights(multiplex.m)
    elif mode == "rv-leading-eigenvector" or (mode == "paired" and method == "sma-frobenius"):
        w = tables["frobenius"]
    else:  # rv-rowsum, or paired for a metric mean
        w = tables["rowsum"]
    return solve_barycenter(multiplex, w, method.removeprefix("sma-"), cfg.sma)


@contextmanager
def stage(name: str):
    """Add an ``[stage <name>]`` note to an error raised in the block, and re-raise it."""
    try:
        yield
    except Exception as exc:
        exc.add_note(f"[stage {name}]")
        raise


def fuse_stages(cfg: PipelineConfig) -> RunReport:
    """The stages ``run`` and ``fuse`` share: load, filter, similarity, weights, one per method.

    The methods go through ``map_ordered``: from ``MIN_THREADED_N`` nodes
    on, they and the per-layer work of each solver run on the calling
    thread and up to CPUs - 1 helper threads in all; below it, and on one
    CPU, everything runs on the calling thread.  Each method's stage fuses
    it and views its result as a layer.  When a method fails, no further
    method starts, and the error raised is the first failing method's in
    ``cfg.methods`` order, so no result depends on thread scheduling.

    Returns the run record up to the fusion results and monoplex layers,
    keyed by method; its dcor tables and partitions are still empty.
    """
    with stage("load"):
        tables = load_abundance_tables(cfg.inputs)
    with stage("filter"):
        tables, flog = filter_entities(tables)
    with stage("similarity"):
        multiplex, sigmas = build_layers(tables, cfg.sigma)
    with stage("weights"):
        rv = rv_matrix(multiplex)
        weight_tables = {"frobenius": weights_frobenius(rv), "rowsum": weights_rowsum(rv)}

    def fuse(method):
        with stage(method):
            result = fuse_method(multiplex, method, cfg, weight_tables)
            return result, result.as_layer()

    fused = map_ordered(fuse, cfg.methods, multiplex.n)
    fusion = {method: result for method, (result, _) in zip(cfg.methods, fused)}
    monoplexes = {method: layer for method, (_, layer) in zip(cfg.methods, fused)}
    return RunReport(multiplex, flog, sigmas, weight_tables, fusion, monoplexes)


def _dcor_tables(multiplex: Multiplex, monoplexes: dict[str, SimilarityLayer]):
    """dcor between the monoplexes, and of the SNF monoplex (if any) against each layer.

    Each monoplex is centered once; each layer is centered in its own
    ``distance_correlation`` call, so each worker of ``map_ordered`` holds
    one layer's matrix at a time.
    """
    centered = {name: centered_distances(lay) for name, lay in monoplexes.items()}
    mono_dcor = correlation_table(tuple(centered), centered.values())
    if "snf" not in centered:
        return mono_dcor, ()
    values = map_ordered(lambda lay: distance_correlation(centered["snf"], lay), multiplex.layers, multiplex.n)
    return mono_dcor, tuple(zip(multiplex.names, values))


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Run the whole workflow and write all artifacts to ``cfg.output_dir``.

    After ``fuse_stages``, which fuses the methods concurrently: dcor
    (between the monoplexes, and of the SNF monoplex against each layer),
    cluster, write.  Fully deterministic for a fixed configuration and
    inputs, whatever the thread scheduling.  An error raised inside a stage
    propagates as is, with an ``[stage <name>]`` note added, and nothing is
    written.  A failing method starts no further method; when several fail,
    the error is the first one's in ``cfg.methods`` order.
    """
    report = fuse_stages(cfg)
    with stage("dcor"):
        report.monoplex_dcor, report.snf_layer_dcor = _dcor_tables(report.multiplex, report.monoplexes)
    with stage("cluster"):
        report.partitions = {
            name: louvain_communities(lay, cfg.resolution, cfg.seed)
            for name, lay in report.monoplexes.items()
        }
    with stage("write"):
        _write_artifacts(Path(cfg.output_dir), report, cfg.export_threshold)
    return report


# ---------------------------------------------------------------------------
# artifact writers


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))


#: A CSV field holding one of these characters is quoted.
_CSV_SPECIAL = re.compile('[,"\r\n]')

#: How ElementTree escapes an attribute value.
_XML_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: if it holds ``,``, ``"``, CR or LF, quoted with ``"`` doubled."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_text(rows) -> str:
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


#: Bytes of the longest ``%.17g`` text of a float64, such as ``-2.2250738585072014e-308``.
_WIDTH17 = 24
#: ``10.0 ** (17 + z)`` for z = 0 .. 3, each exact in binary, and its two 26-bit halves.
_POW10 = np.array([1e17, 1e18, 1e19, 1e20])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_K = np.arange(10000, dtype=np.uint64)
#: ``"%04d" % k`` for k < 10000, four ASCII bytes read as one little-endian integer.
_QUADS = sum((48 + _K // 10 ** (3 - i) % 10) << (8 * i) for i in range(4))
#: How many of ``"%04d" % k``'s four characters are trailing zeros.
_QUAD_ZEROS = sum((_K % 10**i == 0).astype(np.int64) for i in range(1, 5))
#: ``_KEEP[k]`` keeps the first k of 24 bytes held in three little-endian 8-byte words.
_KEEP = np.array([[2 ** (8 * min(max(k - 8 * i, 0), 8)) - 1 for i in range(3)] for k in range(25)], np.uint64)
#: ``"0.00"`` as the first four bytes of a little-endian 8-byte word.
_LEAD = np.frombuffer(b"0.00", "<u4").astype(np.uint64)[0]
#: Values ``_chars17`` renders at a time, so that its temporaries stay in cache.
_CHUNK17 = 1 << 13


def _chars17(values: np.ndarray) -> np.ndarray:
    """Each of ``values`` as ``fmt17`` renders it: ASCII, one NUL-padded row of ``_WIDTH17`` bytes each.

    Values in [1e-4, 1) go to ``_digits17``, and exact 0 and 1 are written
    directly.  Every other value goes to one ``%`` call.
    """
    v = np.asarray(values, dtype=float).ravel() + 0.0
    fast = (v >= 1e-4) & (v < 1.0)
    chars = np.empty((v.size, _WIDTH17), np.uint8)
    for start in range(0, v.size, _CHUNK17):
        end = start + _CHUNK17
        chars[start:end] = _digits17(np.where(fast[start:end], v[start:end], 0.5))
    chars[v == 0.0] = np.frombuffer(b"0".ljust(_WIDTH17, b"\0"), np.uint8)
    chars[v == 1.0] = np.frombuffer(b"1".ljust(_WIDTH17, b"\0"), np.uint8)
    rest = np.flatnonzero(~fast & (v != 0.0) & (v != 1.0))
    if rest.size:
        text = ",".join(["%.17g"] * rest.size) % tuple(v[rest].tolist())
        texts = np.array(text.encode("ascii").split(b","), f"S{_WIDTH17}")
        chars[rest] = texts.view(np.uint8).reshape(-1, _WIDTH17)
    return chars


def _digits17(x: np.ndarray) -> np.ndarray:
    """``_chars17`` for values in [1e-4, 1), by integer arithmetic.

    The text is ``0.``, then z zeros, then the 17-digit integer N nearest to
    ``x * 10**(17 + z)``, without its trailing zeros.  N is exact, rounded
    half to even as ``%.17g`` rounds.
    """
    # z zeros follow "0.": the float64 nearest each of 0.1, 0.01 and 0.001 lies
    # above it, and no float64 below it reaches it when rounded to 17 digits.
    z = np.add(x < 0.1, x < 0.01, dtype=np.intp) + (x < 0.001)
    # Dekker's product: hi + lo == x * 10**(17 + z) exactly.  hi >= 1e16 > 2**53
    # is an even integer and |lo| <= ulp(hi) / 2 <= 8, so rounding lo half to
    # even rounds hi + lo half to even.
    hi = x * _POW10[z]
    t = 134217729.0 * x  # 2**27 + 1 splits x into two 26-bit halves
    xh = t - (t - x)
    xl = x - xh
    ph, pl = _POW10_HI[z], _POW10_LO[z]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    # N's digits, grouped 3 + 4 + 4 + 4 + 2 after "0.00", fill three 8-byte words
    q, last = _divmod(n, 100)
    q, d = _divmod(q, 10000)
    q, c = _divmod(q, 10000)
    a, b = _divmod(q, 10000)
    words = [
        _LEAD | (_QUADS[a] << 32),
        _QUADS[b] | (_QUADS[c] << 32),
        _QUADS[d] | (_QUADS[100 * last] << 32),
    ]
    zeros = _QUAD_ZEROS[100 * last] - 2  # less the two pad zeros
    tail = last == 0
    for g in (d, c, b, a):
        zeros += tail * _QUAD_ZEROS[g]
        tail &= g == 0
    # keep "0." and z of the three zeros after it, then the digits up to N's last nonzero one
    shift = (8 * (3 - z)).astype(np.uint64)
    w0, w1, w2 = words
    words = [
        (w0 & 0xFFFF) | (((w0 >> shift) | (w1 << (64 - shift))) & ~np.uint64(0xFFFF)),
        (w1 >> shift) | (w2 << (64 - shift)),
        w2 >> shift,
    ]
    words = np.stack(words, axis=1)
    words &= _KEEP[19 + z - zeros]
    return words.astype("<u8", copy=False).view(np.uint8)


def _divmod(n: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(n, k)``; NumPy's ``//`` by a scalar is several times faster than ``divmod``."""
    q = n // k
    return q, n - k * q


def _upper(s: np.ndarray) -> np.ndarray:
    """The entries ``s[i, j]`` with ``i <= j``, row by row."""
    k = np.arange(s.shape[0])
    return s[k[:, None] <= k]


#: Matrix cells gathered per block of rows by ``write_similarity_csv``.
_BLOCK_CELLS = 1 << 16


def _padded(pieces: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """``pieces`` as rows of bytes padded to one width, and which bytes of each row are its piece's.

    The second array keeps a piece whole, NUL bytes included, when rows are
    written without their NUL padding.
    """
    width = max(1, *map(len, pieces))
    rows = np.array(pieces, f"S{width}").view(np.uint8).reshape(len(pieces), width)
    return rows, np.arange(width) < np.array([len(x) for x in pieces])[:, None]


def _write_kept(fh, columns):
    """Write rows made of ``columns``, ``(bytes, kept)`` pairs of one height, with only their kept bytes."""
    rows = np.concatenate([b for b, _ in columns], axis=1)
    kept = np.concatenate([k for _, k in columns], axis=1)
    fh.write(rows[kept])


def write_similarity_csv(path, layer: SimilarityLayer) -> np.ndarray:
    """Write ``layer`` as a labelled full-matrix CSV with 17-significant-digit values.

    ``layer.S`` is exactly symmetric, so only its upper triangle, diagonal
    included, is formatted (``_chars17``), and each value is written in both
    of its cells.  Each block of rows is gathered as bytes, each row's label
    and then its fields, and written without their NUL padding before the
    next is built; this runs in NumPy calls, which let other threads run.
    Returns the fields, one ``_chars17`` row per value of the upper
    triangle, row by row, from which ``_write_edges`` takes the edge weights
    without formatting them again.
    """
    n = layer.n
    fields = np.empty((n * (n + 1) // 2, _WIDTH17 + 1), np.uint8)  # each text, NUL padded, then ","
    fields[:, :-1] = _chars17(_upper(layer.S))
    fields[:, -1] = ord(",")
    labels = [_csv_field(lab).encode("utf-8") for lab in layer.labels]
    heads, head_kept = _padded([b"\n" + lab + b"," for lab in labels])  # each row's start
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"," + b",".join(labels))
        j = np.arange(n)
        before = j * n - j * (j + 1) // 2  # fields[before[a] + b] is cell (a, b), a <= b
        step = max(1, _BLOCK_CELLS // n)
        for start in range(0, n, step):
            i = j[start:start + step, None]
            cells = np.take(fields, before[np.minimum(i, j)] + np.maximum(i, j), axis=0).reshape(len(i), -1)
            cells[:, -1] = 0  # the row's last "," goes with the padding
            block = slice(start, start + step)
            _write_kept(fh, [(heads[block], head_kept[block]), (cells, cells != 0)])
        fh.write(b"\n")
    return fields[:, :-1]


def load_similarity_csv(path) -> SimilarityLayer:
    """Read a labelled matrix CSV back into a similarity layer."""
    path = Path(path)
    numbered = _read_csv_records(path)
    if len(numbered) < 2:
        raise ParseError(f"{path}: expected a header and at least one row")
    (_, header), *records = numbered
    labels = tuple(header[1:])
    n = len(labels)
    values = np.zeros((n, n))
    if len(records) != n:
        raise ParseError(f"{path}: expected {n} data rows, got {len(records)}")
    for i, (lineno, row) in enumerate(records):
        if len(row) != n + 1:
            raise ParseError(f"{path}:{lineno}: expected {n + 1} cells, got {len(row)}")
        if row[0] != labels[i]:
            raise ParseError(
                f"{path}:{lineno}: row label {row[0]!r} does not match header order"
            )
        values[i] = _numbers(path, lineno, row[1:])
    _check_values(path, records, values, upper=1.0)
    try:
        return SimilarityLayer(labels, values)
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from exc


def export_graph(layer: SimilarityLayer, partition, fmt: str, path, threshold: float = 0.0):
    """Write a similarity network as an edge list, GraphML, or matrix CSV.

    Edge formats keep pairs i < j with weight strictly above ``threshold``,
    which must be finite, and are written by ``_write_edges``.  GraphML
    nodes carry a ``community`` attribute when a partition is given.
    """
    if fmt not in EXPORT_FORMATS:
        raise InvalidParameter(f"unknown export format {fmt!r}")
    if not np.isfinite(threshold):
        raise InvalidParameter(f"threshold must be finite, got {threshold!r}")
    path = Path(path)
    if partition is not None and partition.labels != layer.labels:
        raise DimensionError("partition labels do not match the network")

    if fmt == "csv-matrix":
        write_similarity_csv(path, layer)
    else:
        _write_edges(path, fmt, layer, partition, threshold, _chars17(_upper(layer.S)))
    return path


#: Edge lines joined per write by ``_write_edges``.
_EDGE_BLOCK = 4096


def _write_edges(path: Path, fmt: str, layer: SimilarityLayer, partition, threshold: float, chars: np.ndarray):
    """Write the pairs i < j of ``layer`` with weight above ``threshold`` as an edge list or GraphML.

    ``chars`` holds the weights' texts: one ``_chars17`` row per value of
    the upper triangle, diagonal included, row by row.  Each edge line is
    its source node's piece, its target node's piece, its weight's text and
    a fixed tail; the pieces are encoded once per label, and the lines are
    gathered as bytes and written ``_EDGE_BLOCK`` at a time, in NumPy calls
    as ``write_similarity_csv`` writes its rows.  GraphML is laid out as
    ElementTree's indent() and tostring() lay it out.
    """
    if fmt == "edge-list":
        src = dst = [_csv_field(lab) + "," for lab in layer.labels]
        head, tail, foot = "source,target,weight\n", "\n", ""
    else:
        ids = [lab.translate(_XML_ATTR_ESCAPES) for lab in layer.labels]
        keys = '  <key attr.name="weight" attr.type="double" id="w" for="edge" />\n'
        nodes = [f'    <node id="{x}" />\n' for x in ids]
        if partition is not None:
            keys += '  <key attr.name="community" attr.type="int" id="c" for="node" />\n'
            nodes = [
                f'    <node id="{x}">\n      <data key="c">{c}</data>\n    </node>\n'
                for x, c in zip(ids, partition.community.tolist())
            ]
        head = (
            "<?xml version='1.0' encoding='utf-8'?>\n"
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            + keys + '  <graph id="G" edgedefault="undirected">\n' + "".join(nodes)
        )
        src = ['    <edge source="' + x + '" target="' for x in ids]
        dst = [x + '">\n      <data key="w">' for x in ids]
        tail, foot = "</data>\n    </edge>\n", "  </graph>\n</graphml>\n"
    (src, src_kept), (dst, dst_kept) = (_padded([x.encode("utf-8") for x in pieces]) for pieces in (src, dst))
    tail = np.frombuffer(tail.encode("utf-8"), np.uint8)

    n = layer.n
    i, j = np.nonzero(np.triu(layer.S > threshold, 1))
    k = i * n - i * (i + 1) // 2 + j  # chars[k] is the text of (i, j)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for start in range(0, k.size, _EDGE_BLOCK):
            block = slice(start, start + _EDGE_BLOCK)
            a, b, texts = i[block], j[block], chars[k[block]]
            ends = np.broadcast_to(tail, (a.size, tail.size))
            _write_kept(fh, [
                (src[a], src_kept[a]), (dst[b], dst_kept[b]), (texts, texts != 0), (ends, np.ones(ends.shape, bool))
            ])
        fh.write(foot.encode("utf-8"))


def _write_artifacts(out_dir: Path, report: RunReport, threshold: float):
    """Write every artifact of ``report``.

    Each method's matrix CSV with its two edge files, which reuse its
    texts, is one item of ``map_ordered``, and so is each layer's matrix
    CSV; the other artifacts follow on the calling thread.
    """
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_monoplex(name, lay):
        # what export_graph writes for these two formats, from the matrix CSV's texts
        chars = write_similarity_csv(out_dir / f"monoplex_{name}.csv", lay)
        _write_edges(out_dir / f"edges_{name}.csv", "edge-list", lay, None, threshold, chars)
        _write_edges(out_dir / f"graph_{name}.graphml", "graphml", lay, report.partitions[name], threshold, chars)

    # the longest items first, so that no thread is left with one at the end
    jobs = [partial(write_monoplex, name, lay) for name, lay in report.monoplexes.items()]
    jobs += [
        partial(write_similarity_csv, out_dir / "layers" / f"{name}.csv", lay)
        for name, lay in zip(report.multiplex.names, report.multiplex.layers)
    ]
    map_ordered(lambda job: job(), jobs, report.multiplex.n)

    tables = report.weight_tables
    wrows = [["layer", *tables]]
    for i, name in enumerate(report.multiplex.names):
        wrows.append([name, *(fmt17(w[i]) for w in tables.values())])
    _write_text(out_dir / "weights.csv", _csv_text(wrows))

    write_similarity_csv(out_dir / "dcor_monoplexes.csv", report.monoplex_dcor)

    if report.snf_layer_dcor:
        rows = [["layer", "dcor"]]
        rows += [[name, fmt17(v)] for name, v in report.snf_layer_dcor]
        _write_text(out_dir / "dcor_snf_vs_layers.csv", _csv_text(rows))

    prows = [["method", "label", "community"]]
    for name, p in report.partitions.items():
        prows += [[name, lab, str(int(c))] for lab, c in zip(p.labels, p.community)]
    _write_text(out_dir / "partitions.csv", _csv_text(prows))

    frows = [["entity", "status", "detail"]]
    for e in report.filter_log.removed_everywhere:
        frows.append([e, "removed", "absent in every layer"])
    for e, layers in report.filter_log.removed_partial:
        frows.append([e, "removed", "absent in: " + "; ".join(layers)])
    for e in report.filter_log.retained:
        frows.append([e, "retained", ""])
    _write_text(out_dir / "filter_log.csv", _csv_text(frows))

    _write_text(out_dir / "report.json", dumps_json17(report.to_dict()) + "\n")
