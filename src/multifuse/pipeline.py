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
from .netanalysis import CorrelationTable, Partition, correlation_table, distance_correlation, louvain_communities
from .simbuild import FeatureTable, Multiplex, SimilarityLayer, auto_sigma, rbf_similarity
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

    Adding 0.0 folds -0.0 into 0.0; ``_rows17`` applies the same rule to arrays.
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
        try:
            values.append(list(map(float, row[1:])))
        except ValueError:
            for cell in row[1:]:
                try:
                    float(cell)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: not a number: {cell!r}") from exc
        ids.append(entity)
    v = np.array(values)
    bad = np.argwhere(~((v >= 0) & (v < np.inf)))  # negative, infinite or nan
    if len(bad):
        r, c = bad[0]
        lineno, row = numbered[r + 1]
        kind = "negative" if np.isfinite(v[r, c]) else "non-finite"
        raise ParseError(f"{path}:{lineno}: {kind} value {row[c + 1]!r}")
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
    """Summary of one pipeline run (matrices live in the artifact CSVs)."""

    layer_names: tuple[str, ...]
    filter_log: FilterLog
    sigmas: dict[str, float]
    weight_tables: dict[str, np.ndarray]
    fusion: dict[str, FusionResult]
    monoplex_dcor: CorrelationTable
    snf_layer_dcor: tuple[tuple[str, float], ...]
    partitions: dict[str, Partition]

    def to_dict(self) -> dict:
        return {
            "layers": list(self.layer_names),
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
                "names": list(self.monoplex_dcor.names),
                "values": [list(row) for row in self.monoplex_dcor.values],
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
    """RBF similarity layer per abundance table (site profiles as features)."""
    layers = []
    sigmas = {}
    for t in tables:
        s = sigma if sigma is not None else auto_sigma(t)
        sigmas[t.name] = s
        layers.append(rbf_similarity(t, s))
    mx = Multiplex(tuple(layers), tuple(t.name for t in tables))
    return mx, sigmas


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


def fuse_stages(cfg: PipelineConfig):
    """The stages ``run`` and ``fuse`` share: load, filter, similarity, weights, one per method.

    Returns the multiplex, the filter log, the RBF bandwidths, the weight
    tables, and the fusion results and monoplex layers keyed by method.
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
    fusion: dict[str, FusionResult] = {}
    monoplexes: dict[str, SimilarityLayer] = {}
    for method in cfg.methods:
        with stage(method):
            fusion[method] = fuse_method(multiplex, method, cfg, weight_tables)
            monoplexes[method] = fusion[method].as_layer()
    return multiplex, flog, sigmas, weight_tables, fusion, monoplexes


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """Run the whole workflow and write all artifacts to ``cfg.output_dir``.

    After ``fuse_stages``: dcor (between the monoplexes, and of the SNF
    monoplex against each layer), cluster, write.  Fully deterministic for a
    fixed configuration and inputs.  An error raised inside a stage
    propagates as is, with an ``[stage <name>]`` note added.
    """
    multiplex, flog, sigmas, weight_tables, fusion, monoplexes = fuse_stages(cfg)
    with stage("dcor"):
        mono_dcor = correlation_table(tuple(monoplexes), monoplexes.values())
        snf_layer = ()
        if "snf" in monoplexes:
            snf_layer = tuple(
                (lname, distance_correlation(monoplexes["snf"], lay))
                for lname, lay in zip(multiplex.names, multiplex.layers)
            )
    with stage("cluster"):
        partitions = {
            name: louvain_communities(lay, cfg.resolution, cfg.seed)
            for name, lay in monoplexes.items()
        }
    report = RunReport(
        layer_names=multiplex.names,
        filter_log=flog,
        sigmas=sigmas,
        weight_tables=weight_tables,
        fusion=fusion,
        monoplex_dcor=mono_dcor,
        snf_layer_dcor=snf_layer,
        partitions=partitions,
    )
    with stage("write"):
        _write_artifacts(Path(cfg.output_dir), cfg, multiplex, report, monoplexes)
    return report


# ---------------------------------------------------------------------------
# artifact writers


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


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


def _rows17(values) -> tuple[str, list]:
    """A ``%`` template for the last axis of ``values``, and ``values`` as lists.

    ``template % tuple(row)`` joins a row's values with commas, each as
    ``fmt17`` renders it.
    """
    v = np.asarray(values, dtype=float) + 0.0
    return ",".join(["%.17g"] * v.shape[-1]), v.tolist()


def write_similarity_csv(path, labels, matrix):
    """Labelled full-matrix CSV with 17-significant-digit values."""
    fields = [_csv_field(str(lab)) for lab in labels]
    template, rows = _rows17(matrix)
    lines = [",".join(["", *fields])]
    lines += [f"{lab},{template % tuple(row)}" for lab, row in zip(fields, rows)]
    _write_text(Path(path), "\n".join(lines) + "\n")
    return Path(path)


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
        try:
            values[i] = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    try:
        return SimilarityLayer(labels, values)
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from exc


def export_graph(layer: SimilarityLayer, partition, fmt: str, path, threshold: float = 0.0):
    """Write a similarity network as an edge list, GraphML, or matrix CSV.

    Edge formats keep pairs i < j with weight strictly above ``threshold``,
    which must be finite.  GraphML nodes carry a ``community`` attribute when
    a partition is given.
    """
    if fmt not in EXPORT_FORMATS:
        raise InvalidParameter(f"unknown export format {fmt!r}")
    if not np.isfinite(threshold):
        raise InvalidParameter(f"threshold must be finite, got {threshold!r}")
    path = Path(path)
    labels, s = layer.labels, layer.S
    if partition is not None and partition.labels != labels:
        raise DimensionError("partition labels do not match the network")

    if fmt == "csv-matrix":
        return write_similarity_csv(path, labels, s)

    iu, ju = np.triu_indices(len(labels), 1)
    w = s[iu, ju]
    keep = w > threshold
    template, kept = _rows17(w[keep])
    weights = (template % tuple(kept)).split(",") if kept else []
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist(), weights))

    if fmt == "edge-list":
        fields = [_csv_field(lab) for lab in labels]
        lines = ["source,target,weight"]
        lines += [f"{fields[i]},{fields[j]},{x}" for i, j, x in edges]
        _write_text(path, "\n".join(lines) + "\n")
        return path

    # graphml, laid out as ElementTree's indent() and tostring() lay it out
    ids = [lab.translate(_XML_ATTR_ESCAPES) for lab in labels]
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key attr.name="weight" attr.type="double" id="w" for="edge" />',
    ]
    if partition is None:
        lines.append('  <graph id="G" edgedefault="undirected">')
        lines += [f'    <node id="{x}" />' for x in ids]
    else:
        lines.append('  <key attr.name="community" attr.type="int" id="c" for="node" />')
        lines.append('  <graph id="G" edgedefault="undirected">')
        lines += [
            f'    <node id="{x}">\n      <data key="c">{c}</data>\n    </node>'
            for x, c in zip(ids, partition.community.tolist())
        ]
    lines += [
        f'    <edge source="{ids[i]}" target="{ids[j]}">\n      <data key="w">{x}</data>\n    </edge>'
        for i, j, x in edges
    ]
    lines += ["  </graph>", "</graphml>"]
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _write_artifacts(out_dir: Path, cfg: PipelineConfig, multiplex: Multiplex, report: RunReport, mono_layers):
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, lay in zip(multiplex.names, multiplex.layers):
        write_similarity_csv(out_dir / "layers" / f"{name}.csv", lay.labels, lay.S)

    for name, lay in mono_layers.items():
        write_similarity_csv(out_dir / f"monoplex_{name}.csv", lay.labels, lay.S)
        export_graph(
            lay, report.partitions[name], "edge-list",
            out_dir / f"edges_{name}.csv", cfg.export_threshold,
        )
        export_graph(
            lay, report.partitions[name], "graphml",
            out_dir / f"graph_{name}.graphml", cfg.export_threshold,
        )

    tables = report.weight_tables
    wrows = [["layer", *tables]]
    for i, name in enumerate(report.layer_names):
        wrows.append([name, *(fmt17(w[i]) for w in tables.values())])
    _write_text(out_dir / "weights.csv", _csv_text(wrows))

    write_similarity_csv(
        out_dir / "dcor_monoplexes.csv",
        report.monoplex_dcor.names,
        report.monoplex_dcor.values,
    )

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
