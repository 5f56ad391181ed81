"""Command-line interface.

Exit codes: 0 on success; for an error of this package, its ``exit_code``:
3 for numerical failures (singular matrices, a degenerate RV spectrum, and
non-convergence under --strict), 2 for every other one and for OS errors.
Standard output is UTF-8 whatever the locale, like the artifacts.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from pathlib import Path

from .errors import InvalidParameter, MultifuseError
from .pipeline import (
    EXPORT_FORMATS,
    WEIGHT_MODES,
    PipelineConfig,
    _csv_field,
    _write_text,
    dumps_json17,
    export_graph,
    fmt17,
    fuse_stages,
    load_similarity_csv,
    run_pipeline,
    stage,
    write_similarity_csv,
)
from .netanalysis import distance_correlation, louvain_communities

EXIT_OK = 0

METHOD_ALIASES = {
    "snf": "snf",
    "sma-f": "sma-frobenius",
    "sma-r": "sma-riemannian",
    "sma-w": "sma-wasserstein",
}

#: Older spellings of ``--weights`` values, mapped onto ``WEIGHT_MODES``.
WEIGHT_ALIASES = {"rv-pc": "rv-leading-eigenvector"}

#: ``fuse`` flags that only SNF reads, and those that only the barycenters read.
SNF_FLAGS = ("k", "epsilon")
BARYCENTER_FLAGS = ("tol", "jitter", "weights")


class NonConvergence(MultifuseError):
    """Raised under --strict when a solver hits its iteration cap."""

    exit_code = 3


def _sigma_arg(value: str):
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("sigma must be a number or 'auto'") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="multifuse",
        description="Build, fuse and analyse multiplex similarity networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a JSON config file")
    p_run.add_argument("--strict", action="store_true", help="fail on non-convergence")

    p_fuse = sub.add_parser("fuse", help="fuse abundance tables with one method")
    p_fuse.add_argument("--method", required=True, choices=sorted(METHOD_ALIASES))
    p_fuse.add_argument("--inputs", required=True, nargs="+", help="abundance CSVs, one per layer")
    p_fuse.add_argument("--sigma", type=_sigma_arg, default=None, help="RBF bandwidth or 'auto'")
    p_fuse.add_argument("--k", type=int, default=None, help="SNF neighbourhood size")
    p_fuse.add_argument("--epsilon", type=float, default=None, help="SNF convergence tolerance")
    p_fuse.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    p_fuse.add_argument("--tol", type=float, default=None, help="barycenter tolerance")
    p_fuse.add_argument("--jitter", type=float, default=None, help="PD regularization for barycenters")
    p_fuse.add_argument(
        "--weights", default=None, choices=WEIGHT_MODES, type=lambda v: WEIGHT_ALIASES.get(v, v),
        help="barycenter layer weights (default: paired, the method's natural companion; "
        "rv-pc is an alias of rv-leading-eigenvector)",
    )
    p_fuse.add_argument("--out", required=True, help="output directory")
    p_fuse.add_argument("--strict", action="store_true", help="fail on non-convergence")

    p_dcor = sub.add_parser("dcor", help="distance correlation of two matrix CSVs")
    p_dcor.add_argument("matrix_a")
    p_dcor.add_argument("matrix_b")

    p_cluster = sub.add_parser("cluster", help="Louvain communities of a matrix CSV")
    p_cluster.add_argument("matrix")
    p_cluster.add_argument("--resolution", type=float, default=1.0)
    p_cluster.add_argument("--seed", type=int, default=0)

    p_export = sub.add_parser("export", help="export a matrix CSV as a graph file")
    p_export.add_argument("matrix")
    p_export.add_argument("--format", required=True, choices=EXPORT_FORMATS)
    p_export.add_argument("--out", required=True, help="output file")
    p_export.add_argument("--threshold", type=float, default=0.0, help="drop edges at or below this weight")
    p_export.add_argument("--resolution", type=float, default=1.0, help="Louvain resolution (graphml)")
    p_export.add_argument("--seed", type=int, default=0, help="Louvain seed (graphml)")
    return parser


def _report_convergence(fusion: dict, strict: bool) -> None:
    """Print each method's convergence line; under ``strict``, fail if any hit its cap."""
    for name, r in fusion.items():
        status = "converged" if r.converged else "NOT converged"
        print(f"{name}: {status} after {r.iterations} iterations (residual {fmt17(r.residual)})")
    bad = [name for name, r in fusion.items() if not r.converged]
    if bad and strict:
        raise NonConvergence(f"did not converge within the iteration cap: {', '.join(bad)}")


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    report = run_pipeline(cfg)
    print(f"artifacts written to {cfg.output_dir}")
    _report_convergence(report.fusion, args.strict)
    return EXIT_OK


def _present(**kwargs) -> dict:
    return {k: v for k, v in kwargs.items() if v is not None}


def _cmd_fuse(args) -> int:
    method = METHOD_ALIASES[args.method]
    cfg = PipelineConfig.from_dict(_present(
        inputs=args.inputs, output_dir=args.out, sigma=args.sigma, methods=[method],
        weights_mode=args.weights,
        snf=_present(k=args.k, epsilon=args.epsilon, max_iter=args.max_iter),
        sma=_present(tol=args.tol, max_iter=args.max_iter, jitter=args.jitter),
    ))
    for flag in BARYCENTER_FLAGS if method == "snf" else SNF_FLAGS:
        if getattr(args, flag) is not None:
            raise InvalidParameter(f"--{flag} does not apply to --method {args.method}")
    report = fuse_stages(cfg)
    result, layer = report.fusion[method], report.monoplexes[method]

    out = Path(cfg.output_dir)
    with stage("write"):
        write_similarity_csv(out / f"monoplex_{method}.csv", layer)
        summary = {"method": method, "layers": list(report.multiplex.names),
                   "rbf_sigma": report.sigmas, **result.outcome()}
        _write_text(out / "fuse_report.json", dumps_json17(summary) + "\n")
    print(f"monoplex written to {out / f'monoplex_{method}.csv'}")
    _report_convergence({method: result}, args.strict)
    return EXIT_OK


def _cmd_dcor(args) -> int:
    a = load_similarity_csv(args.matrix_a)
    b = load_similarity_csv(args.matrix_b)
    print(fmt17(distance_correlation(a, b)))
    return EXIT_OK


def _cmd_cluster(args) -> int:
    layer = load_similarity_csv(args.matrix)
    part = louvain_communities(layer, resolution=args.resolution, seed=args.seed)
    print("label,community")
    for lab, c in zip(part.labels, part.community):
        print(f"{_csv_field(lab)},{int(c)}")
    print(f"# modularity {fmt17(part.modularity)}")
    return EXIT_OK


def _cmd_export(args) -> int:
    layer = load_similarity_csv(args.matrix)
    partition = None
    if args.format == "graphml":
        partition = louvain_communities(layer, resolution=args.resolution, seed=args.seed)
    export_graph(layer, partition, args.format, args.out, args.threshold)
    print(f"wrote {args.out}")
    return EXIT_OK


COMMANDS = {
    "run": _cmd_run,
    "fuse": _cmd_fuse,
    "dcor": _cmd_dcor,
    "cluster": _cmd_cluster,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")  # labels print as UTF-8 under any locale
    try:
        return COMMANDS[args.command](args)
    except (MultifuseError, OSError) as exc:
        print(" ".join(["error:", *getattr(exc, "__notes__", ()), str(exc)]), file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
