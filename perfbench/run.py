#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the multifuse pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuse-all-n160 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

It writes the workload's inputs from ``--seed`` (``workloads.py``), runs the
workload in a fresh worker process that imports ``multifuse`` from ``src/``
(``worker.py``), checks every run's artifacts (``checks.py``) and prints one
line per metric, then a JSON summary as the last line of standard output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones (``tracing.py``).  Work files go to ``.perfbench_run/`` at the root.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import JITTER, TEMPLATE_KEY, WORKLOADS, write_inputs  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
IMPORT_PROBES = 3
WORKER_DEADLINE_S = 150  # leaves time for the checks within the 180 s a run may take
METHODS = ("snf", *checks.BARYCENTERS)


class BenchError(Exception):
    """The workload could not be measured; no result is printed."""


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")


def _import_seconds(deadline: float) -> list[float]:
    """``import multifuse`` time in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import multifuse.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"cannot import multifuse from {SRC}: {proc.stderr.strip()}")
        out.append(float(proc.stdout))
    return out


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _eigh_probe_ms() -> float:
    """Median time of one ``eigh`` of a fixed 160x160 matrix: a machine-speed reference."""
    a = np.random.default_rng(0).random((160, 160))
    a = a + a.T
    times = []
    for _ in range(25):
        t = time.perf_counter()
        np.linalg.eigh(a)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def environment(seed: int, wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "eigh160_ms": _eigh_probe_ms(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "item_seeds": [[seed, j] for j in range(wl.items)],
        "template_key": TEMPLATE_KEY,
        "jitter": JITTER,
    }


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, run and check one workload; returns the result record."""
    deadline = time.monotonic() + WORKER_DEADLINE_S
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    items = write_inputs(work / "inputs", wl, seed)
    import_s = _import_seconds(deadline)

    spec = {
        "src": str(SRC), "via_cli": wl.via_cli, "seconds": seconds, "trace": trace,
        "runs_dir": str(work / "runs"),
        "items": [{"config": str(it.config), "output_dir": str(it.output_dir)} for it in items],
    }
    (work / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                                  env=_env(), stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker timed out; see {work / 'worker.log'}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}; see {work / 'worker.log'}")
    result = json.loads((work / "result.json").read_text())
    import_s.append(result["import_s"])
    runs = result["runs"]

    # Correctness: the first run's artifacts pass the content checks and every
    # later run reproduces them byte for byte.
    if not runs[0]["ok"]:
        raise BenchError(f"{name}: the warm-up run failed; see {work / 'worker.log'}")
    runs_dir = work / "runs"
    first = runs_dir / runs[0]["id"]
    try:
        reference = [checks.digest_tree(first / f"item{j:02d}") for j in range(len(items))]
        content = []
        for j, it in enumerate(items):
            content += [f"item{j:02d}: {p}"
                        for p in checks.content_checks(first / f"item{j:02d}", it.planted)]
        selftest = checks.self_test(first / "item00", items[0].planted, work)
        aris = [checks.partition_ari(first / f"item{j:02d}", it.planted)
                for j, it in enumerate(items)]
        snf_contrast = checks.group_contrast(first / "item00", items[0].planted, "snf")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise BenchError(f"{name}: cannot check the artifacts in {first}: {exc!r}") from exc
    problems = list(content)
    for run in runs:
        out = runs_dir / run["id"]
        run["bytes"] = _tree_bytes(out)
        same = all((out / f"item{j:02d}").is_dir()
                   and checks.digest_tree(out / f"item{j:02d}") == reference[j]
                   for j in range(len(items)))
        if not same:
            problems.append(f"{run['id']}: artifacts differ from {runs[0]['id']}")
        run["failed"] = not run["ok"] or not same or bool(content)
    failed = sum(r["failed"] for r in runs)

    # Timings come from every timed run that completed, checked or not.
    timed = [r for r in runs[1:] if r["ok"]]
    untraced = [r["wall_s"] for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (trace and not traced):
        raise BenchError(f"{name}: no timed run completed; see {work / 'worker.log'}")

    record = {
        "workload": name, "why": wl.why, "seconds": seconds, "trace": trace,
        "environment": environment(seed, wl),
        "attempted": len(runs), "failed": failed, "failed_frac": failed / len(runs),
        "problems": problems, "selftest": selftest, "snf_contrast": snf_contrast,
        "correct": failed == 0 and all(v == "detected" for v in selftest.values()),
        "runs": runs, "import_s": import_s,
    }
    if not trace:
        record["metrics"] = {
            "run_s": statistics.median(untraced),
            "setup_s": statistics.median(import_s) + result["warmup_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        spans = [json.loads(line) for line in open(work / "spans.jsonl")]
        per_run = []
        for run in traced:
            own = [s for s in spans if s["run"] == run["id"]]
            values = tracing.run_metrics(own)
            values["pipeline.write_bytes"] = run["bytes"]
            per_run.append(values)
        metrics = tracing.median_metrics(per_run)
        for method in METHODS:
            found = [a[method] for a in aris if method in a]
            metrics[f"netanalysis.louvain_ari.{method}"] = (
                statistics.fmean(found) if found else 0.0)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(untraced))
        metrics["failed_frac"] = record["failed_frac"]
        record["metrics"] = metrics
        record["self_time_s"] = dict(sorted(tracing.self_times(
            [s for s in spans if s["run"] == traced[0]["id"]]).items(),
            key=lambda kv: -kv[1]))
    (work / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(runs_dir)
    return record


def _units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def report(record: dict, units: dict[str, str]):
    name = record["workload"]
    print(f"# {name}: {record['attempted']} runs, {record['failed']} failed, "
          f"self-test {record['selftest']}")
    c = record["snf_contrast"]
    print(f"# {name}: SNF monoplex of item00, mean similarity within planted groups "
          f"{c['within']:.6f}, between {c['between']:.6f}")
    for p in record["problems"]:
        print(f"# {name}: PROBLEM {p}")
    if record["trace"]:
        print(f"# {name}: self time of the first traced run, by span")
        for span, secs in record["self_time_s"].items():
            print(f"#   {span:40s} {secs:.6f} s")
    for metric, value in record["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {units.get(metric, '')}")
    if "failed_frac" not in record["metrics"]:
        print(f"{name} failed_frac = {record['failed_frac']:.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multifuse" / "__init__.py").is_file():
        print(f"error: no multifuse package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = _units(bool(args.trace))
    try:
        records = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record, units)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": units.get(k.rsplit("/", 1)[-1], "")}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
