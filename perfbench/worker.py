"""Runs one workload in a fresh process and records its timings.

Usage: ``python3 perfbench/worker.py SPEC.json`` where the spec (written by
``run.py``) names the source tree, the generated configs, the run length and
whether to trace.  The worker imports ``multifuse`` from that tree, makes one
untimed warm-up run, then repeats the workload until the run length is used
up.  With tracing on it alternates untraced and traced runs.  After each run
it moves every output directory to ``runs/<run id>/<item>`` for the checks.

It writes ``result.json`` (and ``spans.jsonl`` when tracing) next to the
spec, with the process's peak resident memory, which ``run.py`` reports
only for untraced invocations.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import multifuse.cli
    import multifuse.pipeline
    import_s = time.perf_counter() - t0
    if Path(multifuse.__file__).resolve().parent.parent != src.resolve():
        print(f"multifuse imported from {multifuse.__file__}, not {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    items = spec["items"]
    runs_dir = Path(spec["runs_dir"])
    cfgs = None if spec["via_cli"] else [
        multifuse.pipeline.PipelineConfig.from_file(it["config"]) for it in items
    ]

    def one_run(run_id: str) -> dict:
        ok = True
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if cfgs is None:
                for it in items:
                    if multifuse.cli.main(["run", "--config", it["config"]]) != 0:
                        ok = False
            else:
                for cfg in cfgs:
                    multifuse.pipeline.run_pipeline(cfg)
        except Exception:
            traceback.print_exc()
            ok = False
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        dest = runs_dir / run_id
        dest.mkdir(parents=True)
        for j, it in enumerate(items):
            if os.path.isdir(it["output_dir"]):
                os.rename(it["output_dir"], dest / f"item{j:02d}")
        return {"id": run_id, "wall_s": wall, "cpu_s": cpu, "ok": ok, "traced": False}

    warmup = one_run("r000")
    runs = [warmup]
    tracer = Tracer() if spec["trace"] else None
    start = time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - start < spec["seconds"]:
        run_id = f"r{len(runs):03d}"
        traced = tracer is not None and len(runs) % 2 == 0
        if traced:
            tracer.run_id = run_id
            tracer.install()
            try:
                run = one_run(run_id)
            finally:
                tracer.uninstall()
            run["traced"] = True
        else:
            run = one_run(run_id)
        runs.append(run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = Path(spec_path).parent
    if tracer is not None:
        with open(out / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result = {"import_s": import_s, "warmup_s": warmup["wall_s"], "runs": runs,
              "peak_rss_mb": peak_rss_mb}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
