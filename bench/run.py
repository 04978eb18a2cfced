"""Benchmark of mnsurv: one command, every workload, every answer checked.

Usage (from the repository root)::

    python3 bench/run.py [--workload quad-d4|cli-batch|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh single-threaded processes, one after another:
in untraced runs ``SETUP_PROBES`` processes that only set up (for
``setup_s``), half of them before and half after one process that runs
whole rounds of the workload's operations for ``--seconds``.  This
process then checks every output against the oracle and prints one JSON
line per workload, the last line of the output being ``{"correct",
"attempted", "failed", "metrics"}``.  With ``--trace 0`` the metrics are
the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones.  Details (every operation's time, every failure) go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _worker(args, env, timeout):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, spec):
    import panels
    import verify

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", str(workdir)]
        probes = 0 if trace else SETUP_PROBES

        def setup_probes(count):
            return [_worker(common + ["--setup-only"], env, 60)["setup_s"] for _ in range(count)]

        setups = setup_probes(probes // 2)
        layers = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
        run = _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                "--spans", str(OUT / f"spans-{tag}.jsonl"),
                                "--layers", ",".join(layers)],
                      env, 3 * seconds + 60)
        setups += setup_probes(probes - probes // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = verify.Checker(panels.build(workload, seed))
    failures, latencies, instances, accuracy = [], [], 0, []
    for record in run["ops"]:
        problems, answered, acc = checker.check(record["op"], record, run["contents"])
        latencies.append(record["s"])
        instances += answered
        if acc is not None:
            accuracy.append(acc)
        if problems:
            failures.append({"op": record["op"], "problems": problems[:5]})

    setups.append(run["setup_s"])
    if trace:
        values = run["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "instances_per_s": instances / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": run["peak_rss_mb"],
            "accuracy_digits": min(accuracy) if accuracy else 0.0,
        }
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = {
        "correct": not failures,
        "attempted": len(run["ops"]),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = dict(result, workload=workload, seed=seed, seconds=seconds, setups=setups,
                   latencies=latencies, instances=instances, failures=failures)
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1))
    for failure in failures[:3]:
        print(f"{workload}: op {failure['op']} failed: {failure['problems']}", file=sys.stderr)
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mnsurv" / "__init__.py").is_file():
        sys.exit(f"no mnsurv sources under {ROOT / 'src'}: run from a full checkout")

    os.environ.update(PINNED)   # inherited by the workers; set before numpy loads here
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_workload(workload, args.seed, args.seconds, args.trace, spec)
        if args.workload == "all":
            print(workload, end=" ")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
