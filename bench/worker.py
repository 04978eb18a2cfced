"""One workload in one fresh process: set up, then run whole rounds.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  The clock starts before numpy is imported, so ``setup_s``
covers importing mnsurv, building the panel's instances and warming up.
With ``--setup-only`` the process stops there.  Otherwise it runs the
panel's operations round after round, as one client in a closed loop, and
prints one JSON line with every operation's time and output; ``run.py``
checks the outputs.  This process never imports scipy, so its peak memory
is mnsurv's.

With ``--trace 1`` the process first runs untraced rounds for half of
``--seconds``, then one round with every layer wrapped, and reports the
per-layer figures of that round plus the warm-up call, and the tracing
overhead against the untraced rounds.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import mnsurv  # noqa: E402
import mnsurv.cli  # noqa: E402
import mnsurv.survival  # noqa: E402
from mnsurv import QuadratureSpec, build_instance, legendre_rule  # noqa: E402

import panels  # noqa: E402
import tracing  # noqa: E402


def _prepare(panel, workdir):
    """Build what the timed calls receive: instances, specs and input files."""
    calls = []
    for op in panel.ops:
        if isinstance(op, panels.RoutesOp):
            calls.append((build_instance(op.n, op.p, op.k), QuadratureSpec(nodes=op.nodes)))
        else:
            if op.input is not None:
                with open(os.path.join(workdir, op.input), "w") as fh:
                    json.dump(list(op.records), fh)
            argv = [arg.replace("{dir}", workdir) for arg in op.argv]
            calls.append(argv + ["--out", os.path.join(workdir, op.out)])
    return calls


def _warm_up(panel, workdir):
    """The Legendre rule for every node count, then one tiny compare call.

    The tiny call goes through the CLI and runs all four routes, so every
    layer has run once before timing starts.
    """
    for nodes in panel.nodes:
        legendre_rule(nodes)
    argv = ["compare", "--n", "8", "--p", "0.3,0.3", "--k", "2,2",
            "--nodes", str(panel.nodes[0]), "--mc-reps", "1000", "--seed", "1",
            "--out", os.path.join(workdir, "warm-up.json")]
    if mnsurv.cli.run(argv) != 0:
        raise RuntimeError("warm-up compare call failed")


def _run_op(op, call, workdir, contents):
    """Time one operation; return (seconds, output record)."""
    start = time.perf_counter()
    try:
        if isinstance(op, panels.RoutesOp):
            instance, spec = call
            report = mnsurv.survival.compare_routes(instance, spec, routes=op.routes)
            seconds = time.perf_counter() - start
            return seconds, {"values": [report.exact, report.dirichlet, report.gaussian]}
        rc = mnsurv.cli.run(call)
        seconds = time.perf_counter() - start
        if rc != 0:
            return seconds, {"error": f"exit code {rc}"}
        with open(os.path.join(workdir, op.out), "rb") as fh:
            data = fh.read()
        sha = hashlib.sha256(data).hexdigest()
        contents.setdefault(sha, data.decode())
        return seconds, {"sha": sha}
    except Exception as exc:  # the op failed; the run goes on
        return time.perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}"}


def _rounds(panel, calls, workdir, until, records, contents):
    """Whole rounds, ending as near ``until`` as whole rounds can; returns
    the round times.  At least one round runs."""
    times = []
    while not times or time.perf_counter() + statistics.mean(times) / 2 < until:
        total = 0.0
        for index, (op, call) in enumerate(zip(panel.ops, calls)):
            seconds, out = _run_op(op, call, workdir, contents)
            total += seconds
            records.append({"op": index, "s": seconds, **out})
        times.append(total)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=panels.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="work directory for CLI files")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--layers", default="", help="comma-separated per-layer metric names")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(mnsurv.__file__).startswith(src + os.sep):
        raise SystemExit(f"mnsurv imported from {mnsurv.__file__}, not from {src}")

    panel = panels.build(args.workload, args.seed)
    calls = _prepare(panel, args.dir)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    _warm_up(panel, args.dir)
    tracer.remove()
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    records, contents = [], {}
    start = time.perf_counter()
    if not args.trace:
        _rounds(panel, calls, args.dir, start + args.seconds, records, contents)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        untraced = _rounds(panel, calls, args.dir, start + args.seconds / 2, records, contents)
        tracer.install()
        traced = _rounds(panel, calls, args.dir, 0.0, records, contents)
        tracer.remove()
        base = statistics.median(untraced)
        layers = tracing.layer_metrics(tracer.spans, [m for m in args.layers.split(",") if m])
        layers["trace.untraced_round_s"] = base
        layers["trace.traced_round_s"] = traced[0]
        layers["trace.overhead_pct"] = 100.0 * (traced[0] / base - 1.0)
        result["layers"] = layers
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result["ops"] = records
    result["contents"] = contents
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
