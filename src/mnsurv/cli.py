"""Command-line interface: evaluate instances, sweep grids, run the check suite.

Subcommands
-----------
``eval``
    Evaluate one instance (or a JSON batch) with a chosen subset of routes.
``compare``
    Run every applicable route on one instance and report discrepancies.
``sweep``
    Evaluate a grid of (n, k) combinations for fixed weights, one output row
    per grid point.
``check``
    Run the identity/consistency suite; exits 3 if anything fails.

Exit codes: 0 success, 1 usage error (bad flags, including --nodes and
--mc-reps out of range, a negative --seed, a tolerance that is not
positive and finite, a --routes that names no route, or that omits mc
while --mc-reps is given, an --input or --out path that cannot be read
or written, an --input list or a sweep grid with no instance), 2 invalid
instance data (bad n/p/k), 3 check-suite failure, 4 cost guard (a
route's cost bound refuses the instance, or a sweep grid exceeds
MAX_SWEEP_ROWS rows).  All output is byte-deterministic for a given
command line, including Monte Carlo results (seeds are mandatory).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .model import build_instance, instance_with_weights
from .quadrature import MAX_NODES, MIN_NODES, MIN_PANEL_NODES, CostGuardError, QuadratureSpec

# compare_routes is not called here: the benchmark's tracer (bench/tracing.py)
# wraps it in this module.
from .survival import (
    DETERMINISTIC_ROUTES,
    MIN_REPLICATIONS,
    RouteReport,
    compare_batch,
    compare_routes,
)
from .checks import run_check_suite

__all__ = ["run", "main", "emit_report", "emit_reports", "report_to_dict"]


# A sweep holds every report until it writes them.  Measured with
# tracemalloc at d = 3 and 6, a row holds 6.1-6.8 kB until JSON is written
# and 1.1-1.2 kB for CSV, so a million JSON rows take more than 6 GB, most
# of an 8 GB machine.  Grids beyond this are refused.
MAX_SWEEP_ROWS = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization: floats are written as their shortest round-trip ``repr``, so
# parsing returns the exact same binary value.

def report_to_dict(report: RouteReport) -> dict:
    gaussian = report.gaussian
    if gaussian is None and report.gaussian_reason is not None:
        gaussian = {"inapplicable": report.gaussian_reason}
    mc = None
    if report.mc is not None:
        mc = {
            "estimate": report.mc.estimate,
            "stderr": report.mc.stderr,
            "replications": report.mc.replications,
            "seed": report.mc.seed,
        }
    return {
        "instance": {
            "n": report.n,
            "d": report.d,
            "p": list(report.p),
            "k": list(report.k),
        },
        "routes": {
            "exact": report.exact,
            "dirichlet": report.dirichlet,
            "gaussian": gaussian,
            "mc": mc,
        },
        "diagnostics": {
            "delta_n": report.delta_n,
            "gamma_tilde": report.gamma_tilde,
            "max_rel_diff": report.max_rel_diff,
        },
        "params": {"nodes": report.nodes, "tolerance": report.tolerance},
    }


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    return str(value)


def _csv_lines(reports):
    d = reports[0].d
    if any(r.d != d for r in reports):
        raise UsageError("csv output requires a uniform dimension across instances")
    header = (
        ["n", "d"]
        + [f"p_{i+1}" for i in range(d)]
        + [f"k_{i+1}" for i in range(d)]
        + ["exact", "dirichlet", "gaussian", "mc_est", "mc_se",
           "delta_n", "gamma_tilde", "max_rel_diff"]
    )
    lines = [",".join(header)]
    for r in reports:
        row = [str(r.n), str(r.d)]
        row += [_csv_cell(v) for v in r.p]
        row += [str(v) for v in r.k]
        row += [_csv_cell(r.exact), _csv_cell(r.dirichlet), _csv_cell(r.gaussian)]
        row += [
            _csv_cell(r.mc.estimate if r.mc else None),
            _csv_cell(r.mc.stderr if r.mc else None),
        ]
        row += [_csv_cell(r.delta_n), _csv_cell(r.gamma_tilde), _csv_cell(r.max_rel_diff)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_report(report: RouteReport, fmt: str = "json") -> bytes:
    """Serialize one report; JSON keys follow the documented layout."""
    return emit_reports([report], fmt, single=True)


def emit_reports(reports, fmt: str = "json", single: bool = False) -> bytes:
    if fmt == "json":
        payload = report_to_dict(reports[0]) if single else [report_to_dict(r) for r in reports]
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "csv":
        return _csv_lines(reports).encode()
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument handling

def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}")


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}")


def _int_range(text):
    """``start:stop:step`` (inclusive) or a single integer, as a ``range``."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return range(int(parts[0]), int(parts[0]) + 1)
        if len(parts) == 3:
            start, stop, step = (int(v) for v in parts)
            if step <= 0 or stop < start:
                raise ValueError
            return range(start, stop + 1, step)
    except ValueError:
        pass
    raise UsageError(f"expected INT or START:STOP:STEP, got {text!r}")


def _add_common(sub):
    sub.add_argument(
        "--nodes", type=int, default=64,
        help=f"Gauss-Legendre nodes per panel of the integral routes' chain rule, "
        f"{MIN_NODES}-{MAX_NODES}; at least {MIN_PANEL_NODES} are used (default 64)",
    )
    sub.add_argument("--tolerance", type=float, default=1e-8, help="recorded agreement tolerance")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output path (default: standard output)")
    sub.add_argument("--mc-reps", type=int, help="Monte Carlo replications (enables the mc route)")
    sub.add_argument("--seed", type=int, help="RNG seed; required whenever MC runs")


def _build_parser():
    parser = _Parser(prog="mnsurv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate one instance (or a JSON batch)")
    cp = subs.add_parser("compare", help="run all applicable routes and compare")
    for sub in (ev, cp):
        sub.add_argument("--n", type=int)
        sub.add_argument("--p", help="comma-separated weights")
        sub.add_argument("--k", help="comma-separated thresholds")
        sub.add_argument("--input", help="JSON file with a list of {n, p, k} objects")
    ev.add_argument(
        "--routes",
        help="subset of exact,dirichlet,gaussian,mc (default: the deterministic "
        "three, plus mc when --mc-reps is given)",
    )
    _add_common(ev)
    _add_common(cp)

    sw = subs.add_parser("sweep", help="evaluate a grid of (n, k) combinations")
    sw.add_argument("--n", required=True, help="INT or START:STOP:STEP (inclusive)")
    sw.add_argument("--p", required=True, help="comma-separated weights, fixed over the sweep")
    group = sw.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", help="fixed comma-separated thresholds")
    group.add_argument(
        "--k-all",
        action="store_true",
        help="all thresholds with every k_i >= 1 and sum <= n",
    )
    _add_common(sw)

    ck = subs.add_parser("check", help="run the identity/consistency suite")
    ck.add_argument("--tol", type=float, default=1e-8, help="route-agreement tolerance")
    ck.add_argument("--identity-tol", type=float, default=1e-10,
                    help="pointwise identity tolerance")
    ck.add_argument("--seed", type=int, default=7, help="seed for the randomized panels")
    return parser


def _instances_from_args(args):
    if args.input is not None:
        if args.n is not None or args.p is not None or args.k is not None:
            raise UsageError("--input replaces --n/--p/--k")
        try:
            with open(args.input, "rb") as fh:
                records = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise UsageError(f"{args.input} is not valid JSON: {exc}")
        if not isinstance(records, list):
            raise UsageError("--input must contain a JSON list of {n, p, k} objects")
        if not records:
            raise UsageError(f"{args.input} holds an empty list")
        instances = []
        for idx, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise ValueError(f"--input record {idx} is not a {{n, p, k}} object")
            try:
                instances.append(build_instance(rec.get("n"), rec.get("p"), rec.get("k")))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"--input record {idx}: {exc}") from None
        return instances
    if args.n is None or args.p is None or args.k is None:
        raise UsageError("either --input or all of --n/--p/--k are required")
    return [build_instance(args.n, _float_list(args.p), _int_list(args.k))]


def _quadrature_spec(args):
    try:
        return QuadratureSpec(nodes=args.nodes)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None


def _check_seed(args):
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")


def _check_tolerance(flag, value):
    if not 0.0 < value < math.inf:
        raise UsageError(f"{flag} must be positive and finite, got {value}")


def _check_flags(args):
    _check_tolerance("--tolerance", args.tolerance)
    _check_seed(args)
    if args.mc_reps is None:
        return
    if args.mc_reps < MIN_REPLICATIONS:
        raise UsageError(f"--mc-reps must be >= {MIN_REPLICATIONS}, got {args.mc_reps}")
    if args.seed is None:
        raise UsageError("--seed is required whenever MC is requested")


def _write(args, payload: bytes):
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _run_eval(args, routes):
    spec = _quadrature_spec(args)
    _check_flags(args)
    if routes is not None:
        if "mc" in routes and args.mc_reps is None:
            raise UsageError("route 'mc' requires --mc-reps and --seed")
        if "mc" not in routes and args.mc_reps is not None:
            raise UsageError("--mc-reps requires route 'mc' in --routes")
    instances = _instances_from_args(args)
    # instance idx of a batch draws with seed + idx
    reports = compare_batch(instances, spec, routes, args.tolerance,
                            replications=args.mc_reps, seed=args.seed)
    _write(args, emit_reports(reports, args.format, single=args.input is None))
    return 0


def _run_sweep(args):
    spec = _quadrature_spec(args)
    _check_flags(args)
    p = _float_list(args.p)
    d = len(p)
    ns = _int_range(args.n)
    if args.k_all:
        kind, rows = "--k-all", 0
        for n in ns:  # counted only until the guard is passed
            rows += math.comb(max(n, 0), d)
            if rows > MAX_SWEEP_ROWS:
                break
        size = f"at least {rows}" if n != ns[-1] else rows
    else:
        kind, rows = "--n", len(ns)
        size = rows
    if rows > MAX_SWEEP_ROWS:
        raise CostGuardError(f"{kind} grid of {size} rows exceeds the {MAX_SWEEP_ROWS} row guard")
    grid = []
    for n in ns:
        if args.k_all:
            for k in _enumerate_thresholds(d, n):
                grid.append((n, k))
        else:
            grid.append((n, _int_list(args.k)))
    if not grid:
        raise UsageError("sweep grid is empty")
    # sweep row idx draws with seed + idx
    reports = compare_batch(_sweep_instances(p, grid), spec, tolerance=args.tolerance,
                            replications=args.mc_reps, seed=args.seed)
    _write(args, emit_reports(reports, args.format))
    return 0


def _sweep_instances(p, grid):
    """The sweep's instances in grid order, built as they are consumed, so
    that a row that cannot be built fails in its turn; the first row
    validates the weights and the others share them."""
    first = build_instance(grid[0][0], p, grid[0][1])
    yield first
    for n, k in grid[1:]:
        yield instance_with_weights(n, first.weights, k)


def _enumerate_thresholds(d, n):
    """All k with every k_i >= 1 and kappa_d <= n, in lexicographic order.

    The running sums kappa are exactly the d-subsets of {1..n}, and
    lexicographic order of kappa is lexicographic order of k.
    """
    for kappa in itertools.combinations(range(1, n + 1), d):
        yield [b - a for a, b in zip((0,) + kappa, kappa)]


def _run_check(args):
    _check_tolerance("--tol", args.tol)
    _check_tolerance("--identity-tol", args.identity_tol)
    _check_seed(args)
    results = run_check_suite(
        seed=args.seed, route_tol=args.tol, identity_tol=args.identity_tol
    )
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        line = f"[{status}] {res.name:<26} residual={res.residual:.3e} tol={res.tolerance:.1e}"
        if res.detail:
            line += f"  ({res.detail})"
        print(line)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 3 if failed else 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            routes = None
            if args.routes is not None:
                routes = [tok.strip() for tok in args.routes.split(",") if tok.strip()]
                if not routes:
                    raise UsageError(f"--routes names no route: {args.routes!r}")
                unknown = set(routes) - set(DETERMINISTIC_ROUTES + ("mc",))
                if unknown:
                    raise UsageError(f"unknown routes: {sorted(unknown)}")
            return _run_eval(args, routes)
        if args.command == "compare":
            return _run_eval(args, None)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "check":
            return _run_check(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    except CostGuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
