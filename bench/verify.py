"""Correctness checks on every operation's output, against the oracle.

An operation fails when any of these is violated:

* each deterministic route agrees with the oracle within ``ROUTE_TOL``;
* the Dirichlet and Gaussian routes agree with each other within
  ``IDENTITY_TOL`` (the paper's identity);
* every value, Monte Carlo estimates included, lies in ``[0, 1]``;
* the Monte Carlo hit count passes an exact two-sided binomial test against
  the oracle probability at level ``MC_FAMILY_LEVEL`` divided by the number
  of Monte Carlo checks in one round (Bonferroni);
* a CLI call exits 0 and writes one row per requested instance: for
  ``sweep --k-all`` exactly the ``C(n, d)`` threshold vectors per ``n``,
  each once, and for ``compare --input`` the batch in order;
* in a sweep, no route's value rises (beyond its tolerance) when one
  threshold is raised by one.

The tolerances sit about three orders of magnitude above the errors
measured at the commit that added this benchmark (at most ~1e-13 relative
for every route on every panel), so they catch a lost digit block, not
roundoff.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.stats import binom

import oracle
import panels

ROUTES = ("exact", "dirichlet", "gaussian")
ROUTE_TOL = {"exact": 1e-10, "dirichlet": 1e-10, "gaussian": 1e-10}
IDENTITY_TOL = 1e-10
MC_FAMILY_LEVEL = 1e-6


def rel_err(value, truth):
    if truth == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - truth) / abs(truth)


def digits(err):
    return -math.log10(max(err, 1e-16))


def gaussian_applicable(n, k):
    """Whether ``compare_routes`` must run the Gaussian route on ``(n, k)``.

    After zero thresholds are merged away, every remaining gap ``J_i`` must
    be at least 1: each ``k_i >= 2`` and ``kappa_d <= n - 1``.  Instances
    with every threshold zero, or with ``kappa_d > n``, get the trivial
    values 1 and 0 on every route.
    """
    k = [v for v in k if v > 0]
    return not k or sum(k) > n or (min(k) >= 2 and sum(k) <= n - 1)


class Checker:
    """Checks the outputs of one panel; verdicts are cached per output."""

    def __init__(self, panel):
        self.panel = panel
        self._mats = {}
        self._verdicts = {}
        mc_checks = 0
        for op in panel.ops:
            if isinstance(op, panels.RoutesOp):
                continue
            if op.input is not None:
                mc_checks += len(op.records)
            else:
                mc_checks += len(panels.sweep_grid(op))
        self.mc_level = MC_FAMILY_LEVEL / max(mc_checks, 1)

    def oracle(self, n, p, k):
        key = (n, tuple(p))
        if key not in self._mats:
            self._mats[key] = oracle.log_transition_matrices(n, p)
        return oracle.survival(n, p, k, self._mats[key])

    def check(self, index, record, contents):
        """Returns (problems, instances answered, accuracy digits or None)."""
        if "error" in record:
            return [record["error"]], 0, None
        key = (index, json.dumps(record.get("values")), record.get("sha"))
        if key not in self._verdicts:
            op = self.panel.ops[index]
            if isinstance(op, panels.RoutesOp):
                self._verdicts[key] = self._check_routes(op, record["values"])
            else:
                self._verdicts[key] = self._check_cli(op, contents[record["sha"]])
        return self._verdicts[key]

    def _check_routes(self, op, values):
        row = dict(zip(ROUTES, values), mc=None)
        for route in op.routes:
            if row[route] is None:
                return [f"route {route} missing"], 1, None
        rows = [(op.n, op.p, op.k, row, None)]
        problems, acc = self._check_rows(rows)
        return problems, 1, acc

    def _check_cli(self, op, text):
        try:
            rows = _parse(text, op.fmt)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc}"], 0, None
        problems = []
        if op.input is not None:
            expected = [(r["n"], tuple(r["p"]), tuple(r["k"])) for r in op.records]
        else:
            expected = [(n, op.p, k) for n, k in panels.sweep_grid(op)]
        got = [(n, p, k) for n, p, k, _ in rows]
        if op.input is None:    # a sweep promises no row order
            got, expected = sorted(got), sorted(expected)
        if len(got) != len(expected):
            problems.append(f"{len(got)} rows written, {len(expected)} expected")
        elif got != expected:
            problems.append("rows do not match the requested instances")
        if problems:
            return problems, len(rows), None
        for n, p, k, row in rows:
            for route in ("exact", "dirichlet", "mc"):
                if row[route] is None:
                    problems.append(f"n={n} k={k}: route {route} missing")
            if row["gaussian"] is None and gaussian_applicable(n, k):
                problems.append(f"n={n} k={k}: gaussian route missing")
        found, acc = self._check_rows([(n, p, k, row, op.mc_reps) for n, p, k, row in rows])
        problems += found
        if op.input is None:
            problems += _monotone(rows)
        return problems, len(rows), acc

    def _check_rows(self, rows):
        problems = []
        acc = math.inf
        mc = []
        for n, p, k, row, reps in rows:
            truth = self.oracle(n, p, k)
            where = f"n={n} p={list(p)} k={list(k)}"
            for route in ROUTES:
                v = row[route]
                if v is None:
                    continue
                err = rel_err(v, truth)
                acc = min(acc, digits(err))
                if not 0.0 <= v <= 1.0:
                    problems.append(f"{where}: {route} = {v!r} outside [0, 1]")
                if not err <= ROUTE_TOL[route]:
                    problems.append(f"{where}: {route} = {v!r}, oracle {truth!r}")
            d, g = row["dirichlet"], row["gaussian"]
            if d is not None and g is not None and not rel_err(g, d) <= IDENTITY_TOL:
                problems.append(f"{where}: dirichlet {d!r} and gaussian {g!r} disagree")
            if row["mc"] is not None:
                if not 0.0 <= row["mc"] <= 1.0:
                    problems.append(f"{where}: mc = {row['mc']!r} outside [0, 1]")
                mc.append((round(row["mc"] * reps), reps, min(truth, 1.0), where))
        if mc:
            hits, reps, prob, where = (np.array(col) for col in zip(*mc))
            lower = binom.cdf(hits, reps, prob)
            upper = binom.sf(hits - 1, reps, prob)
            pvalue = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
            for i in np.flatnonzero(pvalue < self.mc_level):
                problems.append(
                    f"{where[i]}: mc hits {hits[i]}/{reps[i]} against oracle {float(prob[i])!r}, "
                    f"p-value {pvalue[i]:.3g} < {self.mc_level:.3g}")
        return problems, acc


def _monotone(rows):
    """Raising one threshold by one must not raise any route's value."""
    by_key = {(n, k): row for n, _, k, row in rows}
    problems = []
    for (n, k), row in by_key.items():
        for i in range(len(k)):
            up = by_key.get((n, k[:i] + (k[i] + 1,) + k[i + 1:]))
            if up is None:
                continue
            for route in ROUTES:
                a, b = row[route], up[route]
                if a is not None and b is not None and b > a * (1.0 + ROUTE_TOL[route]):
                    problems.append(f"n={n} k={k}: {route} rises when k_{i + 1} is raised")
    return problems


def _parse(text, fmt):
    """Rows ``(n, p, k, {route: value})`` from a JSON or CSV report."""
    rows = []
    if fmt == "json":
        data = json.loads(text)
        for rep in data if isinstance(data, list) else [data]:
            inst, routes = rep["instance"], rep["routes"]
            gauss = routes["gaussian"]
            row = {
                "exact": routes["exact"],
                "dirichlet": routes["dirichlet"],
                "gaussian": gauss if not isinstance(gauss, dict) else None,
                "mc": routes["mc"]["estimate"] if routes["mc"] is not None else None,
            }
            rows.append((inst["n"], tuple(inst["p"]), tuple(inst["k"]), row))
        return rows
    for rec in csv.DictReader(io.StringIO(text)):
        d = int(rec["d"])
        row = {route: float(rec[col]) if rec[col] != "" else None
               for route, col in (("exact", "exact"), ("dirichlet", "dirichlet"),
                                  ("gaussian", "gaussian"), ("mc", "mc_est"))}
        rows.append((int(rec["n"]), tuple(float(rec[f"p_{i + 1}"]) for i in range(d)),
                     tuple(int(rec[f"k_{i + 1}"]) for i in range(d)), row))
    return rows
