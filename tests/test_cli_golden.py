"""Byte-for-byte output of the CLI on a fixed panel.

Each case pins the sha256 of what one in-process ``mnsurv.cli.run`` call
writes.  A change that is meant to keep every printed number (a refactor or
a simplification) must leave all of them alone; a change that means to move
numbers updates the digests and says why.
"""

import hashlib
import json

import pytest

from mnsurv.cli import run

pytestmark = pytest.mark.pinned_bits

D6 = ["--p", "0.12,0.1,0.15,0.12,0.1,0.14", "--k", "110,95,140,110,90,130"]

CASES = [
    (["compare", "--n", "12", "--p", "0.3,0.3", "--k", "2,3", "--mc-reps", "5000", "--seed", "3"],
     "ede9b96a0cbf7798cb1bd604699ac1d4551e0292328375d32a5a931a0763dc9f"),
    (["compare", "--n", "100", "--p", "0.15,0.15,0.15,0.15,0.15", "--k", "10,10,10,10,10"],
     "6df03fa9f3f7d3bb08e6b20175f1758d192d94100a7bb9ed7afa507d29936e2b"),
    (["compare", "--n", "1000", *D6],
     "ea60f10ac081dc9dee4b28e59b7d57dc1516611d093f85a04e7be9adfe7e7e30"),
    (["sweep", "--n", "6:12:3", "--p", "0.3,0.2", "--k-all", "--format", "csv", "--nodes", "12"],
     "d015e6cf1b87e799f2df77a76b6a9c94ce05f09c9b484f089af021507c24084b"),
    (["eval", "--n", "60", "--p", "0.3,0.2,0.25", "--k", "15,10,12",
      "--routes", "gaussian,dirichlet", "--nodes", "24"],
     "96f258bfc2833ed4334ec0a1811fc35e6a67874b87836b3889081137463b4bed"),
    # the sweep above with Monte Carlo: each n's rows share one sample, with
    # seeds 3, 18 and 54
    (["sweep", "--n", "6:12:3", "--p", "0.3,0.2", "--k-all", "--format", "csv", "--nodes", "12",
      "--mc-reps", "1000", "--seed", "3"],
     "4dc70f26d5f222dc9e2a510eb6ad088a090aa70034617a4e571a858e51a9f3a5"),
    # a JSON list of 165 rows, 66 with an inapplicable Gaussian route, with
    # Monte Carlo on every row
    (["sweep", "--n", "10:16:6", "--p", "0.3,0.2", "--k-all", "--format", "json", "--nodes", "12",
      "--mc-reps", "1000", "--seed", "3"],
     "dcaeeac20eca2e8342d4f05a9ff4a6f76d26f8cb9ef5585191ab9e7cb1a59f55"),
]


IDS = ["compare-d2-mc", "compare-d5-n100", "compare-d6-n1000", "sweep-k-all-csv", "eval-integral-routes",
       "sweep-k-all-csv-mc", "sweep-k-all-json-mc"]


@pytest.mark.parametrize("args, digest", CASES, ids=IDS)
def test_report_bytes(tmp_path, args, digest):
    path = tmp_path / "out.bin"
    assert run(args + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# A mixed compare --input batch: d = 1, 2, 3 and 6, zero thresholds that
# merge cells (two rows reduce to d = 1, one to probability 1), a far tail,
# an impossible row and a Gaussian-inapplicable one (J_1 = 0).
BATCH = [
    {"n": 30, "p": [0.4], "k": [10]},
    {"n": 20, "p": [0.2, 0.3], "k": [0, 7]},
    {"n": 40, "p": [0.2, 0.3, 0.25], "k": [6, 10, 8]},
    {"n": 200, "p": [0.12, 0.1, 0.15, 0.12, 0.1, 0.14], "k": [20, 18, 26, 20, 16, 24]},
    {"n": 10, "p": [0.3, 0.3], "k": [6, 6]},
    {"n": 12, "p": [0.3, 0.3], "k": [1, 3]},
    {"n": 36, "p": [0.2, 0.3, 0.25], "k": [5, 9, 9]},
    {"n": 5, "p": [0.2, 0.2], "k": [0, 0]},
    {"n": 25, "p": [0.1, 0.35, 0.3], "k": [0, 9, 0]},
    {"n": 50, "p": [0.25, 0.25], "k": [20, 20]},
]


def test_mixed_batch_bytes(tmp_path):
    source, path = tmp_path / "batch.json", tmp_path / "out.json"
    source.write_text(json.dumps(BATCH))
    argv = ["compare", "--input", str(source), "--mc-reps", "1000", "--seed", "5", "--nodes", "40"]
    assert run(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "75524f9280544614e24e516a18b737da54e3f6a85c0e7047ad3379ce2c3bca92"
    )


def test_check_stdout(capsys):
    assert run(["check", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ec9f8650bacf22703ccfca2bb5646196956498886bf971b07afa89386087381c"
    )
