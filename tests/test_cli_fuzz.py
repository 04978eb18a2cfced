"""A fuzz of the CLI over argv and ``--input`` records.

Flags and values come from the documented set, valid and invalid: NaN,
infinities, negative and huge numbers, strings, booleans and nested lists.
Half the cases are valid throughout; in the others any value may be bad.
Whatever they are, ``run`` returns an exit code and never raises, and a
failure writes exactly one stderr line whose prefix names its code.

The work is bounded: ``n <= 60`` (``n <= 10`` for ``--k-all``) except for
values that trip a guard or a validation, ``--mc-reps <= 3000``, a few
``--nodes`` values, and ``check`` only with a flag that refuses it before
the suite runs.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mnsurv.cli import run

PREFIX = {1: "usage error: ", 2: "invalid instance: ", 4: "cost guard: "}

# past a guard or a validation: the exact route's matrices, the Monte Carlo
# chunk, the --k-all and --n row guards, or int64
_HUGE = [10**7, 2**63, 10**20]
_JUNK = ["x", "", " ", "1.5", "True", "[1]", "nan", "inf", "-inf", ","]

_BAD_N = st.one_of(st.integers(-2, 0), st.sampled_from(_HUGE)).map(str) | st.sampled_from(_JUNK)
_BAD_P = st.lists(st.sampled_from(["0.3", "0.45", "1e-13", "0", "-0.1", "1.5", "1e300", "nan",
                                   "inf", "-inf", "x", "True", "[0.3]", ""]),
                  min_size=1, max_size=4).map(",".join)
_BAD_K = st.lists(st.sampled_from(["0", "1", "12", "-1", "99999999999999999999", "x", "1.5",
                                   "True", "[1]", ""]),
                  min_size=1, max_size=4).map(",".join)


def _bad_range(top):
    return st.one_of(
        _BAD_N,
        st.tuples(st.integers(-3, top), st.integers(-3, top), st.integers(-1, 4))
        .map(lambda t: "%d:%d:%d" % t),
        st.sampled_from(["1:20000000:1", "5:%d:%d" % (10**7, 10**7 - 5), "1:5", "1:5:x", ":"]),
    )


# flag -> (valid values, invalid values)
_COMMON = {
    "--nodes": (st.sampled_from(["2", "16", "32"]), st.sampled_from(["1", "129", "x"])),
    "--tolerance": (st.sampled_from(["1e-8", "0.5"]),
                    st.sampled_from(["0", "-1", "nan", "inf", "x"])),
    "--format": (st.sampled_from(["json", "csv"]), st.just("xml")),
}
_MC = (st.sampled_from([["--mc-reps", "1000"], ["--mc-reps", "3000"]]),
       st.sampled_from([["--seed", "0"], ["--seed", "7"], ["--seed", str(2**64)]]))
_BAD_MC = st.sampled_from([["--mc-reps", "999"], ["--mc-reps", "-5"], ["--mc-reps", "x"],
                           ["--mc-reps", "nan"], ["--seed", "-1"], ["--seed", "x"]])
_BAD_ROUTES = st.lists(st.sampled_from(["exact", "mc", "magic", "", " "]),
                       min_size=1, max_size=3).map(",".join)

_BAD_CHECK = {
    "--tol": st.sampled_from(["0", "-1", "nan", "inf", "x"]),
    "--identity-tol": st.sampled_from(["0", "-1", "nan", "inf", "x"]),
    "--seed": st.sampled_from(["-1", "x"]),
}
_GOOD_CHECK = {"--tol": "1e-8", "--identity-tol": "1e-10", "--seed": "7"}

# what JSON can carry in place of a number or a list
_BAD_VALUE = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["10", "x", ""]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1, 0, 1.5, 1e300]),
    st.sampled_from(_HUGE), st.lists(st.integers(0, 3), max_size=2),
    st.lists(st.lists(st.just(0.3), max_size=2), min_size=1, max_size=2),
)


@st.composite
def _instance(draw):
    """Valid ``(n, p, k)``: weights that sum below 1, thresholds of their length."""
    d = draw(st.integers(1, 4))
    p = draw(st.lists(st.sampled_from([0.05, 0.1, 0.15, 0.2]), min_size=d, max_size=d))
    k = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 12]), min_size=d, max_size=d))
    return draw(st.integers(1, 60)), p, k


@st.composite
def _record(draw, spoiled):
    n, p, k = draw(_instance())
    record = {"n": n, "p": p, "k": k}
    if spoiled and draw(st.booleans()):
        if draw(st.booleans()):
            return draw(_BAD_VALUE)  # not an object
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            del record[key]
        elif key == "n" or draw(st.booleans()):
            record[key] = draw(_BAD_VALUE)
        else:
            record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(_BAD_VALUE)
    return record


def _pick(draw, spoiled, valid, invalid):
    """A valid value, or in a spoiled case an invalid one a third of the time."""
    return draw(st.one_of(valid, valid, invalid) if spoiled else valid)


@st.composite
def _argv(draw):
    """``(argv, records)``; an ``{input}`` token stands for the records' path
    and ``{out}`` for an output path."""
    command = draw(st.sampled_from(["eval", "compare", "sweep", "check"]))
    if command == "check":
        # one refusing flag, last, so that no other value overrides it
        bad = draw(st.sampled_from(sorted(_BAD_CHECK) + ["--frobnicate"]))
        good = draw(st.lists(st.sampled_from(sorted(set(_GOOD_CHECK) - {bad})), unique=True))
        last = [bad] if bad == "--frobnicate" else [bad, draw(_BAD_CHECK[bad])]
        return ["check"] + [t for flag in good for t in (flag, _GOOD_CHECK[flag])] + last, None

    spoiled = draw(st.booleans())
    argv, records = [command], None
    n, p, k = draw(_instance())
    p_text, k_text = ",".join(map(str, p)), ",".join(map(str, k))
    if command == "sweep":
        k_all = draw(st.booleans())
        top = 10 if k_all else 60
        start = draw(st.integers(1, top))
        steps = st.tuples(st.integers(start, top), st.integers(1, 4))
        ranges = st.just(str(start)) | steps.map(lambda t: "%d:%d:%d" % ((start,) + t))
        argv += ["--n", _pick(draw, spoiled, ranges, _bad_range(top)),
                 "--p", _pick(draw, spoiled, st.just(p_text), _BAD_P)]
        argv += ["--k-all"] if k_all else ["--k", _pick(draw, spoiled, st.just(k_text), _BAD_K)]
    elif draw(st.booleans()):
        records = draw(st.lists(_record(spoiled), min_size=1, max_size=4))
        if spoiled and draw(st.booleans()):
            records = draw(st.one_of(st.just([]), _BAD_VALUE, _record(spoiled)))
        argv += ["--input", "{input}"]
        if spoiled and draw(st.booleans()):
            argv += [draw(st.sampled_from(["--n", "--p", "--k"])), "1"]
    else:
        argv += ["--n", _pick(draw, spoiled, st.just(str(n)), _BAD_N),
                 "--p", _pick(draw, spoiled, st.just(p_text), _BAD_P),
                 "--k", _pick(draw, spoiled, st.just(k_text), _BAD_K)]
        if spoiled and draw(st.booleans()):
            drop = argv.index(draw(st.sampled_from(["--n", "--p", "--k"])))
            del argv[drop : drop + 2]

    for flag in draw(st.lists(st.sampled_from(sorted(_COMMON)), unique=True)):
        argv += [flag, _pick(draw, spoiled, *_COMMON[flag])]
    mc = draw(st.booleans())
    if mc:
        argv += draw(_MC[0]) + draw(_MC[1])
    if command == "eval" and draw(st.booleans()):
        routes = draw(st.lists(st.sampled_from(["exact", "dirichlet", "gaussian"]),
                               min_size=0 if mc else 1, unique=True)) + (["mc"] if mc else [])
        argv += ["--routes", _pick(draw, spoiled, st.just(",".join(routes)), _BAD_ROUTES)]
    if spoiled and draw(st.booleans()):
        argv += draw(_BAD_MC)
    if spoiled and draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["--frobnicate", "stray", "--k-all"])))
    out = ["{out}"] * 4 + (["{out}/missing"] if spoiled else [])
    return argv + ["--out", draw(st.sampled_from(out))], records


@given(case=_argv())
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_returns_a_code_and_one_stderr_line(tmp_path, capsys, case):
    argv, records = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(records))
    argv = [token.format(input=path, out=tmp_path / "out") for token in argv]
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code in PREFIX, (code, err)
        assert err.startswith(PREFIX[code]) and err.endswith("\n") and err.count("\n") == 1, err
