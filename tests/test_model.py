import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnsurv import (
    build_instance,
    make_weights,
    reduce_thresholds,
    survival_exact,
)
from oracles import merge_zero_thresholds


class TestBuildInstance:
    def test_derived_quantities(self):
        inst = build_instance(4, [0.5], [2])
        assert inst.N == 3
        assert inst.j.tolist() == [2, 3]
        assert inst.J.tolist() == [1, 2]
        np.testing.assert_allclose(inst.eps, [-1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(inst.eps_tilde, [-1 / 6, 1 / 6], atol=1e-15)

    def test_zero_threshold_blocks_integral_routes(self):
        inst = build_instance(5, [0.3, 0.3], [0, 2])
        assert inst.j[0] == 0
        assert inst.gaussian_block_reason == "J_i = 0"

    def test_impossible_event_is_still_valid(self):
        inst = build_instance(2, [0.5], [5])
        assert inst.impossible
        assert survival_exact(inst) == 0.0

    def test_gap_sums(self):
        inst = build_instance(10, [0.2, 0.3, 0.25], [2, 3, 2])
        assert inst.j.sum() == inst.n + 1
        assert inst.J.sum() == inst.N

    @pytest.mark.parametrize(
        "n, p, k",
        [
            (10, [0.3, 0.3], [2]),          # length mismatch
            (10, [0.0, 0.3], [1, 1]),       # nonpositive weight
            (10, [0.6, 0.5], [1, 1]),       # weights exceed the simplex
            (10, [0.3], [-1]),              # negative threshold
            (10, [0.3], [1.5]),             # non-integer threshold
            (0, [0.3], [1]),                # n < 1
            (None, [0.3], [1]),             # n missing
            ("5", [0.3], [1]),              # n not a number
            (float("inf"), [0.3], [1]),     # n infinite
            (10, [0.3], [float("inf")]),    # infinite threshold
            (10**20, [0.3], [1]),           # n past int64
            (2**63 - 1, [0.3], [1]),        # n + 1 past int64
            (10, [0.3], [10**20]),          # threshold past int64
            (10, [0.3, 0.3], [2**62, 2**62]),  # running sum past int64
            (10, [0.3, 0.3], [2.0**62, 2.0**62]),  # the same, as floats
            (True, [0.3], [1]),             # n a boolean
            (10, [0.3], [True]),            # threshold a boolean
            (10, [0.3, 0.3], [1, True]),    # a boolean among integer thresholds
            (10, ["0.3"], [3]),             # a weight given as a string
            (10, [0.3], ["3"]),             # a threshold given as a string
            (10, [0.3], ["abc"]),           # a threshold that is no number
            (10, [0.3], [None]),            # a threshold that is an object
        ],
    )
    def test_rejects_invalid_inputs(self, n, p, k):
        with pytest.raises(ValueError):
            build_instance(n, p, k)

    @pytest.mark.parametrize(
        "k, message",
        [
            ([2**70], "int64"),             # numpy keeps it as an object
            ([3, 2**70], "int64"),
            ([2**63], "int64"),             # numpy keeps it as uint64
            ([-2**70], "nonnegative"),
            ([2**70, "3"], "strings or other objects"),
        ],
    )
    def test_huge_integer_thresholds_get_their_own_message(self, k, message):
        with pytest.raises(ValueError, match=message):
            build_instance(10, [0.3] * len(k), k)

    def test_integral_float_thresholds_are_accepted(self):
        assert build_instance(10, [0.3], [3.0]).k.tolist() == [3]

    def test_small_n_has_no_offsets(self):
        inst = build_instance(2, [0.3, 0.3, 0.2], [1, 0, 1])
        assert inst.N < 1
        assert inst.eps is None and inst.eps_tilde is None


def _object_array(*entries):
    out = np.empty(len(entries), dtype=object)  # np.array would stack equal-length lists
    for idx, entry in enumerate(entries):
        out[idx] = entry
    return out


_P_VECTOR = "p must be a non-empty 1-d vector of probabilities"
_P_NUMBERS = "p must hold numbers, not strings or other objects"
_P_MARGIN = "all weights must be >= 1e-12; got min 0.0"
_K_VECTOR = "k must be a non-empty 1-d vector"
_K_OBJECTS = "thresholds must be integers, not strings or other objects"
_K_BOOLEANS = "thresholds must be integers, not booleans"
_K_INTEGERS = "thresholds must be integers"
_K_INT64 = "the threshold sum must not exceed 9223372036854775807 (int64)"

# (input, weights it gives or the exact message it raises) for p
_P_FORMS = [
    ([0.25, 0.5], [0.25, 0.5]),
    ((0.25, 0.5), [0.25, 0.5]),
    (np.array([0, 1]), _P_MARGIN),
    (np.array([0.25, 0.5]), [0.25, 0.5]),
    (np.array([0.25, 0.5], dtype=np.float32), [0.25, 0.5]),
    (np.array([True, False]), _P_NUMBERS),
    (np.array(["0.25", "0.5"], dtype=object), _P_NUMBERS),
    (np.array([None, None], dtype=object), _P_NUMBERS),
    (np.array([0.25, 0.5], dtype=object), [0.25, 0.5]),  # read as its list
    (_object_array([0.25], [0.5]), _P_VECTOR),
    (range(2), _P_MARGIN),
    (np.float64(0.25), _P_VECTOR),
    (0.25, _P_VECTOR),
    (np.array([[0.25, 0.5]]), _P_VECTOR),
    ([[0.25, 0.5]], _P_VECTOR),
    ([], _P_VECTOR),
    ((x for x in [0.25, 0.5]), _P_VECTOR),
    ([[0.25], 0.5], _P_VECTOR),
    (["0.3"], _P_NUMBERS),
    ([0.0, 0.3], _P_MARGIN),
    ([0.6, 0.5], "weights must leave at least 1e-12 for the last cell; sum(p) = 1.1"),
    ([float("nan"), 0.3], "p must be finite"),
    ([float("inf"), 0.3], "p must be finite"),
]

# the same for k, each of length 2 where it is a vector
_K_FORMS = [
    ([1, 2], [1, 2]),
    ((1, 2), [1, 2]),
    (np.array([1, 2]), [1, 2]),
    (np.array([1, 2], dtype=np.uint8), [1, 2]),
    (np.array([1.0, 2.0]), [1, 2]),
    (np.array([True, False]), _K_BOOLEANS),
    (np.array([1, 2], dtype=object), [1, 2]),
    (np.array(["1", "2"], dtype=object), _K_OBJECTS),
    (np.array([None, None], dtype=object), _K_OBJECTS),
    (np.array([1.0, 2.0], dtype=object), [1, 2]),  # read as its list
    (_object_array([1], [2]), _K_VECTOR),
    (range(1, 3), [1, 2]),
    (np.int64(3), _K_VECTOR),
    (3, _K_VECTOR),
    (np.array([[1, 2]]), _K_VECTOR),
    ([[1, 2]], _K_VECTOR),
    ([], _K_VECTOR),
    ((x for x in [1, 2]), _K_VECTOR),
    ([[1], 2], _K_VECTOR),
    ([np.int64(1), np.float32(2.0)], [1, 2]),
    ([1, 2.0], [1, 2]),
    ([-1, 1], "thresholds must be nonnegative"),
    ([-1.0, 1], "thresholds must be nonnegative"),
    ([1.5, 1], _K_INTEGERS),
    ([np.float32(1.5), 1], _K_INTEGERS),
    ([float("inf"), 1], _K_INTEGERS),
    ([float("nan"), 1], _K_INTEGERS),
    ([True, 1], _K_BOOLEANS),
    ([1, np.True_], _K_BOOLEANS),
    (["3", True], _K_BOOLEANS),
    (["3", 1], _K_OBJECTS),
    ([None, 1], _K_OBJECTS),
    ([1 + 0j, 1], _K_OBJECTS),
    ([10**20, 1], _K_INT64),
    ([2**2000, 1], _K_INT64),
    ([2.0**62, 2.0**62], _K_INT64),
    ([1e300, 1], _K_INT64),
    (np.array([2**63, 1], dtype=np.uint64), _K_INT64),
    ([2**70, "3"], _K_OBJECTS),
    ([2**70, 1.0], _K_INT64),
    ([-2**70, 1], "thresholds must be nonnegative"),
]


def _read(name, value):
    if name == "p":
        return make_weights(value).p.tolist()
    return build_instance(10, [0.1, 0.1], value).k.tolist()  # k is read before its length


class TestVectorForms:
    """What ``p`` and ``k`` accept as a vector, and the message each bad
    form gets: a value, or a message matched in full."""

    @pytest.mark.parametrize("name, value, expected",
                             [("p", *case) for case in _P_FORMS]
                             + [("k", *case) for case in _K_FORMS])
    def test_form(self, name, value, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as caught:
                _read(name, value)
            assert str(caught.value) == expected
        else:
            assert _read(name, value) == expected


class TestDerivedInvariants:
    def test_offset_identities_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 1, 40))
            raw = rng.gamma(2.0, size=d + 1)
            p = (0.6 * raw / raw.sum() + 0.4 / (d + 1))[:d]
            k = rng.integers(0, max(2, n // d), size=d)
            inst = build_instance(n, p, k)
            assert inst.J.sum() == inst.N
            if inst.eps is not None:
                assert abs(inst.eps_tilde.sum()) <= 1e-15 * inst.d
                # bitwise, not approximate: eps_tilde is defined as p * eps
                assert np.all(inst.eps_tilde == inst.weights.p_full * inst.eps)


def _reference_derivation(n, p_full, k):
    """The derived fields by numpy array formulas: ``J / N`` divides int64
    arrays, each side cast to float64 first."""
    k = np.asarray(k, dtype=np.int64)
    d = k.size
    kappa = np.cumsum(k)
    j = np.empty(d + 1, dtype=np.int64)
    j[0] = kappa[0]
    j[1:d] = kappa[1:] - kappa[:-1]
    j[d] = n + 1 - kappa[-1]
    J = j - 1
    N = n - d
    eps = eps_tilde = None
    if N >= 1:
        eps = (J / N - p_full) / p_full
        eps_tilde = p_full * eps
    return {"k": k, "kappa": kappa, "j": j, "J": J, "eps": eps, "eps_tilde": eps_tilde}


def _assert_derivation_bits(inst, n, k):
    assert inst.N == n - len(k)
    for name, expected in _reference_derivation(n, inst.weights.p_full, k).items():
        got = getattr(inst, name)
        if expected is None:
            assert got is None, name
            continue
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
        assert not got.flags.writeable, name


@st.composite
def _derivation_cases(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 2**62)))
    # zero thresholds, thresholds near n and past it (kappa_d > n), sums within int64
    k = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**60)), min_size=d, max_size=d))
    cells = draw(st.lists(st.integers(1, 100), min_size=d + 1, max_size=d + 1))
    p = [c / sum(cells) for c in cells[:d]]
    return n, p, k


class TestDerivationBits:
    """The derived fields are the bits of the numpy formulas, for thresholds
    given as plain ints or as arrays."""

    @given(case=_derivation_cases(), kind=st.sampled_from([list, tuple, np.array]))
    @settings(max_examples=300, deadline=None)
    def test_fields_match_numpy_formulas(self, case, kind):
        n, p, k = case
        _assert_derivation_bits(build_instance(n, p, kind(k)), n, k)

    def test_offsets_past_2_53_use_float_division(self):
        # float(N) rounds here, so Python's exactly rounded J / N would differ
        n, p, k = 2**53 + 2, [0.5], [3]
        inst = build_instance(n, p, k)
        _assert_derivation_bits(inst, n, k)
        J, N = n + 1 - 3 - 1, n - 1
        assert inst.eps[1] == (float(J) / float(N) - 0.5) / 0.5
        assert inst.eps[1] != (J / N - 0.5) / 0.5


class TestReduceThresholds:
    def test_merge_forward(self):
        p2, k2 = reduce_thresholds([0.2, 0.3, 0.1], [1, 0, 2])
        np.testing.assert_allclose(p2, [0.2, 0.4])
        assert k2.tolist() == [1, 2]

    def test_all_zero(self):
        p2, k2 = reduce_thresholds([0.3, 0.3], [0, 0])
        assert p2.size == 0 and k2.size == 0

    def test_no_zero_is_identity(self):
        p2, k2 = reduce_thresholds([0.25, 0.25], [2, 1])
        np.testing.assert_allclose(p2, [0.25, 0.25])
        assert k2.tolist() == [2, 1]

    def test_preserves_exact_probability(self):
        # exhaustive sweep over small thresholds at several weight choices
        panels = [
            (5, [0.4]),
            (8, [0.25]),
            (6, [0.3, 0.3]),
            (8, [0.2, 0.5]),
            (6, [0.2, 0.3, 0.25]),
            (8, [0.3, 0.2, 0.2]),
        ]
        for n, p in panels:
            d = len(p)
            for flat in np.ndindex(*(4,) * d):
                k = list(flat)
                inst = build_instance(n, p, k)
                before = survival_exact(inst)
                p2, k2 = reduce_thresholds(p, k)
                if k2.size == 0:
                    after = 1.0
                else:
                    after = survival_exact(build_instance(n, p2, k2))
                assert after == pytest.approx(before, rel=1e-12, abs=1e-14)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 0.5, allow_nan=False),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, pairs):
        p = np.array([t[0] for t in pairs])
        p = p / (p.sum() + 1.0)  # keep a margin for the implicit cell
        k = np.array([t[1] for t in pairs], dtype=np.int64)
        p1, k1 = reduce_thresholds(p, k)
        p2, k2 = reduce_thresholds(p1, k1)
        assert np.array_equal(k1, k2)
        np.testing.assert_array_equal(p1, p2)
        assert np.all(k1 >= 1)
        # total constrained mass is conserved up to the dropped tail cells
        assert p1.sum() <= p.sum() + 1e-15

    def test_empty_round_trips(self):
        for p, k in (([], []), ((), ()), (np.array([]), np.array([], dtype=np.int64))):
            p2, k2 = reduce_thresholds(p, k)
            assert p2.shape == k2.shape == (0,)
            assert p2.dtype == np.float64 and k2.dtype == np.int64

    @pytest.mark.parametrize(
        "p, k",
        [
            pytest.param(["0.3", "0.2"], [True, 1], id="string weights, a boolean threshold"),
            pytest.param([0.3, 0.2], [True, 1], id="a boolean threshold"),
            pytest.param([0.3, 0.2], [1.7, 0], id="a non-integral threshold"),
            pytest.param([0.3], [-1], id="a negative threshold"),
            pytest.param([0.3, 0.3], [2], id="fewer thresholds than weights"),
            pytest.param([0.3], [2, 1], id="more thresholds than weights"),
            pytest.param([0.6, 0.5], [1, 1], id="weights past the simplex"),
            pytest.param([], [1], id="empty weights"),
            pytest.param([0.3], [], id="empty thresholds"),
            pytest.param([[0.3]], [[1]], id="nested"),
        ],
    )
    def test_refuses_what_build_instance_refuses(self, p, k):
        with pytest.raises(ValueError) as expected:
            build_instance(10, p, k)
        with pytest.raises(ValueError) as info:
            reduce_thresholds(p, k)
        assert str(info.value) == str(expected.value)

    @given(
        st.lists(
            st.tuples(
                st.floats(1e-6, 1.0, allow_nan=False),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=9,
        ),
        st.sampled_from(["list", "array"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_match_the_old_merge_loop(self, pairs, form):
        p = np.array([t[0] for t in pairs])
        p = p / (p.sum() * 1.0001)  # keep a margin for the implicit cell
        k = np.array([t[1] for t in pairs], dtype=np.int64)
        if form == "list":
            p, k = p.tolist(), k.tolist()
        p1, k1 = reduce_thresholds(p, k)
        p2, k2 = merge_zero_thresholds(p, k)
        assert p1.dtype == p2.dtype and k1.dtype == k2.dtype
        assert [x.hex() for x in p1.tolist()] == [x.hex() for x in p2.tolist()]
        assert k1.tolist() == k2.tolist()

