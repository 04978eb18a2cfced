import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnsurv import (
    build_instance,
    reduce_thresholds,
    survival_exact,
)


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

    def test_integral_float_thresholds_are_accepted(self):
        assert build_instance(10, [0.3], [3.0]).k.tolist() == [3]

    def test_small_n_has_no_offsets(self):
        inst = build_instance(2, [0.3, 0.3, 0.2], [1, 0, 1])
        assert inst.N < 1
        assert inst.eps is None and inst.eps_tilde is None


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

