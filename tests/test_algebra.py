import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import MAX_PROPS, Element, closed_under_boolean_ops, mk_algebra
from aspectarg.errors import AlgebraError, CapExceeded
from helpers import (
    atoms,
    eta,
    join_irreducibles,
    oracle_closed_under_boolean_ops,
    oracle_parse,
    truth_table_element,
)


class TestConstruction:
    def test_two_props_has_four_atoms(self, fig1, ev):
        assert len(atoms(fig1)) == 4
        expected = {ev("x & y"), ev("x & ~y"), ev("~x & y"), ev("~x & ~y")}
        assert atoms(fig1) == expected

    def test_one_prop_carrier(self):
        a = mk_algebra(["p"])
        carrier = set(a.elements())
        assert carrier == {a.bottom, a.top, a.prop("p"), ~a.prop("p")}

    def test_empty_props_rejected_by_default(self):
        with pytest.raises(AlgebraError):
            mk_algebra([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(AlgebraError, match="duplicate"):
            mk_algebra(["p", "p"])

    def test_prop_cap(self):
        with pytest.raises(CapExceeded):
            mk_algebra([f"p{i}" for i in range(MAX_PROPS + 1)])
        assert mk_algebra([f"p{i}" for i in range(MAX_PROPS)]).k == MAX_PROPS == 20


class TestLatticeOps:
    def test_meet_of_disjunction_and_negation(self, ev):
        # (x | y) & ~y collapses to x & ~y
        assert ev("x | y") & ev("~y") == ev("x & ~y")

    def test_complement_of_top_is_bottom(self, fig1):
        assert ~fig1.top == fig1.bottom

    def test_join_with_complement_is_top(self):
        rng = random.Random(0)
        a = mk_algebra(["p", "q", "r", "s"])
        for _ in range(50):
            e = Element(a, rng.randrange(a.carrier_size))
            assert (e | ~e) == a.top
            assert (e & ~e) == a.bottom

    def test_leq(self, ev):
        assert ev("x & y") <= ev("x")
        assert ev("x") <= ev("x | y")
        assert not ev("x") <= ev("~x")

    def test_mixed_algebra_rejected(self, fig1):
        other = mk_algebra(["p"])
        with pytest.raises(AlgebraError):
            fig1.top & other.top

    def test_reflected_order(self, ev):
        assert ev("x") >= ev("x & y") and ev("x | y") > ev("x")
        assert not ev("x") > ev("x") and ev("x") >= ev("x")
        assert not ev("x") >= ev("~x") and not ev("~x") >= ev("x")

    @pytest.mark.parametrize("compare", ["<", "<=", ">", ">="])
    def test_order_with_a_non_element_is_a_type_error(self, fig1, compare):
        e = fig1.prop("x")
        for other in (5, None, fig1.top.mask):
            with pytest.raises(TypeError):
                eval(f"e {compare} other")
            with pytest.raises(TypeError):
                eval(f"other {compare} e")

    @pytest.mark.parametrize("compare", ["<", "<=", ">", ">="])
    def test_order_across_algebras_is_refused(self, fig1, compare):
        e, other = fig1.top, mk_algebra(["p"]).top
        with pytest.raises(AlgebraError):
            eval(f"e {compare} other")


class TestAtomsAndJoinIrreducibles:
    def test_fig1_join_irreducibles_are_the_atoms(self, fig1, ev):
        expected = {ev("x & y"), ev("x & ~y"), ev("~x & y"), ev("~x & ~y")}
        assert join_irreducibles(fig1) == expected
        assert atoms(fig1) == expected

    def test_one_prop(self):
        a = mk_algebra(["p"])
        assert join_irreducibles(a) == {a.prop("p"), ~a.prop("p")}


class TestEta:
    def test_eta_of_prop(self, fig1, ev):
        oracle = {e for e in atoms(fig1) if e <= ev("x")}
        assert eta(ev("x")) == oracle == {ev("x & y"), ev("x & ~y")}

    def test_eta_extremes(self, fig1):
        assert eta(fig1.bottom) == frozenset()
        assert eta(fig1.top) == atoms(fig1)


class TestSubalgebra:
    """``closed_under_boolean_ops``, the test behind ``bat``, on element masks."""

    @staticmethod
    def closed(algebra, elements) -> bool:
        return closed_under_boolean_ops(frozenset(e.mask for e in elements), algebra.full_mask)

    def test_prop_and_complement(self, fig1, ev):
        assert self.closed(fig1, {fig1.bottom, fig1.top, ev("x"), ev("~x")})

    def test_two_element_subalgebra(self, fig1):
        assert self.closed(fig1, {fig1.bottom, fig1.top})

    def test_missing_complement(self, fig1, ev):
        assert not self.closed(fig1, {fig1.bottom, fig1.top, ev("x | y")})

    def test_missing_bounds(self, fig1, ev):
        assert not self.closed(fig1, {ev("x"), ev("~x")})

    def test_missing_meet(self, fig1, ev):
        # closed under complement, but x & y and x | y are missing
        row = {fig1.bottom, fig1.top, ev("x"), ev("~x"), ev("y"), ev("~y")}
        assert not self.closed(fig1, row)

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_set_agrees_with_the_pairwise_oracle(self, k):
        """All 2^(2^(2^k)) sets of masks of a k-proposition carrier."""
        full = mk_algebra([f"p{i}" for i in range(k)]).full_mask
        carrier = range(full + 1)
        found = 0
        for bits in range(1 << len(carrier)):
            masks = frozenset(m for m in carrier if bits >> m & 1)
            expected = oracle_closed_under_boolean_ops(masks, full)
            assert closed_under_boolean_ops(masks, full) == expected, sorted(masks)
            found += expected
        assert found == {1: 2, 2: 15}[k]  # the subalgebras: one per partition of the atoms

    def test_a_row_of_65536_elements_is_decided_in_under_a_second(self):
        """The carrier of four propositions is a subalgebra; without one of
        its masks it is not.  A test by every pair would take minutes."""
        a = mk_algebra(["p", "q", "r", "s"])
        carrier = frozenset(range(a.carrier_size))
        for row, expected in ((carrier, True), (carrier - {a.prop("p").mask}, False)):
            start = time.perf_counter()
            assert closed_under_boolean_ops(row, a.full_mask) is expected
            assert time.perf_counter() - start < 1.0


class TestAlgebraLaws:
    @pytest.mark.parametrize("k", [1, 2])
    def test_laws_exhaustive(self, k):
        a = mk_algebra([f"p{i}" for i in range(k)])
        carrier = list(a.elements())
        for x in carrier:
            assert ~~x == x
            for y in carrier:
                assert ~(x & y) == ~x | ~y
                assert ~(x | y) == ~x & ~y
                for z in carrier:
                    assert x & (y | z) == (x & y) | (x & z)

    @given(st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0))
    @settings(max_examples=200)
    def test_laws_randomized(self, mx, my, mz):
        a = mk_algebra(["p", "q", "r", "s"])
        x = Element(a, mx % a.carrier_size)
        y = Element(a, my % a.carrier_size)
        z = Element(a, mz % a.carrier_size)
        assert x & (y | z) == (x & y) | (x & z)
        assert ~(x & y) == ~x | ~y
        assert ~~x == x

    def test_eval_matches_truth_tables(self, ev):
        # ties the bitmask representation to an independent semantics
        a = mk_algebra(["x", "y"])
        for text in ("x & y", "x | ~y", "~x", "0", "1"):
            assert ev(text, a) == truth_table_element(oracle_parse(text), a)


class TestMinterms:
    """``minterms`` against a per-bit oracle, up to 16 propositions."""

    @staticmethod
    def per_bit(mask: int, width: int) -> tuple[int, ...]:
        return tuple(i for i in range(width) if (mask >> i) & 1)

    def test_random_masks(self):
        rng = random.Random(23)
        for k in (1, 2, 3, 5, 8):
            a = mk_algebra([f"p{i}" for i in range(k)])
            for mask in [0, a.full_mask] + [rng.getrandbits(a.n_minterms) for _ in range(30)]:
                assert Element(a, mask).minterms() == self.per_bit(mask, a.n_minterms)

    def test_sixteen_propositions(self):
        a = mk_algebra([f"p{i}" for i in range(16)])
        mask = random.Random(24).getrandbits(a.n_minterms) | 1 | (1 << (a.n_minterms - 1))
        assert Element(a, mask).minterms() == self.per_bit(mask, a.n_minterms)
        assert a.top.minterms() == tuple(range(a.n_minterms))
