import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import (
    MAX_PROPS,
    Element,
    atoms,
    disjoint_product,
    downset,
    eta,
    inf_set,
    is_subalgebra,
    join_irreducibles,
    mk_algebra,
    sup_set,
    upset,
)
from aspectarg.errors import AlgebraError, CapExceeded
from helpers import truth_table_element


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


class TestDownUpSets:
    def test_downset_of_negated_prop(self, fig1, ev):
        # the contraries of x: everything below ~x
        got = downset(fig1, [ev("~x")])
        assert got == {ev("~x"), ev("~x & ~y"), ev("~x & y"), fig1.bottom}

    def test_downset_of_bottom(self, fig1):
        assert downset(fig1, [fig1.bottom]) == {fig1.bottom}

    def test_upset_of_atom_matches_enumeration(self, fig1, ev):
        seed = ev("x & y")
        got = upset(fig1, [seed])
        oracle = {e for e in fig1.elements() if seed <= e}
        assert got == oracle
        assert len(got) == 8

    def test_empty_seeds(self, fig1):
        assert downset(fig1, []) == frozenset()
        assert upset(fig1, []) == frozenset()

    def test_idempotent_monotone_and_extensive(self, fig1):
        rng = random.Random(1)
        elems = [Element(fig1, rng.randrange(fig1.carrier_size)) for _ in range(4)]
        d = downset(fig1, elems)
        assert downset(fig1, d) == d
        assert set(elems) <= d
        u = upset(fig1, elems)
        assert upset(fig1, u) == u
        assert set(elems) <= u
        assert downset(fig1, elems[:2]) <= downset(fig1, elems)


class TestInfSup:
    def test_inf_of_pair(self, fig1, ev):
        assert inf_set(fig1, [ev("x | y"), ev("~y")]) == ev("x & ~y")

    def test_empty_conventions(self, fig1):
        assert inf_set(fig1, []) == fig1.top
        assert sup_set(fig1, []) == fig1.bottom

    def test_sup_of_atoms(self, fig1, ev):
        assert sup_set(fig1, [ev("x & y"), ev("x & ~y")]) == ev("x")

    def test_agrees_with_folding_in_any_order(self, fig1):
        rng = random.Random(2)
        for _ in range(25):
            elems = [Element(fig1, rng.randrange(fig1.carrier_size)) for _ in range(4)]
            shuffled = elems[:]
            rng.shuffle(shuffled)
            folded = shuffled[0]
            for e in shuffled[1:]:
                folded = folded & e
            assert inf_set(fig1, elems) == folded
            folded = shuffled[0]
            for e in shuffled[1:]:
                folded = folded | e
            assert sup_set(fig1, elems) == folded


class TestAtomsAndJoinIrreducibles:
    def test_fig1_join_irreducibles_are_the_atoms(self, fig1, ev):
        expected = {ev("x & y"), ev("x & ~y"), ev("~x & y"), ev("~x & ~y")}
        assert join_irreducibles(fig1) == expected
        assert atoms(fig1) == expected

    def test_one_prop(self):
        a = mk_algebra(["p"])
        assert join_irreducibles(a) == {a.prop("p"), ~a.prop("p")}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equal_exhaustively(self, k):
        a = mk_algebra([f"p{i}" for i in range(k)])
        assert join_irreducibles(a) == atoms(a)
        assert len(atoms(a)) == 1 << k


class TestEta:
    def test_eta_of_prop(self, fig1, ev):
        oracle = {e for e in atoms(fig1) if e <= ev("x")}
        assert eta(ev("x")) == oracle == {ev("x & y"), ev("x & ~y")}

    def test_eta_extremes(self, fig1):
        assert eta(fig1.bottom) == frozenset()
        assert eta(fig1.top) == atoms(fig1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eta_is_an_isomorphism(self, k):
        a = mk_algebra([f"p{i}" for i in range(k)])
        carrier = list(a.elements())
        images = {eta(e) for e in carrier}
        assert len(images) == len(carrier)  # injective onto the powerset of atoms
        assert len(images) == 1 << (1 << k)
        all_atoms = atoms(a)
        for e in carrier:
            assert eta(~e) == all_atoms - eta(e)
        for e1 in carrier:
            for e2 in carrier:
                assert eta(e1 & e2) == eta(e1) & eta(e2)
                assert eta(e1 | e2) == eta(e1) | eta(e2)


class TestSubalgebra:
    def test_prop_and_complement(self, fig1, ev):
        assert is_subalgebra({fig1.bottom, fig1.top, ev("x"), ev("~x")}, fig1)

    def test_two_element_subalgebra(self, fig1):
        assert is_subalgebra({fig1.bottom, fig1.top}, fig1)

    def test_missing_complement(self, fig1, ev):
        assert not is_subalgebra({fig1.bottom, fig1.top, ev("x | y")}, fig1)

    def test_missing_bounds(self, fig1, ev):
        assert not is_subalgebra({ev("x"), ev("~x")}, fig1)


class TestDisjointProduct:
    def test_four_one_prop_parts(self):
        parts = [mk_algebra([name]) for name in ("aCostH", "bCostH", "aP", "bP")]
        product = disjoint_product(parts)
        assert len(atoms(product.algebra)) == 16

    def test_single_part_identity(self):
        part = mk_algebra(["p", "q"])
        product = disjoint_product([part])
        for e in part.elements():
            assert product.embed(0, e).mask == e.mask

    def test_name_clash_rejected(self):
        with pytest.raises(AlgebraError):
            disjoint_product([mk_algebra(["p"]), mk_algebra(["p"])])

    def test_embeddings_share_only_bounds(self):
        parts = [mk_algebra(["u"]), mk_algebra(["v"])]
        product = disjoint_product(parts)
        images = [
            {product.embed(i, e) for e in part.elements()} for i, part in enumerate(parts)
        ]
        shared = images[0] & images[1]
        assert shared == {product.algebra.bottom, product.algebra.top}
        for e0 in images[0]:
            for e1 in images[1]:
                if e0.comparable(e1):
                    assert any(
                        e.is_bottom or e.is_top for e in (e0, e1)
                    ), "cross-part comparability only through the bounds"

    def test_disjoint_combination_chains(self):
        # embedded x with a strict chain y1 < y2 in the other part gives
        # 0 < x & y1 < x & y2 and x | y1 < x | y2 < 1
        parts = [mk_algebra(["u"]), mk_algebra(["v1", "v2"])]
        product = disjoint_product(parts)
        part0 = [e for e in parts[0].elements() if not e.is_bottom and not e.is_top]
        part1 = [e for e in parts[1].elements() if not e.is_bottom and not e.is_top]
        bottom, top = product.algebra.bottom, product.algebra.top
        for x in part0:
            ex = product.embed(0, x)
            for y1 in part1:
                for y2 in part1:
                    if not y1 < y2:
                        continue
                    e1, e2 = product.embed(1, y1), product.embed(1, y2)
                    assert bottom < (ex & e1) < (ex & e2)
                    assert (ex | e1) < (ex | e2) < top


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

    def test_eval_matches_truth_tables(self):
        # ties the bitmask representation to an independent semantics
        from aspectarg.formulas import parse

        a = mk_algebra(["x", "y"])
        from aspectarg.formulas import evaluate

        for text in ("x & y", "x | ~y", "~x", "0", "1"):
            expr = parse(text)
            assert evaluate(expr, a) == truth_table_element(expr, a)


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
