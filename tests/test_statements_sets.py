import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg.algebra import Element, mk_algebra
from aspectarg.errors import CapExceeded
from aspectarg.model import (
    ATTACK,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
)
from aspectarg.statements_sets import (
    DEPTH_STATE_CAP,
    MINREP_CAP,
    _minimal_representations,
    contains_redundancy,
    statements_sets,
)
from helpers import oracle_depth_sets, oracle_depth_sets_dp, oracle_redundancy, oracle_width_sets


def remark_graph():
    """Fan-in/chain graph reproducing the worked width/depth listings."""
    themes = {"s1": {"t2"}, "s4": {"t2"}, "s6": {"t1", "t2"},
              "s2": {"t1"}, "s5": {"t1"}, "s3": {"t1"}}
    edges = [
        Relation("s1", "s4", frozenset({ATTACK}), frozenset({"t2"})),
        Relation("s4", "s6", frozenset({ATTACK}), frozenset({"t2"})),
        Relation("s2", "s5", frozenset({SUPPORT}), frozenset({"t1"})),
        Relation("s5", "s6", frozenset({SUPPORT}), frozenset({"t1"})),
        Relation("s3", "s6", frozenset({SUPPORT}), frozenset({"t1"})),
    ]
    return Model.build(["t1", "t2"], [Statement(s) for s in themes], themes, edges)


def members_of(sets):
    return sorted(sorted(s) for s in sets)


class TestRemarkGraph:
    def test_width_attack(self):
        widths, _ = statements_sets(remark_graph(), "s6", "t2", ATTACK)
        assert members_of(widths) == [["s4", "s6"]]

    def test_width_support(self):
        widths, _ = statements_sets(remark_graph(), "s6", "t1", SUPPORT)
        assert members_of(widths) == [["s3", "s5", "s6"]]

    def test_depth_attack(self):
        _, depths = statements_sets(remark_graph(), "s6", "t2", ATTACK)
        assert members_of(depths) == [["s1", "s4", "s6"]]

    def test_depth_support(self):
        _, depths = statements_sets(remark_graph(), "s6", "t1", SUPPORT)
        assert members_of(depths) == [["s2", "s5", "s6"], ["s3", "s6"]]

    def test_width_set_is_unique(self):
        model = remark_graph()
        for s in ("s6", "s5", "s4"):
            for t in sorted(model.themes_of(s)):
                for rel in (ATTACK, SUPPORT):
                    widths, _ = statements_sets(model, s, t, rel)
                    assert len(widths) == 1


class TestIsolatedStatement:
    def test_both_sets_are_the_singleton(self):
        model = Model.build(["t"], [Statement("s")], {"s": {"t"}}, [])
        for theme in ("t", "u"):  # an anchor without the theme is its own sets too
            widths, depths = statements_sets(model, "s", theme, ATTACK)
            assert members_of(widths) == [["s"]]
            assert members_of(depths) == [["s"]]


def random_graph(rng, max_nodes=7):
    n = rng.randint(1, max_nodes)
    themes = ["t1", "t2"]
    st = {f"s{j}": set(rng.sample(themes, rng.randint(1, 2))) for j in range(n)}
    relations = []
    for _ in range(rng.randint(0, n + 3)):
        a, b = rng.choice(sorted(st)), rng.choice(sorted(st))
        pool = sorted(st[a] | st[b])
        rel_themes = set(rng.sample(pool, rng.randint(1, len(pool))))
        types = rng.choice([{ATTACK}, {SUPPORT}, {ATTACK, SUPPORT}])
        relations.append(Relation(a, b, frozenset(types), frozenset(rel_themes)))
    return Model.build(themes, [Statement(s) for s in st], st, relations)


class TestOracleEquivalence:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(13)
        for _ in range(80):
            model = random_graph(rng)
            sid = rng.choice([s.id for s in model.statements])
            theme = rng.choice(sorted(model.themes_of(sid)))
            rel = rng.choice([ATTACK, SUPPORT])
            widths, depths = statements_sets(model, sid, theme, rel)
            assert members_of(widths) == sorted(
                sorted(m) for m in oracle_width_sets(model, sid, theme, rel)
            )
            assert members_of(depths) == sorted(
                sorted(m) for m in oracle_depth_sets(model, sid, theme, rel)
            )


def complete_graph(n, rel=ATTACK):
    """``n`` statements in one theme, each related to every other."""
    ids = [f"s{i}" for i in range(n)]
    relations = [
        Relation(a, b, frozenset({rel}), frozenset({"t"})) for a in ids for b in ids if a != b
    ]
    return Model.build(["t"], [Statement(s) for s in ids], {s: {"t"} for s in ids}, relations)


def dense_graph(rng, n, density=(0.3, 0.8)):
    """A graph of ``n`` statements, most of theme ``t``, with attacks on a
    random share of the ordered pairs, some also supports; and an anchor of
    theme ``t``."""
    ids = [f"s{i}" for i in range(n)]
    density = rng.uniform(*density)
    relations = [
        Relation(a, b, frozenset(rng.choice([{ATTACK}, {ATTACK, SUPPORT}])), frozenset({"t"}))
        for a in ids for b in ids if rng.random() < density
    ]
    themes = {s: {"t"} if rng.random() < 0.85 else {"u"} for s in ids}
    anchor = rng.choice(ids)
    themes[anchor] = {"t"}
    return Model.build(["t", "u"], [Statement(s) for s in ids], themes, relations), anchor


class TestDepthSetOracles:
    def test_the_subset_table_matches_the_permutation_search(self):
        rng = random.Random(17)
        for _ in range(300):
            model = random_graph(rng, max_nodes=6) if rng.random() < 0.5 else (
                dense_graph(rng, rng.randint(1, 6))[0]
            )
            sid = rng.choice([s.id for s in model.statements])
            theme = rng.choice(sorted(model.themes_of(sid)) + ["t"])
            rel = rng.choice([ATTACK, SUPPORT])
            assert sorted(map(sorted, oracle_depth_sets_dp(model, sid, theme, rel))) == sorted(
                map(sorted, oracle_depth_sets(model, sid, theme, rel))
            )


class TestDenseDepthSets:
    """Depth sets on dense graphs, where simple paths outnumber member sets."""

    def test_dense_graphs_match_the_permutation_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            model, anchor = dense_graph(rng, rng.randint(3, 7))
            _, depths = statements_sets(model, anchor, "t", ATTACK)
            assert members_of(depths) == sorted(
                sorted(m) for m in oracle_depth_sets(model, anchor, "t", ATTACK)
            )

    def test_dense_graphs_of_ten_to_twelve_statements_match_the_subset_table(self):
        # sparser than the small graphs, so that an anchor has several sets
        rng = random.Random(43)
        for _ in range(40):
            model, anchor = dense_graph(rng, rng.randint(10, 12), density=(0.1, 0.35))
            _, depths = statements_sets(model, anchor, "t", ATTACK)
            assert members_of(depths) == sorted(
                sorted(m) for m in oracle_depth_sets_dp(model, anchor, "t", ATTACK)
            )

    def test_a_complete_graph_has_one_maximal_set(self):
        model = complete_graph(12)
        _, depths = statements_sets(model, "s0", "t", ATTACK)
        assert members_of(depths) == [sorted(f"s{i}" for i in range(12))]

    def test_the_search_is_capped(self):
        # 17 statements reach 16 * 2**15 + 1 (head, members) states
        assert 16 * 2**15 + 1 > DEPTH_STATE_CAP > 15 * 2**14 + 1
        with pytest.raises(CapExceeded, match=f"exceeds the cap of {DEPTH_STATE_CAP}"):
            statements_sets(complete_graph(17), "s0", "t", ATTACK)


class TestMinimalRepresentations:
    """``_minimal_representations`` on element masks."""

    @staticmethod
    def reps(algebra, *elements):
        return _minimal_representations([e.mask for e in elements], algebra.full_mask)

    @staticmethod
    def masks(*elements):
        return frozenset(e.mask for e in elements)

    def test_pair_with_no_smaller_representation(self, fig1, ev):
        # x -> y and ~x | ~y meet to ~x, but neither alone reaches it
        reps = self.reps(fig1, ev("x -> y"), ev("~x | ~y"))
        assert reps == [self.masks(ev("x -> y"), ev("~x | ~y"))]

    def test_negation_absorbs_the_implication(self, fig1, ev):
        assert self.reps(fig1, ev("x -> y"), ev("~x")) == [self.masks(ev("~x"))]

    def test_singleton(self, fig1, ev):
        assert self.reps(fig1, ev("x")) == [self.masks(ev("x"))]

    def test_multiple_minimal_representations(self, fig1, ev):
        # {ge, bt, bt -> ge} admits both {ge, bt} and {bt, bt -> ge}
        a = mk_algebra(["ge", "bt"])
        ge, bt, imp = (ev(f, a) for f in ("ge", "bt", "bt -> ge"))
        reps = self.reps(a, ge, bt, imp)
        assert self.masks(ge, bt) in reps
        assert self.masks(bt, imp) in reps
        assert len(reps) == 2

    def test_cap(self):
        a = mk_algebra(["x", "y", "z"])
        with pytest.raises(CapExceeded):
            _minimal_representations(range(MINREP_CAP + 1), a.full_mask)
        reps = _minimal_representations(range(MINREP_CAP), a.full_mask)
        assert reps[0] == frozenset({a.bottom.mask})


def redundancy_input(algebra, rows):
    """A one-theme model and interpretation from statement -> element masks,
    ``None`` standing for the full carrier."""
    model = Model.build(["t"], [Statement(s) for s in rows], {s: {"t"} for s in rows}, [])
    interp = Interpretation(
        algebra,
        {},
        {
            (frozenset(["t"]), sid): AspectSet(algebra, full=True)
            if row is None
            else AspectSet(algebra, frozenset(Element(algebra, m) for m in row))
            for sid, row in rows.items()
        },
    )
    return model, interp


@st.composite
def redundancy_rows(draw):
    """Rows over a small pool of elements of a 1-3 proposition algebra, so
    that infima often coincide; empty and full rows included."""
    algebra = mk_algebra(["x", "y", "z"][: draw(st.integers(1, 3))])
    pool = draw(
        st.lists(st.integers(0, algebra.carrier_size - 1), min_size=1, max_size=6, unique=True)
    )
    rows = draw(st.lists(st.frozensets(st.sampled_from(pool), max_size=5), min_size=1, max_size=4))
    full = draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    return algebra, {f"s{i}": None if i in full else row for i, row in enumerate(rows)}


class TestRedundancy:
    def make(self, rows, algebra):
        return redundancy_input(
            algebra, {sid: frozenset(e.mask for e in elems) for elems, sid in rows}
        )

    @settings(max_examples=400)
    @given(redundancy_rows())
    def test_matches_the_brute_force_oracle(self, case):
        algebra, rows = case
        model, interp = redundancy_input(algebra, rows)
        witness = contains_redundancy(interp, model, "t", rows)
        got = None if witness is None else (
            witness.first, witness.second, frozenset(e.mask for e in witness.shared)
        )
        assert got == oracle_redundancy(algebra, rows)

    def test_full_rows_share_the_bottom_past_the_cap(self):
        # 256-element carriers: only the infima decide, nothing is enumerated
        a = mk_algebra(["x", "y", "z"])
        model, interp = redundancy_input(a, {"s1": None, "s2": None})
        witness = contains_redundancy(interp, model, "t", ["s1", "s2"])
        assert witness.shared == frozenset({a.bottom})

    def test_a_full_row_meets_a_wide_row_inside_the_wide_row(self):
        # the full row is cut down to the other row, so only its size counts
        a = mk_algebra(["x", "y", "z"])
        above = frozenset(1 | m << 1 for m in range(20))  # meets to 1, not to 0
        model, interp = redundancy_input(a, {"s1": None, "s2": above})
        assert contains_redundancy(interp, model, "t", ["s1", "s2"]) is None
        wide = frozenset(range(1, 21))  # meets to 0, which it does not hold
        model, interp = redundancy_input(a, {"s1": None, "s2": wide})
        with pytest.raises(CapExceeded):
            contains_redundancy(interp, model, "t", ["s1", "s2"])

    def test_empty_rows_share_the_empty_representation(self, fig1):
        model, interp = redundancy_input(fig1, {"s1": frozenset(), "s2": {fig1.full_mask}})
        witness = contains_redundancy(interp, model, "t", ["s1", "s2"])
        assert witness.shared == frozenset()

    def test_shared_singleton_representation(self, fig1, ev):
        a = mk_algebra(["opiumInducingSleep"])
        ois = a.prop("opiumInducingSleep")
        model, interp = self.make([({ois}, "s1"), ({ois}, "s2")], a)
        witness = contains_redundancy(interp, model, "t", ["s1", "s2"])
        assert witness is not None
        assert witness.shared == frozenset({ois})

    def test_same_effective_aspect_is_not_enough(self, fig1, ev):
        # both meet to ~x, but their only minimal representations differ
        model, interp = self.make(
            [({ev("x -> y"), ev("~x | ~y")}, "s5"), ({ev("~x")}, "s6")], fig1
        )
        assert contains_redundancy(interp, model, "t", ["s5", "s6"]) is None

    def test_containing_the_other_minimal_representation(self, fig1, ev):
        # {x -> y, ~x} contains {~x}, the minimal representation of s6
        model, interp = self.make(
            [({ev("x -> y"), ev("~x")}, "s2"), ({ev("~x")}, "s6")], fig1
        )
        witness = contains_redundancy(interp, model, "t", ["s2", "s6"])
        assert witness is not None
        assert witness.shared == frozenset({ev("~x")})

    def test_singleton_set_never_redundant(self, fig1, ev):
        model, interp = self.make([({ev("x")}, "s1")], fig1)
        assert contains_redundancy(interp, model, "t", ["s1"]) is None
