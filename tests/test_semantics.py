import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectarg import semantics
from aspectarg.algebra import Element, mk_algebra
from aspectarg.corpus import corpus_path
from aspectarg.errors import CapExceeded, UnknownIdError
from aspectarg.model import (
    ATTACK,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
)
from aspectarg.modelfile import load_path
from aspectarg.semantics import (
    SEMANTICS_IDS,
    _AttackIndex,
    detect_logical_fallacy,
    extensions,
    logico_rhetorical_conclusion,
    sub_model,
)
from helpers import (
    oracle_conflict_free_extensions,
    oracle_dung,
    oracle_logical_fallacy,
    oracle_parse,
    random_graphic_safe_model,
    random_model_any,
    random_total_interpretation,
    truth_table_element,
    with_extra_rows,
)


def attack_model(args, attacks, themes=("t",)):
    return Model.build(
        list(themes),
        [Statement(a) for a in sorted(args)],
        {a: set(themes) for a in args},
        [Relation(a, b, frozenset({ATTACK}), frozenset(themes)) for a, b in attacks],
    )


@st.composite
def chains_feeding_cycles(draw):
    """An attack graph of 11-16 statements: a chain a0 -> a1 -> ... whose
    head is unattacked, and cycles of one to five statements (a cycle of one
    is a self-attack) that the chain feeds only from statements the head's
    side defeats (a1, a3, ...).  Extra attacks, self-attacks included, run
    inside the cycles and from cycles back into the chain past its head.  So
    grounded accepts a0 and decides the chain up to the first statement a
    cycle attacks, but no cycle statement: its extension is neither empty
    nor everything."""
    n = draw(st.integers(11, 16))
    size = draw(st.integers(2, n - 2))
    cycles: list[list[str]] = []
    while sum(map(len, cycles)) < size:
        length = draw(st.integers(1, min(5, size - sum(map(len, cycles)))))
        cycles.append([f"c{len(cycles)}_{j}" for j in range(length)])
    chain = [f"a{i:02d}" for i in range(n - size)]
    in_cycles = [c for cycle in cycles for c in cycle]
    attacks = {(chain[i], chain[i + 1]) for i in range(len(chain) - 1)}
    attacks |= {(cycle[j - 1], cycle[j]) for cycle in cycles for j in range(len(cycle))}
    defeated = chain[1::2]
    for cycle in cycles:
        attacks.add((draw(st.sampled_from(defeated)), draw(st.sampled_from(cycle))))
    pairs = [(a, b) for a in in_cycles for b in in_cycles]
    pairs += [(a, b) for a in in_cycles for b in chain[1:]]
    attacks |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return frozenset(chain + in_cycles), frozenset(attacks)


class TestSubModel:
    def test_fear_appeal_restriction(self):
        doc = load_path(corpus_path("fear_appeal"))
        sub = sub_model(doc.model, ["t1"])
        assert sorted(s.id for s in sub.model.statements) == ["s1", "s2"]
        (rel,) = sub.model.relations
        assert rel.pair == ("s2", "s1")
        assert rel.rel_types == {ATTACK}
        assert rel.themes == {"t1"}

    def test_unused_theme_set_is_undefined(self):
        doc = load_path(corpus_path("false_flag"))
        assert sub_model(doc.model, ["t"]) is None  # declared but uninhabited

    def test_unknown_theme_raises(self):
        doc = load_path(corpus_path("fear_appeal"))
        with pytest.raises(UnknownIdError):
            sub_model(doc.model, ["zzz"])

    def test_all_themes_identity_up_to_intersection(self):
        doc = load_path(corpus_path("fear_appeal"))
        sub = sub_model(doc.model, doc.model.themes)
        assert sorted(s.id for s in sub.model.statements) == ["s1", "s2"]
        assert sub.model.relations == doc.model.relations

    def test_idempotent(self):
        doc = load_path(corpus_path("fear_appeal"))
        once = sub_model(doc.model, ["t1"])
        twice = sub_model(once.model, ["t1"])
        assert twice.model.statement_themes == once.model.statement_themes
        assert twice.model.relations == once.model.relations

    def test_relation_dropped_with_its_endpoint(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("b")],
            {"a": {"t1"}, "b": {"t1", "t2"}},
            [Relation("a", "b", frozenset({ATTACK}), frozenset({"t1", "t2"}))],
        )
        sub = sub_model(model, ["t2"])
        assert [s.id for s in sub.model.statements] == ["b"]
        assert sub.model.relations == ()

    def test_random_models_restrict_to_every_theme_subset(self):
        rng = random.Random(53)
        for i in range(150):
            if i % 2:
                model = random_model_any(rng, max_themes=3)
            else:
                model = random_graphic_safe_model(rng, max_themes=3)
            for n in range(len(model.themes) + 1):
                for t in map(frozenset, combinations(model.themes, n)):
                    kept = [s for s in model.statements if model.themes_of(s.id) & t]
                    sub = sub_model(model, t)
                    if not kept:
                        assert sub is None
                        continue
                    ids = {s.id for s in kept}
                    assert sub.model.statements == tuple(kept)
                    assert dict(sub.model.statement_themes) == {
                        sid: model.themes_of(sid) & t for sid in ids
                    }
                    assert list(sub.model.relations) == [
                        Relation(r.source, r.target, r.rel_types, r.themes & t)
                        for r in model.relations
                        if r.themes & t and r.source in ids and r.target in ids
                    ]
                    assert sub.model.themes == tuple(th for th in model.themes if th in t)

    def test_what_lies_inside_the_theme_set_is_the_models_own(self):
        model = Model.build(
            ["t1", "t2", "t3"],
            [Statement("a"), Statement("b")],
            {"a": {"t1", "t2"}, "b": {"t1", "t2", "t3"}},
            [
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t1"})),
                Relation("b", "a", frozenset({SUPPORT}), frozenset({"t1", "t3"})),
            ],
        )
        inside, narrowed = sub_model(model, ["t1", "t2"]).model.relations
        assert inside is model.relations[0]
        assert narrowed == Relation("b", "a", frozenset({SUPPORT}), frozenset({"t1"}))
        typing = sub_model(model, ["t1", "t2"]).model.statement_themes
        assert typing["a"] is model.statement_themes["a"]
        assert typing["b"] == {"t1", "t2"}


class TestExtensions:
    def test_single_attacker_grounded(self):
        model = attack_model({"s1", "s2"}, {("s2", "s1")})
        sub = sub_model(model, ["t"])
        assert extensions(sub, "grounded") == {frozenset({"s2"})}

    def test_two_cycle(self):
        model = attack_model({"s1", "s2"}, {("s1", "s2"), ("s2", "s1")})
        sub = sub_model(model, ["t"])
        assert extensions(sub, "grounded") == {frozenset()}
        assert extensions(sub, "preferred") == {frozenset({"s1"}), frozenset({"s2"})}

    def test_no_attacks_everything_accepted(self):
        model = attack_model({"a", "b", "c"}, set())
        sub = sub_model(model, ["t"])
        everyone = frozenset({frozenset({"a", "b", "c"})})
        for sem in SEMANTICS_IDS:
            # with no attacks even complete collapses: everything is defended
            assert extensions(sub, sem) == everyone

    def test_support_edges_do_not_affect_extensions(self):
        base = attack_model({"a", "b"}, {("a", "b")})
        with_support = Model.build(
            ["t"],
            [Statement("a"), Statement("b")],
            {"a": {"t"}, "b": {"t"}},
            [
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t"})),
                Relation("b", "a", frozenset({SUPPORT}), frozenset({"t"})),
            ],
        )
        for sem in SEMANTICS_IDS:
            assert extensions(sub_model(base, ["t"]), sem) == extensions(
                sub_model(with_support, ["t"]), sem
            )

    def test_unknown_semantics(self):
        model = attack_model({"a"}, set())
        with pytest.raises(ValueError):
            extensions(sub_model(model, ["t"]), "sceptical")

    def test_enumeration_cap(self):
        args = {f"s{i}" for i in range(18)}
        model = attack_model(args, set())
        sub = sub_model(model, ["t"])
        with pytest.raises(CapExceeded):
            extensions(sub, "preferred")
        extensions(sub, "grounded")  # fixpoint computation is not capped

    def test_enumeration_cap_is_exactly_sixteen(self):
        sub = sub_model(attack_model({f"s{i:02d}" for i in range(17)}, set()), ["t"])
        for sem in SEMANTICS_IDS:
            if sem != "grounded":
                with pytest.raises(CapExceeded, match="17 statements"):
                    extensions(sub, sem)

    def test_sixteen_statements_without_attacks(self):
        args = frozenset(f"s{i:02d}" for i in range(16))
        sub = sub_model(attack_model(args, set()), ["t"])
        for sem in SEMANTICS_IDS:
            assert extensions(sub, sem) == {args}, sem

    def test_sixteen_self_attacking_statements(self):
        args = frozenset(f"s{i:02d}" for i in range(16))
        sub = sub_model(attack_model(args, {(a, a) for a in args}), ["t"])
        for sem in ("grounded", "complete", "preferred", "naive"):
            assert extensions(sub, sem) == {frozenset()}, sem
        # the only conflict-free set is the empty one, which attacks no one
        assert extensions(sub, "stable") == frozenset()

    def test_sixteen_statements_in_mutually_attacking_pairs(self):
        # every choice of at most one statement per pair is conflict-free, and
        # the 2^8 choices of exactly one are the maximal ones
        args = frozenset(f"{side}{i}" for i in range(8) for side in "ab")
        attacks = frozenset(
            edge for i in range(8) for edge in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))
        )
        sub = sub_model(attack_model(args, attacks), ["t"])
        oracle = oracle_dung(args, attacks)
        assert len(extensions(sub, "naive")) == 256
        for sem in SEMANTICS_IDS:
            assert extensions(sub, sem) == oracle[sem], sem

    def test_against_oracle_on_random_graphs(self):
        rng = random.Random(16)
        # pairs are drawn with a == b too, so graphs include self-attacks
        for density in (0.25, 0, 0.1, 0.5):
            for _ in range(60):
                n = rng.randint(1, 10)
                args = frozenset(f"s{j}" for j in range(n))
                attacks = frozenset(
                    (a, b) for a in args for b in args if rng.random() < density
                )
                sub = sub_model(attack_model(args, attacks), ["t"])
                oracle = oracle_dung(args, attacks)
                for sem in SEMANTICS_IDS:
                    assert extensions(sub, sem) == oracle[sem], (sem, sorted(attacks))

    @given(chains_feeding_cycles())
    @settings(max_examples=150, deadline=None)
    def test_against_full_enumeration_past_ten_statements(self, graph):
        args, attacks = graph
        sub = sub_model(attack_model(args, attacks), ["t"])
        (grounded,) = extensions(sub, "grounded")
        assert grounded and grounded != args
        expected = oracle_conflict_free_extensions(args, attacks)
        for sem, exts in expected.items():
            assert extensions(sub, sem) == exts, sem

    def test_a_chain_grounded_decides_is_searched_once(self, monkeypatch):
        visited = []
        search = _AttackIndex.conflict_free_sets

        def counted(index, *seed):
            for found in search(index, *seed):
                visited.append(found[0])
                yield found

        monkeypatch.setattr(_AttackIndex, "conflict_free_sets", counted)
        args = [f"s{i:02d}" for i in range(16)]
        chain = {(args[i], args[i + 1]) for i in range(15)}
        sub = sub_model(attack_model(set(args), chain), ["t"])
        for sem in ("complete", "preferred", "stable"):
            visited.clear()
            assert extensions(sub, sem) == {frozenset(args[0::2])}, sem
            assert len(visited) == 1, sem

    def test_grounded_inside_every_preferred(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 8)
            args = frozenset(f"s{j}" for j in range(n))
            attacks = frozenset(
                (a, b) for a in args for b in args if rng.random() < 0.3
            )
            sub = sub_model(attack_model(args, attacks), ["t"])
            (grounded,) = extensions(sub, "grounded")
            for preferred in extensions(sub, "preferred"):
                assert grounded <= preferred


class TestConclusion:
    def test_fear_appeal_grounded_conclusion(self):
        doc = load_path(corpus_path("fear_appeal"))
        got = logico_rhetorical_conclusion(doc.model, doc.interpretation, ["t1"], "grounded")
        expected = oracle_parse("aP & (~bP & bCostH)")
        assert got == truth_table_element(expected, doc.interpretation.algebra)

    def test_undefined_sub_model_yields_absent(self):
        doc = load_path(corpus_path("false_flag"))
        assert (
            logico_rhetorical_conclusion(doc.model, doc.interpretation, ["t"], "grounded")
            is None
        )

    def test_two_preferred_extensions_join(self, fig1):
        model = Model.build(
            ["t"],
            [Statement("s1"), Statement("s2")],
            {"s1": {"t"}, "s2": {"t"}},
            [
                Relation("s1", "s2", frozenset({ATTACK}), frozenset({"t"})),
                Relation("s2", "s1", frozenset({ATTACK}), frozenset({"t"})),
            ],
        )
        u, v = fig1.prop("x") & fig1.prop("y"), fig1.prop("x") & ~fig1.prop("y")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "s1"): AspectSet(fig1, frozenset({u})),
                (frozenset(["t"]), "s2"): AspectSet(fig1, frozenset({v})),
            },
        )
        got = logico_rhetorical_conclusion(model, interp, ["t"], "preferred")
        assert got == u | v == fig1.prop("x")

    def test_grounded_empty_extension_is_absent(self, fig1):
        model = attack_model({"s1", "s2"}, {("s1", "s2"), ("s2", "s1")})
        interp = Interpretation(fig1, {}, {})
        assert logico_rhetorical_conclusion(model, interp, ["t"], "grounded") is None

    def test_absent_aspects_contribute_top(self, fig1):
        model = attack_model({"s1", "s2"}, set())
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t"]), "s1"): AspectSet(fig1, frozenset({fig1.prop("x")}))},
        )
        # s2 has no aspects; the extension {s1, s2} meets only over s1
        got = logico_rhetorical_conclusion(model, interp, ["t"], "grounded")
        assert got == fig1.prop("x")

    def test_single_extension_with_shared_aspect_concludes_it(self, fig1):
        model = attack_model({"s1", "s2", "s3"}, set())
        u = fig1.prop("x") | fig1.prop("y")
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t"]), sid): AspectSet(fig1, frozenset({u}))
                for sid in ("s1", "s2", "s3")
            },
        )
        for sem in SEMANTICS_IDS:
            exts = extensions(sub_model(model, ["t"]), sem)
            assert len(exts) == 1
            assert logico_rhetorical_conclusion(model, interp, ["t"], sem) == u

    def test_conclusion_is_an_element_iff_some_extension_nonempty(self, fig1):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randint(1, 5)
            args = frozenset(f"s{j}" for j in range(n))
            attacks = frozenset((a, b) for a in args for b in args if rng.random() < 0.3)
            model = attack_model(args, attacks)
            interp = Interpretation(
                fig1,
                {},
                {
                    (frozenset(["t"]), sid): AspectSet(
                        fig1, frozenset({fig1.prop(rng.choice(["x", "y"]))})
                    )
                    for sid in args
                },
            )
            for sem in SEMANTICS_IDS:
                exts = extensions(sub_model(model, ["t"]), sem)
                conclusion = logico_rhetorical_conclusion(model, interp, ["t"], sem)
                if any(e for e in exts):
                    assert conclusion is not None
                else:
                    assert conclusion is None


class TestLogicalFallacy:
    def test_contradictory_extension(self):
        doc = load_path(corpus_path("contradictory_conclusion"))
        verdict = detect_logical_fallacy(doc.model, doc.interpretation, "grounded")
        assert verdict.found
        assert verdict.witness == frozenset({"t"})
        assert verdict.conclusion is not None and verdict.conclusion.is_bottom

    def test_uniform_aspects_are_never_contradictory(self, fig1):
        model = attack_model({"s1", "s2"}, set(), themes=("t1", "t2"))
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset([t]), sid): AspectSet(fig1, frozenset({fig1.prop("x")}))
                for t in ("t1", "t2")
                for sid in ("s1", "s2")
            },
        )
        assert not detect_logical_fallacy(model, interp, "grounded").found

    def test_absent_conclusion_is_not_a_fallacy(self, fig1):
        model = attack_model({"s1", "s2"}, {("s1", "s2"), ("s2", "s1")})
        interp = Interpretation(fig1, {}, {})
        assert not detect_logical_fallacy(model, interp, "grounded").found

    def test_scan_skips_unused_themes(self):
        doc = load_path(corpus_path("false_flag"))
        verdict = detect_logical_fallacy(doc.model, doc.interpretation, "grounded")
        assert not verdict.found

    def test_against_oracle_on_random_models(self, monkeypatch):
        searched = self.searched_theme_sets(monkeypatch)
        rng = random.Random(30)
        found = in_vain = 0
        for i in range(400):
            if i % 4:
                model, interp = scan_instance(rng)
            else:
                model = random_model_any(rng, max_themes=3)
                interp = random_total_interpretation(rng, model, mk_algebra(["x", "y"]))
                interp = with_extra_rows(rng, model, interp)
            for sem in SEMANTICS_IDS:
                searched.clear()
                expected = oracle_logical_fallacy(model, interp, sem)
                verdict = detect_logical_fallacy(model, interp, sem)
                assert verdict.witness == expected, (sem, model, interp)
                assert verdict.found == (expected is not None)
                if verdict.found:
                    assert verdict.conclusion.is_bottom
                found += verdict.found
                # a search without a fallacy: a sub-model met at 0, no extension did
                in_vain += len(searched) - verdict.found
        assert found > 500 and in_vain > 500, (found, in_vain)

    @staticmethod
    def layered_model(ev, planted):
        """Themes t1-t3, whose sub-models all meet above 0 unless ``planted``.

        c3 has no aspect, and c2 holds the full row (infimum 0) at {t1, t3},
        a set it does not carry.  The plant gives t2 an attacked contradiction
        of p1, ``p2``, so every set holding t2 meets at 0, and ``p4`` (~y at
        t3), which contradicts c2 (y at t2), so {t2, t3} and {t1, t2, t3}
        conclude 0 and {t2, t3} is the witness under every semantics.
        """
        typing = {"c1": {"t1"}, "c2": {"t2"}, "c3": {"t1"}, "c4": {"t1", "t2"},
                  "c5": {"t3"}, "p1": {"t2"}}
        rows = {("t1", "c1"): "x | y", ("t2", "c2"): "y", ("t1", "c4"): "x",
                ("t2", "c4"): "x", ("t3", "c5"): "x | y", ("t2", "p1"): "x"}
        relations = []
        if planted:
            typing |= {"p2": {"t2"}, "p4": {"t3"}}
            rows |= {("t2", "p2"): "~x", ("t3", "p4"): "~y"}
            relations.append(Relation("p1", "p2", frozenset({ATTACK}), frozenset({"t2"})))
        model = Model.build(
            ["t1", "t2", "t3"], [Statement(s) for s in typing], typing, relations
        )
        algebra = ev("x").algebra
        aspects = {
            (frozenset([t]), s): AspectSet(algebra, frozenset({ev(text)}))
            for (t, s), text in rows.items()
        }
        aspects[frozenset({"t1", "t3"}), "c2"] = AspectSet(algebra, full=True)
        return model, Interpretation(algebra, {}, aspects)

    @staticmethod
    def searched_theme_sets(monkeypatch):
        """The theme sets of the sub-models searched from now on, in order."""
        searched = []
        search = semantics.extensions

        def counted(sub, name):
            searched.append(frozenset(sub.model.themes))
            return search(sub, name)

        monkeypatch.setattr(semantics, "extensions", counted)
        return searched

    def test_a_consistent_model_is_scanned_without_a_search(self, ev, monkeypatch):
        model, interp = self.layered_model(ev, planted=False)
        searched = self.searched_theme_sets(monkeypatch)
        for sem in SEMANTICS_IDS:
            assert not detect_logical_fallacy(model, interp, sem).found, sem
            assert oracle_logical_fallacy(model, interp, sem) is None, sem
        assert searched == []

    def test_a_planted_model_is_searched_only_where_it_meets_at_0(self, ev, monkeypatch):
        model, interp = self.layered_model(ev, planted=True)
        searched = self.searched_theme_sets(monkeypatch)
        for sem in SEMANTICS_IDS:
            searched.clear()
            verdict = detect_logical_fallacy(model, interp, sem)
            assert verdict.witness == oracle_logical_fallacy(model, interp, sem) == {"t2", "t3"}
            # the sets holding t2, in scan order, up to the witness
            assert searched == [{"t2"}, {"t1", "t2"}, {"t2", "t3"}], sem

    def test_an_unknown_semantics_is_refused_at_the_first_defined_sub_model(self, monkeypatch):
        searched = self.searched_theme_sets(monkeypatch)
        # {t1} has no statement, {t2} has one, and every sub-model meets above 0
        model = Model.build(
            ["t1", "t2"],
            [Statement("s0"), Statement("s1")],
            {"s1": {"t2"}},
            [Relation("s0", "s0", frozenset({ATTACK}), frozenset({"t1"}))],
        )
        interp = Interpretation(mk_algebra(["x"]), {}, {})
        with pytest.raises(ValueError, match="unknown semantics 'sceptical'; choose from"):
            detect_logical_fallacy(model, interp, "sceptical")
        undefined = Model.build(
            ["t1"], [Statement("s0")], {},
            [Relation("s0", "s0", frozenset({ATTACK}), frozenset({"t1"}))],
        )
        assert not detect_logical_fallacy(undefined, interp, "sceptical").found
        assert searched == []


def scan_instance(rng: random.Random) -> tuple[Model, Interpretation]:
    """A model of 1-3 themes and 1-6 ordinary statements for the fallacy scan.

    Most aspects hold where x and y both do, so most theme sets meet above 0;
    the others are absent, empty, full (infimum 0) or any element.  Half the
    models give two statements that share a theme contradicting aspects
    there, and half of those let one attack the other, so a sub-model meets
    at 0 where an extension may not.
    """
    algebra = mk_algebra(["x", "y"])
    both = (algebra.prop("x") & algebra.prop("y")).mask
    consistent = [m for m in range(algebra.carrier_size) if m & both]
    themes = [f"t{i + 1}" for i in range(rng.randint(1, 3))]
    ids = [f"s{i}" for i in range(rng.randint(1, 6))]
    typing = {s: set(rng.sample(themes, rng.randint(1, len(themes)))) for s in ids}
    rows = {}
    for s in ids:
        for t in typing[s]:
            roll = rng.random()
            if roll < 0.15:
                continue  # absent
            if roll < 0.2:
                rows[frozenset([t]), s] = AspectSet(algebra, frozenset())
            elif roll < 0.3:
                rows[frozenset([t]), s] = AspectSet(algebra, full=True)
            else:
                pool = consistent if rng.random() < 0.85 else range(1, algebra.carrier_size)
                masks = rng.sample(pool, rng.randint(1, 2))
                rows[frozenset([t]), s] = AspectSet(
                    algebra, frozenset(Element(algebra, m) for m in masks)
                )
    density = rng.choice([0, 0.15, 0.35])
    relations = []
    for a in ids:
        for b in ids:
            shared = sorted(typing[a] & typing[b])
            if shared and rng.random() < density:
                kind = ATTACK if rng.random() < 0.8 else SUPPORT
                relations.append(Relation(a, b, frozenset({kind}), frozenset(shared)))
    if len(ids) > 1 and rng.random() < 0.5:
        a, b = rng.sample(ids, 2)
        t = rng.choice(sorted(typing[a]))
        typing[b].add(t)
        e = Element(algebra, rng.randrange(1, algebra.carrier_size - 1))
        rows[frozenset([t]), a] = AspectSet(algebra, frozenset({e}))
        rows[frozenset([t]), b] = AspectSet(algebra, frozenset({~e}))
        if rng.random() < 0.5:
            relations.append(Relation(a, b, frozenset({ATTACK}), frozenset({t})))
    model = Model.build(themes, [Statement(s) for s in ids], typing, relations)
    return model, Interpretation(algebra, {}, rows)
