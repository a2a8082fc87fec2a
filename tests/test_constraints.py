import dataclasses
import random
import runpy
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aspectarg import constraints
from aspectarg.algebra import Element, mk_algebra
from aspectarg.constraints import (
    ALPHA_GROUPS,
    CORE,
    EXACT_REGION_IDS,
    E,
    check_core,
    check_das,
    check_exact_region,
    check_fresh_aspects,
    check_graphic,
    check_groups,
    check_nwci,
    classify_normal_form,
    classify_relations,
    recheck,
    run_group,
    violation_row,
    WitnessRows,
)
from aspectarg.corpus import CORPUS_NAMES, corpus_path
from aspectarg.model import (
    ATTACK,
    OMEGA,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    AspectTable,
    Statement,
    Violation,
    _Memo,
    effective_aspect,
    lookup,
    row_subset,
)
from aspectarg.modelfile import from_dict, load_path
from helpers import (
    all_violations,
    block_instance,
    issubset,
    oracle_core,
    oracle_exact_region,
    oracle_fresh_aspects,
    oracle_graphic,
    oracle_relation_kinds,
    random_graphic_safe_model,
    random_model_any,
    random_total_interpretation,
    redundant_instance,
    region_instance,
    renamed,
    with_extra_rows,
    with_mixed_omega_rows,
    with_odd_omega_rows,
)


def aspects(algebra, *elements):
    return AspectSet(algebra, frozenset(elements))


def single_theme_model(*statement_ids, relations=()):
    return Model.build(
        ["t"],
        [Statement(s) for s in statement_ids],
        {s: {"t"} for s in statement_ids},
        list(relations),
    )


class TestGraphic:
    def test_false_flag_violates_nnp_only(self):
        doc = load_path(corpus_path("false_flag"))
        out = check_graphic(doc.model)
        assert [v.statements for v in out["nnp"]] == [("s1",)]
        assert not any(out[c] for c in ("tr", "nsa", "kos", "nss"))

    def test_theme_relevance_proof_graph(self):
        # relation typed with a theme neither endpoint carries in common
        model = Model.build(
            ["t1", "t2"],
            [Statement("a1"), Statement("a2")],
            {"a1": {"t1"}, "a2": {"t1", "t2"}},
            [Relation("a1", "a2", frozenset({ATTACK}), frozenset({"t2"}))],
        )
        out = check_graphic(model)
        assert [v.relation for v in out["tr"]] == [("a1", "a2")]

    def test_self_attack(self):
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({ATTACK}), frozenset({"t"}))]
        )
        out = check_graphic(model)
        assert [v.relation for v in out["nsa"]] == [("s", "s")]

    def test_self_support_is_fine(self):
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({SUPPORT}), frozenset({"t"}))]
        )
        assert not check_graphic(model)["nsa"]

    def test_kos_pointer_typed_beyond_target(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1"}, "p": {"t1", "t2"}},
            [],
        )
        out = check_graphic(model)
        assert [v.statements for v in out["kos"]] == [("p",)]

    def test_nnp_summary_pointer_uninhabited_theme(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t2", ref_target=None)],
            {"a": {"t1"}, "c": {"t1"}},
            [],
        )
        assert [v.statements for v in check_graphic(model)["nnp"]] == [("c",)]

    def test_nnp_summary_pointer_may_inhabit_its_own_theme(self):
        model = Model.build(
            ["t1"],
            [Statement("c", ref_theme="t1", ref_target=None)],
            {"c": {"t1"}},
            [],
        )
        assert not check_graphic(model)["nnp"]

    def test_nss_double_typed_relation(self):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK, SUPPORT}), frozenset({"t"}))],
        )
        out = check_graphic(model)
        assert any(v.relation == ("a", "b") and not v.statements for v in out["nss"])

    def test_nss_double_supporter(self):
        model = single_theme_model(
            "a", "b", "s",
            relations=[
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t"})),
                Relation("s", "a", frozenset({SUPPORT}), frozenset({"t"})),
                Relation("s", "b", frozenset({SUPPORT}), frozenset({"t"})),
            ],
        )
        out = check_graphic(model)
        assert any(v.statements == ("s",) and "supports both ends" in v.detail for v in out["nss"])

    def test_nss_double_supportee(self):
        model = single_theme_model(
            "a", "b", "s",
            relations=[
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t"})),
                Relation("a", "s", frozenset({SUPPORT}), frozenset({"t"})),
                Relation("b", "s", frozenset({SUPPORT}), frozenset({"t"})),
            ],
        )
        out = check_graphic(model)
        assert any(v.statements == ("s",) and "supported by both" in v.detail for v in out["nss"])

    def test_nss_no_shared_theme_no_violation(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement(s) for s in ("a", "b", "s")],
            {"a": {"t1", "t2"}, "b": {"t1", "t2"}, "s": {"t1", "t2"}},
            [
                Relation("a", "b", frozenset({ATTACK}), frozenset({"t1"})),
                Relation("s", "a", frozenset({SUPPORT}), frozenset({"t1"})),
                Relation("s", "b", frozenset({SUPPORT}), frozenset({"t2"})),
            ],
        )
        assert not check_graphic(model)["nss"]


class TestCore:
    def test_fear_appeal_fails_inclusion_at_t2_s2_only(self):
        doc = load_path(corpus_path("fear_appeal"))
        out = check_core(doc.model, doc.interpretation)
        assert [(v.statements, v.theme_set) for v in out["i"]] == [(("s2",), ("t2",))]
        clean = {cid for cid, vs in out.items() if not vs}
        assert clean == {"aass", "vi", "bat", "pr", "mat", "manss", "ss"}

    def test_existence_model_satisfies_all_core(self):
        # one ordinary statement, one theme, the four-element algebra
        algebra = mk_algebra(["x"])
        model = Model.build(["t1"], [Statement("a1")], {"a1": {"t1"}}, [])
        interp = Interpretation(
            algebra,
            {frozenset(["t1"]): AspectSet(algebra, full=True)},
            {(frozenset(["t1"]), "a1"): aspects(algebra, algebra.prop("x"))},
        )
        assert not all_violations(check_core(model, interp))

    def test_substantial_statement_rejects_bottom(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.prop("x"), ~fig1.prop("x"))},
        )
        out = check_core(model, interp)
        assert [v.statements for v in out["ss"]] == [("s",)]
        assert "inconsistent" in out["ss"][0].detail

    def test_substantial_statement_rejects_top(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.top)},
        )
        assert check_core(model, interp)["ss"]

    def test_self_attack_breaks_aass_regardless_of_aspects(self, fig1):
        # with aspects present the two sides are equal; absent, they are empty
        model = single_theme_model(
            "s", relations=[Relation("s", "s", frozenset({ATTACK}), frozenset({"t"}))]
        )
        with_aspects = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {(frozenset(["t"]), "s"): aspects(fig1, fig1.prop("x"))},
        )
        without = Interpretation(fig1, {}, {})
        assert check_core(model, with_aspects)["aass"]
        assert check_core(model, without)["aass"]

    def test_vacuous_interpretation_flags_explicit_empty_key(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1, {}, {(frozenset(), "s"): aspects(fig1, fig1.prop("x"))}
        )
        assert [v.statements for v in check_core(model, interp)["vi"]] == [("s",)]

    def test_bat_requires_closure(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): aspects(fig1, fig1.bottom, fig1.top, fig1.prop("x"))},
            {},
        )
        out = check_core(model, interp)
        assert [v.theme_set for v in out["bat"]] == [("t",)]

    @pytest.mark.parametrize(
        "props, formula", [("xy", "x"), ("xy", "1"), ("p", "p")], ids=["x", "1", "p"]
    )
    def test_bat_rejects_a_one_element_row(self, ev, props, formula):
        # a one-element row lacks 0 or 1, so it is no subalgebra
        algebra = mk_algebra(list(props))
        model = single_theme_model("s")
        interp = Interpretation(algebra, {frozenset(["t"]): aspects(algebra, ev(formula, algebra))}, {})
        assert [v.theme_set for v in check_core(model, interp)["bat"]] == [("t",)]

    def test_bat_requires_meets(self, fig1, ev):
        # the row holds 0, 1 and every complement, but not x & y
        model = single_theme_model("s")
        row = aspects(fig1, fig1.bottom, fig1.top, ev("x"), ev("~x"), ev("y"), ev("~y"))
        interp = Interpretation(fig1, {frozenset(["t"]): row}, {})
        assert [v.theme_set for v in check_core(model, interp)["bat"]] == [("t",)]

    def test_ss_ranges_over_the_statements_own_themes(self, fig1):
        # s carries only t1, so its inconsistent row at {t1, t2} breaks pr, not ss
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1"}}, [])
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, x),
                (frozenset(["t1", "t2"]), "s"): aspects(fig1, x, ~x),
            },
        )
        out = check_core(model, interp)
        assert out["ss"] == []
        assert [v.theme_set for v in out["pr"]] == [("t1", "t2")]

    def test_ss_lists_only_the_statements_own_theme_sets(self, fig1):
        # s carries only t1; its effective aspect is 1 at {t1} and 0 at {t2}
        # and, by the union default, at {t1, t2}: only {t1} is an ss witness
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1"}}, [])
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, fig1.top),
                (frozenset(["t2"]), "s"): aspects(fig1, x, ~x),
            },
        )
        assert effective_aspect(interp, model, ["t1", "t2"], "s") == fig1.bottom
        out = check_core(model, interp)
        assert [v.theme_set for v in out["ss"]] == [("t1",)]
        assert "trivial (1)" in out["ss"][0].detail

    def test_bat_accepts_subalgebra_and_full(self, fig1):
        model = single_theme_model("s")
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): aspects(fig1, fig1.bottom, fig1.top, x, ~x)},
            {},
        )
        assert not check_core(model, interp)["bat"]

    def test_pr_ordinary_statement_range(self, fig1):
        model = Model.build(
            ["t1", "t2"], [Statement("s")], {"s": {"t1"}}, []
        )
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t2"]), "s"): aspects(fig1, fig1.prop("x"))},
        )
        out = check_core(model, interp)
        assert any(v.statements == ("s",) and v.theme_set == ("t2",) for v in out["pr"])

    def test_pr_pointer_bounded_by_target(self, fig1):
        model = Model.build(
            ["t1"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1"}, "p": {"t1"}},
            [],
        )
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "a"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t1"]), "p"): aspects(fig1, fig1.prop("y")),
            },
        )
        assert any(v.statements == ("p",) for v in check_core(model, interp)["pr"])

    def test_pr_dangling_pointer_with_aspects(self, fig1):
        model = Model.build(
            ["t1"],
            [Statement("p", ref_theme="t1", ref_target="ghost")],
            {"p": {"t1"}},
            [],
        )
        interp = Interpretation(
            fig1, {}, {(frozenset(["t1"]), "p"): aspects(fig1, fig1.prop("x"))}
        )
        assert check_core(model, interp)["pr"]

    def test_mat_monotone_theme_aspects(self, fig1):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        interp = Interpretation(
            fig1,
            {frozenset(["t1"]): AspectSet(fig1, full=True)},
            {},
        )
        out = check_core(model, interp)
        assert any(v.theme_set == ("t1",) and v.theme_set2 == ("t1", "t2") for v in out["mat"])

    def test_manss_shrinking_statement_aspects(self, fig1):
        model = Model.build(["t1", "t2"], [Statement("s")], {"s": {"t1", "t2"}}, [])
        interp = Interpretation(
            fig1,
            {},
            {
                (frozenset(["t1"]), "s"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t1", "t2"]), "s"): aspects(fig1, fig1.prop("y")),
            },
        )
        assert check_core(model, interp)["manss"]

    def test_manss_exempts_summary_pointers(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t1", ref_target=None)],
            {"a": {"t1"}, "c": {"t1", "t2"}},
            [],
        )
        interp = Interpretation(
            fig1,
            {},
            {(frozenset(["t1"]), "c"): aspects(fig1, fig1.prop("x"))},
        )
        # lookup({t1,t2}, c) is empty although lookup({t1}, c) is not
        assert not check_core(model, interp)["manss"]

    def test_aass_support_needs_comparability(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({SUPPORT}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("x")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("y")),
            },
        )
        out = check_core(model, interp)
        assert [v.relation for v in out["aass"]] == [("a", "b")]


class TestExactRegion:
    def test_post_hoc_aspect_growth_violates_eos(self, fig1):
        # an ordinary statement gains an aspect when a wider context observes it
        model = Model.build(
            ["t1968", "tAP"], [Statement("a_he")], {"a_he": {"t1968", "tAP"}}, []
        )
        win, retreat = fig1.prop("x"), fig1.prop("y")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1968"]): AspectSet(fig1, full=True),
                frozenset(["tAP"]): AspectSet(fig1, full=True),
                frozenset(["t1968", "tAP"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1968"]), "a_he"): aspects(fig1, win),
                (frozenset(["tAP"]), "a_he"): aspects(fig1, win),
                (frozenset(["t1968", "tAP"]), "a_he"): aspects(fig1, win, retreat),
            },
        )
        assert not all_violations(check_core(model, interp))  # why eos is not core
        out = check_exact_region(model, interp)
        assert any(v.statements == ("a_he",) for v in out["eos"])

    def test_constant_interpretation_passes(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [
                Statement("a"),
                Statement("p", ref_theme="t1", ref_target="a"),
                Statement("c", ref_theme="t1", ref_target=None),
            ],
            {"a": {"t1", "t2"}, "p": {"t1"}, "c": {"t1"}},
            [],
        )
        x = fig1.prop("x")
        rows = {}
        for t_set in (frozenset(["t1"]), frozenset(["t2"]), frozenset(["t1", "t2"])):
            for sid in ("a", "p", "c"):
                rows[(t_set, sid)] = aspects(fig1, x)
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
                frozenset(["t1", "t2"]): AspectSet(fig1, full=True),
            },
            rows,
        )
        assert not all_violations(check_exact_region(model, interp))

    def test_pointer_context_dependence_violates_ensr(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("p", ref_theme="t1", ref_target="a")],
            {"a": {"t1", "t2"}, "p": {"t1", "t2"}},
            [],
        )
        x = fig1.prop("x")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1"]), "a"): aspects(fig1, x),
                (frozenset(["t2"]), "a"): aspects(fig1, x),
                (frozenset(["t1"]), "p"): aspects(fig1, x),
            },
        )
        out = check_exact_region(model, interp)
        assert any(v.constraint == "ensr" and v.statements == ("p",) for v in out["ensr"])

    def test_summary_reinterpretation_violates_esr(self, fig1):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("c", ref_theme="t1", ref_target=None)],
            {"a": {"t1", "t2"}, "c": {"t1", "t2"}},
            [],
        )
        x, y = fig1.prop("x"), fig1.prop("y")
        interp = Interpretation(
            fig1,
            {
                frozenset(["t1"]): AspectSet(fig1, full=True),
                frozenset(["t2"]): AspectSet(fig1, full=True),
            },
            {
                (frozenset(["t1"]), "c"): aspects(fig1, x),
                (frozenset(["t2"]), "c"): aspects(fig1, y),
            },
        )
        out = check_exact_region(model, interp)
        assert any(v.statements == ("c",) for v in out["esr"])

    def test_core_plus_region_constraints_give_monotone_statements(self):
        rng = random.Random(6)
        for _ in range(30):
            model, interp = block_instance(rng)
            assert not all_violations(check_core(model, interp))
            assert not all_violations(check_exact_region(model, interp))
            subsets = list(interp.theme_aspects)
            for s in model.statements:
                for t1 in subsets:
                    for t2 in subsets:
                        if t1 <= t2:
                            assert issubset(
                                lookup(interp, model, t1, s.id), lookup(interp, model, t2, s.id)
                            )


def bench_block_doc(m: int, n: int) -> dict:
    """The benchmark's Core+E-normal ``block_doc`` of ``m`` themes and ``n``
    statements, from the seed ``f"{m}/{n}"``."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    block_doc = runpy.run_path(str(bench / "workloads.py"))["block_doc"]
    return block_doc(random.Random(f"{m}/{n}"), m, n)


class TestExactRegionAtScale:
    """E by row classes on block models, which have one omega class per
    set of owning themes and meet in regions that are not full."""

    def test_a_normal_model_at_the_theme_cap_lists_nothing(self):
        doc = from_dict(bench_block_doc(12, 12))
        found = check_exact_region(doc.model, doc.interpretation)
        assert set(found) == set(EXACT_REGION_IDS) and not any(found.values())

    def test_one_broken_row_at_six_themes_matches_the_oracle(self):
        raw = bench_block_doc(6, 8)
        # an ordinary statement has only singleton rows; give it the top
        # element alone at two themes, which every common region holds
        sid, themes = "a1", raw["themes"][:2]
        raw["interpretation"]["statement_aspects"].append(
            {"themes": themes, "statement": sid, "aspects": ["1"]}
        )
        doc = from_dict(raw)
        model, interp = doc.model, doc.interpretation
        out = check_exact_region(model, interp)
        found = [
            (v.constraint, v.statements[0], v.theme_set, v.theme_set2)
            for vs in out.values()
            for v in vs
        ]
        assert found and sorted(found) == sorted(oracle_exact_region(model, interp))
        for vs in out.values():
            assert vs == sorted(vs, key=Violation.sort_key)


def shuffled(rng, model):
    """``model`` with its themes and statements declared in a random order."""
    themes, statements = list(model.themes), list(model.statements)
    rng.shuffle(themes)
    rng.shuffle(statements)
    return Model.build(themes, statements, model.statement_themes, model.relations)


class TestExactRegionOracle:
    """E against a checker written from the definition, and its lists in
    report order without a sort."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_witnesses_match_the_oracle(self, rng, blocks):
        if blocks:
            model, interp = block_instance(rng)
            # break E at one row so block instances report witnesses too
            key, (full, masks) = rng.choice(sorted(interp.statement_aspects.items(), key=repr))
            if not full:
                rows = {**interp.statement_aspects, key: (False, masks | {interp.algebra.full_mask})}
                interp = dataclasses.replace(interp, statement_aspects=rows)
        else:
            model, interp = region_instance(rng)
        model = shuffled(rng, model)
        out = check_exact_region(model, interp)
        assert set(out) == set(EXACT_REGION_IDS)
        found = [
            (v.constraint, v.statements[0], v.theme_set, v.theme_set2)
            for vs in out.values()
            for v in vs
        ]
        assert sorted(found) == sorted(oracle_exact_region(model, interp))
        for vs in out.values():
            assert all(len(v.statements) == 1 for v in vs)
            assert vs == sorted(vs, key=Violation.sort_key)
            # the detail names the statement and both theme sets
            assert [v.detail for v in vs] == [
                f"aspects of {v.statements[0]} differ between {v.theme_set!r} and"
                f" {v.theme_set2!r} inside their common theme region"
                for v in vs
            ]


class TestExactRegionWitnesses:
    """E's lists keep the contract of a list of violations: read-only
    sequences of ``Violation`` built when read."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_the_lists_read_as_lists_of_violations(self, rng):
        model, interp = region_instance(rng)
        for vs in check_exact_region(model, interp).values():
            listed = list(vs)
            assert vs == listed and listed == vs and not vs != listed
            assert len(vs) == len(listed) and list(vs) == listed  # iterated twice
            assert [vs[i] for i in range(-len(vs), 0)] == listed
            assert vs[::-1] == listed[::-1] and vs[1::3] == listed[1::3]
            assert vs[-2:] == listed[-2:] and vs[len(vs) :] == []
            assert all(recheck(model, interp, v) for v in vs)
            if vs:
                assert vs != listed[1:] and vs != listed[:-1] + [Violation("eos")]
                assert vs.index(listed[-1]) == listed.index(listed[-1]) and listed[0] in vs
                with pytest.raises(TypeError):
                    vs[0] = listed[0]
            with pytest.raises(IndexError):
                vs[len(vs)]
        verdict = classify_normal_form(model, interp, (CORE, E))
        joined = [v for g in (CORE, E) for vs in run_group(model, interp, g).values() for v in vs]
        assert list(verdict.violations) == sorted(joined, key=Violation.sort_key)

    def test_a_list_equals_itself_and_shows_its_violations(self):
        rng = random.Random(9)
        model = random_model_any(rng, max_themes=3)
        interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        found = check_exact_region(model, interp)
        assert all(found.values())
        for vs in found.values():
            assert vs == vs and not vs != vs and vs == list(vs)
            assert repr(vs) == f"ExactRegionWitnesses({list(vs)!r})"
        esr, ensr = found["esr"], found["ensr"]
        assert esr.context is ensr.context and esr != ensr
        again = check_exact_region(model, interp)["esr"]
        assert again.context is not esr.context and again == esr and esr == tuple(esr)

    def test_a_list_equals_only_lists_tuples_and_exact_region_lists(self):
        doc = load_path(corpus_path("straw_man"))
        found = check_exact_region(doc.model, doc.interpretation)
        empty = found["eos"]
        assert len(empty) == 0 and empty == found["esr"]
        assert empty == [] and [] == empty and empty == () and () == empty
        for other in ("", b"", range(0), bytearray(), [None]):
            assert empty != other and other != empty and not empty == other


def witness_instance(rng: random.Random) -> tuple[Model, Interpretation]:
    """A model of 1-4 themes with :func:`random_total_interpretation`, half
    the time with explicit multi-theme, empty-set and full rows
    (:func:`with_extra_rows`), and half the time with omega rows drawn by
    :func:`with_mixed_omega_rows`."""
    model = random_model_any(rng, max_themes=4)
    interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
    if rng.random() < 0.5:
        interp = with_extra_rows(rng, model, interp)
    if rng.random() < 0.5:
        interp = with_mixed_omega_rows(rng, model, interp)
    return model, interp


def row_lists(model, interp) -> list:
    """Every witness list of core, das, nwci and F."""
    return [
        *check_core(model, interp).values(),
        check_das(model, interp),
        check_nwci(model, interp),
        *check_fresh_aspects(model, interp).values(),
    ]


class TestWitnessRows:
    """Core's, das's, nwci's and F's lists keep the contract of a list of
    violations: read-only sequences of ``Violation`` in ``sort_key`` order,
    built when read."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_the_lists_read_as_lists_of_violations(self, rng):
        model, interp = witness_instance(rng)
        for vs in row_lists(model, interp):
            assert isinstance(vs, WitnessRows)
            listed = list(vs)
            assert listed == sorted(listed, key=Violation.sort_key)
            assert vs == listed and listed == vs and not vs != listed
            assert vs == tuple(listed) and tuple(listed) == vs
            assert len(vs) == len(listed) and list(vs) == listed  # iterated twice
            assert [vs[i] for i in range(len(vs))] == listed
            assert [vs[i] for i in range(-len(vs), 0)] == listed
            assert vs[::-1] == listed[::-1] and vs[1::3] == listed[1::3]
            assert vs[-2:] == listed[-2:] and vs[len(vs) :] == []
            assert all(recheck(model, interp, v) for v in vs)
            assert type(vs).__hash__ is None
            with pytest.raises(TypeError):
                hash(vs)
            for index in (len(vs), -len(vs) - 1):
                with pytest.raises(IndexError):
                    vs[index]
            if vs:
                assert vs != listed[1:] and vs != listed[:-1] + [Violation("i")]
                assert vs.index(listed[-1]) == listed.index(listed[-1]) and listed[0] in vs
                with pytest.raises(TypeError):
                    vs[0] = listed[0]
        verdict = classify_normal_form(model, interp, ALPHA_GROUPS)
        joined = [
            v for g in ALPHA_GROUPS for vs in run_group(model, interp, g).values() for v in vs
        ]
        assert list(verdict.violations) == sorted(joined, key=Violation.sort_key)

    def test_explicit_multi_theme_and_empty_set_rows(self):
        # a row at the empty set (vi) and one at two themes that holds
        # neither the empty set's row nor one singleton row (manss)
        algebra = mk_algebra(["p", "q"])
        model = Model.build(["t1", "t2"], [Statement("a")], {"a": {"t1", "t2"}}, [])
        p, q = (Element(algebra, m) for m in (0b1100, 0b1010))
        rows = {
            (frozenset(), "a"): aspects(algebra, p),
            (frozenset(["t1"]), "a"): aspects(algebra, p),
            (frozenset(["t2"]), "a"): aspects(algebra, q),
            (frozenset(["t1", "t2"]), "a"): aspects(algebra, q, ~q),
        }
        omega = {frozenset(["t1"]): AspectSet(algebra, full=True)}
        interp = Interpretation(algebra, omega, rows)
        found = check_core(model, interp)
        assert [(v.theme_set, v.theme_set2) for v in found["manss"]] == [
            ((), ("t2",)),
            (("t1",), ("t1", "t2")),
        ]
        assert [v.theme_set for v in found["vi"]] == [()]
        witnesses = [
            (v.constraint, v.statements, v.relation, v.theme_set, v.theme_set2, v.rel_type)
            for vs in found.values()
            for v in vs
        ]
        assert sorted(witnesses, key=repr) == sorted(oracle_core(model, interp), key=repr)
        for vs in found.values():
            assert all(recheck(model, interp, v) for v in vs)
            assert list(vs) == sorted(vs, key=Violation.sort_key)

    def test_equality_with_other_sequences(self):
        rng = random.Random(9)
        model = random_model_any(rng, max_themes=3)
        interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        interp = with_extra_rows(rng, model, interp)
        found, again = check_core(model, interp), check_core(model, interp)
        assert any(found.values())
        for cid, vs in found.items():
            assert vs == again[cid] and not vs != again[cid]
            assert repr(vs) == f"WitnessRows({list(vs)!r})"
        # an E list and a list of rows of the same violations are equal
        region = check_exact_region(model, interp)
        for vs in region.values():
            rows = WitnessRows([violation_row(v) for v in vs])
            assert rows == vs and vs == rows and rows == list(vs)
        nonempty = [vs for vs in found.values() if vs]
        assert nonempty[0] != nonempty[0][:-1] and nonempty[0] != region["esr"][:1] + [None]

    def test_an_empty_list_equals_only_empty_lists_tuples_and_sequences(self):
        doc = load_path(corpus_path("straw_man"))
        lists = row_lists(doc.model, doc.interpretation)
        empty = [vs for vs in lists if not vs]
        assert empty and len({id(vs) for vs in empty}) == 1  # one shared empty sequence
        vs = empty[0]
        assert len(vs) == 0 and list(vs) == [] and vs[:] == [] and vs[::-1] == []
        assert vs == [] and [] == vs and vs == () and () == vs
        assert vs == check_exact_region(doc.model, doc.interpretation)["eos"]
        for other in ("", b"", range(0), bytearray(), [None], (None,)):
            assert vs != other and other != vs and not vs == other


class TestCoreOracle:
    """Core against a checker written from the definitions."""

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["any", "blocks", "redundant"]))
    def test_witnesses_match_the_oracle(self, rng, source):
        if source == "any":
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
            if rng.random() < 0.5:
                interp = with_extra_rows(rng, model, interp)
            if rng.random() < 0.5:
                interp = with_odd_omega_rows(rng, model, interp)
        else:
            make = block_instance if source == "blocks" else redundant_instance
            model, interp = make(rng)
            # add 0 or 1 to one row, so core reports witnesses here too
            key, (full, masks) = rng.choice(sorted(interp.statement_aspects.items(), key=repr))
            extra = rng.choice([0, interp.algebra.full_mask])
            rows = {**interp.statement_aspects, key: (full, masks | {extra})}
            interp = dataclasses.replace(interp, statement_aspects=rows)
        model = shuffled(rng, model)
        found = [
            (v.constraint, v.statements, v.relation, v.theme_set, v.theme_set2, v.rel_type)
            for v in classify_normal_form(model, interp, {"core"}).violations
        ]
        assert sorted(found, key=repr) == sorted(oracle_core(model, interp), key=repr)


def singleton_instance(rng: random.Random, m: int) -> tuple[Model, Interpretation]:
    """Six ordinary statements over ``m`` themes, each typed with at least
    half of them, a statement pointer and a summary pointer, all with
    one-theme rows at their own themes only, and a full omega row at every
    non-empty theme set (the empty set's is missing, so empty)."""
    themes = [f"t{j + 1}" for j in range(m)]
    typing = {f"a{i}": set(rng.sample(themes, rng.randint(m // 2, m))) for i in range(1, 7)}
    statements = [Statement(sid) for sid in typing]
    ref = rng.choice(sorted(typing["a1"]))
    statements += [Statement("p1", ref_theme=ref, ref_target="a1"), Statement("c1", ref_theme=ref)]
    typing["p1"] = {ref} | set(rng.sample(sorted(typing["a1"]), 1))
    typing["c1"] = set(rng.sample(themes, rng.randint(1, m)))
    model = Model.build(themes, statements, typing, [])
    algebra = mk_algebra(["p", "q"])
    rows = random_total_interpretation(rng, model, algebra).statement_aspects
    full = AspectSet(algebra, full=True)
    omega = {frozenset(c): full for n in range(1, m + 1) for c in combinations(themes, n)}
    return model, Interpretation(algebra, omega, rows)


class TestCoreWork:
    """Core's row tests (``row_subset`` calls) are bounded by omega's mat
    walk plus terms linear in 2^m·n, where the walk over every
    one-theme-smaller step of every statement made up to m·2^(m-1)·n.

    The bound is what the union default lets core skip.  With m themes and n
    statements, P of which do not take pr's skip (pointers, and statements
    with an explicit row other than a one-theme row at an own theme), and E
    explicit rows of other than one theme at statements other than summary
    pointers:

    - mat compares omega at every step: m·2^(m-1);
    - i reads only the masks whose omega row is not full: at most that
      count per statement;
    - pr reads every mask of each of the P statements: at most 2^m each;
    - manss compares only the steps at an explicit row of other than one
      theme: at most m per such row.

    Its headroom is the pr tests of empty rows and the manss steps between
    rows that are one object, which are skipped.  At m = 8, core makes
    3,072 tests on the benchmark's ``block_doc`` (8 statements, 2 of them
    pointers) against a bound of 3,328, and 1,226 to 1,231 on
    :func:`singleton_instance` models against 1,544; the walk over every
    step made 5,120 and 9,472 to 9,843.
    """

    @staticmethod
    def row_tests(model, interp) -> int:
        calls = []

        def counted(a, b):
            calls.append(None)
            return row_subset(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constraints, "row_subset", counted)
            check_core(model, interp)
        return len(calls)

    @staticmethod
    def bound(model, interp) -> int:
        themes = list(dict.fromkeys(model.themes))
        m, declared = len(themes), set(themes)
        theme_sets = [frozenset(c) for n in range(m + 1) for c in combinations(themes, n)]
        partial = sum(
            not interp.theme_aspects.get(t, (False,))[0] for t in theme_sets
        )
        read = [(t, sid) for t, sid in interp.statement_aspects if t <= declared]
        ranged = sum(
            s.is_pointer
            or any(
                sid == s.id and not (len(t) == 1 and t <= model.themes_of(s.id))
                for t, sid in read
            )
            for s in model.statements
        )
        summary = {s.id for s in model.statements if s.is_summary_pointer}
        others = sum(len(t) != 1 and sid not in summary for t, sid in read)
        n = len(model.statements)
        return m * 2 ** (m - 1) + partial * n + 2**m * ranged + m * others

    def test_block_instances(self):
        rng = random.Random(19)
        for m in (3, 4):
            for _ in range(4):
                model, interp = block_instance(rng, m)
                assert self.row_tests(model, interp) <= self.bound(model, interp)

    def test_omega_rows_of_65536_elements(self):
        """At m = 5 each 4-theme omega row lists the 65,536 elements of its
        subalgebra.  ``bat`` decides such a row without testing every pair
        of its elements, which ran past 100 s, and finds it a subalgebra."""
        model, interp = block_instance(random.Random(19), 5)
        assert not all_violations(check_core(model, interp))

    @pytest.mark.parametrize("m", range(4, 9))
    def test_block_documents(self, m):
        doc = from_dict(bench_block_doc(m, 8))
        model, interp = doc.model, doc.interpretation
        count = self.row_tests(model, interp)
        assert count <= self.bound(model, interp) <= m * 2 ** (m - 1) + 2**m * 2 * 8

    @pytest.mark.parametrize("m", range(4, 9))
    def test_singleton_rows_under_full_omega_rows(self, m):
        rng = random.Random(m)
        for _ in range(3):
            model, interp = singleton_instance(rng, m)
            count = self.row_tests(model, interp)
            # i reads the empty set alone, and only the two pointers read pr
            assert count <= self.bound(model, interp) <= m * 2 ** (m - 1) + 2**m * 2 + 8

    def test_without_pointers_the_bound_is_exact(self):
        # mat's walk and i at the empty set, once per statement, and nothing else
        rng = random.Random(5)
        for m in range(4, 9):
            model, interp = singleton_instance(rng, m)
            ordinary = [s for s in model.statements if not s.is_pointer]
            model = Model.build(model.themes, ordinary, model.statement_themes, [])
            rows = {k: row for k, row in interp.statement_aspects.items() if k[1][0] == "a"}
            interp = dataclasses.replace(interp, statement_aspects=rows)
            count = self.row_tests(model, interp)
            assert count == self.bound(model, interp) == m * 2 ** (m - 1) + 6

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(4, 6))
    def test_explicit_rows_and_mixed_omega_rows(self, rng, m):
        model, interp = singleton_instance(rng, m)
        for _ in range(rng.randint(1, 3)):
            interp = with_extra_rows(rng, model, interp)
        if rng.random() < 0.5:
            interp = with_mixed_omega_rows(rng, model, interp)
        assert self.row_tests(model, interp) <= self.bound(model, interp)


class TestDasNwci:
    def test_straw_man_fails_das_on_both_supports(self):
        doc = load_path(corpus_path("straw_man"))
        out = check_das(doc.model, doc.interpretation)
        assert [(v.relation, v.theme_set) for v in out] == [
            (("s2", "s1"), ("t",)),
            (("s2", "s3"), ("t",)),
        ]

    @pytest.mark.parametrize("check", [check_das, check_nwci, check_core])
    def test_a_relation_over_undeclared_themes_only_is_not_read(self, fig1, check):
        # not well-formed: only the API builds it; the relation has no theme
        # set to be checked at, so its unknown target is never looked up
        model = single_theme_model(
            "a",
            relations=[
                Relation("a", "ghost", frozenset({ATTACK, SUPPORT}), frozenset({"elsewhere"}))
            ],
        )
        found = check(model, Interpretation(fig1))
        assert not (found["aass"] if isinstance(found, dict) else found)

    def test_das_attack_must_be_incomparable(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("x") & fig1.prop("y")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        assert check_das(model, interp)

    def test_nwci_accepts_exact_contradiction(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, ~fig1.prop("x")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        assert not check_nwci(model, interp)

    def test_nwci_rejects_weakened_contradiction(self, fig1, ev):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, ev("~x | ~y")),
                (frozenset(["t"]), "b"): aspects(fig1, ev("x")),
            },
        )
        out = check_nwci(model, interp)
        assert any("weakened contradiction" in v.detail for v in out)

    def test_nwci_rejects_incomparable_alternative(self, fig1):
        model = single_theme_model(
            "a", "b",
            relations=[Relation("a", "b", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(
            fig1,
            {frozenset(["t"]): AspectSet(fig1, full=True)},
            {
                (frozenset(["t"]), "a"): aspects(fig1, fig1.prop("y")),
                (frozenset(["t"]), "b"): aspects(fig1, fig1.prop("x")),
            },
        )
        out = check_nwci(model, interp)
        assert any("incomparable" in v.detail for v in out)

    def test_core_plus_das_forbids_double_typing(self, fig1):
        # a relation typed both attack and support cannot satisfy core + das
        model = single_theme_model(
            "a", "b",
            relations=[
                Relation("a", "b", frozenset({ATTACK, SUPPORT}), frozenset({"t"}))
            ],
        )
        rng = random.Random(8)
        for _ in range(60):
            interp = random_total_interpretation(rng, model, fig1)
            core_ok = not all_violations(check_core(model, interp))
            das_ok = not check_das(model, interp)
            assert not (core_ok and das_ok)


class TestRelationWork:
    """One check decides each relation case once: aass, das and nwci filter
    the table's one list of cases, each statement's effective aspect is
    rendered once per theme set, and nss reads support indexes, not every
    statement for each attack."""

    RELATION_IDS = ("aass", "das", "nwci")

    @staticmethod
    def instances():
        rng = random.Random(38)
        algebra = mk_algebra(["p", "q"])
        for _ in range(40):
            model = random_model_any(rng, max_themes=3)
            yield model, random_total_interpretation(rng, model, algebra)
        for _ in range(10):
            yield block_instance(rng)

    @staticmethod
    def decided(model) -> int:
        """The (relation, theme set) cases of the attacks and supports."""
        declared = set(model.themes)
        return sum(
            2 ** len(r.themes & declared) - 1
            for r in model.relations
            if r.rel_types & {ATTACK, SUPPORT}
        )

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        original = getattr(constraints, name)
        monkeypatch.setattr(
            constraints, name, lambda *args, **kw: calls.append(args) or original(*args, **kw)
        )
        return calls

    def test_kinds_run_once_per_decided_case(self, monkeypatch):
        calls = self.counted(monkeypatch, "_kinds")
        total = 0
        for model, interp in self.instances():
            calls.clear()
            check_groups(model, interp, {CORE, "das", "nwci"})
            assert len(calls) == self.decided(model)
            total += len(calls)
        assert total > 100

    def test_each_aspect_text_is_rendered_once(self, monkeypatch):
        calls = self.counted(monkeypatch, "_render")
        shared = 0
        for model, interp in self.instances():
            calls.clear()
            groups = check_groups(model, interp, {CORE, "das", "nwci"})
            ends = [
                (sid, v.theme_set)
                for found in groups.values()
                for cid in self.RELATION_IDS
                for v in found.get(cid, ())
                for sid in v.relation
            ]
            assert len(calls) == len(set(ends))
            shared += len(ends) - len(set(ends))
        assert shared > 100  # texts another witness reuses

    class CountedStatements(tuple):
        iterations = 0

        def __iter__(self):
            type(self).iterations += 1
            return super().__iter__()

    def test_nss_reads_the_statements_independently_of_the_attacks(self):
        # a summary pointer to an uninhabited theme, and a hub ``h`` that
        # supports every statement, each of which supports a sink ``z``
        ids = [f"s{i:03d}" for i in range(60)]
        statements = [Statement(sid) for sid in ids + ["h", "z"]] + [Statement("p", "t2")]
        supports = [
            Relation(a, b, frozenset({SUPPORT}), frozenset({"t"}))
            for sid in ids
            for a, b in (("h", sid), (sid, "z"))
        ]
        counts, found = [], []
        for attacks in (0, 10, 50):
            relations = supports + [
                Relation(ids[i], ids[i + 2], frozenset({ATTACK}), frozenset({"t"}))
                for i in range(attacks)
            ]
            typing = {s.id: {"t"} for s in statements}
            model = Model.build(["t", "t2"], statements, typing, relations)
            counted = self.CountedStatements(model.statements)
            model = dataclasses.replace(model, statements=counted)
            self.CountedStatements.iterations = 0
            found.append(len(check_graphic(model)["nss"]))
            counts.append(self.CountedStatements.iterations)
        assert found == [0, 20, 100] and len(set(counts)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_a_shared_table_gives_the_same_rows_in_any_order(self, rng):
        model = random_model_any(rng, max_themes=3)
        interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        fresh = {g: run_group(model, interp, g) for g in (CORE, "das", "nwci")}
        for order in permutations(fresh):
            table = AspectTable(interp, model)
            assert {g: run_group(model, interp, g, table) for g in order} == fresh
        for cid in self.RELATION_IDS:
            for found in fresh.values():
                for v in found.get(cid, ()):
                    assert recheck(model, interp, v), v


class TestCheckWork:
    """A check builds its theme-subset list once per table, for core and E
    both, and E builds its text context only when a pair exists: with fewer
    than two theme sets of a non-empty omega row it reads no statement."""

    @staticmethod
    def instances():
        rng = random.Random(39)
        algebra = mk_algebra(["p", "q"])
        for name in CORPUS_NAMES:
            doc = load_path(corpus_path(name))
            yield doc.model, doc.interpretation
        for _ in range(30):
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, algebra)
            yield model, interp
            yield model, with_mixed_omega_rows(rng, model, interp)
        for _ in range(5):
            yield block_instance(rng)

    def test_core_and_E_share_one_subset_list(self, monkeypatch):
        lists = []
        original = constraints.theme_subsets

        def counted(themes, min_size=0):
            if min_size == 0:
                lists.append(themes)
            return original(themes, min_size)

        monkeypatch.setattr(constraints, "theme_subsets", counted)
        for model, interp in self.instances():
            lists.clear()
            check_groups(model, interp, {CORE, E})
            assert len(lists) == 1

    def test_E_builds_a_text_context_only_when_a_pair_exists(self, monkeypatch):
        contexts = []
        original = constraints.RegionContext
        monkeypatch.setattr(
            constraints, "RegionContext", lambda *args: contexts.append(args) or original(*args)
        )
        reads = []
        rows = AspectTable.rows
        monkeypatch.setattr(AspectTable, "rows", lambda table, s: reads.append(s) or rows(table, s))
        seen = Counter()
        for model, interp in self.instances():
            contexts.clear()
            reads.clear()
            found = check_exact_region(model, interp)
            paired = len([row for row in interp.theme_aspects.values() if row[0] or row[1]]) > 1
            assert len(contexts) == paired
            if not paired:
                assert set(reads) == {OMEGA} and not any(found.values())
            seen[paired] += 1
        assert seen[True] and seen[False] > len(CORPUS_NAMES)


class TestFreshAspectRecords:
    def test_equal_masks_of_two_themes_are_decided_apart(self, fig1, ev):
        # a -> b in both themes numbers {a, b} alike; only at t1 do they share
        t1, t2 = frozenset(["t1"]), frozenset(["t2"])
        model = Model.build(
            ["t1", "t2"],
            [Statement("a"), Statement("b")],
            {"a": {"t1", "t2"}, "b": {"t1", "t2"}},
            [Relation("a", "b", frozenset({SUPPORT}), t1 | t2)],
        )
        rows = {"a": ("x", "x"), "b": ("x", "y")}
        interp = Interpretation(
            fig1,
            {t: AspectSet(fig1, full=True) for t in (t1, t2, t1 | t2)},
            {
                (t, sid): aspects(fig1, ev(row[i]))
                for sid, row in rows.items()
                for i, t in enumerate((t1, t2))
            },
        )
        found = check_fresh_aspects(model, interp)
        assert [(v.statements, v.theme_set) for v in found["faW"]] == [(("b", "a", "b"), ("t1",))]
        assert [(v.statements, v.theme_set) for v in found["faD"]] == [(("b", "a", "b"), ("t1",))]

    def test_one_record_per_redundant_pair(self, ev):
        # c -> a -> b -> s and d -> a, all supports: b has the depth sets
        # {c, a, b} and {d, a, b}, and s the same two with s, so the one
        # redundant pair a, b lies in two depth sets of each anchor
        algebra = mk_algebra(["p", "q"])
        pq = aspects(algebra, ev("p", algebra), ev("q", algebra))
        rows = {
            "a": pq,
            "b": pq,
            "c": aspects(algebra, ev("~p", algebra)),
            "d": aspects(algebra, ev("~q", algebra)),
            "s": aspects(algebra, ev("p | q", algebra)),
        }
        model = single_theme_model(
            *rows,
            relations=[
                Relation(a, b, frozenset({SUPPORT}), frozenset({"t"}))
                for a, b in (("a", "b"), ("b", "s"), ("c", "a"), ("d", "a"))
            ],
        )
        interp = Interpretation(
            algebra,
            {frozenset(["t"]): AspectSet(algebra, full=True)},
            {(frozenset(["t"]), sid): row for sid, row in rows.items()},
        )
        found = check_fresh_aspects(model, interp)
        assert [v.statements for v in found["faD"]] == [("b", "a", "b"), ("s", "a", "b")]
        assert [v.statements for v in found["faW"]] == [("b", "a", "b")]
        for v in [*found["faD"], *found["faW"]]:
            assert recheck(model, interp, v)


class TestFreshAspectOrder:
    def test_lists_are_in_report_order(self):
        # the report and classify_normal_form's join rely on each list
        # already being in sort_key order
        rng = random.Random(43)
        unordered_lists = {"faW": 0, "faD": 0}  # lists that any reordering would break
        for _ in range(40):
            model, interp = redundant_instance(rng)
            found = check_fresh_aspects(model, interp)
            assert classify_normal_form(model, interp, (CORE, "F")).groups["F"] == found
            for cid, vs in found.items():
                keys = [v.sort_key() for v in vs]
                assert keys == sorted(keys)
                if len(set(keys)) > 1:
                    unordered_lists[cid] += 1
        assert min(unordered_lists.values()) >= 30, unordered_lists


def with_isolated_statements(rng, model):
    """``model`` with every relation of one or two of its statements dropped:
    anchors with no predecessor, whose rows may equal other statements'."""
    isolated = set(rng.sample([s.id for s in model.statements], min(2, len(model.statements))))
    kept = [r for r in model.relations if not {r.source, r.target} & isolated]
    return Model.build(model.themes, model.statements, model.statement_themes, kept)


class TestFreshAspectOracle:
    """F against the statements-set and redundancy oracles."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
    def test_witnesses_match_the_oracle(self, rng, redundant, isolated):
        if redundant:
            model, interp = redundant_instance(rng)
        else:
            model = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        if isolated:
            model = with_isolated_statements(rng, model)
        model = shuffled(rng, model)
        found = check_fresh_aspects(model, interp)
        got = [
            (v.constraint, v.statements, v.theme_set, v.rel_type)
            for vs in found.values()
            for v in vs
        ]
        assert got == oracle_fresh_aspects(model, interp)

    # shrinking a seed does not make the instance smaller, so a failure is
    # reported as found rather than after minutes of redrawing
    @settings(
        max_examples=10,
        deadline=None,
        phases=[p for p in Phase if p is not Phase.shrink],
    )
    @given(st.randoms(use_true_random=False))
    def test_ten_to_twelve_statements_match_the_oracle(self, rng):
        # sparse enough that an anchor has several depth sets
        model, interp = redundant_instance(rng, statements=(10, 12), density=0.25)
        found = check_fresh_aspects(shuffled(rng, model), interp)
        got = [
            (v.constraint, v.statements, v.theme_set, v.rel_type)
            for vs in found.values()
            for v in vs
        ]
        assert got == oracle_fresh_aspects(model, interp)


class TestGraphicOracle:
    """The graphic constraints against a checker written from the definitions."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_witnesses_match_the_oracle(self, rng, safe):
        if safe:
            model = random_graphic_safe_model(rng, max_themes=3, max_relations=5)
        else:
            model = random_model_any(rng, max_themes=3)
        model = shuffled(rng, model)
        found = [
            (v.constraint, v.statements, v.relation, v.theme_set)
            for vs in check_graphic(model).values()
            for v in vs
        ]
        assert sorted(found, key=repr) == oracle_graphic(model)

    @staticmethod
    def dense_model(rng: random.Random) -> Model:
        """6-12 statements and 10-30 relations over three themes, some of
        whose ends are ids of no statement, and pointers that may dangle or
        name the summary of ``t4``, a declared theme no statement has."""
        themes = ["t1", "t2", "t3"]
        ids = [f"s{i}" for i in range(rng.randint(6, 12))]
        statements = []
        for sid in ids:
            draw = rng.random()
            if draw < 0.15:
                statements.append(Statement(sid, rng.choice(themes + ["t4"])))
            elif draw < 0.3:
                statements.append(Statement(sid, rng.choice(themes), rng.choice(ids + ["gone"])))
            else:
                statements.append(Statement(sid))
        st_themes = {sid: rng.sample(themes, rng.randint(1, 3)) for sid in ids}
        ends = ids + ["ghost1", "ghost2"]
        relations = []
        for _ in range(rng.randint(10, 30)):
            types = rng.choice([{ATTACK}, {SUPPORT}, {SUPPORT}, {ATTACK, SUPPORT}])
            source, target = rng.choice(ends), rng.choice(ends)
            rel_themes = rng.sample(themes, rng.randint(1, 3))
            relations.append(Relation(source, target, frozenset(types), frozenset(rel_themes)))
        return Model.build(themes + ["t4"], statements, st_themes, relations)

    def test_dense_models_with_dangling_ends_match_the_oracle(self):
        """Double supports are common here, also from and to ids that are not
        statements, which name no nss witness."""
        rng = random.Random(38)
        named = dangling = 0
        for _ in range(300):
            model = self.dense_model(rng)
            found = [
                (v.constraint, v.statements, v.relation, v.theme_set)
                for vs in check_graphic(model).values()
                for v in vs
            ]
            assert sorted(found, key=repr) == oracle_graphic(model)
            named += sum(1 for cid, sids, _, _ in found if cid == "nss" and sids)
            supports = [r for r in model.relations if SUPPORT in r.rel_types]
            dangling += sum(not model.has_statement(r.source) for r in supports)
        assert named > 300 and dangling > 300


class TestClassifyRelation:
    @pytest.fixture
    def pair(self, fig1):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({ATTACK}), frozenset({"t"}))],
        )

        def classify(u, v):
            interp = Interpretation(
                fig1,
                {frozenset(["t"]): AspectSet(fig1, full=True)},
                {
                    (frozenset(["t"]), "src"): aspects(fig1, u),
                    (frozenset(["t"]), "dst"): aspects(fig1, v),
                },
            )
            [(_, _, labels)] = classify_relations(model, interp, ["t"])
            return labels

        return classify

    def test_weakened_contradiction(self, pair, ev):
        assert pair(ev("~x | ~y"), ev("x")) == {"weakened_contradiction"}

    def test_affirmation(self, pair, ev):
        assert pair(ev("x"), ev("x")) == {"affirmation"}

    def test_incomparable_alternative(self, pair, ev):
        assert pair(ev("y"), ev("x")) == {"incomparable_alternative"}

    def test_strengthening(self, pair, ev):
        assert pair(ev("x & y"), ev("x")) == {"strengthening"}

    def test_weakening(self, pair, ev):
        assert pair(ev("x | y"), ev("x")) == {"weakening"}

    def test_contrary(self, pair, ev):
        assert pair(ev("~x & y"), ev("x")) == {"contrary"}
        assert pair(ev("~x"), ev("x")) == {"contrary"}

    def test_labels_may_overlap(self, pair, ev):
        # bottom is below everything: strengthening and contrary at once
        got = pair(ev("0"), ev("x"))
        assert {"strengthening", "contrary"} <= got

    def test_undefined_when_absent(self, fig1):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({ATTACK}), frozenset({"t"}))],
        )
        interp = Interpretation(fig1, {}, {})
        [(_, _, got)] = classify_relations(model, interp, ["t"])
        assert got == {"undefined"}

    def test_never_empty_when_defined(self, pair, fig1):
        rng = random.Random(9)
        from aspectarg.algebra import Element

        for _ in range(100):
            u = Element(fig1, rng.randrange(fig1.carrier_size))
            v = Element(fig1, rng.randrange(fig1.carrier_size))
            assert pair(u, v)


@st.composite
def aspect_pairs(draw):
    """Source and target aspects, each possibly absent, in a 1-3 proposition algebra."""
    algebra = mk_algebra([f"p{i}" for i in range(draw(st.integers(1, 3)))])
    element = st.none() | st.integers(0, algebra.full_mask).map(lambda m: Element(algebra, m))
    return algebra, draw(element), draw(element)


class TestRelationKinds:
    """The six relation kinds against an oracle, and aass, das and nwci as
    the paper's rules over them."""

    COMPARABLE = {"affirmation", "strengthening", "weakening"}

    @staticmethod
    def one_relation(algebra, u, v, rel_type):
        model = single_theme_model(
            "src", "dst",
            relations=[Relation("src", "dst", frozenset({rel_type}), frozenset({"t"}))],
        )
        rows = {
            (frozenset(["t"]), sid): aspects(algebra, e)
            for sid, e in (("src", u), ("dst", v))
            if e is not None
        }
        theme_rows = {frozenset(["t"]): AspectSet(algebra, full=True)}
        return model, Interpretation(algebra, theme_rows, rows)

    @settings(max_examples=300)
    @given(aspect_pairs(), st.sampled_from([ATTACK, SUPPORT]))
    def test_kinds_decide_the_relation_constraints(self, case, rel_type):
        algebra, u, v = case
        model, interp = self.one_relation(algebra, u, v, rel_type)
        kinds = oracle_relation_kinds(u, v)
        [(_, themes, labels)] = classify_relations(model, interp)
        assert (themes, labels) == (("t",), kinds)

        aass = check_core(model, interp)["aass"]
        das, nwci = check_das(model, interp), check_nwci(model, interp)
        assert {w.rel_type for w in [*aass, *das, *nwci]} <= {rel_type}
        absent = kinds == {"undefined"}
        if rel_type == ATTACK:
            assert bool(aass) == (absent or "affirmation" in kinds)
            assert bool(das) == bool(kinds & self.COMPARABLE)
            assert len(nwci) == len(kinds & {"weakened_contradiction", "incomparable_alternative"})
            assert (not aass and not das and not nwci) == (kinds == {"contrary"})
        else:
            assert bool(aass) == (absent or not kinds & self.COMPARABLE)
            assert bool(das) == (not absent and "affirmation" not in kinds)
            assert not nwci
            assert (not aass and not das) == ("affirmation" in kinds)


class TestNormalForms:
    def test_straw_man_verdicts(self):
        doc = load_path(corpus_path("straw_man"))
        assert classify_normal_form(doc.model, doc.interpretation, [CORE]).normal
        assert not classify_normal_form(doc.model, doc.interpretation, [CORE, "das"]).normal

    def test_question_begging_verdicts(self):
        for name in ("question_begging_opium", "question_begging_god"):
            doc = load_path(corpus_path(name))
            assert classify_normal_form(doc.model, doc.interpretation, [CORE]).normal
            verdict = classify_normal_form(doc.model, doc.interpretation, [CORE, "F"])
            assert not verdict.normal
            assert any(v.constraint == "faD" for v in verdict.violations)

    def test_existence_model_normal_for_every_alpha(self):
        algebra = mk_algebra(["x"])
        model = Model.build(["t1"], [Statement("a1")], {"a1": {"t1"}}, [])
        interp = Interpretation(
            algebra,
            {frozenset(["t1"]): AspectSet(algebra, full=True)},
            {(frozenset(["t1"]), "a1"): aspects(algebra, algebra.prop("x"))},
        )
        from itertools import combinations

        extras = [g for g in ALPHA_GROUPS if g != CORE]
        for n in range(len(extras) + 1):
            for combo in combinations(extras, n):
                assert classify_normal_form(model, interp, {CORE, *combo}).normal

    def test_alpha_must_contain_core(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError):
            classify_normal_form(model, interp, ["das"])

    def test_unknown_group_rejected(self, fig1):
        model = single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError):
            classify_normal_form(model, interp, [CORE, "bogus"])

    def test_one_table_serves_every_group(self, monkeypatch):
        doc = load_path(corpus_path("question_begging_god"))
        built = []
        init = AspectTable.__init__

        def counting(self, interp, model):
            built.append(model)
            init(self, interp, model)

        monkeypatch.setattr(AspectTable, "__init__", counting)
        verdict = classify_normal_form(doc.model, doc.interpretation, ALPHA_GROUPS)
        assert built == [doc.model]
        monkeypatch.undo()
        # the shared table changes nothing: each group alone finds the same
        alone = [
            v for g in ALPHA_GROUPS for vs in run_group(doc.model, doc.interpretation, g).values()
            for v in vs
        ]
        assert verdict.violations == tuple(sorted(alone, key=Violation.sort_key))

    def test_violations_are_the_groups_joined_in_sort_key_order(self):
        rng = random.Random(41)
        algebras = [mk_algebra(["p", "q"]), mk_algebra(["p", "q", "r"])]
        extras = [g for g in ALPHA_GROUPS if g != CORE]
        alphas = [{CORE, *c} for n in range(len(extras) + 1) for c in combinations(extras, n)]
        instances = [
            (model, random_total_interpretation(rng, model, algebras[i % 2]))
            for i, model in enumerate(random_model_any(rng, max_themes=3) for _ in range(40))
        ] + [block_instance(rng) for _ in range(5)]
        mixed = 0
        for model, interp in instances:
            for alpha in alphas:
                verdict = classify_normal_form(model, interp, alpha)
                found = [v for g in alpha for v in all_violations(run_group(model, interp, g))]
                assert verdict.violations == tuple(sorted(found, key=Violation.sort_key))
                assert list(verdict.groups) == [g for g in ALPHA_GROUPS if g in alpha]
                mixed += len({v.constraint for v in verdict.violations}) > 1
        assert mixed > 100  # the join crosses constraints and groups

    def test_a_table_of_another_model_is_refused(self, fig1):
        model, other = single_theme_model("s"), single_theme_model("s")
        interp = Interpretation(fig1, {}, {})
        with pytest.raises(ValueError, match="another model"):
            run_group(model, interp, CORE, AspectTable(interp, other))


def candidate_witnesses(model):
    """Every witness record a semantic checker could report on ``model``."""
    theme_sets = [
        tuple(c) for n in range(len(model.themes) + 1) for c in combinations(model.themes, n)
    ]
    ids = [s.id for s in model.statements]
    for t1 in theme_sets:
        yield Violation("bat", theme_set=t1)
        for cid in ("i", "vi", "pr", "ss"):
            for sid in ids:
                yield Violation(cid, (sid,), theme_set=t1)
        for r in model.relations:
            for cid in ("aass", "das", "nwci"):
                for rel_type in (ATTACK, SUPPORT):
                    yield Violation(cid, relation=r.pair, theme_set=t1, rel_type=rel_type)
        for t2 in theme_sets:
            yield Violation("mat", theme_set=t1, theme_set2=t2)
            for cid in ("manss", "esr", "ensr", "eos"):
                for sid in ids:
                    yield Violation(cid, (sid,), theme_set=t1, theme_set2=t2)
    for anchor in ids:
        for first in ids:
            for second in ids:
                for t in model.themes:
                    for cid in ("faW", "faD"):
                        for rel_type in (ATTACK, SUPPORT):
                            yield Violation(
                                cid, (anchor, first, second), theme_set=(t,), rel_type=rel_type
                            )


def witness_key(v, symmetric=False):
    themes = (v.theme_set, v.theme_set2)
    if symmetric:
        themes = tuple(sorted(themes))
    return (v.constraint, v.statements, v.relation, themes, v.rel_type)


class TestWitnessSoundness:
    @pytest.mark.parametrize(
        "name,alpha",
        [
            ("fear_appeal", (CORE,)),
            ("false_flag", (CORE,)),
            ("straw_man", (CORE, "das", "nwci")),
            ("question_begging_opium", (CORE, "F")),
            ("question_begging_god", (CORE, "F")),
        ],
    )
    def test_corpus_violations_recheck(self, name, alpha):
        doc = load_path(corpus_path(name))
        found = list(all_violations(check_graphic(doc.model)))
        for group in alpha:
            found.extend(all_violations(run_group(doc.model, doc.interpretation, group)))
        for violation in found:
            assert recheck(doc.model, doc.interpretation, violation), violation

    def test_a_core_witness_needs_the_interpretation(self):
        doc = load_path(corpus_path("fear_appeal"))
        (witness,) = check_core(doc.model, doc.interpretation)["i"]
        assert recheck(doc.model, doc.interpretation, witness)
        assert recheck(doc.model, None, witness) is False

    @pytest.mark.parametrize(
        "ghost",
        [
            *(
                pytest.param(
                    Violation(cid, relation=("nope", "x"), theme_set=("t1",), rel_type=ATTACK),
                    id=f"{cid}-relation",
                )
                for cid in ("aass", "das", "nwci")
            ),
            *(
                pytest.param(Violation(cid, ("nope",), theme_set=("t1",)), id=f"{cid}-statement")
                for cid in ("i", "ss")
            ),
            *(
                pytest.param(
                    Violation(cid, ("nope",), theme_set=("t1",), theme_set2=("t1", "t2")),
                    id=f"{cid}-statement",
                )
                for cid in ("manss", "eos")
            ),
            pytest.param(Violation("i", ("s1",), theme_set=("nope",)), id="i-theme"),
        ],
    )
    def test_unknown_relation_does_not_recheck(self, ghost):
        doc = load_path(corpus_path("fear_appeal"))
        assert recheck(doc.model, doc.interpretation, ghost) is False

    def test_random_violations_recheck(self):
        rng = random.Random(10)
        algebra = mk_algebra(["p", "q"])
        checked = 0
        for _ in range(40):
            model = random_model_any(rng)
            interp = random_total_interpretation(rng, model, algebra)
            found = list(all_violations(check_graphic(model)))
            for group in ALPHA_GROUPS:
                found.extend(all_violations(run_group(model, interp, group)))
            for violation in found:
                checked += 1
                assert recheck(model, interp, violation), violation
        assert checked > 50

    def test_recheck_accepts_exactly_the_reported_witnesses(self):
        rng = random.Random(23)
        algebra = mk_algebra(["p", "q"])
        instances = [
            (model, random_total_interpretation(rng, model, algebra))
            for model in (random_model_any(rng) for _ in range(40))
        ] + [block_instance(rng) for _ in range(20)]
        for model, interp in instances:
            reported = set()
            for group in ALPHA_GROUPS:
                for v in all_violations(run_group(model, interp, group)):
                    reported.add(witness_key(v, symmetric=v.constraint in EXACT_REGION_IDS))
            for w in candidate_witnesses(model):
                key = witness_key(w, symmetric=w.constraint in EXACT_REGION_IDS)
                assert recheck(model, interp, w) == (key in reported), w


class TestManyDeclaredThemes:
    """A check reads the table only at the theme sets it asks for, so a model
    may declare more themes than the theme cap where nothing enumerates them."""

    def test_reads_agree_with_the_sweeps_of_the_narrow_model(self, monkeypatch):
        rng = random.Random(41)
        algebra = mk_algebra(["p", "q"])
        cases = []
        for _ in range(30):
            narrow = random_model_any(rng, max_themes=3)
            interp = random_total_interpretation(rng, narrow, algebra)
            if rng.random() < 0.5:
                interp = with_extra_rows(rng, narrow, interp)
            unused = tuple(f"unused{i}" for i in range(30 - len(narrow.themes)))
            wide = dataclasses.replace(narrow, themes=narrow.themes + unused)
            # the sweeps read every row of the narrow model
            verdict = classify_normal_form(narrow, interp, ALPHA_GROUPS)
            cases.append((narrow, wide, interp, verdict))
        # a memo gains an entry only when it is read at a missing key, so
        # each holds only theme masks that were read, and those read hold no
        # unused theme: no read made anything over the 2 ** 30 masks
        miss, used = _Memo.__missing__, [0]

        def read(self, key):
            if type(key) is int and key >> used[0]:
                raise AssertionError(f"read theme mask {key:#x}, which holds an unused theme")
            return miss(self, key)

        monkeypatch.setattr(_Memo, "__missing__", read)
        for narrow, wide, interp, verdict in cases:
            used[0] = len(narrow.themes)
            for group in ("das", "nwci", "F"):
                assert run_group(wide, interp, group) == verdict.groups[group]
            assert classify_relations(wide, interp) == classify_relations(narrow, interp)
            for violation in verdict.violations:
                assert recheck(wide, interp, violation), violation
            ids = [s.id for s in narrow.statements] + [OMEGA]
            for n in range(len(narrow.themes) + 1):
                for themes in combinations(narrow.themes, n):
                    for s in ids:
                        assert lookup(interp, wide, themes, s) == lookup(interp, narrow, themes, s)
                        assert effective_aspect(interp, wide, themes, s) == effective_aspect(
                            interp, narrow, themes, s
                        )


class TestProperRangeConsequences:
    def test_unconnected_themes_add_nothing(self):
        # with pr and manss satisfied, aspects are stable under adding
        # themes disjoint from the statement's own
        rng = random.Random(12)
        for _ in range(30):
            model, interp = block_instance(rng)
            assert not all_violations(check_core(model, interp))
            all_theme_sets = list(interp.theme_aspects) + [frozenset()]
            for s in model.statements:
                if s.is_pointer:
                    continue
                own = model.themes_of(s.id)
                for t_set in all_theme_sets:
                    for extra in all_theme_sets:
                        if extra & own:
                            continue
                        assert lookup(interp, model, t_set, s.id) == lookup(
                            interp, model, t_set | extra, s.id
                        )


class TestRenaming:
    """Names choose only the order of the walks, never what they find."""

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["any", "blocks", "redundant"]))
    def test_reversing_the_order_of_the_names_finds_the_same_violations(self, rng, source):
        if source == "any":
            model = random_model_any(rng, max_themes=3)
            interp = with_odd_omega_rows(
                rng, model, random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
            )
        else:
            model, interp = (block_instance if source == "blocks" else redundant_instance)(rng)
        other, other_interp, back_t, back_s = renamed(model, interp)

        def fields(v):
            # every field but the detail
            return (v.constraint, v.statements, v.relation, v.theme_set, v.theme_set2, v.rel_type)

        def mapped(v):
            def themes(group):
                return group and tuple(sorted(back_t[t] for t in group))

            pair = v.relation and tuple(map(back_s.get, v.relation))
            statements = tuple(map(back_s.get, v.statements))
            theme_sets = themes(v.theme_set), themes(v.theme_set2)
            return (v.constraint, statements, pair, *theme_sets, v.rel_type)

        def groups(model, interp):
            verdict = classify_normal_form(model, interp, ALPHA_GROUPS)
            return {"graphic": check_graphic(model), **verdict.groups}

        found, again = groups(model, interp), groups(other, other_interp)
        for group, by_id in found.items():
            assert by_id.keys() == again[group].keys()
            for cid, vs in by_id.items():
                if group == "F":
                    # F names the first shared pair in sorted-id order, so
                    # only which (anchor, theme, type) have a witness compares
                    def instance(f):
                        return f[0], f[1][0], f[3], f[5]

                    assert {instance(fields(v)) for v in vs} == {
                        instance(mapped(v)) for v in again[group][cid]
                    }
                else:
                    assert [fields(v) for v in vs] == sorted(map(mapped, again[group][cid]))
