import random

import pytest

from aspectarg.constraints import check_core, check_graphic
from aspectarg.errors import CapExceeded, CoreUnsatisfiableError, GraphicPreconditionError
from aspectarg.model import (
    ATTACK,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
)
from aspectarg.modelfile import to_dict
from aspectarg.synthesis import synthesize_core_witness
from helpers import all_violations, random_graphic_safe_model, random_total_interpretation
from aspectarg.algebra import mk_algebra


class TestPreconditions:
    def test_theme_relevance_failure_is_named(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a1"), Statement("a2")],
            {"a1": {"t1"}, "a2": {"t1"}},
            [Relation("a1", "a2", frozenset({ATTACK}), frozenset({"t2"}))],
        )
        # wellformedness aside, the relation's theme touches neither endpoint
        with pytest.raises(GraphicPreconditionError) as exc:
            synthesize_core_witness(model)
        assert "tr" in exc.value.constraints

    def test_null_pointer_failure_is_named(self):
        model = Model.build(
            ["t1", "t2"],
            [Statement("a1"), Statement("p", ref_theme="t1", ref_target="ghost")],
            {"a1": {"t1"}, "p": {"t2"}},
            [],
        )
        with pytest.raises(GraphicPreconditionError) as exc:
            synthesize_core_witness(model)
        assert exc.value.constraints == ["nnp"]

    def test_size_cap(self):
        themes = ["t1", "t2", "t3"]
        statements = [Statement(f"a{i}") for i in range(4)]
        model = Model.build(
            themes, statements, {s.id: set(themes) for s in statements}, []
        )
        with pytest.raises(CapExceeded):
            synthesize_core_witness(model)

    def test_relation_theme_uninterpretable_at_endpoint(self):
        # t2 types the relation but a1 can only carry aspects for t1:
        # vacuous-interpretation + proper-range force emptiness there while
        # attack-as-attack demands non-emptiness, so Core is unsatisfiable
        model = Model.build(
            ["t1", "t2"],
            [Statement("a1"), Statement("a2")],
            {"a1": {"t1"}, "a2": {"t1", "t2"}},
            [Relation("a1", "a2", frozenset({ATTACK}), frozenset({"t1", "t2"}))],
        )
        failed = [c for c, vs in check_graphic(model).items() if vs]
        assert failed == []  # all four graphic constraints hold
        with pytest.raises(CoreUnsatisfiableError):
            synthesize_core_witness(model)


class TestWitnesses:
    def test_existence_graph(self):
        model = Model.build(["t1"], [Statement("a1")], {"a1": {"t1"}}, [])
        witness = synthesize_core_witness(model)
        assert not all_violations(check_core(model, witness))

    def test_attack_support_and_pointers(self):
        model = Model.build(
            ["t1", "t2"],
            [
                Statement("a1"),
                Statement("a2"),
                Statement("p1", ref_theme="t1", ref_target="a1"),
                Statement("c1", ref_theme="t2", ref_target=None),
            ],
            {"a1": {"t1", "t2"}, "a2": {"t1", "t2"}, "p1": {"t1"}, "c1": {"t1"}},
            [
                Relation("a1", "a2", frozenset({ATTACK}), frozenset({"t1", "t2"})),
                Relation("p1", "a2", frozenset({SUPPORT}), frozenset({"t1"})),
                Relation("c1", "a1", frozenset({ATTACK}), frozenset({"t1"})),
            ],
        )
        witness = synthesize_core_witness(model)
        assert not all_violations(check_core(model, witness))

    def test_random_graphs(self):
        rng = random.Random(14)
        for _ in range(40):
            model = random_graphic_safe_model(rng)
            witness = synthesize_core_witness(model)
            assert not all_violations(check_core(model, witness))

    def test_every_row_element_is_named(self):
        model = Model.build(
            ["t1"],
            [Statement("a1"), Statement("c1", ref_theme="t1", ref_target=None)],
            {"a1": {"t1"}, "c1": {"t1"}},
            [],
        )
        witness = synthesize_core_witness(model)
        rows = witness.statement_aspects.values()
        assert rows and all(m in witness.formulas for _, masks in rows for m in masks)

    def test_written_rows_are_chain_formulas(self):
        """A written row lists chain formulas ``w{j}_1 | ... | w{j}_i`` of theme
        j by increasing i; a summary pointer's row has one per theme, in theme
        order, all at the pointer's one chain index."""
        rng = random.Random(16)
        written = 0
        for _ in range(60):
            model = random_graphic_safe_model(rng)
            try:
                witness = synthesize_core_witness(model)
            except CapExceeded:
                continue
            index = {t: j for j, t in enumerate(model.themes, 1)}
            chain_len = witness.algebra.k // len(model.themes)
            for entry in to_dict(model, witness)["interpretation"]["statement_aspects"]:
                links = [chain_link(f) for f in entry["aspects"]]
                js = [j for j, _ in links]
                ids = [i for _, i in links]
                if model.statement(entry["statement"]).is_summary_pointer:
                    assert js == sorted(set(js))
                    assert set(js) <= {index[t] for t in entry["themes"]}
                    assert len(set(ids)) == 1
                else:
                    assert [index[t] for t in entry["themes"]] == js[:1] == sorted(set(js))
                    assert ids == list(range(ids[0], chain_len + 1))
                written += 1
        assert written >= 100


def chain_link(formula):
    """(j, i) of the chain formula ``w{j}_1 | ... | w{j}_i``."""
    j = formula.split("_", 1)[0][1:]
    i = formula.count("|") + 1
    assert formula == " | ".join(f"w{j}_{h}" for h in range(1, i + 1)), formula
    return int(j), i


class TestCoreSatisfactionGap:
    """The graphic constraints are necessary for Core only when every
    statement actually carries aspects.  A summary pointer referencing an
    uninhabited theme, paired with an interpretation that still gives it
    aspects, satisfies all eight core constraints while violating the
    no-null-pointer check: the proper-range bound for summary pointers is
    self-referential, so nothing forces those aspects empty.  Random-pair
    tests therefore draw interpretations total on statement themes and
    summary references from inhabited themes; this test pins the corner
    down explicitly."""

    def test_uninhabited_summary_reference_escapes_core(self):
        algebra = mk_algebra(["x"])
        model = Model.build(
            ["t1", "t9"],
            [Statement("a"), Statement("c", ref_theme="t9", ref_target=None)],
            {"a": {"t1"}, "c": {"t1"}},
            [],
        )
        nnp = check_graphic(model)["nnp"]
        assert [v.statements for v in nnp] == [("c",)]
        rows = {
            (frozenset(["t1"]), "a"): AspectSet(algebra, frozenset({algebra.prop("x")})),
            (frozenset(["t1"]), "c"): AspectSet(algebra, frozenset({algebra.prop("x")})),
        }
        theme_rows = {
            key: AspectSet(algebra, full=True)
            for key in (frozenset(["t1"]), frozenset(["t9"]), frozenset(["t1", "t9"]))
        }
        interp = Interpretation(algebra, theme_rows, rows)
        assert not all_violations(check_core(model, interp))

    def test_dangling_pointer_with_aspects_cannot_satisfy_core(self):
        # the same escape does not exist for statement pointers: their
        # proper-range bound runs through the missing target
        algebra = mk_algebra(["x"])
        model = Model.build(
            ["t1"],
            [Statement("p", ref_theme="t1", ref_target="ghost")],
            {"p": {"t1"}},
            [],
        )
        rows = {
            (frozenset(["t1"]), "p"): AspectSet(algebra, frozenset({algebra.prop("x")}))
        }
        interp = Interpretation(
            algebra, {frozenset(["t1"]): AspectSet(algebra, full=True)}, rows
        )
        assert check_core(model, interp)["pr"]


class TestForwardDirection:
    def test_core_passing_random_pairs_have_clean_graphs(self):
        rng = random.Random(15)
        algebra = mk_algebra(["p", "q"])
        non_vacuous = 0
        for _ in range(150):
            from helpers import random_model_any

            model = random_model_any(rng)
            interp = random_total_interpretation(rng, model, algebra)
            if all_violations(check_core(model, interp)):
                continue
            non_vacuous += 1
            graphic = check_graphic(model)
            assert not any(graphic[c] for c in ("tr", "nsa", "nnp", "kos"))
        assert non_vacuous >= 5
