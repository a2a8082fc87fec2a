import io
import json

import pytest
from hypothesis import given, settings
from aspectarg.algebra import mk_algebra
from hypothesis import strategies as st

from aspectarg.cli import run
from aspectarg.constraints import (
    ALPHA_GROUPS,
    E,
    Witnesses,
    check_core,
    check_das,
    check_exact_region,
    check_fresh_aspects,
    check_graphic,
    check_nwci,
    classify_normal_form,
)
from aspectarg.model import Violation
from aspectarg.modelfile import dumps as dump_model
from aspectarg.modelfile import from_dict, load_path, to_dict
from aspectarg.report import human_violations, to_json, violations_block
from helpers import (
    HOSTILE,
    hostile_name,
    random_model_any,
    random_total_interpretation,
    region_instance,
    renamed,
    with_extra_rows,
    with_mixed_omega_rows,
)


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Characters the escaper treats specially: quotes, backslashes, control
# characters, DEL, non-ASCII in and beyond the basic plane, lone surrogates.
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u20ac\u2028\U0001f600\U0010ffff\ud800\udfff'
CHARS = st.sampled_from(SPECIAL) | st.characters(exclude_categories=())
TEXT = st.text(CHARS, max_size=6)

JSON_SHAPED = st.recursive(
    st.none()
    | st.sampled_from([True, False, 0, 1])
    | st.integers()
    | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestJsonShapedValues:
    @settings(max_examples=300)
    @given(JSON_SHAPED)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert to_json(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": ()},
            [[[]], {"": {"": None}}],
            {"t": True, "f": False, "zero": 0, "one": 1, "list": [True, 0, False, 1]},
            {"b": 1, "a": 2, "B": 3, "é": 4, "": 5},
            -(10**30),
        ],
    )
    def test_edge_values(self, value):
        assert to_json(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [1.5, {"a": [0.0]}, {1: "x"}, {"a": {None: 1}}, {("a",): 1}, [{"x"}], b"x"],
        ids=["float", "nested float", "int key", "None key", "tuple key", "set", "bytes"],
    )
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            to_json(value)


def as_dict(v: Violation) -> dict:
    """A violation as the dict of the fields it sets."""
    out = {"constraint": v.constraint, "detail": v.detail}
    if v.statements:
        out["statements"] = list(v.statements)
    for name in ("relation", "theme_set", "theme_set2"):
        if getattr(v, name) is not None:
            out[name] = list(getattr(v, name))
    if v.rel_type is not None:
        out["rel_type"] = v.rel_type
    return out


def plain(value):
    """``value`` with every ``Violation`` in it replaced by its dict."""
    if isinstance(value, Violation):
        return as_dict(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, Witnesses)):
        return [plain(v) for v in value]
    return value


IDS = st.tuples(TEXT) | st.lists(TEXT, max_size=3).map(tuple)
VIOLATIONS = st.builds(
    Violation,
    constraint=TEXT,
    statements=IDS,
    relation=st.none() | st.tuples(TEXT, TEXT),
    theme_set=st.none() | IDS,
    theme_set2=st.none() | IDS,
    rel_type=st.none() | TEXT,
    detail=TEXT,
)


def check_report(graphic, semantic):
    return {
        "command": "check",
        "graphic": violations_block(graphic),
        "semantic": {g: violations_block(groups) for g, groups in sorted(semantic.items())},
        "normal": not any(vs for groups in semantic.values() for vs in groups.values()),
    }


class TestViolations:
    ALL_SET = Violation(
        "E", ("s1", "s2"), ("s1", "s2"), ("t1",), ("t1", "t2"), "attack", "detail \"q\" é"
    )
    NONE_SET = Violation("wf", detail="duplicate theme ids")
    EMPTY_THEME_SETS = Violation("E", ("s",), theme_set=(), theme_set2=(), detail="")

    @pytest.mark.parametrize(
        "violation", [ALL_SET, NONE_SET, EMPTY_THEME_SETS], ids=["all", "none", "empty"]
    )
    def test_one_violation_in_a_report(self, violation):
        report = check_report({"nsa": [violation], "tr": []}, {"E": {"E": [violation]}})
        assert to_json(report) == dumps(plain(report))
        assert to_json(violation) == dumps(as_dict(violation))
        assert to_json([violation]) == dumps([as_dict(violation)])

    def test_empty_blocks(self):
        report = check_report({"tr": []}, {"core": {"i": [], "mat": []}})
        assert report["graphic"] == {} and report["semantic"] == {"core": {}}
        assert to_json(report) == dumps(plain(report))

    @settings(max_examples=100)
    @given(st.lists(VIOLATIONS, max_size=6))
    def test_reports_match_their_dict_conversion(self, vs):
        report = check_report(
            {"nsa": vs[:2], "tr": vs[2:3]}, {"core": {"i": vs[3:], "mat": vs[:1]}, "E": {}}
        )
        assert to_json(report) == dumps(plain(report))

    @settings(max_examples=200)
    @given(st.data())
    def test_every_combination_of_optional_fields(self, data):
        # a few tuple objects shared by fields, records and both blocks, so
        # one tuple is written as a relation and as statements, at two indents
        pool = data.draw(st.lists(IDS, min_size=1, max_size=3)) + [()]
        shared = st.sampled_from(pool)
        optional = st.none() | shared
        vs = data.draw(
            st.lists(
                st.builds(
                    Violation,
                    constraint=TEXT,
                    statements=shared,
                    relation=optional,
                    theme_set=optional,
                    theme_set2=optional,
                    rel_type=st.none() | TEXT,
                    detail=st.text(st.sampled_from(SPECIAL) | CHARS, max_size=8),
                ),
                min_size=1,
                max_size=6,
            )
        )
        report = check_report({"nsa": vs}, {"core": {"i": vs[::-1]}, "E": {"eos": vs[:1]}})
        assert to_json(report) == dumps(plain(report))

    def test_one_tuple_as_relation_and_statements_at_two_indents(self):
        pair = ("s1", "s\u00e9")
        vs = [
            Violation("tr", pair, pair, detail="a"),
            Violation("tr", pair, pair, pair, pair, "attack", 'q"\n\u20ac'),
            Violation("i", pair, theme_set=(), theme_set2=pair, detail="\x00"),
        ]
        report = check_report({"tr": vs}, {"core": {"i": vs}})
        assert to_json(report) == dumps(plain(report))
        assert to_json([vs, [[vs]]]) == dumps(plain([vs, [[vs]]]))

    def test_one_context_of_exact_region_lists_at_two_indents(self):
        doc = from_dict(REGION_DOCS[50])
        lists = check_exact_region(doc.model, doc.interpretation)
        assert all(lists.values())
        value = [lists, [[lists]]]
        assert to_json(value) == dumps(plain(value))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_witness_rows_are_written_as_their_violations(self, rng):
        # core, das, nwci and F on models with explicit multi-theme and
        # empty-set rows and mixed omega rows, beside graphic's lists
        model = random_model_any(rng, max_themes=4)
        interp = random_total_interpretation(rng, model, mk_algebra(["p", "q"]))
        if rng.random() < 0.5:
            interp = with_extra_rows(rng, model, interp)
        if rng.random() < 0.5:
            interp = with_mixed_omega_rows(rng, model, interp)
        semantic = {
            "core": check_core(model, interp),
            "das": {"das": check_das(model, interp)},
            "nwci": {"nwci": check_nwci(model, interp)},
            "F": check_fresh_aspects(model, interp),
        }
        report = check_report(check_graphic(model), semantic)
        assert to_json(report) == dumps(plain(report))
        assert to_json([semantic, [[semantic]]]) == dumps(plain([semantic, [[semantic]]]))
        for found in semantic.values():
            listed = {cid: list(vs) for cid, vs in found.items()}
            assert human_violations(found) == human_violations(listed)

    def test_a_violation_among_other_values(self):
        v = TestViolations.ALL_SET
        for value in ([v, "x", 1], ["x", v, 2, v], {"a": [1, v], "b": v}, [[v], v, "y"]):
            assert to_json(value) == dumps(plain(value))

    def test_a_violation_holding_another_type_is_refused(self):
        for bad in (
            Violation("i", (1,), detail="x"),
            Violation("i", ("s",), ("a", 2), detail="x"),
            Violation("i", theme_set=(None,), detail="x"),
            Violation("i", rel_type=1, detail="x"),
            Violation("i", detail=b"x"),
            Violation(1, detail="x"),
        ):
            for value in (bad, [bad], [TestViolations.ALL_SET, bad], ["x", bad]):
                with pytest.raises(TypeError):
                    to_json(value)


# Theme and statement ids hold what the writer must escape: quotes,
# backslashes, control characters, non-ASCII in and beyond the basic plane.
T1, T2, T3 = 't"1', "t\\2", "t\x01\u00e9\U0001d11e"
A, P, C = "a" + HOSTILE, "p\u00e9\U0001d11e", 'c"\x1f'


def region_doc(themes, theme_sets, statements, rows):
    """A model file over props x and y with full theme rows at ``theme_sets``
    and statement rows ``(statement, theme, formula)``."""
    return {
        "themes": themes,
        "props": ["x", "y"],
        "statements": statements,
        "relations": [],
        "interpretation": {
            "theme_aspects": [{"themes": ts, "aspects": "ALL"} for ts in theme_sets],
            "statement_aspects": [
                {"themes": [t], "statement": sid, "aspects": [f]} for sid, t, f in rows
            ],
        },
    }


def ordinary(sid, themes):
    return {"id": sid, "kind": "ordinary", "themes": themes}


#: Model files with 0, 1 and 50 E witnesses: the last has all three E
#: constraints, and first theme sets paired with several second ones.
REGION_DOCS = {
    0: region_doc(
        [T1, T2], [[T1], [T2], [T1, T2]], [ordinary(A, [T1, T2])], [(A, T1, "x"), (A, T2, "x")]
    ),
    1: region_doc([T1, T2], [[T1], [T2]], [ordinary(A, [T1, T2])], [(A, T1, "x"), (A, T2, "y")]),
    50: region_doc(
        [T1, T2, T3],
        [[T1], [T2], [T3], [T1, T2], [T1, T3], [T2, T3], [T1, T2, T3]],
        [
            ordinary(A, [T1, T2, T3]),
            {"id": P, "kind": "pointer", "theme": T1, "target": A, "themes": [T1, T2]},
            {"id": C, "kind": "pointer", "theme": T1, "target": "@summary", "themes": [T1, T2]},
        ],
        [
            (A, T1, "x"), (A, T2, "y"), (A, T3, "x & y"),
            (P, T1, "x"), (P, T2, "y"),
            (C, T1, "x"), (C, T2, "~x"),
        ],
    ),
}


def check_against_violations(path) -> int:
    """Check ``path`` for all five groups in both formats, and compare the
    reports with the ones built from ``Violation`` records; the number of E
    witnesses."""
    doc = load_path(path)
    verdict = classify_normal_form(doc.model, doc.interpretation, ALPHA_GROUPS)
    outputs = {}
    for fmt in ("machine", "human"):
        out, err = io.StringIO(), io.StringIO()
        line = ["check", str(path), "--alpha", ",".join(ALPHA_GROUPS), "--format", fmt]
        assert run(line, out, err) in (0, 1)
        assert err.getvalue() == ""
        outputs[fmt] = out.getvalue()
    # the machine report, with its semantic block written from the records
    report = json.loads(outputs["machine"])
    assert report["semantic_violations"] == len(verdict.violations)
    report["semantic"] = {
        g: {cid: list(vs) for cid, vs in sorted(found.items()) if vs}
        for g, found in verdict.groups.items()
    }
    assert outputs["machine"] == dumps(plain(report))
    # E's lists, written from their runs and from their violations
    region = verdict.groups[E]
    listed = {cid: list(vs) for cid, vs in region.items()}
    assert to_json(region) == to_json(listed)
    assert human_violations(region) == human_violations(listed)
    # the human E block, from each record's detail
    lines = [f"  [{cid}] {v.detail}" for cid in sorted(region) for v in region[cid]]
    human = outputs["human"].split("\n")
    header = human.index(f"E: {len(lines)} violation(s)" if lines else "E: ok")
    end = header + 1 + len(lines)
    assert human[header + 1 : end] == lines and human[end].startswith("das: ")
    return len(lines)


class TestExactRegionRecords:
    """E's witness rows are written as the records of their violations."""

    @pytest.mark.parametrize("witnesses", sorted(REGION_DOCS))
    def test_hostile_ids(self, tmp_path, witnesses):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(REGION_DOCS[witnesses]), encoding="utf-8")
        assert check_against_violations(path) == witnesses

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_models_with_hostile_ids(self, tmp_path_factory, rng):
        model, interp = region_instance(rng)
        model, interp, _, _ = renamed(model, interp, hostile_name)
        path = tmp_path_factory.mktemp("hostile") / "model.json"
        path.write_text(dump_model(to_dict(model, interp)), encoding="utf-8")
        check_against_violations(path)
