import io
import json

import pytest

from aspectarg.cli import run
from aspectarg.corpus import CORPUS_NAMES, corpus_path
from aspectarg.errors import ModelFileError
from aspectarg.modelfile import loads


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(corpus_path(name))


MINIMAL = {
    "themes": ["t"],
    "props": ["p"],
    "statements": [{"id": "s", "kind": "ordinary", "themes": ["t"]}],
    "relations": [],
    "interpretation": {
        "default": "union",
        "theme_aspects": [{"themes": ["t"], "aspects": "ALL"}],
        "statement_aspects": [{"themes": ["t"], "statement": "s", "aspects": ["p"]}],
    },
}


class TestValidate:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_validates(self, name):
        code, out, _ = invoke("validate", path(name))
        assert code == 0
        assert "well-formed" in out

    def test_missing_file(self):
        code, _, err = invoke("validate", "/nonexistent/model.json")
        assert code == 2
        assert "cannot read" in err

    def test_untyped_statement_names_the_statement(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"][0]["themes"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = invoke("validate", str(bad))
        assert code == 2
        assert "statement s untyped" in out

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke("validate", str(bad))
        assert code == 2
        assert "invalid JSON" in err


class TestModelFileSchema:
    def test_unknown_formula_prop(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = ["q"]
        with pytest.raises(ModelFileError, match="bad formula"):
            loads(json.dumps(doc))

    def test_formula_syntax_error_carries_context(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = ["p &"]
        with pytest.raises(ModelFileError, match="statement_aspects"):
            loads(json.dumps(doc))

    def test_duplicate_statement_id(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"].append({"id": "s", "kind": "ordinary", "themes": ["t"]})
        with pytest.raises(ModelFileError, match="duplicate"):
            loads(json.dumps(doc))

    def test_reserved_statement_id(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"][0]["id"] = "@omega"
        with pytest.raises(ModelFileError, match="reserved"):
            loads(json.dumps(doc))

    def test_all_only_for_theme_rows(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = "ALL"
        with pytest.raises(ModelFileError, match="ALL"):
            loads(json.dumps(doc))

    def test_unknown_relation_type(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["relations"] = [{"from": "s", "to": "s", "types": ["attak"], "themes": ["t"]}]
        with pytest.raises(ModelFileError, match="unknown relation type"):
            loads(json.dumps(doc))

    def test_unknown_statement_in_interpretation(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["statement"] = "ghost"
        with pytest.raises(ModelFileError, match="unknown statement"):
            loads(json.dumps(doc))

    def test_pointer_summary_target(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"].append(
            {"id": "c", "kind": "pointer", "theme": "t", "target": "@summary", "themes": ["t"]}
        )
        loaded = loads(json.dumps(doc))
        assert loaded.model.statement("c").is_summary_pointer

    def test_interpretation_may_be_omitted(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["interpretation"]
        loaded = loads(json.dumps(doc))
        assert not loaded.has_interpretation


class TestCheck:
    def test_fear_appeal_core_fallacy(self):
        code, out, _ = invoke("check", path("fear_appeal"), "--alpha", "core")
        assert code == 1
        assert "{core}-fallacy" in out

    def test_straw_man_core_normal_but_das_fallacy(self):
        code, _, _ = invoke("check", path("straw_man"), "--alpha", "core")
        assert code == 0
        code, _, _ = invoke("check", path("straw_man"), "--alpha", "core,das")
        assert code == 1

    def test_question_begging_needs_fresh_aspects(self):
        code, _, _ = invoke("check", path("question_begging_opium"), "--alpha", "core")
        assert code == 0
        code, out, _ = invoke("check", path("question_begging_opium"), "--alpha", "core,F")
        assert code == 1
        assert "faD" in out

    def test_alpha_must_include_core(self):
        code, _, err = invoke("check", path("straw_man"), "--alpha", "das")
        assert code == 2
        assert "must include" in err

    def test_unknown_alpha_group(self):
        code, _, err = invoke("check", path("straw_man"), "--alpha", "core,bogus")
        assert code == 2

    def test_machine_format_is_json(self):
        code, out, _ = invoke("check", path("fear_appeal"), "--format", "machine")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "{core}-fallacy"
        assert report["semantic"]["core"]["i"][0]["statements"] == ["s2"]
        assert report["semantic"]["core"]["i"][0]["theme_set"] == ["t2"]

    def test_reports_are_deterministic(self):
        runs = {
            invoke("check", path(name), "--alpha", "core,E,das,nwci,F", "--format", "machine")[1]
            for name in ("fear_appeal", "straw_man")
            for _ in range(3)
        }
        assert len(runs) == 2  # one distinct report per file

    def test_reports_are_deterministic_across_processes(self):
        # set-iteration order must never leak into output, whatever the hash seed
        import os
        import subprocess
        import sys

        outputs = set()
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "aspectarg.cli", "check", path("straw_man"),
                 "--alpha", "core,E,das,nwci,F", "--format", "machine"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 1
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_malformed_file_exits_2(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"][0]["themes"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = invoke("check", str(bad))
        assert code == 2
        assert "not well-formed" in err


class TestConclude:
    def test_fear_appeal_grounded(self):
        code, out, _ = invoke(
            "conclude", path("fear_appeal"), "--themes", "t1", "--semantics", "grounded"
        )
        assert code == 0
        assert "extensions: {s2}" in out
        assert "conclusion: aP & (~bP & bCostH)" in out

    def test_undefined_theme_set(self):
        code, out, _ = invoke("conclude", path("false_flag"), "--themes", "t")
        assert code == 0
        assert "no conclusion (sub-model undefined)" in out

    def test_scan_finds_contradiction(self):
        code, out, _ = invoke("conclude", path("contradictory_conclusion"), "--scan-logical")
        assert code == 1
        assert "logical fallacy" in out and "{t}" in out

    def test_direct_contradictory_theme_set(self):
        code, out, _ = invoke("conclude", path("contradictory_conclusion"), "--themes", "t")
        assert code == 1
        assert "conclusion: 0" in out

    def test_scan_clean_file(self):
        code, out, _ = invoke("conclude", path("straw_man"), "--scan-logical")
        assert code == 0
        assert "none found" in out

    def test_needs_themes_or_scan(self):
        code, _, err = invoke("conclude", path("straw_man"))
        assert code == 2


class TestClassifyRelations:
    def test_straw_man_strengthening(self):
        code, out, _ = invoke("classify-relations", path("straw_man"))
        assert code == 0
        assert "(s2 -> s1) at {t}: strengthening" in out
        assert "(s2 -> s3) at {t}: strengthening" in out

    def test_circular_support_is_an_affirmation(self):
        code, out, _ = invoke("classify-relations", path("question_begging_opium"))
        assert code == 0
        assert "(s2 -> s1) at {t}: affirmation" in out

    def test_restricted_theme_set(self):
        code, out, _ = invoke(
            "classify-relations", path("fear_appeal"), "--themes", "t1", "--format", "machine"
        )
        assert code == 0
        report = json.loads(out)
        assert all(entry["theme_set"] == ["t1"] for entry in report["relations"])


    def test_relation_over_the_theme_cap_is_refused_before_classifying(
        self, tmp_path, monkeypatch
    ):
        from aspectarg import constraints

        themes = [f"t{i}" for i in range(13)]
        doc = {
            "themes": themes,
            "props": ["p"],
            "statements": [
                {"id": "a", "kind": "ordinary", "themes": themes},
                {"id": "b", "kind": "ordinary", "themes": themes},
            ],
            "relations": [
                # sorted first, and small: it must not be classified either
                {"from": "a", "to": "a", "types": ["support"], "themes": ["t0"]},
                {"from": "a", "to": "b", "types": ["attack"], "themes": themes},
            ],
        }
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(
            constraints, "classify_relation", lambda *args: calls.append(args) or frozenset()
        )
        code, out, err = invoke("classify-relations", str(wide))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 13 themes exceed the enumeration cap 12")
        assert calls == []


class TestDeepFormulas:
    @pytest.mark.parametrize(
        "formula",
        ["~" * 5000 + "p", "(" * 3000 + "p" + ")" * 3000, " & ".join(["p"] * 5000)],
        ids=["negations", "parentheses", "flat_chain"],
    )
    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_exit_code_two(self, tmp_path, formula, command):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = [formula]
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps(doc))
        code, out, err = invoke(command, str(deep))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nests deeper" in err


class TestSynthesize:
    def test_witness_round_trip(self, tmp_path):
        graph = {
            "themes": ["t1", "t2"],
            "props": ["unused"],
            "statements": [
                {"id": "a1", "kind": "ordinary", "themes": ["t1", "t2"]},
                {"id": "a2", "kind": "ordinary", "themes": ["t1"]},
                {"id": "c1", "kind": "pointer", "theme": "t1", "target": "@summary",
                 "themes": ["t2"]},
            ],
            "relations": [
                {"from": "a2", "to": "a1", "types": ["attack"], "themes": ["t1"]}
            ],
        }
        src = tmp_path / "graph.json"
        src.write_text(json.dumps(graph))
        witness_path = tmp_path / "witness.json"
        code, _, _ = invoke("synthesize", str(src), "-o", str(witness_path))
        assert code == 0
        assert invoke("validate", str(witness_path))[0] == 0
        code, out, _ = invoke("check", str(witness_path), "--alpha", "core")
        assert code == 0
        assert "{core}-normal" in out

    def test_random_witness_files_round_trip(self, tmp_path):
        import random

        from aspectarg.modelfile import dumps, to_dict
        from helpers import random_graphic_safe_model

        rng = random.Random(19)
        for i in range(5):
            model = random_graphic_safe_model(rng)
            src = tmp_path / f"g{i}.json"
            src.write_text(
                dumps(to_dict(model, __import__("aspectarg").mk_algebra(["p"])))
            )
            witness_path = tmp_path / f"w{i}.json"
            assert invoke("synthesize", str(src), "-o", str(witness_path))[0] == 0
            assert invoke("validate", str(witness_path))[0] == 0
            assert invoke("check", str(witness_path), "--alpha", "core")[0] == 0

    def test_false_flag_names_nnp(self):
        code, _, err = invoke("synthesize", path("false_flag"))
        assert code == 2
        assert "nnp" in err

    def test_oversized_graph_reports_cap(self, tmp_path):
        themes = ["t1", "t2", "t3"]
        graph = {
            "themes": themes,
            "props": ["p"],
            "statements": [
                {"id": f"a{i}", "kind": "ordinary", "themes": themes} for i in range(4)
            ],
            "relations": [],
        }
        src = tmp_path / "big.json"
        src.write_text(json.dumps(graph))
        code, _, err = invoke("synthesize", str(src))
        assert code == 2
        assert "cap" in err

    def test_witness_to_stdout(self, tmp_path):
        graph = {
            "themes": ["t1"],
            "props": ["p"],
            "statements": [{"id": "a1", "kind": "ordinary", "themes": ["t1"]}],
            "relations": [],
        }
        src = tmp_path / "tiny.json"
        src.write_text(json.dumps(graph))
        code, out, _ = invoke("synthesize", str(src))
        assert code == 0
        witness = loads(out)
        assert witness.has_interpretation
