import argparse
import copy
import io
import json
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectarg
from aspectarg import cli
from aspectarg.cli import build_parser, run
from aspectarg.corpus import CORPUS_NAMES, corpus_path
from aspectarg.errors import AspectArgError, ModelFileError
from aspectarg.modelfile import loads


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(corpus_path(name))


def child_env(**overrides):
    """The environment for a child ``python`` that imports the ``aspectarg``
    under test: its source directory goes first on ``PYTHONPATH``."""
    src = str(Path(aspectarg.__file__).resolve().parent.parent)
    pythonpath = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), **overrides)


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

    def test_the_empty_default_is_refused(self, tmp_path):
        # "empty" said what a "union" file says with an explicit [] row for
        # each multi-theme set it leaves out
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["default"] = "empty"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke("validate", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: interpretation.default: expected 'union', got 'empty'\n"

    def test_a_syntax_error_is_reported_before_an_unknown_proposition(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = ["zz & ("]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke("validate", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            "error: interpretation.statement_aspects[0].aspects: bad formula 'zz & (': "
            "unexpected end of input (at offset 6)\n"
        )


#: Every command that loads a model file, with the options it needs.
FILE_COMMANDS = (
    ("validate",),
    ("check", "--alpha", "core,E,das,nwci,F"),
    ("conclude", "--scan-logical"),
    ("classify-relations",),
    ("synthesize",),
)


#: Model files that parse as JSON into values the loader refuses: a number
#: past the interpreter's digit limit for ``int``, and a statement id that is
#: a lone surrogate, which a report printed to UTF-8 could not encode.
MALFORMED_VALUES = {
    "digits": '{"themes": ["t"], "props": ["p"], "statements": [], "relations": [], "x": '
    + "9" * 5000 + "}",
    "surrogate": '{"themes": ["t"], "props": ["p"], "relations": [], '
    '"statements": [{"id": "\\ud800", "kind": "ordinary", "themes": ["t"]}]}',
}


class TestUnreadableFiles:
    def assert_every_command_refuses(self, path, message):
        for command, *options in FILE_COMMANDS:
            code, out, err = invoke(command, str(path), *options)
            assert (code, out) == (2, ""), command
            assert err.startswith("error:") and message in err, command

    @pytest.mark.parametrize("name", MALFORMED_VALUES)
    def test_a_malformed_value_exits_2_in_both_formats(self, tmp_path, name):
        model = tmp_path / "model.json"
        model.write_text(MALFORMED_VALUES[name])
        for command, *options in FILE_COMMANDS:
            for fmt in [[]] if command == "synthesize" else [[], ["--format", "machine"]]:
                code, out, err = invoke(command, str(model), *options, *fmt)
                assert (code, out) == (2, ""), command
                assert err.startswith("error: invalid JSON: "), command
                assert err.count("error:") == 1 and "Traceback" not in err, command

    def test_a_surrogate_pair_loads(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(MALFORMED_VALUES["surrogate"].replace("\\ud800", "\\ud834\\udd1e"))
        assert invoke("validate", str(model))[0] == 0
        assert loads(model.read_text()).model.has_statement("\U0001d11e")

    def test_deeply_nested_json(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        self.assert_every_command_refuses(deep, "nested too deeply")

    def test_file_that_is_not_utf8(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"][0]["id"] = "énoncé"
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        self.assert_every_command_refuses(latin1, "not UTF-8")

    def test_a_file_too_large_to_read_into_memory(self, tmp_path, monkeypatch):
        # as a 9 MB file read under a small address-space cap: the read raises
        # MemoryError, which the loader refuses like any other unreadable file
        model = tmp_path / "model.json"
        model.write_text(json.dumps(MINIMAL))

        class Exhausted:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                raise MemoryError

        monkeypatch.setattr(aspectarg.modelfile, "open", Exhausted, raising=False)
        self.assert_every_command_refuses(model, "out of memory")
        for command, *options in FILE_COMMANDS:
            _, _, err = invoke(command, str(model), *options)
            assert err.count("error:") == 1 and "Traceback" not in err, command
            assert str(model) in err, command


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
        interp = loads(json.dumps(doc)).interpretation
        assert interp.theme_aspects == {} and interp.statement_aspects == {}

    def test_the_default_may_be_omitted(self):
        from aspectarg.model import lookup

        doc = json.loads(json.dumps(MINIMAL))
        doc["themes"] = ["t1", "t2"]
        doc["statements"][0]["themes"] = ["t1", "t2"]
        doc["interpretation"]["theme_aspects"] = []
        doc["interpretation"]["statement_aspects"] = [
            {"themes": ["t1"], "statement": "s", "aspects": ["p"]},
            {"themes": ["t2"], "statement": "s", "aspects": ["~p"]},
        ]
        union = loads(json.dumps(doc))
        del doc["interpretation"]["default"]
        omitted = loads(json.dumps(doc))
        assert omitted.interpretation == union.interpretation
        row = lookup(omitted.interpretation, omitted.model, ["t1", "t2"], "s")
        p = omitted.interpretation.algebra.prop("p")
        assert set(row) == {p, ~p}

    def test_interpretation_names_each_element_by_its_shortest_formula(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["interpretation"]["statement_aspects"][0]["aspects"] = ["p | p & p", "~~p", "~p"]
        interp = loads(json.dumps(doc)).interpretation
        p = interp.algebra.prop("p")
        assert interp.formulas == {p.mask: "~~p", (~p).mask: "~p"}


class TestWriter:
    """``to_dict`` writes any interpretation so that it loads back to itself."""

    @staticmethod
    def rewrite(model, interp):
        """The file ``to_dict`` writes, checked to load back to the same rows
        and to be written again byte for byte."""
        from aspectarg.modelfile import dumps, to_dict

        text = dumps(to_dict(model, interp))
        again = loads(text)
        assert dumps(to_dict(again.model, again.interpretation)) == text
        assert again.interpretation.theme_aspects == interp.theme_aspects
        assert again.interpretation.statement_aspects == interp.statement_aspects
        return text

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_files(self, name, tmp_path, monkeypatch):
        from aspectarg.modelfile import load_path

        doc = load_path(path(name))
        files = {"original": Path(path(name)).read_text(encoding="utf-8"),
                 "rewritten": self.rewrite(doc.model, doc.interpretation)}
        reports = []
        for where, text in files.items():
            (tmp_path / where).mkdir()
            (tmp_path / where / "model.json").write_text(text, encoding="utf-8")
            monkeypatch.chdir(tmp_path / where)
            reports.append(
                invoke("check", "model.json", "--alpha", "core,E,das,nwci,F", "--format", "machine")
            )
        assert reports[0] == reports[1]

    def test_random_interpretations(self):
        import random

        from aspectarg import mk_algebra
        from helpers import block_instance, random_model_any, random_total_interpretation

        rng = random.Random(31)
        algebra = mk_algebra(["p", "q"])
        for _ in range(40):
            model = random_model_any(rng, max_themes=3)
            self.rewrite(model, random_total_interpretation(rng, model, algebra))
            self.rewrite(*block_instance(rng))

    @staticmethod
    def one_row(row):
        from aspectarg import Interpretation, Model, Statement

        model = Model.build(["t"], [Statement("s")], {"s": {"t"}}, [])
        return model, Interpretation(row.algebra, {}, {(frozenset(["t"]), "s"): row})

    def test_an_unnamed_element(self):
        from aspectarg import AspectSet, Element, mk_algebra

        algebra = mk_algebra(["p", "q"])
        xor = Element(algebra, 0b0110)  # no proposition or formula names it
        text = self.rewrite(*self.one_row(AspectSet(algebra, frozenset([xor]))))
        written = json.loads(text)["interpretation"]["statement_aspects"]
        assert written[0]["aspects"] == ["(p & ~q) | (~p & q)"]

    def test_a_full_statement_row(self):
        from aspectarg import AspectSet, mk_algebra

        algebra = mk_algebra(["p", "q"])
        text = self.rewrite(*self.one_row(AspectSet(algebra, full=True)))
        written = json.loads(text)["interpretation"]["statement_aspects"]
        assert len(written[0]["aspects"]) == algebra.carrier_size


def test_random_documents_do_not_depend_on_the_hash_seed():
    """The random models and interpretations of ``helpers`` draw the same
    documents in every process, as the hash-seed check's documents need."""
    script = (
        "import random\n"
        "from helpers import (hostile_name, random_model_any, random_total_interpretation,\n"
        "                     renamed, with_mixed_omega_rows)\n"
        "from aspectarg.algebra import mk_algebra\n"
        "from aspectarg.modelfile import dumps, to_dict\n"
        "rng = random.Random(5)\n"
        "model = random_model_any(rng, max_themes=5, min_themes=5)\n"
        "interp = random_total_interpretation(rng, model, mk_algebra(['p', 'q']))\n"
        "print(dumps(to_dict(model, with_mixed_omega_rows(rng, model, interp))))\n"
        "rng = random.Random(0)\n"
        "model = random_model_any(rng, max_themes=5, min_themes=4)\n"
        "interp = random_total_interpretation(rng, model, mk_algebra(['p', 'q']))\n"
        "print(dumps(to_dict(*renamed(model, interp, hostile_name)[:2])))\n"
    )
    outputs = set()
    for seed in ("1", "2"):
        env = child_env(PYTHONHASHSEED=seed)
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_a_loaded_interpretation_unpickles_under_another_hash_seed(tmp_path):
    """An interpretation pickles its rows and names as plain dicts, which are
    hashed again on load: theme names hash differently in each process."""
    dump = (
        "import pickle, sys\n"
        "from aspectarg.corpus import CORPUS_NAMES, corpus_path\n"
        "from aspectarg.modelfile import load_path\n"
        "interps = [load_path(corpus_path(name)).interpretation for name in CORPUS_NAMES]\n"
        "with open(sys.argv[1], 'wb') as fh:\n"
        "    pickle.dump(interps, fh)\n"
    )
    check = (
        "import pickle, sys\n"
        "with open(sys.argv[1], 'rb') as fh:\n"
        "    interps = pickle.load(fh)\n"
        "names = 0\n"
        "for interp in interps:\n"
        "    for (key, sid), row in interp.statement_aspects.items():\n"
        "        assert interp.statement_aspects[(frozenset(sorted(key)), sid)] == row\n"
        "        for mask in row[1]:\n"
        "            assert interp.formulas[mask], mask\n"
        "            names += 1\n"
        "print(names)\n"
    )
    target = str(tmp_path / "interps.pickle")
    for script, seed in ((dump, "1"), (check, "2")):
        done = subprocess.run(
            [sys.executable, "-c", script, target],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
        )
        assert done.returncode == 0, done.stderr
    from aspectarg.modelfile import load_path

    rows = [
        row for name in CORPUS_NAMES
        for row in load_path(path(name)).interpretation.statement_aspects.values()
    ]
    assert int(done.stdout) == sum(len(masks) for _, masks in rows) > 0


class TestCheck:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_library_details_match_the_report(self, name):
        from aspectarg.constraints import ALPHA_GROUPS, classify_normal_form
        from aspectarg.modelfile import load_path
        from aspectarg.report import to_json

        doc = load_path(path(name))
        verdict = classify_normal_form(doc.model, doc.interpretation, ALPHA_GROUPS)
        code, out, _ = invoke(
            "check", path(name), "--alpha", ",".join(ALPHA_GROUPS), "--format", "machine"
        )
        assert code in (0, 1)
        # the semantic block is the verdict's groups without their empty lists
        groups = {
            g: {cid: vs for cid, vs in found.items() if vs} for g, found in verdict.groups.items()
        }
        assert json.loads(out)["semantic"] == json.loads(to_json(groups))
        assert json.loads(out)["semantic_violations"] == len(verdict.violations)

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

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_one_table_per_check(self, name, monkeypatch):
        from aspectarg.model import AspectTable

        built = []
        init = AspectTable.__init__

        def counting(self, interp, model):
            built.append(model)
            init(self, interp, model)

        monkeypatch.setattr(AspectTable, "__init__", counting)
        code, _, _ = invoke("check", path(name), "--alpha", "core,E,das,nwci,F")
        assert code in (0, 1)
        assert len(built) == 1

    def test_reports_are_deterministic(self):
        runs = {
            invoke("check", path(name), "--alpha", "core,E,das,nwci,F", "--format", "machine")[1]
            for name in ("fear_appeal", "straw_man")
            for _ in range(3)
        }
        assert len(runs) == 2  # one distinct report per file

    def test_reports_are_deterministic_across_processes(self):
        # set-iteration order must never leak into output, whatever the hash seed
        outputs = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "aspectarg.cli", "check", path("straw_man"),
                 "--alpha", "core,E,das,nwci,F", "--format", "machine"],
                capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 1, proc.stderr
            assert json.loads(proc.stdout)["verdict"] == "{core,E,das,nwci,F}-fallacy"
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "command",
        [("check",), ("conclude", "--scan-logical"), ("classify-relations",), ("synthesize",)],
        ids=lambda argv: argv[0],
    )
    def test_malformed_file_exits_2(self, tmp_path, command):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"][0]["themes"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = invoke(command[0], str(bad), *command[1:])
        assert code == 2
        assert err.startswith("error:") and "not well-formed" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["check", path("straw_man"), "--alpha", "core,das"], 1),
        (["check", path("straw_man"), "--no-such-option"], 2),
    ],
    ids=["help", "fallacy", "usage-error"],
)
def test_python_dash_m_runs_the_command(argv, code):
    """``python -m aspectarg`` keeps the exit codes of the ``aspectarg`` script."""
    proc = subprocess.run(
        [sys.executable, "-m", "aspectarg", *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert "fallacy" in proc.stdout

def minterm_formula(props, mask):
    """The element ``mask`` (a set of minterms) as a disjunction of minterms."""
    return " | ".join(
        "(" + " & ".join(p if m >> i & 1 else "~" + p for i, p in enumerate(props)) + ")"
        for m in range(1 << len(props))
        if mask >> m & 1
    )


def supporting_pair(tmp_path, row1, row2):
    """A file where s2 supports s1 in one theme of a 3-proposition algebra,
    with the statements' aspects given as element masks."""
    props = ["a", "b", "c"]
    doc = json.loads(json.dumps(MINIMAL))
    doc["props"] = props
    doc["statements"] = [{"id": s, "kind": "ordinary", "themes": ["t"]} for s in ("s1", "s2")]
    doc["relations"] = [{"from": "s2", "to": "s1", "types": ["support"], "themes": ["t"]}]
    doc["interpretation"]["statement_aspects"] = [
        {"themes": ["t"], "statement": s, "aspects": [minterm_formula(props, m) for m in row]}
        for s, row in (("s1", row1), ("s2", row2))
    ]
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(doc))
    return str(target)


class TestFreshAspectSizes:
    def test_a_row_past_the_cap_gets_a_verdict(self, tmp_path):
        # s1 lists 20 elements whose meet is its own element 0b11, s2's only one
        wide = [0b11 | x << 2 for x in range(20)]
        pair = supporting_pair(tmp_path, wide, [0b11])
        code, out, err = invoke("check", pair, "--alpha", "core,F")
        assert (code, err) == (1, "")
        assert "[faW] s1 and s2 share the minimal representation" in out
        assert "verdict: {core,F}-fallacy" in out

    def test_a_depth_search_past_the_cap_exits_2(self, tmp_path):
        from aspectarg.statements_sets import DEPTH_STATE_CAP

        # 17 statements all attacking each other: 16 * 2**15 + 1 path states
        doc = json.loads(json.dumps(MINIMAL))
        ids = [f"s{i}" for i in range(17)]
        doc["statements"] = [{"id": s, "kind": "ordinary", "themes": ["t"]} for s in ids]
        doc["relations"] = [
            {"from": a, "to": b, "types": ["attack"], "themes": ["t"]}
            for a in ids for b in ids if a != b
        ]
        doc["interpretation"]["statement_aspects"] = []
        target = tmp_path / "complete.json"
        target.write_text(json.dumps(doc))
        code, out, err = invoke("check", str(target), "--alpha", "core,F")
        assert (code, out) == (2, "")
        assert err == (
            "error: the depth-statements-set search of s0 for theme 't' exceeds the cap "
            f"of {DEPTH_STATE_CAP} path states\n"
        )

    def test_a_shared_part_past_the_cap_exits_2(self, tmp_path):
        same = [0b11 | x << 2 for x in range(1, 18)]
        pair = supporting_pair(tmp_path, same, same)
        code, out, err = invoke("check", pair, "--alpha", "core,F")
        assert code == 2
        assert "aspect set of size 17 exceeds the minimal-representation cap 16" in err
        assert out == ""


def model_file(target, model, interp):
    """Write a model and its interpretation as a model file."""
    from aspectarg.modelfile import dumps, to_dict

    target.write_text(dumps(to_dict(model, interp)))
    return str(target)


def random_model_files(tmp_path, count):
    import random

    from aspectarg import mk_algebra
    from helpers import random_model_any, random_total_interpretation

    rng = random.Random(29)
    algebra = mk_algebra(["p", "q"])
    files = []
    for i in range(count):
        model = random_model_any(rng, max_themes=3)
        interp = random_total_interpretation(rng, model, algebra)
        files.append(model_file(tmp_path / f"m{i}.json", model, interp))
    return files


class TestMachineReports:
    """``check`` reports are exactly what ``json.dumps`` writes for them."""

    def assert_canonical(self, file):
        code, out, err = invoke(
            "check", file, "--alpha", "core,E,das,nwci,F", "--format", "machine"
        )
        assert code in (0, 1) and err == ""
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        return code

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus(self, name):
        self.assert_canonical(path(name))

    def test_random_models(self, tmp_path):
        codes = [self.assert_canonical(f) for f in random_model_files(tmp_path, 40)]
        assert codes.count(1) > 20  # most reports hold violations


def test_one_process_runs_each_command_as_if_alone():
    """The parser is built once per process; no parsed option may carry
    over from one call to the next."""
    calls = [
        ["conclude", path("fear_appeal"), "--semantics", "bogus"],
        ["check", path("straw_man"), "--alpha", "core,das", "--format", "machine"],
        ["conclude", path("fear_appeal"), "--themes", "t1"],
        ["validate", path("straw_man")],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from aspectarg.cli import run\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = run(argv)\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    together = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        capture_output=True, text=True, env=child_env(),
    )
    assert together.returncode == 0, together.stderr
    alone = [
        subprocess.run(
            [sys.executable, "-m", "aspectarg.cli", *argv],
            capture_output=True, text=True, env=child_env(),
        )
        for argv in calls
    ]
    assert json.loads(together.stdout) == [[p.returncode, p.stdout, p.stderr] for p in alone]
    assert [code for code, _, _ in json.loads(together.stdout)] == [2, 1, 0, 0]


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

    def test_only_empty_extensions_have_no_conclusion(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["statements"] = [{"id": s, "kind": "ordinary", "themes": ["t"]} for s in "abc"]
        doc["relations"] = [
            {"from": u, "to": v, "types": ["attack"], "themes": ["t"]}
            for u, v in ("ab", "bc", "ca")
        ]
        doc["interpretation"]["statement_aspects"] = []
        cycle = tmp_path / "cycle.json"
        cycle.write_text(json.dumps(doc))
        code, out, _ = invoke("conclude", str(cycle), "--themes", "t", "--semantics", "grounded")
        assert code == 0
        assert "extensions: {}\nconclusion: none (no non-empty extension)\n" in out

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

    def test_unknown_themes_are_named_in_sorted_order(self):
        errors = set()
        for seed in range(1, 7):
            proc = subprocess.run(
                [sys.executable, "-m", "aspectarg.cli", "conclude", path("fear_appeal"),
                 "--themes", "bogus2,bogus1"],
                capture_output=True, text=True, env=child_env(PYTHONHASHSEED=str(seed)),
            )
            assert proc.returncode == 2
            errors.add(proc.stderr)
        assert errors == {"error: unknown theme id 'bogus1'\n"}

    def test_a_repeated_theme_is_echoed_once(self):
        once = invoke("conclude", path("fear_appeal"), "--themes", "t1", "--format", "machine")
        twice = invoke("conclude", path("fear_appeal"), "--themes", "t1,t1", "--format", "machine")
        assert twice == once
        assert json.loads(once[1])["themes"] == ["t1"]
        code, out, _ = invoke("conclude", path("fear_appeal"), "--themes", "t1,t1")
        assert (code, out) == invoke("conclude", path("fear_appeal"), "--themes", "t1")[:2]
        assert "themes: {t1}\n" in out

    def test_needs_themes_or_scan(self):
        code, _, err = invoke("conclude", path("straw_man"))
        assert code == 2

    def test_extensions_are_computed_once(self, monkeypatch):
        from aspectarg import semantics

        calls = []
        original = semantics.extensions

        def counted(sub, name):
            calls.append(name)
            return original(sub, name)

        monkeypatch.setattr(semantics, "extensions", counted)
        code, out, _ = invoke(
            "conclude", path("fear_appeal"), "--themes", "t1", "--semantics", "preferred"
        )
        assert code == 0 and "conclusion:" in out
        assert calls == ["preferred"]

    def test_the_scan_checks_the_cap_where_no_search_is_needed(self, tmp_path):
        # 8 statements at t1 and 9 at t2, all with aspect x: {t1, t2} holds 17
        # statements that meet at x, so no search is needed there
        ids = [f"s{i:02d}" for i in range(17)]
        typing = {sid: ["t1"] if i < 8 else ["t2"] for i, sid in enumerate(ids)}
        doc = {
            "themes": ["t1", "t2"],
            "props": ["x"],
            "statements": [{"id": sid, "kind": "ordinary", "themes": typing[sid]} for sid in ids],
            "relations": [],
            "interpretation": {
                "statement_aspects": [
                    {"themes": typing[sid], "statement": sid, "aspects": ["x"]} for sid in ids
                ],
            },
        }
        consistent = tmp_path / "consistent.json"
        consistent.write_text(json.dumps(doc))
        scan = ("conclude", str(consistent), "--scan-logical", "--semantics")
        assert invoke(*scan, "preferred") == (
            2, "", "error: 17 statements exceed the subset-enumeration cap 16 for preferred semantics\n"
        )
        code, out, err = invoke(*scan, "grounded")
        assert (code, err) == (0, "") and "none found" in out


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

    def test_undeclared_theme_is_an_error(self):
        code, out, err = invoke("classify-relations", path("fear_appeal"), "--themes", "t1,bogus")
        assert code == 2
        assert out == ""
        assert err == "error: unknown theme id 'bogus'\n"


    @pytest.mark.parametrize(
        "command",
        [("classify-relations",), ("check",), ("conclude", "--scan-logical")],
        ids=lambda argv: argv[0],
    )
    def test_relation_over_the_theme_cap_is_refused_before_classifying(
        self, tmp_path, monkeypatch, command
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
        # every case computes its relation kinds, even with absent aspects
        calls = []
        monkeypatch.setattr(constraints, "_kinds", lambda *args: calls.append(args) or 0)
        code, out, err = invoke(command[0], str(wide), *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: 13 themes exceed the enumeration cap 12")
        assert calls == []


class TestManyDeclaredThemes:
    """A model may declare far more themes than the theme cap as long as no
    command enumerates them: the table reads only the theme sets asked for."""

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize(
        "command",
        [("conclude", "--themes"), ("conclude", "--scan-logical"), ("classify-relations",)],
        ids=lambda argv: "-".join(argv),
    )
    def test_unused_themes_change_no_output(self, tmp_path, monkeypatch, name, command):
        from aspectarg.model import _Memo

        doc = json.loads(Path(path(name)).read_text())
        if command[-1] == "--themes":
            command += (",".join(doc["themes"]),)
        model = tmp_path / "model.json"  # one path, as reports name the file
        argv = (command[0], str(model), *command[1:], "--format", "machine")
        model.write_text(json.dumps(doc))
        narrow = invoke(*argv)
        used = len(doc["themes"])
        doc["themes"] += [f"unused{i}" for i in range(30 - used)]
        model.write_text(json.dumps(doc))
        # a memo gains an entry only when it is read at a missing key, so
        # each holds only theme masks that were read, and those read hold no
        # unused theme: no read made anything over the 2 ** 30 masks
        miss = _Memo.__missing__

        def read(self, key):
            if type(key) is int and key >> used:
                raise AssertionError(f"read theme mask {key:#x}, which holds an unused theme")
            return miss(self, key)

        monkeypatch.setattr(_Memo, "__missing__", read)
        assert invoke(*argv) == narrow


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

    def test_a_graph_with_no_themes_gets_the_one_proposition_witness(self, tmp_path):
        src, witness_path = tmp_path / "empty.json", tmp_path / "witness.json"
        src.write_text(json.dumps({"themes": [], "props": ["p"], "statements": [], "relations": []}))
        assert invoke("synthesize", str(src), "-o", str(witness_path))[0] == 0
        witness = json.loads(witness_path.read_text())
        assert witness["props"] == ["w1_1"] and witness["interpretation"] == {
            "default": "union", "theme_aspects": [], "statement_aspects": []
        }
        assert invoke("validate", str(witness_path))[0] == 0
        code, out, _ = invoke("check", str(witness_path), "--alpha", "core,E,das,nwci,F")
        assert code == 0
        assert "verdict: {core,E,das,nwci,F}-normal" in out

    def test_random_witness_files_round_trip(self, tmp_path):
        import random

        from aspectarg import Interpretation, mk_algebra
        from aspectarg.modelfile import dumps, to_dict
        from helpers import random_graphic_safe_model

        rng = random.Random(19)
        for i in range(5):
            model = random_graphic_safe_model(rng)
            src = tmp_path / f"g{i}.json"
            src.write_text(dumps(to_dict(model, Interpretation(mk_algebra(["p"])))))
            witness_path = tmp_path / f"w{i}.json"
            assert invoke("synthesize", str(src), "-o", str(witness_path))[0] == 0
            assert invoke("validate", str(witness_path))[0] == 0
            assert invoke("check", str(witness_path), "--alpha", "core")[0] == 0

    def test_false_flag_names_nnp(self):
        code, _, err = invoke("synthesize", path("false_flag"))
        assert code == 2
        assert "nnp" in err

    @pytest.mark.parametrize("ordinary, props", [(9, 19), (10, 21)])
    def test_witness_stays_within_the_proposition_cap(self, tmp_path, ordinary, props):
        # one theme and n ordinary statements need 2n + 1 propositions
        graph = {
            "themes": ["t1"],
            "props": ["p"],
            "statements": [
                {"id": f"a{i}", "kind": "ordinary", "themes": ["t1"]} for i in range(ordinary)
            ],
            "relations": [],
        }
        src, witness = tmp_path / "graph.json", tmp_path / "witness.json"
        src.write_text(json.dumps(graph))
        code, _, err = invoke("synthesize", str(src), "-o", str(witness))
        if props > 20:
            assert code == 2
            assert err == (
                f"error: witness needs {props} propositions "
                f"(1 themes x chain length {props}), above the cap 20\n"
            )
            assert not witness.exists()
        else:
            assert code == 0
            assert invoke("validate", str(witness))[0] == 0

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

    @pytest.mark.parametrize("target", ["directory", "missing/w.json"])
    def test_unwritable_output_exits_2(self, tmp_path, target):
        output = tmp_path if target == "directory" else tmp_path / target
        code, out, err = invoke("synthesize", path("fear_appeal"), "-o", str(output))
        assert code == 2
        assert err.startswith("error: cannot write") and str(output) in err
        assert out == ""

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
        witness = loads(out).interpretation
        assert witness.theme_aspects and witness.statement_aspects


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--max-themes", "5"),
        ("synthesize", "--max-themes", "5"),
        ("synthesize", "--format", "machine"),
        ("synthesize", "--max-props", "30"),
        ("check", "--max-themes", "5"),
        ("conclude", "--scan-logical", "--max-themes", "5"),
        ("classify-relations", "--max-themes", "5"),
    ],
)
def test_removed_options_are_usage_errors(argv):
    # each input ends in a removed option and its value
    command, *options = argv
    code, out, err = invoke(command, path("fear_appeal"), *options)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + " ".join(options[-2:]) in err


def test_argparse_writes_to_the_given_streams(capsys):
    code, out, err = invoke("check")
    assert (code, out) == (2, "")
    assert err.startswith("usage: aspectarg check")
    code, out, err = invoke("--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: aspectarg")
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# One parse per command line.
# ---------------------------------------------------------------------------

STRAW = path("straw_man")

#: Command lines that give ``--output`` or ``--themes`` a value naming nothing.
EMPTY_VALUE_LINES = [
    ["synthesize", STRAW, "--output="],
    ["synthesize", STRAW, "-o", ""],
    ["conclude", STRAW, "--themes", ""],
    ["conclude", STRAW, "--themes=,", "--scan-logical"],
    ["classify-relations", STRAW, "--themes="],
]

#: Command lines, usage errors included, that ``run`` must treat exactly as
#: the top-level parser does.
DISPATCH_LINES = [
    [],
    ["-h"],
    ["--bogus"],
    ["-h", "check"],
    ["frobnicate", STRAW],
    ["check"],
    ["check", STRAW, "--bogus"],
    ["check", STRAW, "extra"],
    ["check", STRAW, "extra", "--bogus", "more"],
    ["check", STRAW, "--format", "xml"],
    ["conclude", STRAW, "--semantics", "bogus", "--scan-logical"],
    ["check", "--", STRAW],
    ["check", STRAW, "--al", "core"],
    ["check", STRAW, "--form=machine"],
    ["check", STRAW, "-h", "--alpha", "core"],
    ["check", "--format", "machine", STRAW],
    ["check", STRAW, "--alpha", "E"],
    ["synthesize", STRAW, "-o"],
    ["validate", STRAW],
    ["conclude", STRAW, "--scan-logical", "--format", "machine"],
    ["conclude", STRAW],
    ["classify-relations", STRAW, "--themes", "t1"],
    ["check", STRAW, "--format=machine", "--alpha=core,das"],
    ["conclude", STRAW, "--themes", "t1", "--scan-logical", "--themes", "t", "--scan-logical"],
    ["validate", STRAW, "--format", "machine", "--format", "human"],
    *EMPTY_VALUE_LINES,
    ["check", ""],
    ["conclude", STRAW, "--themes", "-1"],
    ["conclude", STRAW, "--themes", "-a b"],
    ["conclude", STRAW, "--scan-logical=yes"],
    ["check", STRAW, "--alpha="],
    ["check", STRAW, "--format="],
    ["synthesize", STRAW, "-o=", "-o", "--format"],
]


def line_id(argv):
    return " ".join("FILE" if arg == STRAW else arg for arg in argv) or "(empty)"


def top_level(argv):
    """(exit code, stdout, stderr) of ``argv`` parsed by the top-level parser,
    which hands the tail to the command's subparser, and run as ``run`` runs
    a command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), out.getvalue(), err.getvalue()
    try:
        code = args.func(args, out, err)
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        code = 2
    return code, out.getvalue(), err.getvalue()


def parsed(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return build_parser().parse_args(argv)
    except SystemExit:
        return None


class TestDispatch:
    """A plain line is read from the command table without argparse, with
    argparse's output, exit code and namespace; argparse parses the rest."""

    @pytest.mark.parametrize("argv", DISPATCH_LINES, ids=line_id)
    def test_run_matches_the_top_level_parser(self, argv):
        assert invoke(*argv) == top_level(argv)

    @pytest.mark.parametrize("argv", DISPATCH_LINES, ids=line_id)
    def test_commands_get_the_top_level_namespace(self, argv):
        args = cli._read(argv)
        if args is not None:
            assert args == parsed(argv)

    @pytest.mark.parametrize("argv", EMPTY_VALUE_LINES, ids=line_id)
    def test_an_option_value_naming_nothing_is_refused(self, argv):
        option, what = ("output", "file") if argv[0] == "synthesize" else ("themes", "theme")
        assert invoke(*argv) == (2, "", f"error: --{option} names no {what}\n")

    def test_a_line_the_reader_accepts_calls_no_parser(self, monkeypatch):
        lines = [argv for argv in DISPATCH_LINES if cli._read(argv) is not None]
        assert len(lines) >= 8
        expected = [top_level(argv) for argv in lines]

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a command line")

        # every parser, the top-level one and each command's, is an ArgumentParser
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [invoke(*argv) for argv in lines] == expected
        # with no argv, the process's own arguments
        monkeypatch.setattr(sys, "argv", ["aspectarg", *lines[-1]])
        out, err = io.StringIO(), io.StringIO()
        assert (run(None, out, err), out.getvalue(), err.getvalue()) == expected[-1]
        with pytest.raises(AssertionError):
            invoke("check", STRAW, "--al", "core")

    def test_reading_a_line_builds_no_option_table(self, monkeypatch):
        # each command's options and defaults are tabled once, at import, so
        # a line reads the attribute name of the options it gives, and no other
        reads = []
        dest = cli.Option.dest.fget
        monkeypatch.setattr(cli.Option, "dest", property(lambda opt: reads.append(opt) or dest(opt)))
        accepted = 0
        for argv in DISPATCH_LINES:
            reads.clear()
            if cli._read(argv) is not None:
                accepted += 1
                assert len(reads) == sum(token.startswith("-") for token in argv[1:]), argv
        assert accepted >= 8

    def test_the_reader_accepts_every_documented_and_benchmarked_line(self):
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, re.S | re.M)
        documented = [
            shlex.split(line, comments=True)[1:]
            for line in block.group(1).splitlines()
            if line.startswith("aspectarg ")
        ]
        assert len(documented) == 7
        workloads = runpy.run_path(str(root / "bench" / "workloads.py"))
        benchmarked = {
            step
            for workload in workloads["WORKLOADS"]
            for request in workloads["plan"](workload, 1, root).requests
            for step in request.steps
        }
        refused = [argv for argv in documented + sorted(benchmarked) if cli._read(list(argv)) is None]
        assert not refused


#: The words of the differential's command lines: the table's commands and
#: option strings, abbreviations, help, ``--``, values inside and outside the
#: choices, values that start with ``-``, empty strings and ``=``-joined forms.
OPTION_STRINGS = sorted(
    {s for _, _, options in cli.COMMANDS.values() for opt in options for s in opt.strings}
)
VALUES = ["human", "machine", "xml", "core", "core,das", "E", "t", "t1,t2", "grounded",
          "stable", "bogus", "out.json", "", "-1", "-a b", "straw.json"]
WORDS = [*cli.COMMANDS, *OPTION_STRINGS, "--al", "--form", "--", "-h", *VALUES] + [
    f"{opt}={value}" for opt in [*OPTION_STRINGS, "--al", "--form"]
    for value in ("machine", "core", "t", "", "a=b", "-1")
]


def plain_option(opt):
    """An exact option string of ``opt`` with a value it takes, or the flag."""
    if opt.flag:
        return st.just([opt.strings[0]])
    value = st.sampled_from(opt.choices or ("t", "core,das", "out.json", ""))
    return st.tuples(st.sampled_from(opt.strings), value).map(list) | value.map(
        lambda v: [f"{opt.strings[0]}={v}"]
    )


@st.composite
def command_lines(draw):
    """A command, the file and its options, in any order, often with words
    drawn from the whole vocabulary anywhere, or in place of the command."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    chunks = draw(st.lists(st.sampled_from(cli.COMMANDS[command][2]).flatmap(plain_option),
                           max_size=4))
    if draw(st.integers(0, 4)):
        chunks.append(["straw.json"])
    if draw(st.booleans()):
        chunks += draw(st.lists(
            st.tuples(st.sampled_from(OPTION_STRINGS), st.sampled_from(VALUES)).map(list)
            | st.sampled_from(WORDS).map(lambda word: [word]),
            min_size=1, max_size=3,
        ))
    chunks = draw(st.permutations(chunks))
    head = command if draw(st.integers(0, 4)) else draw(st.sampled_from(WORDS))
    return [head] + [word for chunk in chunks for word in chunk]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


class TestReaderDifferential:
    @settings(max_examples=400)
    @given(argv=command_lines())
    def test_run_matches_argparse(self, workdir, argv):
        # in a scratch directory, from a fresh copy of the file each time,
        # since a drawn line may write a witness over any value
        here = os.getcwd()
        os.chdir(workdir)
        try:
            shutil.copyfile(STRAW, "straw.json")
            got = invoke(*argv)
            shutil.copyfile(STRAW, "straw.json")
            assert got == top_level(argv)
            args = cli._read(argv)
            if args is not None:
                assert args == parsed(argv)
        finally:
            os.chdir(here)


# ---------------------------------------------------------------------------
# Exit-code fuzz: mutated corpus documents through every command.
# ---------------------------------------------------------------------------

CORPUS_BYTES = [corpus_path(name).read_bytes() for name in CORPUS_NAMES]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def byte_mutants(draw):
    """A corpus file with a few bits flipped, bytes deleted or bytes inserted."""
    data = bytearray(draw(st.sampled_from(CORPUS_BYTES)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("flip", "delete", "insert")))
        at = draw(st.integers(0, len(data) - 1))
        if op == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "delete":
            del data[at]
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def structure_mutants(draw):
    """A corpus document with a few values dropped or replaced, either by
    arbitrary JSON or by a copy of another value of the same document."""
    doc = json.loads(draw(st.sampled_from(CORPUS_BYTES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            donor = reduce(getitem, draw(st.sampled_from(paths)), doc)
            parent[path[-1]] = draw(st.just(copy.deepcopy(donor)) | JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.json"


class TestExitCodeFuzz:
    @settings(max_examples=150)
    @given(data=byte_mutants() | structure_mutants())
    def test_mutated_corpus_keeps_the_exit_code_contract(self, mutant_path, data):
        mutant_path.write_bytes(data)
        for command, *options in FILE_COMMANDS:
            code, out, _ = invoke(command, str(mutant_path), *options)
            assert code in (0, 1, 2), command
            if code == 1:
                assert out.strip(), command  # a fallacy comes with its report
