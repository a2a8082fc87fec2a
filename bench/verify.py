"""Expected answers: digests recorded from the reference program, the
paper's worked-example verdicts, properties that hold by construction, and
re-verification of a sample of violation witnesses.

Nothing here runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Violation witnesses re-verified through ``constraints.recheck`` per check report.
RECHECK_SAMPLE = 3


def step_digest(code: int, stdout: str, written: bytes | None) -> list:
    """The recorded form of one ``cli.run`` result: exit code and a hash of
    its standard output plus any file it wrote."""
    h = hashlib.sha256(stdout.encode())
    if written is not None:
        h.update(b"\0")
        h.update(written)
    return [code, h.hexdigest()]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _paper_corpus(key: str, codes: list[int], report: dict | None) -> list[str]:
    """Verdicts of the paper's worked examples, as the acceptance suite states them."""
    problems: list[str] = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    _, name, rest = key.split("/", 2)
    code = codes[0]
    if rest.startswith("check/"):
        alpha = set(rest.split("/")[1].split(","))
        fmt = rest.split("/")[2]
        if name == "fear_appeal":
            want(code == 1, "fear_appeal is a core fallacy")
            if fmt == "machine" and alpha == {"core"}:
                want(report["graphic"] == {}, "fear_appeal has no graphic violation")
                want(list(report["semantic"]["core"]) == ["i"], "fear_appeal violates only i")
                (v,) = report["semantic"]["core"]["i"]
                want(v["statements"] == ["s2"] and v["theme_set"] == ["t2"], "i at ({t2}, s2)")
        elif name == "false_flag":
            want(code == 1, "false_flag fails nnp")
            if fmt == "machine":
                want(list(report["graphic"]) == ["nnp"], "false_flag violates only nnp")
                want(report["graphic"]["nnp"][0]["statements"] == ["s1"], "nnp at s1")
                want(report["semantic"]["core"] == {}, "false_flag has no core violation")
        elif name == "straw_man":
            if "das" in alpha:
                want(code == 1, "straw_man is a {core,das} fallacy")
            if alpha == {"core"}:
                want(code == 0, "straw_man is core-normal")
            if fmt == "machine" and alpha == {"core", "das"}:
                sources = {v["relation"][0] for v in report["semantic"]["das"]["das"]}
                want(sources == {"s2"}, "das violations start at s2")
                want(report["semantic"]["core"] == {}, "straw_man has no core violation")
        elif name.startswith("question_begging"):
            if alpha == {"core"}:
                want(code == 0, f"{name} is core-normal")
            if "F" in alpha:
                want(code == 1, f"{name} is a {{core,F}} fallacy")
            if fmt == "machine" and alpha == {"core", "F"}:
                fad = report["semantic"]["F"]["faD"]
                want(any(set(v["statements"]) >= {"s1", "s2"} for v in fad), "faD on s1, s2")
    elif rest == "scan/grounded":
        if name == "contradictory_conclusion":
            want(code == 1 and report["witness_themes"] == ["t"], "0-conclusion at {t}")
        if name == "fear_appeal":
            want(code == 0 and not report["logical_fallacy"], "fear_appeal has no 0-conclusion")
    return problems


def _violations(report: dict) -> list[dict]:
    out = [v for vs in report["graphic"].values() for v in vs]
    for group in report["semantic"].values():
        out.extend(v for vs in group.values() for v in vs)
    return out


def _recheck(key: str, model_path: str, report: dict) -> list[str]:
    from aspectarg.constraints import recheck
    from aspectarg.model import Violation
    from aspectarg.modelfile import load_path

    found = _violations(report)
    if not found:
        return []
    doc = load_path(model_path)
    problems = []
    for v in random.Random(key).sample(found, min(RECHECK_SAMPLE, len(found))):
        witness = Violation(
            v["constraint"],
            tuple(v.get("statements", ())),
            tuple(v["relation"]) if "relation" in v else None,
            tuple(v["theme_set"]) if "theme_set" in v else None,
            tuple(v["theme_set2"]) if "theme_set2" in v else None,
            v.get("rel_type"),
            v["detail"],
        )
        if not recheck(doc.model, doc.interpretation, witness):
            problems.append(f"recheck failed for {v['constraint']}: {v['detail']}")
    return problems


def _core_quirk(witness_path: str, report: dict) -> list[str]:
    """``check --alpha core`` on a synthesized witness prints a core-normal
    verdict, yet exits 1 exactly when the graph violates a graphic check
    (``nss`` is the only one synthesis lets through).  Recorded as observed."""
    from aspectarg import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["check", witness_path, "--alpha", "core"], out, err)
    problems = []
    if "verdict: {core}-normal" not in out.getvalue():
        problems.append("synthesized witness is not core-normal")
    expected = 1 if report["graphic"] else 0
    if code != expected:
        problems.append(f"check --alpha core exited {code}, recorded behaviour is {expected}")
    return problems


def check_answer(request, codes: list[int], outputs: list[str]) -> list[str]:
    """Problems with one request's answer beyond its digest; empty when right."""
    last = outputs[-1]
    report = json.loads(last) if last.startswith("{") else None
    problems: list[str] = []
    if request.expect == "corpus":
        problems += _paper_corpus(request.key, codes, report)
    elif request.expect == "block":
        for group in ("core", "E"):
            if report["semantic"][group]:
                problems.append(f"block instance has {group} violations")
    elif request.expect == "witness":
        if codes[:2] != [0, 0]:
            problems.append(f"validate/synthesize exited {codes[:2]}")
        if report["semantic"]["core"]:
            problems.append("synthesized witness has core violations")
        problems += _core_quirk(request.model, report)
    elif request.expect in ("planted", "consistent"):
        semantics = request.key.rsplit("/", 1)[1]
        if request.expect == "consistent" and report["logical_fallacy"]:
            problems.append("consistent graph has a 0-conclusion")
        if request.expect == "planted" and semantics == "grounded" and not report["logical_fallacy"]:
            problems.append("planted 0-conclusion not found")
    if report is not None and report.get("command") == "check":
        problems += _recheck(request.key, request.model, report)
    return problems
