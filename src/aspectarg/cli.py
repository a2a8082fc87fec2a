"""Command line interface.

Commands::

    aspectarg validate FILE [--format ...]
    aspectarg check FILE [--alpha core,das,...] [--format ...]
    aspectarg conclude FILE [--themes t1,t2] [--semantics grounded] [--scan-logical]
                            [--format ...]
    aspectarg classify-relations FILE [--themes t1,t2] [--format ...]
    aspectarg synthesize FILE [--output OUT]

Exit codes: 0 = normal / no fallacy found, 1 = fallacy found,
2 = usage, format, well-formedness or cap error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from gettext import gettext
from typing import Any, Callable

from . import constraints, semantics
from .constraints import ALPHA_GROUPS
from .errors import AspectArgError, ModelError, ModelFileError
from .formulas import render_element
from .model import validate_wellformed
from .modelfile import Document, dumps, load_path, to_dict
from .report import human_violations, to_json, violations_block
from .synthesis import synthesize_core_witness

OK, FALLACY, ERROR = 0, 1, 2


def _load_wellformed(path: str) -> Document:
    """The model file at ``path``, refused when its model is not well-formed."""
    doc = load_path(path)
    if validate_wellformed(doc.model):
        raise ModelError(f"{path} is not well-formed; run `aspectarg validate` for details")
    return doc


def _comma_list(text: str) -> list[str]:
    """The stripped, non-empty items of a comma-separated option value."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _emit(
    report: dict[str, Any], fmt: str, out, human_lines: Callable[[dict[str, Any]], list[str]]
) -> None:
    """Write the report as JSON, or as the lines ``human_lines(report)``."""
    if fmt == "machine":
        out.write(to_json(report))
    else:
        out.write("\n".join(human_lines(report)) + "\n")


def cmd_validate(args, out, err) -> int:
    doc = load_path(args.file)
    problems = validate_wellformed(doc.model)
    report = {
        "command": "validate",
        "file": args.file,
        "wellformed": not problems,
        "violations": [v.detail for v in problems],
    }
    _emit(report, args.format, out, _validate_lines)
    return OK if not problems else ERROR


def _validate_lines(report: dict[str, Any]) -> list[str]:
    lines = [f"validate {report['file']}"]
    problems = report["violations"]
    if problems:
        lines.append(f"not well-formed ({len(problems)} problem(s)):")
        lines.extend(f"  {detail}" for detail in problems)
    else:
        lines.append("well-formed")
    return lines


def cmd_check(args, out, err) -> int:
    alpha = constraints.validate_alpha(_comma_list(args.alpha))
    doc = _load_wellformed(args.file)
    graphic = constraints.check_graphic(doc.model)
    verdict = constraints.classify_normal_form(doc.model, doc.interpretation, alpha)

    graphic_count = sum(len(vs) for vs in graphic.values())
    normal = verdict.normal
    alpha_label = "{" + ",".join(verdict.groups) + "}"  # groups in ALPHA_GROUPS order

    report = {
        "command": "check",
        "file": args.file,
        "alpha": sorted(alpha),
        "graphic": violations_block(graphic),
        "semantic": {g: violations_block(found) for g, found in verdict.groups.items()},
        "normal": normal,
        "verdict": f"{alpha_label}-normal" if normal else f"{alpha_label}-fallacy",
        "graphic_violations": graphic_count,
        "semantic_violations": len(verdict.violations),
    }
    _emit(report, args.format, out, _check_lines)
    return OK if normal and graphic_count == 0 else FALLACY


def _check_lines(report: dict[str, Any]) -> list[str]:
    groups = [g for g in ALPHA_GROUPS if g in report["semantic"]]
    lines = [f"check {report['file']}", f"alpha: {', '.join(groups)}"]
    if report["graphic_violations"]:
        lines.append(f"graphic constraints: {report['graphic_violations']} violation(s)")
        lines.extend(human_violations(report["graphic"]))
    else:
        lines.append("graphic constraints: ok")
    for group in groups:
        block = report["semantic"][group]
        count = sum(len(vs) for vs in block.values())
        if count:
            lines.append(f"{group}: {count} violation(s)")
            lines.extend(human_violations(block))
        else:
            lines.append(f"{group}: ok")
    lines.append(f"verdict: {report['verdict']}")
    return lines


def cmd_conclude(args, out, err) -> int:
    doc = _load_wellformed(args.file)
    if not args.themes and not args.scan_logical:
        err.write("error: give --themes, --scan-logical, or both\n")
        return ERROR

    report: dict[str, Any] = {
        "command": "conclude",
        "file": args.file,
        "semantics": args.semantics,
    }
    exit_code = OK
    bottom = False
    if args.themes:
        themes = _comma_list(args.themes)
        exts, conclusion = semantics.conclude(
            doc.model, doc.interpretation, themes, args.semantics
        )
        report["themes"] = sorted(themes)
        report["defined"] = exts is not None
        report["conclusion"] = None
        if exts is not None:
            report["extensions"] = [sorted(e) for e in sorted(exts, key=sorted)]
            if conclusion is not None:
                report["conclusion"] = render_element(
                    conclusion, preferred=doc.interpretation.formulas
                )
                if conclusion.is_bottom:
                    bottom = True
                    exit_code = FALLACY
    if args.scan_logical:
        verdict = semantics.detect_logical_fallacy(doc.model, doc.interpretation, args.semantics)
        report["logical_fallacy"] = verdict.found
        if verdict.found:
            report["witness_themes"] = sorted(verdict.witness)
            exit_code = FALLACY
    _emit(report, args.format, out, lambda r: _conclude_lines(r, bottom))
    return exit_code


def _conclude_lines(report: dict[str, Any], bottom: bool) -> list[str]:
    lines = [f"conclude {report['file']} ({report['semantics']} semantics)"]
    if "themes" in report:
        themes = ", ".join(report["themes"])
        if not report["defined"]:
            lines.append(f"themes {{{themes}}}: no conclusion (sub-model undefined)")
        else:
            lines.append(f"themes: {{{themes}}}")
            exts = ", ".join("{" + ", ".join(e) + "}" for e in report["extensions"])
            lines.append("extensions: " + (exts or "(none)"))
            if report["conclusion"] is None:
                lines.append("conclusion: none (no non-empty extension)")
            else:
                lines.append(f"conclusion: {report['conclusion']}")
                if bottom:
                    lines.append("the conclusion is the inconsistent aspect: logical fallacy")
    if "logical_fallacy" in report:
        if report["logical_fallacy"]:
            witness = ", ".join(report["witness_themes"])
            lines.append(f"logical fallacy: conclusion is 0 at themes {{{witness}}}")
        else:
            lines.append("logical fallacy: none found")
    return lines


def cmd_classify_relations(args, out, err) -> int:
    doc = _load_wellformed(args.file)
    themes = _comma_list(args.themes) if args.themes else None
    entries = [
        {
            "from": r.source,
            "to": r.target,
            "types": sorted(r.rel_types),
            "theme_set": list(t_key),
            "labels": sorted(labels),
        }
        for r, t_key, labels in constraints.classify_relations(
            doc.model, doc.interpretation, themes
        )
    ]
    report = {"command": "classify-relations", "file": args.file, "relations": entries}
    _emit(report, args.format, out, _classify_lines)
    return OK


def _classify_lines(report: dict[str, Any]) -> list[str]:
    return [f"classify-relations {report['file']}"] + [
        f"  ({e['from']} -> {e['to']}) at {{{', '.join(e['theme_set'])}}}: "
        + ", ".join(e["labels"])
        for e in report["relations"]
    ]


def cmd_synthesize(args, out, err) -> int:
    doc = _load_wellformed(args.file)
    text = dumps(to_dict(doc.model, synthesize_core_witness(doc.model)))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelFileError(f"cannot write {args.output}: {exc}") from exc
        out.write(f"witness written to {args.output}\n")
    else:
        out.write(text)
    return OK


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later calls;
    parsing reads it and never changes it."""
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and its subparser for each command name."""
    parser = argparse.ArgumentParser(
        prog="aspectarg",
        description="Constraint-based fallacy checking on theme aspect argumentation models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="model file (JSON)")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p = sub.add_parser("validate", help="schema and well-formedness check")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="graphic + chosen semantic constraint checks")
    add_common(p)
    p.add_argument(
        "--alpha",
        default="core",
        help="comma-separated constraint groups (core,E,das,nwci,F); must include core",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("conclude", help="extensions and logico-rhetorical conclusion")
    add_common(p)
    p.add_argument("--themes", help="comma-separated theme set")
    p.add_argument("--semantics", choices=semantics.SEMANTICS_IDS, default="grounded")
    p.add_argument(
        "--scan-logical",
        action="store_true",
        help="scan all used theme subsets for a bottom conclusion",
    )
    p.set_defaults(func=cmd_conclude)

    p = sub.add_parser("classify-relations", help="semantic labels per relation")
    add_common(p)
    p.add_argument("--themes", help="restrict to one theme set")
    p.set_defaults(func=cmd_classify_relations)

    p = sub.add_parser("synthesize", help="complete a graph with a Core-satisfying interpretation")
    p.add_argument("file", help="model file (JSON)")
    p.add_argument("--output", "-o", help="write the completed model file here")
    p.set_defaults(func=cmd_synthesize)
    return parser, dict(sub.choices)


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, parsing ``argv`` once.

    The top-level parser hands everything after a command name to that
    command's subparser, so a line that starts with one goes straight there;
    what the subparser leaves over is refused by the top-level parser, as
    ``parse_args`` refuses it.  Any other line, help and unknown commands
    included, goes through the top-level parser.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return argparse.Namespace(command=argv[0], **vars(args))


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our error code
        return int(exc.code or 0)
    try:
        return args.func(args, out, err)
    except AspectArgError as exc:
        # exit-code contract: anything the library refuses to do is a 2
        err.write(f"error: {exc}\n")
        return ERROR


if __name__ == "__main__":
    sys.exit(run())
