"""Command line interface.

Commands::

    aspectarg validate FILE [--format ...]
    aspectarg check FILE [--alpha core,das,...] [--format ...]
    aspectarg conclude FILE [--themes t1,t2] [--semantics grounded] [--scan-logical]
                            [--format ...]
    aspectarg classify-relations FILE [--themes t1,t2] [--format ...]
    aspectarg synthesize FILE [--output OUT]

``COMMANDS`` declares each command once.  The argparse parser is built from
it, and ``run`` reads a plain command line from the table alone, leaving
help and usage errors to argparse.

Exit codes: 0 = normal / no fallacy found, 1 = fallacy found,
2 = usage, format, well-formedness or cap error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from typing import Any, Callable, NamedTuple

from . import constraints, semantics
from .constraints import ALPHA_GROUPS
from .errors import AspectArgError, ModelError, ModelFileError, UsageError
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


def _themes(text: str | None) -> list[str] | None:
    """The themes a ``--themes`` value names, which must name one at least;
    ``None`` when the option is not given."""
    if text is None:
        return None
    themes = _comma_list(text)
    if not themes:
        raise UsageError("--themes names no theme")
    return themes


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
    graphic = violations_block(constraints.check_graphic(doc.model))
    # classify_normal_form's groups step: counting needs no joined list
    groups = constraints.check_groups(doc.model, doc.interpretation, alpha)

    # the blocks hold the non-empty lists, so only those are counted
    graphic_count = sum(map(len, graphic.values()))
    semantic = {g: violations_block(found) for g, found in groups.items()}
    semantic_count = sum(sum(map(len, block.values())) for block in semantic.values())
    normal = semantic_count == 0
    alpha_label = "{" + ",".join(groups) + "}"  # groups in ALPHA_GROUPS order

    report = {
        "command": "check",
        "file": args.file,
        "alpha": sorted(alpha),
        "graphic": graphic,
        "semantic": semantic,
        "normal": normal,
        "verdict": f"{alpha_label}-normal" if normal else f"{alpha_label}-fallacy",
        "graphic_violations": graphic_count,
        "semantic_violations": semantic_count,
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
    themes = _themes(args.themes)
    if themes is None and not args.scan_logical:
        raise UsageError("give --themes, --scan-logical, or both")

    report: dict[str, Any] = {
        "command": "conclude",
        "file": args.file,
        "semantics": args.semantics,
    }
    exit_code = OK
    bottom = False
    if themes is not None:
        exts, conclusion = semantics.conclude(
            doc.model, doc.interpretation, themes, args.semantics
        )
        report["themes"] = sorted(set(themes))
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
    themes = _themes(args.themes)
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
    if args.output == "":
        raise UsageError("--output names no file")
    text = dumps(to_dict(doc.model, synthesize_core_witness(doc.model)))
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelFileError(f"cannot write {args.output}: {exc}") from exc
        out.write(f"witness written to {args.output}\n")
    else:
        out.write(text)
    return OK


class Option(NamedTuple):
    """A command's option; its first string is long and names its attribute."""

    strings: tuple[str, ...]
    help: str | None = None
    default: Any = None
    choices: tuple[str, ...] | None = None
    flag: bool = False  # takes no value; its default is False, as for store_true

    @property
    def dest(self) -> str:
        return self.strings[0][2:].replace("-", "_")


FORMAT = Option(("--format",), default="human", choices=("human", "machine"))

#: Each command's handler, help and options in help order; each takes the file first.
COMMANDS: dict[str, tuple[Callable[..., int], str, tuple[Option, ...]]] = {
    "validate": (cmd_validate, "schema and well-formedness check", (FORMAT,)),
    "check": (cmd_check, "graphic + chosen semantic constraint checks", (FORMAT, Option(
        ("--alpha",), "comma-separated constraint groups (core,E,das,nwci,F); must include core",
        default="core"))),
    "conclude": (cmd_conclude, "extensions and logico-rhetorical conclusion", (
        FORMAT,
        Option(("--themes",), "comma-separated theme set"),
        Option(("--semantics",), default="grounded", choices=semantics.SEMANTICS_IDS),
        Option(("--scan-logical",), "scan all used theme subsets for a bottom conclusion",
               flag=True))),
    "classify-relations": (cmd_classify_relations, "semantic labels per relation",
                           (FORMAT, Option(("--themes",), "restrict to one theme set"))),
    "synthesize": (cmd_synthesize, "complete a graph with a Core-satisfying interpretation",
                   (Option(("--output", "-o"), "write the completed model file here"),)),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``COMMANDS``, built once, shared and never changed."""
    parser = argparse.ArgumentParser(
        prog="aspectarg",
        description="Constraint-based fallacy checking on theme aspect argumentation models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="model file (JSON)")
        for opt in options:
            kind = {"action": "store_true"} if opt.flag else {
                "choices": opt.choices, "default": opt.default}
            p.add_argument(*opt.strings, help=opt.help, **kind)
        p.set_defaults(func=func)
    return parser


#: By command, what ``_read`` reads, derived once from ``COMMANDS``: its
#: handler, its options by option string and each option's default.
_TABLES = {
    name: (func, {s: opt for opt in options for s in opt.strings},
           {opt.dest: False if opt.flag else opt.default for opt in options})
    for name, (func, _, options) in COMMANDS.items()
}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` gives, read from ``COMMANDS``
    for a plain line: a command, one file, flags and exact option strings, each
    value after ``--long=`` or in the next token, among its choices; no file or
    value starts with ``-``, and a repeated option keeps its last value.  None
    for any other line, whose help and usage errors argparse gives."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    func, options, given = table
    given = dict(given, command=argv[0], func=func, file=None)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if given["file"] is not None:
                return None
            given["file"] = token
            continue
        name, eq, value = token.partition("=")
        opt = options.get(name)
        if opt is None or eq and (opt.flag or not name.startswith("--")):
            return None
        if not (opt.flag or eq):
            value = next(tokens, "-")
        if not opt.flag and (value.startswith("-") or opt.choices and value not in opt.choices):
            return None
        given[opt.dest] = opt.flag or value
    return argparse.Namespace(**given) if given["file"] is not None else None


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                args = build_parser().parse_args(argv)
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
