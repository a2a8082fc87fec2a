"""Command line interface.

Commands::

    aspectarg validate FILE
    aspectarg check FILE [--alpha core,das,...] [--max-themes N] [--format ...]
    aspectarg conclude FILE [--themes t1,t2] [--semantics grounded] [--scan-logical]
    aspectarg classify-relations FILE [--themes t1,t2]
    aspectarg synthesize FILE [--output OUT]

Exit codes: 0 = normal / no fallacy found, 1 = fallacy found,
2 = usage, format, well-formedness or cap error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from . import constraints, semantics
from .constraints import ALPHA_GROUPS, CORE
from .errors import AspectArgError, CapExceeded, SynthesisError
from .model import MAX_THEMES, Violation, theme_subsets, validate_wellformed
from .modelfile import Document, dumps, load_path, to_dict
from .report import human_violations, render_aspect, to_json, violations_block
from .synthesis import synthesize_core_witness

OK, FALLACY, ERROR = 0, 1, 2


def _load_validated(path: str) -> tuple[Document, list[Violation]]:
    doc = load_path(path)
    problems = validate_wellformed(doc.model)
    return doc, problems


def _emit(report: dict[str, Any], human_lines: list[str], fmt: str, out) -> None:
    if fmt == "machine":
        out.write(to_json(report))
    else:
        out.write("\n".join(human_lines) + "\n")


def cmd_validate(args, out, err) -> int:
    try:
        doc, problems = _load_validated(args.file)
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    report = {
        "command": "validate",
        "file": args.file,
        "wellformed": not problems,
        "violations": [v.detail for v in problems],
    }
    lines = [f"validate {args.file}"]
    if problems:
        lines.append(f"not well-formed ({len(problems)} problem(s)):")
        lines.extend(f"  {v.detail}" for v in problems)
    else:
        lines.append("well-formed")
    _emit(report, lines, args.format, out)
    return OK if not problems else ERROR


def _parse_alpha(text: str) -> frozenset[str]:
    groups = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = groups - set(ALPHA_GROUPS)
    if unknown:
        raise ValueError(f"unknown constraint groups: {', '.join(sorted(unknown))}")
    if CORE not in groups:
        raise ValueError("--alpha must include 'core'")
    return groups


def cmd_check(args, out, err) -> int:
    try:
        alpha = _parse_alpha(args.alpha)
        doc, problems = _load_validated(args.file)
    except (AspectArgError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    if problems:
        err.write(f"error: {args.file} is not well-formed; run `aspectarg validate` for details\n")
        return ERROR

    try:
        graphic = constraints.check_graphic(doc.model)
        semantic: dict[str, dict[str, list[Violation]]] = {}
        for group in ALPHA_GROUPS:
            if group in alpha:
                semantic[group] = constraints.run_group(
                    doc.model, doc.interpretation, group, args.max_themes, doc.formula_index
                )
    except CapExceeded as exc:
        err.write(f"error: {exc}\n")
        return ERROR

    graphic_count = sum(len(vs) for vs in graphic.values())
    semantic_count = sum(len(vs) for g in semantic.values() for vs in g.values())
    normal = semantic_count == 0
    alpha_label = "{" + ",".join(g for g in ALPHA_GROUPS if g in alpha) + "}"

    report = {
        "command": "check",
        "file": args.file,
        "alpha": sorted(alpha),
        "graphic": violations_block(graphic),
        "semantic": {g: violations_block(groups) for g, groups in sorted(semantic.items())},
        "normal": normal,
        "verdict": f"{alpha_label}-normal" if normal else f"{alpha_label}-fallacy",
        "graphic_violations": graphic_count,
        "semantic_violations": semantic_count,
    }
    lines = [f"check {args.file}", f"alpha: {', '.join(g for g in ALPHA_GROUPS if g in alpha)}"]
    if graphic_count:
        lines.append(f"graphic constraints: {graphic_count} violation(s)")
        lines.extend(human_violations(graphic))
    else:
        lines.append("graphic constraints: ok")
    for group in ALPHA_GROUPS:
        if group not in semantic:
            continue
        count = sum(len(vs) for vs in semantic[group].values())
        if count:
            lines.append(f"{group}: {count} violation(s)")
            lines.extend(human_violations(semantic[group]))
        else:
            lines.append(f"{group}: ok")
    lines.append(f"verdict: {report['verdict']}")
    _emit(report, lines, args.format, out)
    return OK if normal and graphic_count == 0 else FALLACY


def _format_extension(ext: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(ext)) + "}"


def cmd_conclude(args, out, err) -> int:
    try:
        doc, problems = _load_validated(args.file)
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    if problems:
        err.write(f"error: {args.file} is not well-formed\n")
        return ERROR
    if not args.themes and not args.scan_logical:
        err.write("error: give --themes, --scan-logical, or both\n")
        return ERROR

    report: dict[str, Any] = {
        "command": "conclude",
        "file": args.file,
        "semantics": args.semantics,
    }
    lines = [f"conclude {args.file} ({args.semantics} semantics)"]
    exit_code = OK
    try:
        if args.themes:
            themes = [t.strip() for t in args.themes.split(",") if t.strip()]
            sub = semantics.sub_model(doc.model, themes)
            report["themes"] = sorted(themes)
            if sub is None:
                report["defined"] = False
                report["conclusion"] = None
                lines.append(
                    f"themes {{{', '.join(sorted(themes))}}}: no conclusion (sub-model undefined)"
                )
            else:
                exts = sorted(semantics.extensions(sub, args.semantics), key=sorted)
                conclusion = semantics.logico_rhetorical_conclusion(
                    doc.model, doc.interpretation, themes, args.semantics
                )
                rendered = (
                    None if conclusion is None else render_aspect(conclusion, doc.formula_index)
                )
                report["defined"] = True
                report["extensions"] = [sorted(e) for e in exts]
                report["conclusion"] = rendered
                lines.append(f"themes: {{{', '.join(sorted(themes))}}}")
                lines.append(
                    "extensions: " + (", ".join(_format_extension(e) for e in exts) or "(none)")
                )
                if conclusion is None:
                    lines.append("conclusion: none (no non-empty extension)")
                else:
                    lines.append(f"conclusion: {rendered}")
                    if conclusion.is_bottom:
                        lines.append("the conclusion is the inconsistent aspect: logical fallacy")
                        exit_code = FALLACY
        if args.scan_logical:
            verdict = semantics.detect_logical_fallacy(
                doc.model, doc.interpretation, args.semantics, args.max_themes
            )
            report["logical_fallacy"] = verdict.found
            if verdict.found:
                witness = sorted(verdict.witness)
                report["witness_themes"] = witness
                lines.append(
                    f"logical fallacy: conclusion is 0 at themes {{{', '.join(witness)}}}"
                )
                exit_code = FALLACY
            else:
                lines.append("logical fallacy: none found")
    except (AspectArgError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    _emit(report, lines, args.format, out)
    return exit_code


def cmd_classify_relations(args, out, err) -> int:
    try:
        doc, problems = _load_validated(args.file)
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    if problems:
        err.write(f"error: {args.file} is not well-formed\n")
        return ERROR

    only: frozenset[str] | None = None
    if args.themes:
        only = frozenset(t.strip() for t in args.themes.split(",") if t.strip())

    entries = []
    lines = [f"classify-relations {args.file}"]
    try:
        # every relation's cap is checked before any relation is classified
        plans = []
        for r in sorted(doc.model.relations, key=lambda r: r.pair):
            if only is None:
                rel_themes = sorted(r.themes & set(doc.model.themes))
                plans.append((r, theme_subsets(rel_themes, args.max_themes, min_size=1)))
            elif only <= r.themes:
                plans.append((r, [only]))
        for r, cases in plans:
            for t_set in cases:
                labels = constraints.classify_relation(doc.interpretation, doc.model, t_set, r)
                entries.append(
                    {
                        "from": r.source,
                        "to": r.target,
                        "types": sorted(r.rel_types),
                        "theme_set": sorted(t_set),
                        "labels": sorted(labels),
                    }
                )
                lines.append(
                    f"  ({r.source} -> {r.target}) at {{{', '.join(sorted(t_set))}}}: "
                    + ", ".join(sorted(labels))
                )
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    report = {"command": "classify-relations", "file": args.file, "relations": entries}
    _emit(report, lines, args.format, out)
    return OK


def cmd_synthesize(args, out, err) -> int:
    try:
        doc, problems = _load_validated(args.file)
    except AspectArgError as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    if problems:
        err.write(f"error: {args.file} is not well-formed\n")
        return ERROR
    try:
        witness = synthesize_core_witness(doc.model, max_props=args.max_props)
    except (SynthesisError, CapExceeded) as exc:
        err.write(f"error: {exc}\n")
        return ERROR
    data = to_dict(
        doc.model,
        witness.algebra,
        theme_rows_all=list(witness.interpretation.theme_aspects),
        statement_formulas=witness.statement_formulas,
    )
    text = dumps(data)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"witness written to {args.output}\n")
    else:
        out.write(text)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspectarg",
        description="Constraint-based fallacy checking on theme aspect argumentation models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="model file (JSON)")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument(
            "--max-themes",
            type=int,
            default=MAX_THEMES,
            help="cap on themes for subset enumeration",
        )

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
    add_common(p)
    p.add_argument("--output", "-o", help="write the completed model file here")
    p.add_argument("--max-props", type=int, default=20, help="cap on synthesized propositions")
    p.set_defaults(func=cmd_synthesize)
    return parser


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our error code
        return int(exc.code or 0)
    try:
        return args.func(args, out, err)
    except AspectArgError as exc:
        # exit-code contract: anything the library refuses to do is a 2
        err.write(f"error: {exc}\n")
        return ERROR


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
