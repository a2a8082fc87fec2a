"""Report assembly and rendering (human text and machine JSON).

Reports are deterministic: violations are sorted by constraint id and
witness, theme sets and extensions are sorted lexicographically, and the
machine rendering is plain JSON of the same structure.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .algebra import Element
from .formulas import render_element
from .model import Violation


def violation_to_dict(v: Violation) -> dict[str, Any]:
    out: dict[str, Any] = {"constraint": v.constraint, "detail": v.detail}
    if v.statements:
        out["statements"] = list(v.statements)
    if v.relation is not None:
        out["relation"] = list(v.relation)
    if v.theme_set is not None:
        out["theme_set"] = list(v.theme_set)
    if v.theme_set2 is not None:
        out["theme_set2"] = list(v.theme_set2)
    if v.rel_type is not None:
        out["rel_type"] = v.rel_type
    return out


def render_aspect(element: Element | None, formulas: Mapping[Element, str]) -> str:
    if element is None:
        return "<absent>"
    return render_element(element, preferred=formulas)


def violations_block(groups: Mapping[str, list[Violation]]) -> dict[str, Any]:
    return {
        cid: [violation_to_dict(v) for v in vs]
        for cid, vs in sorted(groups.items())
        if vs
    }


def human_violations(groups: Mapping[str, list[Violation]]) -> list[str]:
    lines = []
    for cid in sorted(groups):
        for v in groups[cid]:
            lines.append(f"  [{cid}] {v.detail}")
    return lines


def to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
