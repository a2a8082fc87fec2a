"""Constraint checkers: graphic, core, exact-region, das/nwci, fresh-aspect.

Every checker is a pure function from a model (and, for the semantic
constraints, an interpretation) to violation witnesses.  Universal
quantifications over theme sets are exhaustive subset enumerations, guarded
by a configurable cap.  ``recheck`` re-verifies a single violation from its
witness record alone, which keeps every reported fallacy independently
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .algebra import Element, closed_under_boolean_ops
from .formulas import render_element
from .model import (
    ATTACK,
    EMPTY_ROW,
    MAX_THEMES,
    OMEGA,
    SUPPORT,
    AspectTable,
    Interpretation,
    Model,
    Relation,
    Row,
    Statement,
    Violation,
    row_subset,
    theme_subsets,
)
from .statements_sets import MINREP_CAP, _redundancy, contains_redundancy, statements_sets

GRAPHIC_IDS = ("tr", "nnp", "nsa", "kos", "nss")
CORE_IDS = ("aass", "i", "vi", "bat", "pr", "mat", "manss", "ss")
EXACT_REGION_IDS = ("esr", "ensr", "eos")
FRESH_ASPECT_IDS = ("faD", "faW")

CORE = "core"
E = "E"
DAS = "das"
NWCI = "nwci"
F = "F"
ALPHA_GROUPS = (CORE, E, DAS, NWCI, F)


def _tkey(themes: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(themes))


def _subset_masks(
    table: AspectTable, themes: Iterable[str], max_themes: int, min_size: int = 0
) -> list[int]:
    return [table.mask(c) for c in theme_subsets(themes, max_themes, min_size)]


def _relation_cases(
    table: AspectTable, model: Model, max_themes: int, types: Iterable[str] = (ATTACK, SUPPORT)
) -> list[tuple[Relation, list[int]]]:
    """The non-empty theme sets of each relation of the given types.

    Every relation's cap is checked before any case is evaluated.
    """
    declared, wanted = set(model.themes), set(types)
    return [
        (r, _subset_masks(table, sorted(r.themes & declared), max_themes, min_size=1))
        for r in model.relations
        if r.rel_types & wanted
    ]


def _render(table: AspectTable, mask: int | None, index=None) -> str:
    if mask is None:
        return "<absent>"
    return render_element(Element(table.algebra, mask), preferred=index, max_atoms=8)


# Predicates on effective-aspect masks, shared by the checkers and recheck.


def _comparable(u: int, v: int) -> bool:
    w = u | v
    return w == u or w == v


def _aass_fails(rel_type: str, u: int | None, v: int | None) -> bool:
    if u is None or v is None:
        return True
    return u == v if rel_type == ATTACK else not _comparable(u, v)


def _das_fails(rel_type: str, u: int, v: int) -> bool:
    return _comparable(u, v) if rel_type == ATTACK else u != v


def _weakened_contradiction(u: int, v: int, full: int) -> bool:
    nv = v ^ full  # ~v < u
    return nv | u == u and nv != u


def _incomparable_alternative(u: int, v: int, full: int) -> bool:
    return not _comparable(u, v) and not _comparable(u, v ^ full)


def _meet(a: Row, b: Row) -> Row:
    if a[0]:
        return b
    if b[0]:
        return a
    return (False, a[1] & b[1])


def _pr_bound(table: AspectTable, model: Model, tmask: int, s: Statement) -> Row:
    """The proper-range bound of ``s`` at a theme mask."""
    own = table.mask(t for t in model.themes_of(s.id) if t in table.bits)
    if not s.is_pointer:
        return table.row(tmask & own, s.id)
    widened = tmask & (own | table.bits.get(s.ref_theme, 0))
    if s.is_summary_pointer:
        return table.row(widened, s.id)
    if not model.has_statement(s.ref_target):
        return EMPTY_ROW  # a dangling target carries no aspects
    return table.row(widened, s.ref_target)


def _exact_region_id(s: Statement) -> str:
    if s.is_summary_pointer:
        return "esr"
    if s.is_statement_pointer:
        return "ensr"
    return "eos"


# ---------------------------------------------------------------------------
# Graphic constraints: conditions on the typed graph alone.
# ---------------------------------------------------------------------------


def check_graphic(model: Model) -> dict[str, list[Violation]]:
    """Check tr, nnp, nsa, kos and nss; keys are present even when clean."""
    out: dict[str, list[Violation]] = {cid: [] for cid in GRAPHIC_IDS}

    for r in model.relations:
        shared = r.themes & model.themes_of(r.source) & model.themes_of(r.target)
        if not shared:
            out["tr"].append(
                Violation(
                    "tr",
                    relation=r.pair,
                    detail=f"relation {r.pair} shares no theme with both endpoints",
                )
            )
        if r.source == r.target and ATTACK in r.rel_types and r.themes:
            out["nsa"].append(
                Violation("nsa", relation=r.pair, detail=f"attack-typed self-loop on {r.source}")
            )

    for s in model.statements:
        if not s.is_pointer:
            continue
        t = s.ref_theme
        if s.is_summary_pointer:
            inhabited = any(t in model.themes_of(other.id) for other in model.statements)
            if not inhabited:
                out["nnp"].append(
                    Violation(
                        "nnp",
                        (s.id,),
                        detail=f"summary pointer {s.id} references theme {t!r} "
                        "which no statement inhabits",
                    )
                )
        else:
            target_in_graph = model.has_statement(s.ref_target) and not model.statement(
                s.ref_target
            ).is_pointer
            if not (target_in_graph and t in model.themes_of(s.ref_target)):
                out["nnp"].append(
                    Violation(
                        "nnp",
                        (s.id,),
                        detail=f"pointer {s.id} references {s.ref_target!r} in theme {t!r}, "
                        "but no such ordinary statement exists there",
                    )
                )
            # kos ranges over targets present in the graph, whether or not
            # the pointer's reference theme reaches them
            if target_in_graph and not model.themes_of(s.id) <= model.themes_of(s.ref_target):
                extra = sorted(model.themes_of(s.id) - model.themes_of(s.ref_target))
                out["kos"].append(
                    Violation(
                        "kos",
                        (s.id,),
                        detail=f"pointer {s.id} typed with {extra} "
                        f"beyond the themes of its target {s.ref_target}",
                    )
                )

    attack_rels = [r for r in model.relations if ATTACK in r.rel_types]
    support_pairs = {
        (r.source, r.target): r.themes for r in model.relations if SUPPORT in r.rel_types
    }
    for r in attack_rels:
        if SUPPORT in r.rel_types:
            out["nss"].append(
                Violation(
                    "nss",
                    relation=r.pair,
                    detail=f"relation {r.pair} typed both attack and support",
                )
            )
        s1, s2 = r.pair
        for s in model.statements:
            up1, up2 = support_pairs.get((s.id, s1)), support_pairs.get((s.id, s2))
            if up1 is not None and up2 is not None and up1 & up2:
                out["nss"].append(
                    Violation(
                        "nss",
                        (s.id,),
                        relation=r.pair,
                        theme_set=_tkey(up1 & up2),
                        detail=f"{s.id} supports both ends of attack {r.pair} "
                        f"for shared themes {sorted(up1 & up2)}",
                    )
                )
            dn1, dn2 = support_pairs.get((s1, s.id)), support_pairs.get((s2, s.id))
            if dn1 is not None and dn2 is not None and dn1 & dn2:
                out["nss"].append(
                    Violation(
                        "nss",
                        (s.id,),
                        relation=r.pair,
                        theme_set=_tkey(dn1 & dn2),
                        detail=f"{s.id} is supported by both ends of attack {r.pair} "
                        f"for shared themes {sorted(dn1 & dn2)}",
                    )
                )
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Core constraints on the interpretation.
# ---------------------------------------------------------------------------


def check_core(
    model: Model,
    interp: Interpretation,
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> dict[str, list[Violation]]:
    """Check aass, i, vi, bat, pr, mat, manss and ss."""
    out: dict[str, list[Violation]] = {cid: [] for cid in CORE_IDS}
    table = AspectTable(interp, model)
    subsets = _subset_masks(table, table.names, max_themes)
    cases = _relation_cases(table, model, max_themes)
    key, row = table.key, table.row

    for r, masks in cases:
        for tmask in masks:
            u, v = table.inf(tmask, r.source), table.inf(tmask, r.target)
            for rel_type in (ATTACK, SUPPORT):
                if rel_type in r.rel_types and _aass_fails(rel_type, u, v):
                    need = "differ" if rel_type == ATTACK else "be comparable"
                    out["aass"].append(
                        Violation(
                            "aass",
                            relation=r.pair,
                            theme_set=key(tmask),
                            rel_type=rel_type,
                            detail=f"{rel_type} {r.pair} at {key(tmask)}: effective aspects "
                            f"{_render(table, u, formula_index)} vs "
                            f"{_render(table, v, formula_index)} must both exist and {need}",
                        )
                    )

    for tmask in subsets:
        omega = row(tmask, OMEGA)
        for s in model.statements:
            if not row_subset(row(tmask, s.id), omega):
                out["i"].append(
                    Violation(
                        "i",
                        (s.id,),
                        theme_set=key(tmask),
                        detail=f"aspects of {s.id} at {key(tmask)} are not all aspects "
                        "of the theme set",
                    )
                )
        if omega[1] and not closed_under_boolean_ops(omega[1], table.algebra.full_mask):
            out["bat"].append(
                Violation(
                    "bat",
                    theme_set=key(tmask),
                    detail=f"theme aspects at {key(tmask)} are not a subalgebra "
                    "(missing 0/1 or not closed under not/and/or)",
                )
            )

    for s in model.statements:
        if row(0, s.id) != EMPTY_ROW:
            out["vi"].append(
                Violation(
                    "vi",
                    (s.id,),
                    theme_set=(),
                    detail=f"{s.id} has aspects for the empty theme set",
                )
            )

    for s in model.statements:
        target = f" and target {s.ref_target}" if s.is_statement_pointer else ""
        for tmask in subsets:
            aspects = row(tmask, s.id)
            if aspects == EMPTY_ROW or row_subset(aspects, _pr_bound(table, model, tmask, s)):
                continue
            out["pr"].append(
                Violation(
                    "pr",
                    (s.id,),
                    theme_set=key(tmask),
                    detail=f"aspects of {s.id} at {key(tmask)} exceed the proper-range "
                    f"bound from its own themes{target}",
                )
            )

    monotone = [s.id for s in model.statements if not s.is_summary_pointer]
    for t2 in subsets:
        rest = t2
        while rest:
            bit = rest & -rest
            rest ^= bit
            t1 = t2 ^ bit
            if not row_subset(row(t1, OMEGA), row(t2, OMEGA)):
                out["mat"].append(
                    Violation(
                        "mat",
                        theme_set=key(t1),
                        theme_set2=key(t2),
                        detail=f"theme aspects shrink from {key(t1)} to {key(t2)}",
                    )
                )
            for sid in monotone:
                if not row_subset(row(t1, sid), row(t2, sid)):
                    out["manss"].append(
                        Violation(
                            "manss",
                            (sid,),
                            theme_set=key(t1),
                            theme_set2=key(t2),
                            detail=f"aspects of {sid} shrink from {key(t1)} to {key(t2)}",
                        )
                    )

    full = table.algebra.full_mask
    for s in model.statements:
        own = sorted(t for t in model.themes_of(s.id) if t in table.bits)
        for tmask in _subset_masks(table, own, max_themes):
            eff = table.inf(tmask, s.id)
            if eff == 0 or eff == full:
                which = "inconsistent (0)" if eff == 0 else "trivial (1)"
                out["ss"].append(
                    Violation(
                        "ss",
                        (s.id,),
                        theme_set=key(tmask),
                        detail=f"{s.id} effectively touches upon the {which} aspect "
                        f"at {key(tmask)}",
                    )
                )
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Exact common region constraints (context immunity).
# ---------------------------------------------------------------------------


def check_exact_region(
    model: Model, interp: Interpretation, max_themes: int = MAX_THEMES
) -> dict[str, list[Violation]]:
    """Check esr, ensr and eos over every pair of theme sets."""
    out: dict[str, list[Violation]] = {cid: [] for cid in EXACT_REGION_IDS}
    table = AspectTable(interp, model)
    subsets = _subset_masks(table, table.names, max_themes)
    stmts = [(s.id, _exact_region_id(s)) for s in model.statements]
    omegas = [table.row(tmask, OMEGA) for tmask in subsets]
    rows: list[list[Row] | None] = [None] * len(subsets)

    def rows_at(i: int) -> list[Row]:
        got = rows[i]
        if got is None:
            got = rows[i] = [table.row(subsets[i], sid) for sid, _ in stmts]
        return got

    for i1, omega1 in enumerate(omegas):
        if omega1 == EMPTY_ROW:
            continue
        for i2 in range(i1 + 1, len(subsets)):
            common = _meet(omega1, omegas[i2])
            if common == EMPTY_ROW:
                continue
            for (sid, cid), a, b in zip(stmts, rows_at(i1), rows_at(i2)):
                if a is not b and _meet(a, common) != _meet(b, common):
                    t1, t2 = table.key(subsets[i1]), table.key(subsets[i2])
                    out[cid].append(
                        Violation(
                            cid,
                            (sid,),
                            theme_set=t1,
                            theme_set2=t2,
                            detail=f"aspects of {sid} differ between {t1} and "
                            f"{t2} inside their common theme region",
                        )
                    )
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# das and nwci: sharpened attack/support semantics.
# ---------------------------------------------------------------------------


def check_das(
    model: Model,
    interp: Interpretation,
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> list[Violation]:
    """Attacks must be incomparable, supports equal, per relation and theme set.

    Pairs with an absent effective aspect are skipped here; aass already
    reports those.
    """
    out: list[Violation] = []
    table = AspectTable(interp, model)
    for r, masks in _relation_cases(table, model, max_themes):
        for tmask in masks:
            u, v = table.inf(tmask, r.source), table.inf(tmask, r.target)
            if u is None or v is None:
                continue
            attack = ATTACK in r.rel_types and _das_fails(ATTACK, u, v)
            support = SUPPORT in r.rel_types and _das_fails(SUPPORT, u, v)
            if not attack and not support:
                continue
            ru, rv = _render(table, u, formula_index), _render(table, v, formula_index)
            t_key = table.key(tmask)
            if attack:
                out.append(
                    Violation(
                        "das",
                        relation=r.pair,
                        theme_set=t_key,
                        rel_type=ATTACK,
                        detail=f"attack {r.pair} at {t_key}: {ru} is comparable with "
                        f"{rv}, so this is weakening/strengthening, not a distinct attack",
                    )
                )
            if support:
                out.append(
                    Violation(
                        "das",
                        relation=r.pair,
                        theme_set=t_key,
                        rel_type=SUPPORT,
                        detail=f"support {r.pair} at {t_key}: {ru} differs from {rv}, "
                        "so the claimed support is not an affirmation",
                    )
                )
    out.sort(key=Violation.sort_key)
    return out


def check_nwci(
    model: Model,
    interp: Interpretation,
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> list[Violation]:
    """No weakened contradictions and no incomparable alternatives on attacks."""
    out: list[Violation] = []
    table = AspectTable(interp, model)
    full = table.algebra.full_mask
    for r, masks in _relation_cases(table, model, max_themes, (ATTACK,)):
        for tmask in masks:
            u, v = table.inf(tmask, r.source), table.inf(tmask, r.target)
            if u is None or v is None:
                continue
            weakened = _weakened_contradiction(u, v, full)
            incomparable = _incomparable_alternative(u, v, full)
            if not weakened and not incomparable:
                continue
            ru, rv = _render(table, u, formula_index), _render(table, v, formula_index)
            t_key = table.key(tmask)
            if weakened:
                out.append(
                    Violation(
                        "nwci",
                        relation=r.pair,
                        theme_set=t_key,
                        rel_type=ATTACK,
                        detail=f"attack {r.pair} at {t_key}: {ru} strictly above the "
                        f"complement of {rv} is a weakened contradiction",
                    )
                )
            if incomparable:
                out.append(
                    Violation(
                        "nwci",
                        relation=r.pair,
                        theme_set=t_key,
                        rel_type=ATTACK,
                        detail=f"attack {r.pair} at {t_key}: {ru} is incomparable with "
                        f"both {rv} and its complement",
                    )
                )
    out.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Fresh aspect constraints (no redundancy in statements-sets).
# ---------------------------------------------------------------------------


def check_fresh_aspects(
    model: Model,
    interp: Interpretation,
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> dict[str, list[Violation]]:
    """Check faD and faW: no statements-set may contain redundancy."""
    del max_themes  # quantification here is over statements and their themes
    out: dict[str, list[Violation]] = {cid: [] for cid in FRESH_ASPECT_IDS}
    table, memo = AspectTable(interp, model), {}
    for s in model.statements:
        for t in sorted(model.themes_of(s.id) & set(model.themes)):
            for rel in (ATTACK, SUPPORT):
                widths, depths = statements_sets(model, s.id, t, rel)
                for cid, sets in (("faW", widths), ("faD", depths)):
                    for sset in sets:
                        witness = _redundancy(table, t, sset.members, MINREP_CAP, memo)
                        if witness is None:
                            continue
                        shared = "{" + ", ".join(
                            sorted(
                                render_element(e, preferred=formula_index, max_atoms=8)
                                for e in witness.shared
                            )
                        ) + "}"
                        out[cid].append(
                            Violation(
                                cid,
                                (s.id, witness.first, witness.second),
                                theme_set=(t,),
                                rel_type=rel,
                                detail=f"{witness.first} and {witness.second} share the minimal "
                                f"representation {shared} in the {sset.kind}-statements-set "
                                f"of {s.id} for theme {t}",
                            )
                        )
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Relation-kind taxonomy.
# ---------------------------------------------------------------------------

AFFIRMATION = "affirmation"
WEAKENING = "weakening"
STRENGTHENING = "strengthening"
CONTRARY = "contrary"
WEAKENED_CONTRADICTION = "weakened_contradiction"
INCOMPARABLE_ALTERNATIVE = "incomparable_alternative"
UNDEFINED = "undefined"


def classify_relation(
    interp: Interpretation, model: Model, themes: Iterable[str], relation
) -> frozenset[str]:
    """Semantic labels for a relation, given the theme set to evaluate under.

    ``u`` is the effective aspect of the source (the attacker/supporter),
    ``v`` of the target.  Labels overlap by design; the set is never empty,
    and is exactly ``{"undefined"}`` when either effective aspect is absent.
    """
    table = AspectTable(interp, model)
    tmask = table.mask(themes)
    u, v = table.inf(tmask, relation.source), table.inf(tmask, relation.target)
    if u is None or v is None:
        return frozenset([UNDEFINED])
    full = table.algebra.full_mask
    nv = v ^ full
    labels = set()
    if u == v:
        labels.add(AFFIRMATION)
    if u | v == v and u != v:
        labels.add(STRENGTHENING)
    if u | v == u and u != v:
        labels.add(WEAKENING)
    if u | nv == nv:
        labels.add(CONTRARY)
    if _weakened_contradiction(u, v, full):
        labels.add(WEAKENED_CONTRADICTION)
    if _incomparable_alternative(u, v, full):
        labels.add(INCOMPARABLE_ALTERNATIVE)
    return frozenset(labels)


# ---------------------------------------------------------------------------
# Normal forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormVerdict:
    alpha: frozenset[str]
    normal: bool
    violations: tuple[Violation, ...]


def run_group(
    model: Model,
    interp: Interpretation,
    group: str,
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> dict[str, list[Violation]]:
    """Violations of one constraint group, keyed by constraint id."""
    if group == CORE:
        return check_core(model, interp, max_themes, formula_index)
    if group == E:
        return check_exact_region(model, interp, max_themes)
    if group == DAS:
        return {"das": check_das(model, interp, max_themes, formula_index)}
    if group == NWCI:
        return {"nwci": check_nwci(model, interp, max_themes, formula_index)}
    if group == F:
        return check_fresh_aspects(model, interp, max_themes, formula_index)
    raise ValueError(f"unknown constraint group {group!r}")


def classify_normal_form(
    model: Model,
    interp: Interpretation,
    alpha: Iterable[str],
    max_themes: int = MAX_THEMES,
    formula_index=None,
) -> NormalFormVerdict:
    """Whether the model is alpha-normal with respect to the interpretation."""
    chosen = frozenset(alpha)
    unknown = chosen - set(ALPHA_GROUPS)
    if unknown:
        raise ValueError(f"unknown constraint groups: {sorted(unknown)}")
    if CORE not in chosen:
        raise ValueError("alpha must contain the core constraint group")
    violations: list[Violation] = []
    for group in ALPHA_GROUPS:  # fixed order keeps reports deterministic
        if group in chosen:
            for vs in run_group(model, interp, group, max_themes, formula_index).values():
                violations.extend(vs)
    violations.sort(key=Violation.sort_key)
    return NormalFormVerdict(chosen, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Witness re-verification.
# ---------------------------------------------------------------------------


def recheck(model: Model, interp: Interpretation | None, violation: Violation) -> bool:
    """Re-establish a violation from its witness record alone."""
    cid = violation.constraint

    if cid in GRAPHIC_IDS:
        fresh = check_graphic(model)[cid]
        return any(_same_witness(v, violation) for v in fresh)

    if interp is None:
        return False
    table = AspectTable(interp, model)
    row = table.row
    t1 = table.mask(violation.theme_set or ())
    t2 = table.mask(violation.theme_set2 or ())
    if cid in ("aass", "das", "nwci"):
        rel = next((r for r in model.relations if r.pair == violation.relation), None)
        if rel is None:
            return False
        u, v = table.inf(t1, rel.source), table.inf(t1, rel.target)
        if cid == "aass":
            return _aass_fails(violation.rel_type, u, v)
        if u is None or v is None:
            return False
        if cid == "das":
            return _das_fails(violation.rel_type, u, v)
        full = table.algebra.full_mask
        return _weakened_contradiction(u, v, full) or _incomparable_alternative(u, v, full)
    if cid == "i":
        return not row_subset(row(t1, violation.statements[0]), row(t1, OMEGA))
    if cid == "vi":
        return row(0, violation.statements[0]) != EMPTY_ROW
    if cid == "bat":
        omega = row(t1, OMEGA)
        return bool(omega[1]) and not closed_under_boolean_ops(
            omega[1], table.algebra.full_mask
        )
    if cid == "pr":
        if not model.has_statement(violation.statements[0]):
            return False
        s = model.statement(violation.statements[0])
        aspects = row(t1, s.id)
        return aspects != EMPTY_ROW and not row_subset(aspects, _pr_bound(table, model, t1, s))
    if cid == "mat":
        return not row_subset(row(t1, OMEGA), row(t2, OMEGA))
    if cid == "manss":
        sid = violation.statements[0]
        return not row_subset(row(t1, sid), row(t2, sid))
    if cid == "ss":
        eff = table.inf(t1, violation.statements[0])
        return eff == 0 or eff == table.algebra.full_mask
    if cid in EXACT_REGION_IDS:
        common = _meet(row(t1, OMEGA), row(t2, OMEGA))
        sid = violation.statements[0]
        return _meet(row(t1, sid), common) != _meet(row(t2, sid), common)
    if cid in FRESH_ASPECT_IDS:
        anchor, s1, s2 = violation.statements
        (t,) = violation.theme_set
        widths, depths = statements_sets(model, anchor, t, violation.rel_type)
        candidates = widths if cid == "faW" else depths
        for sset in candidates:
            if {s1, s2} <= sset.members:
                witness = contains_redundancy(interp, model, t, [s1, s2])
                if witness is not None:
                    return True
        return False
    raise ValueError(f"cannot recheck constraint {cid!r}")


def _same_witness(a: Violation, b: Violation) -> bool:
    return (
        a.constraint == b.constraint
        and a.statements == b.statements
        and a.relation == b.relation
        and a.theme_set == b.theme_set
        and a.theme_set2 == b.theme_set2
    )


def all_violations(groups: Mapping[str, list[Violation]]) -> list[Violation]:
    out: list[Violation] = []
    for vs in groups.values():
        out.extend(vs)
    out.sort(key=Violation.sort_key)
    return out
