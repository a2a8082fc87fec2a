"""Constraint checkers: graphic, core, exact-region, das/nwci, fresh-aspect.

Every checker is a pure function from a model (and, for the semantic
constraints, an interpretation) to violation witnesses.  Universal
quantifications over theme sets are exhaustive subset enumerations, guarded
by the one theme cap.  Each semantic group is one routine over a compiled
table and a domain of instances: the checker runs it on the whole domain,
and ``recheck`` re-verifies a single violation by running it on the one
instance the witness record names, which keeps every reported fallacy
independently auditable.  The semantic checkers accept a compiled
:class:`AspectTable`, so one check of several groups compiles one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import Element, closed_under_boolean_ops
from .errors import ConstraintGroupError, UnknownIdError
from .formulas import render_element
from .model import (
    ATTACK,
    EMPTY_ROW,
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
from .statements_sets import PairTable, statements_sets_from, typed_predecessors

#: How a check reads a statement's rows and infima by theme mask:
#: :meth:`AspectTable.columns` or :meth:`AspectTable.reads`.
_Columns = Callable[[str], tuple[Sequence[Row], Sequence[int | None]]]

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
#: Every semantic constraint id, in the order of ``Violation.sort_key``.
SEMANTIC_IDS = tuple(sorted(CORE_IDS + EXACT_REGION_IDS + (DAS, NWCI) + FRESH_ASPECT_IDS))


def _tkey(themes: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(themes))


def _subset_masks(table: AspectTable) -> list[int]:
    return [table.mask(c) for c in theme_subsets(table.names)]


def _compiled_table(
    model: Model, interp: Interpretation, table: AspectTable | None
) -> AspectTable:
    """``table``, which must be compiled from ``interp`` and ``model``, or a new one."""
    if table is None:
        return AspectTable(interp, model)
    if table.model is not model or table.interp is not interp:
        raise ValueError("the aspect table was compiled for another model or interpretation")
    return table


def _render(table: AspectTable, mask: int | None) -> str:
    if mask is None:
        return "<absent>"
    element = Element(table.algebra, mask)
    return render_element(element, preferred=table.interp.formulas, max_atoms=8)


#: The paper's relation kinds, as bit flags, of the effective aspect ``u`` of
#: a relation's source against ``v`` of its target.
AFFIRMATION = 1  # u = v
STRENGTHENING = 2  # u < v
WEAKENING = 4  # v < u
CONTRARY = 8  # u <= ~v
WEAKENED_CONTRADICTION = 16  # ~v < u
INCOMPARABLE_ALTERNATIVE = 32  # u comparable with neither v nor ~v
COMPARABLE = AFFIRMATION | STRENGTHENING | WEAKENING
#: The label of each kind; a relation with an absent aspect has none and is "undefined".
KIND_LABELS = {
    AFFIRMATION: "affirmation",
    STRENGTHENING: "strengthening",
    WEAKENING: "weakening",
    CONTRARY: "contrary",
    WEAKENED_CONTRADICTION: "weakened_contradiction",
    INCOMPARABLE_ALTERNATIVE: "incomparable_alternative",
}
ANY_KIND = sum(KIND_LABELS)


def _kinds(u: int | None, v: int | None, full: int) -> int:
    """The relation kinds of effective aspects ``u`` and ``v``; none when one is absent.

    Kinds overlap (bottom below ``v`` strengthens and is contrary at once),
    and aspects that both exist have at least one.
    """
    if u is None or v is None:
        return 0
    w = u | v
    if u == v:
        out = AFFIRMATION
    elif w == v:
        out = STRENGTHENING
    elif w == u:
        out = WEAKENING
    else:
        out = 0
    nv = v ^ full
    w = u | nv
    if w == nv:
        out |= CONTRARY
    elif w == u:
        out |= WEAKENED_CONTRADICTION
    elif not out:
        out = INCOMPARABLE_ALTERNATIVE
    return out


#: The relation constraints as rules on relation kinds: per relation type,
#: the kinds it must avoid, the kinds of which it must show one, and the
#: detail text of a failure.  An absent effective aspect fails aass only;
#: das and nwci leave those to aass.
_RELATION_TESTS = {
    "aass": (
        (
            ATTACK,
            AFFIRMATION,
            ANY_KIND,
            "attack {pair} at {themes}: effective aspects {u} vs {v} must both exist and differ",
        ),
        (
            SUPPORT,
            0,
            COMPARABLE,
            "support {pair} at {themes}: effective aspects {u} vs {v} must both exist "
            "and be comparable",
        ),
    ),
    DAS: (
        (
            ATTACK,
            COMPARABLE,
            ANY_KIND,
            "attack {pair} at {themes}: {u} is comparable with {v}, so this is "
            "weakening/strengthening, not a distinct attack",
        ),
        (
            SUPPORT,
            0,
            AFFIRMATION,
            "support {pair} at {themes}: {u} differs from {v}, so the claimed support "
            "is not an affirmation",
        ),
    ),
    NWCI: (
        (
            ATTACK,
            WEAKENED_CONTRADICTION,
            ANY_KIND,
            "attack {pair} at {themes}: {u} strictly above the complement of {v} "
            "is a weakened contradiction",
        ),
        (
            ATTACK,
            INCOMPARABLE_ALTERNATIVE,
            ANY_KIND,
            "attack {pair} at {themes}: {u} is incomparable with both {v} and its complement",
        ),
    ),
}


def _relation_cases(
    table: AspectTable, relations: Iterable[Relation], tmask: int | None = None
) -> list[tuple[Relation, list[int]]]:
    """The (relation, theme masks) cases of ``relations``, in their order.

    With no ``tmask``, each relation's non-empty theme subsets, with every
    relation's cap checked before any case is evaluated; with one, that mask
    for each relation whose themes include it.
    """
    declared = set(table.names)
    if tmask is None:
        return [
            (r, [table.mask(c) for c in theme_subsets(sorted(r.themes & declared), min_size=1)])
            for r in relations
        ]
    return [(r, [tmask]) for r in relations if not tmask & ~table.mask(r.themes & declared)]


def _tested_relations(model: Model, cid: str) -> list[Relation]:
    """The relations of ``model`` of a type that relation constraint ``cid`` tests."""
    wanted = {rel_type for rel_type, *_ in _RELATION_TESTS[cid]}
    return [r for r in model.relations if r.rel_types & wanted]


def _relation_violations(
    table: AspectTable, cases: list[tuple[Relation, list[int]]], cid: str
) -> list[Violation]:
    """Violations of relation constraint ``cid`` on (relation, theme masks) cases."""
    out: list[Violation] = []
    tests, full = _RELATION_TESTS[cid], table.full_mask
    for r, masks in cases:
        for tmask in masks:
            u, v = table.inf(tmask, r.source), table.inf(tmask, r.target)
            kinds = _kinds(u, v, full)
            for rel_type, avoid, show, text in tests:
                # an absent aspect has no kind: it fails aass only
                failed = (kinds & avoid or not kinds & show) if kinds else cid == "aass"
                if rel_type in r.rel_types and failed:
                    t_key = table.keys[tmask]
                    detail = text.format(
                        pair=r.pair,
                        themes=table.key_texts[tmask],
                        u=_render(table, u),
                        v=_render(table, v),
                    )
                    out.append(
                        Violation(
                            cid, relation=r.pair, theme_set=t_key, rel_type=rel_type, detail=detail
                        )
                    )
    return out


def _meet(a: Row, b: Row) -> Row:
    if a[0]:
        return b
    if b[0]:
        return a
    return (False, a[1] & b[1])


def _pr_bound(
    table: AspectTable, columns: _Columns, s: Statement, own: int
) -> tuple[Sequence[Row], int]:
    """The proper-range bound of ``s``, whose own themes are ``own``: the
    rows, from ``columns``, that hold it, and the mask that, ANDed with a
    theme mask, indexes the bound there."""
    if not s.is_pointer:
        return columns(s.id)[0], own
    widened = own | table.bits.get(s.ref_theme, 0)
    if s.is_summary_pointer:
        return columns(s.id)[0], widened
    if not table.model.has_statement(s.ref_target):
        return (EMPTY_ROW,), 0  # a dangling target carries no aspects
    return columns(s.ref_target)[0], widened


def _exact_region_id(s: Statement) -> str:
    if s.is_summary_pointer:
        return "esr"
    if s.is_statement_pointer:
        return "ensr"
    return "eos"


def _statement_id(s: Statement) -> str:
    return s.id


def _sorted(out: dict[str, list[Violation]]) -> dict[str, list[Violation]]:
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


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
    return _sorted(out)


# ---------------------------------------------------------------------------
# Core constraints on the interpretation.
# ---------------------------------------------------------------------------


def check_core(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, list[Violation]]:
    """Check aass, i, vi, bat, pr, mat, manss and ss."""
    table = _compiled_table(model, interp, table)
    subsets = _subset_masks(table)
    cases = _relation_cases(table, _tested_relations(model, "aass"))
    return _sorted(_core(table, subsets, cases, model.statements, table.columns))


def _core(
    table: AspectTable,
    subsets: list[int],
    cases: list[tuple[Relation, list[int]]],
    statements: Iterable[Statement],
    columns: _Columns,
) -> dict[str, list[Violation]]:
    """Core at the theme masks ``subsets``, for the statement constraints on
    ``statements``, and, for aass, on relation ``cases``.

    Rows are read from ``columns``: :meth:`AspectTable.columns` for a sweep
    over every mask, :meth:`AspectTable.reads` for a few.  mat and manss
    compare each mask with every mask one theme smaller.  Each list is in no
    particular order.
    """
    model, keys, texts = table.model, table.keys, table.key_texts
    out: dict[str, list[Violation]] = {cid: [] for cid in CORE_IDS}
    omega = columns(OMEGA)[0]
    # each mask with every mask one theme smaller, as (smaller, larger)
    steps = []
    for t2 in subsets:
        rest = t2
        while rest:
            bit = rest & -rest
            rest ^= bit
            steps.append((t2 ^ bit, t2))

    for tmask in subsets:
        masks = omega[tmask][1]
        if masks and not closed_under_boolean_ops(masks, table.full_mask):
            out["bat"].append(
                Violation(
                    "bat",
                    theme_set=keys[tmask],
                    detail=f"theme aspects at {texts[tmask]} are not a subalgebra "
                    "(missing 0/1 or not closed under not/and/or)",
                )
            )
    for t1, t2 in steps:
        if not row_subset(omega[t1], omega[t2]):
            out["mat"].append(
                Violation(
                    "mat",
                    theme_set=keys[t1],
                    theme_set2=keys[t2],
                    detail=f"theme aspects shrink from {texts[t1]} to {texts[t2]}",
                )
            )

    full, vacuous = table.full_mask, 0 in subsets
    for s in statements:
        sid = s.id
        rows, infs = columns(sid)
        own = table.mask(t for t in model.themes_of(sid) if t in table.bits)
        bounds, widened = _pr_bound(table, columns, s, own)
        target = f" and target {s.ref_target}" if s.is_statement_pointer else ""
        if vacuous and rows[0] != EMPTY_ROW:
            out["vi"].append(
                Violation(
                    "vi", (sid,), theme_set=(), detail=f"{sid} has aspects for the empty theme set"
                )
            )
        for tmask in subsets:
            aspects = rows[tmask]
            if not row_subset(aspects, omega[tmask]):
                out["i"].append(
                    Violation(
                        "i",
                        (sid,),
                        theme_set=keys[tmask],
                        detail=f"aspects of {sid} at {texts[tmask]} are not all aspects "
                        "of the theme set",
                    )
                )
            if aspects != EMPTY_ROW and not row_subset(aspects, bounds[tmask & widened]):
                out["pr"].append(
                    Violation(
                        "pr",
                        (sid,),
                        theme_set=keys[tmask],
                        detail=f"aspects of {sid} at {texts[tmask]} exceed the proper-range "
                        f"bound from its own themes{target}",
                    )
                )
            if tmask & ~own:
                continue  # ss ranges over the statement's own themes
            eff = infs[tmask]
            if eff == 0 or eff == full:
                which = "inconsistent (0)" if eff == 0 else "trivial (1)"
                out["ss"].append(
                    Violation(
                        "ss",
                        (sid,),
                        theme_set=keys[tmask],
                        detail=f"{sid} effectively touches upon the {which} aspect "
                        f"at {texts[tmask]}",
                    )
                )
        if s.is_summary_pointer:
            continue  # summary pointers are not monotone
        for t1, t2 in steps:
            a, b = rows[t1], rows[t2]
            if a is not b and not row_subset(a, b):
                out["manss"].append(
                    Violation(
                        "manss",
                        (sid,),
                        theme_set=keys[t1],
                        theme_set2=keys[t2],
                        detail=f"aspects of {sid} shrink from {texts[t1]} to {texts[t2]}",
                    )
                )
    # after the sweep, so that aass reads the columns it built
    out["aass"] = _relation_violations(table, cases, "aass")
    return out


# ---------------------------------------------------------------------------
# Exact common region constraints (context immunity).
# ---------------------------------------------------------------------------


def check_exact_region(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, list[Violation]]:
    """Check esr, ensr and eos over every pair of theme sets."""
    table = _compiled_table(model, interp, table)
    return _exact_region(table, _subset_masks(table), table.columns)


def _exact_region(
    table: AspectTable, subsets: list[int], columns: _Columns
) -> dict[str, list[Violation]]:
    """esr, ensr and eos on each pair of ``subsets``, with rows read from
    ``columns`` as :func:`_core` reads them, each list in report order.

    A pair is two masks, the first earlier in ``subsets``.  Pairs are walked
    by their two theme keys and each statement's witnesses go to its own
    list, so joining those lists by statement id gives the
    :meth:`Violation.sort_key` order without a sort.
    """
    stmts = sorted(table.model.statements, key=_statement_id)
    sids = [s.id for s in stmts]
    cids = [_exact_region_id(s) for s in stmts]
    named = [(sid,) for sid in sids]
    heads = [f"aspects of {sid} differ between " for sid in sids]
    found: list[list[Violation]] = [[] for _ in stmts]
    keys = [table.keys[tmask] for tmask in subsets]
    omega = columns(OMEGA)[0]
    omegas = [omega[tmask] for tmask in subsets]
    statement_rows = [columns(sid)[0] for sid in sids]
    rows: list[list[Row] | None] = [None] * len(subsets)
    order = sorted(range(len(subsets)), key=keys.__getitem__)
    indices = range(len(stmts))

    for i1 in order:
        omega1 = omegas[i1]
        if omega1 == EMPTY_ROW:
            continue
        rows1 = rows[i1]
        for i2 in order:
            if i2 <= i1:
                continue
            common_full, common = _meet(omega1, omegas[i2])
            if not common_full and not common:
                continue
            if rows1 is None:
                t1 = subsets[i1]
                rows1 = rows[i1] = [col[t1] for col in statement_rows]
            rows2 = rows[i2]
            if rows2 is None:
                t2 = subsets[i2]
                rows2 = rows[i2] = [col[t2] for col in statement_rows]
            tail = None
            for j in indices:
                a, b = rows1[j], rows2[j]
                if a is b:
                    continue
                if common_full:
                    if a == b:
                        continue
                elif (common if a[0] else a[1] & common) == (common if b[0] else b[1] & common):
                    continue
                if tail is None:
                    t1, t2 = table.key_texts[subsets[i1]], table.key_texts[subsets[i2]]
                    tail = f"{t1} and {t2} inside their common theme region"
                found[j].append(
                    Violation(
                        cids[j], named[j], None, keys[i1], keys[i2], None, heads[j] + tail
                    )
                )

    out: dict[str, list[Violation]] = {cid: [] for cid in EXACT_REGION_IDS}
    for cid, vs in zip(cids, found):
        out[cid].extend(vs)
    return out


# ---------------------------------------------------------------------------
# das and nwci: sharpened attack/support semantics.
# ---------------------------------------------------------------------------


def check_das(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> list[Violation]:
    """Attacks must be incomparable, supports equal, per relation and theme set.

    Pairs with an absent effective aspect are skipped here; aass already
    reports those.
    """
    return _check_relations(_compiled_table(model, interp, table), DAS)


def check_nwci(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> list[Violation]:
    """No weakened contradictions and no incomparable alternatives on attacks."""
    return _check_relations(_compiled_table(model, interp, table), NWCI)


def _check_relations(table: AspectTable, cid: str) -> list[Violation]:
    cases = _relation_cases(table, _tested_relations(table.model, cid))
    out = _relation_violations(table, cases, cid)
    out.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Fresh aspect constraints (no redundancy in statements-sets).
# ---------------------------------------------------------------------------


def check_fresh_aspects(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, list[Violation]]:
    """Check faD and faW: no statements-set may contain redundancy.

    They range over statements and their themes, so no theme cap applies.
    """
    return _sorted(_fresh_aspects(_compiled_table(model, interp, table), _anchors(model)))


def _anchors(model: Model) -> list[tuple[str, str]]:
    """Each statement with each of its declared themes: the anchors of F."""
    declared = set(model.themes)
    return [(s.id, t) for s in model.statements for t in sorted(model.themes_of(s.id) & declared)]


def _fresh_aspects(
    table: AspectTable, anchors: list[tuple[str, str]]
) -> dict[str, list[Violation]]:
    """faW and faD on the statements-sets of each (statement, theme) anchor;
    the anchors of one theme and type share one predecessor map, and those
    of one theme one :class:`PairTable`.

    An anchor with no predecessor in its map is its own only width and depth
    set, which holds no pair, so it is not searched.  An anchor can have
    several depth sets that hold the same redundant pair, so each pair is
    reported once per anchor, theme and type.
    """
    out: dict[str, list[Violation]] = {cid: [] for cid in FRESH_ASPECT_IDS}
    preds: dict[tuple[str, str], dict[str, list[str]]] = {}  # by (theme, type)
    pair_tables: dict[str, PairTable] = {}  # by theme
    for sid, t in anchors:
        for rel in (ATTACK, SUPPORT):
            if (t, rel) not in preds:
                preds[t, rel] = typed_predecessors(table.model, t, rel)
            if sid not in preds[t, rel]:
                continue
            if t not in pair_tables:
                pair_tables[t] = PairTable(table, t)
            widths, depths = statements_sets_from(preds[t, rel], sid, t)
            for cid, sets in (("faW", widths), ("faD", depths)):
                pairs: set[tuple[str, str]] = set()
                for sset in sets:
                    witness = pair_tables[t].redundancy(sset.members)
                    if witness is None:
                        continue
                    first, second, masks = witness
                    if (first, second) in pairs:
                        continue
                    pairs.add((first, second))
                    shared = "{" + ", ".join(sorted(_render(table, m) for m in masks)) + "}"
                    out[cid].append(
                        Violation(
                            cid,
                            (sid, first, second),
                            theme_set=(t,),
                            rel_type=rel,
                            detail=f"{first} and {second} share the minimal "
                            f"representation {shared} in the {sset.kind}-statements-set "
                            f"of {sid} for theme {t}",
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# Relation classification.
# ---------------------------------------------------------------------------


def classify_relations(
    model: Model, interp: Interpretation, themes: Iterable[str] | None = None
) -> list[tuple[Relation, tuple[str, ...], frozenset[str]]]:
    """(relation, sorted theme set, kind labels) for each relation, sorted by pair.

    With ``themes`` None, each relation is classified at every non-empty
    subset of its themes, with every cap checked first; otherwise each
    relation whose themes include ``themes`` is, at them.  The labels are exactly
    ``{"undefined"}`` when either effective aspect is absent.
    """
    table = AspectTable(interp, model)
    only = None if themes is None else table.mask(sorted(themes))
    relations = sorted(model.relations, key=lambda r: r.pair)
    full = table.full_mask
    out = []
    for r, masks in _relation_cases(table, relations, only):
        for tmask in masks:
            kinds = _kinds(table.inf(tmask, r.source), table.inf(tmask, r.target), full)
            labels = frozenset(label for kind, label in KIND_LABELS.items() if kinds & kind)
            out.append((r, table.keys[tmask], labels or frozenset(["undefined"])))
    return out


# ---------------------------------------------------------------------------
# Normal forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormVerdict:
    """``groups`` maps each chosen group, in :data:`ALPHA_GROUPS` order, to its
    violations by constraint id; ``violations`` joins them in id order.  The
    groups follow from ``alpha`` and ``violations``, so they take no part in
    equality or the hash."""

    alpha: frozenset[str]
    normal: bool
    violations: tuple[Violation, ...]
    groups: dict[str, dict[str, list[Violation]]] = field(compare=False)


def run_group(
    model: Model, interp: Interpretation, group: str, table: AspectTable | None = None
) -> dict[str, list[Violation]]:
    """Violations of one constraint group, keyed by constraint id.

    Pass the ``table`` of ``interp`` and ``model`` to share it across groups.
    """
    if group == CORE:
        return check_core(model, interp, table)
    if group == E:
        return check_exact_region(model, interp, table)
    if group == DAS:
        return {"das": check_das(model, interp, table)}
    if group == NWCI:
        return {"nwci": check_nwci(model, interp, table)}
    if group == F:
        return check_fresh_aspects(model, interp, table)
    raise ValueError(f"unknown constraint group {group!r}")


def validate_alpha(alpha: Iterable[str]) -> frozenset[str]:
    """The constraint groups of ``alpha``, which must be known and include core."""
    chosen = frozenset(alpha)
    unknown = chosen - set(ALPHA_GROUPS)
    if unknown:
        raise ConstraintGroupError(f"unknown constraint groups: {', '.join(sorted(unknown))}")
    if CORE not in chosen:
        raise ConstraintGroupError("alpha must include 'core'")
    return chosen


def classify_normal_form(
    model: Model, interp: Interpretation, alpha: Iterable[str]
) -> NormalFormVerdict:
    """Whether the model is alpha-normal with respect to the interpretation."""
    chosen = validate_alpha(alpha)
    table = AspectTable(interp, model)  # one table for every group
    groups = {g: run_group(model, interp, g, table) for g in ALPHA_GROUPS if g in chosen}
    by_id = {cid: vs for found in groups.values() for cid, vs in found.items()}
    # each list is in sort_key order, which leads with the constraint id
    violations = tuple(v for cid in SEMANTIC_IDS if cid in by_id for v in by_id[cid])
    return NormalFormVerdict(chosen, not violations, violations, groups)


# ---------------------------------------------------------------------------
# Witness re-verification.
# ---------------------------------------------------------------------------


def recheck(model: Model, interp: Interpretation | None, violation: Violation) -> bool:
    """Re-establish a violation from its witness record alone.

    The checker's own routine for the witness's constraint runs on the
    witness's instance only, so exactly the witnesses the checker reports
    are re-established; one naming an id the model lacks is not.
    """
    cid = violation.constraint
    if cid in GRAPHIC_IDS:
        found = check_graphic(model)[cid]
    elif interp is None:
        return False
    else:
        found = _instance_violations(AspectTable(interp, model), violation)
    return any(_same_witness(v, violation) for v in found)


def _instance_violations(table: AspectTable, w: Violation) -> list[Violation]:
    """The violations of ``w``'s constraint on the one instance ``w`` names."""
    model, cid = table.model, w.constraint
    try:
        t1, t2 = table.mask(w.theme_set or ()), table.mask(w.theme_set2 or ())
    except UnknownIdError:
        return []
    named = [r for r in model.relations if r.pair == w.relation]
    cases = _relation_cases(table, named, t1) if t1 else []
    # point reads: an instance reads a few rows, where a column has 2 ** m
    if cid in CORE_IDS:
        named_statements = [s for s in model.statements if (s.id,) == w.statements]
        subsets = [t2 if cid in ("mat", "manss") else t1]
        return _core(table, subsets, cases, named_statements, table.reads)[cid]
    if cid in EXACT_REGION_IDS:
        return _exact_region(table, [t1, t2], table.reads)[cid]
    if cid in (DAS, NWCI):
        return _relation_violations(table, cases, cid)
    if cid in FRESH_ASPECT_IDS:
        instance = (w.statements[:1], w.theme_set)
        anchors = [(s, t) for s, t in _anchors(model) if ((s,), (t,)) == instance]
        return _fresh_aspects(table, anchors)[cid]
    raise ValueError(f"cannot recheck constraint {cid!r}")


def _same_witness(a: Violation, b: Violation) -> bool:
    return (
        a.constraint == b.constraint
        and a.statements == b.statements
        and a.relation == b.relation
        and a.theme_set == b.theme_set
        and a.theme_set2 == b.theme_set2
        and a.rel_type == b.rel_type
    )


def all_violations(groups: Mapping[str, list[Violation]]) -> list[Violation]:
    out: list[Violation] = []
    for vs in groups.values():
        out.extend(vs)
    out.sort(key=Violation.sort_key)
    return out
