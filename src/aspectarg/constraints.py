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

from dataclasses import dataclass, field, fields
from bisect import bisect_right
from itertools import accumulate, chain, count, starmap
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import Element, closed_under_boolean_ops
from .errors import ConstraintGroupError, UnknownIdError
from .formulas import render_element
from .model import (
    ATTACK,
    EMPTY_ROW,
    OMEGA,
    REL_TYPES,
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
from .statements_sets import ThemeGraph, first_shared_pair

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
    """The mask of every theme subset, in :func:`theme_subsets` order, made
    once per table and shared by core and E."""
    if table.subsets is None:
        table.subsets = [table.mask(c) for c in theme_subsets(table.names)]
    return table.subsets


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
) -> list[tuple[Relation, int, int | None, int | None, int]]:
    """The decided cases of ``relations``, in their order: (relation, theme
    mask, source's effective aspect, target's effective aspect, kinds).

    With no ``tmask``, each relation's non-empty theme subsets, with every
    relation's cap checked before any case is decided; with one, that mask
    for each relation whose themes include it.
    """
    declared = set(table.names)
    if tmask is None:
        cases = [
            (r, [table.mask(c) for c in theme_subsets(sorted(r.themes & declared), min_size=1)])
            for r in relations
        ]
    else:
        cases = [(r, [tmask]) for r in relations if not tmask & ~table.mask(r.themes & declared)]
    full, infs, out = table.full_mask, table.infs, []
    for r, masks in cases:
        for m in masks:
            u, v = infs(r.source)[m], infs(r.target)[m]
            out.append((r, m, u, v, _kinds(u, v, full)))
    return out


def _table_cases(table: AspectTable) -> list[tuple]:
    """The decided cases of every attack or support relation, made once per
    table and filtered by aass, das and nwci."""
    if table.relation_cases is None:
        tested = [r for r in table.model.relations if not r.rel_types.isdisjoint(REL_TYPES)]
        table.relation_cases = _relation_cases(table, tested)
    return table.relation_cases


def _aspect_text(table: AspectTable, sid: str, tmask: int, mask: int | None) -> str:
    """The text of ``mask``, the effective aspect of ``sid`` at ``tmask``,
    rendered once per table."""
    text = table.aspect_texts.get((sid, tmask))
    if text is None:
        text = table.aspect_texts[sid, tmask] = _render(table, mask)
    return text


def _relation_violations(table: AspectTable, cases: list[tuple], cid: str) -> list[tuple]:
    """The witness rows of relation constraint ``cid`` on decided cases."""
    out: list[tuple] = []
    tests = _RELATION_TESTS[cid]
    for r, tmask, u, v, kinds in cases:
        for rel_type, avoid, show, text in tests:
            # an absent aspect has no kind: it fails aass only
            failed = (kinds & avoid or not kinds & show) if kinds else cid == "aass"
            if failed and rel_type in r.rel_types:
                detail = text.format(
                    pair=r.pair,
                    themes=table.key_texts[tmask],
                    u=_aspect_text(table, r.source, tmask, u),
                    v=_aspect_text(table, r.target, tmask, v),
                )
                out.append((cid, (), r.pair, table.keys[tmask], None, rel_type, detail))
    return out


def _meet(a: Row, b: Row) -> Row:
    if a[0]:
        return b
    if b[0]:
        return a
    return (False, a[1] & b[1])


def _pr_bound(table: AspectTable, s: Statement, own: int) -> tuple[Mapping[int, Row], int]:
    """The proper-range bound of ``s``, whose own themes are ``own``: the
    rows that hold it, and the mask that, ANDed with a theme mask, indexes
    the bound there."""
    if not s.is_pointer:
        return table.rows(s.id), own
    widened = own | table.bits.get(s.ref_theme, 0)
    if s.is_summary_pointer:
        return table.rows(s.id), widened
    if not table.model.has_statement(s.ref_target):
        return {0: EMPTY_ROW}, 0  # a dangling target carries no aspects
    return table.rows(s.ref_target), widened


def _exact_region_id(s: Statement) -> str:
    if s.is_summary_pointer:
        return "esr"
    if s.is_statement_pointer:
        return "ensr"
    return "eos"


def _sorted(out: dict[str, list[Violation]]) -> dict[str, list[Violation]]:
    for vs in out.values():
        vs.sort(key=Violation.sort_key)
    return out


# ---------------------------------------------------------------------------
# Witness sequences: violations built when they are read.
# ---------------------------------------------------------------------------

#: A violation's fields as a row, ``Violation(*row)``; the fields come in the
#: order :meth:`Violation.sort_key` reads them.
violation_row = attrgetter(*(f.name for f in fields(Violation)))


class Witnesses(Sequence[Violation]):
    """A read-only sequence of :class:`Violation` that builds each one when
    it is read.  It equals a list, a tuple or another such sequence of the
    same violations in the same order, and no other sequence; like a list,
    it has no hash."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, Witnesses)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class WitnessRows(Witnesses):
    """The witnesses of core, das, nwci or F: one constraint's violations as
    rows of their fields (:data:`violation_row`), in
    :meth:`Violation.sort_key` order.  Indexing or iterating builds each
    ``Violation`` when it is read."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(starmap(Violation, self.rows[index]))
        return Violation(*self.rows[index])

    def __iter__(self) -> Iterator[Violation]:
        return starmap(Violation, self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WitnessRows):
            return self.rows == other.rows
        return super().__eq__(other)

    def details(self) -> Iterator[str]:
        """Each witness's detail, in order, read without its ``Violation``."""
        return map(itemgetter(-1), self.rows)


#: The witnesses of a constraint that holds, shared by every such constraint.
NO_WITNESSES = WitnessRows([])


def _witnesses(out: dict[str, list[tuple]]) -> dict[str, WitnessRows]:
    """Each constraint's witness rows, sorted, as :class:`WitnessRows`.  The
    rows of one constraint set the same fields, and a row's fields come in
    ``sort_key``'s order, so tuple order is ``sort_key`` order (an unset
    field met beside a set one would raise, not misorder)."""
    return {cid: WitnessRows(sorted(rows)) if rows else NO_WITNESSES for cid, rows in out.items()}


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

    inhabited: set[str] | None = None  # the themes of the statements, on first need
    for s in model.statements:
        if not s.is_pointer:
            continue
        t = s.ref_theme
        if s.is_summary_pointer:
            if inhabited is None:
                inhabited = {th for other in model.statements for th in model.themes_of(other.id)}
            if t not in inhabited:
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

    # by id, the statements of the model that support it and that it
    # supports, each with the support's themes
    supporters: dict[str, dict[str, frozenset[str]]] = {}
    supported: dict[str, dict[str, frozenset[str]]] = {}
    for r in model.relations:
        if SUPPORT in r.rel_types:
            if model.has_statement(r.source):
                supporters.setdefault(r.target, {})[r.source] = r.themes
            if model.has_statement(r.target):
                supported.setdefault(r.source, {})[r.target] = r.themes
    none: dict[str, frozenset[str]] = {}
    for r in model.relations:
        if ATTACK not in r.rel_types:
            continue
        if SUPPORT in r.rel_types:
            out["nss"].append(
                Violation(
                    "nss",
                    relation=r.pair,
                    detail=f"relation {r.pair} typed both attack and support",
                )
            )
        for index, verb in ((supporters, "supports"), (supported, "is supported by")):
            ends1, ends2 = index.get(r.source, none), index.get(r.target, none)
            for sid in ends1.keys() & ends2.keys():
                shared = ends1[sid] & ends2[sid]
                if shared:
                    detail = (
                        f"{sid} {verb} both ends of attack {r.pair} "
                        f"for shared themes {sorted(shared)}"
                    )
                    out["nss"].append(
                        Violation(
                            "nss", (sid,), relation=r.pair, theme_set=_tkey(shared), detail=detail
                        )
                    )
    return _sorted(out)


# ---------------------------------------------------------------------------
# Core constraints on the interpretation.
# ---------------------------------------------------------------------------


def check_core(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, WitnessRows]:
    """Check aass, i, vi, bat, pr, mat, manss and ss."""
    table = _compiled_table(model, interp, table)
    subsets = _subset_masks(table)
    return _witnesses(_core(table, subsets, _table_cases(table), model.statements))


def _core(
    table: AspectTable,
    subsets: list[int],
    cases: list[tuple],
    statements: Iterable[Statement],
) -> dict[str, list[tuple]]:
    """Core's witness rows at the theme masks ``subsets``, for the statement
    constraints on ``statements``, and, for aass, on decided relation ``cases``.

    A sweep passes every mask and ``recheck`` one instance's; both read the
    table's rows at just those masks.  mat and manss compare a mask with a
    mask one theme smaller.  Each list is in no particular order.

    Tests that cannot fail are skipped.  Any row is inside a full omega
    row, so i reads only the masks whose omega row is not full.  Where a
    statement that defaults has no explicit row, its row is the union of
    its singleton rows at the mask's themes, which grows with the mask.  So
    manss compares only the steps with an explicit row of other than one
    theme at one end, and an ordinary statement whose only explicit rows
    are singleton rows at its own themes has the same row at a mask as at
    the mask's own themes, its proper-range bound, so it skips pr.
    """
    keys, texts = table.keys, table.key_texts
    out: dict[str, list[tuple]] = {cid: [] for cid in CORE_IDS}
    omega = table.rows(OMEGA)

    for tmask in subsets:
        masks = omega[tmask][1]
        if masks and not closed_under_boolean_ops(masks, table.full_mask):
            detail = (
                f"theme aspects at {texts[tmask]} are not a subalgebra "
                "(missing 0/1 or not closed under not/and/or)"
            )
            out["bat"].append(("bat", (), None, keys[tmask], None, None, detail))
        rest = tmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            t1 = tmask ^ bit
            if not row_subset(omega[t1], omega[tmask]):
                detail = f"theme aspects shrink from {texts[t1]} to {texts[tmask]}"
                out["mat"].append(("mat", (), None, keys[t1], keys[tmask], None, detail))

    full, vacuous, every = table.full_mask, 0 in subsets, (1 << len(table.names)) - 1
    partial = [tmask for tmask in subsets if not omega[tmask][0]]
    by_own: dict[int, list[int]] = {}  # the masks inside each statement's own themes
    singles_of, others_of = table.explicit()
    owns = table.owns()
    upper: set[int] = set()  # the masks of ``subsets``, once a statement needs them
    for s in statements:
        sid = s.id
        named = (sid,)
        rows, infs = table.rows(sid), table.infs(sid)
        own = owns.get(sid, 0)
        singles, others = singles_of.get(sid, 0), others_of.get(sid, ())
        if vacuous and rows[0] != EMPTY_ROW:
            detail = f"{sid} has aspects for the empty theme set"
            out["vi"].append(("vi", named, None, (), None, None, detail))
        for tmask in partial:
            if not row_subset(rows[tmask], omega[tmask]):
                detail = f"aspects of {sid} at {texts[tmask]} are not all aspects of the theme set"
                out["i"].append(("i", named, None, keys[tmask], None, None, detail))
        if s.is_pointer or others or singles & ~own:
            bounds, widened = _pr_bound(table, s, own)
            target = f" and target {s.ref_target}" if s.is_statement_pointer else ""
            for tmask in subsets:
                aspects = rows[tmask]
                if aspects != EMPTY_ROW and not row_subset(aspects, bounds[tmask & widened]):
                    detail = (
                        f"aspects of {sid} at {texts[tmask]} exceed the proper-range "
                        f"bound from its own themes{target}"
                    )
                    out["pr"].append(("pr", named, None, keys[tmask], None, None, detail))
        inside = by_own.get(own)
        if inside is None:
            inside = by_own[own] = [tmask for tmask in subsets if not tmask & ~own]
        for tmask in inside:  # ss ranges over the statement's own themes
            eff = infs[tmask]
            if eff == 0 or eff == full:
                which = "inconsistent (0)" if eff == 0 else "trivial (1)"
                detail = f"{sid} effectively touches upon the {which} aspect at {texts[tmask]}"
                out["ss"].append(("ss", named, None, keys[tmask], None, None, detail))
        if s.is_summary_pointer or not others:
            continue  # summary pointers are not monotone; union defaults are
        # the steps, as (smaller, larger), with an explicit row at one end
        upper = upper or set(subsets)
        steps = []
        explicit = set(others)
        for t in others:
            if t in upper:
                rest = t
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    steps.append((t ^ bit, t))
            rest = every & ~t
            while rest:
                bit = rest & -rest
                rest ^= bit
                if t | bit in upper and t | bit not in explicit:
                    steps.append((t, t | bit))
        for t1, t2 in steps:
            a, b = rows[t1], rows[t2]
            if a is not b and not row_subset(a, b):
                detail = f"aspects of {sid} shrink from {texts[t1]} to {texts[t2]}"
                out["manss"].append(("manss", named, None, keys[t1], keys[t2], None, detail))
    out["aass"] = _relation_violations(table, cases, "aass")
    return out


# ---------------------------------------------------------------------------
# Exact common region constraints (context immunity).
# ---------------------------------------------------------------------------


def check_exact_region(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, ExactRegionWitnesses]:
    """Check esr, ensr and eos over every pair of theme sets.

    Each constraint's witnesses are an :class:`ExactRegionWitnesses`, a
    read-only sequence in :meth:`Violation.sort_key` order that builds each
    ``Violation`` when it is read; the three share one text context.
    """
    table = _compiled_table(model, interp, table)
    return _exact_region(table, _subset_masks(table))


class RegionContext:
    """What E's witness runs of one check index, as plain lists built once
    per check: by statement index, its constraint id (``cids``), its one-id
    statement list (``named``) and detail head (``heads``); by subset index,
    the theme key (``keys``) and the detail text of its set as first set
    (``firsts``) and as second set (``seconds``).  A detail is
    ``heads[j] + firsts[i1] + seconds[i2]``."""

    __slots__ = ("cids", "named", "heads", "keys", "firsts", "seconds")

    def __init__(
        self,
        cids: list[str],
        named: list[tuple[str]],
        heads: list[str],
        keys: list[tuple[str, ...]],
        firsts: list[str],
        seconds: list[str],
    ) -> None:
        self.cids, self.named, self.heads, self.keys = cids, named, heads, keys
        self.firsts, self.seconds = firsts, seconds


class ExactRegionWitnesses(Witnesses):
    """One E constraint's witnesses as runs ``(statement index, first
    subset index, [second subset indices])`` into a :class:`RegionContext`:
    a run holds one statement's witnesses at one first theme set, its
    second sets in key order, and the runs come in
    :meth:`Violation.sort_key` order.

    Its length is the number of witnesses, and indexing or iterating
    builds each ``Violation`` when it is read.
    """

    __slots__ = ("context", "runs", "starts")

    def __init__(self, context: RegionContext, runs: list[tuple[int, int, list[int]]]) -> None:
        self.context, self.runs = context, runs
        # the index of each run's first witness, then the witness count
        self.starts = list(accumulate(map(len, map(itemgetter(2), runs)), initial=0))

    def _violation(self, j: int, i1: int, i2: int) -> Violation:
        c = self.context
        detail = c.heads[j] + c.firsts[i1] + c.seconds[i2]
        return Violation(c.cids[j], c.named[j], None, c.keys[i1], c.keys[i2], None, detail)

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        index = range(len(self))[index]
        k = bisect_right(self.starts, index) - 1
        j, i1, seconds = self.runs[k]
        return self._violation(j, i1, seconds[index - self.starts[k]])

    def __iter__(self) -> Iterator[Violation]:
        return (self._violation(j, i1, i2) for j, i1, seconds in self.runs for i2 in seconds)

    def details(self) -> Iterator[str]:
        """Each witness's detail, in order, built without its ``Violation``:
        a run joins its head and first-set text once, then each second-set
        text of the context's table."""
        c = self.context
        for j, i1, seconds in self.runs:
            yield from map((c.heads[j] + c.firsts[i1]).__add__, map(c.seconds.__getitem__, seconds))


#: The witnesses of an E constraint that holds, which index no text context.
NO_REGION_WITNESSES = ExactRegionWitnesses(RegionContext([], [], [], [], [], []), [])


def _exact_region(table: AspectTable, subsets: list[int]) -> dict[str, ExactRegionWitnesses]:
    """esr, ensr and eos on each pair of ``subsets``, decided and listed by
    row classes, each in report order; as in :func:`_core`, rows are read at
    just those masks.

    A pair is two subset indices, the first earlier in ``subsets``.  The
    theme sets with a non-empty omega row are grouped by that row.  For each
    two of these omega classes whose rows meet, each statement's rows at
    their sets, cut to that common region unless it is full, get small class
    ids.  A statement whose rows there fall into one class is skipped;
    otherwise each first set is listed with the second sets outside its
    class.  So E costs about 2^m·n per pair of omega classes plus its
    witnesses, not 4^m·n.  Each statement's runs come by first theme key,
    with their second sets in key order, so joining the statements' runs by
    statement id gives the :meth:`Violation.sort_key` order.  With fewer
    than two sets of a non-empty omega row there is no pair, and E reads no
    statement and builds no text context.
    """
    omega = table.rows(OMEGA)
    filled = [i for i, tmask in enumerate(subsets) if omega[tmask] != EMPTY_ROW]
    if len(filled) < 2:
        return dict.fromkeys(EXACT_REGION_IDS, NO_REGION_WITNESSES)  # no pair to compare
    stmts = sorted(table.model.statements, key=attrgetter("id"))
    sids = [s.id for s in stmts]
    cids = [_exact_region_id(s) for s in stmts]
    keys = [table.keys[tmask] for tmask in subsets]
    classes: dict[Row, list[int]] = {}
    for i in sorted(filled, key=keys.__getitem__):
        classes.setdefault(omega[subsets[i]], []).append(i)
    members = list(classes.values())
    masks = [[subsets[i] for i in ms] for ms in members]
    # each two omega classes that meet and hold a pair of sets, once, and
    # their common region, or None where it is full
    omegas = list(classes)
    regions = []
    for a, row_a in enumerate(omegas):
        for b in range(a, len(omegas)):
            full, common = _meet(row_a, omegas[b])
            if (full or common) and (a < b or len(members[a]) > 1):
                regions.append((a, b, None if full else common))

    by_id: dict[str, list[tuple[int, int, list[int]]]] = {cid: [] for cid in EXACT_REGION_IDS}
    for j, sid in enumerate(sids if regions else ()):
        read = table.rows(sid).__getitem__
        rows = [list(map(read, ms)) for ms in masks]
        distinct = list(map(dict.fromkeys, rows))
        pieces: list[list[tuple[int, int, list[int]]]] = []
        for a, b, common in regions:
            rows_a, rows_b = distinct[a], distinct[b]
            if len(rows_a) == 1 == len(rows_b):
                # one row in each class: one comparison decides, and rows
                # that are one object are equal however they are cut
                (row_a,), (row_b,) = rows_a, rows_b
                if row_a is row_b:
                    continue
                # two omega classes, so their common region is not full
                if (common if row_a[0] else row_a[1] & common) == (
                    common if row_b[0] else row_b[1] & common
                ):
                    continue
            if common is None:
                ids = dict(zip(rows_a, count()))
            else:
                cut: dict[Row, int] = {}
                ids = {
                    row: cut.setdefault(common if row[0] else row[1] & common, len(cut))
                    for row in chain(rows_a, rows_b)
                }
                if len(cut) == 1:
                    continue
            ids_a = list(map(ids.__getitem__, rows[a]))
            if a == b:
                pieces.append(_outside(j, members[a], ids_a, members[a], ids_a))
            else:
                ids_b = list(map(ids.__getitem__, rows[b]))
                pieces.append(_outside(j, members[a], ids_a, members[b], ids_b))
                pieces.append(_outside(j, members[b], ids_b, members[a], ids_a))
        runs = by_id[cids[j]]
        if len(pieces) == 1:
            runs += pieces[0]
        elif pieces:
            # a first set may have second sets in several pairs of classes
            parts: dict[int, list[list[int]]] = {}
            for _, i1, seconds in chain.from_iterable(pieces):
                parts.setdefault(i1, []).append(seconds)
            for i1 in sorted(parts, key=keys.__getitem__):
                seconds, *more = parts[i1]
                if more:
                    seconds = sorted(chain(seconds, *more), key=keys.__getitem__)
                runs.append((j, i1, seconds))

    texts = [table.key_texts[tmask] for tmask in subsets]
    context = RegionContext(
        cids,
        [(sid,) for sid in sids],
        [f"aspects of {sid} differ between " for sid in sids],
        keys,
        [text + " and " for text in texts],
        [text + " inside their common theme region" for text in texts],
    )
    return {cid: ExactRegionWitnesses(context, runs) for cid, runs in by_id.items()}


def _outside(
    j: int, firsts: list[int], first_ids: list[int], seconds: list[int], second_ids: list[int]
) -> list[tuple[int, int, list[int]]]:
    """Statement ``j``'s runs from ``firsts`` to ``seconds``, whose row
    classes are ``first_ids`` and ``second_ids``: for each first set, in the
    order of ``firsts``, the second sets outside its class and later in the
    subset order, in the order of ``seconds``."""
    outside: dict[int, list[int]] = {}  # by class, the second sets outside it
    runs = []
    for i1, k in zip(firsts, first_ids):
        out = outside.get(k)
        if out is None:
            out = outside[k] = [i2 for i2, k2 in zip(seconds, second_ids) if k2 != k]
        later = [i2 for i2 in out if i2 > i1]
        if later:
            runs.append((j, i1, later))
    return runs


# ---------------------------------------------------------------------------
# das and nwci: sharpened attack/support semantics.
# ---------------------------------------------------------------------------


def check_das(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> WitnessRows:
    """Attacks must be incomparable, supports equal, per relation and theme set.

    Pairs with an absent effective aspect are skipped here; aass already
    reports those.
    """
    return _check_relations(_compiled_table(model, interp, table), DAS)


def check_nwci(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> WitnessRows:
    """No weakened contradictions and no incomparable alternatives on attacks."""
    return _check_relations(_compiled_table(model, interp, table), NWCI)


def _check_relations(table: AspectTable, cid: str) -> WitnessRows:
    return _witnesses({cid: _relation_violations(table, _table_cases(table), cid)})[cid]


# ---------------------------------------------------------------------------
# Fresh aspect constraints (no redundancy in statements-sets).
# ---------------------------------------------------------------------------


def check_fresh_aspects(
    model: Model, interp: Interpretation, table: AspectTable | None = None
) -> dict[str, WitnessRows]:
    """Check faD and faW: no statements-set may contain redundancy.

    They range over statements and their themes, so no theme cap applies.
    """
    return _witnesses(_fresh_aspects(_compiled_table(model, interp, table), _anchors(model)))


def _anchors(model: Model) -> list[tuple[str, str]]:
    """Each statement with each of its declared themes: the anchors of F."""
    declared = set(model.themes)
    return [(s.id, t) for s in model.statements for t in sorted(model.themes_of(s.id) & declared)]


def _fresh_aspects(
    table: AspectTable, anchors: list[tuple[str, str]]
) -> dict[str, list[tuple]]:
    """The witness rows of faW and faD on the statements-sets of each (statement, theme) anchor;
    the anchors of one theme share one :class:`ThemeGraph`, so a
    statements-set is a mask of it.  Each is decided by
    :func:`first_shared_pair` on ``table``, and identical member sets of one
    theme's anchors are decided once.

    An anchor with no predecessor of a type is its own only width and depth
    set, which holds no pair, so it is not searched.  An anchor can have
    several depth sets that hold the same redundant pair, so each pair is
    reported once per anchor, theme and type.
    """
    out: dict[str, list[tuple]] = {cid: [] for cid in FRESH_ASPECT_IDS}
    graphs = {t: ThemeGraph(table.model, t) for t in {t for _, t in anchors}}
    decided: dict[tuple[str, int], tuple[str, str, frozenset[int]] | None] = {}
    for sid, t in anchors:
        graph = graphs[t]
        for rel in (ATTACK, SUPPORT):
            width = graph.width_set(sid, rel)
            if width == graph.bit[sid]:
                continue
            for cid, sets in (("faW", [width]), ("faD", graph.depth_sets(sid, rel))):
                pairs: set[tuple[str, str]] = set()
                for mask in sets:
                    key = (t, mask)
                    if key not in decided:
                        decided[key] = first_shared_pair(table, table.bits[t], graph.members(mask))
                    witness = decided[key]
                    if witness is None:
                        continue
                    first, second, masks = witness
                    if (first, second) in pairs:
                        continue
                    pairs.add((first, second))
                    shared = "{" + ", ".join(sorted(_render(table, m) for m in masks)) + "}"
                    detail = (
                        f"{first} and {second} share the minimal representation {shared} "
                        f"in the {'width' if cid == 'faW' else 'depth'}-statements-set "
                        f"of {sid} for theme {t}"
                    )
                    out[cid].append((cid, (sid, first, second), None, (t,), None, rel, detail))
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
    out = []
    for r, tmask, _, _, kinds in _relation_cases(table, relations, only):
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
    groups: dict[str, dict[str, Sequence[Violation]]] = field(compare=False)


def run_group(
    model: Model, interp: Interpretation, group: str, table: AspectTable | None = None
) -> dict[str, Sequence[Violation]]:
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


def check_groups(
    model: Model, interp: Interpretation, alpha: Iterable[str]
) -> dict[str, dict[str, Sequence[Violation]]]:
    """Each group of ``alpha``, in :data:`ALPHA_GROUPS` order, to its
    violations by constraint id, from one table shared by every group."""
    chosen = validate_alpha(alpha)
    table = AspectTable(interp, model)
    return {g: run_group(model, interp, g, table) for g in ALPHA_GROUPS if g in chosen}


def classify_normal_form(
    model: Model, interp: Interpretation, alpha: Iterable[str]
) -> NormalFormVerdict:
    """Whether the model is alpha-normal with respect to the interpretation."""
    groups = check_groups(model, interp, alpha)
    by_id = {cid: vs for found in groups.values() for cid, vs in found.items()}
    # each list is in sort_key order, which leads with the constraint id
    violations = tuple(chain.from_iterable(by_id[cid] for cid in SEMANTIC_IDS if cid in by_id))
    return NormalFormVerdict(frozenset(groups), not violations, violations, groups)


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
        found: Iterable[tuple] = map(violation_row, check_graphic(model)[cid])
    elif interp is None:
        return False
    else:
        found = _instance_rows(AspectTable(interp, model), violation)
    # the witness is its fields other than the detail
    witness = violation_row(violation)[:-1]
    return any(row[:-1] == witness for row in found)


def _instance_rows(table: AspectTable, w: Violation) -> Iterable[tuple]:
    """The witness rows of ``w``'s constraint on the one instance ``w`` names."""
    model, cid = table.model, w.constraint
    try:
        t1, t2 = table.mask(w.theme_set or ()), table.mask(w.theme_set2 or ())
    except UnknownIdError:
        return []
    named = [r for r in model.relations if r.pair == w.relation]
    cases = _relation_cases(table, named, t1) if t1 else []
    if cid in CORE_IDS:
        named_statements = [s for s in model.statements if (s.id,) == w.statements]
        subsets = [t2 if cid in ("mat", "manss") else t1]
        return _core(table, subsets, cases, named_statements)[cid]
    if cid in EXACT_REGION_IDS:
        return map(violation_row, _exact_region(table, [t1, t2])[cid])
    if cid in (DAS, NWCI):
        return _relation_violations(table, cases, cid)
    if cid in FRESH_ASPECT_IDS:
        instance = (w.statements[:1], w.theme_set)
        anchors = [(s, t) for s, t in _anchors(model) if ((s,), (t,)) == instance]
        return _fresh_aspects(table, anchors)[cid]
    raise ValueError(f"cannot recheck constraint {cid!r}")
