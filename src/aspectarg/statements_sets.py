"""Width- and depth-statements-sets, minimal representations, redundancy.

A width-statements-set of an anchor statement collects, for one theme and one
relation type, every statement attacking/supporting the anchor directly; it is
unique.  A depth-statements-set is a maximal simple path of same-typed,
same-themed relations ending at the anchor; there can be several.  Redundancy
holds of a statement set when two members share a minimal representation: a
minimal subset of their aspect sets with the same infimum, i.e. the formal
trace of saying the same thing twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import Element
from .errors import CapExceeded
from .model import AspectTable, Interpretation, Model

#: Largest aspect set we will search for minimal representations (2**cap subsets).
MINREP_CAP = 16


@dataclass(frozen=True)
class StatementsSet:
    kind: str  # "width" | "depth"
    anchor: str
    theme: str
    rel: str  # "attack" | "support"
    members: frozenset[str]
    path: tuple[str, ...] = ()  # witnessing order, depth sets only


def width_statements_set(model: Model, s: str, t: str, rel: str) -> StatementsSet:
    """The unique width-statements-set of ``s`` for theme ``t`` and type ``rel``.

    The anchor itself is a distinguished member; every other member must have
    a ``rel``-typed, ``t``-typed relation to the anchor, with ``t`` on both
    endpoints.
    """
    members = {s}
    if t in model.themes_of(s):
        for r in model.relations_into(s):
            if r.source == s:
                continue
            if rel in r.rel_types and t in r.themes and t in model.themes_of(r.source):
                members.add(r.source)
    return StatementsSet("width", s, t, rel, frozenset(members))


def depth_statements_sets(model: Model, s: str, t: str, rel: str) -> list[StatementsSet]:
    """All maximal depth-statements-sets of ``s`` for theme ``t`` and type ``rel``.

    Enumerates simple paths ending at ``s`` in the subgraph of ``rel``-typed,
    ``t``-typed relations between ``t``-typed statements, then keeps the
    set-maximal ones.
    """
    if t not in model.themes_of(s):
        return [StatementsSet("depth", s, t, rel, frozenset([s]), (s,))]
    eligible_edges: dict[str, list[str]] = {}
    for r in model.relations:
        if rel not in r.rel_types or t not in r.themes:
            continue
        if t not in model.themes_of(r.source) or t not in model.themes_of(r.target):
            continue
        eligible_edges.setdefault(r.target, []).append(r.source)

    paths: list[tuple[str, ...]] = []

    def extend(path: tuple[str, ...]) -> None:
        paths.append(path)
        head = path[0]
        for pred in sorted(eligible_edges.get(head, ())):
            if pred not in path:
                extend((pred,) + path)

    extend((s,))
    sets = {frozenset(p): p for p in paths}  # last witnessing order wins; any is fine
    maximal = [
        members
        for members in sets
        if not any(members < other for other in sets)
    ]
    out = [StatementsSet("depth", s, t, rel, members, sets[members]) for members in maximal]
    out.sort(key=lambda ss: sorted(ss.members))
    return out


def statements_sets(
    model: Model, s: str, t: str, rel: str
) -> tuple[list[StatementsSet], list[StatementsSet]]:
    """Width- and depth-statements-sets of ``s`` with respect to ``t`` and ``rel``."""
    return [width_statements_set(model, s, t, rel)], depth_statements_sets(model, s, t, rel)


def minimal_representations_of(
    algebra, elements: Iterable[Element], cap: int = MINREP_CAP
) -> list[frozenset[Element]]:
    """All inclusion-minimal subsets with the same infimum as the whole set."""
    masks = {e.mask for e in elements}
    return [
        frozenset(Element(algebra, m) for m in rep)
        for rep in _minimal_representations(masks, algebra.full_mask, cap)
    ]


def _minimal_representations(
    masks: Iterable[int], full: int, cap: int
) -> list[frozenset[int]]:
    """:func:`minimal_representations_of` on element masks."""
    elems = sorted(masks)
    if len(elems) > cap:
        raise CapExceeded(
            f"aspect set of size {len(elems)} exceeds the minimal-representation cap {cap}"
        )

    def meet(bits: int) -> int:
        out = full
        for i, m in enumerate(elems):
            if bits >> i & 1:
                out &= m
        return out

    n = len(elems)
    target = meet((1 << n) - 1)
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for bits in range(1 << n):
        by_size[bits.bit_count()].append(bits)
    found: list[frozenset[int]] = []
    # Breadth-first by subset size: the first hits at each size are minimal
    # unless they contain a smaller hit.
    for subsets in by_size:
        for bits in subsets:
            if meet(bits) != target:
                continue
            fs = frozenset(m for i, m in enumerate(elems) if bits >> i & 1)
            if not any(prev < fs for prev in found):
                found.append(fs)
    return found


def _row_representations(table: AspectTable, tmask: int, s: str, cap: int) -> list[frozenset[int]]:
    full, masks = table.row(tmask, s)
    if full:
        carrier = table.algebra.carrier_size
        if carrier > cap:
            raise CapExceeded(
                f"aspect set of size {carrier} exceeds the minimal-representation cap {cap}"
            )
        masks = range(carrier)
    return _minimal_representations(masks, table.algebra.full_mask, cap)


def minimal_representations(
    interp: Interpretation, model: Model, themes: Iterable[str], s: str, cap: int = MINREP_CAP
) -> list[frozenset[Element]]:
    """Minimal representations of the aspect set of ``s`` for a theme set."""
    table = AspectTable(interp, model)
    reps = _row_representations(table, table.mask(themes), s, cap)
    return [frozenset(Element(interp.algebra, m) for m in rep) for rep in reps]


@dataclass(frozen=True)
class RedundancyWitness:
    first: str
    second: str
    shared: frozenset[Element]


def contains_redundancy(
    interp: Interpretation,
    model: Model,
    t: str,
    statement_ids: Iterable[str],
    cap: int = MINREP_CAP,
) -> RedundancyWitness | None:
    """A witness pair sharing a minimal representation for theme ``{t}``, if any.

    The defining order compares representations of the statements' aspect sets
    at one theme set; the singleton ``{t}`` of the enclosing statements-set is
    used.
    """
    return _redundancy(AspectTable(interp, model), t, statement_ids, cap, {})


def _redundancy(
    table: AspectTable,
    t: str,
    statement_ids: Iterable[str],
    cap: int,
    memo: dict[tuple[int, str], set[frozenset[int]]],
) -> RedundancyWitness | None:
    """:func:`contains_redundancy` over one table; ``memo`` keeps the
    representations of each (theme mask, statement) row for later calls."""
    tmask = table.mask([t])
    ids = sorted(set(statement_ids))
    reps = {}
    for sid in ids:
        got = memo.get((tmask, sid))
        if got is None:
            got = memo[(tmask, sid)] = set(_row_representations(table, tmask, sid, cap))
        reps[sid] = got
    for i, s1 in enumerate(ids):
        for s2 in ids[i + 1 :]:
            shared = reps[s1] & reps[s2]
            if shared:
                first = min(shared, key=sorted)
                return RedundancyWitness(
                    s1, s2, frozenset(Element(table.algebra, m) for m in first)
                )
    return None
