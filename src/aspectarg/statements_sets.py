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
from .model import AspectTable, Interpretation, Model, maximal_masks

#: Largest aspect set we will search for minimal representations (2**cap subsets).
MINREP_CAP = 16
#: Most (head, members) states one depth-statements-set search may reach.
DEPTH_STATE_CAP = 1 << 18


@dataclass(frozen=True)
class StatementsSet:
    kind: str  # "width" | "depth"
    members: frozenset[str]
    path: tuple[str, ...] = ()  # witnessing order, depth sets only


def depth_statements_sets(preds: dict[str, list[str]], s: str, t: str) -> list[StatementsSet]:
    """All maximal depth-statements-sets of ``s`` for theme ``t`` and one type.

    ``preds`` maps each statement to its predecessors in the subgraph of that
    type's ``t``-typed relations between ``t``-typed statements.
    Searches simple paths ending at ``s`` in that subgraph, growing them at
    their head.  Whether a path can grow depends only on its head and its
    members, so each (head, members) state is expanded once.  A path that can
    grow is not maximal, so the maximal sets are the set-maximal members of the
    states that cannot; each keeps one path reaching it as its witness.  Raises
    :class:`CapExceeded` past :data:`DEPTH_STATE_CAP` states.
    """
    ids = sorted({s}.union(*preds.values()))
    bit = {sid: 1 << i for i, sid in enumerate(ids)}
    pred_bits = {sid: [(bit[p], p) for p in sorted(set(ps))] for sid, ps in preds.items()}

    # parent[(head, members)] is the state the head was prepended to
    start = (s, bit[s])
    parent: dict[tuple[str, int], tuple[str, int] | None] = {start: None}
    stack = [start]
    ends: dict[int, tuple[str, int]] = {}  # members of a state that cannot grow
    while stack:
        state = stack.pop()
        head, members = state
        grew = False
        for b, pred in pred_bits.get(head, ()):
            if members & b:
                continue
            grew = True
            nxt = (pred, members | b)
            if nxt not in parent:
                if len(parent) >= DEPTH_STATE_CAP:
                    raise CapExceeded(
                        f"the depth-statements-set search of {s} for theme {t!r} "
                        f"exceeds the cap of {DEPTH_STATE_CAP} path states"
                    )
                parent[nxt] = state
                stack.append(nxt)
        if not grew:
            ends.setdefault(members, state)

    out = []
    for members in maximal_masks(ends):
        path: list[str] = []
        state = ends[members]
        while state is not None:
            path.append(state[0])
            state = parent[state]
        out.append(StatementsSet("depth", frozenset(path), tuple(path)))
    out.sort(key=lambda ss: sorted(ss.members))
    return out


def statements_sets(
    model: Model, s: str, t: str, rel: str
) -> tuple[list[StatementsSet], list[StatementsSet]]:
    """Width- and depth-statements-sets of ``s`` with respect to ``t`` and ``rel``.

    Both read one predecessor map of the ``rel``-typed, ``t``-typed relations
    between ``t``-typed statements (:func:`typed_predecessors`).
    """
    return statements_sets_from(typed_predecessors(model, t, rel), s, t)


def typed_predecessors(model: Model, t: str, rel: str) -> dict[str, list[str]]:
    """Each statement's predecessors over the ``rel``-typed, ``t``-typed
    relations between ``t``-typed statements: the one map every anchor of
    theme ``t`` and type ``rel`` reads."""
    preds: dict[str, list[str]] = {}
    for r in model.relations:
        if rel not in r.rel_types or t not in r.themes:
            continue
        if t not in model.themes_of(r.source) or t not in model.themes_of(r.target):
            continue
        preds.setdefault(r.target, []).append(r.source)
    return preds


def statements_sets_from(
    preds: dict[str, list[str]], s: str, t: str
) -> tuple[list[StatementsSet], list[StatementsSet]]:
    """:func:`statements_sets` over the map of :func:`typed_predecessors`.

    The unique width set is the anchor and its predecessors, so an anchor
    without theme ``t`` is its own width set and its own only depth set.
    """
    width = StatementsSet("width", frozenset([s, *preds.get(s, ())]))
    return [width], depth_statements_sets(preds, s, t)


def _minimal_representations(masks: Iterable[int], full: int) -> list[frozenset[int]]:
    """All inclusion-minimal subsets of the element masks with the same
    infimum as the whole set, smallest first."""
    elems = sorted(masks)
    n = len(elems)
    if n > MINREP_CAP:
        raise CapExceeded(
            f"aspect set of size {n} exceeds the minimal-representation cap {MINREP_CAP}"
        )
    # meet[b] is the infimum of the elements whose indices are the bits of b
    meet = [full] * (1 << n)
    for b in range(1, 1 << n):
        low = b & -b
        meet[b] = meet[b ^ low] & elems[low.bit_length() - 1]
    target = meet[-1]
    # Dropping an element only raises the meet, so a hit is minimal iff no
    # one-element-smaller subset hits.
    hits = [
        b
        for b in range(1 << n)
        if meet[b] == target and all(meet[b ^ 1 << i] != target for i in range(n) if b >> i & 1)
    ]
    hits.sort(key=int.bit_count)
    return [frozenset(m for i, m in enumerate(elems) if b >> i & 1) for b in hits]


@dataclass(frozen=True)
class RedundancyWitness:
    first: str
    second: str
    shared: frozenset[Element]


def contains_redundancy(
    interp: Interpretation, model: Model, t: str, statement_ids: Iterable[str]
) -> RedundancyWitness | None:
    """A witness pair sharing a minimal representation for theme ``{t}``, if any.

    The defining order compares representations of the statements' aspect sets
    at one theme set; the singleton ``{t}`` of the enclosing statements-set is
    used.  Decided by :func:`first_shared_pair` on a fresh table.
    """
    table = AspectTable(interp, model)
    found = first_shared_pair(table, table.mask([t]), statement_ids)
    if found is None:
        return None
    first, second, shared = found
    algebra = interp.algebra
    return RedundancyWitness(first, second, frozenset(Element(algebra, m) for m in shared))


def first_shared_pair(
    table: AspectTable, tmask: int, statement_ids: Iterable[str]
) -> tuple[str, str, frozenset[int]] | None:
    """The first pair of the statements, in sorted-id order, that shares a
    minimal representation at theme mask ``tmask``, with the least one it
    shares as element masks.

    Whether R is a minimal representation depends only on R and the infimum it
    must reach.  So S1 and S2 share one iff inf S1 = inf S2 = inf(S1 & S2), and
    the shared ones are the minimal representations of S1 & S2.  Pairs are
    therefore compared by their infima, and only a pair whose infima agree
    meets its intersection.
    """
    ids = sorted(set(statement_ids))
    full = table.full_mask
    infs = [table.infs(sid)[tmask] for sid in ids]
    infs = [full if m is None else m for m in infs]  # an empty row meets to the top
    for i, s1 in enumerate(ids):
        for j in range(i + 1, len(ids)):
            if infs[i] != infs[j]:
                continue
            s2 = ids[j]
            (full1, row1), (full2, row2) = table.rows(s1)[tmask], table.rows(s2)[tmask]
            if full1 and full2:
                return s1, s2, frozenset([0])  # both carriers hold the bottom, their infimum
            common = row2 if full1 else row1 if full2 else row1 & row2
            meet = full
            for m in common:
                meet &= m
            if meet == infs[i]:
                return s1, s2, min(_minimal_representations(common, full), key=sorted)
    return None
