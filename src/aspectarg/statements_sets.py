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
from .model import REL_TYPES, AspectTable, Interpretation, Model, maximal_masks

#: Largest aspect set we will search for minimal representations (2**cap subsets).
MINREP_CAP = 16
#: Most (head, members) states one depth-statements-set search may reach.
DEPTH_STATE_CAP = 1 << 18


class ThemeGraph:
    """The statements of theme ``t`` as bits, and each relation type's
    ``t``-typed relations between them as predecessor masks.

    Statement ``ids[i]`` has bit ``1 << i``, in sorted-id order, and
    ``preds[rel][b]`` holds the ``rel``-predecessors of the statement with bit
    ``b``.  Every anchor of theme ``t`` reads this one numbering, so a
    statements-set is a mask.  A relation type outside :data:`REL_TYPES` is
    ignored.
    """

    __slots__ = ("theme", "ids", "bit", "preds")

    def __init__(self, model: Model, t: str):
        self.theme = t
        self.ids = sorted(sid for sid, ts in model.statement_themes.items() if t in ts)
        self.bit = bit = {sid: 1 << i for i, sid in enumerate(self.ids)}
        self.preds = preds = {rel: dict.fromkeys(bit.values(), 0) for rel in REL_TYPES}
        for r in model.relations:
            source, target = bit.get(r.source), bit.get(r.target)
            if t not in r.themes or source is None or target is None:
                continue
            for rel in r.rel_types & preds.keys():
                preds[rel][target] |= source

    def members(self, mask: int) -> list[str]:
        """The sorted ids of the statements of ``mask``."""
        return [sid for i, sid in enumerate(self.ids) if mask >> i & 1]

    def width_set(self, s: str, rel: str) -> int:
        """The unique width-statements-set of ``s``: it and its predecessors."""
        return self.bit[s] | self.preds[rel][self.bit[s]]

    def depth_sets(self, s: str, rel: str) -> list[int]:
        """All maximal depth-statements-sets of ``s``, largest first.

        Searches simple paths ending at ``s``, growing them at their head.
        Whether a path can grow depends only on its head and its members, so
        each (head bit, members mask) state is expanded once; the states
        reached are kept as each head's set of member masks, and no path is
        kept.  A path that can grow is not maximal, so the maximal sets are the
        set-maximal members of the states that cannot.  Raises
        :class:`CapExceeded` past :data:`DEPTH_STATE_CAP` states, the start
        included.
        """
        preds = self.preds[rel]
        start = self.bit[s]
        seen = {head: set() for head in preds}
        seen[start].add(start)
        count = 1
        stack = [(start, start)]
        ends = set()  # members of a state that cannot grow
        while stack:
            head, members = stack.pop()
            free = preds[head] & ~members
            if not free:
                ends.add(members)
            while free:
                bit = free & -free
                free ^= bit
                grown = members | bit
                if grown not in seen[bit]:
                    if count >= DEPTH_STATE_CAP:
                        raise CapExceeded(
                            f"the depth-statements-set search of {s} for theme {self.theme!r} "
                            f"exceeds the cap of {DEPTH_STATE_CAP} path states"
                        )
                    count += 1
                    seen[bit].add(grown)
                    stack.append((bit, grown))
        return maximal_masks(ends)


def statements_sets(
    model: Model, s: str, t: str, rel: str
) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    """Width- and depth-statements-sets of ``s`` with respect to ``t`` and ``rel``,
    the depth sets in order of their sorted members.

    Both are read from the :class:`ThemeGraph` of ``t``.  An anchor without
    theme ``t`` is its own width set and its own only depth set.
    """
    graph = ThemeGraph(model, t)
    if s not in graph.bit or rel not in graph.preds:
        return [frozenset([s])], [frozenset([s])]
    depths = sorted(graph.members(m) for m in graph.depth_sets(s, rel))
    return [frozenset(graph.members(graph.width_set(s, rel)))], [frozenset(d) for d in depths]


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
