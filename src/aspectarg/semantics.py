"""Theme sub-models, acceptability semantics, logico-rhetorical conclusions.

The rhetoric conclusion of a model under a theme set is the set of extensions
of the theme sub-model under a Dung-style acceptability semantics computed on
its attack projection (support edges never affect extension computation).
The logico-rhetorical conclusion joins, over the extensions, the meets of the
members' effective aspects; a conclusion equal to the bottom element exposes
a logically inconsistent rhetoric conclusion, i.e. a logical fallacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import Element
from .errors import CapExceeded, UnknownIdError
from .model import (
    ATTACK,
    AspectTable,
    Interpretation,
    Model,
    Relation,
    maximal_masks,
    theme_subsets,
)

SEMANTICS_IDS = ("grounded", "complete", "preferred", "stable", "naive")

#: Semantics other than grounded enumerate conflict-free statement sets, of
#: which an attack-free graph has 2^n; cap the graph size.  The logical-fallacy
#: scan checks the cap at every theme set with a defined sub-model, also where
#: its bound decides the set without a search.
MAX_ENUMERATED_STATEMENTS = 16


@dataclass(frozen=True)
class SubModel:
    """Restriction of a model to the statements and relations of a theme set."""

    model: Model


def sub_model(model: Model, themes: Iterable[str]) -> SubModel | None:
    """The theme sub-model, or ``None`` when no statement carries a theme of T.

    Relations survive when they carry a theme of T and both endpoints do too;
    an edge whose endpoint drops out cannot be part of a statement graph.
    Typing is intersected with T (attack/support types are kept).  A
    relation, or a statement's theme set, that lies inside T is the model's
    own object; only the rest are intersected.
    """
    t = frozenset(themes)
    if not t.issubset(model.themes):
        for th in sorted(t):
            if th not in model.themes:
                raise UnknownIdError(f"unknown theme id {th!r}")
    typing, kept, kept_typing = model.statement_themes, [], {}
    for s in model.statements:
        ts = typing.get(s.id)
        if ts and not ts <= t:
            ts &= t
        if ts:
            kept.append(s)
            kept_typing[s.id] = ts
    if not kept:
        return None
    relations = []
    for r in model.relations:
        if r.source in kept_typing and r.target in kept_typing:
            rt = r.themes
            if rt <= t:
                if rt:
                    relations.append(r)
            else:
                rt &= t
                if rt:
                    relations.append(Relation(r.source, r.target, r.rel_types, rt))
    restricted = Model(
        tuple(th for th in model.themes if th in t), tuple(kept), kept_typing, tuple(relations)
    )
    return SubModel(restricted)


# ---------------------------------------------------------------------------
# Dung acceptability semantics on the attack projection.
# ---------------------------------------------------------------------------


class _AttackIndex:
    """The attack projection of a model on bit positions.

    Statements are numbered in sorted order and sets of them are ``int``
    masks; each statement has a mask of its attackers and one of its targets.
    """

    def __init__(self, model: Model):
        self.order = sorted(s.id for s in model.statements)
        pos = {a: i for i, a in enumerate(self.order)}
        self.everyone = (1 << len(self.order)) - 1
        self.attackers = [0] * len(self.order)
        self.targets = [0] * len(self.order)
        for r in model.relations:
            if ATTACK in r.rel_types:
                self.attackers[pos[r.target]] |= 1 << pos[r.source]
                self.targets[pos[r.source]] |= 1 << pos[r.target]
        self.self_attacking = sum(
            1 << i for i, targets in enumerate(self.targets) if targets >> i & 1
        )

    def attacked_by(self, s: int) -> int:
        return _union(self.targets, s)

    def attackers_of(self, s: int) -> int:
        return _union(self.attackers, s)

    def defended(self, attacked: int) -> int:
        """The statements all of whose attackers lie in ``attacked``."""
        out = 0
        for i, attackers in enumerate(self.attackers):
            if not attackers & ~attacked:
                out |= 1 << i
        return out

    def grounded(self) -> int:
        """The least fixed point of the defence operator."""
        current = 0
        while True:
            nxt = self.defended(self.attacked_by(current))
            if nxt == current:
                return current
            current = nxt

    def conflict_free_sets(
        self, s: int = 0, attacked: int = 0, attacking: int = 0
    ) -> Iterator[tuple[int, int, int]]:
        """``(S, attacked_by(S), attackers_of(S))`` for every conflict-free S
        that contains the conflict-free seed ``s`` (with its two masks).

        A depth-first search in index order that adds a statement only when
        it is not in the set and neither attacks nor is attacked by it,
        itself included, so it visits every such set once and no other.
        """
        n = len(self.order)
        attackers, targets = self.attackers, self.targets
        stack = [(0, s, attacked, attacking)]
        while stack:
            start, s, attacked, attacking = stack.pop()
            yield s, attacked, attacking
            blocked = s | attacked | attacking | self.self_attacking
            for i in range(start, n):
                bit = 1 << i
                if not blocked & bit:
                    stack.append(
                        (i + 1, s | bit, attacked | targets[i], attacking | attackers[i])
                    )

    def maximal_conflict_free(self) -> list[int]:
        """The maximal conflict-free sets: the maximal cliques of the graph
        that joins two statements that are not self-attacking when neither
        attacks the other, found by Bron–Kerbosch with Tomita's pivot (the
        statement compatible with the most candidates), which reports each
        maximal set once and no smaller one."""
        compatible = [
            self.everyone & ~(attackers | targets | self.self_attacking | 1 << i)
            for i, (attackers, targets) in enumerate(zip(self.attackers, self.targets))
        ]
        found: list[int] = []

        def expand(clique: int, candidates: int, excluded: int) -> None:
            if not candidates | excluded:
                found.append(clique)
                return
            pivot = max(
                _bits(candidates | excluded),
                key=lambda u: (candidates & compatible[u]).bit_count(),
            )
            for v in _bits(candidates & ~compatible[pivot]):
                bit = 1 << v
                expand(clique | bit, candidates & compatible[v], excluded & compatible[v])
                candidates &= ~bit
                excluded |= bit

        expand(0, self.everyone & ~self.self_attacking, 0)
        return found

    def members(self, s: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.order) if s >> i & 1)


def _union(masks: list[int], s: int) -> int:
    """The union of the masks at the positions in ``s``."""
    out = 0
    for i in _bits(s):
        out |= masks[i]
    return out


def _bits(s: int) -> Iterator[int]:
    """The positions of the set bits of ``s``, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _check_enumerable(semantics: str, n: int) -> None:
    """Refuse an unknown semantics, and ``n`` statements past the cap for a
    semantics that enumerates."""
    if semantics not in SEMANTICS_IDS:
        raise ValueError(f"unknown semantics {semantics!r}; choose from {SEMANTICS_IDS}")
    if semantics != "grounded" and n > MAX_ENUMERATED_STATEMENTS:
        raise CapExceeded(
            f"{n} statements exceed the subset-enumeration cap "
            f"{MAX_ENUMERATED_STATEMENTS} for {semantics} semantics"
        )


def extensions(sub: SubModel, semantics: str) -> frozenset[frozenset[str]]:
    """Extensions of the sub-model's attack projection under a semantics."""
    _check_enumerable(semantics, len(sub.model.statements))
    index = _AttackIndex(sub.model)
    if semantics == "grounded":
        return frozenset([index.members(index.grounded())])
    if semantics == "naive":
        found = index.maximal_conflict_free()
    else:
        # complete, preferred and stable extensions are complete, so each
        # contains the grounded extension G and none of what G attacks or
        # what attacks G: search only what G leaves undecided
        grounded = index.grounded()
        candidates = index.conflict_free_sets(
            grounded, index.attacked_by(grounded), index.attackers_of(grounded)
        )
        if semantics == "stable":
            found = [s for s, attacked, _ in candidates if attacked | s == index.everyone]
        else:
            # admissible: every attacker of S is attacked by S
            admissible = [
                (s, attacked) for s, attacked, attacking in candidates if not attacking & ~attacked
            ]
            if semantics == "preferred":
                found = maximal_masks(s for s, _ in admissible)
            else:  # complete: S is exactly what it defends
                found = [s for s, attacked in admissible if index.defended(attacked) == s]
    return frozenset(index.members(s) for s in found)


# ---------------------------------------------------------------------------
# Conclusions.
# ---------------------------------------------------------------------------


def logico_rhetorical_conclusion(
    model: Model,
    interp: Interpretation,
    themes: Iterable[str],
    semantics: str,
) -> Element | None:
    """Join over extensions of the meet of member aspects; ``None`` when absent.

    Absent means: the sub-model is undefined, or no semantics extension is
    non-empty.  Statements whose effective aspect is absent contribute nothing
    to their extension's meet (a meet over nothing is the top element).
    """
    return conclude(model, interp, themes, semantics)[1]


def conclude(
    model: Model,
    interp: Interpretation,
    themes: Iterable[str],
    semantics: str,
) -> tuple[frozenset[frozenset[str]] | None, Element | None]:
    """The rhetoric conclusion (the sub-model's extensions, ``None`` when the
    sub-model is undefined) and the logico-rhetorical conclusion."""
    return _conclude(AspectTable(interp, model), frozenset(themes), semantics)


def _conclude(
    table: AspectTable, t: frozenset[str], semantics: str
) -> tuple[frozenset[frozenset[str]] | None, Element | None]:
    sub = sub_model(table.model, t)
    if sub is None:
        return None, None
    exts = extensions(sub, semantics)
    if not any(ext for ext in exts):
        return exts, None
    tmask = table.mask(t)
    full = table.full_mask
    # one read per statement: extensions share members
    infs = {sid: table.infs(sid)[tmask] for sid in frozenset().union(*exts)}
    joined = 0
    for ext in exts:
        met = full
        for sid in ext:
            eff = infs[sid]
            if eff is not None:
                met &= eff
        joined |= met
    return exts, Element(table.algebra, joined)


@dataclass(frozen=True)
class LogicalFallacyVerdict:
    found: bool
    witness: frozenset[str] | None = None
    conclusion: Element | None = None


def detect_logical_fallacy(
    model: Model, interp: Interpretation, semantics: str
) -> LogicalFallacyVerdict:
    """Scan theme sets for a logico-rhetorical conclusion equal to bottom.

    Only themes actually used by the model are scanned; unused themes yield
    undefined sub-models and an absent conclusion, which is not the bottom
    element.  The first hit by size, then lexicographically over the sorted
    used themes, is the witness.

    Extensions are searched only at theme sets whose sub-model's statements
    meet at bottom.  Every extension lies inside the sub-model, and a meet
    over fewer effective aspects is no smaller, so where all of them meet
    above bottom no extension's meet, nor their join, is bottom.  The
    semantics and the statement cap are still checked at every set with a
    defined sub-model, so errors come from the same set as with a search.
    """
    cases = theme_subsets(sorted(model.used_themes()), min_size=1)
    table = AspectTable(interp, model)
    # each typed statement's infima with the mask of its declared themes
    owns = table.owns()
    typed = [(table.infs(s.id), owns[s.id]) for s in model.statements if owns.get(s.id)]
    for combo in cases:
        tmask = table.mask(combo)
        kept = [infs for infs, own in typed if own & tmask]
        if not kept:
            continue  # the sub-model is undefined
        _check_enumerable(semantics, len(kept))
        met = table.full_mask
        for infs in kept:
            eff = infs[tmask]
            if eff is not None:  # an absent aspect is top
                met &= eff
        if met:
            continue
        t = frozenset(combo)
        conclusion = _conclude(table, t, semantics)[1]
        if conclusion is not None and conclusion.is_bottom:
            return LogicalFallacyVerdict(True, t, conclusion)
    return LogicalFallacyVerdict(False)
