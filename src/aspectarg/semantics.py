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
from itertools import combinations
from typing import Iterable

from .algebra import Element
from .errors import CapExceeded, UnknownIdError
from .model import (
    ATTACK,
    MAX_THEMES,
    AspectTable,
    Interpretation,
    Model,
    Relation,
    theme_subsets,
)

SEMANTICS_IDS = ("grounded", "complete", "preferred", "stable", "naive")

#: Enumeration-based semantics scan all statement subsets; cap the graph size.
MAX_ENUMERATED_STATEMENTS = 16


@dataclass(frozen=True)
class SubModel:
    """Restriction of a model to the statements and relations of a theme set."""

    model: Model
    parent_themes: frozenset[str]


def sub_model(model: Model, themes: Iterable[str]) -> SubModel | None:
    """The theme sub-model, or ``None`` when no statement carries a theme of T.

    Relations survive when they carry a theme of T and both endpoints do too;
    an edge whose endpoint drops out cannot be part of a statement graph.
    Typing is intersected with T (attack/support types are kept).
    """
    t = frozenset(themes)
    for th in t:
        if th not in model.themes:
            raise UnknownIdError(f"unknown theme id {th!r}")
    kept_statements = [s for s in model.statements if model.themes_of(s.id) & t]
    if not kept_statements:
        return None
    kept_ids = {s.id for s in kept_statements}
    relations = tuple(
        Relation(r.source, r.target, r.rel_types, r.themes & t)
        for r in model.relations
        if r.themes & t and r.source in kept_ids and r.target in kept_ids
    )
    restricted = Model(
        tuple(th for th in model.themes if th in t),
        tuple(kept_statements),
        {s.id: model.themes_of(s.id) & t for s in kept_statements},
        relations,
    )
    return SubModel(restricted, t)


# ---------------------------------------------------------------------------
# Dung acceptability semantics on the attack projection.
# ---------------------------------------------------------------------------


def attack_graph(model: Model) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    args = frozenset(s.id for s in model.statements)
    attacks = frozenset(r.pair for r in model.relations if ATTACK in r.rel_types)
    return args, attacks


def _conflict_free(s: frozenset[str], attacks: frozenset[tuple[str, str]]) -> bool:
    return not any(a in s and b in s for a, b in attacks)


def _defends(s: frozenset[str], arg: str, attacks: frozenset[tuple[str, str]]) -> bool:
    attackers = [a for (a, target) in attacks if target == arg]
    return all(any((c, b) in attacks for c in s) for b in attackers)


def grounded_extension(
    args: frozenset[str], attacks: frozenset[tuple[str, str]]
) -> frozenset[str]:
    """Least fixed point of the defence operator."""
    current: frozenset[str] = frozenset()
    while True:
        nxt = frozenset(a for a in args if _defends(current, a, attacks))
        if nxt == current:
            return current
        current = nxt


def _all_subsets(args: frozenset[str]) -> Iterable[frozenset[str]]:
    items = sorted(args)
    for n in range(len(items) + 1):
        for combo in combinations(items, n):
            yield frozenset(combo)


def extensions(sub: SubModel, semantics: str) -> frozenset[frozenset[str]]:
    """Extensions of the sub-model's attack projection under a semantics."""
    if semantics not in SEMANTICS_IDS:
        raise ValueError(f"unknown semantics {semantics!r}; choose from {SEMANTICS_IDS}")
    args, attacks = attack_graph(sub.model)
    if semantics == "grounded":
        return frozenset([grounded_extension(args, attacks)])
    if len(args) > MAX_ENUMERATED_STATEMENTS:
        raise CapExceeded(
            f"{len(args)} statements exceed the subset-enumeration cap "
            f"{MAX_ENUMERATED_STATEMENTS} for {semantics} semantics"
        )
    candidates = [s for s in _all_subsets(args) if _conflict_free(s, attacks)]
    if semantics == "naive":
        return _maximal(candidates)
    admissible = [
        s for s in candidates if all(_defends(s, a, attacks) for a in s)
    ]
    if semantics == "preferred":
        return _maximal(admissible)
    if semantics == "stable":
        return frozenset(
            s
            for s in candidates
            if all(any((a, b) in attacks for a in s) for b in args - s)
        )
    # complete: admissible and containing everything it defends
    return frozenset(
        s
        for s in admissible
        if all(a in s for a in args if _defends(s, a, attacks))
    )


def _maximal(sets: list[frozenset[str]]) -> frozenset[frozenset[str]]:
    return frozenset(s for s in sets if not any(s < other for other in sets))


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
    return _conclusion(AspectTable(interp, model), frozenset(themes), semantics)


def _conclusion(table: AspectTable, t: frozenset[str], semantics: str) -> Element | None:
    sub = sub_model(table.model, t)
    if sub is None:
        return None
    exts = extensions(sub, semantics)
    if not any(ext for ext in exts):
        return None
    tmask = table.mask(t)
    full = table.algebra.full_mask
    joined = 0
    for ext in exts:
        met = full
        for sid in ext:
            eff = table.inf(tmask, sid)
            if eff is not None:
                met &= eff
        joined |= met
    return Element(table.algebra, joined)


@dataclass(frozen=True)
class LogicalFallacyVerdict:
    found: bool
    witness: frozenset[str] | None = None
    conclusion: Element | None = None


def detect_logical_fallacy(
    model: Model,
    interp: Interpretation,
    semantics: str,
    max_themes: int = MAX_THEMES,
) -> LogicalFallacyVerdict:
    """Scan theme sets for a logico-rhetorical conclusion equal to bottom.

    Only themes actually used by the model are scanned; unused themes yield
    undefined sub-models and an absent conclusion, which is not the bottom
    element.  The first hit by size, then lexicographically over the sorted
    used themes, is the witness.
    """
    cases = theme_subsets(sorted(model.used_themes()), max_themes, min_size=1)
    table = AspectTable(interp, model)
    for combo in cases:
        t = frozenset(combo)
        conclusion = _conclusion(table, t, semantics)
        if conclusion is not None and conclusion.is_bottom:
            return LogicalFallacyVerdict(True, t, conclusion)
    return LogicalFallacyVerdict(False)
