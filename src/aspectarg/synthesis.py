"""Constructive synthesis of an algebra and interpretation satisfying Core.

A well-formed graph meeting the four graphic constraints (theme relevance,
no self-attack, no null pointer, known ordinary statement) plus one
interpretability condition on relation themes (below) always admits an
interpretation satisfying all eight core constraints.  The construction:

* one block of fresh propositions per theme, so the per-theme subalgebras
  are pairwise disjoint apart from 0 and 1;
* inside block j, a strictly increasing chain ``x[j][1] < ... < x[j][N]``
  with ``N = n + n*m + m`` (n ordinary statements, m themes), where
  ``x[j][i]`` is the join of the first i block propositions;
* each statement owns one chain index (ordinary statements first, then
  statement pointers by referenced theme, then summary pointers), and its
  aspects for theme j are the chain tail from its index (a singleton for
  summary pointers);
* multi-theme aspect sets are unions of the single-theme ones, via the
  interpretation's union default (explicit rows for summary pointers, which
  never default);
* every non-empty theme set gets the full carrier as its aspect row.  A
  tighter choice would be the subalgebra generated by the theme's blocks,
  but those carriers are doubly exponential and nothing in Core
  distinguishes them from the full carrier, which stays representable.

Distinct statements get distinct chain indices, so effective aspects along
any relation differ and, lying in a common chain per block, stay comparable;
this is what makes attack and support typings satisfiable at every theme
subset of the relation.

One genuine precondition beyond the four graphic constraints: every theme
typing a relation must be interpretable at both endpoints (for an ordinary
statement, one of its own themes; for a pointer, also the referenced theme,
intersected with the target's themes).  Otherwise the vacuous-interpretation
and proper-range constraints force one endpoint's aspects empty at that
theme while attack-as-attack demands them non-empty, so *no* algebra and
interpretation exist; synthesis reports that instead of looping.
"""

from __future__ import annotations

from .algebra import MAX_PROPS, mk_algebra
from .errors import (
    CapExceeded,
    CoreUnsatisfiableError,
    GraphicPreconditionError,
    ModelError,
    SynthesisError,
)
from .model import (
    FULL_ROW,
    ElementNames,
    Interpretation,
    Model,
    Row,
    Statement,
    theme_subsets,
    validate_wellformed,
)
from .constraints import check_core, check_graphic


def aspect_support(model: Model, stmt: Statement) -> frozenset[str]:
    """Themes at which the statement can carry aspects under Core."""
    own = model.themes_of(stmt.id)
    if not stmt.is_pointer:
        return own
    widened = own | {stmt.ref_theme}
    if stmt.is_summary_pointer:
        return widened
    return widened & model.themes_of(stmt.ref_target)


def synthesize_core_witness(model: Model) -> Interpretation:
    """Build and self-verify a Core-satisfying algebra and interpretation.

    Each chain element is named ``w{j}_1 | ... | w{j}_i`` in the
    interpretation's ``formulas``.

    Inputs whose witness needs more than :data:`~aspectarg.algebra.MAX_PROPS`
    propositions are refused, so every witness loads as a model file.
    """
    graphic = check_graphic(model)
    failed = sorted(cid for cid in ("tr", "nsa", "nnp", "kos") if graphic[cid])
    if failed:
        raise GraphicPreconditionError(failed)
    problems = validate_wellformed(model)
    if problems:
        raise ModelError(
            "model is not well-formed: " + "; ".join(v.detail for v in problems[:3])
        )

    themes = list(model.themes)
    m = len(themes)
    ordinary = list(model.ordinary_ids())
    n = len(ordinary)

    supports = {s.id: aspect_support(model, s) for s in model.statements}
    for r in model.relations:
        for t in sorted(r.themes & set(themes)):
            for endpoint in (r.source, r.target):
                if t not in supports[endpoint]:
                    raise CoreUnsatisfiableError(
                        f"relation {r.pair} is typed with theme {t!r}, which statement "
                        f"{endpoint} cannot carry aspects for; vacuous-interpretation and "
                        "proper-range then force its aspects empty there while "
                        "attack-as-attack demands them non-empty, so no interpretation "
                        "can satisfy Core"
                    )

    if m == 0:
        return Interpretation(mk_algebra(["w1_1"]))

    chain_len = n + n * m + m
    total_props = m * chain_len
    if total_props > MAX_PROPS:
        raise CapExceeded(
            f"witness needs {total_props} propositions "
            f"({m} themes x chain length {chain_len}), above the cap {MAX_PROPS}"
        )

    prop_names = [f"w{j}_{i}" for j in range(1, m + 1) for i in range(1, chain_len + 1)]
    algebra = mk_algebra(prop_names)

    # chain element i of block j is w{j}_1 | ... | w{j}_i (1-based i), strictly
    # increasing in i; a row is a set of chain masks, built by unions of the
    # one-mask sets below, so each mask is hashed once, not once per row
    singles: dict[int, list[frozenset[int]]] = {}
    tails: dict[int, list[frozenset[int]]] = {}
    formulas: list[tuple[int, str]] = []
    for j in range(1, m + 1):
        joined = 0
        singles[j] = [frozenset()]
        for i in range(1, chain_len + 1):
            joined |= algebra.prop(f"w{j}_{i}").mask
            singles[j].append(frozenset((joined,)))
            formulas.append((joined, " | ".join(f"w{j}_{h}" for h in range(1, i + 1))))
        # tails[j][i] = {chain element h of block j : h >= i}
        tails[j] = [frozenset()] * (chain_len + 2)
        for i in range(chain_len, 0, -1):
            tails[j][i] = tails[j][i + 1] | singles[j][i]

    ordinary_index = {sid: i + 1 for i, sid in enumerate(ordinary)}
    theme_index = {t: j + 1 for j, t in enumerate(themes)}

    def chain_index(stmt: Statement) -> int:
        if not stmt.is_pointer:
            return ordinary_index[stmt.id]
        l = theme_index[stmt.ref_theme]
        if stmt.is_summary_pointer:
            return n + n * m + l
        return n + (l - 1) * n + ordinary_index[stmt.ref_target]

    statement_rows: dict[tuple[frozenset[str], str], Row] = {}

    def row_for(stmt: Statement, theme: str) -> frozenset[int]:
        j = theme_index[theme]
        start = chain_index(stmt)
        return singles[j][start] if stmt.is_summary_pointer else tails[j][start]

    for stmt in model.statements:
        eligible = [t for t in themes if t in supports[stmt.id]]
        for t in eligible:
            statement_rows[(frozenset([t]), stmt.id)] = (False, row_for(stmt, t))
        if stmt.is_summary_pointer and eligible:
            # summary pointers never default across theme sets: spell out unions
            for combo in theme_subsets(themes, min_size=2):
                chosen = [t for t in combo if t in eligible]
                if chosen:
                    masks = frozenset().union(*(row_for(stmt, t) for t in chosen))
                    statement_rows[(frozenset(combo), stmt.id)] = (False, masks)

    theme_rows = {frozenset(combo): FULL_ROW for combo in theme_subsets(themes, min_size=1)}

    interp = Interpretation(algebra, theme_rows, statement_rows, ElementNames(formulas))

    # m * m <= MAX_PROPS, so m is far below the theme cap of check_core
    found = check_core(model, interp)
    # each list is in sort_key order, which leads with the constraint id
    leftover = [v for cid in sorted(found) for v in found[cid]]
    if leftover:
        raise SynthesisError(
            "synthesized interpretation failed self-verification: "
            + "; ".join(v.detail for v in leftover[:5])
        )
    return interp
