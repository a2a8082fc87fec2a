"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately re-derive results from first principles
(truth tables, subset enumeration, permutation search) so they share no code
path with the implementations they check.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, permutations

from aspectarg.algebra import Algebra, Element, mk_algebra
from aspectarg.errors import FormulaError
from aspectarg.formulas import And, Atom, Const, Iff, Implies, Not, Or
from aspectarg.model import (
    ATTACK,
    OMEGA,
    SUPPORT,
    AspectSet,
    Interpretation,
    Model,
    Relation,
    Statement,
)

# ---------------------------------------------------------------------------
# Truth-table oracle for the formula language.
# ---------------------------------------------------------------------------


def eval_bool(expr, assignment: dict[str, bool]) -> bool:
    if isinstance(expr, Atom):
        return assignment[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return not eval_bool(expr.operand, assignment)
    if isinstance(expr, And):
        return eval_bool(expr.left, assignment) and eval_bool(expr.right, assignment)
    if isinstance(expr, Or):
        return eval_bool(expr.left, assignment) or eval_bool(expr.right, assignment)
    if isinstance(expr, Implies):
        return (not eval_bool(expr.left, assignment)) or eval_bool(expr.right, assignment)
    if isinstance(expr, Iff):
        return eval_bool(expr.left, assignment) == eval_bool(expr.right, assignment)
    raise TypeError(expr)


def truth_table_element(expr, algebra: Algebra) -> Element:
    """Evaluate an expression by brute-force truth table."""
    mask = 0
    for m in range(algebra.n_minterms):
        assignment = {name: bool((m >> i) & 1) for i, name in enumerate(algebra.props)}
        if eval_bool(expr, assignment):
            mask |= 1 << m
    return Element(algebra, mask)


# ---------------------------------------------------------------------------
# Atoms, join-irreducibles and the atom representation eta, from their
# definitions: the paper's algebra preliminaries, which the package itself
# never needs to compute.
# ---------------------------------------------------------------------------


def atoms(algebra: Algebra) -> frozenset[Element]:
    """The minimal non-bottom elements: one per minterm."""
    return frozenset(Element(algebra, 1 << m) for m in range(algebra.n_minterms))


def join_irreducibles(algebra: Algebra) -> frozenset[Element]:
    """Elements x != 0 such that x = y | z forces x in {y, z}.

    Computed from the definition by scanning candidate decompositions, so
    tests can compare it against ``atoms`` without circularity.
    """
    out = []
    for x in algebra.elements():
        if x.is_bottom:
            continue
        if not _has_proper_join_decomposition(x):
            out.append(x)
    return frozenset(out)


def _has_proper_join_decomposition(x: Element) -> bool:
    parts = x.minterms()
    # Every y, z <= x is a pair of subsets of x's minterms; scan them.
    n = len(parts)
    for ybits in range(1 << n):
        ymask = sum(1 << parts[i] for i in range(n) if (ybits >> i) & 1)
        if ymask == x.mask:
            continue
        for zbits in range(1 << n):
            zmask = sum(1 << parts[i] for i in range(n) if (zbits >> i) & 1)
            if zmask != x.mask and (ymask | zmask) == x.mask:
                return True
    return False


def eta(a: Element) -> frozenset[Element]:
    """The atoms below ``a`` (the powerset-of-atoms representation of a)."""
    return frozenset(Element(a.algebra, 1 << m) for m in a.minterms())


# ---------------------------------------------------------------------------
# Reference formula reader: the tokenizer, parser and evaluator the package
# used before formulas were folded straight to masks, kept unchanged so the
# loader's error texts and offsets can be compared with them.
# ---------------------------------------------------------------------------

_ORACLE_TOKEN = re.compile(r"\s*(<->|->|[&|~()]|[01]|[A-Za-z_][A-Za-z0-9_]*)")
_ORACLE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ORACLE_MAX_DEPTH = 100


def _oracle_tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaError(f"unexpected character {stripped[0]!r}", offset=len(text) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _OracleParser:
    """Recursive descent; every rule returns its tree and the tree's depth."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _oracle_tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next_offset(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise FormulaError(f"expected {tok!r}", offset=self.next_offset())
        self.take()

    def too_deep(self, offset: int) -> FormulaError:
        return FormulaError(f"formula nests deeper than {_ORACLE_MAX_DEPTH} levels", offset=offset)

    def descend(self, offset: int) -> None:
        self.nesting += 1
        if self.nesting > _ORACLE_MAX_DEPTH:
            raise self.too_deep(offset)

    def joined(self, cls, left, right, offset: int):
        depth = max(left[1], right[1]) + 1
        if depth > _ORACLE_MAX_DEPTH:
            raise self.too_deep(offset)
        return cls(left[0], right[0]), depth

    def parse_iff(self):
        e = self.parse_implies()
        while self.peek() == "<->":
            offset = self.next_offset()
            self.take()
            e = self.joined(Iff, e, self.parse_implies(), offset)
        return e

    def parse_implies(self):
        e = self.parse_or()
        if self.peek() == "->":
            offset = self.next_offset()
            self.take()
            self.descend(offset)
            right = self.parse_implies()
            self.nesting -= 1
            return self.joined(Implies, e, right, offset)
        return e

    def parse_or(self):
        e = self.parse_and()
        while self.peek() == "|":
            offset = self.next_offset()
            self.take()
            e = self.joined(Or, e, self.parse_and(), offset)
        return e

    def parse_and(self):
        e = self.parse_unary()
        while self.peek() == "&":
            offset = self.next_offset()
            self.take()
            e = self.joined(And, e, self.parse_unary(), offset)
        return e

    def parse_unary(self):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input", offset=len(self.text))
        offset = self.next_offset()
        if tok == "~":
            self.take()
            self.descend(offset)
            operand, depth = self.parse_unary()
            self.nesting -= 1
            e = Not(operand)
        elif tok == "(":
            self.take()
            self.descend(offset)
            e, depth = self.parse_iff()
            self.nesting -= 1
            self.expect(")")
        elif tok == "0" or tok == "1":
            self.take()
            return Const(tok == "1"), 0
        elif _ORACLE_IDENT.match(tok):
            self.take()
            return Atom(tok), 0
        else:
            raise FormulaError(f"unexpected token {tok!r}", offset=offset)
        if depth + 1 > _ORACLE_MAX_DEPTH:
            raise self.too_deep(offset)
        return e, depth + 1


def _oracle_evaluate(expr, algebra: Algebra) -> Element:
    if isinstance(expr, Atom):
        return algebra.prop(expr.name)
    if isinstance(expr, Const):
        return algebra.top if expr.value else algebra.bottom
    if isinstance(expr, Not):
        return ~_oracle_evaluate(expr.operand, algebra)
    if isinstance(expr, And):
        return _oracle_evaluate(expr.left, algebra) & _oracle_evaluate(expr.right, algebra)
    if isinstance(expr, Or):
        return _oracle_evaluate(expr.left, algebra) | _oracle_evaluate(expr.right, algebra)
    if isinstance(expr, Implies):
        return ~_oracle_evaluate(expr.left, algebra) | _oracle_evaluate(expr.right, algebra)
    if isinstance(expr, Iff):
        left, right = _oracle_evaluate(expr.left, algebra), _oracle_evaluate(expr.right, algebra)
        return (~left | right) & (~right | left)
    raise TypeError(f"not an aspect expression: {expr!r}")


def oracle_parse(text: str):
    """The tree of ``text`` by the reference parser; raises its :class:`FormulaError`."""
    if not text.strip():
        raise FormulaError("empty formula", offset=0)
    p = _OracleParser(text)
    e, _ = p.parse_iff()
    if p.peek() is not None:
        raise FormulaError(f"trailing input {p.peek()!r}", offset=p.next_offset())
    return e


def oracle_formula(text: str, algebra: Algebra):
    """The tree of ``text`` by the reference reader, after evaluating it over
    ``algebra``; raises the reference's :class:`FormulaError` or
    :class:`AlgebraError` on bad input."""
    e = oracle_parse(text)
    _oracle_evaluate(e, algebra)
    return e


def random_expr(rng: random.Random, names: list[str], depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return Const(rng.random() < 0.5)
        return Atom(rng.choice(names))
    kind = rng.choice(["not", "and", "or", "implies", "iff"])
    if kind == "not":
        return Not(random_expr(rng, names, depth - 1))
    left = random_expr(rng, names, depth - 1)
    right = random_expr(rng, names, depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind](left, right)


# ---------------------------------------------------------------------------
# Brute-force statements-sets oracles.
# ---------------------------------------------------------------------------


def oracle_width_sets(model: Model, s: str, t: str, rel: str) -> list[frozenset[str]]:
    """Maximal sets per the width definition, anchor membership excepted."""
    edges = {r.pair: r for r in model.relations}
    ids = [st.id for st in model.statements]

    def qualifies(members: frozenset[str]) -> bool:
        if s not in members:
            return False
        for other in members - {s}:
            r = edges.get((other, s))
            if r is None or rel not in r.rel_types or t not in r.themes:
                return False
            if t not in model.themes_of(other) or t not in model.themes_of(s):
                return False
        return True

    qualifying = [
        frozenset(c) | {s}
        for n in range(len(ids) + 1)
        for c in combinations(ids, n)
        if qualifies(frozenset(c) | {s})
    ]
    qualifying = list(set(qualifying))
    return [q for q in qualifying if not any(q < other for other in qualifying)]


def oracle_depth_sets(model: Model, s: str, t: str, rel: str) -> list[frozenset[str]]:
    """Maximal sets per the depth definition, by permutation search."""
    edges = {r.pair: r for r in model.relations}
    ids = [st.id for st in model.statements]

    def is_path(order: tuple[str, ...]) -> bool:
        if order[-1] != s:
            return False
        for sid in order:
            if t not in model.themes_of(sid):
                return False
        for a, b in zip(order, order[1:]):
            r = edges.get((a, b))
            if r is None or rel not in r.rel_types or t not in r.themes:
                return False
        return True

    def qualifies(members: frozenset[str]) -> bool:
        return any(is_path(order) for order in permutations(members))

    qualifying = [
        frozenset(c) | {s}
        for n in range(len(ids) + 1)
        for c in combinations(ids, n)
        if s in (set(c) | {s}) and qualifies(frozenset(c) | {s})
    ]
    qualifying = list(set(qualifying))
    return [q for q in qualifying if not any(q < other for other in qualifying)]


def oracle_redundancy(
    algebra: Algebra, rows: dict[str, frozenset[int] | None]
) -> tuple[str, str, frozenset[int]] | None:
    """The first pair of statements (in id order) sharing a minimal
    representation, with the least shared one by sorted masks, else ``None``.

    ``rows`` maps statements to element masks, ``None`` standing for the
    full carrier.  R is a minimal representation of S when R is a subset of
    S with inf R = inf S (the empty meet being the top) and no proper subset
    of R has that infimum.  Candidates are every subset of both rows, taken
    in lexicographic order of their sorted masks.
    """

    def members(sid: str) -> set[int]:
        row = rows[sid]
        return set(range(algebra.carrier_size)) if row is None else set(row)

    def inf(masks) -> int:
        out = algebra.full_mask
        for m in masks:
            out &= m
        return out

    def minimal_representation(r: tuple[int, ...], row: set[int]) -> bool:
        target = inf(row)
        return (
            set(r) <= row
            and inf(r) == target
            and not any(inf(q) == target for n in range(len(r)) for q in combinations(r, n))
        )

    def subsets_in_order(elems: list[int]):
        yield ()
        for i, e in enumerate(elems):
            for rest in subsets_in_order(elems[i + 1 :]):
                yield (e,) + rest

    ids = sorted(rows)
    for i, s1 in enumerate(ids):
        for s2 in ids[i + 1 :]:
            a, b = members(s1), members(s2)
            for r in subsets_in_order(sorted(a & b)):
                if minimal_representation(r, a) and minimal_representation(r, b):
                    return s1, s2, frozenset(r)
    return None


def oracle_fresh_aspects(
    model: Model, interp: Interpretation
) -> list[tuple[str, tuple[str, str, str], tuple[str], str]]:
    """(constraint, statements, theme set, type) of each faW and faD record,
    in report order, from the statements-set and redundancy oracles alone.

    For each statement, each of its declared themes t and each relation
    type, every width (faW) or depth (faD) statements-set with a redundant
    pair, its rows read at {t} by the defaulting rule, gives one record
    (anchor, first, second) per distinct pair.
    """
    out = set()
    for s in model.statements:
        for t in sorted(model.themes_of(s.id) & set(model.themes)):

            def row(sid: str) -> frozenset[int] | None:
                full, masks = oracle_aspects(interp, model, {t}, sid)
                return None if full else frozenset(masks)

            for rel in (ATTACK, SUPPORT):
                for cid, sets in (
                    ("faW", oracle_width_sets(model, s.id, t, rel)),
                    ("faD", oracle_depth_sets(model, s.id, t, rel)),
                ):
                    for members in sets:
                        found = oracle_redundancy(interp.algebra, {m: row(m) for m in members})
                        if found is not None:
                            out.add((cid, (s.id, found[0], found[1]), (t,), rel))
    return sorted(out)


# ---------------------------------------------------------------------------
# Relation-kind oracle.
# ---------------------------------------------------------------------------


def oracle_relation_kinds(u: Element | None, v: Element | None) -> frozenset[str]:
    """The relation kinds of a source aspect ``u`` against a target aspect
    ``v``, read off their definitions in the lattice order; exactly
    ``{"undefined"}`` when either aspect is absent."""
    if u is None or v is None:
        return frozenset({"undefined"})
    kinds = set()
    if u == v:
        kinds.add("affirmation")
    if u < v:
        kinds.add("strengthening")
    if v < u:
        kinds.add("weakening")
    if u <= ~v:
        kinds.add("contrary")
    if ~v < u:
        kinds.add("weakened_contradiction")
    if not (u.comparable(v) or u.comparable(~v)):
        kinds.add("incomparable_alternative")
    return frozenset(kinds)


# ---------------------------------------------------------------------------
# Set operations on aspect sets, where a full row stands for the carrier.
# ---------------------------------------------------------------------------


def issubset(a: AspectSet, b: AspectSet) -> bool:
    if b.full:
        return True
    if a.full:
        return False  # a full carrier never fits in a non-full set
    return a.elements <= b.elements


def intersection(a: AspectSet, b: AspectSet) -> AspectSet:
    if a.full:
        return b
    if b.full:
        return a
    return AspectSet(a.algebra, a.elements & b.elements)


def union(a: AspectSet, b: AspectSet) -> AspectSet:
    if a.full or b.full:
        return AspectSet(a.algebra, full=True)
    return AspectSet(a.algebra, a.elements | b.elements)


# ---------------------------------------------------------------------------
# Graphic-constraint oracle.
# ---------------------------------------------------------------------------


def oracle_graphic(
    model: Model,
) -> list[tuple[str, tuple[str, ...], tuple[str, str] | None, tuple[str, ...] | None]]:
    """(constraint, statements, relation, theme set) of each graphic
    violation, read off the definitions over the raw graph, sorted:

    * tr: a relation has a theme that both its endpoints have;
    * nsa: no statement attacks itself under a theme;
    * nnp: a pointer to a statement names an ordinary statement of the graph
      that has the pointer's theme, and a pointer to a theme's summary names
      a theme some statement has;
    * kos: a pointer to an ordinary statement of the graph has only themes
      of that statement;
    * nss: no relation is both an attack and a support, and no statement
      supports both ends of an attack, or is supported by both, under a
      shared theme.
    """
    by_id = {s.id: s for s in model.statements}

    def themes(sid: str) -> frozenset[str]:
        return frozenset(model.statement_themes.get(sid, ()))

    def ordinary(sid: str) -> bool:
        return sid in by_id and by_id[sid].ref_theme is None

    supports = {r.pair: r.themes for r in model.relations if SUPPORT in r.rel_types}
    out = []
    for r in model.relations:
        if not r.themes & themes(r.source) & themes(r.target):
            out.append(("tr", (), r.pair, None))
        if r.source == r.target and ATTACK in r.rel_types and r.themes:
            out.append(("nsa", (), r.pair, None))
        if ATTACK not in r.rel_types:
            continue
        if SUPPORT in r.rel_types:
            out.append(("nss", (), r.pair, None))
        for s in by_id:
            for a, b in (
                ((s, r.source), (s, r.target)),  # s supports both ends
                ((r.source, s), (r.target, s)),  # both ends support s
            ):
                if a in supports and b in supports and supports[a] & supports[b]:
                    shared = tuple(sorted(supports[a] & supports[b]))
                    out.append(("nss", (s,), r.pair, shared))
    for p in model.statements:
        if p.ref_theme is None:
            continue
        if p.ref_target is None:
            if not any(p.ref_theme in themes(s) for s in by_id):
                out.append(("nnp", (p.id,), None, None))
            continue
        if not (ordinary(p.ref_target) and p.ref_theme in themes(p.ref_target)):
            out.append(("nnp", (p.id,), None, None))
        if ordinary(p.ref_target) and not themes(p.id) <= themes(p.ref_target):
            out.append(("kos", (p.id,), None, None))
    return sorted(out, key=repr)


# ---------------------------------------------------------------------------
# Rows under the defaulting rule, read off the raw rows.
# ---------------------------------------------------------------------------


def oracle_aspects(interp: Interpretation, model: Model, themes, s: str) -> tuple[bool, set]:
    """(full, element masks) of a lookup, from the paper's defaulting rule.

    An explicit row wins.  Otherwise the empty and singleton theme sets read
    empty, summary pointers read empty (they are explicit only), and larger
    sets read the union of the singleton rows.
    """
    t = frozenset(themes)
    if s == OMEGA:
        row = interp.theme_aspects.get(t)
    else:
        row = interp.statement_aspects.get((t, s))
    if row is not None:
        full, masks = row
        return full, set(masks)
    summary = any(x.id == s and x.ref_theme and x.ref_target is None for x in model.statements)
    if s == OMEGA or len(t) < 2 or summary:
        return False, set()
    full, masks = False, set()
    for th in t:
        single = interp.statement_aspects.get((frozenset([th]), s))
        if single is not None:
            full = full or single[0]
            masks |= single[1]
    if full or len(masks) == 1 << interp.algebra.n_minterms:
        return True, set()
    return False, masks


def oracle_effective(interp: Interpretation, full: bool, masks: set) -> int | None:
    if full:
        return 0  # the whole carrier contains the bottom element
    if not masks:
        return None
    out = (1 << interp.algebra.n_minterms) - 1
    for m in masks:
        out &= m
    return out


def with_extra_rows(rng: random.Random, model: Model, interp: Interpretation) -> Interpretation:
    """Add explicit multi-theme, empty-set and full rows."""
    algebra = interp.algebra
    rows = dict(interp.statement_aspects)
    theme_sets = [frozenset(c) for n in range(len(model.themes) + 1)
                  for c in combinations(model.themes, n)]
    for s in model.statements:
        for t in rng.sample(theme_sets, min(2, len(theme_sets))):
            if rng.random() < 0.2:
                rows[(t, s.id)] = AspectSet(algebra, full=True)
            else:
                masks = rng.sample(range(algebra.carrier_size), rng.randint(0, 3))
                rows[(t, s.id)] = AspectSet(algebra, frozenset(Element(algebra, m) for m in masks))
    return Interpretation(algebra, interp.theme_aspects, rows)


def with_odd_omega_rows(rng: random.Random, model: Model, interp: Interpretation) -> Interpretation:
    """Replace some omega rows, the empty theme set's included, with one to
    three random elements: rows that are seldom subalgebras, some of one
    element only."""
    algebra = interp.algebra
    omega = dict(interp.theme_aspects)
    theme_sets = [frozenset(c) for n in range(len(model.themes) + 1)
                  for c in combinations(model.themes, n)]
    for t in rng.sample(theme_sets, rng.randint(1, len(theme_sets))):
        masks = rng.sample(range(algebra.carrier_size), rng.randint(1, 3))
        omega[t] = AspectSet(algebra, frozenset(Element(algebra, m) for m in masks))
    return Interpretation(algebra, omega, interp.statement_aspects)


def oracle_lookup(interp: Interpretation, model: Model, themes, s: str) -> AspectSet:
    """:func:`oracle_aspects` as an :class:`AspectSet`."""
    full, masks = oracle_aspects(interp, model, themes, s)
    algebra = interp.algebra
    return AspectSet(algebra, frozenset(Element(algebra, m) for m in masks), full)


# ---------------------------------------------------------------------------
# Exact-region oracle.
# ---------------------------------------------------------------------------


def oracle_exact_region(
    model: Model, interp: Interpretation
) -> list[tuple[str, str, tuple[str, ...], tuple[str, ...]]]:
    """(constraint, statement, theme set, theme set 2) for every esr, ensr and
    eos witness, read off the definition through :func:`oracle_lookup`: a
    statement's aspects at two theme sets must agree inside the aspects the
    two theme sets share.  Theme sets come by size, then in ``combinations``
    order over the declared themes, and the earlier of a pair is the first
    theme set."""
    themes = list(dict.fromkeys(model.themes))
    theme_sets = [c for n in range(len(themes) + 1) for c in combinations(themes, n)]

    def same(a: AspectSet, b: AspectSet) -> bool:
        return issubset(a, b) and issubset(b, a)

    out = []
    for t1, t2 in combinations(theme_sets, 2):
        common = intersection(
            oracle_lookup(interp, model, t1, OMEGA), oracle_lookup(interp, model, t2, OMEGA)
        )
        if common.is_empty:
            continue
        for s in model.statements:
            if s.ref_theme is None:
                cid = "eos"
            elif s.ref_target is None:
                cid = "esr"
            else:
                cid = "ensr"
            a = intersection(oracle_lookup(interp, model, t1, s.id), common)
            b = intersection(oracle_lookup(interp, model, t2, s.id), common)
            if not same(a, b):
                out.append((cid, s.id, tuple(sorted(t1)), tuple(sorted(t2))))
    return out


# ---------------------------------------------------------------------------
# Core oracle.
# ---------------------------------------------------------------------------


def _is_subalgebra(elements: set[Element], algebra: Algebra) -> bool:
    return (
        algebra.bottom in elements
        and algebra.top in elements
        and all(~a in elements for a in elements)
        and all(a & b in elements and a | b in elements for a in elements for b in elements)
    )


def oracle_core(
    model: Model, interp: Interpretation
) -> list[tuple[str, tuple[str, ...], tuple[str, str] | None, tuple, tuple | None, str | None]]:
    """(constraint, statements, relation, theme set, theme set 2, relation type)
    for every core witness, read off the definitions over ``frozenset`` theme
    sets, with rows from :func:`oracle_aspects`.

    - aass: at each non-empty set of a relation's themes, an attack's
      effective aspects must both exist and differ, a support's must both
      exist and be comparable;
    - i: a statement's aspects at a theme set are aspects of the theme set;
    - vi: no statement has aspects at the empty theme set;
    - bat: a listed omega row is a subalgebra;
    - pr: a statement with aspects has them inside its proper range, its row
      at the theme set cut down to its own themes; a pointer's own themes
      take in its reference theme, and a statement pointer's range is read
      from its target's row (a missing target has none);
    - mat and manss: omega rows, and the rows of statements other than
      summary pointers, do not shrink when a theme is added;
    - ss: at each set of a statement's own themes, its effective aspect is
      neither 0 nor 1.
    """
    algebra = interp.algebra
    themes = list(dict.fromkeys(model.themes))
    declared = frozenset(themes)
    theme_sets = [frozenset(c) for n in range(len(themes) + 1) for c in combinations(themes, n)]

    def key(t: frozenset[str]) -> tuple[str, ...]:
        return tuple(sorted(t))

    def aspects(t: frozenset[str], s: str) -> AspectSet:
        return oracle_lookup(interp, model, t, s)

    def effective(t: frozenset[str], s: str) -> Element | None:
        mask = oracle_effective(interp, *oracle_aspects(interp, model, t, s))
        return None if mask is None else Element(algebra, mask)

    out = []
    for r in model.relations:
        for t in [frozenset(c) for n in range(1, len(themes) + 1)
                  for c in combinations(sorted(r.themes & declared), n)]:
            kinds = oracle_relation_kinds(effective(t, r.source), effective(t, r.target))
            if ATTACK in r.rel_types and kinds & {"undefined", "affirmation"}:
                out.append(("aass", (), r.pair, key(t), None, ATTACK))
            comparable = {"affirmation", "strengthening", "weakening"}
            if SUPPORT in r.rel_types and not kinds & comparable:
                out.append(("aass", (), r.pair, key(t), None, SUPPORT))
    for t in theme_sets:
        omega = aspects(t, OMEGA)
        if omega.elements and not _is_subalgebra(set(omega.elements), algebra):
            out.append(("bat", (), None, key(t), None, None))
        for th in t:
            if not issubset(aspects(t - {th}, OMEGA), omega):
                out.append(("mat", (), None, key(t - {th}), key(t), None))
    for s in model.statements:
        reach = model.themes_of(s.id) & declared
        if s.ref_theme is not None:
            reach = reach | ({s.ref_theme} & declared)
        ranged = s.id if s.ref_theme is None or s.ref_target is None else s.ref_target
        for t in theme_sets:
            row = aspects(t, s.id)
            if not issubset(row, aspects(t, OMEGA)):
                out.append(("i", (s.id,), None, key(t), None, None))
            if not t and not row.is_empty:
                out.append(("vi", (s.id,), None, (), None, None))
            if model.has_statement(ranged):
                bound = aspects(t & reach, ranged)
            else:
                bound = AspectSet(algebra)
            if not row.is_empty and not issubset(row, bound):
                out.append(("pr", (s.id,), None, key(t), None, None))
            eff = effective(t, s.id)
            if t <= model.themes_of(s.id) and eff is not None and (eff.is_bottom or eff.is_top):
                out.append(("ss", (s.id,), None, key(t), None, None))
            if s.ref_theme is None or s.ref_target is not None:
                for th in t:
                    if not issubset(aspects(t - {th}, s.id), row):
                        out.append(("manss", (s.id,), None, key(t - {th}), key(t), None))
    return out


# ---------------------------------------------------------------------------
# Brute-force Dung semantics oracle.
# ---------------------------------------------------------------------------


def oracle_dung(args: frozenset[str], attacks: frozenset[tuple[str, str]]) -> dict:
    items = sorted(args)
    subsets = [
        frozenset(c) for n in range(len(items) + 1) for c in combinations(items, n)
    ]

    def conflict_free(s):
        return not any((a, b) in attacks for a in s for b in s)

    def defended(s, a):
        return all(
            any((c, b) in attacks for c in s) for (b, tgt) in attacks if tgt == a
        )

    cf = [s for s in subsets if conflict_free(s)]
    adm = [s for s in cf if all(defended(s, a) for a in s)]
    comp = [s for s in adm if all((a in s) == True for a in args if defended(s, a))]
    grounded = [s for s in comp if all(s <= other for other in comp)]
    assert len(grounded) == 1, "grounded extension must be the least complete"
    return {
        "grounded": frozenset(grounded),
        "complete": frozenset(comp),
        "preferred": frozenset(s for s in adm if not any(s < o for o in adm)),
        "stable": frozenset(
            s for s in cf if all(any((a, b) in attacks for a in s) for b in args - s)
        ),
        "naive": frozenset(s for s in cf if not any(s < o for o in cf)),
    }


def oracle_conflict_free_extensions(
    args: frozenset[str], attacks: frozenset[tuple[str, str]]
) -> dict:
    """Complete, preferred, stable and naive extensions by a depth-first
    search over every conflict-free set of the whole graph, each set tested
    on masks (a frozen copy of the full enumeration ``semantics`` used before
    it seeded its search at the grounded extension).  Unlike ``oracle_dung``
    it does not visit the 2^n subsets, so it reaches 16 statements."""
    order = sorted(args)
    pos = {a: i for i, a in enumerate(order)}
    n = len(order)
    everyone = (1 << n) - 1
    attackers, targets = [0] * n, [0] * n
    for a, b in attacks:
        attackers[pos[b]] |= 1 << pos[a]
        targets[pos[a]] |= 1 << pos[b]
    self_attacking = sum(1 << i for i in range(n) if targets[i] >> i & 1)

    def defended(attacked):
        return sum(1 << i for i in range(n) if not attackers[i] & ~attacked)

    candidates = []
    stack = [(0, 0, 0, 0)]
    while stack:
        start, s, attacked, attacking = stack.pop()
        candidates.append((s, attacked, attacking))
        blocked = attacked | attacking | self_attacking
        for i in range(start, n):
            if not blocked >> i & 1:
                stack.append((i + 1, s | 1 << i, attacked | targets[i], attacking | attackers[i]))
    admissible = [(s, attacked) for s, attacked, attacking in candidates if not attacking & ~attacked]
    preferred: list[int] = []
    for s, _ in sorted(admissible, key=lambda sa: sa[0].bit_count(), reverse=True):
        if not any(s & m == s for m in preferred):
            preferred.append(s)
    found = {
        "complete": [s for s, attacked in admissible if defended(attacked) == s],
        "preferred": preferred,
        "stable": [s for s, attacked, _ in candidates if attacked | s == everyone],
        "naive": [
            s for s, attacked, attacking in candidates
            if s | attacked | attacking | self_attacking == everyone
        ],
    }
    return {
        sem: frozenset(frozenset(a for i, a in enumerate(order) if s >> i & 1) for s in sets)
        for sem, sets in found.items()
    }


# ---------------------------------------------------------------------------
# Random model generators.
# ---------------------------------------------------------------------------


def _nonempty_sample(rng: random.Random, pool: list[str]) -> set[str]:
    return set(rng.sample(pool, rng.randint(1, len(pool))))


def aspect_support_of(model: Model, stmt: Statement) -> frozenset[str]:
    own = model.themes_of(stmt.id)
    if not stmt.is_pointer:
        return own
    widened = own | {stmt.ref_theme}
    if stmt.is_summary_pointer:
        return widened
    if not model.has_statement(stmt.ref_target):
        return frozenset()
    return widened & model.themes_of(stmt.ref_target)


def random_graphic_safe_model(
    rng: random.Random,
    max_themes: int = 2,
    max_ordinary: int = 2,
    max_pointers: int = 2,
    max_relations: int = 3,
) -> Model:
    """A well-formed model satisfying tr, nsa, nnp and kos by construction,
    with relation themes interpretable at both endpoints."""
    themes = [f"t{i + 1}" for i in range(rng.randint(1, max_themes))]
    statements: list[Statement] = []
    st_themes: dict[str, set[str]] = {}
    for i in range(rng.randint(1, max_ordinary)):
        sid = f"a{i + 1}"
        statements.append(Statement(sid))
        st_themes[sid] = _nonempty_sample(rng, themes)
    ordinaries = [s.id for s in statements]
    used_refs: set[tuple[str, str | None]] = set()
    for i in range(rng.randint(0, max_pointers)):
        kind = rng.choice(["stmt", "summary"])
        sid = f"p{i + 1}"
        if kind == "stmt":
            target = rng.choice(ordinaries)
            target_themes = sorted(st_themes[target])
            ref = rng.choice(target_themes)
            if (ref, target) in used_refs:
                continue  # a pointer statement is identified by its reference
            used_refs.add((ref, target))
            statements.append(Statement(sid, ref_theme=ref, ref_target=target))
            st_themes[sid] = _nonempty_sample(rng, target_themes)
        else:
            inhabited = sorted({t for ts in st_themes.values() for t in ts})
            ref = rng.choice(inhabited)
            if (ref, None) in used_refs:
                continue
            used_refs.add((ref, None))
            statements.append(Statement(sid, ref_theme=ref, ref_target=None))
            st_themes[sid] = _nonempty_sample(rng, themes)

    model = Model.build(themes, statements, st_themes, [])
    supports = {s.id: aspect_support_of(model, s) for s in statements}

    relations: list[Relation] = []
    for _ in range(rng.randint(0, max_relations)):
        s1, s2 = rng.choice(statements), rng.choice(statements)
        shared_pi = st_themes[s1.id] & st_themes[s2.id]
        pool = (
            supports[s1.id]
            & supports[s2.id]
            & (st_themes[s1.id] | st_themes[s2.id])
        )
        if not shared_pi & pool:
            continue
        base = rng.choice(sorted(shared_pi & pool))
        rel_themes = {base} | set(
            rng.sample(sorted(pool), rng.randint(0, len(pool)))
        )
        if s1.id == s2.id:
            types = {SUPPORT}
        else:
            types = rng.choice([{ATTACK}, {SUPPORT}, {ATTACK, SUPPORT}])
        relations.append(Relation(s1.id, s2.id, frozenset(types), frozenset(rel_themes)))
    return Model.build(themes, statements, st_themes, relations)


def random_model_any(rng: random.Random, max_themes: int = 2) -> Model:
    """A well-formed model that may violate tr, nsa, nnp or kos.

    Summary pointers always reference inhabited themes; the degenerate
    uninhabited-summary corner is covered by a dedicated test instead
    (see test_synthesis.py).
    """
    themes = [f"t{i + 1}" for i in range(rng.randint(1, max_themes))]
    statements: list[Statement] = []
    st_themes: dict[str, set[str]] = {}
    for i in range(rng.randint(1, 2)):
        sid = f"a{i + 1}"
        statements.append(Statement(sid))
        st_themes[sid] = _nonempty_sample(rng, themes)
    ordinaries = [s.id for s in statements]
    used_refs: set[tuple[str, str | None]] = set()
    for i in range(rng.randint(0, 2)):
        sid = f"p{i + 1}"
        if rng.random() < 0.5:
            if rng.random() < 0.4:  # dangling target: nnp violation
                target = "missing"
                ref = rng.choice(themes)
            else:
                target = rng.choice(ordinaries)
                ref = (
                    rng.choice(sorted(st_themes[target]))
                    if rng.random() < 0.7
                    else rng.choice(themes)
                )
            if (ref, target) in used_refs:
                continue
            used_refs.add((ref, target))
            statements.append(Statement(sid, ref_theme=ref, ref_target=target))
            st_themes[sid] = _nonempty_sample(rng, themes)  # may violate kos
        else:
            inhabited = sorted({t for ts in st_themes.values() for t in ts})
            ref = rng.choice(inhabited)
            if (ref, None) in used_refs:
                continue
            used_refs.add((ref, None))
            statements.append(Statement(sid, ref_theme=ref, ref_target=None))
            st_themes[sid] = _nonempty_sample(rng, themes)
    relations: list[Relation] = []
    for _ in range(rng.randint(0, 3)):
        s1, s2 = rng.choice(statements), rng.choice(statements)
        pool = sorted(st_themes[s1.id] | st_themes[s2.id])
        rel_themes = _nonempty_sample(rng, pool)
        types = rng.choice([{ATTACK}, {SUPPORT}, {ATTACK, SUPPORT}])
        relations.append(Relation(s1.id, s2.id, frozenset(types), frozenset(rel_themes)))
    return Model.build(themes, statements, st_themes, relations)


def random_total_interpretation(
    rng: random.Random, model: Model, algebra: Algebra
) -> Interpretation:
    """Random tables assigning every statement aspects for each of its themes.

    Totality reflects the intended use of interpretations (every statement
    touches upon something); it is what makes graphic defects observable
    through the core constraints.
    """
    nonzero = list(range(1, algebra.carrier_size))
    rows: dict[tuple[frozenset[str], str], AspectSet] = {}
    for s in model.statements:
        for t in model.themes_of(s.id):
            masks = rng.sample(nonzero, rng.randint(1, 2))
            rows[(frozenset([t]), s.id)] = AspectSet(
                algebra, frozenset(Element(algebra, m) for m in masks)
            )
    theme_rows: dict[frozenset[str], AspectSet] = {}
    subsets = [
        frozenset(c)
        for n in range(1, len(model.themes) + 1)
        for c in combinations(model.themes, n)
    ]
    if rng.random() < 0.75:
        for t_set in subsets:
            theme_rows[t_set] = AspectSet(algebra, full=True)
    else:
        e = Element(algebra, rng.choice(nonzero))
        small = frozenset({algebra.bottom, algebra.top, e, ~e})
        for t_set in subsets:
            theme_rows[t_set] = rng.choice(
                [AspectSet(algebra, full=True), AspectSet(algebra, small)]
            )
    return Interpretation(algebra, theme_rows, rows)


# ---------------------------------------------------------------------------
# Block-structured instances satisfying Core + E by construction.
# ---------------------------------------------------------------------------


def block_instance(rng: random.Random, m: int | None = None):
    """A (model, interpretation) pair satisfying Core and the exact-region
    constraints: one proposition block per theme, per-theme aspect rows of
    non-extremal block elements, theme rows equal to generated subalgebras,
    unions across themes.  Optional support edges join statements with equal
    rows (affirmations), keeping attack-as-attack non-vacuous."""
    m = m if m is not None else rng.choice([2, 3])
    block_size = 2 if m == 2 else 1
    themes = [f"t{j + 1}" for j in range(m)]
    props = [f"w{j + 1}_{i + 1}" for j in range(m) for i in range(block_size)]
    algebra = mk_algebra(props)
    block_bits = {
        themes[j]: [algebra.props.index(f"w{j + 1}_{i + 1}") for i in range(block_size)]
        for j in range(m)
    }

    def subalgebra_over(theme_set: frozenset[str]) -> AspectSet:
        allowed = sorted(bit for t in theme_set for bit in block_bits[t])
        if len(allowed) == algebra.k:
            return AspectSet(algebra, full=True)
        # one cylinder per assignment of the allowed bits; the subalgebra's
        # members are exactly the unions of cylinders
        cylinders = []
        for pattern in range(1 << len(allowed)):
            mask = 0
            for minterm in range(algebra.n_minterms):
                if all(
                    ((minterm >> bit) & 1) == ((pattern >> idx) & 1)
                    for idx, bit in enumerate(allowed)
                ):
                    mask |= 1 << minterm
            cylinders.append(mask)
        members = set()
        for bits in range(1 << len(cylinders)):
            mask = 0
            for idx, cyl in enumerate(cylinders):
                if (bits >> idx) & 1:
                    mask |= cyl
            members.add(Element(algebra, mask))
        return AspectSet(algebra, frozenset(members))

    single_subalgebras = {t: subalgebra_over(frozenset([t])) for t in themes}

    def block_row(theme: str) -> AspectSet:
        sub = single_subalgebras[theme]
        non_extremal = sorted(
            (e for e in sub.elements if not e.is_bottom and not e.is_top),
            key=lambda e: e.mask,
        )
        base = rng.choice(non_extremal)
        above = [e for e in non_extremal if base <= e]
        chosen = {base} | set(rng.sample(above, rng.randint(0, len(above))))
        return AspectSet(algebra, frozenset(chosen))

    statements: list[Statement] = []
    st_themes: dict[str, set[str]] = {}
    for i in range(rng.randint(1, 2)):
        sid = f"a{i + 1}"
        statements.append(Statement(sid))
        st_themes[sid] = _nonempty_sample(rng, themes)
    ordinaries = [s.id for s in statements]
    if rng.random() < 0.5:
        target = rng.choice(ordinaries)
        ref = rng.choice(sorted(st_themes[target]))
        statements.append(Statement("p1", ref_theme=ref, ref_target=target))
        st_themes["p1"] = _nonempty_sample(rng, sorted(st_themes[target]))
    if rng.random() < 0.4:
        inhabited = sorted({t for ts in st_themes.values() for t in ts})
        statements.append(Statement("c1", ref_theme=rng.choice(inhabited), ref_target=None))
        st_themes["c1"] = _nonempty_sample(rng, themes)

    # affirmation support edge between the two ordinary statements, sometimes
    relations: list[Relation] = []
    affirm_pair: tuple[str, str] | None = None
    if rng.random() < 0.5 and len(ordinaries) >= 2:
        shared = st_themes[ordinaries[0]] & st_themes[ordinaries[1]]
        if shared:
            affirm_pair = (ordinaries[0], ordinaries[1])
            relations.append(
                Relation(*affirm_pair, frozenset({SUPPORT}), frozenset(shared))
            )

    model = Model.build(themes, statements, st_themes, relations)
    supports = {s.id: aspect_support_of(model, s) for s in statements}

    rows: dict[tuple[frozenset[str], str], AspectSet] = {}
    for s in statements:
        if s.is_statement_pointer:
            continue
        for t in sorted(supports[s.id]):
            rows[(frozenset([t]), s.id)] = block_row(t)
    if affirm_pair is not None:
        first, second = affirm_pair
        for t in sorted(st_themes[first] & st_themes[second]):
            rows[(frozenset([t]), second)] = rows[(frozenset([t]), first)]
    for s in statements:
        if s.is_statement_pointer:
            for t in sorted(supports[s.id]):
                rows[(frozenset([t]), s.id)] = rows[(frozenset([t]), s.ref_target)]
    # summary pointers never default: write their unions out explicitly
    for s in statements:
        if not s.is_summary_pointer:
            continue
        for n in range(2, m + 1):
            for combo in combinations(themes, n):
                t_set = frozenset(combo)
                chosen = sorted(t_set & supports[s.id])
                if not chosen:
                    continue
                merged = AspectSet(algebra)
                for t in chosen:
                    merged = union(merged, rows[(frozenset([t]), s.id)])
                rows[(t_set, s.id)] = merged

    theme_rows = {
        frozenset(c): subalgebra_over(frozenset(c))
        for n in range(1, m + 1)
        for c in combinations(themes, n)
    }
    interp = Interpretation(algebra, theme_rows, rows)
    return model, interp


def redundant_instance(rng: random.Random):
    """A one-theme (model, interpretation) pair on which the fresh-aspect
    constraints find many witnesses: a dense graph of 4-7 statements whose
    rows repeat a few aspect sets, so that the members of a statements-set
    often share a minimal representation."""
    algebra = mk_algebra(["p", "q"])
    ids = [f"s{i}" for i in range(rng.randint(4, 7))]
    nonzero = range(1, algebra.carrier_size)
    pool = [
        frozenset(Element(algebra, m) for m in rng.sample(nonzero, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3))
    ]
    t = frozenset(["t"])
    rows = {(t, s): AspectSet(algebra, rng.choice(pool)) for s in ids}
    relations = [
        Relation(a, b, frozenset(rng.choice([{ATTACK}, {SUPPORT}, {ATTACK, SUPPORT}])), t)
        for a in ids
        for b in ids
        if a != b and rng.random() < 0.5
    ]
    model = Model.build(["t"], [Statement(s) for s in ids], {s: {"t"} for s in ids}, relations)
    return model, Interpretation(algebra, {t: AspectSet(algebra, full=True)}, rows)
