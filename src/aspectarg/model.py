"""Theme aspect argumentation models: typed graphs plus interpretation tables.

A model is a finite statement graph where every statement carries one or more
themes and every relation carries attack/support types plus themes drawn from
its endpoints.  The interpretation maps (theme set, statement) and
(theme set, omega) to sets of algebra elements; omega rows describe the
aspects of the theme set itself, each held as a :data:`Row` of element
masks.  Checks read it through an :class:`AspectTable`, which turns theme sets
into ints and applies the defaulting rule.  Models and interpretations are
read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import Algebra, Element
from .errors import CapExceeded, ModelError, UnknownIdError

ATTACK = "attack"
SUPPORT = "support"
REL_TYPES = (ATTACK, SUPPORT)

#: Reserved name for the interpretation's theme rows in lookups and files.
OMEGA = "@omega"
#: Reserved target marker for pointers to a theme's summary.
SUMMARY = "@summary"

#: Cap on the themes whose subsets a check enumerates (2**12 theme sets).
MAX_THEMES = 12


def theme_subsets(themes: Iterable[str], min_size: int = 0) -> Iterator[tuple[str, ...]]:
    """Every subset of ``themes`` with at least ``min_size`` members.

    Subsets come by size, then in :func:`itertools.combinations` order over
    ``themes`` as given.  The cap is checked here, when the enumerator is
    made, so a caller that makes all its enumerators first fails before it
    enumerates anything.
    """
    ts = tuple(themes)
    if len(ts) > MAX_THEMES:
        raise CapExceeded(f"{len(ts)} themes exceed the enumeration cap {MAX_THEMES}")
    return (combo for n in range(min_size, len(ts) + 1) for combo in combinations(ts, n))


def maximal_masks(sets: Iterable[int]) -> list[int]:
    """The bit sets inside no other, largest first.  Each is compared only
    with the maximal sets kept so far: a set inside any other is inside a
    kept one."""
    kept: list[int] = []
    for s in sorted(sets, key=int.bit_count, reverse=True):
        if not any(s & m == s for m in kept):
            kept.append(s)
    return kept


@dataclass(frozen=True)
class Statement:
    """An ordinary statement, or a pointer into a theme.

    A pointer has ``ref_theme`` set; ``ref_target`` then names the ordinary
    statement it refers to, or is ``None`` for a pointer to the theme's
    summary.  Pointer targets need not exist in the graph; the no-null-pointer
    check is what detects dangling ones.
    """

    id: str
    ref_theme: str | None = None
    ref_target: str | None = None

    @property
    def is_pointer(self) -> bool:
        return self.ref_theme is not None

    @property
    def is_summary_pointer(self) -> bool:
        return self.ref_theme is not None and self.ref_target is None

    @property
    def is_statement_pointer(self) -> bool:
        return self.ref_theme is not None and self.ref_target is not None


@dataclass(frozen=True)
class Relation:
    source: str
    target: str
    rel_types: frozenset[str]
    themes: frozenset[str]

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source, self.target)


@dataclass(frozen=True)
class Model:
    """The typed argumentation graph; ``statement_themes`` is read-only."""

    themes: tuple[str, ...]
    statements: tuple[Statement, ...]
    statement_themes: Mapping[str, frozenset[str]]
    relations: tuple[Relation, ...]

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "statement_themes", MappingProxyType(dict(self.statement_themes)))
        object.__setattr__(self, "_by_id", {s.id: s for s in self.statements})

    def __reduce__(self):
        # a mapping proxy does not pickle
        return (Model, (self.themes, self.statements, dict(self.statement_themes), self.relations))

    @classmethod
    def build(
        cls,
        themes: Iterable[str],
        statements: Iterable[Statement],
        statement_themes: dict[str, Iterable[str]],
        relations: Iterable[Relation],
    ) -> "Model":
        """Normalise inputs; duplicate (source, target) relations are merged."""
        stmts = tuple(statements)
        if len({s.id for s in stmts}) != len(stmts):
            raise ModelError("duplicate statement ids")
        merged: dict[tuple[str, str], Relation] = {}
        for r in relations:
            prev = merged.get(r.pair)
            if prev is None:
                merged[r.pair] = r
            else:
                merged[r.pair] = Relation(
                    r.source, r.target, prev.rel_types | r.rel_types, prev.themes | r.themes
                )
        return cls(
            tuple(themes),
            stmts,
            {sid: frozenset(ts) for sid, ts in statement_themes.items()},
            tuple(merged.values()),
        )

    def statement(self, sid: str) -> Statement:
        try:
            return self._by_id[sid]
        except KeyError:
            raise UnknownIdError(f"unknown statement id {sid!r}") from None

    def has_statement(self, sid: str) -> bool:
        return sid in self._by_id

    def themes_of(self, sid: str) -> frozenset[str]:
        return self.statement_themes.get(sid, frozenset())

    def ordinary_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.statements if not s.is_pointer)

    def used_themes(self) -> frozenset[str]:
        used: set[str] = set()
        for ts in self.statement_themes.values():
            used |= ts
        for r in self.relations:
            used |= r.themes
        return frozenset(used) & frozenset(self.themes)


@dataclass(frozen=True)
class AspectSet:
    """A finite set of algebra elements; ``full`` marks the whole carrier.

    The full carrier of a k-proposition algebra has 2**2**k members, far too
    many to materialise beyond tiny k, so "ALL" rows stay symbolic.  Explicit
    sets that happen to enumerate the entire carrier are normalised to full.
    """

    algebra: Algebra
    elements: frozenset[Element] = frozenset()
    full: bool = False

    def __post_init__(self) -> None:
        # beyond k = 4 the carrier cannot be enumerated, so only small
        # algebras need the explicit-set-that-is-actually-full normalisation
        if (
            not self.full
            and self.algebra.k <= 4
            and len(self.elements) == self.algebra.carrier_size
        ):
            object.__setattr__(self, "full", True)
            object.__setattr__(self, "elements", frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.elements

    def __iter__(self) -> Iterator[Element]:
        if self.full:
            yield from self.algebra.elements()
        else:
            yield from self.elements


#: A compiled aspect set: ``(full, element masks)``; a full row has no masks.
Row = tuple[bool, frozenset[int]]
EMPTY_ROW: Row = (False, frozenset())
FULL_ROW: Row = (True, frozenset())


@dataclass(frozen=True)
class Interpretation:
    """The interpretation function as explicit rows plus one defaulting rule.

    ``theme_aspects`` holds the omega rows (aspects of a theme set) and is
    never defaulted across theme sets: a missing row is the empty set.  A
    missing ``statement_aspects`` row of a multi-theme set is the union of
    the statement's singleton rows, except for summary pointers, whose
    aspects are context-dependent and therefore only ever explicit.  A
    missing row of the empty or a singleton theme set is the empty set.
    ``formulas`` names elements in reports by their masks, e.g. by the
    formulas a model file wrote for them.

    Each row is held as a :data:`Row`.  A row may be given as an
    :class:`AspectSet`, which is compiled here, once; a listed row that holds
    a whole carrier of at most 4 propositions becomes the full row, as in
    :class:`AspectSet`.  Statement rows have no ``"ALL"`` in a model file, so
    a full statement row over more than 4 propositions could not be written
    and is refused.  The row mappings are read-only.
    """

    algebra: Algebra
    theme_aspects: Mapping[frozenset[str], Row] = field(default_factory=dict)
    statement_aspects: Mapping[tuple[frozenset[str], str], Row] = field(default_factory=dict)
    formulas: Mapping[int, str] = field(default_factory=dict)

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        algebra = self.algebra
        theme_rows = _compiled_rows(algebra, self.theme_aspects)
        statement_rows = _compiled_rows(algebra, self.statement_aspects)
        if algebra.k > 4:
            for (themes, sid), (full, _) in statement_rows.items():
                if full:
                    raise ModelError(
                        f"statement row ({sorted(themes)}, {sid!r}) is the full carrier of a "
                        f"{algebra.k}-proposition algebra, which a model file cannot list"
                    )
        set_field = object.__setattr__
        set_field(self, "theme_aspects", MappingProxyType(theme_rows))
        set_field(self, "statement_aspects", MappingProxyType(statement_rows))
        set_field(self, "formulas", MappingProxyType(dict(self.formulas)))

    def __reduce__(self):
        # a mapping proxy does not pickle; the rows rebuild from plain dicts
        return (
            Interpretation,
            (
                self.algebra,
                dict(self.theme_aspects),
                dict(self.statement_aspects),
                dict(self.formulas),
            ),
        )


def _compiled_rows(algebra: Algebra, rows: Mapping) -> dict:
    """A copy of ``rows`` with every value a :data:`Row`."""
    listable = _listable(algebra)
    out = {}
    for key, row in rows.items():
        if type(row) is not tuple:
            row = (row.full, frozenset(e.mask for e in row.elements))
        if row[0] or len(row[1]) == listable:
            row = FULL_ROW
        out[key] = row
    return out


def _listable(algebra: Algebra) -> int:
    """The length of a listed row that holds the whole carrier, or -1: only a
    carrier of at most 4 propositions can be listed in full."""
    return algebra.carrier_size if algebra.k <= 4 else -1


class _Memo(dict):
    """Values of ``make`` by key, each computed on its first read."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class AspectTable:
    """One interpretation compiled against one model for integer reads.

    Themes are bit positions in ``model.themes`` order, so a theme set is an
    int mask, and a row is a :data:`Row` of element masks.  :meth:`row` and
    :meth:`inf` are point reads, which read a few rows however many themes
    the model declares, and no cap limits that number.  A sweep over every
    theme mask, which only runs under the theme cap, asks instead for a
    statement's (or :data:`OMEGA`'s) *columns*: its rows and their infima as
    lists indexed by theme mask, built together in one pass over the masks.
    Point reads index columns once they are built.  Columns are kept for the
    life of the table, which is one check: no cache outlives a call.
    """

    def __init__(self, interp: Interpretation, model: Model):
        self.interp = interp
        self.model = model
        self.algebra = interp.algebra
        self.full_mask = interp.algebra.full_mask
        self.names = tuple(dict.fromkeys(model.themes))
        self.bits = {t: 1 << i for i, t in enumerate(self.names)}
        self.size = 1 << len(self.names)
        # as in AspectSet: a small carrier listed in full is full
        self._listable = _listable(self.algebra)
        # the explicit rows by theme mask, made with the first column
        self._omega_rows: dict[int, Row] | None = None
        self._explicit: dict[str, dict[int, Row]] = {}
        self._columns: dict[str, tuple[list[Row], list[int | None]]] = {}
        # each mask's theme set, its sorted names as violation records carry
        # them, and their ``repr`` as violation details print theme sets
        names = self.names
        self.themes = themes = _Memo(
            lambda tmask: frozenset(t for i, t in enumerate(names) if tmask >> i & 1)
        )
        self.keys = keys = _Memo(lambda tmask: tuple(sorted(themes[tmask])))
        self.key_texts = _Memo(lambda tmask: repr(keys[tmask]))

    def mask(self, themes: Iterable[str]) -> int:
        """The mask of a theme set; every theme must be declared by the model."""
        out = 0
        for th in themes:
            bit = self.bits.get(th)
            if bit is None:
                raise UnknownIdError(f"unknown theme id {th!r}")
            out |= bit
        return out

    def row(self, tmask: int, s: str) -> Row:
        """The aspects of statement ``s`` (or :data:`OMEGA`) at a theme mask.

        A point read: it indexes the built column of ``s`` when there is one
        and otherwise looks up at most one interpretation row for each theme
        of the mask, where a column has ``2 ** len(names)`` rows.
        """
        built = self._columns.get(s)
        if built is not None:
            return built[0][tmask]
        if s == OMEGA:
            return self.interp.theme_aspects.get(self.themes[tmask], EMPTY_ROW)
        stmt = self.model.statement(s)
        rows = self.interp.statement_aspects
        out = rows.get((self.themes[tmask], s))
        if out is not None:
            return out
        if stmt.is_summary_pointer or tmask & (tmask - 1) == 0:
            return EMPTY_ROW
        # the union default over the singleton rows
        out = EMPTY_ROW
        rest = tmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            out = _union(out, rows.get((self.themes[bit], s), EMPTY_ROW))
        return FULL_ROW if len(out[1]) == self._listable else out

    def inf(self, tmask: int, s: str) -> int | None:
        """Mask of the row's infimum (its effective aspect), ``None`` when empty.

        A point read, as :meth:`row` is.
        """
        built = self._columns.get(s)
        if built is not None:
            return built[1][tmask]
        return self._meet(self.row(tmask, s))

    def columns(self, s: str) -> tuple[list[Row], list[int | None]]:
        """The rows of statement ``s`` (or :data:`OMEGA`) at every theme mask,
        and their infima, each a list indexed by mask.

        They have ``2 ** len(names)`` entries, so only a sweep that has passed
        the theme cap builds them.
        """
        out = self._columns.get(s)
        if out is None:
            out = self._columns[s] = self._build_columns(s)
        return out

    def reads(self, s: str) -> tuple[Sequence[Row], Sequence[int | None]]:
        """The rows and infima of ``s`` indexed by mask, as :meth:`columns`
        gives them, but building nothing: the built columns, or else point
        reads through :meth:`row` and :meth:`inf`."""
        out = self._columns.get(s)
        if out is None:
            return _PointReads(self.row, s), _PointReads(self.inf, s)
        return out

    def _index(self) -> None:
        """Index every explicit row by theme mask, omega's and each statement's.

        A key with an undeclared theme can never be read, so it is dropped.
        """
        key_masks: dict[frozenset[str], int | None] = {}

        def key_mask(themes: frozenset[str]) -> int | None:
            if themes not in key_masks:
                bits = [self.bits.get(t) for t in themes]
                key_masks[themes] = None if None in bits else sum(bits)
            return key_masks[themes]

        self._omega_rows = {}
        for themes, row in self.interp.theme_aspects.items():
            tmask = key_mask(themes)
            if tmask is not None:
                self._omega_rows[tmask] = row
        for (themes, s), row in self.interp.statement_aspects.items():
            tmask = key_mask(themes)
            if tmask is not None:
                self._explicit.setdefault(s, {})[tmask] = row

    def _meet(self, row: Row) -> int | None:
        full, masks = row
        if full:
            return 0  # the carrier contains the bottom element
        if not masks:
            return None
        out = self.full_mask
        for m in masks:
            out &= m
        return out

    def _build_columns(self, s: str) -> tuple[list[Row], list[int | None]]:
        if self._omega_rows is None:
            self._index()
        if s == OMEGA:
            explicit, defaults = self._omega_rows, False
        else:
            defaults = not self.model.statement(s).is_summary_pointer
            explicit = self._explicit.get(s, {})
        size, meet = self.size, self._meet
        rows = [EMPTY_ROW] * size
        infs: list[int | None] = [None] * size
        if defaults:
            # the union default over the singleton rows, by the lowest theme
            # bit: union[t] = union[t ^ low] | union[low]; its infimum is the
            # meet of the halves' infima, where an empty half has none
            listable = self._listable
            union = [EMPTY_ROW] * size
            union_infs: list[int | None] = [None] * size
            for t in range(1, size):
                low = t & -t
                if t == low:
                    union[t] = single = explicit.get(t, EMPTY_ROW)
                    union_infs[t] = meet(single)
                    continue
                u = union[t] = _union(union[t ^ low], union[low])
                rows[t] = FULL_ROW if len(u[1]) == listable else u
                a, b = union_infs[t ^ low], union_infs[low]
                union_infs[t] = infs[t] = b if a is None else a if b is None else a & b
        for t, row in explicit.items():
            rows[t], infs[t] = row, meet(row)
        return rows, infs


class _PointReads:
    """One statement's point reads, indexed by theme mask like a column."""

    __slots__ = ("read", "s")

    def __init__(self, read: Callable[[int, str], object], s: str):
        self.read, self.s = read, s

    def __getitem__(self, tmask: int):
        return self.read(tmask, self.s)


def _union(a: Row, b: Row) -> Row:
    """The union of two rows; one of them when it holds the other."""
    if b[0]:
        return FULL_ROW
    if a[0] or b[1] <= a[1]:
        return a
    if a[1] <= b[1]:
        return b
    return (False, a[1] | b[1])


def row_subset(a: Row, b: Row) -> bool:
    if b[0]:
        return True
    if a[0]:
        return False  # a full carrier never fits in a non-full set
    return a[1] <= b[1]


def lookup(
    interp: Interpretation, model: Model, themes: Iterable[str], s: str
) -> AspectSet:
    """The aspect set of statement ``s`` (or :data:`OMEGA`) for a theme set."""
    table = AspectTable(interp, model)
    full, masks = table.row(table.mask(themes), s)
    algebra = interp.algebra
    return AspectSet(algebra, frozenset(Element(algebra, m) for m in masks), full)


def effective_aspect(
    interp: Interpretation, model: Model, themes: Iterable[str], s: str
) -> Element | None:
    """Infimum of the looked-up aspect set, or ``None`` when the set is empty."""
    table = AspectTable(interp, model)
    mask = table.inf(table.mask(themes), s)
    return None if mask is None else Element(interp.algebra, mask)


@dataclass(frozen=True, slots=True)
class Violation:
    """A constraint violation with enough context to re-verify it.

    ``statements`` lists the offending statement id(s), ``relation`` the
    offending edge when one is involved, and ``theme_set`` the theme subset
    the check was instantiated at.  ``detail`` is a human-readable account
    including the offending aspects where relevant.
    """

    constraint: str
    statements: tuple[str, ...] = ()
    relation: tuple[str, str] | None = None
    theme_set: tuple[str, ...] | None = None
    theme_set2: tuple[str, ...] | None = None
    rel_type: str | None = None
    detail: str = ""

    def __init__(
        self,
        constraint: str,
        statements: tuple[str, ...] = (),
        relation: tuple[str, str] | None = None,
        theme_set: tuple[str, ...] | None = None,
        theme_set2: tuple[str, ...] | None = None,
        rel_type: str | None = None,
        detail: str = "",
    ) -> None:
        # checkers make tens of thousands of these; each slot's own descriptor
        # writes its field directly, past the frozen class's setattr and with
        # no lookup of the field by name
        _set_constraint(self, constraint)
        _set_statements(self, statements)
        _set_relation(self, relation)
        _set_theme_set(self, theme_set)
        _set_theme_set2(self, theme_set2)
        _set_rel_type(self, rel_type)
        _set_detail(self, detail)

    def sort_key(self) -> tuple:
        return (
            self.constraint,
            self.statements,
            self.relation or ("", ""),
            self.theme_set or (),
            self.theme_set2 or (),
            self.rel_type or "",
            self.detail,
        )


(
    _set_constraint,
    _set_statements,
    _set_relation,
    _set_theme_set,
    _set_theme_set2,
    _set_rel_type,
    _set_detail,
) = (Violation.__dict__[f.name].__set__ for f in fields(Violation))


WELLFORMED = "wf"


def validate_wellformed(model: Model) -> list[Violation]:
    """Check the well-formedness conditions on the typed graph itself."""
    out: list[Violation] = []
    declared = set(model.themes)
    if len(declared) != len(model.themes):
        out.append(Violation(WELLFORMED, detail="duplicate theme ids"))
    for th in model.themes:
        if not th:
            out.append(Violation(WELLFORMED, detail="empty theme id"))
    ids = {s.id for s in model.statements}
    for s in model.statements:
        if not s.id:
            out.append(Violation(WELLFORMED, detail="empty statement id"))
        ts = model.themes_of(s.id)
        if not ts:
            out.append(Violation(WELLFORMED, (s.id,), detail=f"statement {s.id} untyped (no themes)"))
        unknown = ts - declared
        if unknown:
            out.append(
                Violation(
                    WELLFORMED,
                    (s.id,),
                    detail=f"statement {s.id} typed with undeclared themes {sorted(unknown)}",
                )
            )
        if s.is_pointer:
            if s.ref_theme not in declared:
                out.append(
                    Violation(
                        WELLFORMED,
                        (s.id,),
                        detail=f"pointer {s.id} references undeclared theme {s.ref_theme!r}",
                    )
                )
            if s.is_statement_pointer and s.ref_target in ids:
                target = model.statement(s.ref_target)
                if target.is_pointer:
                    out.append(
                        Violation(
                            WELLFORMED,
                            (s.id,),
                            detail=f"pointer {s.id} targets pointer {s.ref_target}; "
                            "pointers must reference ordinary statements",
                        )
                    )
    seen_refs: dict[tuple[str, str | None], str] = {}
    for s in model.statements:
        if not s.is_pointer:
            continue
        ref = (s.ref_theme, s.ref_target)
        if ref in seen_refs:
            what = "summary" if s.ref_target is None else f"statement {s.ref_target!r}"
            out.append(
                Violation(
                    WELLFORMED,
                    (seen_refs[ref], s.id),
                    detail=f"{seen_refs[ref]} and {s.id} both point to {what} of theme "
                    f"{s.ref_theme!r}; a pointer statement is identified by its reference",
                )
            )
        else:
            seen_refs[ref] = s.id
    for sid in model.statement_themes:
        if sid not in ids:
            out.append(Violation(WELLFORMED, (sid,), detail=f"typing for unknown statement {sid}"))
    for r in model.relations:
        pair = r.pair
        if r.source not in ids or r.target not in ids:
            out.append(
                Violation(WELLFORMED, relation=pair, detail=f"relation {pair} endpoint missing")
            )
            continue
        if not r.rel_types:
            out.append(
                Violation(WELLFORMED, relation=pair, detail=f"relation {pair} has no attack/support type")
            )
        if not r.rel_types <= set(REL_TYPES):
            out.append(
                Violation(
                    WELLFORMED,
                    relation=pair,
                    detail=f"relation {pair} has unknown types {sorted(r.rel_types - set(REL_TYPES))}",
                )
            )
        if not r.themes:
            out.append(Violation(WELLFORMED, relation=pair, detail=f"relation {pair} has no themes"))
        endpoint_themes = model.themes_of(r.source) | model.themes_of(r.target)
        stray = r.themes - endpoint_themes
        if stray:
            out.append(
                Violation(
                    WELLFORMED,
                    relation=pair,
                    detail=f"relation {pair} typed with themes {sorted(stray)} "
                    "outside the themes of its endpoints",
                )
            )
    out.sort(key=Violation.sort_key)
    return out
