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

from bisect import bisect_left
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
            pair = (r.source, r.target)
            prev = merged.setdefault(pair, r)
            if prev is not r:
                merged[pair] = Relation(
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


class ElementNames(Mapping[int, str]):
    """Element names by mask, read-only, from ``(mask, name)`` pairs; a mask
    given several names keeps the shortest, the first given on ties.

    A 16-proposition mask has 65,536 bits, and Python hashes an ``int`` in
    full on every dict lookup.  So the pairs are sorted by mask on the first
    lookup, and ``get``, ``[]`` and ``in`` bisect them: naming an element
    compares masks and never hashes one, and names that are never read cost
    nothing.  Iteration is in ascending mask order.
    """

    __slots__ = ("_pairs", "_index")

    def __init__(self, pairs: Iterable[tuple[int, str]] = ()) -> None:
        self._pairs = list(pairs)
        self._index: tuple[list[int], list[str]] | None = None

    def _sorted(self) -> tuple[list[int], list[str]]:
        """The masks in ascending order and the name of each."""
        index = self._index
        if index is None:
            masks: list[int] = []
            names: list[str] = []
            # a stable sort: the shortest name of a mask first, then the first given
            for mask, name in sorted(self._pairs, key=lambda p: (p[0], len(p[1]))):
                if not masks or masks[-1] != mask:
                    masks.append(mask)
                    names.append(name)
            index = self._index = (masks, names)
        return index

    def get(self, mask, default=None):
        masks, names = self._sorted()
        i = bisect_left(masks, mask)
        return names[i] if i < len(masks) and masks[i] == mask else default

    def __getitem__(self, mask) -> str:
        name = self.get(mask)
        if name is None:
            raise KeyError(mask)
        return name

    def __iter__(self) -> Iterator[int]:
        return iter(self._sorted()[0])

    def __len__(self) -> int:
        return len(self._sorted()[0])


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
    formulas a model file wrote for them.  It may be given as any mapping and
    is held as a read-only :class:`ElementNames`, which is looked up by mask
    order, so naming an element hashes no mask.

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
        if not isinstance(self.formulas, ElementNames):
            set_field(self, "formulas", ElementNames(self.formulas.items()))

    @classmethod
    def _of_rows(cls, algebra: Algebra, theme_aspects: dict, statement_aspects: dict,
                 formulas: ElementNames) -> "Interpretation":
        """What the constructor makes of rows it keeps as given (each a
        :data:`Row`, none a listed whole carrier), holding the dicts, which
        the caller must not change, without a copy."""
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "algebra", algebra)
        set_field(self, "theme_aspects", MappingProxyType(theme_aspects))
        set_field(self, "statement_aspects", MappingProxyType(statement_aspects))
        set_field(self, "formulas", formulas)
        return self

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

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Rows(dict):
    """The rows of one statement, or of :data:`OMEGA`, by theme mask, each
    made on its first read.

    A mask's row is the explicit row at that mask, in ``given``, and else the
    union of the statement's singleton rows at the mask's themes.  That
    default depends only on the mask's bits among the themes of those rows,
    ``singles``, so each projection is unioned once, in ``unions``.  Omega
    and summary pointers have no ``singles`` and never default.  No field
    refers back to the table, so a table is freed as soon as its check drops
    it, with no cyclic collection.
    """

    __slots__ = ("given", "singles", "unions", "listable")

    def __missing__(self, tmask: int) -> Row:
        out = self.given.get(tmask)
        if out is None:
            projection = tmask & self.singles
            if not projection:
                out = EMPTY_ROW
            else:
                out = self.unions.get(projection)
                if out is None:
                    out = self.unions[projection] = self._default(projection)
        self[tmask] = out
        return out

    def _default(self, projection: int) -> Row:
        """The union of the singleton rows at the themes of ``projection``."""
        out = EMPTY_ROW
        while projection:
            bit = projection & -projection
            projection ^= bit
            out = _union(out, self.given[bit])
        return FULL_ROW if len(out[1]) == self.listable else out


class _Infs(dict):
    """The masks of the infima of one statement's rows by theme mask, each
    made on its first read; ``None`` for an empty row.

    A row built in ``rows`` or explicit in ``given`` gives its own infimum.
    Any other row is a union of singleton rows, and the infimum of a union
    is the meet of its parts' infima, so it is the meet of the infima at the
    mask's bits among ``singles``, empty rows skipped: no union is built."""

    __slots__ = ("rows", "given", "singles", "full_mask")

    def __missing__(self, tmask: int) -> int | None:
        row = self.rows.get(tmask) or self.given.get(tmask)
        if row is None:
            out, projection = None, tmask & self.singles
            while projection:
                bit = projection & -projection
                projection ^= bit
                eff = self[bit]
                if eff is not None:
                    out = eff if out is None else out & eff
        elif row[0]:
            out = 0  # the carrier contains the bottom element
        elif not row[1]:
            out = None
        else:
            out = self.full_mask
            for m in row[1]:
                out &= m
        self[tmask] = out
        return out


class AspectTable:
    """One interpretation compiled against one model for integer reads.

    Themes are bit positions in ``model.themes`` order, so a theme set is an
    int mask, and a row is a :data:`Row` of element masks.  Every check reads
    the interpretation one way: :meth:`rows` and :meth:`infs` map a theme
    mask to a statement's (or :data:`OMEGA`'s) row and its infimum, each
    computed on its first read.  The first read of any statement makes one
    pass that keeps each explicit row under its theme mask; later reads are
    by int key.  :meth:`infs` takes a defaulted row's infimum as the meet of
    singleton infima, so only :meth:`rows` builds union rows.  Nothing is
    built over every theme mask, so a read at a few theme sets reads a few
    rows however many themes the model declares, which no cap limits.
    Entries live as long as the table, which is one check.
    """

    def __init__(self, interp: Interpretation, model: Model):
        self.interp = interp
        self.model = model
        self.algebra = interp.algebra
        self.full_mask = interp.algebra.full_mask
        self.names = names = tuple(dict.fromkeys(model.themes))
        self.bits = {t: 1 << i for i, t in enumerate(names)}
        # as in AspectSet: a small carrier listed in full is full
        self._listable = _listable(self.algebra)
        # by statement, each made on its first read
        self._rows: dict[str, _Rows] = {}
        self._infs: dict[str, _Infs] = {}
        # the explicit rows by mask, and each statement's own-theme mask,
        # each from one pass on first need
        self._compiled: tuple | None = None
        self._owns: dict[str, int] | None = None
        # each mask's sorted theme names, as violation records carry them,
        # and their ``repr``, as violation details print theme sets
        self.keys = keys = _Memo(
            lambda tmask: tuple(sorted(t for i, t in enumerate(names) if tmask >> i & 1))
        )
        self.key_texts = _Memo(lambda tmask: repr(keys[tmask]))
        # the theme subsets' masks and the relation checkers' decided cases,
        # made on first need, and the texts of effective aspects by (statement, theme mask)
        self.subsets: list[int] | None = None
        self.relation_cases: list[tuple] | None = None
        self.aspect_texts: dict[tuple[str, int], str] = {}

    def mask(self, themes: Iterable[str]) -> int:
        """The mask of a theme set; every theme must be declared by the model."""
        out = 0
        for th in themes:
            bit = self.bits.get(th)
            if bit is None:
                raise UnknownIdError(f"unknown theme id {th!r}")
            out |= bit
        return out

    def owns(self) -> Mapping[str, int]:
        """By statement, the mask of its declared themes, from one pass."""
        if self._owns is None:
            bits, self._owns = self.bits, {}
            for sid, themes in self.model.statement_themes.items():
                own = 0
                for th in themes:
                    own |= bits.get(th, 0)
                self._owns[sid] = own
        return self._owns

    def rows(self, s: str) -> Mapping[int, Row]:
        """The aspects of statement ``s`` (or :data:`OMEGA`) by theme mask."""
        out = self._rows.get(s)
        if out is None:
            out = self._rows[s] = self._statement_rows(s)
        return out

    def infs(self, s: str) -> Mapping[int, int | None]:
        """The masks of the infima (effective aspects) of :meth:`rows`, ``None``
        for an empty row."""
        out = self._infs.get(s)
        if out is None:
            rows = self.rows(s)
            out = self._infs[s] = _Infs()
            out.rows, out.given, out.singles = rows, rows.given, rows.singles
            out.full_mask = self.full_mask
        return out

    def _statement_rows(self, s: str) -> _Rows:
        """The empty row map of ``s``; an unknown statement raises."""
        singles, given, _, omega = self._compile()
        out = _Rows()
        out.unions, out.listable = {}, self._listable
        if s == OMEGA:
            out.given, out.singles = omega, 0
            return out
        out.given = given.get(s, {})
        out.singles = 0 if self.model.statement(s).is_summary_pointer else singles.get(s, 0)
        return out

    def explicit(self) -> tuple[Mapping[str, int], Mapping[str, Sequence[int]]]:
        """By statement, the bits of the themes of its singleton rows, and the
        masks of its explicit rows of other than one theme; a statement with
        none is not a key.  Where a statement defaults and has none of the
        latter, its row at every mask is the union of its singleton rows at
        the mask's themes."""
        singles, _, others, _ = self._compile()
        return singles, others

    def _compile(self) -> tuple:
        """One pass over the rows: by statement, its singleton-row bits, its
        explicit rows by theme mask and the masks of those of other than one
        theme; and the omega rows by theme mask.  A row keyed by an
        undeclared theme gets no mask and is left out."""
        if self._compiled is None:
            bits, singles, given, others = self.bits, {}, {}, {}
            for (themes, s), row in self.interp.statement_aspects.items():
                if len(themes) == 1:
                    (theme,) = themes
                    mask = bits.get(theme)
                    if mask is None:
                        continue
                    singles[s] = singles.get(s, 0) | mask
                else:
                    try:
                        mask = self.mask(themes)
                    except UnknownIdError:
                        continue
                    others.setdefault(s, []).append(mask)
                rows = given.get(s)
                if rows is None:
                    rows = given[s] = {}
                rows[mask] = row
            omega = {}
            for themes, row in self.interp.theme_aspects.items():
                try:
                    omega[self.mask(themes)] = row
                except UnknownIdError:
                    pass
            self._compiled = (singles, given, others, omega)
        return self._compiled


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
    full, masks = table.rows(s)[table.mask(themes)]
    algebra = interp.algebra
    return AspectSet(algebra, frozenset(Element(algebra, m) for m in masks), full)


def effective_aspect(
    interp: Interpretation, model: Model, themes: Iterable[str], s: str
) -> Element | None:
    """Infimum of the looked-up aspect set, or ``None`` when the set is empty."""
    table = AspectTable(interp, model)
    mask = table.infs(s)[table.mask(themes)]
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


WELLFORMED = "wf"
_REL_TYPE_SET = frozenset(REL_TYPES)
_NO_THEMES: frozenset[str] = frozenset()


def validate_wellformed(model: Model) -> list[Violation]:
    """Check the well-formedness conditions on the typed graph itself."""
    out: list[Violation] = []
    declared = set(model.themes)
    if len(declared) != len(model.themes):
        out.append(Violation(WELLFORMED, detail="duplicate theme ids"))
    for th in model.themes:
        if not th:
            out.append(Violation(WELLFORMED, detail="empty theme id"))
    typing, by_id = model.statement_themes, model._by_id
    seen_refs: dict[tuple[str, str | None], str] = {}
    for s in model.statements:
        sid = s.id
        if not sid:
            out.append(Violation(WELLFORMED, detail="empty statement id"))
        ts = typing.get(sid, _NO_THEMES)
        if not ts:
            out.append(Violation(WELLFORMED, (sid,), detail=f"statement {sid} untyped (no themes)"))
        elif not ts <= declared:
            out.append(
                Violation(
                    WELLFORMED,
                    (sid,),
                    detail=f"statement {sid} typed with undeclared themes {sorted(ts - declared)}",
                )
            )
        if s.ref_theme is None:
            continue
        if s.ref_theme not in declared:
            out.append(
                Violation(
                    WELLFORMED,
                    (sid,),
                    detail=f"pointer {sid} references undeclared theme {s.ref_theme!r}",
                )
            )
        target = s.ref_target
        if target is not None and target in by_id and by_id[target].ref_theme is not None:
            out.append(
                Violation(
                    WELLFORMED,
                    (sid,),
                    detail=f"pointer {sid} targets pointer {target}; "
                    "pointers must reference ordinary statements",
                )
            )
        ref = (s.ref_theme, s.ref_target)
        first = seen_refs.get(ref)
        if first is None:
            seen_refs[ref] = sid
        else:
            what = "summary" if s.ref_target is None else f"statement {s.ref_target!r}"
            out.append(
                Violation(
                    WELLFORMED,
                    (first, sid),
                    detail=f"{first} and {sid} both point to {what} of theme "
                    f"{s.ref_theme!r}; a pointer statement is identified by its reference",
                )
            )
    for sid in typing:
        if sid not in by_id:
            out.append(Violation(WELLFORMED, (sid,), detail=f"typing for unknown statement {sid}"))
    for r in model.relations:
        source, target, types, themes = r.source, r.target, r.rel_types, r.themes
        pair = (source, target)
        if source not in by_id or target not in by_id:
            out.append(
                Violation(WELLFORMED, relation=pair, detail=f"relation {pair} endpoint missing")
            )
            continue
        if not types:
            out.append(
                Violation(WELLFORMED, relation=pair, detail=f"relation {pair} has no attack/support type")
            )
        elif not types <= _REL_TYPE_SET:
            out.append(
                Violation(
                    WELLFORMED,
                    relation=pair,
                    detail=f"relation {pair} has unknown types {sorted(types - _REL_TYPE_SET)}",
                )
            )
        if not themes:
            out.append(Violation(WELLFORMED, relation=pair, detail=f"relation {pair} has no themes"))
            continue
        at_source, at_target = typing.get(source, _NO_THEMES), typing.get(target, _NO_THEMES)
        if themes <= at_source or themes <= at_target:
            continue
        stray = themes - at_source - at_target
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
