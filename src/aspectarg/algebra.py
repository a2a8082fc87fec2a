"""Finite Boolean algebras over named atomic propositions.

An algebra over k propositions has 2**k minterms (full truth assignments);
every element is the set of minterms it covers, stored as an int bitmask.
Meet, join and complement are then bitwise and/or/negation, and the lattice
order is bitmask inclusion.  Finite Boolean algebras are complete, so
arbitrary infima and suprema exist; ``inf_set``/``sup_set`` use the usual
empty-meet = top / empty-join = bottom convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import AlgebraError, CapExceeded


@lru_cache(maxsize=None)
def _full_mask(k: int) -> int:
    return (1 << (1 << k)) - 1


@lru_cache(maxsize=None)
def _prop_mask(k: int, i: int) -> int:
    """Minterm mask of proposition i in a k-proposition algebra.

    Minterm m satisfies the proposition iff bit i of m is set, giving a
    repeating run of 2**i zeros then 2**i ones; built by doubling so large
    algebras stay cheap.
    """
    half = 1 << i
    mask = ((1 << half) - 1) << half
    width = 2 * half
    n = 1 << k
    while width < n:
        mask |= mask << width
        width *= 2
    return mask

#: Cap on the number of propositions (2**20 minterm bits per element).
MAX_PROPS = 20

#: Largest carrier we are willing to enumerate (2**2**k elements).
MAX_ENUMERABLE_CARRIER = 1 << 16


@dataclass(frozen=True)
class Algebra:
    """A finite Boolean algebra, identified by its ordered proposition names."""

    props: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.props)

    @property
    def n_minterms(self) -> int:
        return 1 << self.k

    @property
    def full_mask(self) -> int:
        return _full_mask(self.k)

    @property
    def carrier_size(self) -> int:
        return 1 << self.n_minterms

    @property
    def top(self) -> "Element":
        return Element(self, self.full_mask)

    @property
    def bottom(self) -> "Element":
        return Element(self, 0)

    def prop(self, name: str) -> "Element":
        """The element of a single atomic proposition."""
        try:
            i = self.props.index(name)
        except ValueError:
            raise AlgebraError(f"unknown proposition {name!r}") from None
        return Element(self, _prop_mask(self.k, i))

    def elements(self) -> Iterator["Element"]:
        """Enumerate the whole carrier (only feasible for small k)."""
        if self.carrier_size > MAX_ENUMERABLE_CARRIER:
            raise CapExceeded(
                f"carrier of a {self.k}-proposition algebra has {self.carrier_size} "
                f"elements, above the enumeration cap {MAX_ENUMERABLE_CARRIER}"
            )
        for mask in range(self.carrier_size):
            yield Element(self, mask)


@dataclass(frozen=True)
class Element:
    """One element of a finite Boolean algebra: a set of minterms."""

    algebra: Algebra
    mask: int

    def _check_same(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("elements belong to different algebras")

    def __and__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.mask & other.mask)

    def __or__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.mask | other.mask)

    def __invert__(self) -> "Element":
        return Element(self.algebra, self.mask ^ self.algebra.full_mask)

    def __le__(self, other: "Element") -> bool:
        self._check_same(other)
        return self.mask | other.mask == other.mask

    def __lt__(self, other: "Element") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "Element") -> bool:
        return other <= self

    def __gt__(self, other: "Element") -> bool:
        return other < self

    def comparable(self, other: "Element") -> bool:
        return self <= other or other <= self

    def minterms(self) -> tuple[int, ...]:
        """Indices of the covered minterms, ascending; linear in the mask width."""
        bits = bin(self.mask)[:1:-1]  # least significant bit first, without "0b"
        return tuple(i for i, c in enumerate(bits) if c == "1")

    @property
    def is_top(self) -> bool:
        return self.mask == self.algebra.full_mask

    @property
    def is_bottom(self) -> bool:
        return self.mask == 0

    def __repr__(self) -> str:
        return f"Element({self.mask:#x} over {self.algebra.props})"


def mk_algebra(props: Sequence[str]) -> Algebra:
    """Build the algebra whose atoms are the full conjunctions of literals over ``props``."""
    names = tuple(props)
    if not names:
        raise AlgebraError("an algebra needs at least one proposition")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise AlgebraError(f"duplicate proposition names: {', '.join(dupes)}")
    for n in names:
        if not n:
            raise AlgebraError("proposition names must be non-empty")
    if len(names) > MAX_PROPS:
        raise CapExceeded(f"{len(names)} propositions exceed the cap of {MAX_PROPS}")
    return Algebra(names)


def inf_set(algebra: Algebra, elements: Iterable[Element]) -> Element:
    """Infimum of a set of elements; the empty infimum is the top element."""
    mask = algebra.full_mask
    for e in elements:
        if e.algebra != algebra:
            raise AlgebraError("elements belong to different algebras")
        mask &= e.mask
    return Element(algebra, mask)


def sup_set(algebra: Algebra, elements: Iterable[Element]) -> Element:
    """Supremum of a set of elements; the empty supremum is the bottom element."""
    mask = 0
    for e in elements:
        if e.algebra != algebra:
            raise AlgebraError("elements belong to different algebras")
        mask |= e.mask
    return Element(algebra, mask)


def downset(algebra: Algebra, elements: Iterable[Element]) -> frozenset[Element]:
    """Smallest down set containing ``elements`` (materialised; small algebras only)."""
    seeds = list(elements)
    if not seeds:
        return frozenset()
    return frozenset(x for x in algebra.elements() if any(x <= s for s in seeds))


def upset(algebra: Algebra, elements: Iterable[Element]) -> frozenset[Element]:
    """Smallest up set containing ``elements`` (materialised; small algebras only)."""
    seeds = list(elements)
    if not seeds:
        return frozenset()
    return frozenset(x for x in algebra.elements() if any(s <= x for s in seeds))


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


def is_subalgebra(elements: Iterable[Element], algebra: Algebra) -> bool:
    """True iff the set contains 0 and 1 and is closed under not/and/or."""
    elems = set(elements)
    for e in elems:
        if e.algebra != algebra:
            raise AlgebraError("elements belong to different algebras")
    return closed_under_boolean_ops(frozenset(e.mask for e in elems), algebra.full_mask)


def closed_under_boolean_ops(masks: frozenset[int], full: int) -> bool:
    """:func:`is_subalgebra` on element masks, ``full`` being the top mask."""
    if 0 not in masks or full not in masks:
        return False
    for a in masks:
        if a ^ full not in masks:
            return False
    for a in masks:
        for b in masks:
            if a & b not in masks or a | b not in masks:
                return False
    return True


@dataclass(frozen=True)
class DisjointProduct:
    """Product of algebras with disjoint proposition names, plus embeddings.

    Embedded non-trivial elements of distinct parts share only 0 and 1 and
    are never comparable with each other.
    """

    algebra: Algebra
    parts: tuple[Algebra, ...]
    offsets: tuple[int, ...]

    def embed(self, part_index: int, element: Element) -> Element:
        part = self.parts[part_index]
        if element.algebra != part:
            raise AlgebraError("element does not belong to the indicated part")
        offset = self.offsets[part_index]
        width = (1 << part.k) - 1
        mask = 0
        for m in range(self.algebra.n_minterms):
            if (element.mask >> ((m >> offset) & width)) & 1:
                mask |= 1 << m
        return Element(self.algebra, mask)


def disjoint_product(parts: Sequence[Algebra]) -> DisjointProduct:
    """Combine algebras over disjoint proposition names into one product algebra."""
    seen: set[str] = set()
    for part in parts:
        for name in part.props:
            if name in seen:
                raise AlgebraError(f"proposition name {name!r} appears in two parts")
            seen.add(name)
    all_props: list[str] = []
    offsets: list[int] = []
    for part in parts:
        offsets.append(len(all_props))
        all_props.extend(part.props)
    product = mk_algebra(all_props)
    return DisjointProduct(product, tuple(parts), tuple(offsets))
