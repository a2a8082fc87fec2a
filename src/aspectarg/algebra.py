"""Finite Boolean algebras over named atomic propositions.

An algebra over k propositions has 2**k minterms (full truth assignments);
every element is the set of minterms it covers, stored as an int bitmask.
Meet, join and complement are then bitwise and/or/negation, the lattice
order is bitmask inclusion, and the atoms are the one-minterm masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

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

    # Python reflects a >= b to b <= a and a > b to b < a, so these two give
    # the whole order; against a non-Element all four raise TypeError
    def __le__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return self.mask | other.mask == other.mask

    def __lt__(self, other: "Element") -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self <= other and self.mask != other.mask

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


def closed_under_boolean_ops(masks: frozenset[int], full: int) -> bool:
    """Whether the element masks hold 0 and ``full`` (the top mask) and are
    closed under complement, meet and join: a subalgebra.

    The masks cut the minterms into blocks, the atoms of the subalgebra they
    generate, which holds 2^a masks for a blocks and contains the set.  So the
    set is a subalgebra exactly when it holds 2^a masks.  The blocks are
    refined one mask at a time, and the test stops once 2^a exceeds the
    set's size, so it makes at most ``len(masks) * (log2(len(masks)) + 1)``
    mask operations, not ``len(masks) ** 2``.
    """
    if 0 not in masks or full not in masks:
        return False
    size = len(masks)
    blocks = [full]
    for m in masks:
        refined = []
        for b in blocks:
            inside = b & m
            if inside and inside != b:
                refined += (inside, b ^ inside)
            else:
                refined.append(b)
        blocks = refined
        if 1 << len(blocks) > size:
            return False
    return 1 << len(blocks) == size
