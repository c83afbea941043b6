"""Branch-height signatures and their pointwise order.

A signature is a nonempty multiset of positive integers written
``n1^m1.n2^m2...`` with the heights strictly decreasing; the empty signature
is written ``e``.  Signatures classify starlike trees by their branch
heights and posets by the heights of their connected components.
"""
from __future__ import annotations

from typing import Iterable, Tuple

from ._support import Frozen, cached_property
from .errors import IndexOutOfRange, MalformedInput


class Signature(Frozen):
    """Multiset of positive branch heights, kept as descending (height,
    multiplicity) pairs. Normalised on construction; immutable, equal to
    another signature with the same entries."""

    entries: Tuple[Tuple[int, int], ...]

    def __init__(self, entries: Tuple[Tuple[int, int], ...]):
        counts: dict[int, int] = {}
        for n, m in entries:
            if n < 1 or m < 1:
                raise MalformedInput(f"signature entries must be positive, got {n}^{m}")
            counts[n] = counts.get(n, 0) + m
        normalised = tuple(sorted(counts.items(), reverse=True))
        object.__setattr__(self, "entries", normalised)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_heights(cls, heights: Iterable[int]) -> "Signature":
        """Signature with one unit entry per listed height."""
        return cls(tuple((h, 1) for h in heights))

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse the text form, e.g. ``"3^2.2.1"`` or ``"e"``."""
        text = text.strip()
        if text in ("e", ""):
            return EPSILON
        entries = []
        for part in text.split("."):
            if "^" in part:
                n_text, _, m_text = part.partition("^")
            else:
                n_text, m_text = part, "1"
            try:
                n, m = int(n_text), int(m_text)
            except ValueError:
                raise MalformedInput(f"bad signature component {part!r} in {text!r}") from None
            entries.append((n, m))
        return cls(tuple(entries))

    # -- basic views --------------------------------------------------------

    @cached_property
    def size(self) -> int:
        """Total number of branches, |alpha|, read off the entries, so a
        huge multiplicity is never expanded."""
        return sum(m for _, m in self.entries)

    @cached_property
    def heights(self) -> Tuple[int, ...]:
        """Descending expansion, one height per branch."""
        return tuple(n for n, m in self.entries for _ in range(m))

    def at(self, j: int) -> int:
        """The j-th height (1-indexed, descending)."""
        if not 1 <= j <= self.size:
            raise IndexOutOfRange(f"signature index {j} out of range 1..{self.size}")
        for n, m in self.entries:
            if j <= m:
                return n
            j -= m

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def is_chain(self) -> bool:
        """k^1 signatures: the starlike tree is a chain."""
        return len(self.entries) == 1 and self.entries[0][1] == 1

    @property
    def is_fork(self) -> bool:
        """1^k signatures: the starlike tree only has trivial branches."""
        return len(self.entries) == 1 and self.entries[0][0] == 1

    # -- ordering ------------------------------------------------------------

    def leq(self, other: "Signature") -> bool:
        """Pointwise order on descending expansions, shorter below longer.
        Both expansions descend, so each run of equal heights need only be
        compared at its last position; a huge multiplicity is never
        expanded."""
        if self.size > other.size:
            return False
        end = 0
        for n, m in self.entries:
            end += m
            if n > other.at(end):
                return False
        return True

    def splits(self, contype: Tuple[int, ...]) -> bool:
        """Whether a set of connectedness type ``contype`` (its component
        heights in descending order, ``()`` for the empty set) has an open
        partition into |self| pieces with the prescribed heights: for the
        empty signature only the empty set does, otherwise exactly when
        self.heights is pointwise below ``contype``."""
        if not self.entries:
            return not contype
        return self.size <= len(contype) and _below(self.heights, contype)

    def __le__(self, other: "Signature") -> bool:
        return self.leq(other)

    def __lt__(self, other: "Signature") -> bool:
        return self != other and self.leq(other)

    # -- text ------------------------------------------------------------------

    def text(self) -> str:
        if not self.entries:
            return "e"
        return ".".join(str(n) if m == 1 else f"{n}^{m}" for n, m in self.entries)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Signature({self.text()!r})"


def _below(mine: Tuple[int, ...], theirs: Tuple[int, ...]) -> bool:
    """Pointwise order, the sizes already compared."""
    return all(a <= b for a, b in zip(mine, theirs))


EPSILON = Signature(())
SCOTT = Signature(((2, 1), (1, 1)))  # 2.1, the signature of Scott's tree
DIFORK = Signature(((1, 2),))  # 1^2, excluded from the logic layer


def signature_leq(alpha: Signature, beta: Signature) -> bool:
    return alpha.leq(beta)
