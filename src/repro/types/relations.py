"""Relation types: ``reltype = RELATION key OF elementtype``.

Section 2.2 of the paper characterizes a relation type as an annotated
set type: the legal values are sets of element records that additionally
satisfy the key functional dependency

    ALL r1, r2 IN rel (r1.key = r2.key ==> r1 = r2).

:class:`RelationType` carries the element record type and the (possibly
empty) key attribute list.  An empty key means the whole tuple is the
identifier — a pure set, which is what constructed (derived) relations
use, mirroring the paper's ``RELATION ... OF`` ellipsis.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import KeyConstraintError, SchemaError
from .atomic import Type
from .records import RecordType


class RelationType(Type):
    """The type of a relation variable: element record type plus key."""

    def __init__(
        self,
        name: str,
        element: RecordType,
        key: tuple[str, ...] | list[str] = (),
    ) -> None:
        key = tuple(key)
        for attr in key:
            if not element.has_attribute(attr):
                raise SchemaError(
                    f"relation type {name}: key attribute {attr!r} is not a "
                    f"field of {element.name}"
                )
        if len(set(key)) != len(key):
            raise SchemaError(f"relation type {name}: duplicate key attribute")
        self.name = name
        self.element = element
        self.key = key
        self._key_indexes = tuple(element.index_of(a) for a in key)

    # -- membership ----------------------------------------------------

    def contains(self, value: object) -> bool:
        """A relation value is an iterable of element tuples with unique keys."""
        if not isinstance(value, (set, frozenset, list, tuple)):
            return False
        if not all(self.element.contains(v) for v in value):
            return False
        try:
            self.check_key(value)
        except KeyConstraintError:
            return False
        return True

    def family(self) -> str:
        return "relation:" + self.element.family()

    # -- key constraint --------------------------------------------------

    def key_of(self, row: tuple) -> tuple:
        """Project a raw value tuple onto the key attributes."""
        return tuple(row[i] for i in self._key_indexes)

    def check_key(self, rows: Iterable[tuple]) -> None:
        """Enforce the key functional dependency over ``rows``.

        Implements the paper's checked assignment:

            IF ALL x1,x2 IN rex (x1.key=x2.key ==> x1=x2)
            THEN rel := rex ELSE <exception>
        """
        if not self.key:
            return
        seen: dict[tuple, tuple] = {}
        for row in rows:
            k = self.key_of(row)
            other = seen.get(k)
            if other is not None and other != row:
                raise self.key_conflict(other, row)
            seen[k] = row

    def key_conflict(self, other: tuple, row: tuple) -> KeyConstraintError:
        """The exception for two distinct rows sharing one key value."""
        return KeyConstraintError(
            f"relation type {self.name}: key {self.key_of(row)!r} identifies "
            f"both {other!r} and {row!r}"
        )

    # -- structural relationships ----------------------------------------

    def keyless(self) -> "RelationType":
        """The same element type without a key (for derived relations)."""
        if not self.key:
            return self
        return RelationType(self.name + "'", self.element, ())

    def __str__(self) -> str:  # pragma: no cover - trivial
        key = ", ".join(self.key) if self.key else "..."
        return f"{self.name} = RELATION {key} OF {self.element.name}"


def relation_type(
    name: str, element: RecordType, key: Iterable[str] = ()
) -> RelationType:
    """Convenience builder mirroring ``RELATION key OF element``."""
    return RelationType(name, element, tuple(key))
