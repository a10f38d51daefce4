"""Error hierarchy.

Every failure raised by this library is a subclass of ReflectixError, so
callers (and the command line tool) can rely on structured errors rather
than bare exceptions escaping from deep inside a traversal.
"""

from __future__ import annotations


class ReflectixError(Exception):
    """Base class for all library errors.

    A serializer walk raises without a location. Each level the error
    unwinds out of notes the field index it took (under_field), and the
    walk's entry point locates the error once: path becomes root.i.j
    and the message gains the prefix "at root.i.j: ". Elsewhere path is
    None.
    """

    path: str | None = None

    def under_field(self, i: int) -> None:
        self.__dict__.setdefault("_fields", []).append(i)

    def locate(self) -> None:
        if self.path is None:
            fields = reversed(self.__dict__.get("_fields", []))
            self.path = ".".join(["root", *map(str, fields)])
            self.args = (f"at {self.path}: {self}",)


class NotSupported(ReflectixError):
    """An extensible function has no case for the requested type."""

    def __init__(self, doc: str, rendered_type: str):
        self.doc = doc
        self.rendered_type = rendered_type
        super().__init__(f"{doc}: type not supported yet: {rendered_type}")


class DuplicateDescriptor(ReflectixError):
    """A descriptor is already registered for this type head."""


class ArityMismatch(ReflectixError):
    """A constructor or rebuild received the wrong number of arguments."""


class IndexOutOfRange(ReflectixError):
    """A constructor tag lies outside its table."""


class MalformedValue(ReflectixError):
    """A value does not belong to the variant it was presented as."""


class UnknownConstructor(ReflectixError):
    """An extensible constructor name is absent from the registry."""


class DuplicateConstructor(ReflectixError):
    """An extensible constructor name is already registered."""


class NoRepresentation(ReflectixError):
    """An abstract or opaque type has no public representation."""


class NoView(ReflectixError):
    """The requested generic view does not exist for this type."""


class NoMatchingConstructor(ReflectixError):
    """No constructor in a list projects the given value."""


class BrandMismatch(ReflectixError):
    """An effectful value was interpreted under the wrong brand."""


class FuelExhausted(ReflectixError):
    """A rewrite loop exceeded its rule-firing budget."""


class SafeserError(ReflectixError):
    """Base class for serialization failures."""


class MalformedBytes(SafeserError):
    """The byte string is not a well-formed wire-format graph."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"malformed bytes at offset {offset}: {reason}")


class Incompatible(SafeserError):
    """A graph node does not fit the shape the type requires."""

    def __init__(self, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected}, found {found}")


class RepresentationRejected(SafeserError):
    """from_repr refused a decoded representation value."""


class NoDescriptor(SafeserError):
    """The type has no descriptor usable for serialization."""


class CyclicValue(SafeserError):
    """A cyclic graph cannot materialize as an immutable value."""


class DepthLimitExceeded(SafeserError):
    """A value or graph nests too deeply for the recursive walk over it."""


class BudgetExceeded(SafeserError):
    """Materializing a graph would build more values than its budget."""


class ParseError(ReflectixError):
    """Text input failed to parse."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"parse error at line {line}, column {column}: {reason}")

    @classmethod
    def at(cls, text: str, pos: int, reason: str) -> "ParseError":
        """The error at offset pos of text, with 1-based line and column."""
        line = text.count("\n", 0, pos) + 1
        return cls(line, pos - text.rfind("\n", 0, pos), reason)


class UnknownType(ReflectixError):
    """A type name is absent from the constructor table."""
