"""Low-level structural descriptors.

Every serializable or traversable type is registered here under its
head, as a builder from argument representations to a descriptor that
says what the type is made of: a variant with tagged constructors, a
record, a bare product, an array, an open (extensible) constructor set,
a synonym, a scalar, or an abstract name.

Constructors carry an embed/proj pair between values and argument
tuples in field order, so generic code can take values apart and
rebuild them without knowing the concrete Python classes involved.
Only the sum-of-products view (views.sumprod) nests them in pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .errors import (
    ArityMismatch,
    DuplicateConstructor,
    DuplicateDescriptor,
    IndexOutOfRange,
    MalformedValue,
    NoDescriptor,
    NoRepresentation,
    UnknownConstructor,
)
from .typerep import (
    ANY,
    EqualityWitness,
    Head,
    TyCon,
    TypePattern,
    TypeRep,
    render,
)


# ---------------------------------------------------------------------------
# Products


@dataclass(frozen=True)
class ProductShape:
    """An ordered tuple of component types."""

    reps: tuple[TypePattern, ...]


@dataclass(frozen=True)
class Iso:
    """An isomorphism between a user-facing value and its field tuple."""

    fwd: Callable[[Any], Any]
    bck: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# Fields and constructors


@dataclass(frozen=True)
class Field:
    """One constructor argument; name is empty for positional fields."""

    name: str
    ty: TypePattern


FieldList = tuple[Field, ...]


@dataclass(frozen=True)
class Constructor:
    """A data constructor with its argument fields and value conversions.

    proj is a partial inverse of embed: proj(embed(xs)) == xs for every
    argument tuple xs, and proj returns None on values built by a
    different constructor.
    """

    name: str
    fields: FieldList
    embed: Callable[[Sequence[Any]], Any]
    proj: Callable[[Any], Optional[tuple]]

    @property
    def arity(self) -> int:
        return len(self.fields)

    def __repr__(self) -> str:
        return f"<constructor {self.name}/{self.arity}>"


@dataclass(frozen=True)
class ConApp:
    """A value split into its constructor and argument tuple."""

    con: Constructor
    args: tuple


# ---------------------------------------------------------------------------
# Descriptor categories


class Desc:
    """Base class for structural descriptors."""


@dataclass(frozen=True)
class ScalarDesc(Desc):
    """A primitive with no substructure; kind is int, float, or char."""

    name: str
    kind: str


@dataclass(frozen=True)
class VariantDesc(Desc):
    """A closed sum of constructors.

    Constant (arity 0) and non-constant constructors are indexed by
    separate dense tag tables in declaration order. classify maps a
    value to its (kind, tag) in constant time, which keeps conap free
    of projection scans.
    """

    name: str
    module_path: tuple[str, ...]
    cons: tuple[Constructor, ...]
    classify: Callable[[Any], tuple[str, int]]
    cst: tuple[Constructor, ...] = field(init=False)
    ncst: tuple[Constructor, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cst", tuple(c for c in self.cons if c.arity == 0)
        )
        object.__setattr__(
            self, "ncst", tuple(c for c in self.cons if c.arity > 0)
        )

    @property
    def cst_len(self) -> int:
        return len(self.cst)

    @property
    def ncst_len(self) -> int:
        return len(self.ncst)

    def cst_get(self, tag: int) -> Constructor:
        if not 0 <= tag < len(self.cst):
            raise IndexOutOfRange(f"constant tag {tag} of {self.name}")
        return self.cst[tag]

    def ncst_get(self, tag: int) -> Constructor:
        if not 0 <= tag < len(self.ncst):
            raise IndexOutOfRange(f"non-constant tag {tag} of {self.name}")
        return self.ncst[tag]


@dataclass(frozen=True)
class RecordDesc(Desc):
    """Named fields plus an isomorphism to the field tuple.

    iso.bck raises MalformedValue on a value outside the type, as a
    variant's classify does.
    """

    name: str
    module_path: tuple[str, ...]
    fields: FieldList
    iso: Iso


@dataclass(frozen=True)
class ProductDesc(Desc):
    """A bare tuple type; iso maps the user value to its component tuple.

    iso.bck raises MalformedValue on a value outside the type.
    """

    shape: ProductShape
    iso: Iso


@dataclass(frozen=True)
class ArrayOps:
    """Primitive operations of an array-like type."""

    length: Callable[[Any], int]
    get: Callable[[Any, int], Any]
    init: Callable[[int, Callable[[int], Any]], Any]


@dataclass(frozen=True)
class ArrayLikeDesc(Desc):
    """Homogeneous indexed elements; bytes_like types serialize as raw bytes."""

    elem: TypePattern
    ops: ArrayOps
    bytes_like: bool = False


class ExtensibleDesc(Desc):
    """An open constructor set that grows at runtime.

    The registry is keyed by constructor name; registration order is
    preserved for listing. Extension takes a lock so concurrent readers
    always see a consistent snapshot.
    """

    def __init__(self, name: str, module_path: tuple[str, ...] = ()):
        self.name = name
        self.module_path = module_path
        self._cons: dict[str, Constructor] = {}
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"<extensible {self.name}: {len(self._cons)} constructors>"


@dataclass(frozen=True)
class ExtValue:
    """A value of an extensible type: a constructor plus flat arguments."""

    con: Constructor
    args: tuple


@dataclass(frozen=True)
class SynonymDesc(Desc):
    """This type is another type under a different name."""

    target: TypeRep
    eq: EqualityWitness


@dataclass(frozen=True)
class AbstractDesc(Desc):
    """A named type whose structure is hidden; only its name is known."""

    name: str
    module_path: tuple[str, ...]


class _NoDesc(Desc):
    _instance: Optional["_NoDesc"] = None

    def __new__(cls) -> "_NoDesc":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoDesc"


NO_DESC = _NoDesc()


@dataclass(frozen=True)
class Representation:
    """Public view of an abstract type.

    to_repr is total; from_repr validates and returns None on values
    outside the abstract type's range, making it a retraction:
    from_repr(to_repr(x)) == x.
    """

    repr_ty: TypeRep
    to_repr: Callable[[Any], Any]
    from_repr: Callable[[Any], Optional[Any]]


# ---------------------------------------------------------------------------
# Registration and lookup: two tables from a head to its builder.

DescBuilder = Callable[..., Desc]
_descs: dict[Head, DescBuilder] = {}
_reprs: dict[Head, Callable[..., Representation]] = {}
_register_lock = threading.Lock()


def _head_of(witness: Any) -> Head:
    if isinstance(witness, TyCon):
        return witness.head
    if isinstance(witness, TypeRep):
        return witness.head
    if isinstance(witness, Head):
        return witness
    raise ArityMismatch(f"not a type witness: {witness!r}")


def register(witness: Any, builder: DescBuilder) -> None:
    """Register a descriptor builder for a type head.

    The builder receives one argument representation per head parameter
    and returns the descriptor. The table is keyed by head alone and
    stays open: a head registered later is seen by the next lookup.
    Registering a head twice is an error.
    """
    head = _head_of(witness)
    with _register_lock:
        if head in _descs:
            raise DuplicateDescriptor(f"descriptor for {head.name} already registered")
        _descs[head] = builder


def view_desc(t: TypePattern) -> Desc:
    """Its head's builder applied to t's arguments, which may be
    wildcards; NO_DESC for the wildcard or an unregistered head."""
    if t is ANY:
        return NO_DESC
    builder = _descs.get(t.head)
    return NO_DESC if builder is None else builder(*t.args)


def follow_synonyms(t: TypePattern) -> tuple[TypePattern, Desc]:
    """The type t names past its synonyms, and that type's descriptor;
    NoDescriptor after 64 steps, which a synonym cycle reaches."""
    for _ in range(64):
        dd = view_desc(t)
        if not isinstance(dd, SynonymDesc):
            return t, dd
        t = dd.target
    raise NoDescriptor(f"synonym chain too long at {render(t)}")


def register_repr(witness: Any, builder: Callable[..., Representation]) -> None:
    """Attach a public representation to an abstract head."""
    head = _head_of(witness)
    with _register_lock:
        if head in _reprs:
            raise DuplicateDescriptor(
                f"representation for {head.name} already registered"
            )
        _reprs[head] = builder


def repr_of(t: TypeRep) -> Representation:
    """The public representation of t; raises NoRepresentation."""
    r = try_repr(t)
    if r is None:
        raise NoRepresentation(f"no representation registered for {t!r}")
    return r


def try_repr(t: TypeRep) -> Optional[Representation]:
    if t is ANY:
        return None
    builder = _reprs.get(t.head)
    return None if builder is None else builder(*t.args)


# ---------------------------------------------------------------------------
# Taking values apart


def conap(dd: VariantDesc | ExtensibleDesc, x: Any) -> ConApp:
    """Split x into its constructor and argument tuple.

    The one way to take a value apart. Runs in constant time: a
    variant's classify yields the tag and the tag indexes the
    constructor table; an extensible value names its constructor,
    which is looked up in the registry. That constructor's proj then
    extracts the arguments. A value outside the type raises
    MalformedValue.
    """
    if isinstance(dd, ExtensibleDesc):
        if not isinstance(x, ExtValue):
            raise MalformedValue(f"not a {dd.name} value: {x!r}")
        con = ext_find(dd, x.con.name)
    else:
        kind, tag = dd.classify(x)
        con = dd.cst_get(tag) if kind == "cst" else dd.ncst_get(tag)
    args = con.proj(x)
    if args is None:
        raise MalformedValue(f"{dd.name} value does not project as {con.name}")
    return ConApp(con, args)


def check_leaf(kind: str, v: Any, path: str = "") -> Any:
    """v, if it is a value of this leaf kind: a ScalarDesc's kind, or
    "text" for a bytes-like array. Otherwise MalformedValue, at path if
    given. The one rule the serializer, show and equal apply to leaves.
    """
    if kind == "int":
        ok = isinstance(v, int) and not isinstance(v, bool)
    elif kind == "float":
        ok = isinstance(v, float)
    elif kind == "char":
        ok = isinstance(v, str) and len(v) == 1
    else:
        ok = kind == "text" and isinstance(v, str)
    if not ok:
        where = f"at {path}: " if path else ""
        raise MalformedValue(f"{where}{kind} expected, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Extensible constructor sets


def ext_create(name: str, module_path: tuple[str, ...] = ()) -> ExtensibleDesc:
    """A fresh, empty extensible constructor registry."""
    return ExtensibleDesc(name, module_path)


def add_con(e: ExtensibleDesc, c: Constructor) -> None:
    """Register a constructor; duplicate names are an error."""
    with e._lock:
        if c.name in e._cons:
            raise DuplicateConstructor(f"{e.name} already has constructor {c.name}")
        e._cons[c.name] = c


def ext_con_list(e: ExtensibleDesc) -> list[Constructor]:
    """Snapshot of the registered constructors, oldest first."""
    return list(e._cons.values())


def ext_find(e: ExtensibleDesc, name: str) -> Constructor:
    con = e._cons.get(name)
    if con is None:
        raise UnknownConstructor(f"{e.name} has no constructor {name}")
    return con


def reinstate(e: ExtensibleDesc, x: ExtValue) -> ExtValue:
    """Swap x's constructor for the one registered under the same name.

    Values that crossed a serialization boundary carry structurally
    correct but foreign constructor identities; reinstating restores
    the canonical one so identity-sensitive comparisons succeed.
    """
    return ExtValue(ext_find(e, x.con.name), x.args)


def ext_constructor(name: str, field_tys: Sequence[TypePattern]) -> Constructor:
    """A constructor over ExtValue with positional fields."""
    fields = tuple(Field("", ty) for ty in field_tys)
    holder: list[Constructor] = []

    def embed(args: Sequence[Any]) -> ExtValue:
        return ExtValue(holder[0], tuple(args))

    def proj(v: Any) -> Optional[tuple]:
        if isinstance(v, ExtValue) and v.con.name == name:
            return v.args if len(v.args) == len(fields) else None
        return None

    con = Constructor(name, fields, embed, proj)
    holder.append(con)
    return con


# ---------------------------------------------------------------------------
# Helpers for registering concrete Python classes


def class_constructor(
    cls: type,
    field_specs: Sequence[tuple[str, TypePattern]],
    name: Optional[str] = None,
) -> Constructor:
    """Constructor backed by a Python class with named attributes.

    Attribute names drive extraction; the fields themselves are
    positional and immutable.
    """
    fields = tuple(Field("", ty) for _, ty in field_specs)
    names = [fname for fname, _ in field_specs]

    def embed(args: Sequence[Any]) -> Any:
        return cls(*args)

    def proj(v: Any) -> Optional[tuple]:
        if type(v) is cls:
            return tuple(getattr(v, fname) for fname in names)
        return None

    return Constructor(name or cls.__name__, fields, embed, proj)


def constant_constructor(name: str, value: Any) -> Constructor:
    """An argumentless constructor denoting a single value."""

    def embed(args: Sequence[Any]) -> Any:
        return value

    def proj(v: Any) -> Optional[tuple]:
        return () if v == value and type(v) is type(value) else None

    return Constructor(name, (), embed, proj)


def classify_by_class(
    variant_name: str, mapping: dict[type, tuple[str, int]]
) -> Callable[[Any], tuple[str, int]]:
    """Constant-time classification keyed on the value's class."""

    def classify(x: Any) -> tuple[str, int]:
        entry = mapping.get(type(x))
        if entry is None:
            raise MalformedValue(f"not a {variant_name} value: {x!r}")
        return entry

    return classify
