"""Low-level structural descriptors.

Every serializable or traversable type is registered here under its
head, as a builder from argument representations to a descriptor that
says what the type is made of: a variant with tagged constructors, a
record, a bare product, an array, an open (extensible) constructor set,
a synonym, a leaf, or an abstract name. A record or bare product is a
type with exactly one constructor. Leaves (numbers, characters, text)
and arrays have fixed host forms, which check_leaf states: text is a
Python str and an array is a Python list.

Constructors carry an embed/proj pair between values and argument
tuples in field order, so generic code can take values apart with
conap and rebuild them without knowing the concrete Python classes
involved. Only the sum-of-products view (views.sumprod) nests them in
pairs.
"""

from __future__ import annotations

import functools
import reprlib
import threading
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence

from .errors import (
    ArityMismatch,
    DuplicateConstructor,
    DuplicateDescriptor,
    IndexOutOfRange,
    MalformedValue,
    NoDescriptor,
    NoRepresentation,
    NoView,
    UnknownConstructor,
)
from .typerep import (
    ANY,
    EqualityWitness,
    Head,
    TyCon,
    TypePattern,
    TypeRep,
    brief,
)


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


@dataclass(frozen=True, slots=True)
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
    """A leaf with no substructure; kind is int, float, char, or text."""

    name: str
    kind: str


@dataclass(frozen=True)
class VariantDesc(Desc):
    """A closed sum of constructors.

    Constant (arity 0) and non-constant constructors are indexed by
    separate dense tag tables in declaration order. classify maps a
    value to its (kind, tag) in constant time, and _entries maps each
    such pair to its constructor, which keeps conap free of projection
    scans.
    """

    name: str
    module_path: tuple[str, ...]
    cons: tuple[Constructor, ...]
    classify: Callable[[Any], tuple[str, int]]
    cst: tuple[Constructor, ...] = field(init=False)
    ncst: tuple[Constructor, ...] = field(init=False)
    _entries: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups = {"cst": tuple(c for c in self.cons if c.arity == 0),
                  "ncst": tuple(c for c in self.cons if c.arity > 0)}
        entries = {(k, i): c for k, g in groups.items() for i, c in enumerate(g)}
        for name, value in (*groups.items(), ("_entries", entries)):
            object.__setattr__(self, name, value)

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
    """A named type with one constructor, whose fields are named."""

    name: str
    module_path: tuple[str, ...]
    con: Constructor


@dataclass(frozen=True)
class ProductDesc(Desc):
    """A bare tuple type: one constructor, named after the type's head,
    with positional fields."""

    con: Constructor


@dataclass(frozen=True)
class ArrayLikeDesc(Desc):
    """Homogeneous elements of type elem, held in a Python list."""

    elem: TypePattern


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
# Registration and lookup: two tables from a head to its builder, and
# per-type caches of what is built from them, one per staged function,
# view_desc and try_repr included.

DescBuilder = Callable[..., Desc]
_descs: dict[Head, DescBuilder] = {}
_reprs: dict[Head, Callable[..., Representation]] = {}
_register_lock = threading.Lock()
_CACHE_BOUND = 256
_caches: list[dict] = []
_generation = 0


def _head_of(witness: Any) -> Head:
    if isinstance(witness, TyCon):
        return witness.head
    if isinstance(witness, TypeRep):
        return witness.head
    if isinstance(witness, Head):
        return witness
    raise ArityMismatch(f"not a type witness: {witness!r}")


def _invalidate() -> None:
    """Empty every per-type cache, for a registration; the caller holds
    _register_lock. Bumping the generation keeps results that were
    being built meanwhile out of the caches."""
    global _generation
    _generation += 1
    for cache in _caches:
        cache.clear()


def staged(build: Callable[[TypeRep], Any]) -> Callable[[TypeRep], Any]:
    """build memoized per interned type, for structure and plans that
    depend on nothing but the type and the registrations.

    The memo holds at most 256 types: it is emptied when it reaches
    that bound, and register and register_repr empty every memo at
    once. A result built while a registration came in is returned but
    not kept, and so is None.
    """
    cache: dict[TypeRep, Any] = {}
    with _register_lock:
        _caches.append(cache)

    def lookup(t: TypeRep) -> Any:
        r = cache.get(t)
        if r is not None:
            return r
        generation = _generation
        r = build(t)
        with _register_lock:
            if generation == _generation and r is not None:
                if len(cache) >= _CACHE_BOUND:
                    cache.clear()
                cache[t] = r
        return r

    return functools.wraps(build)(lookup)


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
        _invalidate()


@staged
def view_desc(t: TypePattern) -> Desc:
    """Its head's builder applied to t's arguments, which may be
    wildcards; NO_DESC for the wildcard or an unregistered head.

    Staged, so the builder runs once per type while the type stays
    cached and two lookups of one type return the same descriptor. As
    register empties the cache, a head registered after a lookup
    returned NO_DESC is seen by the next one.
    """
    builder = None if t is ANY else _descs.get(t.head)
    return NO_DESC if builder is None else builder(*t.args)


_desc_cache = _caches[-1]  # view_desc's memo


def follow_synonyms(t: TypePattern) -> tuple[TypePattern, Desc]:
    """The type t names past its synonyms, and that type's descriptor;
    NoDescriptor after 64 steps, which a synonym cycle reaches."""
    for _ in range(64):
        dd = view_desc(t)
        if not isinstance(dd, SynonymDesc):
            return t, dd
        t = dd.target
    raise NoDescriptor(f"synonym chain too long at {brief(t)}")


def register_repr(witness: Any, builder: Callable[..., Representation]) -> None:
    """Attach a public representation to an abstract head."""
    head = _head_of(witness)
    with _register_lock:
        if head in _reprs:
            raise DuplicateDescriptor(
                f"representation for {head.name} already registered"
            )
        _reprs[head] = builder
        _invalidate()


def repr_of(t: TypeRep) -> Representation:
    """The public representation of t; raises NoRepresentation."""
    r = try_repr(t)
    if r is None:
        raise NoRepresentation(f"no representation registered for {t!r}")
    return r


@staged
def try_repr(t: TypeRep) -> Optional[Representation]:
    """The public representation of t, or None; staged as view_desc is."""
    builder = None if t is ANY else _reprs.get(t.head)
    return None if builder is None else builder(*t.args)


# ---------------------------------------------------------------------------
# Taking values apart

BRIEF_CHARS = 160


class _BriefRepr(reprlib.Repr):
    def repr_instance(self, x: Any, level: int) -> str:
        # Only a __repr__ that dataclass generated carries __wrapped__.
        if not hasattr(type(x).__repr__, "__wrapped__") or not is_dataclass(x):
            return super().repr_instance(x, level)
        if level <= 0:
            return f"{type(x).__name__}(...)"
        shown = (f.name for f in dc_fields(x) if f.repr)
        args = (f"{n}={self.repr1(getattr(x, n), level - 1)}" for n in shown)
        return f"{type(x).__name__}({', '.join(args)})"


_value_repr = _BriefRepr()
_value_repr.maxlevel = 3


def brief_value(v: Any) -> str:
    """repr(v) with long containers, text and numbers elided and the
    whole cut at BRIEF_CHARS characters, so that the message refusing
    a value does not grow with it; brief is the same for types. The
    level limit holds inside dataclass instances too. An int too long
    for Python to print gives its class instead.

    >>> brief_value((2,))
    '(2,)'
    >>> brief_value(tuple(range(100000)))
    '(0, 1, 2, 3, 4, 5, ...)'
    """
    try:
        text = _value_repr.repr(v)
    except ValueError:
        text = f"<{type(v).__name__} object>"
    return text if len(text) <= BRIEF_CHARS else text[: BRIEF_CHARS - 1] + "…"


def conap(dd: Desc, x: Any) -> ConApp:
    """Split x into its constructor and argument tuple.

    The one way to take a value apart, for variant, extensible, record
    and bare product descriptors. Runs in constant time: a variant's
    classify yields the (kind, tag) its table maps to the constructor;
    an extensible value names its constructor, which is looked up in
    the registry; a record or product has one constructor. That
    constructor's proj then extracts the arguments. A value outside
    the type raises MalformedValue; a descriptor without constructors
    raises NoView.

    >>> from reflectix.prelude import Rose, Rtree
    >>> from reflectix.typerep import Int, List, Pair
    >>> conap(view_desc(List(Int)), [1, 2])
    ConApp(con=<constructor ::/2>, args=(1, [2]))
    >>> conap(view_desc(Rtree(Int)), Rose(7, []))
    ConApp(con=<constructor Rtree/2>, args=(7, []))
    >>> conap(view_desc(Pair(Int, Int)), (1, 2))
    ConApp(con=<constructor Pair/2>, args=(1, 2))
    """
    if isinstance(dd, VariantDesc):
        entry = dd.classify(x)
        con = dd._entries.get(entry)
        if con is None:
            kind, tag = entry
            con = dd.cst_get(tag) if kind == "cst" else dd.ncst_get(tag)
    elif isinstance(dd, (RecordDesc, ProductDesc)):
        con = dd.con
    elif isinstance(dd, ExtensibleDesc):
        if not isinstance(x, ExtValue):
            raise MalformedValue(f"not a {dd.name} value: {brief_value(x)}")
        con = ext_find(dd, x.con.name)
    else:
        raise NoView(f"{dd!r} has no constructors")
    args = con.proj(x)
    if args is None:
        raise MalformedValue(f"not a {con.name} value: {brief_value(x)}")
    return ConApp(con, args)


def check_leaf(kind: str, v: Any) -> Any:
    """v, if it is a value of this kind: a ScalarDesc's kind, or "array"
    for an ArrayLikeDesc. Otherwise MalformedValue, which serialize
    locates at the field that holds v. The one rule the serializer,
    show and equal apply to leaves and arrays.

    >>> check_leaf("text", "hi")
    'hi'
    >>> check_leaf("array", [1, 2])
    [1, 2]
    >>> check_leaf("array", (1, 2))
    Traceback (most recent call last):
    ...
    reflectix.errors.MalformedValue: array expected, got (1, 2)
    """
    if kind == "int":
        ok = isinstance(v, int) and not isinstance(v, bool)
    elif kind == "float":
        ok = isinstance(v, float)
    elif kind == "char":
        ok = isinstance(v, str) and len(v) == 1
    elif kind == "text":
        ok = isinstance(v, str)
    else:
        ok = kind == "array" and type(v) is list
    if not ok:
        raise MalformedValue(f"{kind} expected, got {brief_value(v)}")
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
    # attrgetter gives a bare value for one name, and needs at least one.
    if len(names) == 1:
        one = attrgetter(names[0])
        get: Callable[[Any], tuple] = lambda v: (one(v),)
    else:
        get = attrgetter(*names) if names else lambda v: ()

    def embed(args: Sequence[Any]) -> Any:
        return cls(*args)

    def proj(v: Any) -> Optional[tuple]:
        return get(v) if type(v) is cls else None

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
            raise MalformedValue(f"not a {variant_name} value: {brief_value(x)}")
        return entry

    return classify
