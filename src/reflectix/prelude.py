"""Descriptors for the built-in types and a small demo zoo.

Importing this module populates the descriptor registry: scalars, the
cons-cell view of Python lists, pairs, arrays, strings, plus the demo
types the tests and command line tool lean on (binary trees, rose
trees, naturals, a polymorphically recursive tree, and an extensible
error type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from . import desc as d
from .errors import MalformedValue
from .typerep import (
    ANY,
    Array,
    Bool,
    Char,
    Float,
    Fun,
    Int,
    List,
    Pair,
    String,
    TypeRep,
    Unit,
    declare,
    ty_equal,
)

# ---------------------------------------------------------------------------
# Scalars

d.register(Int, lambda: d.ScalarDesc("Int", "int"))
d.register(Float, lambda: d.ScalarDesc("Float", "float"))
d.register(Char, lambda: d.ScalarDesc("Char", "char"))

# Functions carry no structure worth describing.
d.register(Fun, lambda a, b: d.NO_DESC)

# ---------------------------------------------------------------------------
# Bool: a two-constant variant, false before true.


def _classify_bool(x: Any) -> tuple[str, int]:
    if type(x) is not bool:
        raise MalformedValue(f"not a Bool value: {x!r}")
    return ("cst", 1 if x else 0)


d.register(
    Bool,
    lambda: d.VariantDesc(
        "Bool",
        (),
        (
            d.constant_constructor("false", False),
            d.constant_constructor("true", True),
        ),
        _classify_bool,
    ),
)

# ---------------------------------------------------------------------------
# Unit and pairs: bare products over Python tuples.


def _tuple_desc(*reps: Any) -> d.ProductDesc:
    def bck(p: Any) -> tuple:
        if not isinstance(p, tuple) or len(p) != len(reps):
            raise MalformedValue(f"not a {len(reps)}-tuple: {p!r}")
        return p

    return d.ProductDesc(d.ProductShape(reps), d.Iso(fwd=tuple, bck=bck))


d.register(Unit, _tuple_desc)
d.register(Pair, _tuple_desc)

# ---------------------------------------------------------------------------
# Lists: Python lists viewed as nil/cons cells.


def _classify_list(xs: Any) -> tuple[str, int]:
    if type(xs) is not list:
        raise MalformedValue(f"not a List value: {xs!r}")
    return ("cst", 0) if not xs else ("ncst", 0)


def _list_desc(a: Any) -> d.VariantDesc:
    cons_fields = (d.Field("", a), d.Field("", List(a)))

    def cons_embed(args: Any) -> list:
        head, tail = args
        return [head] + tail

    def cons_proj(xs: Any) -> Optional[tuple]:
        if type(xs) is list and xs:
            return (xs[0], xs[1:])
        return None

    # nil embeds a fresh list every time; a shared constant would alias
    # every empty list materialized by deserialization.
    nil = d.Constructor(
        "[]",
        (),
        embed=lambda args: [],
        proj=lambda xs: () if type(xs) is list and not xs else None,
    )
    return d.VariantDesc(
        "List",
        (),
        (nil, d.Constructor("::", cons_fields, cons_embed, cons_proj)),
        _classify_list,
    )


d.register(List, _list_desc)

# ---------------------------------------------------------------------------
# Strings and arrays


def _string_init(n: int, f: Any) -> str:
    return "".join(f(i) for i in range(n))


d.register(
    String,
    lambda: d.ArrayLikeDesc(
        Char,
        d.ArrayOps(length=len, get=lambda s, i: s[i], init=_string_init),
        bytes_like=True,
    ),
)


def _array_length(xs: Any) -> int:
    if type(xs) is not list:
        raise MalformedValue(f"not an Array value: {xs!r}")
    return len(xs)


def _array_desc(a: Any) -> d.ArrayLikeDesc:
    return d.ArrayLikeDesc(
        a,
        d.ArrayOps(
            length=_array_length,
            get=lambda xs, i: xs[i],
            init=lambda n, f: [f(i) for i in range(n)],
        ),
        bytes_like=False,
    )


d.register(Array, _array_desc)

# ---------------------------------------------------------------------------
# Binary trees


Btree = declare("Btree", 1)


@dataclass(frozen=True)
class BtreeEmpty:
    pass


@dataclass(frozen=True)
class BtreeNode:
    left: Any
    value: Any
    right: Any


EMPTY = BtreeEmpty()


def node(left: Any, value: Any, right: Any) -> BtreeNode:
    return BtreeNode(left, value, right)


def leaf(value: Any) -> BtreeNode:
    return BtreeNode(EMPTY, value, EMPTY)


def _btree_desc(a: Any) -> d.VariantDesc:
    return d.VariantDesc(
        "Btree",
        ("demo",),
        (
            d.constant_constructor("Empty", EMPTY),
            d.class_constructor(
                BtreeNode,
                (("left", Btree(a)), ("value", a), ("right", Btree(a))),
                name="Node",
            ),
        ),
        d.classify_by_class(
            "Btree", {BtreeEmpty: ("cst", 0), BtreeNode: ("ncst", 0)}
        ),
    )


d.register(Btree, _btree_desc)

# ---------------------------------------------------------------------------
# Rose trees: a record with a mutable attribute and a list of children.


Rtree = declare("Rtree", 1)


@dataclass
class Rose:
    attr: Any
    children: list


def _rtree_desc(a: Any) -> d.RecordDesc:
    fields = (d.Field("attr", a), d.Field("children", List(Rtree(a))))

    def bck(r: Any) -> tuple:
        if type(r) is not Rose:
            raise MalformedValue(f"not an Rtree value: {r!r}")
        return (r.attr, r.children)

    return d.RecordDesc(
        "Rtree", ("demo",), fields, d.Iso(fwd=lambda args: Rose(*args), bck=bck)
    )


d.register(Rtree, _rtree_desc)

# ---------------------------------------------------------------------------
# Naturals: abstract with a public Int representation that rejects
# negatives, plus an internal synonym view of the same idea.

Nat = declare("Nat")
d.register(Nat, lambda: d.AbstractDesc("Nat", ("demo",)))
d.register_repr(
    Nat,
    lambda: d.Representation(
        Int,
        to_repr=lambda x: x,
        from_repr=lambda x: x if isinstance(x, int) and x >= 0 else None,
    ),
)

NatInternal = declare("NatInternal")
d.register(
    NatInternal,
    lambda: d.SynonymDesc(Int, d.EqualityWitness(NatInternal, Int)),
)

# ---------------------------------------------------------------------------
# A polymorphically recursive tree: Node's second child instantiates the
# parameter at Pair(a, a), so a cyclic value graph keeps presenting the
# same node at ever deeper pair types.

PolyTree = declare("PolyTree", 1)


@dataclass(frozen=True)
class PolyLeaf:
    n: int


@dataclass(frozen=True)
class PolyNode:
    left: Any
    right: Any


def _polytree_desc(a: Any) -> d.VariantDesc:
    return d.VariantDesc(
        "PolyTree",
        ("demo",),
        (
            d.class_constructor(PolyLeaf, (("n", Int),), name="Leaf"),
            d.class_constructor(
                PolyNode,
                (("left", PolyTree(a)), ("right", PolyTree(Pair(a, a)))),
                name="Node",
            ),
        ),
        d.classify_by_class(
            "PolyTree", {PolyLeaf: ("ncst", 0), PolyNode: ("ncst", 1)}
        ),
    )


d.register(PolyTree, _polytree_desc)

# ---------------------------------------------------------------------------
# An extensible error type; constructors may be added at any time.

Exn = declare("Exn")
exn_desc = d.ext_create("Exn", ("demo",))
d.register(Exn, lambda: exn_desc)

FAILURE = d.ext_constructor("Failure", (String,))
NOT_FOUND = d.ext_constructor("NotFound", ())
d.add_con(exn_desc, FAILURE)
d.add_con(exn_desc, NOT_FOUND)


def failure(message: str) -> d.ExtValue:
    return FAILURE.embed((message,))


NOT_FOUND_VALUE = NOT_FOUND.embed(())
