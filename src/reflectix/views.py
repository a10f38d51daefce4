"""Generic views: sum-of-products, spine, and list-of-constructors.

Each view presents a registered type's structure in a form convenient
for a different class of generic function. The sum-of-products view is
a closed term built from sums, products, and isomorphisms, with every
constructor argument position delayed behind its type representation.
The spine view splits one value into a constructor node and a chain of
argument applications. The constructor-list view flattens everything
to a list of constructors, giving records and bare products a single
synthetic constructor.

Every view, and every traversal built on them, takes a value apart the
same way: split(t, x) asks desc.conap for variants and the synthetic
constructor for records and products, and calls everything else a leaf.
Only the sum-of-products view nests the flat argument tuple in pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .desc import (
    NO_DESC,
    AbstractDesc,
    ArrayLikeDesc,
    ConApp,
    Constructor,
    Desc,
    ExtensibleDesc,
    Field,
    Iso,
    ProductDesc,
    RecordDesc,
    ScalarDesc,
    SynonymDesc,
    VariantDesc,
    conap,
    follow_synonyms,
    try_repr,
    view_desc,
)
from .errors import ArityMismatch, NoMatchingConstructor, NoView, NoRepresentation
from .typerep import TypeRep, render

# ---------------------------------------------------------------------------
# Sum-of-products view


class SumProd:
    """Base class of sum-of-products structure nodes."""


class _Empty(SumProd):
    def __repr__(self) -> str:
        return "Empty"


class _Unit(SumProd):
    def __repr__(self) -> str:
        return "Unit"


EMPTY = _Empty()
UNIT = _Unit()


@dataclass(frozen=True)
class Sum(SumProd):
    left: SumProd
    right: SumProd


@dataclass(frozen=True)
class Prod(SumProd):
    left: SumProd
    right: SumProd


@dataclass(frozen=True)
class Con(SumProd):
    """Marks a constructor; its value form is the inner value."""

    name: str
    inner: SumProd


@dataclass(frozen=True)
class FieldTag(SumProd):
    """Marks a named record field around the inner structure."""

    name: str
    inner: SumProd


@dataclass(frozen=True)
class Base(SumProd):
    """A type handled ad hoc by each generic function."""

    rep: TypeRep


@dataclass(frozen=True)
class Delay(SumProd):
    """A constructor argument position, held by representation."""

    rep: TypeRep


@dataclass(frozen=True)
class IsoSP(SumProd):
    """Wraps structure whose values differ from the user-facing ones."""

    inner: SumProd
    fwd: Callable[[Any], Any]
    bck: Callable[[Any], Any]


@dataclass(frozen=True)
class Left:
    value: Any


@dataclass(frozen=True)
class Right:
    value: Any


def _nest(args: Sequence[Any]) -> Any:
    """(a, b, c) as (a, (b, (c, ()))), the value form of a Prod chain."""
    out: Any = ()
    for v in reversed(args):
        out = (v, out)
    return out


def _flat(nested: Any) -> tuple:
    out = []
    while nested:
        v, nested = nested
        out.append(v)
    return tuple(out)


def _prod_chain(items: list[SumProd]) -> SumProd:
    out: SumProd = UNIT
    for item in reversed(items):
        out = Prod(item, out)
    return out


def _con_sp(c: Constructor) -> SumProd:
    return Con(c.name, _prod_chain([Delay(f.ty) for f in c.fields]))


def _record_sp(fields: tuple[Field, ...]) -> SumProd:
    return _prod_chain([FieldTag(f.name, Delay(f.ty)) for f in fields])


def _nested_iso(chain: SumProd, iso: Iso) -> IsoSP:
    return IsoSP(chain, lambda s: iso.fwd(_flat(s)), lambda x: _nest(iso.bck(x)))


def _sum_value(index: int, total: int, payload: Any) -> Any:
    """Wrap a constructor's nested arguments as a Left/Right chain."""
    if total == 1:
        return payload
    if index == 0:
        return Left(payload)
    return Right(_sum_value(index - 1, total - 1, payload))


def sumprod(t: TypeRep) -> SumProd:
    """The sum-of-products structure of t.

    Variants become right-nested sums of constructors, records become
    field-tagged products, scalars and arrays become Base, synonyms
    defer to their target, and abstract types with a representation
    are viewed through it. Every constructor argument is delayed. bck
    gives the arguments as pairs nested to the right and ending in (),
    inside Left/Right for variants; fwd rebuilds the value from them.
    """
    dd = view_desc(t)
    if dd is NO_DESC:
        raise NoView(f"no sum-of-products view for {render(t)}")
    if isinstance(dd, (ScalarDesc, ArrayLikeDesc, ExtensibleDesc)):
        return Base(t)
    if isinstance(dd, SynonymDesc):
        return Delay(dd.target)
    if isinstance(dd, AbstractDesc):
        rep = try_repr(t)
        if rep is None:
            return Base(t)

        def fwd(b: Any, _rep=rep) -> Any:
            v = _rep.from_repr(b)
            if v is None:
                raise NoRepresentation(
                    f"{render(t)} rejected a representation value"
                )
            return v

        return IsoSP(Delay(rep.repr_ty), fwd=fwd, bck=rep.to_repr)
    if isinstance(dd, VariantDesc):
        branches = [_con_sp(c) for c in dd.cons]
        if not branches:
            structure: SumProd = EMPTY
        else:
            structure = branches[-1]
            for b in reversed(branches[:-1]):
                structure = Sum(b, structure)

        def bck(x: Any, _v=dd) -> Any:
            ca = conap(_v, x)
            return _sum_value(_v.cons.index(ca.con), len(_v.cons), _nest(ca.args))

        def fwd(s: Any, _v=dd) -> Any:
            idx = 0
            remaining = len(_v.cons)
            while remaining > 1 and isinstance(s, Right):
                s = s.value
                idx += 1
                remaining -= 1
            if remaining > 1:
                if not isinstance(s, Left):
                    raise NoMatchingConstructor(
                        f"malformed sum value for {_v.name}"
                    )
                s = s.value
            return _v.cons[idx].embed(_flat(s))

        return IsoSP(structure, fwd=fwd, bck=bck)
    if isinstance(dd, RecordDesc):
        return _nested_iso(_record_sp(dd.fields), dd.iso)
    if isinstance(dd, ProductDesc):
        return _nested_iso(_prod_chain([Delay(r) for r in dd.shape.reps]), dd.iso)
    raise NoView(f"no sum-of-products view for {render(t)}")


# ---------------------------------------------------------------------------
# Spine view


@dataclass(frozen=True)
class ConMeta:
    """Constructor identity as visible through the spine.

    Two spine nodes denote the same constructor exactly when their
    metas are equal.
    """

    name: str
    variant: str
    module_path: tuple[str, ...]
    arity: int
    kind: str
    tag: int


@dataclass(frozen=True)
class ConNode:
    """The constructor end of a spine; fn rebuilds from flat arguments."""

    fn: Callable[[tuple], Any]
    meta: ConMeta


@dataclass(frozen=True)
class App:
    """One argument application; arg_rep types the argument."""

    fun: "Spine"
    arg_rep: TypeRep
    arg: Any


Spine = Any  # ConNode | App


def spine(t: TypeRep, x: Any) -> Spine:
    """Split x into constructor and argument applications.

    Defined for variants, records, bare products and their synonyms;
    the leftmost argument sits innermost, so rebuild folds applications
    back on in declaration order.
    """
    t, dd = follow_synonyms(t)
    ca = _split(t, dd, x)
    if ca is None:
        raise NoView(f"no spine view for {render(t)}")
    con = ca.con
    if isinstance(dd, VariantDesc):
        variant = dd.name
        module_path = dd.module_path
        kind = "cst" if con.arity == 0 else "ncst"
        tag = (dd.cst if con.arity == 0 else dd.ncst).index(con)
    elif isinstance(dd, RecordDesc):
        variant, module_path, kind, tag = dd.name, dd.module_path, "record", 0
    else:
        variant, module_path, kind, tag = t.head.name, t.head.module_path, "product", 0
    meta = ConMeta(con.name, variant, module_path, con.arity, kind, tag)
    s: Spine = ConNode(con.embed, meta)
    for f, v in zip(con.fields, ca.args):
        s = App(s, f.ty, v)
    return s


def rebuild(s: Spine) -> Any:
    """Reassemble the value a spine was taken from."""
    args: list[Any] = []
    while isinstance(s, App):
        args.append(s.arg)
        s = s.fun
    if len(args) != s.meta.arity:
        raise ArityMismatch(f"{s.meta.name} expects {s.meta.arity} arguments")
    args.reverse()
    return s.fn(tuple(args))


# ---------------------------------------------------------------------------
# List-of-constructors view


def _synthetic(t: TypeRep, dd: Desc) -> Optional[Constructor]:
    """The single constructor a record or bare product presents."""
    if isinstance(dd, RecordDesc):
        return Constructor(dd.name, dd.fields, dd.iso.fwd, dd.iso.bck)
    if isinstance(dd, ProductDesc):
        fields = tuple(Field("", r) for r in dd.shape.reps)
        return Constructor(t.head.name, fields, dd.iso.fwd, dd.iso.bck)
    return None


def conlist(t: TypeRep) -> list[Constructor]:
    """All constructors of t.

    Variants list theirs in declaration order; records and bare
    products present a single synthetic constructor; every other
    category, extensible types included, has none.
    """
    dd = view_desc(t)
    if isinstance(dd, VariantDesc):
        return list(dd.cons)
    c = _synthetic(t, dd)
    return [] if c is None else [c]


def _split(t: TypeRep, dd: Desc, x: Any) -> Optional[ConApp]:
    if isinstance(dd, VariantDesc):
        return conap(dd, x)
    c = _synthetic(t, dd)
    return None if c is None else ConApp(c, c.proj(x))


def split(t: TypeRep, x: Any) -> Optional[ConApp]:
    """Which constructor of t built x, and with what arguments.

    Variants split through desc.conap; records and bare products
    through their synthetic constructor, whose proj is the type's
    iso.bck; synonyms, through the type they name. Types without
    constructors (scalars, arrays, extensible and abstract types) are
    leaves and give None. A value outside t raises MalformedValue.
    """
    t, dd = follow_synonyms(t)
    return _split(t, dd, x)
