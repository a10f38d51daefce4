"""Generic views: sum-of-products, spine, and list-of-constructors.

Each view presents a registered type's structure in a form convenient
for a different class of generic function. The sum-of-products view is
a closed term built from sums, products, and isomorphisms, with every
constructor argument position delayed behind its type representation.
The spine view splits one value into a constructor node and a chain of
argument applications. The constructor-list view flattens everything
to a list of constructors; a record or bare product has exactly one.

Every view, and every traversal built on them, takes a value apart the
same way: through the split of closed(t), made once per type, for
variants, records and bare products; everything else is a leaf. Only
the sum-of-products view nests the flat argument tuple in pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .desc import (
    AbstractDesc,
    ArrayLikeDesc,
    ConApp,
    Constructor,
    Desc,
    ExtensibleDesc,
    ProductDesc,
    RecordDesc,
    ScalarDesc,
    VariantDesc,
    conap,
    follow_synonyms,
    staged,
    try_repr,
)
from .errors import ArityMismatch, NoMatchingConstructor, NoView, NoRepresentation
from .typerep import TypeRep, brief, ty_equal

# ---------------------------------------------------------------------------
# Sum-of-products view


class SumProd:
    """Base class of sum-of-products structure nodes."""

    __slots__ = ()


class _Empty(SumProd):
    def __repr__(self) -> str:
        return "Empty"


class _Unit(SumProd):
    def __repr__(self) -> str:
        return "Unit"


EMPTY = _Empty()
UNIT = _Unit()


@dataclass(frozen=True, slots=True)
class Sum(SumProd):
    left: SumProd
    right: SumProd


@dataclass(frozen=True, slots=True)
class Prod(SumProd):
    left: SumProd
    right: SumProd


@dataclass(frozen=True, slots=True)
class Con(SumProd):
    """Marks a constructor; its value form is the inner value."""

    name: str
    inner: SumProd


@dataclass(frozen=True, slots=True)
class FieldTag(SumProd):
    """Marks a named record field around the inner structure."""

    name: str
    inner: SumProd


@dataclass(frozen=True, slots=True)
class Base(SumProd):
    """A type handled ad hoc by each generic function."""

    rep: TypeRep


@dataclass(frozen=True, slots=True)
class Delay(SumProd):
    """A constructor argument position, held by representation."""

    rep: TypeRep


@dataclass(frozen=True, slots=True)
class IsoSP(SumProd):
    """Wraps structure whose values differ from the user-facing ones."""

    inner: SumProd
    fwd: Callable[[Any], Any]
    bck: Callable[[Any], Any]


@dataclass(frozen=True, slots=True)
class Left:
    value: Any


@dataclass(frozen=True, slots=True)
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


def _sum_value(index: int, total: int, payload: Any) -> Any:
    """Wrap a constructor's nested arguments as a Left/Right chain."""
    if total == 1:
        return payload
    if index == 0:
        return Left(payload)
    return Right(_sum_value(index - 1, total - 1, payload))


@staged
def sumprod(t: TypeRep) -> SumProd:
    """The sum-of-products structure of t.

    Variants become right-nested sums of constructors, records become
    field-tagged products, scalars and arrays become Base, a synonym
    defers to the type it names past every synonym, and abstract types
    with a representation are viewed through it. Every constructor
    argument is delayed. bck gives the arguments as pairs nested to the
    right and ending in (), inside Left/Right for variants; fwd rebuilds
    the value from them.

    The structure is built once per type: it shares the descriptor
    cache's bound and invalidation (desc.staged), and sumprod(t)
    returns the same object while t stays cached.
    """
    u, dd, _, take_apart = closed(t)
    if u is not t:
        return Delay(u)
    if isinstance(dd, (ScalarDesc, ArrayLikeDesc, ExtensibleDesc)):
        return Base(t)
    if isinstance(dd, AbstractDesc):
        rep = try_repr(t)
        if rep is None:
            return Base(t)

        def fwd(b: Any, _rep=rep) -> Any:
            v = _rep.from_repr(b)
            if v is None:
                raise NoRepresentation(
                    f"{brief(t)} rejected a representation value"
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
        total = len(dd.cons)

        def bck(x: Any) -> Any:
            info, args = take_apart(x)
            return _sum_value(info.index, total, _nest(args))

        def fwd(s: Any, _v=dd) -> Any:
            idx = 0
            remaining = total
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
    if isinstance(dd, (RecordDesc, ProductDesc)):
        con = dd.con
        items: list[SumProd] = [Delay(f.ty) for f in con.fields]
        if isinstance(dd, RecordDesc):
            items = [FieldTag(f.name, i) for f, i in zip(con.fields, items)]
        return IsoSP(
            _prod_chain(items),
            fwd=lambda s: con.embed(_flat(s)),
            bck=lambda x: _nest(take_apart(x)[1]),
        )
    raise NoView(f"no sum-of-products view for {brief(t)}")


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


class _ConInfo(NamedTuple):
    """One constructor of a type, as closed(t) tables it."""

    con: Constructor
    index: int  # its place in declaration order
    meta: ConMeta  # its spine identity; kind and tag are also its wire tag
    tys: tuple[TypeRep, ...]  # its field types
    positions: tuple[int, ...]  # the fields typed as the type asked for


def _leaf(x: Any) -> None:
    """The split of a type without constructors: every value is a leaf."""


@staged
def closed(t: TypeRep) -> tuple[TypeRep, Desc, Optional[tuple[_ConInfo, ...]], Callable]:
    """The one place a generic function looks a type up: t past its
    synonyms; that type's descriptor, of any kind, or NO_DESC when its
    head is unregistered; its constructors' entries, in declaration
    order, or None unless it is a variant, record or bare product; and
    its split, which takes a value apart into its entry and argument
    tuple in one step (classify, entry, proj), asking conap only where a
    step fails, so that it refuses a value as conap does. The split of
    any other type, an extensible one included, returns None. Built once
    per type, for the views, the traversals, show, equal and the wire
    plans."""
    u, dd = follow_synonyms(t)
    if isinstance(dd, VariantDesc):
        cons, groups = dd.cons, (("cst", dd.cst), ("ncst", dd.ncst))
    elif isinstance(dd, (RecordDesc, ProductDesc)):
        kind = "record" if isinstance(dd, RecordDesc) else "product"
        cons, groups = (dd.con,), ((kind, (dd.con,)),)
    else:
        return u, dd, None, _leaf
    owner = u.head if isinstance(dd, ProductDesc) else dd  # a bare product: its head
    entries = {id(c): (k, tag) for k, group in groups for tag, c in enumerate(group)}
    infos = []
    for i, c in enumerate(cons):
        tys = tuple(f.ty for f in c.fields)
        # Compared with t as asked, before its synonyms are followed.
        at_t = tuple(j for j, ty in enumerate(tys) if ty_equal(ty, t) is not None)
        meta = ConMeta(c.name, owner.name, owner.module_path, c.arity, *entries[id(c)])
        infos.append(_ConInfo(c, i, meta, tys, at_t))
    by_entry = {entries[id(info.con)]: info for info in infos}
    one = None if isinstance(dd, VariantDesc) else infos[0]  # nothing to classify
    classify = None if one else dd.classify

    def split(x: Any) -> tuple[_ConInfo, tuple]:
        info = one or by_entry.get(classify(x))
        if info is not None:
            args = info.con.proj(x)
            if args is not None:
                return info, args
        ca = conap(dd, x)  # a refusal, or a classify outside the table
        return next(i for i in infos if i.con is ca.con), ca.args

    return u, dd, tuple(infos), split


# ---------------------------------------------------------------------------
# Spine view


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
    back on in declaration order. Each constructor's meta is made once
    per type, in the entry the type's split finds.
    """
    u, _, entries, take_apart = closed(t)
    if entries is None:
        raise NoView(f"no spine view for {brief(u)}")
    info, args = take_apart(x)
    s: Spine = ConNode(info.con.embed, info.meta)
    for ty, v in zip(info.tys, args):
        s = App(s, ty, v)
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


def conlist(t: TypeRep) -> list[Constructor]:
    """All constructors of t, past its synonyms, in declaration order:
    a record or bare product has one, and a type that is not a variant,
    record or bare product (an extensible type included) has none."""
    return [info.con for info in closed(t)[2] or ()]


def split(t: TypeRep, x: Any) -> Optional[ConApp]:
    """Which constructor of t built x, and with what arguments.

    Variants, records and bare products split through the split of
    closed(t); synonyms, through the type they name. Types without
    constructors (scalars, arrays, extensible and abstract types) are
    leaves and give None. A value outside t raises MalformedValue.
    """
    parts = closed(t)[3](x)
    return None if parts is None else ConApp(parts[0].con, parts[1])
