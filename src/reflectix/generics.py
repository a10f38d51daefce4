"""Generic functions written once against the views.

show renders values in constructor syntax, equal compares structurally,
and the three children functions enumerate same-typed immediate
subvalues through three different views. All of them look a type up
through views.closed, take its values apart with that type's split and
work on any registered type without per-type code. show and equal decide
once per type, in a staged plan; a case show_fun.extend registers takes
effect even at types already shown."""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Any, Callable

from . import extfun
from .desc import (
    AbstractDesc,
    ArrayLikeDesc,
    ExtensibleDesc,
    ProductDesc,
    RecordDesc,
    ScalarDesc,
    brief_value,
    check_leaf,
    conap,
    staged,
    try_repr,
)
from .errors import DepthLimitExceeded, MalformedValue, NotSupported
from .typerep import ANY, Fun, List, TypeRep, brief, ty_equal
from .views import (
    App,
    Base,
    Con,
    Delay,
    FieldTag,
    IsoSP,
    Left,
    Prod,
    Right,
    Sum,
    closed,
    spine,
    split,
    sumprod,
)

# ---------------------------------------------------------------------------
# show

show_fun = extfun.create("show")


def show(t: TypeRep, x: Any) -> str:
    """Render x at type t.

    Lists print as [1; 2; 3], pairs as (1, "a"), functions as <fun>,
    variant values in constructor syntax, records in field syntax, and
    arrays as [|1; 2|]. New cases may be registered on show_fun; one
    registered by extend takes effect even at types already shown.
    Raises DepthLimitExceeded when x nests too deeply to recurse over.
    """
    try:
        return _show_plan(t)(x)
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to show") from None


def _quoted(text: str, quote: str) -> str:
    """text between quotes, with backslashes and the quote escaped."""
    return quote + text.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


# How a leaf of each ScalarDesc kind prints; check_leaf refuses any other kind.
_LEAF_TEXT = {"int": str, "float": repr, "char": partial(_quoted, quote="'"),
              "text": partial(_quoted, quote='"')}


def _show_list(t: TypeRep, x: Any) -> str:
    if type(x) is not list:
        raise MalformedValue(f"not a List value: {brief_value(x)}")
    return "[" + "; ".join([_show_plan(t.args[0])(e) for e in x]) + "]"


show_fun.extend(Fun(ANY, ANY), lambda t, x: "<fun>")
show_fun.extend(List(ANY), _show_list)


def _show_generic(t: TypeRep, x: Any) -> str:
    return _show_plan(t)(x)


show_fun.extend(ANY, _show_generic)


@staged
def _show_plan(t: TypeRep) -> Callable[[Any], str]:
    """show at t, decided once per type: the case show_fun selects, or for
    the default case a formatter chosen by t's kind in views.closed(t)."""
    case = show_fun._select(t)
    if case.fn is not _show_generic:
        return partial(case.fn, t)
    u, dd, entries, split = closed(t)
    if u is not t:  # a synonym: u's plan, so a case on u wins
        return _show_plan(u)
    if isinstance(dd, ScalarDesc):
        kind, leaf = dd.kind, _LEAF_TEXT.get(dd.kind)
        return lambda x: leaf(check_leaf(kind, x))
    if isinstance(dd, ArrayLikeDesc):
        elem = dd.elem
        return lambda x: "[|" + "; ".join(
            [_show_plan(elem)(e) for e in check_leaf("array", x)]
        ) + "|]"
    if isinstance(dd, ExtensibleDesc):  # its constructor found by registered name
        split = lambda x: (ca := conap(dd, x), ca.args)
    elif entries is None:
        rep = try_repr(u) if isinstance(dd, AbstractDesc) else None
        if rep is None:
            raise NotSupported(show_fun.doc, brief(t))
        name, rty, to_repr = dd.name, rep.repr_ty, rep.to_repr
        return lambda x: f"{name}({_show_plan(rty)(to_repr(x))})"
    if isinstance(dd, RecordDesc):
        names = [f.name for f in dd.con.fields]
        text = lambda con, ps: "{" + "; ".join(map("{} = {}".format, names, ps)) + "}"
    elif isinstance(dd, ProductDesc):
        text = lambda con, ps: "(" + ", ".join(ps) + ")"
    else:
        text = lambda con, ps: f"{con.name} ({', '.join(ps)})" if ps else con.name

    def show_con(x: Any) -> str:
        info, args = split(x)
        fields = info.con.fields
        return text(info.con, [_show_plan(f.ty)(v) for f, v in zip(fields, args)])

    return show_con


# ---------------------------------------------------------------------------
# equal


# Values nested deeper than this many levels are refused, which keeps
# the work bounded on inputs whose every level costs O(n), such as the
# suffixes that List's cons cells project.
EQUAL_DEPTH = 256
_TOO_DEEP = "values nest too deeply to compare"


def equal(t: TypeRep, x: Any, y: Any) -> bool:
    """Structural equality at type t, one level at a time.

    Each level is compared by a plan built once per type from the
    split the other walkers use (views.closed): a variant, record or
    bare product takes both values apart with it, the left first, and
    compares their constructor entries by identity. A plan hands back
    every argument still to compare as (type, x, y); equal keeps those
    on a stack of levels, in preorder, and finds each one's plan through
    the same per-type memo, which shares the descriptor cache's bound
    and invalidation. Raises DepthLimitExceeded when x or y nests more
    than EQUAL_DEPTH levels deep.
    """
    levels = [[(t, x, y)]]  # per level, the arguments still to compare, last first
    below: list = []
    try:
        while levels:
            todo = levels[-1]
            if not todo:
                levels.pop()
                continue
            t, x, y = todo.pop()
            if not _equal_plan(t)(x, y, below):
                return False
            if below:
                if len(levels) > EQUAL_DEPTH:
                    raise DepthLimitExceeded(_TOO_DEEP)
                below.reverse()
                levels.append(below)
                below = []
    except RecursionError:
        raise DepthLimitExceeded(_TOO_DEEP) from None
    return True


# A plan step compares what one level of two values holds in place and
# appends each argument still to compare as (type, x, y); False when
# they differ.
Step = Callable[[Any, Any, list], bool]


@staged
def _equal_plan(t: TypeRep) -> Step:
    u, dd, entries, split = closed(t)
    if entries is not None:

        def same_con(x: Any, y: Any, below: list) -> bool:
            (cx, ax), (cy, ay) = split(x), split(y)
            if cx is not cy:
                return False
            below.extend(zip(cx.tys, ax, ay))
            return True

        return same_con
    if isinstance(dd, ExtensibleDesc):

        def same_ext(x: Any, y: Any, below: list) -> bool:
            # Matched by registered name: conap looks the constructor up.
            cx, cy = conap(dd, x), conap(dd, y)
            if cx.con is not cy.con:
                return False
            below.extend(zip((f.ty for f in cx.con.fields), cx.args, cy.args))
            return True

        return same_ext
    if isinstance(dd, ScalarDesc):
        kind = dd.kind
        return lambda x, y, below: check_leaf(kind, x) == check_leaf(kind, y)
    if isinstance(dd, ArrayLikeDesc):
        elem = dd.elem

        def same_array(x: Any, y: Any, below: list) -> bool:
            xs, ys = check_leaf("array", x), check_leaf("array", y)
            if len(xs) != len(ys):
                return False
            below.extend(zip(repeat(elem), xs, ys))
            return True

        return same_array
    if isinstance(dd, AbstractDesc):
        rep = try_repr(u)
        if rep is None:  # no representation: the host equality decides
            return lambda x, y, below: x == y
        rty, to_repr = rep.repr_ty, rep.to_repr
        return lambda x, y, below: below.append((rty, to_repr(x), to_repr(y))) or True
    raise NotSupported("equal", brief(u))


# ---------------------------------------------------------------------------
# children, three ways


def child(parent: TypeRep, candidate: TypeRep, value: Any) -> list:
    """[value] when candidate is the parent type itself, else []."""
    return [value] if ty_equal(candidate, parent) is not None else []


def children_sumprod(t: TypeRep, x: Any) -> list:
    """Same-typed immediate subvalues, via the sum-of-products view."""

    def go(sp: Any, v: Any) -> list:
        if isinstance(sp, IsoSP):
            return go(sp.inner, sp.bck(v))
        if isinstance(sp, Sum):
            if isinstance(v, Left):
                return go(sp.left, v.value)
            if isinstance(v, Right):
                return go(sp.right, v.value)
            return []
        if isinstance(sp, Prod):
            return go(sp.left, v[0]) + go(sp.right, v[1])
        if isinstance(sp, (Con, FieldTag)):
            return go(sp.inner, v)
        if isinstance(sp, Delay):
            return child(t, sp.rep, v)
        if isinstance(sp, Base):
            dd = closed(sp.rep)[1]
            if isinstance(dd, ArrayLikeDesc):
                out = []
                for e in check_leaf("array", v):
                    out.extend(child(t, dd.elem, e))
                return out
            return []
        return []

    return go(sumprod(t), x)


def children_spine(t: TypeRep, x: Any) -> list:
    """Same-typed immediate subvalues, via the spine view."""
    out: list = []
    s = spine(t, x)
    while isinstance(s, App):
        out.extend(child(t, s.arg_rep, s.arg))
        s = s.fun
    out.reverse()
    return out


def children_conlist(t: TypeRep, x: Any) -> list:
    """Same-typed immediate subvalues, via the constructor list."""
    ca = split(t, x)
    if ca is None:
        return []
    out: list = []
    for f, v in zip(ca.con.fields, ca.args):
        out.extend(child(t, f.ty, v))
    return out
