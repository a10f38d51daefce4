"""Generic functions written once against the views.

show renders values in constructor syntax, equal compares structurally
through the sum-of-products view, and the three children functions
enumerate same-typed immediate subvalues through three different views.
All of them work on any registered type without per-type code.
"""

from __future__ import annotations

from typing import Any

from . import extfun
from .desc import (
    NO_DESC,
    AbstractDesc,
    ArrayLikeDesc,
    ExtensibleDesc,
    ProductDesc,
    RecordDesc,
    ScalarDesc,
    SynonymDesc,
    VariantDesc,
    check_leaf,
    conap,
    try_repr,
    view_desc,
)
from .errors import MalformedValue, NotSupported, NoView
from .typerep import (
    ANY,
    Char,
    Float,
    Fun,
    Int,
    List,
    String,
    TypeRep,
    render,
    ty_equal,
)
from .views import (
    App,
    Base,
    Con,
    Delay,
    EMPTY,
    FieldTag,
    IsoSP,
    Left,
    Prod,
    Right,
    Sum,
    UNIT,
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
    arrays as [|1; 2|]. New cases may be registered on show_fun.
    """
    return show_fun.apply(t, x)


show_fun.extend(Int, lambda t, x: str(check_leaf("int", x)))
show_fun.extend(Float, lambda t, x: repr(check_leaf("float", x)))
show_fun.extend(Char, lambda t, x: f"'{check_leaf('char', x)}'")
show_fun.extend(String, lambda t, x: f'"{check_leaf("text", x)}"')
show_fun.extend(Fun(ANY, ANY), lambda t, x: "<fun>")


def _show_list(t: TypeRep, x: Any) -> str:
    if type(x) is not list:
        raise MalformedValue(f"not a List value: {x!r}")
    return "[" + "; ".join(show(t.args[0], e) for e in x) + "]"


show_fun.extend(List(ANY), _show_list)


def _show_generic(t: TypeRep, x: Any) -> str:
    dd = view_desc(t)
    if isinstance(dd, (VariantDesc, ExtensibleDesc)):
        ca = conap(dd, x)
        if ca.con.arity == 0:
            return ca.con.name
        parts = [show(f.ty, v) for f, v in zip(ca.con.fields, ca.args)]
        return f"{ca.con.name} ({', '.join(parts)})"
    if isinstance(dd, ScalarDesc):
        return repr(check_leaf(dd.kind, x))
    if isinstance(dd, ArrayLikeDesc):
        if dd.bytes_like:
            return f'"{check_leaf("text", x)}"'
        n = dd.ops.length(x)
        return "[|" + "; ".join(show(dd.elem, dd.ops.get(x, i)) for i in range(n)) + "|]"
    if isinstance(dd, SynonymDesc):
        return show(dd.target, x)
    if isinstance(dd, AbstractDesc):
        rep = try_repr(t)
        if rep is None:
            raise NotSupported(show_fun.doc, render(t))
        return f"{dd.name}({show(rep.repr_ty, rep.to_repr(x))})"
    if isinstance(dd, RecordDesc):
        inner = "; ".join(
            f"{f.name} = {show(f.ty, v)}" for f, v in zip(dd.fields, dd.iso.bck(x))
        )
        return "{" + inner + "}"
    if isinstance(dd, ProductDesc):
        vals = dd.iso.bck(x)
        return "(" + ", ".join(show(r, v) for r, v in zip(dd.shape.reps, vals)) + ")"
    raise NotSupported(show_fun.doc, render(t))


show_fun.extend(ANY, _show_generic)

# ---------------------------------------------------------------------------
# equal


def equal(t: TypeRep, x: Any, y: Any) -> bool:
    """Structural equality at type t via the sum-of-products view."""
    try:
        sp = sumprod(t)
    except NoView:
        raise NotSupported("equal", render(t)) from None
    return _equal_sp(sp, x, y)


def _equal_sp(sp: Any, x: Any, y: Any) -> bool:
    if isinstance(sp, IsoSP):
        return _equal_sp(sp.inner, sp.bck(x), sp.bck(y))
    if isinstance(sp, Sum):
        if isinstance(x, Left) and isinstance(y, Left):
            return _equal_sp(sp.left, x.value, y.value)
        if isinstance(x, Right) and isinstance(y, Right):
            return _equal_sp(sp.right, x.value, y.value)
        return False
    if isinstance(sp, Prod):
        return _equal_sp(sp.left, x[0], y[0]) and _equal_sp(sp.right, x[1], y[1])
    if isinstance(sp, (Con, FieldTag)):
        return _equal_sp(sp.inner, x, y)
    if isinstance(sp, Delay):
        return equal(sp.rep, x, y)
    if sp is UNIT or sp is EMPTY:
        return True
    if isinstance(sp, Base):
        return _equal_base(sp.rep, x, y)
    raise NotSupported("equal", repr(sp))


def _equal_base(t: TypeRep, x: Any, y: Any) -> bool:
    dd = view_desc(t)
    if isinstance(dd, ScalarDesc):
        return check_leaf(dd.kind, x) == check_leaf(dd.kind, y)
    if isinstance(dd, ArrayLikeDesc):
        if dd.bytes_like:
            return check_leaf("text", x) == check_leaf("text", y)
        n, m = dd.ops.length(x), dd.ops.length(y)
        if n != m:
            return False
        return all(
            equal(dd.elem, dd.ops.get(x, i), dd.ops.get(y, i)) for i in range(n)
        )
    if isinstance(dd, ExtensibleDesc):
        cx, cy = conap(dd, x), conap(dd, y)
        if cx.con is not cy.con:
            return False
        return all(
            equal(f.ty, vx, vy) for f, vx, vy in zip(cx.con.fields, cx.args, cy.args)
        )
    # Representation-less abstract types fall back to the host equality.
    return x == y


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
            dd = view_desc(sp.rep)
            if isinstance(dd, ArrayLikeDesc) and not dd.bytes_like:
                n = dd.ops.length(v)
                out = []
                for i in range(n):
                    out.extend(child(t, dd.elem, dd.ops.get(v, i)))
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
