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
    follow_synonyms,
    try_repr,
    view_desc,
)
from .errors import DepthLimitExceeded, MalformedValue, NotSupported, NoView
from .typerep import (
    ANY,
    Char,
    Float,
    Fun,
    Int,
    List,
    String,
    TypeRep,
    brief,
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
    Raises DepthLimitExceeded when x nests too deeply to recurse over.
    """
    try:
        return show_fun.apply(t, x)
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to show") from None


def _quoted(text: str, quote: str) -> str:
    """text between quotes, with backslashes and the quote escaped."""
    return quote + text.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


show_fun.extend(Int, lambda t, x: str(check_leaf("int", x)))
show_fun.extend(Float, lambda t, x: repr(check_leaf("float", x)))
show_fun.extend(Char, lambda t, x: _quoted(check_leaf("char", x), "'"))
show_fun.extend(String, lambda t, x: _quoted(check_leaf("text", x), '"'))
show_fun.extend(Fun(ANY, ANY), lambda t, x: "<fun>")


def _show_list(t: TypeRep, x: Any) -> str:
    if type(x) is not list:
        raise MalformedValue(f"not a List value: {x!r}")
    return "[" + "; ".join(show(t.args[0], e) for e in x) + "]"


show_fun.extend(List(ANY), _show_list)


def _show_generic(t: TypeRep, x: Any) -> str:
    dd = view_desc(t)
    if isinstance(dd, (VariantDesc, ExtensibleDesc, RecordDesc, ProductDesc)):
        ca = conap(dd, x)
        fields = ca.con.fields
        parts = [show(f.ty, v) for f, v in zip(fields, ca.args)]
        if isinstance(dd, RecordDesc):
            named = [f"{f.name} = {s}" for f, s in zip(fields, parts)]
            return "{" + "; ".join(named) + "}"
        if isinstance(dd, ProductDesc):
            return "(" + ", ".join(parts) + ")"
        if not parts:
            return ca.con.name
        return f"{ca.con.name} ({', '.join(parts)})"
    if isinstance(dd, ScalarDesc):
        v = check_leaf(dd.kind, x)
        return _quoted(v, '"') if dd.kind == "text" else repr(v)
    if isinstance(dd, ArrayLikeDesc):
        items = (show(dd.elem, e) for e in check_leaf("array", x))
        return "[|" + "; ".join(items) + "|]"
    if isinstance(dd, SynonymDesc):
        return show(follow_synonyms(dd.target)[0], x)
    if isinstance(dd, AbstractDesc):
        rep = try_repr(t)
        if rep is None:
            raise NotSupported(show_fun.doc, brief(t))
        return f"{dd.name}({show(rep.repr_ty, rep.to_repr(x))})"
    raise NotSupported(show_fun.doc, brief(t))


show_fun.extend(ANY, _show_generic)

# ---------------------------------------------------------------------------
# equal


def equal(t: TypeRep, x: Any, y: Any) -> bool:
    """Structural equality at type t via the sum-of-products view.
    Raises DepthLimitExceeded when x or y nests too deeply to recurse over."""
    try:
        sp = sumprod(t)
    except NoView:
        raise NotSupported("equal", brief(t)) from None
    try:
        return _equal_sp(sp, x, y)
    except RecursionError:
        raise DepthLimitExceeded("values nest too deeply to compare") from None


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
        xs, ys = check_leaf("array", x), check_leaf("array", y)
        return len(xs) == len(ys) and all(
            equal(dd.elem, a, b) for a, b in zip(xs, ys)
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
