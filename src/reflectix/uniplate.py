"""Uniform traversals over same-typed children.

scrap splits a value into its same-typed immediate children plus a
rebuild function; everything else here is folds, maps, and rewrites
layered on top of it. Children are the constructor arguments whose
type equals the parent type, in declaration order, so for lists the
only child of x :: xs is xs.

>>> from .typerep import Int, List
>>> children(List(Int), [1, 2, 3])
[[2, 3]]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .effects import (
    ApplicativeDict,
    MonadDict,
    app_of_mon,
    fmap,
    traverse_list,
)
from .errors import ArityMismatch, FuelExhausted
from .typerep import TypeRep, ty_equal
from .views import split

DEFAULT_FUEL = 10**6


@dataclass
class Scrap:
    """A value's same-typed children and the way back."""

    children: list
    rebuild: Callable[[Sequence[Any]], Any]


def scrap(t: TypeRep, x: Any) -> Scrap:
    """Split x into children and rebuild.

    Types without constructors (scalars, functions, abstract types)
    are leaves: no children, and rebuild returns x itself. rebuild
    raises ArityMismatch when handed the wrong number of children.
    """
    ca = split(t, x)
    if ca is None:
        def rebuild_leaf(new: Sequence[Any]) -> Any:
            if len(new) != 0:
                raise ArityMismatch("leaf rebuild expects no children")
            return x

        return Scrap([], rebuild_leaf)
    con = ca.con
    flat = ca.args
    positions = [
        i for i, f in enumerate(con.fields) if ty_equal(f.ty, t) is not None
    ]

    def rebuild(new: Sequence[Any]) -> Any:
        if len(new) != len(positions):
            raise ArityMismatch(
                f"{con.name} rebuild expects {len(positions)} children, "
                f"got {len(new)}"
            )
        vals = list(flat)
        for i, v in zip(positions, new):
            vals[i] = v
        return con.embed(vals)

    return Scrap([flat[i] for i in positions], rebuild)


def children(t: TypeRep, x: Any) -> list:
    """Immediate same-typed subvalues of x."""
    return scrap(t, x).children


def replace_children(t: TypeRep, x: Any, new: Sequence[Any]) -> Any:
    """x with its children swapped out, arity checked."""
    return scrap(t, x).rebuild(new)


def family(t: TypeRep, x: Any) -> list:
    """x and every transitive child, in preorder."""
    out: list = []
    stack = [x]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(children(t, v)))
    return out


def map_children(t: TypeRep, f: Callable[[Any], Any], x: Any) -> Any:
    """Apply f to each immediate child."""
    s = scrap(t, x)
    return s.rebuild([f(c) for c in s.children])


def map_family(t: TypeRep, f: Callable[[Any], Any], x: Any) -> Any:
    """Bottom-up map: children are fully rewritten before f sees x.

    On lists this unfolds to f (x :: f (y :: f (z :: f []))).
    """
    return f(map_children(t, lambda c: map_family(t, f, c), x))


def para(t: TypeRep, f: Callable[[Any, list], Any], x: Any) -> Any:
    """Fold where f sees the node and its children's fold results."""
    return f(x, [para(t, f, c) for c in children(t, x)])


def reduce_family(
    t: TypeRep,
    rule: Callable[[Any], Optional[Any]],
    x: Any,
    fuel: int = DEFAULT_FUEL,
) -> Any:
    """Rewrite with rule until no redex remains anywhere.

    rule returns None when it does not apply. Every firing restarts a
    bottom-up sweep over the rewritten subterm, so the result is a
    normal form. Each firing consumes one unit of fuel; running out
    raises FuelExhausted rather than looping forever.
    """
    budget = [fuel]

    def g(y: Any) -> Any:
        r = rule(y)
        if r is None:
            return y
        budget[0] -= 1
        if budget[0] < 0:
            raise FuelExhausted(f"rewrite exceeded {fuel} rule firings")
        return map_family(t, g, r)

    return map_family(t, g, x)


def traverse_children(
    a: ApplicativeDict, t: TypeRep, f: Callable[[Any], Any], x: Any
) -> Any:
    """Effectful map_children, children visited left to right."""
    s = scrap(t, x)
    return fmap(a, s.rebuild, traverse_list(a, f, s.children))


def traverse_family(
    m: MonadDict, t: TypeRep, f: Callable[[Any], Any], x: Any
) -> Any:
    """Effectful bottom-up map over the whole family."""
    a = app_of_mon(m)
    inner = traverse_children(a, t, lambda c: traverse_family(m, t, f, c), x)
    return m.bind(inner, f)


def mreduce_family(
    m: MonadDict,
    t: TypeRep,
    rule: Callable[[Any], Any],
    x: Any,
    fuel: int = DEFAULT_FUEL,
) -> Any:
    """Effectful reduce_family; rule yields Effectful[Optional[value]]."""
    budget = [fuel]

    def g(y: Any) -> Any:
        def continue_(r: Optional[Any]) -> Any:
            if r is None:
                return m.pure(y)
            budget[0] -= 1
            if budget[0] < 0:
                raise FuelExhausted(f"rewrite exceeded {fuel} rule firings")
            return traverse_family(m, t, g, r)

        return m.bind(rule(y), continue_)

    return traverse_family(m, t, g, x)
