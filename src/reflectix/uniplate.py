"""Uniform traversals over same-typed children.

scrap splits a value into its same-typed immediate children plus a
rebuild function; the folds, maps and rewrites here take values apart
the same way without building one, each with its type's split
(views.closed), fetched once per walk. Children are the constructor
arguments whose type equals the parent type, in declaration order, so
for lists the only child of x :: xs is xs. The effectful traversals
bind each child's computation once, left to right.

>>> from .typerep import Int, List
>>> children(List(Int), [1, 2, 3])
[[2, 3]]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .effects import ApplicativeDict, MonadDict, _bind_all, fmap, traverse_list
from .errors import ArityMismatch, DepthLimitExceeded, FuelExhausted
from .typerep import TypeRep
from .views import closed

DEFAULT_FUEL = 10**6


@dataclass
class Scrap:
    """A value's same-typed children and the way back."""

    children: list
    rebuild: Callable[[Sequence[Any]], Any]


def _rebuild(info: Any, args: tuple, new: Sequence[Any]) -> Any:
    """info's constructor applied to args, its children replaced."""
    vals = list(args)
    for i, v in zip(info.positions, new):
        vals[i] = v
    return info.con.embed(vals)


def scrap(t: TypeRep, x: Any) -> Scrap:
    """Split x into children and rebuild.

    Types without constructors (scalars, functions, abstract types)
    are leaves: no children, and rebuild returns x itself. rebuild
    raises ArityMismatch when handed the wrong number of children.
    Which arguments are children is planned once per type; the plan
    shares the descriptor cache's bound and invalidation.
    """
    parts = closed(t)[3](x)
    if parts is None:
        def rebuild_leaf(new: Sequence[Any]) -> Any:
            if len(new) != 0:
                raise ArityMismatch("leaf rebuild expects no children")
            return x

        return Scrap([], rebuild_leaf)
    info, flat = parts
    kids = [flat[i] for i in info.positions]

    def rebuild(new: Sequence[Any]) -> Any:
        if len(new) != len(kids):
            raise ArityMismatch(
                f"{info.con.name} rebuild expects {len(kids)} children, "
                f"got {len(new)}"
            )
        return _rebuild(info, flat, new)

    return Scrap(kids, rebuild)


def _children(split: Callable, x: Any) -> list:
    parts = split(x)
    return [] if parts is None else [parts[1][i] for i in parts[0].positions]


def children(t: TypeRep, x: Any) -> list:
    """Immediate same-typed subvalues of x."""
    return _children(closed(t)[3], x)


def replace_children(t: TypeRep, x: Any, new: Sequence[Any]) -> Any:
    """x with its children swapped out, arity checked."""
    return scrap(t, x).rebuild(new)


def family(t: TypeRep, x: Any) -> list:
    """x and every transitive child, in preorder."""
    split = closed(t)[3]
    out: list = []
    stack = [x]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(_children(split, v)))
    return out


def map_children(t: TypeRep, f: Callable[[Any], Any], x: Any) -> Any:
    """Apply f to each immediate child."""
    parts = closed(t)[3](x)
    if parts is None:
        return x
    info, args = parts
    return _rebuild(info, args, [f(args[i]) for i in info.positions])


def map_family(t: TypeRep, f: Callable[[Any], Any], x: Any) -> Any:
    """Bottom-up map: children are fully rewritten before f sees x.

    On lists this unfolds to f (x :: f (y :: f (z :: f []))).
    Raises DepthLimitExceeded when x nests too deeply to recurse over.
    """
    try:
        return f(map_children(t, lambda c: map_family(t, f, c), x))
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to map") from None


def para(t: TypeRep, f: Callable[[Any, list], Any], x: Any) -> Any:
    """Fold where f sees the node and its children's fold results.
    Raises DepthLimitExceeded when x nests too deeply to recurse over."""
    split = closed(t)[3]

    def go(y: Any) -> Any:  # map calls go from C: one Python frame per level
        return f(y, list(map(go, _children(split, y))))

    try:
        return go(x)
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to fold") from None


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
    """Effectful bottom-up map over the whole family, binding each
    child's computation once, left to right, then f on the rebuilt node.
    Raises DepthLimitExceeded when x nests too deeply to recurse over."""
    split = closed(t)[3]

    def go(y: Any) -> Any:
        parts = split(y)
        if parts is None:
            return f(y)
        info, args = parts
        kids = []
        for i in info.positions:  # a loop, so one Python frame per level
            kids.append(go(args[i]))
        return _bind_all(m, kids, lambda new: f(_rebuild(info, args, new)))

    try:
        return go(x)
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to traverse") from None


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
