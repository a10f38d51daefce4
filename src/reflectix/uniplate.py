"""Uniform traversals over same-typed children.

scrap splits a value into its same-typed immediate children plus a
rebuild function; the folds, maps and rewrites here take values apart
the same way without building one. Children are the constructor
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
from .desc import conap
from .errors import ArityMismatch, DepthLimitExceeded, FuelExhausted
from .typerep import TypeRep
from .views import closed

DEFAULT_FUEL = 10**6


@dataclass
class Scrap:
    """A value's same-typed children and the way back."""

    children: list
    rebuild: Callable[[Sequence[Any]], Any]


def _split(t: TypeRep, x: Any) -> Optional[tuple]:
    """x's constructor, arguments and child positions; None for a leaf type."""
    _, dd, _, table = closed(t)
    if dd is None:
        return None
    ca = conap(dd, x)
    return ca.con, ca.args, table[id(ca.con)].positions


def _rebuild(con: Any, args: tuple, positions: tuple, new: Sequence[Any]) -> Any:
    """con applied to args with the children at positions replaced."""
    vals = list(args)
    for i, v in zip(positions, new):
        vals[i] = v
    return con.embed(vals)


def scrap(t: TypeRep, x: Any) -> Scrap:
    """Split x into children and rebuild.

    Types without constructors (scalars, functions, abstract types)
    are leaves: no children, and rebuild returns x itself. rebuild
    raises ArityMismatch when handed the wrong number of children.
    Which arguments are children is planned once per type; the plan
    shares the descriptor cache's bound and invalidation.
    """
    parts = _split(t, x)
    if parts is None:
        def rebuild_leaf(new: Sequence[Any]) -> Any:
            if len(new) != 0:
                raise ArityMismatch("leaf rebuild expects no children")
            return x

        return Scrap([], rebuild_leaf)
    con, flat, positions = parts

    def rebuild(new: Sequence[Any]) -> Any:
        if len(new) != len(positions):
            raise ArityMismatch(
                f"{con.name} rebuild expects {len(positions)} children, "
                f"got {len(new)}"
            )
        return _rebuild(con, flat, positions, new)

    return Scrap([flat[i] for i in positions], rebuild)


def children(t: TypeRep, x: Any) -> list:
    """Immediate same-typed subvalues of x."""
    parts = _split(t, x)
    return [] if parts is None else [parts[1][i] for i in parts[2]]


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
    parts = _split(t, x)
    if parts is None:
        return x
    con, args, positions = parts
    return _rebuild(con, args, positions, [f(args[i]) for i in positions])


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
    try:
        return f(x, [para(t, f, c) for c in children(t, x)])
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

    def go(y: Any) -> Any:
        parts = _split(t, y)
        if parts is None:
            return f(y)
        con, args, positions = parts
        kids = []
        for i in positions:  # a loop, so one Python frame per level
            kids.append(go(args[i]))
        return _bind_all(m, kids, lambda new: f(_rebuild(con, args, positions, new)))

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
