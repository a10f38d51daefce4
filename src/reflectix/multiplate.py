"""Traversals over all constructor arguments, not just same-typed ones.

scrap_m splits a value into the flat tuple of every constructor
argument with its type, plus a rebuild function. A Plate
is a type-dispatched effectful transformation, total by construction:
types it does not mention pass through untouched. Plates compose into
children- and family-level traversals, folds, and paramorphisms, and
open recursion lets one override the traversal at chosen types while
the default plate carries it everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .desc import ProductShape
from .effects import (
    ApplicativeDict,
    Effectful,
    MonadDict,
    MonoidDict,
    app_of_mon,
    const_applicative,
    fmap,
    get_const,
    identity_applicative,
    identity_monad,
    liftA2,
    run_identity,
)
from .typerep import Dyn, TypeRep
from .views import split


@dataclass
class Scrapped:
    """All constructor arguments of a value, typed, plus rebuild."""

    shape: ProductShape
    values: tuple  # one argument per component of shape, in order
    rebuild: Callable[[Any], Any]


def scrap_m(t: TypeRep, x: Any) -> Scrapped:
    """Split x into every constructor argument with its type.

    Types without constructors are leaves: no arguments, and rebuild
    returns x unchanged.
    """
    ca = split(t, x)
    if ca is None:
        return Scrapped(ProductShape(()), (), lambda _args: x)
    reps = tuple(f.ty for f in ca.con.fields)
    return Scrapped(ProductShape(reps), ca.args, ca.con.embed)


@dataclass(frozen=True)
class Plate:
    """An effectful transformation dispatched on type representation."""

    run: Callable[[TypeRep, Any], Any]


@dataclass(frozen=True)
class IdPlate:
    """A pure value-to-value plate."""

    run: Callable[[TypeRep, Any], Any]


@dataclass(frozen=True)
class ConstPlate:
    """A plate computing a summary instead of a value."""

    run: Callable[[TypeRep, Any], Any]


def pure_plate(a: ApplicativeDict) -> Plate:
    """The do-nothing plate."""
    return Plate(lambda t, x: a.pure(x))


def plate(
    a: ApplicativeDict,
    handler: Callable[[TypeRep, Any], Optional[Any]],
) -> Plate:
    """Total plate from a partial handler.

    handler returns an effectful value for types it covers and None
    otherwise; uncovered types pass through as pure identity.
    """

    def run(t: TypeRep, x: Any) -> Any:
        out = handler(t, x)
        return a.pure(x) if out is None else out

    return Plate(run)


def _traverse_product(
    a: ApplicativeDict, p: Plate, reps: tuple, values: tuple
) -> Any:
    """p over each argument, effects left to right, into a tuple."""
    acc = a.pure(())
    for r, v in zip(reps, values):
        acc = liftA2(a, lambda done, y: done + (y,), acc, p.run(r, v))
    return acc


def traverse_children_p(a: ApplicativeDict, p: Plate) -> Plate:
    """Apply p to each constructor argument, left to right, rebuild."""

    def run(t: TypeRep, x: Any) -> Any:
        s = scrap_m(t, x)
        eff = _traverse_product(a, p, s.shape.reps, s.values)
        return fmap(a, s.rebuild, eff)

    return Plate(run)


def map_children_p(p: IdPlate) -> IdPlate:
    """Pure one-layer map over constructor arguments."""
    a = identity_applicative()
    inner = traverse_children_p(a, Plate(lambda t, x: a.pure(p.run(t, x))))
    return IdPlate(lambda t, x: run_identity(inner.run(t, x)))


def fold_children_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Combine p's summaries of the arguments, left to right."""
    a = const_applicative(m)
    inner = traverse_children_p(
        a, Plate(lambda t, x: Effectful(a.brand, p.run(t, x)))
    )
    return ConstPlate(lambda t, x: get_const(inner.run(t, x)))


def traverse_family_p(m: MonadDict, p: Plate) -> Plate:
    """Apply p to every node of every reachable type, bottom up."""
    a = app_of_mon(m)

    def run(t: TypeRep, x: Any) -> Any:
        inner = traverse_children_p(a, Plate(run)).run(t, x)
        return m.bind(inner, lambda y: p.run(t, y))

    return Plate(run)


def map_family_p(p: IdPlate) -> IdPlate:
    """Pure bottom-up map over every node of every type."""
    m = identity_monad()
    inner = traverse_family_p(m, Plate(lambda t, x: m.pure(p.run(t, x))))
    return IdPlate(lambda t, x: run_identity(inner.run(t, x)))


def pre_fold_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Fold where each node's summary precedes its descendants'."""

    def run(t: TypeRep, x: Any) -> Any:
        below = fold_children_p(m, ConstPlate(run)).run(t, x)
        return m.combine(p.run(t, x), below)

    return ConstPlate(run)


def post_fold_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Fold where each node's summary follows its descendants'."""

    def run(t: TypeRep, x: Any) -> Any:
        below = fold_children_p(m, ConstPlate(run)).run(t, x)
        return m.combine(below, p.run(t, x))

    return ConstPlate(run)


def para_p(step: ConstPlate) -> ConstPlate:
    """Paramorphism: step sees the node and a list of child results."""

    def run(t: TypeRep, x: Any) -> Any:
        s = scrap_m(t, x)
        rs = [run(r, v) for r, v in zip(s.shape.reps, s.values)]
        return step.run(t, x)(rs)

    return ConstPlate(run)


def children_dyn(t: TypeRep, x: Any) -> list[Dyn]:
    """Every constructor argument as a typed dynamic value."""
    s = scrap_m(t, x)
    return [Dyn(r, v) for r, v in zip(s.shape.reps, s.values)]


def family_dyn(t: TypeRep, x: Any) -> list[Dyn]:
    """Preorder of all reachable subvalues across types."""
    out: list[Dyn] = []
    stack = [Dyn(t, x)]
    while stack:
        d = stack.pop()
        out.append(d)
        stack.extend(reversed(children_dyn(d.rep, d.value)))
    return out


@dataclass(frozen=True)
class OpenRec:
    """A traversal with its recursive knot left open.

    run maps the eventual self-reference to a plate; tie closes the
    loop. Overriding run at selected types and delegating the rest to
    the default yields custom traversals without rewriting descent.
    """

    run: Callable[["OpenRec"], Plate]


def tie(r: OpenRec) -> Plate:
    """Close an open recursion into a runnable plate, lazily."""
    return Plate(lambda t, x: r.run(r).run(t, x))


def default_openrec(a: ApplicativeDict) -> OpenRec:
    """One descent layer that continues with whatever run resolves to."""
    return OpenRec(lambda r: traverse_children_p(a, tie(r)))
