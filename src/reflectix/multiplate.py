"""Traversals over all constructor arguments, not just same-typed ones.

scrap_m splits a value into the flat tuple of every constructor
argument and the tuple of their types, plus a rebuild function that
checks its argument count. Records and bare products split like
variants, through their one constructor. The plates take each node
apart with the split of its type (views.closed) and build no Scrapped.
A Plate is a type-dispatched effectful transformation, total by
construction: types it does not mention pass through untouched. Plates
compose into children- and family-level traversals, folds, and
paramorphisms, and open recursion lets one override the traversal at
chosen types while the default plate carries it everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from .effects import (
    ApplicativeDict,
    MonadDict,
    MonoidDict,
    _bind_all,
    fmap,
    identity_applicative,
    identity_monad,
    run_identity,
    traverse_list,
)
from .errors import ArityMismatch, DepthLimitExceeded
from .typerep import Dyn, TypeRep
from .views import closed


@dataclass
class Scrapped:
    """All constructor arguments of a value, typed, plus rebuild."""

    reps: tuple  # the type of each constructor argument, in order
    values: tuple  # one argument per type in reps
    rebuild: Callable[[Any], Any]


def scrap_m(t: TypeRep, x: Any) -> Scrapped:
    """Split x into every constructor argument with its type.

    Types without constructors are leaves: no arguments, and rebuild
    returns x unchanged. rebuild raises ArityMismatch when handed the
    wrong number of arguments.
    """
    name, tys, args, embed = _parts(t, x)

    def rebuild(new: Sequence[Any]) -> Any:
        if len(new) != len(tys):
            raise ArityMismatch(
                f"{name} rebuild expects {len(tys)} arguments, got {len(new)}"
            )
        return embed(new)

    return Scrapped(tys, args, rebuild)


def _parts(t: TypeRep, x: Any) -> tuple:
    """x's constructor name, argument types and arguments, and the embed
    that rebuilds it from new ones; a leaf has none, and gives x back."""
    parts = closed(t)[3](x)
    if parts is None:
        return "leaf", (), (), lambda _args: x
    info, args = parts
    return info.con.name, info.tys, args, info.con.embed


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


def traverse_children_p(a: ApplicativeDict, p: Plate) -> Plate:
    """Apply p to each constructor argument, left to right, rebuild."""

    def run(t: TypeRep, x: Any) -> Any:
        _, tys, args, embed = _parts(t, x)
        eff = traverse_list(a, lambda rv: p.run(*rv), zip(tys, args))
        return fmap(a, embed, eff)

    return Plate(run)


def map_children_p(p: IdPlate) -> IdPlate:
    """Pure one-layer map over constructor arguments."""
    a = identity_applicative()
    inner = traverse_children_p(a, Plate(lambda t, x: a.pure(p.run(t, x))))
    return IdPlate(lambda t, x: run_identity(inner.run(t, x)))


def fold_children_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Combine p's summaries of the arguments, left to right, from
    m.empty: traverse_children_p in the const applicative, as a loop."""

    def run(t: TypeRep, x: Any) -> Any:
        _, tys, args, _ = _parts(t, x)
        out = m.empty
        for r, v in zip(tys, args):
            out = m.combine(out, p.run(r, v))
        return out

    return ConstPlate(run)


def traverse_family_p(m: MonadDict, p: Plate) -> Plate:
    """Apply p to every node of every reachable type, bottom up, binding
    each argument's computation once, left to right."""

    def run(t: TypeRep, x: Any) -> Any:
        _, tys, args, embed = _parts(t, x)
        kids = [run(r, v) for r, v in zip(tys, args)]
        return _bind_all(m, kids, lambda ys: p.run(t, embed(ys)))

    return Plate(_guarded(run, "traverse"))


def map_family_p(p: IdPlate) -> IdPlate:
    """Pure bottom-up map over every node of every type."""
    m = identity_monad()
    inner = traverse_family_p(m, Plate(lambda t, x: m.pure(p.run(t, x))))
    return IdPlate(lambda t, x: run_identity(inner.run(t, x)))


def pre_fold_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Fold where each node's summary precedes its descendants'."""

    def run(t: TypeRep, x: Any) -> Any:
        below = fold.run(t, x)
        return m.combine(p.run(t, x), below)

    fold = fold_children_p(m, ConstPlate(run))  # one per fold, not per node
    return ConstPlate(_guarded(run, "fold"))


def post_fold_p(m: MonoidDict, p: ConstPlate) -> ConstPlate:
    """Fold where each node's summary follows its descendants'."""

    def run(t: TypeRep, x: Any) -> Any:
        below = fold.run(t, x)
        return m.combine(below, p.run(t, x))

    fold = fold_children_p(m, ConstPlate(run))  # one per fold, not per node
    return ConstPlate(_guarded(run, "fold"))


def para_p(step: ConstPlate) -> ConstPlate:
    """Paramorphism: step sees the node and a list of child results."""

    def run(t: TypeRep, x: Any) -> Any:
        _, tys, args, _ = _parts(t, x)
        rs = [run(r, v) for r, v in zip(tys, args)]
        return step.run(t, x)(rs)

    return ConstPlate(_guarded(run, "fold"))


def _guarded(run: Callable[[TypeRep, Any], Any], what: str) -> Callable:
    """run as a walk's entry point: a RecursionError becomes
    DepthLimitExceeded. The walk recurses through run itself, so no
    level pays for the guard."""

    def entry(t: TypeRep, x: Any) -> Any:
        try:
            return run(t, x)
        except RecursionError:
            raise DepthLimitExceeded(f"value nests too deeply to {what}") from None

    return entry


def children_dyn(t: TypeRep, x: Any) -> list[Dyn]:
    """Every constructor argument as a typed dynamic value."""
    _, tys, args, _ = _parts(t, x)
    return [Dyn(r, v) for r, v in zip(tys, args)]


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
    """Close an open recursion into a runnable plate, lazily. Every
    level recurses through a tied plate, which turns a RecursionError
    into DepthLimitExceeded without a frame of its own."""

    def run(t: TypeRep, x: Any) -> Any:
        try:
            return r.run(r).run(t, x)
        except RecursionError:
            raise DepthLimitExceeded("value nests too deeply to traverse") from None

    return Plate(run)


def default_openrec(a: ApplicativeDict) -> OpenRec:
    """One descent layer that continues with whatever run resolves to."""
    return OpenRec(lambda r: traverse_children_p(a, tie(r)))
