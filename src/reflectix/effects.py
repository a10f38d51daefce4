"""First-class effect interpreters for generic traversals.

Effectful values are tagged with a brand naming their interpreter;
functorial, applicative, and monadic operation records run them. The
stock interpreters are identity (plain values), const (accumulate a
monoid, ignore results), reader, state, and a deferred-thunk io.
Reader, state and io computations are data, each a primitive step or a
bind, and one loop runs all three with its pending continuations on a
list, so running a computation nests no Python frames. The monadic
traversals, here and in uniplate and multiplate, bind each element's or
child's computation once, left to right. Combining values of different
brands raises BrandMismatch instead of producing nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable

from .errors import BrandMismatch


class Brand:
    """Identity token of an effect interpreter."""


@dataclass(frozen=True)
class _NamedBrand(Brand):
    name: str

    def __repr__(self) -> str:
        return f"<brand {self.name}>"


IDENTITY = _NamedBrand("identity")
READER = _NamedBrand("reader")
STATE = _NamedBrand("state")
IO = _NamedBrand("io")


@dataclass(frozen=True)
class MonoidDict:
    """An associative combine with a neutral element."""

    empty: Any
    combine: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class ConstBrand(Brand):
    """Const effects are branded by their monoid."""

    monoid: MonoidDict

    def __repr__(self) -> str:
        return "<brand const>"


@dataclass(frozen=True)
class Effectful:
    """A computation under some brand's interpreter."""

    brand: Brand
    payload: Any


def _expect(brand: Brand, v: Any) -> Any:
    # Brands are nearly always the interpreter's own object; only a
    # distinct brand pays for the structural comparison.
    if isinstance(v, Effectful) and (v.brand is brand or v.brand == brand):
        return v.payload
    got = v.brand if isinstance(v, Effectful) else type(v).__name__
    raise BrandMismatch(f"expected {brand!r}, got {got!r}")


@dataclass(frozen=True)
class FunctorialDict:
    brand: Brand
    fmap: Callable[[Callable, Any], Any]


@dataclass(frozen=True)
class ApplicativeDict:
    brand: Brand
    pure: Callable[[Any], Any]
    apply: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class MonadDict:
    brand: Brand
    pure: Callable[[Any], Any]
    bind: Callable[[Any, Callable], Any]


def fun_of_app(a: ApplicativeDict) -> FunctorialDict:
    """Every applicative maps: fmap f = apply (pure f)."""
    return FunctorialDict(a.brand, lambda f, x: a.apply(a.pure(f), x))


def app_of_mon(m: MonadDict) -> ApplicativeDict:
    """Every monad applies, running the function's effect first."""

    def apply(ff: Any, xx: Any) -> Any:
        return m.bind(ff, lambda f: m.bind(xx, lambda x: m.pure(f(x))))

    return ApplicativeDict(m.brand, m.pure, apply)


def fun_of_mon(m: MonadDict) -> FunctorialDict:
    return fun_of_app(app_of_mon(m))


def fmap(a: ApplicativeDict, f: Callable, x: Any) -> Any:
    return a.apply(a.pure(f), x)


def liftA2(a: ApplicativeDict, f: Callable[[Any, Any], Any], x: Any, y: Any) -> Any:
    """Combine two effectful values left to right."""
    return a.apply(a.apply(a.pure(lambda u: lambda v: f(u, v)), x), y)


def traverse_list(a: ApplicativeDict, f: Callable[[Any], Any], xs: Iterable) -> Any:
    """Run f across xs, collecting a list of results, effects left to
    right: a fold that nests no Python frames per element. The results
    so far are a persistent chain (last, (previous, ... None)), which a
    result may share with other runs, and become a list once at the end."""
    acc = a.pure(None)
    for x in xs:
        acc = liftA2(a, lambda done, y: (y, done), acc, f(x))
    return fmap(a, _chain_list, acc)


def _chain_list(chain: Any) -> list:
    out = []
    while chain is not None:
        y, chain = chain
        out.append(y)
    out.reverse()
    return out


def sequence_list(a: ApplicativeDict, xs: list) -> Any:
    return traverse_list(a, lambda v: v, xs)


def _bind_all(m: MonadDict, ms: list, k: Callable[[tuple], Any]) -> Any:
    """Bind each computation in ms once, left to right, then continue with
    k on the tuple of their results; with none, k runs at once. Each
    continuation extends its own tuple, so two runs share nothing."""
    run = k
    for mx in reversed(ms):  # each run binds its mx, then calls the next
        def run(done: tuple, mx: Any = mx, then: Callable = run) -> Any:
            return m.bind(mx, lambda y: then(done + (y,)))

    return run(())


# traverseM binds a longer list in runs of _CHUNK chained to the left. A
# lazy monad's bind (reader, state, io) returns at once, so a run's steps
# are built only as the run reaches them; an eager one's (identity's)
# nests three frames per step, so at most _CHUNK steps deep.
_CHUNK = 32


def traverseM(m: MonadDict, f: Callable[[Any], Any], xs: list) -> Any:
    """traverse_list for a monad, with one bind per element where
    app_of_mon's liftA2 would take four; f still runs on every element
    before any effect does."""
    fxs = [f(x) for x in xs]
    if len(fxs) <= _CHUNK:
        return _bind_all(m, fxs, lambda ys: m.pure(list(ys)))

    def run(chunk: list, done: Any) -> Any:
        return _bind_all(m, chunk, lambda ys: m.pure((ys, done)))

    acc = m.pure(None)
    for lo in range(0, len(fxs), _CHUNK):
        acc = m.bind(acc, partial(run, fxs[lo : lo + _CHUNK]))
    return m.bind(acc, lambda runs: m.pure([y for ys in _chain_list(runs) for y in ys]))


def sequenceM(m: MonadDict, xs: list) -> Any:
    return traverseM(m, lambda v: v, xs)


# ---------------------------------------------------------------------------
# Identity


def identity_monad() -> MonadDict:
    return MonadDict(
        IDENTITY,
        pure=lambda x: Effectful(IDENTITY, x),
        bind=lambda v, f: f(_expect(IDENTITY, v)),
    )


def identity_applicative() -> ApplicativeDict:
    return app_of_mon(identity_monad())


def run_identity(v: Any) -> Any:
    return _expect(IDENTITY, v)


# ---------------------------------------------------------------------------
# Const


def const_applicative(monoid: MonoidDict) -> ApplicativeDict:
    """Discard results, accumulate monoid values left to right."""
    brand = ConstBrand(monoid)
    return ApplicativeDict(
        brand,
        pure=lambda _x: Effectful(brand, monoid.empty),
        apply=lambda f, x: Effectful(
            brand, monoid.combine(_expect(brand, f), _expect(brand, x))
        ),
    )


def get_const(v: Any) -> Any:
    if not isinstance(v, Effectful) or not isinstance(v.brand, ConstBrand):
        raise BrandMismatch(f"expected a const value, got {v!r}")
    return v.payload


list_monoid = MonoidDict(empty=[], combine=lambda a, b: a + b)
sum_monoid = MonoidDict(empty=0, combine=lambda a, b: a + b)

# ---------------------------------------------------------------------------
# Reader, state and io: a computation's payload is a primitive step, a
# function from the run's one slot (the environment, the state, or None
# for io) to a result and the slot's next value, or a bind, the pair
# (computation, continuation).


def _monad(brand: Brand) -> MonadDict:
    return MonadDict(
        brand,
        pure=lambda x: Effectful(brand, lambda s: (x, s)),
        bind=lambda v, f: Effectful(brand, (v, f)),
    )


def _run(brand: Brand, v: Any, s: Any) -> tuple:
    """v's result and the slot's final value, from s. Pending continuations
    wait on a list, so running nests no Python frames, however deep the binds."""
    pending = []
    while True:
        # _expect, inlined: this is the loop every step of a run takes.
        c = v.payload if type(v) is Effectful and v.brand is brand else _expect(brand, v)
        if type(c) is tuple:
            v, f = c
            pending.append(f)
            continue
        x, s = c(s)
        if not pending:
            return x, s
        v = pending.pop()(x)


def reader_monad() -> MonadDict:
    return _monad(READER)


def ask() -> Effectful:
    """The current environment."""
    return Effectful(READER, lambda env: (env, env))


def local(modify: Callable[[Any], Any], r: Any) -> Effectful:
    """Run r under a modified environment: swap it into the slot, run r,
    and swap the outer environment back."""

    def leave(outer: Any) -> Effectful:
        return Effectful(READER, (r, lambda x: Effectful(READER, lambda _: (x, outer))))

    enter = Effectful(READER, lambda env: (env, modify(env)))
    return Effectful(READER, (enter, leave))


def run_reader(r: Any, env: Any) -> Any:
    return _run(READER, r, env)[0]


def state_monad() -> MonadDict:
    return _monad(STATE)


def get_state() -> Effectful:
    return Effectful(STATE, lambda s: (s, s))


def put_state(s1: Any) -> Effectful:
    return Effectful(STATE, lambda _s: ((), s1))


def incr() -> Effectful:
    """Return the counter and bump it by one, in one primitive step."""
    return Effectful(STATE, lambda i: (i, i + 1))


def run_state(v: Any, s0: Any) -> tuple:
    """Run a state computation, yielding (result, final state)."""
    return _run(STATE, v, s0)


get = get_state
put = put_state


def io_monad() -> MonadDict:
    """Host effects, deferred until run_io runs them in bind order."""
    return _monad(IO)


def embed_io(thunk: Callable[[], Any]) -> Effectful:
    """Wrap a host side effect as a deferred io computation."""
    return Effectful(IO, lambda s: (thunk(), s))


def run_io(v: Any) -> Any:
    return _run(IO, v, None)[0]
