"""Runtime representations of types.

A TypeRep is a first-class value standing for a type: a nominal head
(name, module path, fixed arity) applied to argument representations.
Every TypeRep is hash-consed: building the same head over the same
arguments returns the one existing object, so equal types are
identical, and equality and hashing are identity. A type such as
Pair(Pair(Int, Int), Pair(Int, Int)) is a DAG with one node per
distinct subterm, and its size is computed once, at construction.
Representations support equality with evidence (ty_equal), wildcard
patterns (ANY) for dispatch, a specificity order on patterns, and
anti-unification (least general generalization of two patterns).

>>> List(Int) is List(Int)
True
>>> matches(Pair(Int, ANY), Pair(Int, String))
True
>>> render(anti_unify(Pair(Int, Int), Pair(String, Int)))
'Pair(_, Int)'
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Union

from .errors import ArityMismatch, DepthLimitExceeded, ParseError, UnknownType


@dataclass(frozen=True)
class Head:
    """Nominal identity of a type constructor."""

    name: str
    module_path: tuple[str, ...]
    arity: int


class _AnyPattern:
    """The wildcard pattern; matches every type. Singleton."""

    _instance: Optional["_AnyPattern"] = None

    def __new__(cls) -> "_AnyPattern":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "_"


ANY = _AnyPattern()


class TypeRep:
    """A type constructor applied to argument representations.

    Ground representations contain no ANY; patterns may. Construction
    interns: TypeRep(head, args) returns the existing object for an
    equal head over the same (interned) arguments, so two TypeReps are
    equal exactly when they are identical, and hash by identity. The
    table holds its entries weakly, so a type nobody references is
    freed. size is the number of nodes in the term, counting
    wildcards. Instances are immutable; copying or unpickling one
    interns again and yields the same object.
    """

    __slots__ = ("head", "args", "size", "__weakref__")

    head: Head
    args: tuple["TypePattern", ...]
    size: int

    def __new__(cls, head: Head, args: tuple["TypePattern", ...] = ()) -> "TypeRep":
        args = tuple(args)
        # The arguments are themselves interned and this entry's value
        # keeps them alive, so their ids are stable for the key's life.
        key = (head, *map(id, args))
        t = _interned.get(key)
        if t is not None:
            return t
        if len(args) != head.arity:
            raise ArityMismatch(
                f"{head.name} expects {head.arity} arguments, got {len(args)}"
            )
        size = 1 + sum(1 if a is ANY else a.size for a in args)
        with _intern_lock:
            t = _interned.get(key)
            if t is None:
                t = object.__new__(cls)
                object.__setattr__(t, "head", head)
                object.__setattr__(t, "args", args)
                object.__setattr__(t, "size", size)
                _interned[key] = t
        return t

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"TypeRep is immutable; cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TypeRep is immutable; cannot delete {name}")

    def __reduce__(self) -> tuple:
        return TypeRep, (self.head, self.args)

    def __repr__(self) -> str:
        return brief(self)


# The hash-consing table: (head, id of each argument) -> TypeRep.
# Lookups do not take the lock; inserts do.
_intern_lock = threading.Lock()
_interned: "weakref.WeakValueDictionary[tuple, TypeRep]" = weakref.WeakValueDictionary()

TypePattern = Union[TypeRep, _AnyPattern]

# Global constructor table. Appends take the lock; lookups do not.
_table_lock = threading.Lock()
_heads: dict[tuple[tuple[str, ...], str], Head] = {}
_by_name: dict[str, list[Head]] = {}


class TyCon:
    """A declared type constructor awaiting arguments."""

    def __init__(self, head: Head):
        self.head = head

    def __call__(self, *args: TypePattern) -> TypeRep:
        return TypeRep(self.head, tuple(args))

    def __repr__(self) -> str:
        return f"{self.head.name}/{self.head.arity}"


def declare(name: str, arity: int = 0, module_path: tuple[str, ...] = ()):
    """Register a type constructor and return its witness.

    Arity 0 yields the TypeRep itself; higher arities yield a callable
    that builds representations. Redeclaring the same (module path,
    name, arity) triple is idempotent; changing the arity of an
    existing name is an error.
    """
    key = (module_path, name)
    with _table_lock:
        existing = _heads.get(key)
        if existing is not None:
            if existing.arity != arity:
                raise ArityMismatch(
                    f"{name} already declared with arity {existing.arity}"
                )
            head = existing
        else:
            head = Head(name, module_path, arity)
            _heads[key] = head
            _by_name.setdefault(name, []).append(head)
    if arity == 0:
        return TypeRep(head)
    return TyCon(head)


def lookup_head(name: str) -> Head:
    """Resolve a bare constructor name against the table."""
    heads = _by_name.get(name)
    if not heads:
        raise UnknownType(f"unknown type constructor: {name}")
    if len(heads) > 1:
        raise UnknownType(f"ambiguous type constructor: {name}")
    return heads[0]


def is_ground(p: TypePattern) -> bool:
    """True when the pattern contains no wildcard. Each distinct subterm
    is visited once, so Pair^k(Int) costs k steps, not 2^k."""
    seen: set[int] = set()
    todo = [p]
    while todo:
        q = todo.pop()
        if q is ANY:
            return False
        if id(q) not in seen:
            seen.add(id(q))
            todo.extend(q.args)
    return True


def pattern_size(p: TypePattern) -> int:
    """Number of nodes in the pattern term, counting wildcards."""
    return 1 if p is ANY else p.size


def render(p: TypePattern) -> str:
    """Print a pattern as Head(arg1, arg2); the wildcard prints as _.
    Exact, for parse_type to read back: the output is the full preorder,
    as long as the pattern's tree, so Pair^k(Int) prints 2^k Ints.
    brief is the bounded form, which messages and repr use. Walks with
    an explicit stack, so any depth prints."""
    out: list[str] = []
    todo: list = [p]  # patterns still to print, and the text between them
    while todo:
        q = todo.pop()
        if isinstance(q, str):
            out.append(q)
        elif q is ANY:
            out.append("_")
        elif not q.args:
            out.append(q.head.name)
        else:
            out.append(q.head.name + "(")
            todo.append(")")
            for i, a in enumerate(reversed(q.args)):
                todo.extend((", ", a) if i else (a,))
    return "".join(out)


BRIEF_NODES = 32


def brief(p: TypePattern) -> str:
    """render(p) cut after its first BRIEF_NODES subterms in preorder,
    the arguments a head has left printed as one …, so that the text
    does not grow with the type: Pair^k(Int) has 2^k Ints.

    >>> brief(List(Pair(Int, ANY)))
    'List(Pair(Int, _))'
    """
    left = BRIEF_NODES

    def go(q: TypePattern) -> str:
        nonlocal left
        left -= 1
        if q is ANY or not q.args:
            return render(q)
        parts = []
        for a in q.args:
            if left <= 0:
                parts.append("…")
                break
            parts.append(go(a))
        return f"{q.head.name}({', '.join(parts)})"

    return go(p)


def matches(p: TypePattern, t: TypeRep) -> bool:
    """Does pattern p cover the ground representation t?

    >>> matches(ANY, Int)
    True
    >>> matches(Pair(ANY, Int), Pair(String, String))
    False
    """
    if p is ANY or p is t:
        return True
    # Lenient queries: a wildcard argument is covered only by a wildcard.
    if t is ANY or p.head != t.head:
        return False
    # The arguments on an explicit stack, each pair of subterms once.
    seen: set[tuple[int, int]] = set()
    todo = list(zip(p.args, t.args))
    while todo:
        a, b = todo.pop()
        if a is ANY or a is b:
            continue
        if b is ANY or a.head != b.head:
            return False
        if (id(a), id(b)) not in seen:
            seen.add((id(a), id(b)))
            todo.extend(zip(a.args, b.args))
    return True


class Specificity(Enum):
    MORE_SPECIFIC = "more_specific"
    MORE_GENERAL = "more_general"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _bottom_up(
    p: TypePattern,
    q: TypePattern,
    known: Callable[[TypePattern, TypePattern], Any],
    combine: Callable[[TypeRep, list], Any],
) -> Any:
    """A result for the pair (p, q), built bottom up over pairs of
    subterms: known(a, b) answers a pair at once or gives None, and
    combine(a, results) answers a and a pattern with its head from the
    results of their argument pairs. Each pair is combined once per
    call, and the pairs still waiting sit on an explicit stack, so the
    cost is bounded by the distinct pairs and any depth is answered."""
    r = known(p, q)
    if r is not None:
        return r
    memo: dict[tuple[int, int], Any] = {}

    def result(a: TypePattern, b: TypePattern) -> Any:
        r = known(a, b)
        return memo.get((id(a), id(b))) if r is None else r

    todo = [(p, q)]
    while todo:
        a, b = todo[-1]
        if result(a, b) is not None:
            todo.pop()
            continue
        pairs = list(zip(a.args, b.args))
        waiting = [(x, y) for x, y in pairs if result(x, y) is None]
        if waiting:
            todo.extend(waiting)
            continue
        memo[id(a), id(b)] = combine(a, [result(x, y) for x, y in pairs])
        todo.pop()
    return result(p, q)


def compare_specificity(p: TypePattern, q: TypePattern) -> Specificity:
    """Order patterns by how narrowly they match.

    The wildcard is the most general pattern; distinct concrete heads
    are incomparable (at most one of them can match any given type);
    equal heads compare lexicographically over their arguments, so
    Pair(Int, _) is more specific than Pair(_, Int). As in anti_unify,
    identical subterms are equal at once and each pair of subterms is
    compared once per call.
    """

    def known(p: TypePattern, q: TypePattern) -> Optional[Specificity]:
        if p is q:
            return Specificity.EQUAL
        if p is ANY:
            return Specificity.MORE_GENERAL
        if q is ANY:
            return Specificity.MORE_SPECIFIC
        return Specificity.INCOMPARABLE if p.head != q.head else None

    def first_unequal(p: TypeRep, cs: list) -> Specificity:
        return next((c for c in cs if c is not Specificity.EQUAL), Specificity.EQUAL)

    return _bottom_up(p, q, known, first_unequal)


def pattern_key(p: TypePattern) -> tuple:
    """Total sort key refining the specificity order.

    Keys compare lexicographically over a preorder walk in which every
    concrete head sorts before the wildcard, so a bucket sorted by this
    key always tries more specific patterns first, independently of
    registration order. Incomparable patterns tie-break by head name.
    The key is the full preorder, as long as the pattern's tree, so no
    memo shortens it: Pair^k(Int) gives 2^(k+1) - 1 entries. brief is
    the bounded form of the same preorder. Walks with an explicit
    stack, so any depth has a key.
    """
    out: list[tuple] = []
    todo = [p]
    while todo:
        q = todo.pop()
        if q is ANY:
            out.append((1,))
        else:
            out.append((0, q.head.name, q.head.module_path, q.head.arity))
            todo.extend(reversed(q.args))
    return tuple(out)


def anti_unify(p: TypePattern, q: TypePattern) -> TypePattern:
    """Least general pattern covering both p and q.

    Equal heads recurse over arguments; any mismatch of head or arity,
    or a wildcard on either side, generalizes to the wildcard at that
    position. Identical arguments are their own generalization, and
    each pair of subterms is generalized once per call, so the cost is
    bounded by the distinct subterm pairs, not by the size of the term.

    >>> anti_unify(Int, String) is ANY
    True
    >>> render(anti_unify(List(Int), List(String)))
    'List(_)'
    """

    def known(p: TypePattern, q: TypePattern) -> Optional[TypePattern]:
        if p is q:
            return p
        return ANY if p is ANY or q is ANY or p.head != q.head else None

    return _bottom_up(p, q, known, lambda a, gs: TypeRep(a.head, tuple(gs)))


@dataclass(frozen=True)
class EqualityWitness:
    """Evidence that two representations denote the same type.

    Obtain witnesses from ty_equal; constructing one by hand asserts an
    equality nobody checked.
    """

    left: TypeRep
    right: TypeRep


def ty_equal(a: TypeRep, b: TypeRep) -> Optional[EqualityWitness]:
    """Equality with evidence; None when the types differ."""
    if a is ANY or b is ANY:
        return None
    if a is b:
        return EqualityWitness(a, b)
    return None


def coerce(from_rep: TypeRep, to_rep: TypeRep, value: Any) -> Optional[Any]:
    """Retag value from one representation to an equal one.

    Returns the value unchanged when the representations are equal and
    None otherwise; the payload is never converted.
    """
    if ty_equal(from_rep, to_rep) is None:
        return None
    return value


@dataclass(frozen=True)
class Dyn:
    """A value paired with the representation of its type."""

    rep: TypeRep
    value: Any


# ---------------------------------------------------------------------------
# Textual type syntax: Head or Head(arg, ...), wildcard _.


def parse_type(text: str) -> TypePattern:
    """Parse the rendered type syntax back into a pattern.

    Unknown names and arity violations raise UnknownType; syntax errors
    raise ParseError with a line and column. Raises DepthLimitExceeded
    when the type nests too deeply to parse.
    """
    pos = 0
    n = len(text)

    def err(reason: str) -> ParseError:
        return ParseError.at(text, pos, reason)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def ident() -> str:
        nonlocal pos
        start = pos
        if pos >= n or not (text[pos].isalpha() or text[pos] == "_"):
            raise err("expected a type name")
        if text[pos] == "_":
            pos += 1
            return "_"
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        return text[start:pos]

    def ty() -> TypePattern:
        nonlocal pos
        skip_ws()
        name = ident()
        if name == "_":
            return ANY
        head = lookup_head(name)
        args: list[TypePattern] = []
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            while True:
                args.append(ty())
                skip_ws()
                if pos < n and text[pos] == ",":
                    pos += 1
                    continue
                if pos < n and text[pos] == ")":
                    pos += 1
                    break
                raise err("expected ',' or ')'")
        if len(args) != head.arity:
            raise UnknownType(
                f"{name} expects {head.arity} arguments, got {len(args)}"
            )
        if head.arity == 0:
            return TypeRep(head)
        return TypeRep(head, tuple(args))

    try:
        result = ty()
    except RecursionError:
        raise DepthLimitExceeded("type nests too deeply to parse") from None
    skip_ws()
    if pos != n:
        raise err("trailing input after type")
    return result


# Core witnesses. Their descriptors live in the prelude.
Int = declare("Int")
Float = declare("Float")
Char = declare("Char")
String = declare("String")
Bool = declare("Bool")
Unit = declare("Unit")
List = declare("List", 1)
Pair = declare("Pair", 2)
Fun = declare("Fun", 2)
Array = declare("Array", 1)
