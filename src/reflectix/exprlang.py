"""A small arithmetic language with binding, used by the demos.

Terms are constants, negation, addition, subtraction, variables, and
let bindings. The concrete syntax is s-expressions:

    (cst 1)  (neg e)  (add e e)  (sub e e)  (var x)  (let x e e)

The passes exercise the traversal machinery: rewriting simplifiers,
constant folding, a stateful constant-abstraction pass, and a scoped
free-variable query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import desc as d
from .effects import (
    ask,
    local,
    reader_monad,
    run_reader,
    run_state,
    sequenceM,
    state_monad,
    incr,
)
from .errors import DepthLimitExceeded, ParseError
from .typerep import Int, String, declare
from .uniplate import (
    DEFAULT_FUEL,
    family,
    map_family,
    para,
    reduce_family,
    traverse_family,
)

Expr = declare("Expr")


@dataclass(frozen=True)
class Cst:
    value: int


@dataclass(frozen=True)
class Neg:
    expr: Any


@dataclass(frozen=True)
class Add:
    left: Any
    right: Any


@dataclass(frozen=True)
class Sub:
    left: Any
    right: Any


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Let:
    name: str
    defn: Any
    body: Any


d.register(
    Expr,
    lambda: d.VariantDesc(
        "Expr",
        ("demo",),
        (
            d.class_constructor(Cst, (("value", Int),)),
            d.class_constructor(Neg, (("expr", Expr),)),
            d.class_constructor(Add, (("left", Expr), ("right", Expr))),
            d.class_constructor(Sub, (("left", Expr), ("right", Expr))),
            d.class_constructor(Var, (("name", String),)),
            d.class_constructor(
                Let, (("name", String), ("defn", Expr), ("body", Expr))
            ),
        ),
        d.classify_by_class(
            "Expr",
            {
                Cst: ("ncst", 0),
                Neg: ("ncst", 1),
                Add: ("ncst", 2),
                Sub: ("ncst", 3),
                Var: ("ncst", 4),
                Let: ("ncst", 5),
            },
        ),
    ),
)

# ---------------------------------------------------------------------------
# Concrete syntax


def print_expr(e: Any) -> str:
    """Render a term as an s-expression; parse_expr inverts this.
    Raises DepthLimitExceeded when e nests too deeply to recurse over."""
    try:
        return _print_term(e)
    except RecursionError:
        raise DepthLimitExceeded("term nests too deeply to print") from None


def _print_term(e: Any) -> str:
    if isinstance(e, Cst):
        return f"(cst {e.value})"
    if isinstance(e, Neg):
        return f"(neg {_print_term(e.expr)})"
    if isinstance(e, Add):
        return f"(add {_print_term(e.left)} {_print_term(e.right)})"
    if isinstance(e, Sub):
        return f"(sub {_print_term(e.left)} {_print_term(e.right)})"
    if isinstance(e, Var):
        return f"(var {e.name})"
    if isinstance(e, Let):
        return f"(let {e.name} {_print_term(e.defn)} {_print_term(e.body)})"
    raise ParseError(0, 0, f"not an expression: {d.brief_value(e)}")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, reason: str) -> ParseError:
        return ParseError.at(self.text, self.pos, reason)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a word")
        return self.text[start : self.pos]


def parse_expr(text: str) -> Any:
    """Parse an s-expression term; errors carry line and column.
    Raises DepthLimitExceeded when the term nests too deeply to parse."""
    lx = _Lexer(text)
    try:
        e = _parse_term(lx)
    except RecursionError:
        raise DepthLimitExceeded("term nests too deeply to parse") from None
    lx.skip_ws()
    if lx.pos != len(lx.text):
        raise lx.error("trailing input after expression")
    return e


def _parse_int(lx: _Lexer) -> int:
    lx.skip_ws()
    start = lx.pos
    if lx.peek() == "-":
        lx.pos += 1
    if not lx.peek().isdigit():
        raise lx.error("expected an integer")
    while lx.peek().isdigit():
        lx.pos += 1
    return int(lx.text[start : lx.pos])


def _parse_ident(lx: _Lexer) -> str:
    lx.skip_ws()
    if not lx.peek().isalpha():
        raise lx.error("expected an identifier")
    start = lx.pos
    lx.pos += 1
    while lx.peek().isalnum() or lx.peek() == "_":
        lx.pos += 1
    return lx.text[start : lx.pos]


def _parse_term(lx: _Lexer) -> Any:
    lx.skip_ws()
    lx.expect("(")
    lx.skip_ws()
    head = lx.word()
    if head == "cst":
        value = _parse_int(lx)
        out: Any = Cst(value)
    elif head == "neg":
        out = Neg(_parse_term(lx))
    elif head == "add":
        out = Add(_parse_term(lx), _parse_term(lx))
    elif head == "sub":
        out = Sub(_parse_term(lx), _parse_term(lx))
    elif head == "var":
        out = Var(_parse_ident(lx))
    elif head == "let":
        name = _parse_ident(lx)
        out = Let(name, _parse_term(lx), _parse_term(lx))
    else:
        raise lx.error(f"unknown form {head!r}")
    lx.skip_ws()
    lx.expect(")")
    return out


# ---------------------------------------------------------------------------
# Passes


def simplify(e: Any) -> Any:
    """Cancel double negations everywhere, bottom up."""

    def f(x: Any) -> Any:
        if isinstance(x, Neg) and isinstance(x.expr, Neg):
            return x.expr.expr
        return x

    return map_family(Expr, f, e)


def const_fold(e: Any) -> Any:
    """Evaluate operations whose operands are constants."""

    def f(x: Any) -> Any:
        if isinstance(x, Add) and isinstance(x.left, Cst) and isinstance(x.right, Cst):
            return Cst(x.left.value + x.right.value)
        if isinstance(x, Sub) and isinstance(x.left, Cst) and isinstance(x.right, Cst):
            return Cst(x.left.value - x.right.value)
        if isinstance(x, Neg) and isinstance(x.expr, Cst):
            return Cst(-x.expr.value)
        return x

    return map_family(Expr, f, e)


def simplify_more(e: Any, fuel: int = DEFAULT_FUEL) -> Any:
    """Rewrite to a normal form with no Sub and no double Neg.

    Subtractions become additions of negations, and double negations
    cancel; rewriting repeats until no rule applies anywhere.
    """

    def rule(x: Any) -> Optional[Any]:
        if isinstance(x, Sub):
            return Add(x.left, Neg(x.right))
        if isinstance(x, Neg) and isinstance(x.expr, Neg):
            return x.expr.expr
        return None

    return reduce_family(Expr, rule, e, fuel=fuel)


def abstract_constants(e: Any) -> tuple[Any, int]:
    """Replace each constant with a fresh variable x0, x1, ...

    Numbering follows a left-to-right bottom-up traversal under the
    state monad; returns the rewritten term and the final counter.
    Raises DepthLimitExceeded when e nests too deeply to recurse over.
    """
    m = state_monad()

    def f(x: Any) -> Any:
        if isinstance(x, Cst):
            return m.bind(incr(), lambda i: m.pure(Var(f"x{i}")))
        return m.pure(x)

    return run_state(traverse_family(m, Expr, f, e), 0)


def free_vars(e: Any) -> list[str]:
    """Variables not bound by an enclosing let.

    A let extends the scope around the combined results of all its
    children, the definition included, so a variable matching the
    binder never escapes even from the definition position.
    Raises DepthLimitExceeded when e nests too deeply to recurse over.
    """
    m = reader_monad()

    def step(x: Any, rs: list) -> Any:
        combined = m.bind(
            sequenceM(m, rs),
            lambda ls: m.pure([n for sub in ls for n in sub]),
        )
        if isinstance(x, Var):
            return m.bind(
                ask(),
                lambda scope: m.pure([] if x.name in scope else [x.name]),
            )
        if isinstance(x, Let):
            return local(lambda scope: scope + [x.name], combined)
        return combined

    return run_reader(para(Expr, step, e), [])


def constants(e: Any) -> list[int]:
    """Every constant in the term, in preorder."""
    return [x.value for x in family(Expr, e) if isinstance(x, Cst)]


def height(e: Any) -> int:
    """Longest chain of nested subterms."""
    return para(Expr, lambda x, rs: 1 + max(rs, default=0), e)
