"""Command line front end.

Subcommands inspect and validate serialized graph files, round-trip
demo values through the serializer, and run the expression-language
passes over text files. Exit codes are a stable contract:

  0  success
  1  I/O or other operational failure, or input nested too deeply
     for the interpreter's recursion limit
  2  malformed wire bytes (offset reported)
  3  incompatible graph or round-trip mismatch
  4  unknown type name
  5  text input failed to parse
  6  representation rejected by an abstract type
  7  unknown extensible constructor
  8  type has no descriptor
  9  graph would build more values than its materialization budget
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any, Callable, Optional

from . import exprlang, safeser
from .errors import (
    BudgetExceeded,
    CyclicValue,
    DepthLimitExceeded,
    Incompatible,
    MalformedBytes,
    NoDescriptor,
    ParseError,
    ReflectixError,
    RepresentationRejected,
    UnknownConstructor,
    UnknownType,
)
from .generics import equal
from .prelude import Nat
from .typerep import Int, TypeRep, brief, parse_type
from .uniplate import DEFAULT_FUEL

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MALFORMED = 2
EXIT_INCOMPATIBLE = 3
EXIT_UNKNOWN_TYPE = 4
EXIT_PARSE = 5
EXIT_REJECTED = 6
EXIT_UNKNOWN_CON = 7
EXIT_NO_DESCRIPTOR = 8
EXIT_BUDGET = 9


def exit_code_for(e: BaseException) -> int:
    if isinstance(e, MalformedBytes):
        return EXIT_MALFORMED
    if isinstance(e, Incompatible):
        return EXIT_INCOMPATIBLE
    if isinstance(e, UnknownType):
        return EXIT_UNKNOWN_TYPE
    if isinstance(e, ParseError):
        return EXIT_PARSE
    if isinstance(e, RepresentationRejected):
        return EXIT_REJECTED
    if isinstance(e, UnknownConstructor):
        return EXIT_UNKNOWN_CON
    if isinstance(e, NoDescriptor):
        return EXIT_NO_DESCRIPTOR
    if isinstance(e, BudgetExceeded):
        return EXIT_BUDGET
    return EXIT_FAILURE


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # malformed input bytes; route usage problems to the generic code.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"error: {message}\n")


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ReflectixError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None


def _node_line(i: int, node: Any) -> str:
    if isinstance(node, safeser.Imm):
        return f"{i}: Imm {node.value}"
    if isinstance(node, safeser.Block):
        refs = ", ".join(str(r) for r in node.fields)
        return f"{i}: Block tag={node.tag} fields=[{refs}]"
    if isinstance(node, safeser.Bytes):
        return f"{i}: Bytes {node.data.hex()}"
    if isinstance(node, safeser.Float):
        return f"{i}: Float {node.value!r}"
    refs = ", ".join(str(r) for r in node.fields)
    return f"{i}: ExtCon {node.name} fields=[{refs}]"


def cmd_inspect(args: argparse.Namespace) -> int:
    g = safeser.decode_graph(_read_bytes(args.file))
    for i, node in enumerate(g.nodes):
        print(_node_line(i, node))
    print(f"root: {g.root}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    # The verdict is deserialize's, so "compatible" means the blob reads
    # back as a value of the type.
    t = parse_type(args.type_text)
    data = _read_bytes(args.file)
    try:
        safeser.deserialize(t, data)
    except (Incompatible, CyclicValue) as e:
        print(f"incompatible: {e}")
        return EXIT_INCOMPATIBLE
    print("compatible")
    return EXIT_OK


def _fuel() -> int:
    raw = os.environ.get("REFLECTIX_FUEL")
    if raw is None:
        return DEFAULT_FUEL
    try:
        return int(raw)
    except ValueError:
        raise ReflectixError(f"REFLECTIX_FUEL is not an integer: {raw!r}") from None


# Each pass maps a parsed term to the lines it prints. The lambdas look
# exprlang's functions up on every call, so rebinding one is seen here.
PASSES: dict[str, Callable[[Any], list]] = {
    "simplify": lambda e: [exprlang.print_expr(exprlang.simplify(e))],
    "const-fold": lambda e: [exprlang.print_expr(exprlang.const_fold(e))],
    "simplify-more": lambda e: [
        exprlang.print_expr(exprlang.simplify_more(e, fuel=_fuel()))
    ],
    "abstract": lambda e: [exprlang.print_expr(exprlang.abstract_constants(e)[0])],
    "free-vars": lambda e: exprlang.free_vars(e),
    "constants": lambda e: exprlang.constants(e),
    "height": lambda e: [exprlang.height(e)],
}


def cmd_demo_expr(args: argparse.Namespace) -> int:
    e = exprlang.parse_expr(_read_text(args.file))
    for line in PASSES[args.pass_name](e):
        print(line)
    return EXIT_OK


def _read_value(t: TypeRep, text: str) -> Any:
    """Parse a demo value of type t; Expr, Int, and Nat have readers."""
    if t == exprlang.Expr:
        return exprlang.parse_expr(text)
    if t == Int or t == Nat:
        s = text.strip()
        try:
            return int(s, 10)
        except ValueError:
            raise ParseError(1, 1, f"not an integer literal: {s!r}") from None
    raise ReflectixError(f"no value reader for {brief(t)}")


def _corrupt(data: bytes) -> bytes:
    """Perturb one payload in a well-formed blob, keeping it decodable."""
    g = safeser.decode_graph(data)
    for i, node in enumerate(g.nodes):
        if isinstance(node, safeser.Imm):
            g.nodes[i] = safeser.Imm(node.value + 1)
            return safeser.encode_graph(g)
    for i, node in enumerate(g.nodes):
        if isinstance(node, safeser.Bytes) and node.data:
            flipped = bytes([node.data[0] ^ 0x01]) + node.data[1:]
            g.nodes[i] = safeser.Bytes(flipped)
            return safeser.encode_graph(g)
    raise ReflectixError("no corruptible payload in blob")


def cmd_roundtrip(args: argparse.Namespace) -> int:
    t = parse_type(args.type_text)
    if not isinstance(t, TypeRep):
        raise UnknownType(f"not a ground type: {args.type_text}")
    v = _read_value(t, _read_text(args.file))
    data = safeser.serialize(t, v)
    if args.corrupt:
        data = _corrupt(data)
    back = safeser.deserialize(t, data)
    if equal(t, v, back):
        print("roundtrip ok")
        return EXIT_OK
    print("roundtrip mismatch")
    return EXIT_INCOMPATIBLE


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and kept for the process:
    building it costs more than most commands do."""
    parser = _Parser(
        prog="reflectix",
        description="Inspect, validate, and round-trip serialized value "
        "graphs, and run the demo expression passes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="list the nodes of a graph file")
    p.add_argument("file")
    p.set_defaults(run=cmd_inspect)

    p = sub.add_parser("validate", help="check a graph file against a type")
    p.add_argument("--type", required=True, dest="type_text", metavar="TYPE")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("demo-expr", help="run an expression pass over a file")
    p.add_argument(
        "--pass",
        required=True,
        dest="pass_name",
        choices=PASSES,
    )
    p.add_argument("file")
    p.set_defaults(run=cmd_demo_expr)

    p = sub.add_parser(
        "roundtrip", help="serialize a text value and read it back"
    )
    p.add_argument("--type", required=True, dest="type_text", metavar="TYPE")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb the encoded bytes to force a mismatch",
    )
    p.add_argument("file")
    p.set_defaults(run=cmd_roundtrip)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE
    except (RecursionError, DepthLimitExceeded):
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_FAILURE
    except ReflectixError as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
