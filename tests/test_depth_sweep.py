"""Every public value walk, on input 3000 levels deep, returns or raises
a ReflectixError; none lets a bare RecursionError escape. The type
walks run on types 3000 and 10^4 levels deep, and give their answer."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from reflectix import cli
from reflectix import effects as fx
from reflectix import exprlang as ex
from reflectix import generics as g
from reflectix import multiplate as mp
from reflectix import safeser as ss
from reflectix import uniplate as up
from reflectix.errors import ReflectixError
from reflectix.exprlang import Cst, Expr, Neg
from reflectix.typerep import (
    ANY,
    Int,
    Pair,
    Specificity,
    String,
    anti_unify,
    compare_specificity,
    matches,
    parse_type,
    pattern_key,
    render,
)

DEPTH = 3000

NEG = Cst(1)
for _ in range(DEPTH):
    NEG = Neg(NEG)
# The same chain as a graph: DEPTH Neg blocks, then Cst's block and its Int.
GRAPH = ss.ValueGraph(
    [ss.Block(1, (i + 1,)) for i in range(DEPTH)]
    + [ss.Block(0, (DEPTH + 1,)), ss.Imm(1)],
    0,
)
BLOB = ss.encode_graph(GRAPH)
TEXT = "(neg " * DEPTH + "(cst 1)" + ")" * DEPTH

ID = fx.identity_monad()
ONE = mp.ConstPlate(lambda t, x: 1)


def _demo_expr() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "term.txt"
        path.write_text(TEXT)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["demo-expr", "--pass", "height", str(path)])
    assert (code, err.getvalue()) == (1, "error: input nests too deeply to process\n")


WALKS = {
    "show": lambda: g.show(Expr, NEG),
    "equal": lambda: g.equal(Expr, NEG, NEG),
    "map_family": lambda: up.map_family(Expr, lambda x: x, NEG),
    "para": lambda: up.para(Expr, lambda x, rs: 1 + max(rs, default=0), NEG),
    "traverse_family": lambda: up.traverse_family(ID, Expr, ID.pure, NEG),
    "reduce_family": lambda: up.reduce_family(Expr, lambda x: None, NEG),
    "mreduce_family": lambda: up.mreduce_family(ID, Expr, lambda x: ID.pure(None), NEG),
    "family": lambda: up.family(Expr, NEG),
    "children_sumprod": lambda: g.children_sumprod(Expr, NEG),
    "children_spine": lambda: g.children_spine(Expr, NEG),
    "children_conlist": lambda: g.children_conlist(Expr, NEG),
    "family_dyn": lambda: mp.family_dyn(Expr, NEG),
    "map_family_p": lambda: mp.map_family_p(mp.IdPlate(lambda t, x: x)).run(Expr, NEG),
    "traverse_family_p": lambda: mp.traverse_family_p(
        ID, mp.Plate(lambda t, x: ID.pure(x))
    ).run(Expr, NEG),
    "para_p": lambda: mp.para_p(mp.ConstPlate(lambda t, x: len)).run(Expr, NEG),
    "pre_fold_p": lambda: mp.pre_fold_p(fx.sum_monoid, ONE).run(Expr, NEG),
    "post_fold_p": lambda: mp.post_fold_p(fx.sum_monoid, ONE).run(Expr, NEG),
    "tie": lambda: mp.tie(mp.default_openrec(fx.identity_applicative())).run(Expr, NEG),
    "serialize": lambda: ss.serialize(Expr, NEG),
    "deserialize": lambda: ss.deserialize(Expr, BLOB),
    "check_compat": lambda: ss.check_compat(Expr, GRAPH),
    "materialize": lambda: ss.materialize(Expr, GRAPH),
    "abstract_constants": lambda: ex.abstract_constants(NEG),
    "free_vars": lambda: ex.free_vars(NEG),
    "print_expr": lambda: ex.print_expr(NEG),
    "parse_expr": lambda: ex.parse_expr(TEXT),
    "parse_type": lambda: parse_type("List(" * DEPTH + "Int" + ")" * DEPTH),
    "demo-expr": _demo_expr,
}


@pytest.mark.parametrize("walk", list(WALKS.values()), ids=list(WALKS))
def test_deep_input_gives_a_result_or_a_library_error(walk):
    try:
        walk()
    except ReflectixError:
        pass


def _nested(depth: int, leaf):
    """Pair(Pair(...Pair(leaf, leaf)..., leaf), leaf), depth Pairs deep."""
    t = leaf
    for _ in range(depth):
        t = Pair(t, leaf)
    return t


TYPE_WALKS = {
    "render": (
        lambda d: render(_nested(d, Int)),
        lambda d: "Pair(" * d + "Int" + ", Int)" * d,
    ),
    "matches": (lambda d: matches(_nested(d, ANY), _nested(d, Int)), lambda d: True),
    "compare_specificity": (
        lambda d: compare_specificity(_nested(d, Int), _nested(d, ANY)),
        lambda d: Specificity.MORE_SPECIFIC,
    ),
    "pattern_key": (lambda d: len(pattern_key(_nested(d, Int))), lambda d: 2 * d + 1),
    "anti_unify": (
        lambda d: anti_unify(_nested(d, Int), _nested(d, String)),
        lambda d: _nested(d, ANY),
    ),
}


@pytest.mark.parametrize("depth", [DEPTH, 10**4])
@pytest.mark.parametrize("walk", list(TYPE_WALKS.values()), ids=list(TYPE_WALKS))
def test_deep_type_walks_answer(walk, depth):
    run, want = walk
    assert run(depth) == want(depth)
