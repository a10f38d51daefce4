"""Same-typed traversals: scrap, family, rewriting, effectful variants."""

import dataclasses
import itertools
import random

import pytest

from reflectix import effects as fx
from reflectix import multiplate as mp
from reflectix import prelude as pl
from reflectix import uniplate as up
from reflectix.errors import ArityMismatch, DepthLimitExceeded, FuelExhausted
from reflectix.exprlang import (
    Add,
    Cst,
    Expr,
    Let,
    Neg,
    Sub,
    Var,
    abstract_constants,
    free_vars,
    parse_expr,
    print_expr,
)
from reflectix.typerep import Int, List, render

from conftest import TYPED_GENERATORS, gen_btree, gen_expr, gen_rtree


def test_children_of_list():
    assert up.children(List(Int), [1, 2, 3]) == [[2, 3]]
    assert up.children(List(Int), []) == []


def test_children_of_leaf_type():
    assert up.children(Int, 5) == []


def test_replace_children_identity_on_samples():
    rng = random.Random(11)
    for t, gen in TYPED_GENERATORS:
        for _ in range(40):
            x = gen(rng, 4)
            assert up.replace_children(t, x, up.children(t, x)) == x, render(t)


def test_replace_children_swaps():
    v = pl.node(pl.leaf(1), 2, pl.leaf(3))
    out = up.replace_children(pl.Btree(Int), v, [pl.leaf(3), pl.leaf(1)])
    assert out == pl.node(pl.leaf(3), 2, pl.leaf(1))


def test_replace_children_arity_checked():
    with pytest.raises(ArityMismatch):
        up.replace_children(List(Int), [1, 2], [[], []])
    with pytest.raises(ArityMismatch):
        up.replace_children(Int, 5, [7])


def test_family_is_preorder():
    e = Add(Cst(1), Neg(Var("x")))
    assert up.family(Expr, e) == [e, Cst(1), Neg(Var("x")), Var("x")]
    assert up.family(List(Int), [1, 2]) == [[1, 2], [2], []]


def test_family_length_recurrence_on_samples():
    rng = random.Random(12)
    for t, gen in TYPED_GENERATORS:
        for _ in range(30):
            x = gen(rng, 4)
            n = len(up.family(t, x))
            assert n == 1 + sum(
                len(up.family(t, c)) for c in up.children(t, x)
            ), render(t)


def test_map_family_identity_on_samples():
    rng = random.Random(13)
    for t, gen in TYPED_GENERATORS:
        for _ in range(30):
            x = gen(rng, 4)
            assert up.map_family(t, lambda v: v, x) == x, render(t)


def test_map_family_unfolds_bottom_up():
    def f(l):
        if not l:
            return [99]
        return [l[0] + 1] + l[1:]

    x, y, z = 1, 2, 3
    expect = f([x] + f([y] + f([z] + f([]))))
    assert up.map_family(List(Int), f, [x, y, z]) == expect
    assert expect == [2, 3, 4, 99]


def test_map_children_touches_only_immediate():
    v = pl.node(pl.node(pl.EMPTY, 1, pl.EMPTY), 2, pl.EMPTY)
    out = up.map_children(
        pl.Btree(Int), lambda c: pl.EMPTY, v
    )
    assert out == pl.node(pl.EMPTY, 2, pl.EMPTY)


def test_para_computes_list_length():
    n = up.para(
        List(Int), lambda x, rs: (1 + rs[0]) if rs else 0, [7, 8, 9]
    )
    assert n == 3


def test_para_computes_height():
    height = lambda x, rs: 1 + max(rs, default=0)
    assert up.para(Expr, height, Cst(1)) == 1
    assert up.para(Expr, height, Add(Cst(1), Neg(Cst(2)))) == 3


def test_reduce_family_reaches_normal_form():
    def rule(x):
        if isinstance(x, Sub):
            return Add(x.left, Neg(x.right))
        if isinstance(x, Neg) and isinstance(x.expr, Neg):
            return x.expr.expr
        return None

    out = up.reduce_family(Expr, rule, Sub(Cst(1), Sub(Cst(2), Cst(3))))
    assert all(rule(sub) is None for sub in up.family(Expr, out))
    assert out == Add(Cst(1), Neg(Add(Cst(2), Neg(Cst(3)))))


def test_reduce_family_fuel_counts_firings():
    # fires value times: Cst(3) -> Cst(2) -> Cst(1) -> Cst(0)
    def rule(x):
        if isinstance(x, Cst) and x.value > 0:
            return Cst(x.value - 1)
        return None

    assert up.reduce_family(Expr, rule, Cst(3), fuel=3) == Cst(0)
    with pytest.raises(FuelExhausted):
        up.reduce_family(Expr, rule, Cst(3), fuel=2)


def test_reduce_family_diverging_rule_exhausts():
    def rule(x):
        if isinstance(x, Cst):
            return Cst(x.value + 1)
        return None

    with pytest.raises(FuelExhausted):
        up.reduce_family(Expr, rule, Cst(0), fuel=50)


def test_traverse_children_orders_left_to_right():
    m = fx.state_monad()
    a = fx.app_of_mon(m)
    v = pl.node(pl.leaf(10), 0, pl.leaf(20))

    def tag(c):
        return m.bind(fx.incr(), lambda i: m.pure((i, c)))

    out, final = fx.run_state(
        up.traverse_children(a, pl.Btree(Int), tag, v), 0
    )
    assert final == 2
    assert out == pl.node((0, pl.leaf(10)), 0, (1, pl.leaf(20)))


def test_traverse_family_is_bottom_up():
    m = fx.state_monad()

    def log_len(l):
        return m.bind(
            fx.get_state(),
            lambda s: m.bind(fx.put_state(s + [len(l)]), lambda _: m.pure(l)),
        )

    out, seen = fx.run_state(
        up.traverse_family(m, List(Int), log_len, [1, 2, 3]), []
    )
    assert out == [1, 2, 3]
    assert seen == [0, 1, 2, 3]


def test_traverse_family_under_identity_is_map_family():
    m = fx.identity_monad()
    rng = random.Random(14)
    for t, gen in TYPED_GENERATORS:
        for _ in range(10):
            x = gen(rng, 3)
            got = fx.run_identity(
                up.traverse_family(m, t, lambda v: m.pure(v), x)
            )
            assert got == x, render(t)


@pytest.mark.parametrize("t, gen", [(pl.Btree(Int), gen_btree), (Expr, gen_expr)])
def test_traverse_family_binds_once_per_child(t, gen):
    inner = fx.state_monad()
    binds = []

    def counting(v, k):
        binds.append(v)
        return inner.bind(v, k)

    m = dataclasses.replace(inner, bind=counting)
    rng = random.Random(24)
    for _ in range(10):
        x = gen(rng, 5)
        binds.clear()
        out = up.traverse_family(m, t, m.pure, x)
        assert fx.run_state(out, 0)[0] == x
        assert len(binds) == len(up.family(t, x)) - 1
        binds.clear()
        out = mp.traverse_family_p(m, mp.pure_plate(m)).run(t, x)
        assert fx.run_state(out, 0)[0] == x
        assert len(binds) == len(mp.family_dyn(t, x)) - 1


def _postorder(t, x):
    return [y for c in up.children(t, x) for y in _postorder(t, c)] + [x]


def _numbering(kind):
    """A monad, an f that numbers each node it sees x0, x1, ... through
    that monad's effect and logs the name with the node, the runner,
    and the log."""
    log = []
    if kind == "state":
        m = fx.state_monad()

        def f(v):
            return m.bind(fx.incr(), lambda i: m.pure(log.append((f"x{i}", v)) or v))

        return m, f, lambda c: fx.run_state(c, 0)[0], log
    counter = itertools.count()

    def note(v):
        log.append((f"x{next(counter)}", v))

    if kind == "identity":
        m = fx.identity_monad()
        return m, lambda v: m.pure(note(v) or v), fx.run_identity, log
    m = fx.io_monad()

    def f(v):
        return m.bind(fx.embed_io(lambda: note(v)), lambda _: m.pure(v))

    return m, f, fx.run_io, log


@pytest.mark.parametrize("kind", ["identity", "state", "io"])
@pytest.mark.parametrize(
    "t, gen", [(pl.Btree(Int), gen_btree), (pl.Rtree(Int), gen_rtree), (Expr, gen_expr)]
)
def test_traverse_family_numbers_nodes_bottom_up_left_to_right(kind, t, gen):
    rng = random.Random(25)
    for _ in range(10):
        x = gen(rng, 4)
        m, f, run, log = _numbering(kind)
        c = up.traverse_family(m, t, f, x)
        if kind != "identity":
            assert log == []  # no effect runs before the run
        assert run(c) == x
        assert log == [(f"x{i}", v) for i, v in enumerate(_postorder(t, x))]


def test_mreduce_family_matches_reduce_family():
    m = fx.identity_monad()

    def rule(x):
        if isinstance(x, Sub):
            return Add(x.left, Neg(x.right))
        if isinstance(x, Neg) and isinstance(x.expr, Neg):
            return x.expr.expr
        return None

    e = Sub(Neg(Neg(Cst(1))), Cst(2))
    got = fx.run_identity(
        up.mreduce_family(m, Expr, lambda x: m.pure(rule(x)), e)
    )
    assert got == up.reduce_family(Expr, rule, e)


def test_mreduce_family_fuel():
    m = fx.identity_monad()

    def rule(x):
        return m.pure(Cst(x.value + 1) if isinstance(x, Cst) else None)

    with pytest.raises(FuelExhausted):
        up.mreduce_family(m, Expr, rule, Cst(0), fuel=10)


def test_mreduce_family_counts_with_state():
    m = fx.state_monad()

    def rule(x):
        if isinstance(x, Neg) and isinstance(x.expr, Neg):
            return m.bind(fx.incr(), lambda _: m.pure(x.expr.expr))
        return m.pure(None)

    e = Neg(Neg(Neg(Neg(Cst(5)))))
    out, fired = fx.run_state(up.mreduce_family(m, Expr, rule, e), 0)
    assert out == Cst(5)
    assert fired == 2


def test_scrap_leaf_rebuild():
    s = up.scrap(Int, 42)
    assert s.children == []
    assert s.rebuild([]) == 42
    with pytest.raises(ArityMismatch):
        s.rebuild([1])


def test_deep_folds_and_maps_raise_a_library_error():
    e = Cst(1)
    for _ in range(3000):
        e = Neg(e)
    with pytest.raises(DepthLimitExceeded):
        up.para(Expr, lambda x, rs: 1 + max(rs, default=0), e)
    with pytest.raises(DepthLimitExceeded):
        up.map_family(Expr, lambda x: x, e)
    with pytest.raises(DepthLimitExceeded):
        up.reduce_family(Expr, lambda x: None, e)
    m = fx.identity_monad()
    with pytest.raises(DepthLimitExceeded):
        up.traverse_family(m, Expr, m.pure, e)
    with pytest.raises(DepthLimitExceeded):
        up.mreduce_family(m, Expr, lambda x: m.pure(None), e)
    with pytest.raises(DepthLimitExceeded):
        abstract_constants(e)
    with pytest.raises(DepthLimitExceeded):
        free_vars(e)
    with pytest.raises(DepthLimitExceeded):
        print_expr(e)
    with pytest.raises(DepthLimitExceeded):
        parse_expr("(neg " * 3000 + "(cst 1)" + ")" * 3000)


def test_effectful_passes_reach_as_deep_as_their_traversals():
    # Running the built state or reader computation nests no frames, so
    # both passes go as deep as traverse_family and para.
    neg = Cst(7)
    for _ in range(300):
        neg = Neg(neg)
    out, n = abstract_constants(neg)
    assert n == 1
    assert print_expr(out) == "(neg " * 300 + "(var x0)" + ")" * 300
    assert free_vars(neg) == []
    assert free_vars(out) == ["x0"]
    let = Add(Var("y"), Var("v0"))
    for i in range(300):
        let = Let(f"v{i}", Cst(i), let)
    out, n = abstract_constants(let)
    assert n == 300
    assert (out.name, out.defn) == ("v299", Var("x0"))
    assert free_vars(let) == ["y"]
    assert free_vars(out) == [f"x{i}" for i in range(300)] + ["y"]
