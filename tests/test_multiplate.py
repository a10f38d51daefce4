"""Heterogeneous traversals: plates, folds, dynamics, open recursion."""

import pytest

from reflectix import effects as fx
from reflectix import multiplate as mp
from reflectix import prelude as pl
from reflectix.errors import ArityMismatch, DepthLimitExceeded
from reflectix.exprlang import Add, Cst, Expr, Let, Neg, Var
from reflectix.typerep import Dyn, Int, List, Pair, String


def test_scrap_m_exposes_all_arguments():
    e = Let("x", Cst(1), Var("y"))
    s = mp.scrap_m(Expr, e)
    assert s.reps == (String, Expr, Expr)
    assert s.values == ("x", Cst(1), Var("y"))
    assert s.rebuild(s.values) == e


def test_scrap_m_leaf():
    s = mp.scrap_m(Int, 5)
    assert s.reps == ()
    assert s.rebuild(()) == 5


def test_scrap_m_rebuild_checks_arity():
    cases = [
        (Expr, Let("x", Cst(1), Var("y")), ("x",)),
        (pl.Rtree(Int), pl.Rose(1, []), (1,)),
        (Pair(Int, Int), (1, 2), (1,)),
        (Int, 5, (1,)),
    ]
    for t, x, args in cases:
        with pytest.raises(ArityMismatch):
            mp.scrap_m(t, x).rebuild(args)


def test_pure_plate_is_identity():
    a = fx.identity_applicative()
    e = Add(Cst(1), Var("v"))
    assert fx.run_identity(mp.pure_plate(a).run(Expr, e)) == e


def test_plate_from_partial_handler():
    a = fx.identity_applicative()
    p = mp.plate(
        a, lambda t, x: a.pure(x + 1) if t == Int else None
    )
    assert fx.run_identity(p.run(Int, 41)) == 42
    assert fx.run_identity(p.run(String, "s")) == "s"


def test_traverse_children_p_is_one_layer():
    a = fx.identity_applicative()
    p = mp.plate(a, lambda t, x: a.pure(Cst(0)) if t == Expr else None)
    e = Let("x", Cst(1), Add(Var("y"), Cst(2)))
    out = fx.run_identity(mp.traverse_children_p(a, p).run(Expr, e))
    # both Expr arguments replaced, the binder untouched, nothing deeper
    assert out == Let("x", Cst(0), Cst(0))


def test_traverse_children_p_orders_effects_left_to_right():
    m = fx.state_monad()
    a = fx.app_of_mon(m)

    def tag(t, x):
        return m.bind(fx.incr(), lambda i: m.pure((x, i)))

    out, n = fx.run_state(
        mp.traverse_children_p(a, mp.Plate(tag)).run(
            Expr, Let("x", Cst(1), Var("y"))
        ),
        0,
    )
    assert n == 3
    assert out == Let(("x", 0), (Cst(1), 1), (Var("y"), 2))


def test_map_children_p():
    bump = mp.IdPlate(lambda t, x: x + 1 if t == Int else x)
    assert mp.map_children_p(bump).run(Expr, Cst(1)) == Cst(2)


def test_map_family_p_rewrites_every_type():
    p = mp.IdPlate(
        lambda t, x: x + 1
        if t == Int
        else (x.upper() if t == String else x)
    )
    e = Let("n", Cst(1), Add(Var("v"), Neg(Cst(2))))
    out = mp.map_family_p(p).run(Expr, e)
    assert out == Let("N", Cst(2), Add(Var("V"), Neg(Cst(3))))


def test_fold_children_p_combines_left_to_right():
    count_exprs = mp.ConstPlate(lambda t, x: [x] if t == Expr else [])
    got = mp.fold_children_p(fx.list_monoid, count_exprs).run(
        Expr, Let("x", Cst(1), Var("y"))
    )
    assert got == [Cst(1), Var("y")]


def test_traverse_family_p_visits_bottom_up():
    m = fx.state_monad()
    seen = []

    def log(t, x):
        return m.bind(
            fx.get_state(),
            lambda s: m.bind(fx.put_state(s + [x]), lambda _: m.pure(x)),
        )

    e = Add(Cst(7), Var("v"))
    out, order = fx.run_state(
        mp.traverse_family_p(m, mp.Plate(log)).run(Expr, e), []
    )
    assert out == e
    assert order == [7, Cst(7), "v", Var("v"), Add(Cst(7), Var("v"))]


def test_traverse_family_p_rebuilds_before_visiting_parent():
    m = fx.identity_monad()

    def bump(t, x):
        return m.pure(x + 1 if t == Int else x)

    out = fx.run_identity(
        mp.traverse_family_p(m, mp.Plate(bump)).run(Expr, Neg(Cst(1)))
    )
    assert out == Neg(Cst(2))


def test_pre_fold_p_node_before_descendants():
    label = mp.ConstPlate(lambda t, x: [x])
    e = Add(Cst(1), Var("x"))
    got = mp.pre_fold_p(fx.list_monoid, label).run(Expr, e)
    assert got == [e, Cst(1), 1, Var("x"), "x"]


def test_post_fold_p_node_after_descendants():
    label = mp.ConstPlate(lambda t, x: [x])
    e = Add(Cst(1), Var("x"))
    got = mp.post_fold_p(fx.list_monoid, label).run(Expr, e)
    assert got == [1, Cst(1), "x", Var("x"), e]


def test_pre_fold_counts_match_family_dyn():
    one = mp.ConstPlate(lambda t, x: 1)
    e = Let("x", Cst(1), Add(Var("x"), Cst(2)))
    assert mp.pre_fold_p(fx.sum_monoid, one).run(Expr, e) == len(
        mp.family_dyn(Expr, e)
    )


def test_para_p_sees_child_results():
    size = mp.ConstPlate(lambda t, x: lambda rs: 1 + sum(rs))
    e = Add(Cst(1), Var("x"))
    assert mp.para_p(size).run(Expr, e) == 5
    # depth, counting every typed node on the path
    depth = mp.ConstPlate(lambda t, x: lambda rs: 1 + max(rs, default=0))
    assert mp.para_p(depth).run(Expr, e) == 3


def test_children_dyn_types_every_argument():
    ds = mp.children_dyn(Expr, Let("x", Cst(1), Var("y")))
    assert ds == [
        Dyn(String, "x"),
        Dyn(Expr, Cst(1)),
        Dyn(Expr, Var("y")),
    ]
    assert mp.children_dyn(Int, 3) == []


def test_children_dyn_on_lists():
    assert mp.children_dyn(List(Int), [1, 2]) == [
        Dyn(Int, 1),
        Dyn(List(Int), [2]),
    ]


def test_family_dyn_is_preorder_across_types():
    e = Add(Cst(1), Var("x"))
    ds = mp.family_dyn(Expr, e)
    assert ds == [
        Dyn(Expr, e),
        Dyn(Expr, Cst(1)),
        Dyn(Int, 1),
        Dyn(Expr, Var("x")),
        Dyn(String, "x"),
    ]


def test_family_dyn_on_rose_trees_crosses_the_list_spine():
    r = pl.Rose(1, [pl.Rose(2, [])])
    reps = [d.rep for d in mp.family_dyn(pl.Rtree(Int), r)]
    assert reps == [
        pl.Rtree(Int),
        Int,
        List(pl.Rtree(Int)),
        pl.Rtree(Int),
        Int,
        List(pl.Rtree(Int)),
        List(pl.Rtree(Int)),
    ]


def test_default_openrec_ties_to_identity():
    a = fx.identity_applicative()
    p = mp.tie(mp.default_openrec(a))
    e = Let("x", Cst(1), Add(Var("x"), Neg(Cst(2))))
    assert fx.run_identity(p.run(Expr, e)) == e


def test_openrec_override_at_one_type():
    a = fx.identity_applicative()

    def run(r):
        descend = mp.traverse_children_p(a, mp.tie(r))

        def go(t, x):
            if t == String:
                return a.pure(x.upper())
            return descend.run(t, x)

        return mp.Plate(go)

    p = mp.tie(mp.OpenRec(run))
    e = Let("x", Cst(1), Var("y"))
    assert fx.run_identity(p.run(Expr, e)) == Let("X", Cst(1), Var("Y"))


def test_openrec_override_can_stop_descent():
    a = fx.identity_applicative()

    def run(r):
        descend = mp.traverse_children_p(a, mp.tie(r))

        def go(t, x):
            if t == Expr and isinstance(x, Let):
                return a.pure(x)
            if t == String:
                return a.pure(x.upper())
            return descend.run(t, x)

        return mp.Plate(go)

    p = mp.tie(mp.OpenRec(run))
    e = Add(Var("a"), Let("x", Var("b"), Var("c")))
    out = fx.run_identity(p.run(Expr, e))
    assert out == Add(Var("A"), Let("x", Var("b"), Var("c")))


def test_openrec_with_state_effect():
    m = fx.state_monad()
    a = fx.app_of_mon(m)

    def run(r):
        descend = mp.traverse_children_p(a, mp.tie(r))

        def go(t, x):
            if t == Int:
                return m.bind(fx.incr(), lambda i: m.pure(x + i))
            return descend.run(t, x)

        return mp.Plate(go)

    p = mp.tie(mp.OpenRec(run))
    out, n = fx.run_state(p.run(Expr, Add(Cst(10), Cst(20))), 0)
    assert out == Add(Cst(10), Cst(21))
    assert n == 2


_ID = fx.identity_monad()
_ONE = mp.ConstPlate(lambda t, x: 1)
DEEP_PLATES = {
    "map_family_p": mp.map_family_p(mp.IdPlate(lambda t, x: x)),
    "traverse_family_p": mp.traverse_family_p(_ID, mp.Plate(lambda t, x: _ID.pure(x))),
    "para_p": mp.para_p(mp.ConstPlate(lambda t, x: len)),
    "pre_fold_p": mp.pre_fold_p(fx.sum_monoid, _ONE),
    "post_fold_p": mp.post_fold_p(fx.sum_monoid, _ONE),
    "tie": mp.tie(mp.default_openrec(fx.identity_applicative())),
}


@pytest.mark.parametrize("plate", list(DEEP_PLATES.values()), ids=list(DEEP_PLATES))
def test_plates_refuse_deep_values_with_a_library_error(plate):
    e = Cst(1)
    for _ in range(3000):
        e = Neg(e)
    with pytest.raises(DepthLimitExceeded):
        plate.run(Expr, e)
