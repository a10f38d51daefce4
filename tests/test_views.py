"""Generic views: sum-of-products structure, spines, constructor lists."""

import dataclasses
import itertools
import random

import pytest

from reflectix import desc as d
from reflectix import effects as fx
from reflectix import generics as g
from reflectix import multiplate as mp
from reflectix import safeser as ss
from reflectix import uniplate as up
from reflectix import views as v
from reflectix import prelude as pl
from reflectix.errors import (
    ArityMismatch,
    MalformedValue,
    NoMatchingConstructor,
    NoRepresentation,
    NoView,
    ReflectixError,
)
from reflectix.exprlang import Add, Cst, Expr, Neg, Var
from reflectix.typerep import (
    Bool,
    EqualityWitness,
    Int,
    List,
    Pair,
    String,
    declare,
    render,
)

from conftest import TYPED_GENERATORS


def test_btree_sumprod_structure():
    sp = v.sumprod(pl.Btree(Int))
    assert isinstance(sp, v.IsoSP)
    s = sp.inner
    assert isinstance(s, v.Sum)
    assert s.left == v.Con("Empty", v.UNIT)
    assert s.right == v.Con(
        "Node",
        v.Prod(
            v.Delay(pl.Btree(Int)),
            v.Prod(v.Delay(Int), v.Prod(v.Delay(pl.Btree(Int)), v.UNIT)),
        ),
    )


def test_list_sumprod_structure():
    sp = v.sumprod(List(Int))
    s = sp.inner
    assert s.left == v.Con("[]", v.UNIT)
    assert s.right == v.Con(
        "::", v.Prod(v.Delay(Int), v.Prod(v.Delay(List(Int)), v.UNIT))
    )


def test_scalars_and_arrays_are_base():
    assert v.sumprod(Int) == v.Base(Int)
    assert v.sumprod(String) == v.Base(String)
    assert v.sumprod(pl.Exn) == v.Base(pl.Exn)


def test_record_sumprod_tags_fields():
    sp = v.sumprod(pl.Rtree(Int))
    assert sp.inner == v.Prod(
        v.FieldTag("attr", v.Delay(Int)),
        v.Prod(
            v.FieldTag("children", v.Delay(List(pl.Rtree(Int)))), v.UNIT
        ),
    )


def test_product_sumprod_is_delay_chain():
    sp = v.sumprod(Pair(Int, String))
    assert sp.inner == v.Prod(
        v.Delay(Int), v.Prod(v.Delay(String), v.UNIT)
    )


def test_synonym_delays_to_target():
    assert v.sumprod(pl.NatInternal) == v.Delay(Int)


def test_abstract_views_through_representation():
    sp = v.sumprod(pl.Nat)
    assert isinstance(sp, v.IsoSP)
    assert sp.inner == v.Delay(Int)
    assert sp.bck(7) == 7
    assert sp.fwd(7) == 7
    with pytest.raises(NoRepresentation):
        sp.fwd(-1)


def test_variant_iso_round_trip():
    sp = v.sumprod(pl.Btree(Int))
    t = pl.node(pl.EMPTY, 3, pl.leaf(4))
    assert sp.fwd(sp.bck(t)) == t
    assert sp.bck(pl.EMPTY) == v.Left(())
    inner = sp.bck(t)
    assert isinstance(inner, v.Right)


def test_variant_iso_round_trip_randomized():
    rng = random.Random(1)
    for t, gen in TYPED_GENERATORS:
        sp = v.sumprod(t)
        if not isinstance(sp, v.IsoSP):
            continue
        for _ in range(50):
            x = gen(rng, 3)
            assert sp.fwd(sp.bck(x)) == x, render(t)


def test_bool_sum_values():
    sp = v.sumprod(Bool)
    assert sp.bck(False) == v.Left(())
    assert sp.bck(True) == v.Right(())
    assert sp.fwd(v.Left(())) is False
    assert sp.fwd(v.Right(())) is True


def test_malformed_sum_value_rejected():
    sp = v.sumprod(pl.Btree(Int))
    with pytest.raises(NoMatchingConstructor):
        sp.fwd("neither left nor right")


def test_spine_of_btree_node():
    value = pl.node(pl.EMPTY, 1, pl.EMPTY)
    s = v.spine(pl.Btree(Int), value)
    # rightmost argument outermost, leftmost innermost
    assert isinstance(s, v.App)
    assert s.arg_rep == pl.Btree(Int) and s.arg is pl.EMPTY
    assert s.fun.arg_rep == Int and s.fun.arg == 1
    assert s.fun.fun.arg_rep == pl.Btree(Int) and s.fun.fun.arg is pl.EMPTY
    node = s.fun.fun.fun
    assert isinstance(node, v.ConNode)
    assert node.meta.name == "Node"
    assert node.meta.variant == "Btree"
    assert node.meta.arity == 3
    assert node.meta.kind == "ncst" and node.meta.tag == 0


def test_spine_of_constant_is_bare_connode():
    s = v.spine(pl.Btree(Int), pl.EMPTY)
    assert isinstance(s, v.ConNode)
    assert s.meta.name == "Empty" and s.meta.kind == "cst"


def test_rebuild_inverts_spine():
    rng = random.Random(2)
    for t, gen in TYPED_GENERATORS:
        for _ in range(50):
            x = gen(rng, 3)
            assert v.rebuild(v.spine(t, x)) == x, render(t)
    s = v.spine(Pair(Int, String), (1, "a"))
    with pytest.raises(ArityMismatch):
        v.rebuild(s.fun)


def test_spine_meta_identifies_constructor():
    a = v.spine(Expr, Add(Cst(1), Cst(2)))
    b = v.spine(Expr, Add(Var("x"), Var("y")))
    c = v.spine(Expr, Cst(1))
    assert a.fun.fun.meta == b.fun.fun.meta
    assert a.fun.fun.meta != c.fun.meta


def test_spine_record_and_product():
    r = pl.Rose(1, [])
    s = v.spine(pl.Rtree(Int), r)
    assert v.rebuild(s) == r
    inner = s.fun.fun
    assert inner.meta.kind == "record" and inner.meta.name == "Rtree"

    p = v.spine(Pair(Int, String), (1, "a"))
    assert v.rebuild(p) == (1, "a")
    assert p.fun.fun.meta.kind == "product"


def test_spine_undefined_for_scalars():
    with pytest.raises(NoView):
        v.spine(Int, 3)


def test_conlist_variant_in_declaration_order():
    names = [c.name for c in v.conlist(Expr)]
    assert names == ["Cst", "Neg", "Add", "Sub", "Var", "Let"]


def test_conlist_record_synthetic_constructor():
    cs = v.conlist(pl.Rtree(Int))
    assert len(cs) == 1
    c = cs[0]
    assert c.name == "Rtree" and c.arity == 2
    r = pl.Rose(5, [])
    assert c.embed(c.proj(r)) == r


def test_conlist_product_synthetic_constructor():
    cs = v.conlist(Pair(Int, String))
    assert len(cs) == 1 and cs[0].arity == 2
    assert cs[0].name == "Pair"


def test_conlist_empty_for_scalars():
    assert v.conlist(Int) == []
    assert v.conlist(String) == []


def test_split_takes_list_values_apart():
    ca = v.split(List(Int), [1, 2])
    assert ca.con.name == "::" and ca.args == (1, [2])
    ca2 = v.split(List(Int), [])
    assert ca2.con.name == "[]" and ca2.args == ()
    with pytest.raises(MalformedValue):
        v.split(List(Int), "not a list")


def test_split_records_products_and_leaves():
    ca = v.split(pl.Rtree(Int), pl.Rose(1, []))
    assert ca.con.name == "Rtree" and ca.args == (1, [])
    ca = v.split(Pair(Int, String), (1, "a"))
    assert ca.con.name == "Pair" and ca.args == (1, "a")
    assert v.split(Int, 3) is None
    assert v.split(pl.Exn, pl.NOT_FOUND_VALUE) is None


def test_split_and_spine_follow_synonyms():
    IntList = declare("IntListDemo", 0, ("tests",))
    d.register(
        IntList, lambda: d.SynonymDesc(List(Int), EqualityWitness(IntList, List(Int)))
    )
    value = ([1, 2], 3)
    assert len(mp.family_dyn(Pair(IntList, Int), value)) == 7
    assert len(mp.family_dyn(Pair(List(Int), Int), value)) == 7
    assert v.split(IntList, [1, 2]).con.name == "::"
    assert [c.name for c in v.conlist(IntList)] == ["[]", "::"]
    s = v.spine(IntList, [1, 2])
    assert s.fun.fun.meta.name == "::"
    assert v.rebuild(s) == [1, 2]


# ---------------------------------------------------------------------------
# closed(t)'s split against desc.conap

ExprSyn = declare("SplitExprSynonym", 0, ("tests", "views"))
d.register(ExprSyn, lambda: d.SynonymDesc(Expr, EqualityWitness(ExprSyn, Expr)))


def test_split_agrees_with_conap_on_every_constructor():
    rng = random.Random(26)
    cases = TYPED_GENERATORS + [
        (Pair(Int, String), lambda rng, depth: (rng.randrange(9), "s")),
        (ExprSyn, TYPED_GENERATORS[-1][1]),
    ]
    for t, gen in cases:
        seen = set()
        for _ in range(60):
            for dv in mp.family_dyn(t, gen(rng, 3)):
                u, dd, infos, split = v.closed(dv.rep)
                if infos is None:
                    assert split(dv.value) is None
                    continue
                info, args = split(dv.value)
                ca = d.conap(dd, dv.value)
                assert info.con is ca.con and args == ca.args
                assert info is infos[info.index] and info.tys == tuple(
                    f.ty for f in ca.con.fields
                )
                if dv.rep is t:
                    seen.add(info.con.name)
        assert seen == {c.name for c in v.conlist(t)}, render(t)


def _expr_with(name: str, classify):
    """A fresh head whose descriptor is Expr's with classify replaced."""
    t = declare(name, 0, ("tests", "views"))
    d.register(t, lambda: dataclasses.replace(d.view_desc(Expr), classify=classify))
    return t


# The refusals test_desc pins for conap, each on a type and a value.
REFUSALS = {
    "past the table": (_expr_with("SplitPastTable", lambda x: ("ncst", 6)), Cst(1)),
    "no constants": (_expr_with("SplitNoConstants", lambda x: ("cst", 0)), Cst(1)),
    "not a member": (Expr, 5),
    "misclassified": (_expr_with("SplitMisclassified", lambda x: ("ncst", 1)), Cst(3)),
}
_ID = fx.identity_monad()
WALKERS = {
    "family": up.family,
    "children": up.children,
    "para": lambda t, x: up.para(t, lambda y, rs: 0, x),
    "map_family": lambda t, x: up.map_family(t, lambda y: y, x),
    "traverse_family": lambda t, x: up.traverse_family(_ID, t, _ID.pure, x),
    "equal": lambda t, x: g.equal(t, x, x),
    "family_dyn": mp.family_dyn,
    "spine": v.spine,
    "serialize": ss.serialize,
}


@pytest.mark.parametrize("walker", list(WALKERS.values()), ids=list(WALKERS))
@pytest.mark.parametrize("refusal", list(REFUSALS.values()), ids=list(REFUSALS))
def test_walkers_refuse_as_conap_does(refusal, walker):
    t, x = refusal
    with pytest.raises(ReflectixError) as want:
        d.conap(d.view_desc(t), x)
    with pytest.raises(ReflectixError) as got:
        walker(t, x)
    assert type(got.value) is type(want.value)
    prefix = "at root: " if walker is WALKERS["serialize"] else ""
    assert str(got.value) == prefix + str(want.value)


def test_a_held_split_outlives_a_registration():
    split = v.closed(Expr)[3]
    late = declare("SplitLateHead", 0, ("tests", "views"))
    d.register(late, lambda: d.ScalarDesc("SplitLateHead", "int"))
    assert v.closed(Expr)[3] is not split  # the memo was emptied
    e = Add(Neg(Cst(1)), Var("x"))
    info, args = split(e)
    assert (info.con.name, args) == ("Add", (Neg(Cst(1)), Var("x")))
    # A walk holds its split while a registration comes in mid-walk.
    fresh = itertools.count()

    def height(y, rs):
        if not rs:
            head = declare(f"SplitMidWalk{next(fresh)}", 0, ("tests", "views"))
            d.register(head, lambda: d.ScalarDesc("SplitMidWalk", "int"))
        return 1 + max(rs, default=0)

    assert up.para(Expr, height, e) == 3
    assert up.family(Expr, e) == [e, Neg(Cst(1)), Cst(1), Var("x")]
