"""Descriptors: products, constructors, registries, representations."""

import random

import pytest

from reflectix import desc as d
from reflectix import prelude as pl
from reflectix import views as v
from reflectix.errors import (
    DuplicateConstructor,
    DuplicateDescriptor,
    IndexOutOfRange,
    MalformedValue,
    NoRepresentation,
    UnknownConstructor,
)
from reflectix.exprlang import Add, Cst, Expr, Let, Neg, Sub, Var
from reflectix.generics import equal
from reflectix.typerep import ANY, Bool, Int, List, Pair, String, Unit, declare

from conftest import TYPED_GENERATORS, gen_exn


def test_product_shape_nest_flat_inverse():
    """Only the sum-of-products view nests: its bck gives right-nested
    pairs and its fwd takes them back to the flat field tuple."""
    Triple = declare("TripleDemo", 3, ("tests",))
    d.register(
        Triple,
        lambda a, b, c: d.ProductDesc(
            d.ProductShape((a, b, c)), d.Iso(fwd=tuple, bck=tuple)
        ),
    )
    sp = v.sumprod(Triple(Int, String, Bool))
    nested = sp.bck((1, "a", True))
    assert nested == (1, ("a", (True, ())))
    assert sp.fwd(nested) == (1, "a", True)


def test_product_shape_empty_is_unit():
    sp = v.sumprod(Unit)
    assert sp.inner is v.UNIT
    assert sp.bck(()) == ()
    assert sp.fwd(()) == ()


def test_product_shape_arity_checked():
    sp = v.sumprod(Pair(Int, Int))
    with pytest.raises(MalformedValue):
        sp.bck((1,))


def test_constructor_proj_inverts_embed():
    dd = d.view_desc(pl.Btree(Int))
    con = next(c for c in dd.cons if c.name == "Node")
    args = (pl.EMPTY, 5, pl.EMPTY)
    v = con.embed(args)
    assert con.proj(v) == args
    # proj is partial: a value of the other constructor gives None
    assert con.proj(pl.EMPTY) is None


def conap_oracle(cons, x):
    """Try each constructor's proj in turn; first hit wins."""
    for con in cons:
        args = con.proj(x)
        if args is not None:
            return con, args
    return None


def test_conap_agrees_with_projection_scan():
    """conap (through views.split for records and products) picks the
    constructor a scan of every projection would, for every generated
    type with constructors and for the extensible Exn."""
    rng = random.Random(12)
    cases = [(t, gen) for t, gen in TYPED_GENERATORS if v.conlist(t)]
    assert len(cases) == len(TYPED_GENERATORS)
    for t, gen in cases + [(pl.Exn, gen_exn)]:
        dd = d.view_desc(t)
        if isinstance(dd, d.ExtensibleDesc):
            cons = d.ext_con_list(dd)
        else:
            cons = v.conlist(t)
        for _ in range(40):
            x = gen(rng, 3)
            if isinstance(dd, (d.VariantDesc, d.ExtensibleDesc)):
                got = d.conap(dd, x)
            else:
                got = v.split(t, x)
            want_con, want_args = conap_oracle(cons, x)
            assert got.con.name == want_con.name
            assert got.args == want_args
            assert len(got.args) == got.con.arity
            assert equal(t, got.con.embed(got.args), x)
    expr = d.view_desc(Expr)
    samples = [
        Cst(3),
        Neg(Cst(1)),
        Add(Cst(1), Cst(2)),
        Sub(Var("x"), Cst(2)),
        Var("y"),
        Let("x", Cst(1), Var("x")),
    ]
    for s in samples:
        got = d.conap(expr, s)
        want_con, want_args = conap_oracle(expr.cons, s)
        assert got.con is want_con and got.args == want_args


def test_conap_without_scanning():
    """classify alone decides the constructor; proj never runs on the
    wrong one. Constructors whose proj counts invocations prove it."""
    calls = {"a": 0, "b": 0}

    def mk(name, tag):
        def proj(x):
            calls[name] += 1
            return (x[1], ()) if x[0] == tag else None

        return d.Constructor(
            name,
            (d.Field("", Int),),
            embed=lambda args, tag=tag: (tag, args[0]),
            proj=proj,
        )

    ca, cb = mk("a", 0), mk("b", 1)
    v = d.VariantDesc(
        "ab",
        (),
        (ca, cb),
        classify=lambda x: ("ncst", x[0]),
    )
    d.conap(v, (1, 42))
    assert calls == {"a": 0, "b": 1}


def test_variant_dense_tags_in_declaration_order():
    dd = d.view_desc(Expr)
    assert dd.cst_len == 0
    assert dd.ncst_len == 6
    names = [dd.ncst_get(i).name for i in range(6)]
    assert names == ["Cst", "Neg", "Add", "Sub", "Var", "Let"]
    with pytest.raises(IndexOutOfRange):
        dd.ncst_get(6)
    with pytest.raises(IndexOutOfRange):
        dd.cst_get(0)


def test_bool_is_a_two_constant_variant():
    dd = d.view_desc(Bool)
    assert dd.cst_len == 2 and dd.ncst_len == 0
    assert dd.classify(False) == ("cst", 0)
    assert dd.classify(True) == ("cst", 1)
    assert dd.cst_get(1).embed(()) is True


def test_list_classify_and_conap():
    dd = d.view_desc(List(Int))
    assert dd.classify([]) == ("cst", 0)
    assert dd.classify([1]) == ("ncst", 0)
    ca = d.conap(dd, [1, 2, 3])
    assert ca.con.name == "::"
    head, tail = ca.args
    assert head == 1 and tail == [2, 3]


def test_conap_rejects_misclassified_value():
    bad = d.VariantDesc(
        "bad",
        (),
        d.view_desc(List(Int)).cons,
        classify=lambda x: ("ncst", 0),  # lies about []
    )
    with pytest.raises(MalformedValue):
        d.conap(bad, [])


def test_register_duplicate_head_rejected():
    T = declare("DupDemo", 0, ("tests",))
    d.register(T, lambda: d.ScalarDesc("DupDemo", "int"))
    with pytest.raises(DuplicateDescriptor):
        d.register(T, lambda: d.ScalarDesc("DupDemo", "int"))


def test_view_desc_falls_back_to_no_desc():
    T = declare("Undescribed", 0, ("tests",))
    assert d.view_desc(T) is d.NO_DESC


def test_register_repr_duplicate_head_rejected():
    T = declare("DupReprDemo", 0, ("tests",))
    rep = d.Representation(Int, lambda x: x, lambda x: x)
    d.register_repr(T, lambda: rep)
    with pytest.raises(DuplicateDescriptor):
        d.register_repr(T, lambda: rep)


def test_wildcard_has_no_descriptor_or_representation():
    assert d.view_desc(ANY) is d.NO_DESC
    assert d.try_repr(ANY) is None


def test_wildcard_arguments_find_the_heads_descriptor():
    dd = d.view_desc(List(ANY))
    assert isinstance(dd, d.VariantDesc) and dd.name == "List"
    assert dd.ncst_get(0).fields[1].ty == List(ANY)


def test_registry_stays_open_after_a_miss():
    T = declare("LateDemo", 0, ("tests",))
    assert d.view_desc(T) is d.NO_DESC
    assert d.try_repr(T) is None
    d.register(T, lambda: d.AbstractDesc("LateDemo", ("tests",)))
    rep = d.Representation(Int, lambda x: x, lambda x: x)
    d.register_repr(T, lambda: rep)
    assert d.view_desc(T) == d.AbstractDesc("LateDemo", ("tests",))
    assert d.try_repr(T) is rep


def test_desc_builder_receives_type_arguments():
    dd = d.view_desc(List(Pair(Int, String)))
    cons = dd.ncst_get(0)
    assert cons.fields[0].ty == Pair(Int, String)
    assert cons.fields[1].ty == List(Pair(Int, String))


def test_synonym_points_at_target():
    dd = d.view_desc(pl.NatInternal)
    assert isinstance(dd, d.SynonymDesc)
    assert dd.target == Int
    assert dd.eq.left == pl.NatInternal and dd.eq.right == Int


def test_representation_is_a_retraction():
    rep = d.repr_of(pl.Nat)
    for x in [0, 1, 7, 10**6]:
        assert rep.from_repr(rep.to_repr(x)) == x
    assert rep.from_repr(-1) is None
    assert rep.from_repr("no") is None


def test_repr_of_missing_raises():
    T = declare("SealedDemo", 0, ("tests",))
    d.register(T, lambda: d.AbstractDesc("SealedDemo", ("tests",)))
    with pytest.raises(NoRepresentation):
        d.repr_of(T)
    assert d.try_repr(T) is None


def test_extensible_add_list_find():
    e = d.ext_create("Msg", ("tests",))
    c1 = d.ext_constructor("Hello", (String,))
    c2 = d.ext_constructor("Ping", ())
    d.add_con(e, c1)
    d.add_con(e, c2)
    assert d.ext_con_list(e) == [c1, c2]
    assert d.ext_find(e, "Ping") is c2
    with pytest.raises(UnknownConstructor):
        d.ext_find(e, "Pong")
    with pytest.raises(DuplicateConstructor):
        d.add_con(e, d.ext_constructor("Hello", ()))


def test_extensible_conap_and_reinstate():
    e = d.ext_create("Msg2", ("tests",))
    c = d.ext_constructor("Wrap", (Int,))
    d.add_con(e, c)
    ca = d.conap(e, c.embed((5,)))
    assert ca.con is c and ca.args == (5,)
    with pytest.raises(MalformedValue):
        d.conap(e, 5)
    with pytest.raises(MalformedValue):
        d.conap(e, d.ExtValue(c, (5, 6)))

    # a foreign constructor with the same name: identity differs,
    # reinstate swaps in the registered one
    foreign = d.ext_constructor("Wrap", (Int,))
    fv = d.ExtValue(foreign, (5,))
    assert fv.con is not c
    rv = d.reinstate(e, fv)
    assert rv.con is c and rv.args == (5,)


def test_exn_prelude_is_extensible():
    ca = d.conap(pl.exn_desc, pl.failure("boom"))
    assert ca.con.name == "Failure"
    assert ca.args == ("boom",)
    assert d.conap(pl.exn_desc, pl.NOT_FOUND_VALUE).con.name == "NotFound"


def test_record_fields_and_iso():
    dd = d.view_desc(pl.Rtree(Int))
    assert [f.name for f in dd.fields] == ["attr", "children"]
    r = pl.Rose(1, [])
    args = dd.iso.bck(r)
    assert args == (1, [])
    assert dd.iso.fwd(args) == r


def test_pair_product_desc():
    dd = d.view_desc(Pair(Int, String))
    assert isinstance(dd, d.ProductDesc)
    assert dd.shape.reps == (Int, String)
    assert dd.iso.bck((1, "a")) == (1, "a")
    assert dd.iso.fwd([1, "a"]) == (1, "a")


def test_scalar_descs():
    from reflectix.typerep import Char, Float

    assert d.view_desc(Int).kind == "int"
    assert d.view_desc(Float).kind == "float"
    assert d.view_desc(Char).kind == "char"


def test_constant_constructor():
    c = d.constant_constructor("Nothing", None)
    assert c.arity == 0
    assert c.embed(()) is None
    assert c.proj(None) == ()
    assert c.proj(0) is None
