"""Descriptors: products, constructors, registries, representations."""

import dataclasses
import gc
import random
import tracemalloc
from dataclasses import dataclass
from typing import Any

import pytest

from reflectix import desc as d
from reflectix import prelude as pl
from reflectix import uniplate as up
from reflectix import views as v
from reflectix.errors import (
    DuplicateConstructor,
    DuplicateDescriptor,
    IndexOutOfRange,
    MalformedValue,
    NoRepresentation,
    NotSupported,
    NoView,
    UnknownConstructor,
)
from reflectix.exprlang import Add, Cst, Expr, Let, Neg, Sub, Var
from reflectix.generics import EQUAL_DEPTH, children_sumprod, equal
from reflectix.typerep import (
    ANY,
    Bool,
    EqualityWitness,
    Int,
    List,
    Pair,
    String,
    Unit,
    declare,
)

from conftest import TYPED_GENERATORS, gen_exn


def test_product_shape_nest_flat_inverse():
    """Only the sum-of-products view nests: its bck gives right-nested
    pairs and its fwd takes them back to the flat field tuple."""
    Triple = declare("TripleDemo", 3, ("tests",))
    d.register(
        Triple,
        lambda a, b, c: d.ProductDesc(
            d.Constructor(
                "TripleDemo", tuple(d.Field("", r) for r in (a, b, c)), tuple, tuple
            )
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


@dataclass(frozen=True)
class _Fork:
    left: Any
    right: Any


class _CountedLeaf:
    def __init__(self) -> None:
        self.calls = 0

    def __repr__(self) -> str:
        self.calls += 1
        return "leaf"


def test_brief_value_renders_dataclasses_only_to_its_level_limit():
    # Twelve levels of forks over one leaf: rendering it in full would
    # call the leaf's __repr__ 4096 times for a message cut at a few
    # dozen characters.
    leaf = _CountedLeaf()
    t = leaf
    for _ in range(12):
        t = _Fork(t, t)
    text = d.brief_value(t)
    assert leaf.calls <= d._value_repr.maxlevel
    assert text.startswith("_Fork(left=_Fork(left=_Fork(left=_Fork(...)")
    assert len(text) <= d.BRIEF_CHARS
    # A dataclass that defines its own __repr__ keeps it.
    assert d.brief_value(pl.FAILURE) == "<constructor Failure/1>"


def test_conap_agrees_with_projection_scan():
    """conap picks the constructor a scan of every projection would,
    for every generated type, records and products included, and for
    the extensible Exn."""
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
            got = d.conap(dd, x)
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


def test_conap_keeps_every_refusal_and_message():
    expr = d.view_desc(Expr)
    past_the_table = dataclasses.replace(expr, classify=lambda x: ("ncst", 6))
    with pytest.raises(IndexOutOfRange, match="^non-constant tag 6 of Expr$"):
        d.conap(past_the_table, Cst(1))
    no_constants = dataclasses.replace(expr, classify=lambda x: ("cst", 0))
    with pytest.raises(IndexOutOfRange, match="^constant tag 0 of Expr$"):
        d.conap(no_constants, Cst(1))
    with pytest.raises(MalformedValue, match="^not a Expr value: 5$"):
        d.conap(expr, 5)
    # classify names Neg, whose proj refuses a Cst.
    misclassified = dataclasses.replace(expr, classify=lambda x: ("ncst", 1))
    with pytest.raises(MalformedValue, match=r"^not a Neg value: Cst\(value=3\)$"):
        d.conap(misclassified, Cst(3))
    assert d.conap(expr, Neg(Cst(3))).args == (Cst(3),)


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
    assert [f.name for f in dd.con.fields] == ["attr", "children"]
    r = pl.Rose(1, [])
    args = dd.con.proj(r)
    assert args == (1, [])
    assert dd.con.embed(args) == r


def test_pair_product_desc():
    dd = d.view_desc(Pair(Int, String))
    assert isinstance(dd, d.ProductDesc)
    assert [f.ty for f in dd.con.fields] == [Int, String]
    assert dd.con.proj((1, "a")) == (1, "a")
    assert dd.con.embed([1, "a"]) == (1, "a")


def test_scalar_descs():
    from reflectix.typerep import Array, Char, Float

    assert d.view_desc(Int).kind == "int"
    assert d.view_desc(Float).kind == "float"
    assert d.view_desc(Char).kind == "char"
    # Text is a leaf; an array is a list of its element type.
    assert d.view_desc(String) == d.ScalarDesc("String", "text")
    assert d.view_desc(Array(Int)) == d.ArrayLikeDesc(Int)


def test_constant_constructor():
    c = d.constant_constructor("Nothing", None)
    assert c.arity == 0
    assert c.embed(()) is None
    assert c.proj(None) == ()
    assert c.proj(0) is None


# ---------------------------------------------------------------------------
# The descriptor cache


def test_lookup_is_cached_per_type():
    assert d.view_desc(pl.Btree(Int)) is d.view_desc(pl.Btree(Int))
    assert d.view_desc(List(Int)).ncst[0].fields[1].ty is List(Int)


def test_register_after_a_miss_is_seen():
    T = declare("LateDescDemo", 1, ("tests",))
    assert d.view_desc(T(Int)) is d.NO_DESC
    late = d.ArrayLikeDesc(Int)
    d.register(T, lambda a: late)
    assert d.view_desc(T(Int)) is late


def test_register_repr_after_a_miss_is_seen():
    T = declare("LateReprDemo", 0, ("tests",))
    d.register(T, lambda: d.AbstractDesc("LateReprDemo", ("tests",)))
    assert d.try_repr(T) is None
    rep = d.Representation(Int, lambda x: x, lambda x: x)
    d.register_repr(T, lambda: rep)
    assert d.try_repr(T) is rep
    assert d.repr_of(T) is rep


def test_cache_stays_within_its_bound():
    Box = declare("CacheBoundDemo", 1, ("tests",))
    d.register(Box, lambda a: d.ArrayLikeDesc(a))
    t = Int
    for _ in range(3 * d._CACHE_BOUND):
        t = Box(t)
        assert d.view_desc(t).elem is t.args[0]
        assert len(d._desc_cache) <= d._CACHE_BOUND


# ---------------------------------------------------------------------------
# Per-type structure and plans, memoized with the descriptor cache


@dataclass(frozen=True)
class _Wrap:
    inner: Any


def test_sumprod_is_built_once_per_type():
    assert v.sumprod(pl.Btree(Int)) is v.sumprod(pl.Btree(Int))
    assert v.sumprod(Expr) is v.sumprod(Expr)


def test_register_after_a_miss_is_seen_by_the_plans():
    Late = declare("LatePlanDemo", 0, ("tests",))
    Alias = declare("LatePlanAlias", 0, ("tests",))
    d.register(Alias, lambda: d.SynonymDesc(Late, EqualityWitness(Alias, Late)))
    x, y = _Wrap(_Wrap(None)), _Wrap(None)
    # Before Late has a descriptor, it is a leaf without a view, and
    # Alias's structure and plans stop at it.
    assert isinstance(v.sumprod(Alias), v.Delay)
    with pytest.raises(NoView):
        v.sumprod(Late)
    with pytest.raises(NotSupported):
        equal(Alias, x, x)
    assert up.scrap(Late, x).children == []
    assert up.scrap(Alias, x).children == []
    d.register(
        Late,
        lambda: d.VariantDesc(
            "LatePlanDemo",
            ("tests",),
            (
                d.constant_constructor("Stop", None),
                d.class_constructor(_Wrap, (("inner", Late),), name="Wrap"),
            ),
            d.classify_by_class(
                "LatePlanDemo", {type(None): ("cst", 0), _Wrap: ("ncst", 0)}
            ),
        ),
    )
    assert isinstance(v.sumprod(Late), v.IsoSP)
    assert equal(Alias, x, x) and not equal(Alias, x, y)
    assert equal(Late, x, _Wrap(_Wrap(None)))
    assert up.scrap(Late, x).children == [x.inner]
    assert up.scrap(Late, x).rebuild([None]) == y


class _Token:
    """Equal only to itself on the host; its representation is n."""

    def __init__(self, n: int):
        self.n = n


def test_register_repr_after_a_base_view_gives_an_iso():
    T = declare("LateReprPlanDemo", 0, ("tests",))
    d.register(T, lambda: d.AbstractDesc("LateReprPlanDemo", ("tests",)))
    sp = v.sumprod(T)
    assert sp == v.Base(T) and v.sumprod(T) is sp
    assert not equal(T, _Token(1), _Token(1))
    d.register_repr(T, lambda: d.Representation(Int, lambda x: x.n, _Token))
    assert isinstance(v.sumprod(T), v.IsoSP)
    assert equal(T, _Token(1), _Token(1))
    assert not equal(T, _Token(1), _Token(2))


def test_plans_stay_within_the_cache_bound():
    Box = declare("PlanBoundDemo", 1, ("tests",))
    Bag = declare("PlanBoundBag", 1, ("tests",))

    def proj(p: Any) -> Any:
        return p if isinstance(p, tuple) and len(p) == 1 else None

    d.register(
        Box,
        lambda a: d.ProductDesc(
            d.Constructor("PlanBoundDemo", (d.Field("", a),), tuple, proj)
        ),
    )
    d.register(Bag, d.ArrayLikeDesc)
    t = Int
    for _ in range(3 * d._CACHE_BOUND):
        t = Box(t)
        assert isinstance(v.sumprod(t), v.IsoSP)
        assert equal(Bag(t), [], [])
        assert up.scrap(t, (None,)).children == []
        assert v.spine(t, (None,)).fun.meta.kind == "product"
        assert all(len(c) <= d._CACHE_BOUND for c in d._caches)


def test_deep_polymorphic_plans_retain_bounded_memory():
    # PolyTree's Node holds a PolyTree(Pair(a, a)), so each level of
    # this spine is compared and split at a type of its own: one
    # structure and one plan per level, none of which may hold the
    # next level's alive.
    depth = EQUAL_DEPTH - 6
    x = y = pl.PolyLeaf(0)
    for _ in range(depth):
        x, y = pl.PolyNode(pl.PolyLeaf(1), x), pl.PolyNode(pl.PolyLeaf(1), y)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert equal(pl.PolyTree(Int), x, y)
        t, node, levels = pl.PolyTree(Int), x, 0
        while isinstance(node, pl.PolyNode):
            assert up.children(t, node) == [node.left]
            assert children_sumprod(t, node) == [node.left]
            t, node, levels = pl.PolyTree(Pair(t.args[0], t.args[0])), node.right, levels + 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert levels == depth
    assert all(len(c) <= d._CACHE_BOUND for c in d._caches)
    assert retained < 2_000_000
