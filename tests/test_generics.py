"""Generic show, equal, and the three children implementations."""

import random

import pytest

from reflectix import generics as g
from reflectix import prelude as pl
from reflectix.errors import NotSupported
from reflectix.exprlang import Add, Cst, Expr, Let, Neg, Var
from reflectix.typerep import (
    Array,
    Bool,
    Char,
    Float,
    Fun,
    Int,
    List,
    Pair,
    String,
    render,
)

from conftest import TYPED_GENERATORS


def test_show_scalars():
    assert g.show(Int, 42) == "42"
    assert g.show(Int, -3) == "-3"
    assert g.show(Float, 1.5) == "1.5"
    assert g.show(Char, "c") == "'c'"
    assert g.show(String, "hi") == '"hi"'


def test_show_list_and_pair():
    assert g.show(List(Int), [1, 2, 3]) == "[1; 2; 3]"
    assert g.show(List(Int), []) == "[]"
    assert g.show(Pair(Int, String), (1, "a")) == '(1, "a")'
    assert (
        g.show(List(Pair(Int, Int)), [(1, 2), (3, 4)]) == "[(1, 2); (3, 4)]"
    )


def test_show_functions_opaquely():
    assert g.show(Fun(Int, Int), lambda x: x) == "<fun>"


def test_show_variants_in_constructor_syntax():
    assert g.show(pl.Btree(Int), pl.EMPTY) == "Empty"
    assert (
        g.show(pl.Btree(Int), pl.node(pl.EMPTY, 1, pl.EMPTY))
        == "Node (Empty, 1, Empty)"
    )
    assert g.show(Bool, True) == "true"
    assert g.show(Bool, False) == "false"


def test_show_expr():
    e = Add(Cst(1), Neg(Var("x")))
    assert g.show(Expr, e) == 'Add (Cst (1), Neg (Var ("x")))'


def test_show_record_in_field_syntax():
    r = pl.Rose(1, [pl.Rose(2, [])])
    assert (
        g.show(pl.Rtree(Int), r)
        == "{attr = 1; children = [{attr = 2; children = []}]}"
    )


def test_show_array():
    assert g.show(Array(Int), [1, 2]) == "[|1; 2|]"
    assert g.show(Array(Int), []) == "[||]"


def test_show_abstract_through_representation():
    assert g.show(pl.Nat, 5) == "Nat(5)"


def test_show_synonym_shows_target():
    assert g.show(pl.NatInternal, 7) == "7"


def test_show_extensible():
    assert g.show(pl.Exn, pl.failure("boom")) == 'Failure ("boom")'
    assert g.show(pl.Exn, pl.NOT_FOUND_VALUE) == "NotFound"


def test_show_unsupported_type():
    from reflectix.typerep import declare

    T = declare("Opaque0", 0, ("tests",))
    with pytest.raises(NotSupported) as e:
        g.show(T, object())
    assert "show" in str(e.value)


def test_show_extension_point():
    from reflectix.typerep import declare

    T = declare("Celsius", 0, ("tests",))
    g.show_fun.extend(T, lambda t, x: f"{x}°C")
    assert g.show(T, 21) == "21°C"


def test_equal_scalars_and_strings():
    assert g.equal(Int, 3, 3)
    assert not g.equal(Int, 3, 4)
    assert g.equal(String, "a", "a")
    assert not g.equal(String, "a", "b")


def test_equal_structural():
    a = pl.node(pl.leaf(1), 2, pl.EMPTY)
    b = pl.node(pl.leaf(1), 2, pl.EMPTY)
    c = pl.node(pl.leaf(1), 3, pl.EMPTY)
    assert g.equal(pl.Btree(Int), a, b)
    assert not g.equal(pl.Btree(Int), a, c)
    assert not g.equal(pl.Btree(Int), a, pl.EMPTY)


def test_equal_arrays_elementwise():
    assert g.equal(Array(Int), [1, 2], [1, 2])
    assert not g.equal(Array(Int), [1, 2], [1])
    assert not g.equal(Array(Int), [1, 2], [1, 3])


def test_equal_extensible_by_registered_identity():
    assert g.equal(pl.Exn, pl.failure("x"), pl.failure("x"))
    assert not g.equal(pl.Exn, pl.failure("x"), pl.failure("y"))
    assert not g.equal(pl.Exn, pl.failure("x"), pl.NOT_FOUND_VALUE)
    # resolution is by name, so a foreign constructor object with the
    # same name still compares equal once projected through the registry
    from reflectix import desc as d
    from reflectix.errors import UnknownConstructor

    foreign = d.ext_constructor("Failure", (String,))
    fv = foreign.embed(("x",))
    assert g.equal(pl.Exn, pl.failure("x"), fv)
    assert g.equal(pl.Exn, pl.failure("x"), d.reinstate(pl.exn_desc, fv))
    stranger = d.ext_constructor("Unheard", ())
    with pytest.raises(UnknownConstructor):
        g.equal(pl.Exn, pl.failure("x"), stranger.embed(()))


def test_equal_through_synonym_and_abstract():
    assert g.equal(pl.NatInternal, 5, 5)
    assert g.equal(pl.Nat, 5, 5)
    assert not g.equal(pl.Nat, 5, 6)


def test_equal_is_equivalence_on_samples():
    rng = random.Random(3)
    for t, gen in TYPED_GENERATORS:
        xs = [gen(rng, 3) for _ in range(20)]
        for x in xs:
            assert g.equal(t, x, x), render(t)
        for x in xs:
            for y in xs:
                assert g.equal(t, x, y) == g.equal(t, y, x)


def test_equal_agrees_with_host_equality_on_samples():
    # The demo values are plain dataclasses and containers, so the
    # host == is an independent oracle for structural equality.
    rng = random.Random(4)
    for t, gen in TYPED_GENERATORS:
        for _ in range(40):
            x, y = gen(rng, 3), gen(rng, 3)
            assert g.equal(t, x, y) == (x == y), render(t)


def test_child_filters_by_type():
    assert g.child(Expr, Expr, Cst(1)) == [Cst(1)]
    assert g.child(Expr, Int, 5) == []
    assert g.child(Expr, String, "x") == []


def _children_3ways(t, x):
    return (
        g.children_sumprod(t, x),
        g.children_spine(t, x),
        g.children_conlist(t, x),
    )


def test_children_of_expr():
    e = Let("x", Cst(1), Add(Var("x"), Cst(2)))
    a, b, c = _children_3ways(Expr, e)
    assert a == b == c == [Cst(1), Add(Var("x"), Cst(2))]


def test_children_of_list_is_tail():
    a, b, c = _children_3ways(List(Int), [1, 2, 3])
    assert a == b == c == [[2, 3]]
    a, b, c = _children_3ways(List(Int), [])
    assert a == b == c == []


def test_children_of_btree():
    v = pl.node(pl.leaf(1), 2, pl.EMPTY)
    a, b, c = _children_3ways(pl.Btree(Int), v)
    assert a == b == c == [pl.leaf(1), pl.EMPTY]


def test_children_three_ways_agree_on_samples():
    rng = random.Random(5)
    for t, gen in TYPED_GENERATORS:
        for _ in range(60):
            x = gen(rng, 4)
            a, b, c = _children_3ways(t, x)
            assert a == b == c, render(t)
