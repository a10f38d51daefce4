"""Generic show, equal, and the three children implementations."""

import enum
import random
import sys
import threading

import pytest

from reflectix import desc as d
from reflectix import generics as g
from reflectix import prelude as pl
from reflectix import views as v
from reflectix.errors import DepthLimitExceeded, NotSupported
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
    declare,
    render,
)

from conftest import TYPED_GENERATORS


def test_show_scalars():
    assert g.show(Int, 42) == "42"
    assert g.show(Int, -3) == "-3"
    assert g.show(Float, 1.5) == "1.5"
    assert g.show(Char, "c") == "'c'"
    assert g.show(String, "hi") == '"hi"'


def test_show_escapes_text():
    from reflectix import desc as d
    from reflectix.typerep import declare

    assert g.show(Char, "'") == "'\\''"
    assert g.show(Char, "\\") == "'\\\\'"
    assert g.show(Char, '"') == "'\"'"
    assert g.show(String, 'a"b') == '"a\\"b"'
    assert g.show(String, "a\\b'") == '"a\\\\b\'"'
    Text = declare("TextDemo", 0, ("tests",))
    d.register(Text, lambda: d.view_desc(String))
    assert g.show(Text, 'a"b') == '"a\\"b"'


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

    from reflectix.typerep import EqualityWitness

    T = declare("Celsius", 0, ("tests",))
    g.show_fun.extend(T, lambda t, x: f"{x}°C")
    assert g.show(T, 21) == "21°C"
    S = declare("CelsiusSynonym", 0, ("tests",))
    d.register(S, lambda: d.SynonymDesc(T, EqualityWitness(S, T)))
    assert g.show(S, 21) == "21°C"


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "builtin, kind, values",
    [
        (Int, "int", [0, -3, 42, _Level.LOW]),
        (Float, "float", [1.5, -0.0, 1e300]),
        (Char, "char", ["c", "'", '"', "\\", "\n"]),
        (String, "text", ["", "it's", 'a"b', "a\\b", "two\nlines"]),
    ],
    ids=["int", "float", "char", "text"],
)
def test_a_user_scalar_shows_as_the_builtin_leaf_of_its_kind(builtin, kind, values):
    T = declare(f"UserLeaf_{kind}", 0, ("tests",))
    d.register(T, lambda: d.ScalarDesc(f"UserLeaf_{kind}", kind))
    for x in values:
        assert g.show(T, x) == g.show(builtin, x)
    assert g.show(Char, "\n") == "'\n'" and g.show(Int, _Level.LOW) == "1"


def test_a_case_extended_after_show_wins_at_once():
    from reflectix.typerep import EqualityWitness

    T = declare("ShownThenExtended", 0, ("tests",))
    d.register(T, lambda: d.ScalarDesc("ShownThenExtended", "int"))
    S = declare("ShownThenExtendedSynonym", 0, ("tests",))
    d.register(S, lambda: d.SynonymDesc(T, EqualityWitness(S, T)))

    def shown():
        return g.show(T, 1), g.show(List(T), [1, 2]), g.show(S, 3)

    assert shown() == ("1", "[1; 2]", "3")
    g.show_fun.extend(T, lambda t, x: f"<{x}>")
    assert shown() == ("<1>", "[<1>; <2>]", "<3>")


def test_no_plan_built_while_extend_runs_outlives_it():
    # Threads keep showing at T while cases are registered on it; a plan
    # that selected the case being replaced must not be kept.
    T = declare("ExtendRace", 0, ("tests",))
    d.register(T, lambda: d.ScalarDesc("ExtendRace", "int"))
    stop = threading.Event()

    def show_until_stopped():
        while not stop.is_set():
            g.show(List(T), [1, 2])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=show_until_stopped) for _ in range(4)]
    try:
        for th in threads:
            th.start()
        for i in range(100):
            g.show_fun.extend(T, lambda t, x, i=i: f"{i}:{x}")
            assert g.show(List(T), [1, 2]) == f"[{i}:1; {i}:2]"
    finally:
        stop.set()
        for th in threads:
            th.join(timeout=30)
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)


def test_every_staged_memo_is_empty_after_each_registration():
    def warm():
        g.show(Expr, Let("x", Cst(1), Neg(Var("x"))))
        g.equal(pl.Rtree(Int), pl.Rose(1, []), pl.Rose(1, []))
        assert any(d._caches)

    heads = [declare(f"MemoGuard{i}", 0, ("tests",)) for i in range(3)]
    registrations = [
        lambda: d.register(heads[0], lambda: d.AbstractDesc("MemoGuard0", ("tests",))),
        lambda: d.register_repr(
            heads[1], lambda: d.Representation(Int, lambda x: x, lambda x: x)
        ),
        lambda: g.show_fun.extend(heads[2], lambda t, x: "guarded"),
    ]
    for register in registrations:
        warm()
        register()
        assert not any(d._caches)


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


def equal_by_sumprod(t, x, y):
    """Reference equality: walks sumprod(t) the way children_sumprod
    does, with the pairs still to compare on a list so that deep values
    do not nest Python frames."""
    todo = [(v.sumprod(t), x, y)]
    while todo:
        sp, x, y = todo.pop()
        if isinstance(sp, v.IsoSP):
            todo.append((sp.inner, sp.bck(x), sp.bck(y)))
        elif isinstance(sp, v.Sum):
            if isinstance(x, v.Left) and isinstance(y, v.Left):
                todo.append((sp.left, x.value, y.value))
            elif isinstance(x, v.Right) and isinstance(y, v.Right):
                todo.append((sp.right, x.value, y.value))
            else:
                return False
        elif isinstance(sp, v.Prod):
            todo += [(sp.right, x[1], y[1]), (sp.left, x[0], y[0])]
        elif isinstance(sp, (v.Con, v.FieldTag)):
            todo.append((sp.inner, x, y))
        elif isinstance(sp, v.Delay):
            todo.append((v.sumprod(sp.rep), x, y))
        elif isinstance(sp, v.Base):
            dd = d.view_desc(sp.rep)
            if isinstance(dd, d.ArrayLikeDesc):
                if len(x) != len(y):
                    return False
                todo += [(v.Delay(dd.elem), a, b) for a, b in zip(x, y)]
            elif isinstance(dd, d.ExtensibleDesc):
                cx, cy = d.conap(dd, x), d.conap(dd, y)
                if cx.con is not cy.con:
                    return False
                fields = cx.con.fields
                todo += [(v.Delay(f.ty), a, b) for f, a, b in zip(fields, cx.args, cy.args)]
            elif x != y:  # a leaf, or an abstract type without a representation
                return False
    return True


class _Token:
    """Equal on the host only to itself."""


Opaque = declare("EqualOracleOpaque", 0, ("tests",))
d.register(Opaque, lambda: d.AbstractDesc("EqualOracleOpaque", ("tests",)))


def _poly_spine(depth, bottom):
    x = pl.PolyLeaf(bottom)
    for _ in range(depth):
        x = pl.PolyNode(pl.PolyLeaf(1), x)
    return x


def _oracle_cases():
    rng = random.Random(6)
    cases = []
    for t, gen in TYPED_GENERATORS:
        xs = [gen(rng, 3) for _ in range(8)]
        cases += [(t, x, y) for x in xs for y in xs]
    token = _Token()
    foreign = d.ext_constructor("Failure", (String,))
    rose = pl.Rose(1, [pl.Rose(2, [])])
    poly = _poly_spine(200, 0)
    return cases + [
        (pl.NatInternal, 5, 5), (pl.NatInternal, 5, 6),
        (pl.Nat, 5, 5), (pl.Nat, 5, 6),
        (Opaque, token, token), (Opaque, token, _Token()),
        (pl.Exn, pl.failure("x"), foreign.embed(("x",))),
        (pl.Exn, pl.failure("x"), foreign.embed(("y",))),
        (pl.Exn, pl.NOT_FOUND_VALUE, foreign.embed(("x",))),
        (pl.Rtree(Int), rose, pl.Rose(1, [pl.Rose(2, [])])),
        (pl.Rtree(Int), rose, pl.Rose(1, [pl.Rose(3, [])])),
        (Pair(Int, String), (1, "a"), (1, "a")), (Pair(Int, String), (1, "a"), (2, "a")),
        (Bool, True, True), (Bool, True, False),
        (pl.PolyTree(Int), poly, _poly_spine(200, 0)),
        (pl.PolyTree(Int), poly, _poly_spine(200, 1)),
        (pl.PolyTree(Int), poly, _poly_spine(199, 0)),
    ]


def test_equal_agrees_with_the_sumprod_reference():
    for t, x, y in _oracle_cases():
        assert g.equal(t, x, y) == equal_by_sumprod(t, x, y), render(t)


def test_equal_does_not_build_the_sumprod_view(monkeypatch):
    expected = [equal_by_sumprod(t, x, y) for t, x, y in _oracle_cases()]
    assert True in expected and False in expected

    def refuse(t):
        raise AssertionError(f"sumprod({render(t)}) was built")

    monkeypatch.setattr(v, "sumprod", refuse)
    monkeypatch.setattr(g, "sumprod", refuse)
    # A registration empties every per-type memo, so each plan is built anew.
    Fresh = declare("EqualOracleFresh", 0, ("tests",))
    d.register(Fresh, lambda: d.AbstractDesc("EqualOracleFresh", ("tests",)))
    assert [g.equal(t, x, y) for t, x, y in _oracle_cases()] == expected


def _quote(text, q):
    return q + text.replace("\\", "\\\\").replace(q, "\\" + q) + q


# How Int, Float, Char and String print, by their ScalarDesc kind.
LEAF_TEXT = {
    "int": str,
    "float": repr,
    "char": lambda c: _quote(c, "'"),
    "text": lambda s: _quote(s, '"'),
}


def _joined(groups, sep):
    """The groups of tasks as one list, with sep between two groups."""
    out = []
    for i, group in enumerate(groups):
        out += ([sep] if i else []) + group
    return out


def _prod_items(sp, x):
    """The (structure, value) pairs of a Prod chain and its nested value."""
    out = []
    while isinstance(sp, v.Prod):
        out.append((sp.left, x[0]))
        sp, x = sp.right, x[1]
    return out


def _con_tasks(name, args):
    """A constructor and its (type, value) arguments, as show writes them."""
    if not args:
        return [name]
    return [name + " (", *_joined([[a] for a in args], ", "), ")"]


def show_by_sumprod(t, x):
    """Reference show: walks sumprod(t), with show's List and Fun cases,
    keeping the tasks still to do on a list so that deep values do not
    nest Python frames. A task is text to write or a (type, value)."""
    todo, out = [(t, x)], []
    while todo:
        task = todo.pop()
        if isinstance(task, str):
            out.append(task)
            continue
        t, x = task
        if t.head is List.head:
            tasks = ["[", *_joined([[(t.args[0], e)] for e in x], "; "), "]"]
        elif t.head is Fun.head:
            tasks = ["<fun>"]
        elif isinstance(sp := v.sumprod(t), v.Delay):  # a synonym
            tasks = [(sp.rep, x)]
        elif isinstance(sp, v.Base):
            dd = d.view_desc(t)
            if isinstance(dd, d.ScalarDesc):
                tasks = [LEAF_TEXT[dd.kind](x)]
            elif isinstance(dd, d.ArrayLikeDesc):
                tasks = ["[|", *_joined([[(dd.elem, e)] for e in x], "; "), "|]"]
            else:  # an extensible value
                ca = d.conap(dd, x)
                args = [(f.ty, a) for f, a in zip(ca.con.fields, ca.args)]
                tasks = _con_tasks(ca.con.name, args)
        elif isinstance(sp.inner, v.Delay):  # abstract, through its representation
            tasks = [d.view_desc(t).name + "(", (sp.inner.rep, sp.bck(x)), ")"]
        else:
            s, y = sp.inner, sp.bck(x)
            while isinstance(s, v.Sum):
                s, y = (s.left if isinstance(y, v.Left) else s.right), y.value
            items = _prod_items(s.inner if isinstance(s, v.Con) else s, y)
            if isinstance(s, v.Con):
                tasks = _con_tasks(s.name, [(a.rep, b) for a, b in items])
            elif items and all(isinstance(a, v.FieldTag) for a, _ in items):  # a record
                fields = [[f"{a.name} = ", (a.inner.rep, b)] for a, b in items]
                tasks = ["{", *_joined(fields, "; "), "}"]
            else:  # a bare product
                tasks = ["(", *_joined([[(a.rep, b)] for a, b in items], ", "), ")"]
        todo += reversed(tasks)
    return "".join(out)


def test_show_agrees_with_the_sumprod_reference():
    rng = random.Random(7)
    cases = [(t, gen(rng, 3)) for t, gen in TYPED_GENERATORS for _ in range(30)]
    cases += [
        (pl.Nat, 5),
        (pl.NatInternal, 7),
        (pl.Exn, pl.failure('say "hi"')),
        (pl.Exn, pl.NOT_FOUND_VALUE),
        (Array(Int), [1, -2, 3]),
        (Array(Int), []),
        (pl.Rtree(Int), pl.Rose(1, [pl.Rose(2, []), pl.Rose(3, [pl.Rose(4, [])])])),
        (pl.PolyTree(Int), _poly_spine(200, 0)),
        (Pair(Char, String), ("'", "a\\b")),
        (List(Bool), [True, False]),
        (Fun(Int, Int), abs),
    ]
    for t, x in cases:
        assert g.show(t, x) == show_by_sumprod(t, x), render(t)


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


def test_show_and_equal_refuse_deep_values_with_a_library_error():
    e = Cst(1)
    for _ in range(3000):
        e = Neg(e)
    with pytest.raises(DepthLimitExceeded):
        g.show(Expr, e)
    with pytest.raises(DepthLimitExceeded):
        g.equal(Expr, e, e)
    xs = list(range(3000))
    with pytest.raises(DepthLimitExceeded):
        g.equal(List(Int), xs, xs)
