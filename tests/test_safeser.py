"""Graph serialization: wire format, checking, conversion, hostile input.

The golden byte strings below were laid out by hand from the wire
format's documentation (magic, little-endian u32 root and count, then
kind-tagged nodes) and are frozen as hex; serialize must reproduce
them exactly.
"""

import gc
import math
import random
import struct
import time
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from reflectix import cli
from reflectix import desc as d
from reflectix import generics as g
from reflectix import prelude as pl
from reflectix import safeser as ss
from reflectix.errors import (
    BudgetExceeded,
    CyclicValue,
    DepthLimitExceeded,
    Incompatible,
    MalformedBytes,
    MalformedValue,
    NoDescriptor,
    ReflectixError,
    RepresentationRejected,
    UnknownConstructor,
)
from reflectix.exprlang import Add, Cst, Expr, Var, parse_expr
from reflectix.typerep import (
    Array,
    Bool,
    Char,
    EqualityWitness,
    Float,
    Int,
    List,
    Pair,
    String,
    declare,
    render,
)

from conftest import FUZZ_TYPES, SERIALIZABLE_GENERATORS, TYPED_GENERATORS


def _wire(root, nodes):
    """Independent wire layout, written from the format comment."""
    out = bytearray(b"GVG1") + struct.pack("<II", root, len(nodes))
    for n in nodes:
        if n[0] == "imm":
            out += b"\x00" + struct.pack("<q", n[1])
        elif n[0] == "block":
            out += b"\x01" + struct.pack("<II", n[1], len(n[2]))
            out += struct.pack(f"<{len(n[2])}I", *n[2])
        elif n[0] == "bytes":
            out += b"\x02" + struct.pack("<I", len(n[1])) + n[1]
        elif n[0] == "float":
            out += b"\x03" + struct.pack("<d", n[1])
        elif n[0] == "extcon":
            nm = n[1].encode()
            out += b"\x04" + struct.pack("<H", len(nm)) + nm
            out += struct.pack("<I", len(n[2]))
            out += struct.pack(f"<{len(n[2])}I", *n[2])
    return bytes(out)


GOLDENS = [
    (
        Int,
        42,
        _wire(0, [("imm", 42)]),
        "475647310000000001000000002a00000000000000",
    ),
    (
        List(Int),
        [1, 2],
        _wire(
            0,
            [
                ("block", 0, (1, 2)),
                ("imm", 1),
                ("block", 0, (3, 4)),
                ("imm", 2),
                ("imm", 0),
            ],
        ),
        "47564731000000000500000001000000000200000001000000020000000001"
        "0000000000000001000000000200000003000000040000000002000000000000"
        "00000000000000000000",
    ),
    (
        pl.Btree(Int),
        pl.node(pl.EMPTY, 1, pl.EMPTY),
        _wire(0, [("block", 0, (1, 2, 1)), ("imm", 0), ("imm", 1)]),
        "47564731000000000300000001000000000300000001000000020000000100"
        "0000000000000000000000000100000000000000",
    ),
    (
        pl.Exn,
        pl.failure("boom"),
        _wire(0, [("extcon", "Failure", (1,)), ("bytes", b"boom")]),
        "4756473100000000020000000407004661696c75726501000000010000000204"
        "000000626f6f6d",
    ),
    (
        Expr,
        Add(Cst(1), Var("x")),
        _wire(
            0,
            [
                ("block", 2, (1, 3)),
                ("block", 0, (2,)),
                ("imm", 1),
                ("block", 4, (4,)),
                ("bytes", b"x"),
            ],
        ),
        "47564731000000000500000001020000000200000001000000030000000100"
        "0000000100000002000000000100000000000000010400000001000000040000"
        "00020100000078",
    ),
]


# ---------------------------------------------------------------------------
# Goldens and the wire format


@pytest.mark.parametrize(
    "t, v, expected, frozen", GOLDENS, ids=[render(c[0]) for c in GOLDENS]
)
def test_golden_bytes(t, v, expected, frozen):
    b = ss.serialize(t, v)
    assert b == expected
    assert b == bytes.fromhex(frozen)


def test_golden_list_is_73_bytes_5_nodes():
    b = ss.serialize(List(Int), [1, 2])
    assert len(b) == 73
    graph = ss.decode_graph(b)
    assert len(graph.nodes) == 5
    assert graph.nodes[0] == ss.Block(0, (1, 2))
    assert graph.nodes[4] == ss.Imm(0)


@pytest.mark.parametrize(
    "t, v, expected, frozen", GOLDENS, ids=[render(c[0]) for c in GOLDENS]
)
def test_encode_inverts_decode_on_goldens(t, v, expected, frozen):
    assert ss.encode_graph(ss.decode_graph(expected)) == expected
    assert g.equal(t, ss.deserialize(t, expected), v)


def test_encode_inverts_decode_on_samples():
    rng = random.Random(31)
    for t, gen in SERIALIZABLE_GENERATORS:
        for _ in range(20):
            b = ss.serialize(t, gen(rng, 3))
            assert ss.encode_graph(ss.decode_graph(b)) == b


def test_float_wire_payload():
    b = ss.serialize(Float, 2.5)
    assert b == _wire(0, [("float", 2.5)])


# ---------------------------------------------------------------------------
# Roundtrips


def test_roundtrip_samples():
    rng = random.Random(32)
    for t, gen in SERIALIZABLE_GENERATORS:
        for _ in range(40):
            v = gen(rng, 3)
            w = ss.deserialize(t, ss.serialize(t, v))
            assert g.equal(t, v, w), render(t)


def test_roundtrip_unicode_text():
    for s in ["", "héllo", "✓ αβγ", "line\nbreak", "\x00nul"]:
        assert ss.deserialize(String, ss.serialize(String, s)) == s
    assert ss.deserialize(Char, ss.serialize(Char, "é")) == "é"
    # A Char is written as its code point, so even a surrogate round-trips.
    assert ss.deserialize(Char, ss.serialize(Char, "\ud800")) == "\ud800"


def test_roundtrip_float_specials():
    for v in [0.0, -0.0, 1e300, -1e-300, float("inf"), float("-inf")]:
        w = ss.deserialize(Float, ss.serialize(Float, v))
        assert w == v
        assert math.copysign(1.0, w) == math.copysign(1.0, v)
    w = ss.deserialize(Float, ss.serialize(Float, float("nan")))
    assert math.isnan(w)


def test_roundtrip_int_extremes():
    for v in [0, -1, 2**63 - 1, -(2**63)]:
        assert ss.deserialize(Int, ss.serialize(Int, v)) == v


def test_roundtrip_bool_and_nat():
    assert ss.deserialize(Bool, ss.serialize(Bool, True)) is True
    assert ss.deserialize(Bool, ss.serialize(Bool, False)) is False
    assert ss.deserialize(pl.Nat, ss.serialize(pl.Nat, 12)) == 12


def test_roundtrip_through_parser():
    e = parse_expr("(let x (cst 1) (add (var x) (neg (cst -2))))")
    assert ss.deserialize(Expr, ss.serialize(Expr, e)) == e


# ---------------------------------------------------------------------------
# Sharing and cycles


def test_shared_list_graph_has_six_nodes():
    xs = [1, 2]
    graph = ss.build_graph(Pair(List(Int), List(Int)), (xs, xs))
    assert len(graph.nodes) == 6
    assert graph.nodes[graph.root] == ss.Block(0, (1, 1))


def test_unshared_equal_lists_do_not_merge():
    # distinct list objects never merge; the interned ints inside do,
    # since sharing is by object identity
    graph = ss.build_graph(Pair(List(Int), List(Int)), ([1, 2], [1, 2]))
    assert len(graph.nodes) == 9
    root = graph.nodes[graph.root]
    assert root.fields[0] != root.fields[1]


def test_empty_tree_constant_is_shared():
    graph = ss.build_graph(pl.Btree(Int), pl.node(pl.EMPTY, 1, pl.EMPTY))
    assert len(graph.nodes) == 3


def test_deserialize_rebuilds_sharing():
    xs = [1, 2]
    for t, v in (
        (Pair(List(Int), List(Int)), (xs, xs)),
        (Array(Array(Int)), [xs, xs]),
    ):
        w = ss.deserialize(t, ss.serialize(t, v))
        assert w == v
        assert w[0] is w[1]


def test_convert_mirrors_input_sharing():
    xs = [1, 2]
    t = Pair(List(Int), List(Int))
    graph = ss.build_graph(t, (xs, xs))
    out, out_root, st = ss.convert(ss.Direction.FROM, t, graph)
    assert len(out.nodes) == len(graph.nodes)
    assert st.descents and max(st.descents.values()) == 1


def test_shared_node_descends_once():
    xs = [1, 2]
    graph = ss.build_graph(Pair(List(Int), List(Int)), (xs, xs))
    st = ss.check_compat(Pair(List(Int), List(Int)), graph)
    assert max(st.descents.values()) == 1
    assert not st.updates


def test_cyclic_list_checks_but_never_materializes():
    graph = ss.ValueGraph([ss.Block(0, (1, 0)), ss.Imm(5)], 0)
    st = ss.check_compat(List(Int), graph)
    assert st.descents == {0: 1, 1: 1}
    assert not st.updates
    with pytest.raises(CyclicValue):
        ss.materialize(List(Int), graph)
    with pytest.raises(CyclicValue):
        ss.deserialize(List(Int), ss.encode_graph(graph))
    with pytest.raises(CyclicValue):
        ss.convert(ss.Direction.FROM, List(Int), graph)


def test_cyclic_polymorphic_field_refused_at_once():
    # Node 0's PolyTree(Pair(a, a)) field loops back to node 0. The
    # checker accepts the loop at PolyTree(_); materializing must not
    # follow it at ever larger Pair^k(Int) types.
    graph = ss.ValueGraph([ss.Block(1, (1, 0)), ss.Block(0, (2,)), ss.Imm(3)], 0)
    data = ss.encode_graph(graph)
    assert len(data) == 51
    ss.check_compat(pl.PolyTree(Int), graph)
    with pytest.raises(CyclicValue):
        ss.materialize(pl.PolyTree(Int), graph)
    with pytest.raises(CyclicValue):
        ss.deserialize(pl.PolyTree(Int), data)


def test_cyclic_polymorphic_recursion_terminates():
    # The node is its own child at PolyTree(a) and PolyTree(Pair(a, a)),
    # so each revisit generalizes the pattern until it stabilizes.
    graph = ss.ValueGraph([ss.Block(1, (0, 0))], 0)
    st = ss.check_compat(pl.PolyTree(Int), graph)
    assert st.updates == {0: 1}
    assert st.first_size == {0: 2}
    assert st.descents == {0: 2}
    assert all(st.updates[n] <= st.first_size[n] for n in st.updates)


# Polymorphic recursion: a PolyTree node at depth k is used at type
# PolyTree(Pair^k(Int)), a tree of 2^k Int leaves held as k+1 shared
# type objects.


def _poly_spine(k, deepest):
    # Leaf 3 shared as every Node's left field; the right fields nest k
    # deep down to the deepest node (nodes from index 2); root last.
    nodes = [ss.Imm(3), ss.Block(0, (0,))] + deepest
    prev = 2
    for _ in range(k):
        nodes.append(ss.Block(1, (1, prev)))
        prev = len(nodes) - 1
    return ss.ValueGraph(nodes, prev)


def _poly_dag(k):
    # Both fields of each Node are the node below, so the node at depth
    # j is used at j + 1 different types.
    nodes = [ss.Imm(1), ss.Block(0, (0,))]
    for _ in range(k):
        nodes.append(ss.Block(1, (len(nodes) - 1, len(nodes) - 1)))
    return ss.ValueGraph(nodes, len(nodes) - 1)


@pytest.mark.parametrize(
    "graph, refused",
    [
        (_poly_spine(60, [ss.Block(0, (0,))]), False),
        (_poly_spine(60, [ss.Block(0, (3,)), ss.Bytes(b"x")]), True),
        (_poly_dag(20), False),
    ],
    ids=["valid-spine-60", "hostile-spine-60", "dag-20"],
)
def test_polymorphic_recursion_cost_is_not_exponential(graph, refused):
    t = pl.PolyTree(Int)
    data = ss.encode_graph(graph)
    for run in (lambda: ss.check_compat(t, graph), lambda: ss.deserialize(t, data)):
        start = time.perf_counter()
        if refused:
            with pytest.raises(Incompatible):
                run()
        else:
            run()
        assert time.perf_counter() - start < 1.0


def test_deep_polymorphic_value_retains_bounded_descriptors():
    t = pl.PolyTree(Int)
    data = ss.encode_graph(_poly_spine(900, [ss.Block(0, (0,))]))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = ss.deserialize(t, data)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert isinstance(value, pl.PolyNode)
    assert len(d._desc_cache) <= d._CACHE_BOUND
    assert retained < 2_000_000


def test_refusing_a_huge_expected_type_gives_a_short_message():
    # A Float where PolyTree(Pair^30(Int)) is due, 30 levels down. The
    # exact type text would run to about 2^31 Ints.
    graph = _poly_spine(30, [ss.Float(1.0)])
    data = ss.encode_graph(graph)
    assert len(data) < 600
    t = pl.PolyTree(Int)
    for run in (lambda: ss.check_compat(t, graph), lambda: ss.deserialize(t, data)):
        start = time.perf_counter()
        with pytest.raises(Incompatible) as e:
            run()
        assert time.perf_counter() - start < 1.0
        assert len(str(e.value)) < 2000
        assert e.value.path == "root" + ".1" * 30
        assert e.value.expected.startswith("PolyTree(Pair(Pair(")
        assert "…" in e.value.expected
        assert e.value.found == "Float"


# The nested datatype T a = L Int | N (T (Pair a Int)) (T (Pair Int a)).
# Its dag(k) nodes each hold the node below twice, and the node at depth
# j is used at 2^j distinct types: a few hundred bytes that would ask
# materialize for millions of values.
Nested = declare("NestedDemo", 1, ("tests",))


@dataclass(frozen=True)
class NestedLeaf:
    n: int


@dataclass(frozen=True)
class NestedNode:
    left: object
    right: object


d.register(Nested, lambda a: d.VariantDesc(
    "NestedDemo",
    ("tests",),
    (
        d.class_constructor(NestedLeaf, (("n", Int),), name="L"),
        d.class_constructor(
            NestedNode,
            (("left", Nested(Pair(a, Int))), ("right", Nested(Pair(Int, a)))),
            name="N",
        ),
    ),
    d.classify_by_class("NestedDemo", {NestedLeaf: ("ncst", 0), NestedNode: ("ncst", 1)}),
))


def test_materialize_budget_refuses_a_small_exponential_graph(tmp_path, capsys):
    graph = _poly_dag(20)  # the same node layout at the nested type
    data = ss.encode_graph(graph)
    assert len(data) == 374
    budget = ss.PAIRS_PER_NODE * len(graph.nodes) + ss.PAIRS_BASE
    path = tmp_path / "dag20.bin"
    path.write_bytes(data)
    runs = {
        "deserialize": lambda: ss.deserialize(Nested(Int), data),
        "materialize": lambda: ss.materialize(Nested(Int), graph),
    }
    for name, run in runs.items():
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as e:
            run()
        assert time.perf_counter() - start < 0.5, name
        assert str(e.value).endswith(
            f"graph of 22 nodes needs more than {budget} (node, type) pairs to materialize"
        )
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, name
    start = time.perf_counter()
    assert cli.main(["validate", "--type", "NestedDemo(Int)", str(path)]) == 9
    assert time.perf_counter() - start < 0.5
    assert "needs more than" in capsys.readouterr().err
    # Small depths stay within the budget and read back.
    small = ss.deserialize(Nested(Int), ss.encode_graph(_poly_dag(6)))
    assert isinstance(small, NestedNode)


def test_materialize_gives_one_object_per_node_and_type():
    # Uses of a node at one type share one object...
    t = Pair(List(Int), List(Int))
    xs = [1, 2]
    a, b = ss.materialize(t, ss.build_graph(t, (xs, xs)))
    assert a == xs and a is b
    # ...and uses at different types get one object each: the spine's
    # one Leaf node is every Node's left field, at a new type per level.
    value = ss.deserialize(
        pl.PolyTree(Int), ss.encode_graph(_poly_spine(5, [ss.Block(0, (0,))]))
    )
    lefts = []
    while isinstance(value, pl.PolyNode):
        lefts.append(value.left)
        value = value.right
    assert [leaf.n for leaf in lefts] == [3] * 5
    assert len({id(leaf) for leaf in lefts}) == 5


def test_errors_raised_inside_a_walk_gain_a_location():
    with pytest.raises(MalformedValue) as e:
        ss.serialize(List(List(Int)), [[1], (2,)])
    assert str(e.value) == "at root.1.0: not a List value: (2,)"
    exn = ss.encode_graph(
        ss.ValueGraph([ss.Block(0, (1, 2)), ss.ExtCon("Nope", ()), ss.Imm(0)], 0)
    )
    with pytest.raises(UnknownConstructor) as e:
        ss.deserialize(List(pl.Exn), exn)
    assert str(e.value) == "at root.0: Exn has no constructor Nope"
    assert e.value.path == "root.0"
    # An error raised outside a walk has no location.
    with pytest.raises(MalformedValue) as e:
        ss.encode_graph(ss.ValueGraph([ss.Imm(0)], 3))
    assert e.value.path is None


# ---------------------------------------------------------------------------
# Checker and materializer agreement


def _verdict(fn, *args):
    try:
        fn(*args)
        return None
    except ReflectixError as e:
        return type(e)


def _mutations(graph):
    for i, n in enumerate(graph.nodes):
        for repl in (
            ss.Imm(999),
            ss.Bytes(b"zz"),
            ss.Bytes(b"\xff"),
            ss.Block(3, ()),
            ss.ExtCon("Nope", ()),
        ):
            nodes = list(graph.nodes)
            nodes[i] = repl
            yield ss.ValueGraph(nodes, graph.root)
        if isinstance(n, ss.Block):
            nodes = list(graph.nodes)
            nodes[i] = ss.Block(n.tag + 1, n.fields)
            yield ss.ValueGraph(nodes, graph.root)
            if n.fields:
                nodes = list(graph.nodes)
                nodes[i] = ss.Block(n.tag, n.fields[:-1])
                yield ss.ValueGraph(nodes, graph.root)


def _validate_exit(capsys, tmp_path, t, data):
    f = tmp_path / "blob.bin"
    f.write_bytes(data)
    code = cli.main(["validate", "--type", render(t), str(f)])
    capsys.readouterr()
    return code


def test_checker_and_materializer_agree_on_value_graphs_and_mutations(
    capsys, tmp_path
):
    # Every graph build_graph makes passes the checker, which is why
    # serialize does not run it. materialize gets each mutated graph
    # unchecked, so it must refuse by itself whatever the checker
    # refuses, with the same error class; deserialize and validate
    # give that verdict too.
    rng = random.Random(33)
    for t, gen in SERIALIZABLE_GENERATORS:
        for size in range(9):
            for _ in range(6):
                graph = ss.build_graph(t, gen(rng, size))
                assert _verdict(ss.check_compat, t, graph) is None
                assert _verdict(ss.materialize, t, graph) is None
                for mutated in _mutations(graph):
                    base = _verdict(ss.check_compat, t, mutated)
                    assert _verdict(ss.materialize, t, mutated) == base
                    data = ss.encode_graph(mutated)
                    try:
                        ss.deserialize(t, data)
                    except (Incompatible, CyclicValue) as e:
                        got, want = type(e), cli.EXIT_INCOMPATIBLE
                    except ReflectixError as e:
                        got, want = type(e), cli.exit_code_for(e)
                    else:
                        got, want = None, cli.EXIT_OK
                    assert got == base
                    if rng.random() < 0.02:
                        assert _validate_exit(capsys, tmp_path, t, data) == want


def test_join_order_leniency_is_confined_to_shared_misuse():
    # One parent wants a text node, the other a list, from the same
    # shared child. The checker's verdict depends on which use comes
    # first; deserialize materializes every use and refuses both orders.
    xs = [1, 2]
    graph = ss.build_graph(Pair(List(Int), List(Int)), (xs, xs))
    bad = Pair(String, List(Int))
    assert _verdict(ss.check_compat, bad, graph) is Incompatible
    assert _verdict(ss.check_compat, Pair(List(Int), String), graph) is None
    data = ss.encode_graph(graph)
    for t in (bad, Pair(List(Int), String)):
        assert _verdict(ss.deserialize, t, data) is Incompatible


# ---------------------------------------------------------------------------
# Rejection: wrong types, bad constants, refused representations


def test_deserialize_wrong_type_is_incompatible():
    b = ss.serialize(List(Int), [1, 2])
    with pytest.raises(Incompatible):
        ss.deserialize(List(String), b)
    with pytest.raises(Incompatible):
        ss.deserialize(Int, b)
    with pytest.raises(Incompatible):
        ss.deserialize(pl.Rtree(Int), b)


def test_deserialize_takes_any_bytes_like_input_and_refuses_the_rest():
    text = ss.serialize(String, "hi")
    exn = ss.serialize(pl.Exn, pl.failure("boom"))
    for wrap in (bytearray, memoryview):
        assert ss.deserialize(String, wrap(text)) == "hi"
        assert ss.deserialize(pl.Exn, wrap(exn)) == pl.failure("boom")
    released = memoryview(text)
    released.release()
    for data, name in ((5, "int"), (None, "NoneType"), (released, "memoryview")):
        with pytest.raises(MalformedBytes) as e:
            ss.deserialize(Int, data)
        assert e.value.offset == 0
        assert str(e.value) == f"malformed bytes at offset 0: not bytes-like: {name}"


def test_nat_rejects_negative_payload():
    b = ss.encode_graph(ss.ValueGraph([ss.Imm(-1)], 0))
    with pytest.raises(RepresentationRejected):
        ss.deserialize(pl.Nat, b)
    # the To direction converts without consulting the validator
    out, _, _ = ss.convert(
        ss.Direction.TO, pl.Nat, ss.ValueGraph([ss.Imm(-1)], 0)
    )
    assert out.nodes == [ss.Imm(-1)]
    with pytest.raises(RepresentationRejected):
        ss.convert(ss.Direction.FROM, pl.Nat, ss.ValueGraph([ss.Imm(-1)], 0))


def test_variant_tag_bounds():
    with pytest.raises(Incompatible):
        ss.deserialize(Bool, ss.encode_graph(ss.ValueGraph([ss.Imm(3)], 0)))
    with pytest.raises(Incompatible):
        ss.deserialize(
            List(Int), ss.encode_graph(ss.ValueGraph([ss.Imm(1)], 0))
        )
    with pytest.raises(Incompatible):
        ss.deserialize(
            Expr, ss.encode_graph(ss.ValueGraph([ss.Block(7, ())], 0))
        )


def test_constructor_arity_bounds():
    b = ss.encode_graph(ss.ValueGraph([ss.Block(0, ())], 0))
    with pytest.raises(Incompatible):
        ss.deserialize(List(Int), b)
    rt = Pair(Int, Int)
    one_field = ss.encode_graph(ss.ValueGraph([ss.Block(0, (1,)), ss.Imm(1)], 0))
    with pytest.raises(Incompatible):
        ss.deserialize(rt, one_field)


def test_char_code_bounds():
    for code in (-5, 0x110000):
        b = ss.encode_graph(ss.ValueGraph([ss.Imm(code)], 0))
        with pytest.raises(Incompatible):
            ss.deserialize(Char, b)


def test_unknown_extensible_constructor():
    b = ss.encode_graph(ss.ValueGraph([ss.ExtCon("Nope", ())], 0))
    with pytest.raises(UnknownConstructor):
        ss.deserialize(pl.Exn, b)


def test_string_must_be_utf8():
    b = ss.encode_graph(ss.ValueGraph([ss.Bytes(b"\xff\xfe")], 0))
    with pytest.raises(Incompatible):
        ss.deserialize(String, b)


def test_serialize_rejects_foreign_host_values():
    with pytest.raises(MalformedValue):
        ss.serialize(Int, "seven")
    with pytest.raises(MalformedValue):
        ss.serialize(Int, True)
    with pytest.raises(Incompatible):
        ss.serialize(Int, 2**70)
    with pytest.raises(MalformedValue):
        ss.serialize(Char, "ab")
    # A lone surrogate has no UTF-8 form.
    with pytest.raises(MalformedValue, match=r"at root\.1: .*UTF-8"):
        ss.serialize(Pair(Int, String), (1, "a\udfffb"))


def test_encode_graph_validates():
    with pytest.raises(MalformedValue):
        ss.encode_graph(ss.ValueGraph([ss.Imm(0)], 3))
    with pytest.raises(MalformedValue):
        ss.encode_graph(ss.ValueGraph([ss.Block(0, (5,))], 0))
    with pytest.raises(MalformedValue):
        ss.encode_graph(ss.ValueGraph([ss.Imm(2**63)], 0))


def test_encode_graph_refuses_hand_built_nodes_of_the_wrong_shape():
    # decode_graph never builds these; only a graph made in Python can.
    for node in (ss.Block(-1, ()), ss.Float("x"), ss.Bytes("str")):
        with pytest.raises(MalformedValue, match="cannot encode"):
            ss.encode_graph(ss.ValueGraph([node], 0))


def test_read_rules_refuse_payloads_decode_graph_never_builds():
    imm = ss.ValueGraph([ss.Imm("x")], 0)
    with pytest.raises(Incompatible) as e:
        ss.materialize(Int, imm)
    assert str(e.value) == "at root: expected Int, found Imm(value='x')"
    with pytest.raises(Incompatible):
        ss.materialize(Char, imm)
    block = ss.ValueGraph([ss.Block(0, 5)], 0)
    for walk in (ss.materialize, ss.check_compat):
        for t in (List(Int), Pair(Int, Int), Expr, Array(Int)):
            with pytest.raises(Incompatible, match=r"found Block\(tag=0, fields=5\)"):
                walk(t, block)


@pytest.mark.parametrize(
    "graph, ref",
    [
        (ss.ValueGraph([ss.Block(0, (5, 0))], 0), "5"),
        (ss.ValueGraph([ss.Block(0, ("a", 0))], 0), "a"),
        # A negative reference would index from the end and read node 0
        # as the head.
        (ss.ValueGraph([ss.Imm(3), ss.Block(0, (-2, 1))], 1), "-2"),
    ],
    ids=["past-the-end", "not-an-int", "negative"],
)
def test_walks_refuse_references_outside_a_hand_built_graph(graph, ref):
    n = len(graph.nodes)
    for walk in (ss.materialize, ss.check_compat):
        with pytest.raises(MalformedValue) as e:
            walk(List(Int), graph)
        assert str(e.value) == f"at root.0: node reference {ref} outside graph of {n} nodes"
    with pytest.raises(MalformedValue, match="^at root: node reference 7 outside"):
        ss.materialize(List(Int), graph, 7)


# ---------------------------------------------------------------------------
# Hostile bytes


def test_truncations_all_rejected_with_offsets():
    b = ss.serialize(List(Int), [1, 2])
    for cut in range(len(b)):
        with pytest.raises(MalformedBytes) as e:
            ss.decode_graph(b[:cut])
        assert 0 <= e.value.offset <= cut


def test_trailing_bytes_rejected():
    b = ss.serialize(Int, 42)
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(b + b"\x00")
    assert "trailing" in e.value.reason
    assert e.value.offset == len(b)


def test_bad_magic():
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(b"XXXX" + b"\x00" * 20)
    assert e.value.offset == 0


def test_unknown_node_kind():
    data = ss.MAGIC + struct.pack("<II", 0, 1) + b"\x07"
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert e.value.offset == 12
    assert "kind" in e.value.reason


def test_empty_graph_rejected():
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(ss.MAGIC + struct.pack("<II", 0, 0))
    assert "empty" in e.value.reason


def test_huge_node_count_rejected_before_allocation():
    data = ss.MAGIC + struct.pack("<II", 0, 0xFFFFFF) + b"\x00" * 9
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert "count" in e.value.reason


def test_huge_block_arity_rejected_before_allocation():
    data = ss.MAGIC + struct.pack("<II", 0, 1)
    data += b"\x01" + struct.pack("<II", 0, 0x40000000)
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert "arity" in e.value.reason


def test_root_out_of_range():
    data = ss.MAGIC + struct.pack("<II", 1, 1) + b"\x00" + struct.pack("<q", 0)
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert "root" in e.value.reason


def test_reference_out_of_range():
    data = ss.MAGIC + struct.pack("<II", 0, 1)
    data += b"\x01" + struct.pack("<III", 0, 1, 5)
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert "reference" in e.value.reason


def test_extcon_name_must_be_utf8():
    data = ss.MAGIC + struct.pack("<II", 0, 1)
    data += b"\x04" + struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<I", 0)
    with pytest.raises(MalformedBytes) as e:
        ss.decode_graph(data)
    assert "UTF-8" in e.value.reason


@given(data=hst.binary(max_size=300))
@settings(max_examples=400, deadline=None)
def test_fuzz_random_bytes_never_crash(data):
    try:
        ss.decode_graph(data)
    except MalformedBytes:
        return
    for t in (Int, List(Int), Expr, pl.Nat):
        try:
            ss.deserialize(t, data)
        except ReflectixError:
            pass


def test_fuzz_mutated_goldens_never_crash():
    rng = random.Random(35)
    blobs = [c[2] for c in GOLDENS]
    for _ in range(800):
        b = bytearray(rng.choice(blobs))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(b))
            b[i] = rng.randrange(256)
        for t in (Int, List(Int), pl.Btree(Int), pl.Exn, Expr):
            try:
                ss.deserialize(t, bytes(b))
            except ReflectixError:
                pass


@given(
    count=hst.integers(min_value=1, max_value=5),
    seed=hst.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_fuzz_random_graphs_terminate(count, seed):
    rng = random.Random(seed)
    nodes = []
    for _ in range(count):
        k = rng.randrange(5)
        if k == 0:
            nodes.append(ss.Imm(rng.randint(-3, 3)))
        elif k == 1:
            refs = tuple(
                rng.randrange(count) for _ in range(rng.randrange(3))
            )
            nodes.append(ss.Block(rng.randrange(3), refs))
        elif k == 2:
            nodes.append(ss.Bytes(b"ab"))
        elif k == 3:
            nodes.append(ss.Float(1.5))
        else:
            refs = tuple(
                rng.randrange(count) for _ in range(rng.randrange(2))
            )
            nodes.append(ss.ExtCon(rng.choice(["Failure", "Nope"]), refs))
    graph = ss.ValueGraph(nodes, 0)
    data = ss.encode_graph(graph)
    for t in (List(Int), pl.PolyTree(Int), Pair(Int, String), pl.Exn):
        # On a cyclic graph, deserialize terminates by the materializer's
        # own cycle check: it returns a value or raises a library error.
        try:
            ss.deserialize(t, data)
        except ReflectixError:
            pass
        try:
            st = ss.check_compat(t, graph)
        except ReflectixError:
            continue
        assert all(st.updates[n] <= st.first_size[n] for n in st.updates)


# ---------------------------------------------------------------------------
# Depth limits


def _chain_graph(m):
    # m cons cells then nil: even indices are conses, odd are elements
    nodes = []
    for i in range(m):
        nodes.append(ss.Block(0, (2 * i + 1, 2 * i + 2)))
        nodes.append(ss.Imm(i))
    # trailing nil lands at index 2m, fixing up the last cons
    nodes[2 * (m - 1)] = ss.Block(0, (2 * (m - 1) + 1, 2 * m))
    nodes.append(ss.Imm(0))
    return ss.ValueGraph(nodes, 0)


def test_deep_value_hits_depth_limit_not_crash():
    with pytest.raises(DepthLimitExceeded):
        ss.serialize(List(Int), list(range(100_000)))


def test_deep_graph_hits_depth_limit_in_recursive_paths():
    graph = _chain_graph(30_000)
    data = ss.encode_graph(graph)
    assert ss.encode_graph(ss.decode_graph(data)) == data
    with pytest.raises(DepthLimitExceeded):
        ss.check_compat(List(Int), graph)
    with pytest.raises(DepthLimitExceeded):
        ss.deserialize(List(Int), data)


def test_materializer_reaches_the_checkers_depth():
    graph = _chain_graph(800)
    data = ss.encode_graph(graph)
    ss.check_compat(List(Int), graph)
    assert ss.materialize(List(Int), graph) == list(range(800))
    assert ss.deserialize(List(Int), data) == list(range(800))


def test_synonym_cycle_refused_both_ways():
    A = declare("SynCycleA", 0, ("tests",))
    B = declare("SynCycleB", 0, ("tests",))
    d.register(A, lambda: d.SynonymDesc(B, EqualityWitness(B, A)))
    d.register(B, lambda: d.SynonymDesc(A, EqualityWitness(A, B)))
    with pytest.raises(NoDescriptor, match="synonym chain too long"):
        ss.serialize(A, 1)
    with pytest.raises(NoDescriptor, match="synonym chain too long"):
        ss.deserialize(A, ss.serialize(Int, 1))
    with pytest.raises(NoDescriptor, match="synonym chain too long"):
        g.show(A, 1)
    with pytest.raises(NoDescriptor, match="synonym chain too long"):
        g.equal(A, 1, 1)


# ---------------------------------------------------------------------------
# Error locations: the path is the field index taken at each level


def test_nested_serialize_failure_is_located():
    with pytest.raises(Incompatible) as e:
        ss.serialize(List(Int), [1, 2**70])
    assert str(e.value) == (
        "at root.1.0: expected 64-bit integer, found integer "
        "1180591620717411303424"
    )
    assert e.value.path == "root.1.0"
    with pytest.raises(MalformedValue) as e:
        ss.serialize(Pair(Int, List(String)), (1, ["a", "\ud800"]))
    assert str(e.value) == (
        "at root.1.1.0: text is not encodable as UTF-8: '\\ud800'"
    )
    with pytest.raises(MalformedValue) as e:
        ss.serialize(List(Int), [1, 2, (3,)])
    assert str(e.value) == "at root.1.1.0: int expected, got (3,)"


def _float_in_list():
    # [1, 2.0] at List(Int): the second element is a Float node.
    return ss.ValueGraph(
        [ss.Block(0, (1, 2)), ss.Imm(1), ss.Block(0, (3, 4)), ss.Float(2.0), ss.Imm(0)],
        0,
    )


def test_nested_graph_failure_is_located_by_check_and_deserialize():
    graph = _float_in_list()
    data = ss.encode_graph(graph)
    for run in (
        lambda: ss.check_compat(List(Int), graph),
        lambda: ss.materialize(List(Int), graph),
        lambda: ss.deserialize(List(Int), data),
    ):
        with pytest.raises(Incompatible) as e:
            run()
        assert str(e.value) == "at root.1.0: expected Int, found Float"
        assert e.value.path == "root.1.0"
    # The same list as the second field of a pair: its nodes move up by 2.
    shifted = [
        ss.Block(0, tuple(r + 2 for r in n.fields)) if isinstance(n, ss.Block) else n
        for n in graph.nodes
    ]
    pair = ss.ValueGraph([ss.Block(0, (1, 2)), ss.Imm(7)] + shifted, 0)
    with pytest.raises(Incompatible) as e:
        ss.deserialize(Pair(Int, List(Int)), ss.encode_graph(pair))
    assert str(e.value) == "at root.1.1.0: expected Int, found Float"
    assert e.value.path == "root.1.1.0"


def test_rejected_representation_is_located_at_its_own_node():
    # Nat's representation is read at the same node, adding no index.
    data = ss.serialize(List(Int), [1, -2])
    with pytest.raises(RepresentationRejected) as e:
        ss.deserialize(List(pl.Nat), data)
    assert str(e.value) == "at root.1.0: representation rejected"
    assert e.value.path == "root.1.0"


def test_serialize_reaches_three_hundred_cells():
    xs = list(range(300))
    assert ss.deserialize(List(Int), ss.serialize(List(Int), xs)) == xs


def test_check_and_deserialize_reach_nine_hundred_cells():
    graph = _chain_graph(900)
    ss.check_compat(List(Int), graph)
    assert ss.deserialize(List(Int), ss.encode_graph(graph)) == list(range(900))


# ---------------------------------------------------------------------------
# Per-type plans: built once, emptied by registration


def test_plans_follow_registration_and_added_constructors(monkeypatch):
    Box = declare("PlanLateBox", 1, ("tests",))
    t = Box(Int)
    graph = ss.ValueGraph([ss.Block(0, (1,)), ss.Imm(7)], 0)
    blob = ss.encode_graph(graph)
    for run in (
        lambda: ss.serialize(t, (7,)),
        lambda: ss.deserialize(t, blob),
        lambda: ss.check_compat(t, graph),
    ):
        with pytest.raises(NoDescriptor, match=r"no descriptor for PlanLateBox\(Int\)"):
            run()

    def proj(v):
        return v if isinstance(v, tuple) and len(v) == 1 else None

    d.register(
        Box,
        lambda a: d.ProductDesc(
            d.Constructor("PlanLateBox", (d.Field("", a),), tuple, proj)
        ),
    )
    assert ss.serialize(t, (7,)) == blob
    assert ss.deserialize(t, blob) == (7,)
    ss.check_compat(t, graph)
    # Exn's plan is built before the constructor is added; the set it
    # reads from stays open.
    x = pl.failure("before")
    assert ss.deserialize(pl.Exn, ss.serialize(pl.Exn, x)) == x
    monkeypatch.setattr(pl.exn_desc, "_cons", dict(pl.exn_desc._cons))
    late = d.ext_constructor("PlanLateExn", (Int,))
    d.add_con(pl.exn_desc, late)
    y = late.embed((5,))
    assert ss.deserialize(pl.Exn, ss.serialize(pl.Exn, y)) == y
    ss.check_compat(pl.Exn, ss.build_graph(pl.Exn, y))


def test_warm_walks_look_nothing_up(monkeypatch):
    e = Cst(0)
    for i in range(66):
        e = Add(e, Var(f"x{i}"))
    with d._register_lock:
        d._invalidate()
    data = ss.serialize(Expr, e)
    ss.deserialize(Expr, data)
    ss.check_compat(Expr, ss.decode_graph(data))
    calls = []

    def counted(fn):
        def lookup(t):
            calls.append((fn.__name__, t))
            return fn(t)

        return lookup

    monkeypatch.setattr(d, "view_desc", counted(d.view_desc))
    monkeypatch.setattr(d, "try_repr", counted(d.try_repr))
    graph = ss.build_graph(Expr, e)
    assert len(graph.nodes) == 200
    assert ss.deserialize(Expr, ss.serialize(Expr, e)) == e
    ss.check_compat(Expr, graph)
    assert calls == []


def test_constructor_tables_outlive_descriptor_memo_rollover():
    # Each staged memo empties on its own at its bound, and Expr's
    # descriptor is rebuilt with new constructors. Fresh Array^k(Int)
    # types roll over the descriptor, plan and sum-of-products memos
    # while Expr's constructor table stays cached.
    e = Add(Cst(1), Var("x"))
    ss.serialize(Expr, e)
    t = Int
    for _ in range(d._CACHE_BOUND + 44):
        t = Array(t)
        ss.serialize(t, [])
        assert g.equal(t, [], [])
    assert ss.deserialize(Expr, ss.serialize(Expr, e)) == e
    assert g.equal(Expr, e, Add(Cst(1), Var("x")))
    assert not g.equal(Expr, e, Cst(1))
