"""Type representations: construction, matching, ordering, parsing."""

import copy
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from reflectix.errors import ArityMismatch, DepthLimitExceeded, ParseError, UnknownType
from reflectix.typerep import (
    ANY,
    Bool,
    Dyn,
    Float,
    Fun,
    Head,
    Int,
    List,
    Pair,
    Specificity,
    String,
    TypeRep,
    anti_unify,
    brief,
    coerce,
    compare_specificity,
    declare,
    is_ground,
    matches,
    parse_type,
    pattern_key,
    pattern_size,
    render,
    ty_equal,
)


def test_declare_idempotent():
    a = declare("Widget", 1, ("demo",))
    b = declare("Widget", 1, ("demo",))
    assert a(Int).head is b(Int).head


def test_declare_conflicting_arity_rejected():
    declare("Gadget", 2)
    with pytest.raises(ArityMismatch):
        declare("Gadget", 3)


def test_apply_wrong_arity():
    with pytest.raises(ArityMismatch, match=r"^Pair expects 2 arguments, got 1$"):
        TypeRep(Pair(Int, Int).head, (Int,))


def test_construction_interns():
    assert List(Int) is List(Int)
    assert TypeRep(Pair.head, (Int, String)) is Pair(Int, String)
    assert Pair(List(ANY), Int) is Pair(List(ANY), Int)
    assert List(Int) is not List(String)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_the_interned_object(roundtrip):
    for t in (Int, List(Int), Pair(List(ANY), Pair(Int, Int))):
        assert roundtrip(t) is t


def test_typerep_is_immutable():
    t = List(Int)
    with pytest.raises(AttributeError):
        t.head = Int.head
    with pytest.raises(AttributeError):
        t.args = ()
    with pytest.raises(AttributeError):
        del t.args
    assert t.args == (Int,)


def test_threads_building_one_type_get_one_object():
    # Each thread also builds a chain of types no other test made, so
    # the threads race on the inserts, not only on lookups.
    from reflectix.prelude import Btree

    Race = declare("InternRaceDemo", 1, ("tests",))
    barrier = threading.Barrier(4)
    got = [None] * 4

    def build(i):
        barrier.wait()
        chain = [Pair(List(Int), Btree(Int))]
        for _ in range(300):
            chain.append(Race(chain[-1]))
        got[i] = chain

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert got[0][0] is Pair(List(Int), Btree(Int))
    for chain in got[1:]:
        assert all(a is b for a, b in zip(chain, got[0], strict=True))


def test_render_forms():
    assert render(Int) == "Int"
    assert render(Pair(Int, String)) == "Pair(Int, String)"
    assert render(Pair(Int, ANY)) == "Pair(Int, _)"
    assert render(List(Pair(ANY, ANY))) == "List(Pair(_, _))"


def test_matches_basics():
    assert matches(ANY, Int)
    assert matches(Pair(Int, ANY), Pair(Int, String))
    assert not matches(Pair(Int, ANY), Pair(String, Int))
    assert not matches(Int, Float)
    assert matches(List(ANY), List(List(Int)))


def test_specificity_partial_order():
    assert (
        compare_specificity(Pair(Int, Int), Pair(Int, ANY))
        is Specificity.MORE_SPECIFIC
    )
    # Lexicographic: the first differing argument pair decides, so the
    # wildcard-first pattern is the more general of the two.
    assert (
        compare_specificity(Pair(ANY, Int), Pair(Int, ANY))
        is Specificity.MORE_GENERAL
    )
    assert compare_specificity(Int, String) is Specificity.INCOMPARABLE
    assert compare_specificity(ANY, ANY) is Specificity.EQUAL
    assert compare_specificity(Pair(ANY, ANY), ANY) is Specificity.MORE_SPECIFIC


def test_pattern_key_total_order_refines_specificity():
    pats = [
        Pair(Int, Int),
        Pair(Int, ANY),
        Pair(ANY, Int),
        Pair(ANY, ANY),
        Pair(Int, String),
    ]
    for p in pats:
        for q in pats:
            if compare_specificity(p, q) is Specificity.MORE_SPECIFIC:
                assert pattern_key(p) < pattern_key(q), (render(p), render(q))


def test_pattern_size():
    assert pattern_size(Int) == 1
    assert pattern_size(ANY) == 1
    assert pattern_size(Pair(Int, ANY)) == 3
    assert pattern_size(List(Pair(Int, String))) == 4


def test_anti_unify_cases():
    assert anti_unify(Int, Int) == Int
    assert anti_unify(Int, String) is ANY
    assert anti_unify(Pair(Int, Int), Pair(Int, String)) == Pair(Int, ANY)
    assert anti_unify(ANY, Int) is ANY
    assert anti_unify(Pair(Int, Int), List(Int)) is ANY


def _pair_power(k, t):
    for _ in range(k):
        t = Pair(t, t)
    return t


def test_anti_unify_on_shared_types():
    # Pair^40 is a DAG of 41 objects standing for a tree of 2^41 - 1
    # nodes; generalizing it must follow the DAG, not the tree.
    g = anti_unify(_pair_power(40, Int), _pair_power(40, String))
    assert pattern_size(g) == 2**41 - 1
    depth = 0
    while g is not ANY:
        assert g.head == Pair.head and g.args[0] is g.args[1]
        g = g.args[0]
        depth += 1
    assert depth == 40


def test_anti_unify_generalizes_both_sides():
    p = Pair(List(Int), String)
    q = Pair(List(String), String)
    g = anti_unify(p, q)
    assert matches(g, p) and matches(g, q)


def test_ty_equal_and_coerce():
    w = ty_equal(List(Int), List(Int))
    assert w is not None
    assert ty_equal(List(Int), List(String)) is None
    assert coerce(Int, Int, 5) == 5
    assert coerce(Int, String, 5) is None


def test_dyn_holds_rep_and_value():
    d = Dyn(List(Int), [1, 2])
    assert d.rep == List(Int)
    assert d.value == [1, 2]


def test_parse_type_round_trips_rendering():
    for t in [Int, Pair(Int, String), List(Pair(ANY, Bool)), Fun(Int, Int)]:
        assert parse_type(render(t)) == t


def test_parse_type_whitespace_and_nesting():
    assert parse_type(" Pair( Int , List(String) ) ") == Pair(
        Int, List(String)
    )


def test_parse_type_errors():
    with pytest.raises(UnknownType):
        parse_type("Bogus")
    with pytest.raises(ParseError):
        parse_type("Pair(Int")
    with pytest.raises(ParseError):
        parse_type("Pair(Int, String) trailing")
    with pytest.raises(UnknownType):
        parse_type("Pair(Int)")


def test_parse_type_refuses_deep_text_with_a_library_error():
    with pytest.raises(DepthLimitExceeded, match="type nests too deeply to parse"):
        parse_type("List(" * 3000 + "Int" + ")" * 3000)
    assert parse_type("List(" * 200 + "Int" + ")" * 200).size == 201


def test_is_ground():
    assert is_ground(Pair(Int, String))
    assert not is_ground(Pair(Int, ANY))
    assert not is_ground(ANY)


# A small universe of patterns for order-theoretic properties.
def _pattern_strategy():
    leaves = st.sampled_from([Int, String, Float, Bool])
    anyp = st.just(ANY)

    def extend(children):
        return st.one_of(
            st.builds(lambda a: List(a), children),
            st.builds(lambda a, b: Pair(a, b), children, children),
        )

    return st.recursive(st.one_of(leaves, anyp), extend, max_leaves=6)


@given(_pattern_strategy(), _pattern_strategy())
def test_anti_unify_is_least_upper_bound_ish(p, q):
    g = anti_unify(p, q)
    if isinstance(p, TypeRep):
        assert matches(g, p) or g is ANY
    if isinstance(q, TypeRep):
        assert matches(g, q) or g is ANY


@given(_pattern_strategy(), _pattern_strategy())
def test_pattern_key_consistent_with_specificity(p, q):
    rel = compare_specificity(p, q)
    if rel is Specificity.MORE_SPECIFIC:
        assert pattern_key(p) < pattern_key(q)
    elif rel is Specificity.MORE_GENERAL:
        assert pattern_key(p) > pattern_key(q)
    elif rel is Specificity.EQUAL:
        assert pattern_key(p) == pattern_key(q)


@given(_pattern_strategy())
def test_anti_unify_idempotent(p):
    assert anti_unify(p, p) == p


def test_head_identity_is_name_module_arity():
    h1 = Head("T", ("m",), 1)
    h2 = Head("T", ("m",), 1)
    assert h1 == h2 and hash(h1) == hash(h2)
    assert Head("T", ("other",), 1) != h1


def _pair_power(k, leaf):
    p = leaf
    for _ in range(k):
        p = Pair(p, p)
    return p


def test_ground_and_specificity_are_linear_in_distinct_subterms():
    # Pair^40(Int) is 41 objects but a tree of 2^40 leaves.
    p, q = _pair_power(40, Int), _pair_power(40, ANY)
    start = time.perf_counter()
    assert is_ground(p) and not is_ground(q)
    assert not is_ground(Pair(p, Pair(Int, ANY)))
    assert compare_specificity(p, p) is Specificity.EQUAL
    assert compare_specificity(p, q) is Specificity.MORE_SPECIFIC
    assert compare_specificity(q, p) is Specificity.MORE_GENERAL
    assert compare_specificity(Pair(p, Int), Pair(p, String)) is Specificity.INCOMPARABLE
    assert time.perf_counter() - start < 1.0


def test_repr_is_brief_and_render_exact():
    big = _pair_power(40, Int)
    assert len(repr(big)) < 400
    assert repr(big) == brief(big)
    assert brief(big).startswith("Pair(Pair(") and "…" in brief(big)
    mid = _pair_power(6, List(Int))
    assert "…" in brief(mid) and "…" not in render(mid)
    assert parse_type(render(mid)) is mid
    assert repr(List(Pair(Int, ANY))) == "List(Pair(Int, _))"
