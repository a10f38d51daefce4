"""The public surface: every exported name resolves, and a value that
is not of its type is refused with a ReflectixError at every entry
point that takes values apart."""

import pytest

import reflectix
from reflectix import generics as g
from reflectix import multiplate as mp
from reflectix import prelude as pl
from reflectix import uniplate as up
from reflectix import views as v
from reflectix.errors import MalformedValue
from reflectix.safeser import serialize
from reflectix.typerep import Array, Char, Float, Int, List, Pair, String, Unit


def test_every_exported_name_resolves():
    for name in reflectix.__all__:
        assert hasattr(reflectix, name), name


ENTRY_POINTS = {
    "serialize": serialize,
    "show": g.show,
    "equal": lambda t, x: g.equal(t, x, x),
    "spine": v.spine,
    "scrap": up.scrap,
    "scrap_m": mp.scrap_m,
    "children_sumprod": g.children_sumprod,
    "children_spine": g.children_spine,
    "children_conlist": g.children_conlist,
    "family_dyn": mp.family_dyn,
}

# Traversals treat extensible values and leaves as leaves and never
# look inside, so for Exn, scalars, text and arrays only the entry
# points that take their values apart count.
NON_MEMBER_CASES = [
    (name, t, 5)
    for t in (pl.Rtree(Int), Pair(Int, Int), List(Int), Unit)
    for name in ENTRY_POINTS
] + [
    (name, t, x)
    for t, x in (
        (pl.Exn, 5),
        (Int, "x"),
        (Int, True),
        (String, 5),
        (Char, 7),
        (Float, 1),
        (Array(Int), 5),
    )
    for name in ("serialize", "show", "equal")
]


@pytest.mark.parametrize(
    "name,t,x",
    NON_MEMBER_CASES,
    ids=[
        f"{n}-{t!r}" if x == 5 else f"{n}-{t!r}-{x!r}" for n, t, x in NON_MEMBER_CASES
    ],
)
def test_value_outside_its_type_is_malformed(name, t, x):
    with pytest.raises(MalformedValue):
        ENTRY_POINTS[name](t, x)
