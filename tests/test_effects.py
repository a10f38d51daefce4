"""Effect interpreters: stock monads, brand safety, traversal order."""

from time import perf_counter

import pytest

from reflectix import effects as fx
from reflectix.errors import BrandMismatch

from effect_laws import run_all_law_suites


def test_identity_round_trip():
    m = fx.identity_monad()
    assert fx.run_identity(m.pure(7)) == 7
    assert fx.run_identity(m.bind(m.pure(3), lambda x: m.pure(x + 1))) == 4


def test_state_incr():
    assert fx.run_state(fx.incr(), 41) == (41, 42)


def test_state_get_put():
    m = fx.state_monad()
    prog = m.bind(
        fx.get_state(),
        lambda s: m.bind(fx.put_state(s * 2), lambda _: m.pure(s)),
    )
    assert fx.run_state(prog, 10) == (10, 20)
    # get/put are the short spellings of the same operations
    assert fx.get is fx.get_state
    assert fx.put is fx.put_state


def test_reader_ask_and_local():
    m = fx.reader_monad()
    assert fx.run_reader(fx.ask(), 5) == 5
    assert fx.run_reader(fx.local(lambda e: e + 1, fx.ask()), 5) == 6
    prog = m.bind(fx.ask(), lambda e: m.pure(e * 10))
    assert fx.run_reader(prog, 3) == 30


def test_const_accumulates_left_to_right():
    a = fx.const_applicative(fx.list_monoid)
    out = fx.traverse_list(
        a, lambda x: fx.Effectful(a.brand, [x]), [1, 2, 3]
    )
    assert fx.get_const(out) == [1, 2, 3]


def test_sum_monoid_dict():
    assert fx.sum_monoid.empty == 0
    assert fx.sum_monoid.combine(3, 4) == 7
    assert fx.list_monoid.empty == []
    assert fx.list_monoid.combine([1], [2]) == [1, 2]
    a = fx.const_applicative(fx.sum_monoid)
    out = fx.sequence_list(a, [fx.Effectful(a.brand, k) for k in (5, 6, 7)])
    assert fx.get_const(out) == 18


def test_traverse_list_effect_order():
    m = fx.state_monad()
    out = fx.traverseM(
        m,
        lambda x: m.bind(fx.incr(), lambda i: m.pure((x, i))),
        ["a", "b", "c"],
    )
    assert fx.run_state(out, 0) == ([("a", 0), ("b", 1), ("c", 2)], 3)


def test_traverse_is_linear_in_the_list():
    n = 10**5
    m = fx.state_monad()
    tick = fx.Effectful(fx.STATE, lambda s: (s, s + 1))
    start = perf_counter()
    prog = fx.traverseM(m, lambda x: tick, range(n))
    assert fx.run_state(prog, 7) == (list(range(7, n + 7)), n + 7)
    assert perf_counter() - start < 1.0
    # The results are chained, not built in place, so a second run of
    # the same computation starts from nothing.
    assert fx.run_state(prog, 0)[0][:3] == [0, 1, 2]
    i = fx.identity_monad()
    assert fx.run_identity(fx.traverseM(i, lambda x: i.pure(-x), range(n)))[-1] == 1 - n
    a = fx.const_applicative(fx.sum_monoid)
    assert fx.get_const(fx.traverse_list(a, lambda x: fx.Effectful(a.brand, x), range(n))) \
        == n * (n - 1) // 2


def test_sequence_monadic():
    m = fx.state_monad()
    assert fx.run_state(fx.sequenceM(m, [fx.incr(), fx.incr()]), 0) == (
        [0, 1],
        2,
    )


def test_liftA2_orders_effects_left_to_right():
    m = fx.state_monad()
    a = fx.app_of_mon(m)
    out = fx.liftA2(a, lambda x, y: (x, y), fx.incr(), fx.incr())
    assert fx.run_state(out, 0) == ((0, 1), 2)


def test_fun_of_app_and_mon():
    m = fx.identity_monad()
    fd = fx.fun_of_mon(m)
    assert fd.brand is m.brand
    assert fx.run_identity(fd.fmap(lambda x: x + 1, m.pure(1))) == 2
    a = fx.const_applicative(fx.sum_monoid)
    fd2 = fx.fun_of_app(a)
    assert fx.get_const(fd2.fmap(lambda x: x, fx.Effectful(a.brand, 9))) == 9


def test_io_defers_until_run():
    log = []
    m = fx.io_monad()
    prog = m.bind(
        fx.embed_io(lambda: (log.append("a"), 1)[1]),
        lambda x: fx.embed_io(lambda: (log.append("b"), x + 1)[1]),
    )
    assert log == []
    assert fx.run_io(prog) == 2
    assert log == ["a", "b"]
    # each run re-executes the effects
    assert fx.run_io(prog) == 2
    assert log == ["a", "b", "a", "b"]


def test_reader_state_and_io_run_deep_binds_without_recursing():
    n = 10_000

    def left_nested(m, prim):
        v = m.pure(0)
        for _ in range(n):
            v = m.bind(v, lambda x: m.bind(prim, lambda y: m.pure(x + y)))
        return v

    def right_nested(m, prim):
        def after(i, total):
            def k(x):
                if i == n:
                    return m.pure(total + x)
                return m.bind(prim, after(i + 1, total + x))

            return k

        return m.bind(prim, after(1, 0))

    cases = [
        (fx.reader_monad(), fx.ask(), lambda v: fx.run_reader(v, 1), n),
        (fx.state_monad(), fx.incr(), lambda v: fx.run_state(v, 0),
         (n * (n - 1) // 2, n)),
        (fx.io_monad(), fx.embed_io(lambda: 1), fx.run_io, n),
    ]
    for m, prim, run, want in cases:
        for build in (left_nested, right_nested):
            prog = build(m, prim)
            t0 = perf_counter()
            assert run(prog) == want, (m.brand, build.__name__)
            assert perf_counter() - t0 < 1.0, (m.brand, build.__name__)
    m = fx.reader_monad()
    r = fx.ask()
    for _ in range(n):
        r = fx.local(lambda e: e + 1, r)
    # The outer environment is back once the local part has run.
    prog = m.bind(r, lambda x: m.bind(fx.ask(), lambda e: m.pure((x, e))))
    t0 = perf_counter()
    assert fx.run_reader(prog, 0) == (n, 0)
    assert perf_counter() - t0 < 1.0


def test_brand_mismatch_on_wrong_runner():
    with pytest.raises(BrandMismatch):
        fx.run_identity(fx.ask())
    with pytest.raises(BrandMismatch):
        fx.run_state(fx.embed_io(lambda: 1), 0)
    with pytest.raises(BrandMismatch):
        fx.get_const(fx.identity_monad().pure(1))


def test_brand_mismatch_on_mixed_combination():
    m = fx.identity_monad()
    a = fx.app_of_mon(m)
    with pytest.raises(BrandMismatch):
        a.apply(m.pure(lambda x: x), fx.incr())
    list_a = fx.const_applicative(fx.list_monoid)
    sum_a = fx.const_applicative(fx.sum_monoid)
    with pytest.raises(BrandMismatch):
        list_a.apply(
            fx.Effectful(list_a.brand, []), fx.Effectful(sum_a.brand, 0)
        )


def test_bare_value_is_rejected():
    with pytest.raises(BrandMismatch):
        fx.run_identity(42)


def test_law_suites():
    assert run_all_law_suites() >= 200
