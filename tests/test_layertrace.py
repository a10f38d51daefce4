"""The benchmark's layer tracer still finds what it rebinds.

perfbench/layertrace.py wraps library functions by module and name. A
library change that deletes or renames one of them breaks
`perfbench/run.py --trace 1`; these tests catch that in the suite.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from reflectix import effects, extfun

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves():
    lt = _load_layertrace()
    for mod_name, fn_name, _ in lt.LAYERS:
        mod = importlib.import_module(f"reflectix.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def test_dispatch_and_monad_hooks_exist():
    lt = _load_layertrace()
    assert callable(extfun.ExtFun.apply)
    assert callable(extfun.ExtFun._select)
    assert hasattr(extfun.create("probe"), "last_probes")
    # --trace 1 counts effects.bind by swapping each factory's bind.
    run = {
        "identity_monad": effects.run_identity,
        "reader_monad": lambda v: effects.run_reader(v, None),
        "state_monad": lambda v: effects.run_state(v, 0)[0],
        "io_monad": effects.run_io,
    }
    for name in lt.MONAD_FACTORIES:
        factory = getattr(effects, name, None)
        assert callable(factory), name
        m = factory()
        calls = []

        def bind(v, f, inner=m.bind):
            calls.append(name)
            return inner(v, f)

        traced = dataclasses.replace(m, bind=bind)
        prog = traced.bind(traced.pure(1), lambda x: traced.pure(x + 1))
        assert run[name](prog) == 2 and calls == [name], name
