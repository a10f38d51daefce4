"""Spans around the calls into each layer, recorded from outside.

Each traced function is replaced, in every reflectix module that holds
a reference to it, by a wrapper that opens a span, calls through and
closes it. A span's self time is its duration minus the time covered
by the spans opened inside it; the benchmark's operation is the root
span, so its self time is the part of the operation no layer covers.
Counts that measure work (probes, descents, bytes) are read from the
arguments and results at the same boundary.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from time import perf_counter

from reflectix import effects, extfun
from reflectix.errors import ReflectixError

# (module, function, extra counts read at the boundary)
LAYERS = [
    ("desc", "view_desc", ()),
    ("desc", "try_repr", ()),
    ("desc", "conap", ()),
    ("typerep", "matches", ()),
    ("typerep", "anti_unify", ()),
    ("safeser", "build_graph", ("nodes",)),
    ("safeser", "check_compat", ("descents", "updates")),
    ("safeser", "convert", ("descents",)),
    ("safeser", "materialize", ()),
    ("safeser", "decode_graph", ("bytes",)),
    ("safeser", "encode_graph", ("bytes",)),
    ("uniplate", "scrap", ()),
    ("views", "conlist", ()),
    ("views", "sumprod", ()),
    ("views", "spine", ()),
    ("multiplate", "scrap_m", ()),
    ("generics", "show", ()),
    ("generics", "equal", ()),
    ("exprlang", "const_fold", ()),
    ("exprlang", "simplify", ()),
    ("exprlang", "simplify_more", ()),
    ("exprlang", "free_vars", ()),
    ("exprlang", "abstract_constants", ()),
    ("exprlang", "height", ()),
    ("exprlang", "constants", ()),
    ("exprlang", "parse_expr", ()),
    ("exprlang", "print_expr", ()),
    ("cli", "main", ()),
]
MONAD_FACTORIES = ("identity_monad", "reader_monad", "state_monad", "io_monad")
NAMES = [f"{m}.{f}" for m, f, _ in LAYERS] + ["extfun.apply", "effects.bind"]
EXTRAS = {f"{m}.{f}": extra for m, f, extra in LAYERS}
EXTRAS["extfun.apply"] = ("probes",)
_READ_COUNTS = {f"{m}.{f}" for m, f, extra in LAYERS if extra}


def _extra_counts(name, args, result) -> dict:
    if name == "safeser.build_graph":
        return {"nodes": len(result.nodes)}
    if name == "safeser.check_compat":
        return {"descents": sum(result.descents.values()),
                "updates": sum(result.updates.values())}
    if name == "safeser.convert":
        return {"descents": sum(result[2].descents.values())}
    if name == "safeser.decode_graph":
        return {"bytes": len(args[0])}
    if name == "safeser.encode_graph":
        return {"bytes": len(result)}
    return {}


class Tracer:
    """Span stack, per-layer totals for the current pass, kept spans."""

    def __init__(self, keep_limit: int):
        self.active = False
        self.stack = []  # open frames: [span id, time covered by children]
        self.next_id = 1
        self.op_id = 0
        self.keep = False
        self.keep_limit = keep_limit
        self.kept = 0
        self.spans = {k: array(t) for k, t in
                      (("name", "H"), ("id", "q"), ("parent", "q"), ("op", "q"),
                       ("start", "d"), ("end", "d"))}
        self.probe_pending = False
        self.reset_pass()

    def reset_pass(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.rejected = [0] * len(NAMES)
        self.extra = [dict.fromkeys(EXTRAS.get(n, ()), 0) for n in NAMES]
        self.op_total = 0.0
        self.op_uncovered = 0.0

    def open_op(self, op_id: int):
        self.op_id = op_id
        frame = [0, 0.0]
        self.stack = [frame]
        return frame

    def close_op(self, frame, duration: float):
        self.op_total += duration
        self.op_uncovered += max(0.0, duration - frame[1])
        self.stack = []

    def _close(self, frame, idx, sid, t0):
        t1 = perf_counter()
        stack = self.stack
        while stack and stack[-1] is not frame:
            stack.pop()  # a frame left open by an error deep in the stack
        if stack:
            stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        else:
            parent = -1
        self.self_s[idx] += dur - frame[1]
        if self.keep and self.kept < self.keep_limit:
            self.kept += 1
            s = self.spans
            s["name"].append(idx)
            s["id"].append(sid)
            s["parent"].append(parent)
            s["op"].append(self.op_id)
            s["start"].append(t0)
            s["end"].append(t1)

    def wrap(self, name, fn):
        idx = NAMES.index(name)
        tr = self
        counted = name in _READ_COUNTS
        probes = name == "extfun.apply"

        def traced(*args, **kwargs):
            if not tr.active or not tr.stack:
                return fn(*args, **kwargs)
            tr.calls[idx] += 1
            sid = tr.next_id
            tr.next_id += 1
            frame = [sid, 0.0]
            tr.stack.append(frame)
            if probes:
                tr.probe_pending = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if isinstance(e, ReflectixError):
                    tr.rejected[idx] += 1
                tr._close(frame, idx, sid, t0)
                raise
            tr._close(frame, idx, sid, t0)
            if counted:
                for k, v in _extra_counts(name, args, result).items():
                    tr.extra[idx][k] += v
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever reflectix holds it."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "reflectix" or n.startswith("reflectix."))]
        for mod_name, fn_name, _ in LAYERS:
            orig = getattr(sys.modules[f"reflectix.{mod_name}"], fn_name)
            w = self.wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, w)
        extfun.ExtFun.apply = self.wrap("extfun.apply", extfun.ExtFun.apply)
        select = extfun.ExtFun._select
        apply_idx = NAMES.index("extfun.apply")
        tr = self

        def counting_select(fun, t):
            case = select(fun, t)
            if tr.probe_pending:
                tr.probe_pending = False
                tr.extra[apply_idx]["probes"] += len(fun.last_probes)
            return case

        extfun.ExtFun._select = counting_select
        for factory_name in MONAD_FACTORIES:
            factory = getattr(effects, factory_name)

            def traced_factory(factory=factory):
                m = factory()
                return dataclasses.replace(m, bind=self.wrap("effects.bind", m.bind))

            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is factory:
                        setattr(m, k, traced_factory)

    def pass_totals(self) -> dict:
        """This pass's counts and self times by metric name."""
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.rejected"] = self.rejected[i]
            for k, v in self.extra[i].items():
                out[f"{name}.{k}"] = v
        out["trace.uncovered_share"] = (
            self.op_uncovered / self.op_total if self.op_total else 0.0
        )
        return out

    def write_spans(self, path: str):
        s = self.spans
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tspan\tparent\top\tstart\tend\n")
            for i in range(len(s["id"])):
                f.write(f"{NAMES[s['name'][i]]}\t{s['id'][i]}\t{s['parent'][i]}\t"
                        f"{s['op'][i]}\t{s['start'][i]:.9f}\t{s['end'][i]:.9f}\n")
