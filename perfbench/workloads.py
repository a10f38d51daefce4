"""The four seeded workloads, each a fixed list of operations.

Every operation carries the call to time, the verdict it must reach
(a value passing its check, or an error of a given class) and the
number of term nodes it processes. Sizes are fixed per workload; the
seed only changes values and shapes, so two seeds cost about the same.
All calls go through module attributes, never names imported from
reflectix, so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

from reflectix import cli, exprlang, generics, multiplate, prelude, safeser, uniplate
from reflectix.errors import (
    CyclicValue,
    Incompatible,
    MalformedBytes,
    ReflectixError,
    RepresentationRejected,
)
from reflectix.typerep import Array, Int, List, Pair, String

import oracles as orc

Expr = exprlang.Expr
Cst, Neg, Add, Sub, Var, Let = (
    exprlang.Cst, exprlang.Neg, exprlang.Add, exprlang.Sub, exprlang.Var, exprlang.Let,
)
REF = orc.ExprRef(Cst, Neg, Add, Sub, Var, Let)
Btree, Rtree, Nat, Exn, PolyTree = (
    prelude.Btree, prelude.Rtree, prelude.Nat, prelude.Exn, prelude.PolyTree,
)
NAMES = ("x", "y", "z", "w", "k")


class Op:
    """One timed call and the verdict it must reach.

    expect is None when the call must return a value accepted by
    check, or the ReflectixError subclass the call must raise.
    """

    __slots__ = ("kind", "type", "run", "check", "expect", "nodes")

    def __init__(self, kind, type_name, run, nodes, check=None, expect=None):
        self.kind = kind
        self.type = type_name
        self.run = run
        self.check = check
        self.expect = expect
        self.nodes = nodes


# ---------------------------------------------------------------------------
# Generators


def _cap(h: int) -> int:
    return 2**h - 1


def _kinds(rng: random.Random, n: int, cycle: tuple) -> list:
    """n kinds in the fixed proportions of cycle, in random order."""
    out = [cycle[i % len(cycle)] for i in range(n)]
    rng.shuffle(out)
    return out


def gen_expr(rng: random.Random, size: int, max_depth: int):
    """An Expr tree of exactly size constructors and height <= max_depth.

    The shape is random. Given the shape, binary nodes are Let, Add and
    Sub in the ratio 1:2:2 and leaves Cst and Var in the ratio 3:2, so
    seeds change the arrangement and not the mix.
    """
    if not 1 <= size <= _cap(max_depth):
        raise ValueError(f"no tree of {size} nodes within height {max_depth}")

    def shape(n: int, h: int):
        if n == 1:
            return ()
        sub = _cap(h - 1)
        lo, hi = max(1, n - 1 - sub), min(n - 2, sub)
        if n - 1 <= sub and (lo > hi or rng.random() < 0.3):
            return (shape(n - 1, h - 1),)
        a = rng.randint(lo, hi)
        return (shape(a, h - 1), shape(n - 1 - a, h - 1))

    tree = shape(size, max_depth)
    counts, stack = [0, 0, 0], [tree]  # leaves, unary, binary
    while stack:
        node = stack.pop()
        counts[len(node)] += 1
        stack.extend(node)
    leaves = _kinds(rng, counts[0], ("cst", "var", "cst", "var", "cst"))
    binary = _kinds(rng, counts[2], ("let", "add", "sub", "add", "sub"))

    def build(node):
        if not node:
            if leaves.pop() == "cst":
                return Cst(rng.randint(-50, 50))
            return Var(rng.choice(NAMES))
        if len(node) == 1:
            return Neg(build(node[0]))
        kind = binary.pop()
        left, right = build(node[0]), build(node[1])
        if kind == "let":
            return Let(rng.choice(NAMES), left, right)
        return Add(left, right) if kind == "add" else Sub(left, right)

    return build(tree)


def gen_btree(rng: random.Random, n: int):
    """A search tree of n distinct keys inserted in random order."""
    keys = rng.sample(range(10 * n), n)

    def insert(t, k):
        if not isinstance(t, prelude.BtreeNode):
            return prelude.leaf(k)
        if k < t.value:
            return prelude.node(insert(t.left, k), t.value, t.right)
        return prelude.node(t.left, t.value, insert(t.right, k))

    t = prelude.EMPTY
    for k in keys:
        t = insert(t, k)
    return t


def gen_rose(rng: random.Random, n: int, fanout: int = 4):
    """A rose tree of exactly n nodes, each with at most fanout children."""
    root = prelude.Rose(rng.randint(0, 99), [])
    open_nodes = [root]
    for _ in range(n - 1):
        parent = rng.choice(open_nodes)
        child = prelude.Rose(rng.randint(0, 99), [])
        parent.children.append(child)
        open_nodes.append(child)
        if len(parent.children) == fanout:
            open_nodes.remove(parent)
    return root


def neg_chain(depth: int, c: int):
    e = Cst(c)
    for _ in range(depth):
        e = Neg(e)
    return e


# ---------------------------------------------------------------------------
# Child relations for the reference family_dyn


def expr_args(e) -> list:
    if isinstance(e, Cst):
        return [("Int", e.value)]
    if isinstance(e, Var):
        return [("String", e.name)]
    if isinstance(e, Let):
        return [("String", e.name), ("Expr", e.defn), ("Expr", e.body)]
    return [("Expr", k) for k in REF.kids(e)]


def typed_args(t: str, x) -> list:
    if t == "Expr":
        return expr_args(x)
    if t == "Btree":
        if isinstance(x, prelude.BtreeNode):
            return [("Btree", x.left), ("Int", x.value), ("Btree", x.right)]
        return []
    if t == "Rtree":
        return [("Int", x.attr), ("List(Rtree)", x.children)]
    if t == "List(Rtree)":
        return [("Rtree", x[0]), ("List(Rtree)", x[1:])] if x else []
    return []


def same_typed_children(t: str, x) -> list:
    return [v for ty, v in typed_args(t, x) if ty == t]


def _family_dyn_check(t_name: str, v):
    expected = orc.family_dyn_ref(t_name, v, typed_args)

    def check(out) -> bool:
        if len(out) != len(expected):
            return False
        for dyn, (ty, x) in zip(out, expected):
            if _type_name(dyn.rep) != ty or not _same_value(dyn.value, x):
                return False
        return True

    return check


def _type_name(rep) -> str:
    name = rep.head.name
    if name == "List":
        return f"List({rep.args[0].head.name})"
    return name


def _same_value(a, b) -> bool:
    if isinstance(a, (int, str)):
        return a == b
    return a is b or a == b


def _identical_list(expected: list):
    return lambda out: len(out) == len(expected) and all(
        a is b for a, b in zip(out, expected)
    )


# ---------------------------------------------------------------------------
# wire: the serializer's accept path on a mixed corpus


def _paths_shared(v, a, b) -> bool:
    return _at(v, a) is _at(v, b)


def _at(v, path):
    for attr in path:
        v = getattr(v, attr)
    return v


def wire_ops(seed: int) -> list:
    rng = random.Random(seed)
    items = []  # (type, type name, value, shared path pairs)
    for depth in range(2, 11):
        for _ in range(2):
            size = min(_cap(depth), 5 * depth)
            items.append((Expr, "Expr", gen_expr(rng, size, depth), ()))
    for i, size in enumerate((6, 10, 14, 20)):
        s = gen_expr(rng, size, 6)
        if i % 2:
            items.append((Expr, "Expr", Add(s, Neg(s)), ((("left",), ("right", "expr")),)))
        else:
            name = rng.choice(NAMES)
            term = Let(name, s, Add(s, Var(name)))
            items.append((Expr, "Expr", term, ((("defn",), ("body", "left")),)))
    pair_t = Pair(Int, List(Int))
    for n in (0, 3, 7, 12):
        value = (rng.randint(-999, 999), [rng.randint(-999, 999) for _ in range(n)])
        items.append((pair_t, "Pair(Int,List(Int))", value, ()))
    for n in (7, 15, 31):
        items.append((Btree(Int), "Btree(Int)", gen_btree(rng, n), ()))
    for n in (8, 16):
        items.append((Rtree(Int), "Rtree(Int)", gen_rose(rng, n), ()))
    for _ in range(2):
        items.append((Nat, "Nat", rng.randint(0, 10**6), ()))
    items.append((Exn, "Exn", prelude.failure(f"err{rng.randint(0, 999)}"), ()))
    items.append((Exn, "Exn", prelude.NOT_FOUND_VALUE, ()))

    ops = []
    for t, name, value, shared in items:
        nodes = orc.term_nodes(value)
        cell = [None]

        def ser(t=t, value=value, cell=cell):
            cell[0] = None
            cell[0] = safeser.serialize(t, value)
            return cell[0]

        def de(t=t, cell=cell):
            return safeser.deserialize(t, cell[0])

        def check_back(out, value=value, shared=shared):
            return out == value and all(_paths_shared(out, a, b) for a, b in shared)

        ops.append(Op("serialize", name, ser, nodes, check=_wellformed))
        ops.append(Op("deserialize", name, de, nodes, check=check_back))
    return ops


def _wellformed(blob) -> bool:
    return type(blob) is bytes and not orc.is_malformed(blob)


# ---------------------------------------------------------------------------
# rewrite: traversals, views and passes, no serializer


def rewrite_ops(seed: int, out_dir: str) -> list:
    rng = random.Random(seed + 1_000_003)
    ops = []
    terms = [gen_expr(rng, size, 8) for size in range(9, 64, 3)]
    for e in terms:
        nodes = orc.term_nodes(e)
        copy = orc.clone(e)
        other = _perturb(rng, e)
        folded = REF.const_fold(e)
        simple = REF.simplify(e)
        free = REF.free_vars(e)
        height = REF.height(e)
        consts = REF.constants(e)
        abstracted = REF.abstract_constants(e)
        shown = REF.show(e)
        kids = same_typed_children("Expr", e)
        env = {n: rng.randint(-9, 9) for n in NAMES}
        value = REF.value(e, env)

        def nf_ok(out, env=env, value=value):
            return REF.normal_form_ok(out) and REF.value(out, env) == value

        ops += [
            Op("const_fold", "Expr", lambda e=e: exprlang.const_fold(e), nodes,
               check=lambda out, r=folded: out == r),
            Op("simplify", "Expr", lambda e=e: exprlang.simplify(e), nodes,
               check=lambda out, r=simple: out == r),
            Op("simplify_more", "Expr", lambda e=e: exprlang.simplify_more(e), nodes,
               check=nf_ok),
            Op("free_vars", "Expr", lambda e=e: exprlang.free_vars(e), nodes,
               check=lambda out, r=free: out == r),
            Op("abstract_constants", "Expr", lambda e=e: exprlang.abstract_constants(e),
               nodes, check=lambda out, r=abstracted: tuple(out) == r),
            Op("height", "Expr", lambda e=e: exprlang.height(e), nodes,
               check=lambda out, r=height: out == r),
            Op("constants", "Expr", lambda e=e: exprlang.constants(e), nodes,
               check=lambda out, r=consts: out == r),
            Op("show", "Expr", lambda e=e: generics.show(Expr, e), nodes,
               check=lambda out, r=shown: out == r),
            Op("equal", "Expr", lambda e=e, c=copy: generics.equal(Expr, e, c), nodes,
               check=lambda out: out is True),
            Op("equal", "Expr", lambda e=e, o=other: generics.equal(Expr, e, o), nodes,
               check=lambda out: out is False),
            Op("children_sumprod", "Expr", lambda e=e: generics.children_sumprod(Expr, e),
               nodes, check=_identical_list(kids)),
            Op("children_spine", "Expr", lambda e=e: generics.children_spine(Expr, e),
               nodes, check=_identical_list(kids)),
            Op("children_conlist", "Expr", lambda e=e: generics.children_conlist(Expr, e),
               nodes, check=_identical_list(kids)),
            Op("family_dyn", "Expr", lambda e=e: multiplate.family_dyn(Expr, e), nodes,
               check=_family_dyn_check("Expr", e)),
        ]

    trees = [("Btree", Btree(Int), gen_btree(rng, n)) for n in (10, 25)]
    trees += [("Rtree", Rtree(Int), gen_rose(rng, n)) for n in (10, 25)]
    for name, t, v in trees:
        nodes = orc.term_nodes(v)
        shown = orc.show_btree(v, prelude.BtreeNode) if name == "Btree" else orc.show_rose(v)
        kids = same_typed_children(name, v)
        tname = f"{name}(Int)"
        ops += [
            Op("show", tname, lambda t=t, v=v: generics.show(t, v), nodes,
               check=lambda out, r=shown: out == r),
            Op("equal", tname, lambda t=t, v=v, c=orc.clone(v): generics.equal(t, v, c),
               nodes, check=lambda out: out is True),
            Op("children_sumprod", tname, lambda t=t, v=v: generics.children_sumprod(t, v),
               nodes, check=_identical_list(kids)),
            Op("children_spine", tname, lambda t=t, v=v: generics.children_spine(t, v),
               nodes, check=_identical_list(kids)),
            Op("children_conlist", tname, lambda t=t, v=v: generics.children_conlist(t, v),
               nodes, check=_identical_list(kids)),
            Op("family_dyn", tname, lambda t=t, v=v: multiplate.family_dyn(t, v), nodes,
               check=_family_dyn_check(name, v)),
        ]

    passes = (
        ("const-fold", lambda e: REF.print(REF.const_fold(e)) + "\n"),
        ("simplify", lambda e: REF.print(REF.simplify(e)) + "\n"),
        ("free-vars", lambda e: "".join(f"{v}\n" for v in REF.free_vars(e))),
    )
    for i, (pass_name, expected) in enumerate(passes):
        e = terms[3 * i + 2]
        path = os.path.join(out_dir, f"rewrite-{i}.expr")
        with open(path, "w", encoding="utf-8") as f:
            f.write(REF.print(e) + "\n")
        ops.append(Op("cli demo-expr", "Expr",
                      _cli_call(["demo-expr", "--pass", pass_name, path]),
                      orc.term_nodes(e),
                      check=lambda out, r=expected(e): out == (0, r)))
    return ops


def _perturb(rng: random.Random, e):
    """e with one leaf changed, so that equal must answer False."""
    leaves, stack = [], [(e, ())]
    while stack:
        x, path = stack.pop()
        if isinstance(x, (Cst, Var)):
            leaves.append(path)
        for i, k in enumerate(REF.kids(x)):
            stack.append((k, path + (i,)))
    target = rng.choice(leaves)

    def go(x, path):
        if not path:
            return Cst(x.value + 1) if isinstance(x, Cst) else Var(x.name + "_")
        kids = REF.kids(x)
        kids[path[0]] = go(kids[path[0]], path[1:])
        return REF.rebuild(x, kids)

    return go(e, target)


def _cli_call(argv):
    """Run the command line in process; returns (exit code, stdout)."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return run


# ---------------------------------------------------------------------------
# untrusted: hostile bytes on the decoder's reject path


def untrusted_ops(seed: int, out_dir: str) -> list:
    rng = random.Random(seed + 2_000_029)
    sources = []  # (type, type name, blob)
    for size in (5, 12, 20, 30, 40):
        sources.append((Expr, "Expr", safeser.serialize(Expr, gen_expr(rng, size, 7))))
    for n in (4, 9, 13):
        xs = [rng.randint(-99, 99) for _ in range(n)]
        sources.append((List(Int), "List(Int)", safeser.serialize(List(Int), xs)))
    sources.append((Btree(Int), "Btree(Int)", safeser.serialize(Btree(Int), gen_btree(rng, 12))))
    sources.append((Rtree(Int), "Rtree(Int)", safeser.serialize(Rtree(Int), gen_rose(rng, 9))))
    pair_t = Pair(Int, List(Int))
    sources.append((pair_t, "Pair(Int,List(Int))",
                    safeser.serialize(pair_t, (rng.randint(0, 9), [1, 2, 3]))))
    sources.append((Exn, "Exn", safeser.serialize(Exn, prelude.failure("boom"))))

    ops = []

    def reject(kind, t, name, blob, expect, nodes):
        ops.append(Op(kind, name, lambda t=t, b=blob: safeser.deserialize(t, b),
                      nodes, expect=expect))

    # Which structure a flip breaks, and where a blob is cut, rotate with
    # the source, so that seeds change positions but not the mix of costs.
    for i, (t, name, blob) in enumerate(sources):
        p = orc.parse(blob)
        nodes = len(p.nodes)
        choice = i % 4
        if choice == 0:
            off, bit = rng.randrange(4), rng.randrange(8)
        elif choice == 1:
            off, bit = rng.choice(p.kind_offsets), 7
        elif choice == 2 and p.ref_offsets:
            off, bit = rng.choice(p.ref_offsets) + 3, 7
        else:
            off, bit = 11, 7  # high bit of the node count
        flipped = bytearray(blob)
        flipped[off] ^= 1 << bit
        reject("bitflip", t, name, bytes(flipped), MalformedBytes, nodes)
        cut = len(blob) * (1 + i % 3) // 4
        reject("truncated", t, name, blob[:cut], MalformedBytes, nodes)

    # Valid blobs read at a type whose shape they cannot have.
    wrong = {
        "Expr": (Int, List(Int)),
        "List(Int)": (Expr, String),
        "Btree(Int)": (Rtree(Int),),
        "Rtree(Int)": (Btree(Int),),
        "Pair(Int,List(Int))": (Pair(Int, String),),
        "Exn": (Expr,),
    }
    for t, name, blob in sources:
        for target in wrong[name]:
            reject(f"wrong type {name}", target, f"{target!r}", blob, Incompatible,
                   len(orc.parse(blob).nodes))

    # Cyclic graphs: a polymorphically recursive tree whose nodes point at
    # themselves, and expressions with an edge back to the root.
    for _ in range(3):
        n = rng.randint(0, 99)
        loop = orc.encode([orc.block(1, [0, 1]), orc.block(1, [1, 0]),
                           orc.block(0, [3]), orc.imm(n)])
        reject("cyclic PolyTree", PolyTree(Int), "PolyTree(Int)", loop, CyclicValue, 4)
        self_loop = orc.encode([orc.block(1, [0, 0])])
        reject("cyclic PolyTree", PolyTree(Int), "PolyTree(Int)", self_loop, CyclicValue, 1)
    for _ in range(4):
        c = rng.randint(-9, 9)
        back = orc.encode([orc.block(2, [1, 3]), orc.block(0, [2]), orc.imm(c),
                           orc.block(1, [0])])
        reject("cyclic Expr", Expr, "Expr", back, CyclicValue, 4)

    # Negative naturals, bare and inside a list.
    for _ in range(2):
        k = -rng.randint(1, 10**6)
        reject("negative Nat", Nat, "Nat", orc.encode([orc.imm(k)]),
               RepresentationRejected, 1)
        inner = orc.encode([orc.block(0, [1, 2]), orc.imm(rng.randint(0, 9)),
                            orc.block(0, [3, 4]), orc.imm(k), orc.imm(0)])
        reject("negative Nat", List(Nat), "List(Nat)", inner, RepresentationRejected, 5)

    # Random bytes, with and without the magic.
    for i in range(4):
        raw = bytes(rng.randrange(256) for _ in range(32))
        if raw[:4] == orc.MAGIC:
            raw = b"X" + raw[1:]
        reject("random bytes", Expr, "Expr", raw, MalformedBytes, 1)
        count = 1 + i
        while True:
            body = bytes(rng.randrange(256) for _ in range(24))
            candidate = orc.MAGIC + (rng.randrange(count)).to_bytes(4, "little") + \
                count.to_bytes(4, "little") + body
            if orc.is_malformed(candidate):
                break
        reject("random bytes with magic", Expr, "Expr", candidate, ReflectixError, count)

    # The validate command on hostile files: exit 2 malformed, 3 incompatible.
    for i, (t, name, blob) in enumerate(sources[:4]):
        path = os.path.join(out_dir, f"untrusted-{i}.bin")
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2] if i % 2 == 0 else blob)
        target = "List(Int)" if name == "Expr" else "Expr"
        code = 2 if i % 2 == 0 else 3
        ops.append(Op("cli validate", name, _cli_call(["validate", "--type", target, path]),
                      len(orc.parse(blob).nodes),
                      check=lambda out, code=code: out[0] == code))
    return ops


# ---------------------------------------------------------------------------
# bulk: large and deep inputs on a fixed size ladder

LIST_SIZES = (10, 100, 1000, 10000)
NEG_DEPTHS = (100, 1000, 10000)
ARRAY_SIZE = 10**4
STRING_SIZE = 10**5
# family returns every suffix of a list as its own list, n^2/2 references
# in all: about 400 MB at n = 10^4, so the largest list skips family.


def bulk_ops(seed: int) -> list:
    rng = random.Random(seed + 3_000_017)
    ops = []

    def inc_neg(x):
        if isinstance(x, Neg) and isinstance(x.expr, Cst):
            return Cst(-x.expr.value)
        return x

    def add(t, name, value, copy, blob, read, shown, fam_len, mapped, f, family=True):
        nodes = orc.term_nodes(value)
        decoded = read(orc.parse(blob))
        ops.extend([
            Op("serialize", name, lambda: safeser.serialize(t, value), nodes,
               check=lambda out: read(orc.parse(out)) == decoded),
            Op("deserialize", name, lambda: safeser.deserialize(t, blob), nodes,
               check=lambda out: out == value),
        ])
        if family:
            ops.append(Op("family", name, lambda: uniplate.family(t, value), nodes,
                          check=lambda out: len(out) == fam_len and out[0] is value))
        ops.extend([
            Op("map_family", name, lambda: uniplate.map_family(t, f, value), nodes,
               check=lambda out: out == mapped),
            Op("equal", name, lambda: generics.equal(t, value, copy), nodes,
               check=lambda out: out is True),
            Op("show", name, lambda: generics.show(t, value), nodes,
               check=lambda out: out == shown),
        ])

    arr = [rng.randint(-10**6, 10**6) for _ in range(ARRAY_SIZE)]
    blob = orc.encode([orc.block(0, range(1, ARRAY_SIZE + 1))] + [orc.imm(x) for x in arr])
    add(Array(Int), f"Array(Int) n={ARRAY_SIZE}", arr, list(arr), blob, orc.read_int_array,
        orc.show_int_array(arr), 1, arr, lambda a: a)

    for n in LIST_SIZES:
        xs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        graph = []  # cell i at 2i, its element at 2i + 1, nil last
        for i, x in enumerate(xs):
            graph += [orc.block(0, [2 * i + 1, 2 * i + 2]), orc.imm(x)]
        blob = orc.encode(graph + [orc.imm(0)])
        add(List(Int), f"List(Int) n={n}", xs, list(xs), blob, orc.read_int_list,
            orc.show_int_list(xs), n + 1, xs, lambda c: c, family=n < LIST_SIZES[-1])

    for depth in NEG_DEPTHS:
        c = rng.randint(1, 10**6)
        chain = neg_chain(depth, c)
        graph = [orc.block(1, [i + 1]) for i in range(depth)]
        graph += [orc.block(0, [depth + 1]), orc.imm(c)]
        add(Expr, f"Neg^{depth}", chain, neg_chain(depth, c), orc.encode(graph),
            orc.read_neg_chain, orc.show_neg_chain(depth, c), depth + 1,
            Cst(orc.neg_chain_value(depth, c)), inc_neg)

    text = "".join(rng.choice("abcdefghij") for _ in range(STRING_SIZE))
    add(String, f"String n={STRING_SIZE}", text, "".join(list(text)),
        orc.encode([orc.byts(text.encode("utf-8"))]), orc.read_string,
        f'"{text}"', 1, text, lambda s: s)
    return ops


def build(workload: str, seed: int, out_dir: str) -> list:
    if workload == "wire":
        return wire_ops(seed)
    if workload == "rewrite":
        return rewrite_ops(seed, out_dir)
    if workload == "untrusted":
        return untrusted_ops(seed, out_dir)
    if workload == "bulk":
        return bulk_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("wire", "rewrite", "untrusted", "bulk")
