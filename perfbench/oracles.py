"""Reference results the benchmark checks the library's outputs against.

Nothing here calls into reflectix: the wire format is parsed and
written from its documented layout, and the expression passes, the
rendering of values and the child relations are written out by hand
over the host classes. A wrong library output therefore cannot agree
with its own oracle.
"""

from __future__ import annotations

import struct
from dataclasses import fields, is_dataclass

# ---------------------------------------------------------------------------
# Wire format: magic "GVG1", u32 root, u32 node count, then per node a kind
# byte and payload, little-endian:
#   0 Imm i64 | 1 Block u32 tag, u32 arity, refs | 2 Bytes u32 len, data
#   3 Float f64 | 4 ExtCon u16 name len, name, u32 arity, refs

MAGIC = b"GVG1"


class Malformed(Exception):
    """The bytes are not a well-formed graph; offset of the first fault."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset


def imm(v):
    return ("imm", v)


def block(tag, refs):
    return ("block", tag, tuple(refs))


def byts(data):
    return ("bytes", data)


def encode(nodes, root=0) -> bytes:
    """Bytes of the graph given as ("imm"|"block"|"bytes", ...) tuples."""
    out = bytearray(MAGIC)
    out += struct.pack("<II", root, len(nodes))
    for node in nodes:
        kind = node[0]
        if kind == "imm":
            out += b"\x00" + struct.pack("<q", node[1])
        elif kind == "block":
            refs = node[2]
            out += b"\x01" + struct.pack(f"<II{len(refs)}I", node[1], len(refs), *refs)
        elif kind == "bytes":
            out += b"\x02" + struct.pack("<I", len(node[1])) + node[1]
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    return bytes(out)


class Parsed:
    """A parsed graph plus the offsets of its structural fields."""

    def __init__(self, root, nodes, kind_offsets, ref_offsets):
        self.root = root
        self.nodes = nodes
        self.kind_offsets = kind_offsets
        self.ref_offsets = ref_offsets


def parse(data: bytes) -> Parsed:
    """Parse wire bytes, raising Malformed on any structural fault."""
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise Malformed(pos, "truncated")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4) != MAGIC:
        raise Malformed(0, "bad magic")
    root, count = struct.unpack("<II", take(8))
    if count == 0 or count > len(data) - pos or root >= count:
        raise Malformed(4, "bad header")
    nodes, kind_offsets, ref_offsets = [], [], []
    for _ in range(count):
        kind_offsets.append(pos)
        kind = take(1)[0]
        if kind == 0:
            nodes.append(imm(struct.unpack("<q", take(8))[0]))
        elif kind in (1, 4):
            if kind == 1:
                tag = struct.unpack("<I", take(4))[0]
            else:
                (n,) = struct.unpack("<H", take(2))
                try:
                    tag = take(n).decode("utf-8")
                except UnicodeDecodeError:
                    raise Malformed(pos, "bad name") from None
            (arity,) = struct.unpack("<I", take(4))
            if arity * 4 > len(data) - pos:
                raise Malformed(pos, "arity exceeds payload")
            ref_offsets.extend(range(pos, pos + 4 * arity, 4))
            refs = struct.unpack(f"<{arity}I", take(4 * arity))
            nodes.append(("block" if kind == 1 else "ext", tag, refs))
        elif kind == 2:
            (n,) = struct.unpack("<I", take(4))
            nodes.append(byts(take(n)))
        elif kind == 3:
            nodes.append(("float", struct.unpack("<d", take(8))[0]))
        else:
            raise Malformed(pos - 1, "unknown kind")
    if pos != len(data):
        raise Malformed(pos, "trailing bytes")
    for node in nodes:
        if node[0] in ("block", "ext") and any(r >= count for r in node[2]):
            raise Malformed(pos, "reference out of range")
    return Parsed(root, nodes, kind_offsets, ref_offsets)


def is_malformed(data: bytes) -> bool:
    try:
        parse(data)
    except Malformed:
        return True
    return False


def read_int_list(p: Parsed) -> list:
    """The List(Int) a parsed graph denotes: cons is Block 0, nil Imm 0."""
    out, n = [], p.root
    while p.nodes[n][0] == "block":
        head, n = p.nodes[n][2]
        out.append(p.nodes[head][1])
    return out


def read_int_array(p: Parsed) -> list:
    return [p.nodes[r][1] for r in p.nodes[p.root][2]]


def read_neg_chain(p: Parsed) -> tuple:
    """(depth, constant) of a Neg(...(Cst c)) graph: Neg is tag 1, Cst 0."""
    depth, n = 0, p.root
    while p.nodes[n][1] == 1:
        depth += 1
        n = p.nodes[n][2][0]
    return depth, p.nodes[p.nodes[n][2][0]][1]


def read_string(p: Parsed) -> str:
    return p.nodes[p.root][1].decode("utf-8")


# ---------------------------------------------------------------------------
# Host values


def term_nodes(v) -> int:
    """Values in a term: objects, scalars and list cells (nil included).

    A compound object reached twice (a shared subterm) counts once.
    """
    seen, total, stack = set(), 0, [v]
    while stack:
        x = stack.pop()
        if isinstance(x, (int, float, str, bytes)):
            total += 1
            continue
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, list):
            total += len(x) + 1
            stack.extend(x)
        elif isinstance(x, tuple):
            total += 1
            stack.extend(x)
        elif is_dataclass(x) and type(x).__name__ == "ExtValue":
            total += 1
            stack.append(x.args)
        elif is_dataclass(x):
            total += 1
            stack.extend(getattr(x, f.name) for f in fields(x))
        else:
            total += 1
    return total


def clone(v):
    """A structurally equal copy sharing no compound object with v."""
    if isinstance(v, list):
        return [clone(x) for x in v]
    if isinstance(v, tuple):
        return tuple(clone(x) for x in v)
    if is_dataclass(v) and fields(v):
        return type(v)(*(clone(getattr(v, f.name)) for f in fields(v)))
    return v


def neg_chain_value(depth: int, c: int) -> int:
    """Folding Neg^depth(Cst c) gives Cst(c) or Cst(-c)."""
    return -c if depth % 2 else c


# ---------------------------------------------------------------------------
# Expression passes, by structural recursion over the term classes.
# Terms given to these have bounded depth; the deep chains of the bulk
# workload use the closed forms above.


class ExprRef:
    """Reference semantics of the exprlang passes for the given classes."""

    def __init__(self, Cst, Neg, Add, Sub, Var, Let):
        self.Cst, self.Neg, self.Add, self.Sub, self.Var, self.Let = (
            Cst, Neg, Add, Sub, Var, Let,
        )

    def kids(self, e) -> list:
        if isinstance(e, self.Neg):
            return [e.expr]
        if isinstance(e, (self.Add, self.Sub)):
            return [e.left, e.right]
        if isinstance(e, self.Let):
            return [e.defn, e.body]
        return []

    def rebuild(self, e, kids):
        if isinstance(e, self.Neg):
            return self.Neg(kids[0])
        if isinstance(e, (self.Add, self.Sub)):
            return type(e)(kids[0], kids[1])
        if isinstance(e, self.Let):
            return self.Let(e.name, kids[0], kids[1])
        return e

    def bottom_up(self, f, e):
        return f(self.rebuild(e, [self.bottom_up(f, k) for k in self.kids(e)]))

    def const_fold(self, e):
        C = self.Cst

        def f(x):
            if isinstance(x, (self.Add, self.Sub)) and isinstance(x.left, C) and isinstance(x.right, C):
                sign = 1 if isinstance(x, self.Add) else -1
                return C(x.left.value + sign * x.right.value)
            if isinstance(x, self.Neg) and isinstance(x.expr, C):
                return C(-x.expr.value)
            return x

        return self.bottom_up(f, e)

    def simplify(self, e):
        def f(x):
            if isinstance(x, self.Neg) and isinstance(x.expr, self.Neg):
                return x.expr.expr
            return x

        return self.bottom_up(f, e)

    def normal_form_ok(self, e) -> bool:
        """simplify_more's contract: no Sub and no double Neg survive."""
        stack = [e]
        while stack:
            x = stack.pop()
            if isinstance(x, self.Sub):
                return False
            if isinstance(x, self.Neg) and isinstance(x.expr, self.Neg):
                return False
            stack.extend(self.kids(x))
        return True

    def value(self, e, env):
        """Evaluate with unbound variables read from env."""
        if isinstance(e, self.Cst):
            return e.value
        if isinstance(e, self.Var):
            return env[e.name]
        if isinstance(e, self.Neg):
            return -self.value(e.expr, env)
        if isinstance(e, self.Add):
            return self.value(e.left, env) + self.value(e.right, env)
        if isinstance(e, self.Sub):
            return self.value(e.left, env) - self.value(e.right, env)
        inner = dict(env)
        inner[e.name] = self.value(e.defn, env)
        return self.value(e.body, inner)

    def free_vars(self, e, scope=()):
        if isinstance(e, self.Var):
            return [] if e.name in scope else [e.name]
        if isinstance(e, self.Let):
            scope = scope + (e.name,)
        return [n for k in self.kids(e) for n in self.free_vars(k, scope)]

    def height(self, e) -> int:
        return 1 + max((self.height(k) for k in self.kids(e)), default=0)

    def constants(self, e) -> list:
        out = [e.value] if isinstance(e, self.Cst) else []
        for k in self.kids(e):
            out.extend(self.constants(k))
        return out

    def abstract_constants(self, e):
        """Constants become x0, x1, ... left to right; returns (term, count)."""
        counter = [0]

        def f(x):
            if isinstance(x, self.Cst):
                counter[0] += 1
                return self.Var(f"x{counter[0] - 1}")
            return x

        return self.bottom_up(f, e), counter[0]

    def print(self, e) -> str:
        if isinstance(e, self.Cst):
            return f"(cst {e.value})"
        if isinstance(e, self.Var):
            return f"(var {e.name})"
        if isinstance(e, self.Let):
            return f"(let {e.name} {self.print(e.defn)} {self.print(e.body)})"
        head = {self.Neg: "neg", self.Add: "add", self.Sub: "sub"}[type(e)]
        return "(" + " ".join([head] + [self.print(k) for k in self.kids(e)]) + ")"

    def show(self, e) -> str:
        if isinstance(e, self.Cst):
            return f"Cst ({e.value})"
        if isinstance(e, self.Var):
            return f'Var ("{e.name}")'
        parts = [self.show(k) for k in self.kids(e)]
        if isinstance(e, self.Let):
            parts.insert(0, f'"{e.name}"')
        return f"{type(e).__name__} ({', '.join(parts)})"


def show_int_list(xs) -> str:
    return "[" + "; ".join(str(x) for x in xs) + "]"


def show_int_array(xs) -> str:
    return "[|" + "; ".join(str(x) for x in xs) + "|]"


def show_neg_chain(depth: int, c: int) -> str:
    return "Neg (" * depth + f"Cst ({c})" + ")" * depth


def show_btree(t, Node) -> str:
    if not isinstance(t, Node):
        return "Empty"
    return f"Node ({show_btree(t.left, Node)}, {t.value}, {show_btree(t.right, Node)})"


def show_rose(r) -> str:
    kids = "; ".join(show_rose(c) for c in r.children)
    return f"{{attr = {r.attr}; children = [{kids}]}}"


def family_dyn_ref(t_name: str, v, ref_kids) -> list:
    """Preorder (type name, value) pairs of every constructor argument.

    ref_kids(type name, value) gives a value's typed arguments in
    declaration order; scalars and strings have none.
    """
    out, stack = [], [(t_name, v)]
    while stack:
        t, x = stack.pop()
        out.append((t, x))
        stack.extend(reversed(ref_kids(t, x)))
    return out
