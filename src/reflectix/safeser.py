"""Type-checked serialization over explicit value graphs.

Values serialize via an intermediate graph of wire nodes: immediates,
tagged blocks of node references, byte strings, floats, and named
extensible constructors. The graph layer makes sharing and cycles
first class: shared subvalues map to shared nodes, and a node may
reference itself.

Each direction is one walk. serialize builds the graph from the value
by its descriptors and encodes it. deserialize, which never trusts its
input, decodes the bytes into a graph and materializes the value from
it, checking each node at every type it is used at as its value is
built.

One set of rules says what a node must look like at a type: its kind,
tag and arity, the character range, UTF-8 text, and extensible
constructor names. _match_node states them once. The materializer and
the checker both apply them.

The materializer applies the rules at the concrete type of every use
of a node and builds the value, so it is safe on a graph nobody
checked. It refuses cycles (the value layer cannot tie knots) by
noticing when it reaches a node whose own fields it is still building.

The checker, check_compat, builds no value. It walks nodes with type
patterns, generalizing a node's recorded pattern by anti-unification
whenever it is reached again at a different type. A node is
re-examined only when its pattern strictly generalized, which bounds
work per node by the size of the first pattern it was seen at, so
checking terminates even on cyclic graphs presenting a node at
ever-changing types.
"""
from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from typing import Any, Callable, Optional

from . import desc as d
from .errors import (
    CyclicValue,
    DepthLimitExceeded,
    Incompatible,
    MalformedBytes,
    MalformedValue,
    NoDescriptor,
    RepresentationRejected,
)
from .typerep import ANY, TypePattern, TypeRep, anti_unify, pattern_size, render

# ---------------------------------------------------------------------------
# Graph model


@dataclass(frozen=True)
class Imm:
    """A 64-bit signed immediate."""

    value: int


@dataclass(frozen=True)
class Block:
    """A constructor application: tag plus node references."""

    tag: int
    fields: tuple[int, ...]


@dataclass(frozen=True)
class Bytes:
    """An uninterpreted byte string."""

    data: bytes


@dataclass(frozen=True)
class Float:
    """A 64-bit IEEE-754 value."""

    value: float


@dataclass(frozen=True)
class ExtCon:
    """An extensible constructor by name, plus node references."""

    name: str
    fields: tuple[int, ...]


ValueNode = Any  # Imm | Block | Bytes | Float | ExtCon


@dataclass
class ValueGraph:
    """Wire nodes indexed densely from zero, with a root index."""

    nodes: list
    root: int


def node_refs(node: ValueNode) -> tuple[int, ...]:
    if isinstance(node, (Block, ExtCon)):
        return node.fields
    return ()


def node_kind(node: ValueNode) -> str:
    return type(node).__name__


# ---------------------------------------------------------------------------
# Wire format
#
# magic "GVG1", u32 root, u32 node count, then each node as a kind byte
# and payload. All integers little-endian, no padding:
#   0 Imm    i64
#   1 Block  u32 tag, u32 arity, arity x u32 refs
#   2 Bytes  u32 length, raw bytes
#   3 Float  8-byte IEEE-754
#   4 ExtCon u16 name length, UTF-8 name, u32 arity, arity x u32 refs

MAGIC = b"GVG1"
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_U32_MAX = 2**32 - 1


def encode_graph(g: ValueGraph) -> bytes:
    """Serialize a graph; the layout is canonical for a given graph."""
    n = len(g.nodes)
    if not 0 <= g.root < n:
        raise MalformedValue(f"root {g.root} outside graph of {n} nodes")
    out = bytearray(MAGIC)
    out += struct.pack("<II", g.root, n)
    for node in g.nodes:
        if isinstance(node, Imm):
            if not _I64_MIN <= node.value <= _I64_MAX:
                raise MalformedValue(f"immediate {node.value} exceeds 64 bits")
            out += b"\x00" + struct.pack("<q", node.value)
        elif isinstance(node, Block):
            _check_refs(node.fields, n)
            if node.tag > _U32_MAX:
                raise MalformedValue(f"block tag {node.tag} exceeds 32 bits")
            out += b"\x01" + struct.pack("<II", node.tag, len(node.fields))
            out += struct.pack(f"<{len(node.fields)}I", *node.fields)
        elif isinstance(node, Bytes):
            if len(node.data) > _U32_MAX:
                raise MalformedValue("byte string exceeds 32-bit length")
            out += b"\x02" + struct.pack("<I", len(node.data)) + node.data
        elif isinstance(node, Float):
            out += b"\x03" + struct.pack("<d", node.value)
        elif isinstance(node, ExtCon):
            _check_refs(node.fields, n)
            name = node.name.encode("utf-8")
            if len(name) > 0xFFFF:
                raise MalformedValue("constructor name exceeds 16-bit length")
            out += b"\x04" + struct.pack("<H", len(name)) + name
            out += struct.pack("<I", len(node.fields))
            out += struct.pack(f"<{len(node.fields)}I", *node.fields)
        else:
            raise MalformedValue(f"not a graph node: {node!r}")
    return bytes(out)


def _check_refs(refs: tuple[int, ...], n: int) -> None:
    for r in refs:
        if not 0 <= r < n:
            raise MalformedValue(f"node reference {r} outside graph of {n} nodes")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, reason: str) -> MalformedBytes:
        return MalformedBytes(self.pos, reason)

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise self.fail(f"truncated {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def i64(self, what: str) -> int:
        return struct.unpack("<q", self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]


def decode_graph(data: bytes) -> ValueGraph:
    """Parse wire bytes into a graph, validating every structural claim.

    Magic, node kinds, lengths, reference ranges, and the root index
    are all checked; any violation raises MalformedBytes carrying the
    byte offset. Trailing bytes are rejected so that re-encoding a
    decoded graph reproduces the input exactly.
    """
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        r.pos = 0
        raise r.fail("bad magic")
    root = r.u32("root index")
    count = r.u32("node count")
    if count == 0:
        raise r.fail("empty graph")
    # Every node occupies at least one byte; reject absurd counts
    # before allocating anything.
    if count > len(data) - r.pos:
        raise r.fail("node count exceeds payload size")
    if root >= count:
        raise r.fail(f"root {root} outside graph of {count} nodes")
    nodes: list = []
    for _ in range(count):
        kind = r.u8("node kind")
        if kind == 0:
            nodes.append(Imm(r.i64("immediate")))
        elif kind == 1:
            tag = r.u32("block tag")
            arity = r.u32("block arity")
            if arity * 4 > len(data) - r.pos:
                raise r.fail("block arity exceeds payload size")
            refs = struct.unpack(f"<{arity}I", r.take(arity * 4, "block fields"))
            nodes.append(Block(tag, refs))
        elif kind == 2:
            length = r.u32("byte length")
            nodes.append(Bytes(r.take(length, "byte string")))
        elif kind == 3:
            nodes.append(Float(r.f64("float")))
        elif kind == 4:
            name_len = r.u16("name length")
            raw = r.take(name_len, "constructor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise r.fail("constructor name is not UTF-8") from None
            arity = r.u32("constructor arity")
            if arity * 4 > len(data) - r.pos:
                raise r.fail("constructor arity exceeds payload size")
            refs = struct.unpack(
                f"<{arity}I", r.take(arity * 4, "constructor fields")
            )
            nodes.append(ExtCon(name, refs))
        else:
            r.pos -= 1
            raise r.fail(f"unknown node kind {kind}")
    if r.pos != len(data):
        raise r.fail("trailing bytes after graph")
    for node in nodes:
        for ref in node_refs(node):
            if ref >= count:
                raise MalformedBytes(
                    r.pos, f"node reference {ref} outside graph of {count} nodes"
                )
    return ValueGraph(nodes, root)


# ---------------------------------------------------------------------------
# Building graphs from values


class _Builder:
    """Walks a value by its descriptors, emitting graph nodes.

    Sharing is preserved by memoizing on object identity and type, and
    the slot for a value is reserved before its fields are walked, so
    cyclic values (built by mutation) become cyclic graphs instead of
    infinite recursion.
    """

    def __init__(self) -> None:
        self.nodes: list = []
        self._memo: dict[tuple[int, TypeRep], int] = {}
        self._pins: list = []  # keep ids alive while building

    def build(self, t: TypeRep, v: Any, path: str) -> int:
        t, dd, rep = _resolve(t, path)
        key = (id(v), t)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._pins.append(v)
        if rep is not None:
            idx = self.build(rep.repr_ty, rep.to_repr(v), path)
            self._memo[key] = idx
            return idx
        idx = len(self.nodes)
        self.nodes.append(None)
        self._memo[key] = idx
        self.nodes[idx] = self._node_for(dd, t, v, path)
        return idx

    def _node_for(self, dd: d.Desc, t: TypeRep, v: Any, path: str) -> ValueNode:
        if isinstance(dd, d.ScalarDesc):
            d.check_leaf(dd.kind, v, path)
            if dd.kind == "int":
                if not _I64_MIN <= v <= _I64_MAX:
                    raise Incompatible(path, "64-bit integer", f"integer {v}")
                return Imm(v)
            if dd.kind == "char":
                return Imm(ord(v))
            return Float(v)
        if isinstance(dd, d.ArrayLikeDesc):
            if dd.bytes_like:
                d.check_leaf("text", v, path)
                try:
                    return Bytes(v.encode("utf-8"))
                except UnicodeEncodeError:
                    raise MalformedValue(
                        f"at {path}: text is not encodable as UTF-8: {v!r}"
                    ) from None
            n = dd.ops.length(v)
            reps, flat = (dd.elem,) * n, [dd.ops.get(v, i) for i in range(n)]
        elif isinstance(dd, d.RecordDesc):
            reps, flat = [f.ty for f in dd.fields], dd.iso.bck(v)
        elif isinstance(dd, d.ProductDesc):
            reps, flat = dd.shape.reps, dd.iso.bck(v)
        elif isinstance(dd, (d.VariantDesc, d.ExtensibleDesc)):
            ca = d.conap(dd, v)
            con = ca.con
            if isinstance(dd, d.VariantDesc) and con.arity == 0:
                return Imm(dd.cst.index(con))
            reps, flat = [f.ty for f in con.fields], ca.args
        else:
            raise NoDescriptor(f"at {path}: no descriptor for {render(t)}")
        refs = tuple(
            self.build(r, fv, f"{path}.{i}")
            for i, (r, fv) in enumerate(zip(reps, flat))
        )
        if isinstance(dd, d.ExtensibleDesc):
            return ExtCon(con.name, refs)
        if isinstance(dd, d.VariantDesc):
            return Block(dd.ncst.index(con), refs)
        return Block(0, refs)


def build_graph(t: TypeRep, v: Any) -> ValueGraph:
    """The value graph of v at type t, sharing preserved."""
    b = _Builder()
    try:
        root = b.build(t, v, "root")
    except RecursionError:
        raise DepthLimitExceeded("value nests too deeply to serialize") from None
    return ValueGraph(b.nodes, root)


# ---------------------------------------------------------------------------
# Compatibility checking and conversion


class Direction(Enum):
    TO = "to"
    FROM = "from"


@dataclass
class ConvertState:
    """Bookkeeping for one checking walk: each node's joined pattern,
    the (node, pattern) pairs already answered, and work counters."""

    graph: ValueGraph
    visited: dict = dc_field(default_factory=dict)
    memo: set = dc_field(default_factory=set)
    descents: Counter = dc_field(default_factory=Counter)
    updates: Counter = dc_field(default_factory=Counter)
    first_size: dict = dc_field(default_factory=dict)


def _resolve(
    p: TypeRep, path: str
) -> tuple[TypeRep, d.Desc, Optional[d.Representation]]:
    """Follow synonyms from p; return the type reached, its descriptor,
    and its public representation if it is abstract."""
    p, dd = d.follow_synonyms(p)
    if dd is d.NO_DESC:
        raise NoDescriptor(f"at {path}: no descriptor for {render(p)}")
    if not isinstance(dd, d.AbstractDesc):
        return p, dd, None
    rep = d.try_repr(p)
    if rep is None:
        raise NoDescriptor(f"at {path}: {render(p)} has no public representation")
    return p, dd, rep


def _ensure(st: ConvertState, n: int, p: TypePattern, path: str) -> None:
    key = (n, p)
    if p is ANY or key in st.memo:
        return
    st.memo.add(key)
    p2, dd, rep = _resolve(p, path)
    if rep is not None:
        _ensure(st, n, rep.repr_ty, path)
        return
    q = st.visited.get(n)
    if q is None:
        st.first_size[n] = pattern_size(p2)
    else:
        g = anti_unify(q, p2)
        if g == q:
            return
        st.updates[n] += 1
        if g is ANY:
            # The join of the patterns this node is used at constrains
            # nothing; any well-formed node passes.
            st.visited[n] = g
            return
        if g != p2:
            p2, dd = g, d.view_desc(g)
    st.visited[n] = p2
    if p2 is not p:
        st.memo.add((n, p2))
    st.descents[n] += 1
    fields, _ = _match_node(st.graph, n, p2, dd, path)
    for i, (m, fp) in enumerate(fields):
        _ensure(st, m, fp, f"{path}.{i}")


def _arity(path: str, con: d.Constructor, node: ValueNode, what: str) -> None:
    if len(node.fields) != con.arity:
        raise Incompatible(
            path, f"{con.name} with {con.arity} fields", f"{what} {len(node.fields)}"
        )


def _match_node(
    graph: ValueGraph, n: int, p: TypePattern, dd: d.Desc, path: str
) -> tuple[list, Callable[[list], Any]]:
    """The structural rules: what node n must look like at pattern p.

    dd is p's descriptor, already resolved past synonyms and abstract
    types. Raises Incompatible, NoDescriptor or UnknownConstructor when
    the node itself does not fit. Otherwise returns the node's fields,
    as (node, pattern) pairs each field must match in turn, and make,
    which builds the node's value from the values of those fields.
    The checker walks the fields; the materializer also calls make.
    """
    node = graph.nodes[n]
    if isinstance(dd, d.ScalarDesc):
        if dd.kind in ("int", "char"):
            if not isinstance(node, Imm):
                raise Incompatible(path, render(p), node_kind(node))
            value = node.value
            if dd.kind == "char":
                if not 0 <= value <= 0x10FFFF:
                    raise Incompatible(path, "character code", f"Imm {value}")
                return [], lambda _: chr(value)
            return [], lambda _: value
        if not isinstance(node, Float):
            raise Incompatible(path, render(p), node_kind(node))
        return [], lambda _: node.value
    if isinstance(dd, d.ArrayLikeDesc):
        if dd.bytes_like:
            if not isinstance(node, Bytes):
                raise Incompatible(path, render(p), node_kind(node))
            try:
                text = node.data.decode("utf-8")
            except UnicodeDecodeError:
                raise Incompatible(path, "UTF-8 text", "undecodable bytes") from None
            return [], lambda _: text
        if not isinstance(node, Block) or node.tag != 0:
            raise Incompatible(path, render(p), node_kind(node))
        ops = dd.ops
        fields = [(m, dd.elem) for m in node.fields]
        return fields, lambda vs: ops.init(len(vs), vs.__getitem__)
    if isinstance(dd, d.VariantDesc):
        if isinstance(node, Imm):
            if not 0 <= node.value < dd.cst_len:
                raise Incompatible(
                    path,
                    f"{render(p)} constant tag below {dd.cst_len}",
                    f"Imm {node.value}",
                )
            return [], dd.cst_get(node.value).embed
        if not isinstance(node, Block):
            raise Incompatible(path, render(p), node_kind(node))
        if node.tag >= dd.ncst_len:
            raise Incompatible(
                path,
                f"{render(p)} block tag below {dd.ncst_len}",
                f"Block tag {node.tag}",
            )
        con = dd.ncst_get(node.tag)
        _arity(path, con, node, "Block arity")
    elif isinstance(dd, (d.RecordDesc, d.ProductDesc)):
        prod = isinstance(dd, d.ProductDesc)
        reps = dd.shape.reps if prod else [f.ty for f in dd.fields]
        if not isinstance(node, Block) or node.tag != 0:
            raise Incompatible(path, render(p), node_kind(node))
        if len(node.fields) != len(reps):
            raise Incompatible(
                path,
                f"{render(p)} with {len(reps)} fields",
                f"Block arity {len(node.fields)}",
            )
        return list(zip(node.fields, reps)), dd.iso.fwd
    elif isinstance(dd, d.ExtensibleDesc):
        if not isinstance(node, ExtCon):
            raise Incompatible(path, render(p), node_kind(node))
        con = d.ext_find(dd, node.name)
        _arity(path, con, node, "constructor arity")
    else:
        raise NoDescriptor(f"at {path}: no descriptor for {render(p)}")
    fields = [(m, f.ty) for m, f in zip(node.fields, con.fields)]
    return fields, con.embed


def check_compat(t: TypeRep, g: ValueGraph, root: Optional[int] = None) -> ConvertState:
    """Check that the subgraph at root fits type t, building no value.

    Applies _match_node's rules once per node and pattern. Raises
    Incompatible, NoDescriptor, or UnknownConstructor on failure;
    returns the walk state, whose counters record descents and pattern
    updates per node. Neither serialize nor deserialize runs it; it
    gives a verdict without building a value, and convert starts with
    it.

    A node shared between uses at different types is checked at the
    anti-unifier of those types, and the verdict can depend on which use
    comes first: for the blob of (xs, xs), Pair(String, List(Int)) is
    rejected but Pair(List(Int), String) is accepted, because the
    second use generalizes the node's pattern to no constraint. Nor does
    the check refuse cycles or ask an abstract type to accept its
    representation. deserialize refuses all of these, since materialize
    applies the same rules at every use and builds each value.
    """
    st = ConvertState(graph=g)
    try:
        _ensure(st, g.root if root is None else root, t, "root")
    except RecursionError:
        raise DepthLimitExceeded("graph nests too deeply to check") from None
    return st


def convert(
    direction: Direction, t: TypeRep, g: ValueGraph, root: Optional[int] = None
) -> tuple[ValueGraph, int, ConvertState]:
    """Check the subgraph at root against type t and copy it out.

    The To direction runs check_compat. The From direction also runs
    materialize, so it refuses what deserialize refuses: a cycle raises
    CyclicValue, a representation an abstract type refuses raises
    RepresentationRejected. The copy holds the nodes reachable from
    root, renumbered from 0 in breadth-first order, with sharing and
    cycles kept; its root is 0.
    """
    start = g.root if root is None else root
    st = check_compat(t, g, start)
    if direction is Direction.FROM:
        materialize(t, g, start)
    index = {start: 0}
    order = [start]
    for n in order:
        for m in node_refs(g.nodes[n]):
            if m not in index:
                index[m] = len(order)
                order.append(m)
    nodes = [g.nodes[n] for n in order]
    for i, x in enumerate(nodes):
        if isinstance(x, (Block, ExtCon)):
            nodes[i] = replace(x, fields=tuple(index[m] for m in x.fields))
    return ValueGraph(nodes, 0), 0, st


# ---------------------------------------------------------------------------
# Materializing values from graphs


class _Materializer:
    def __init__(self, g: ValueGraph):
        self.graph = g
        self.memo: dict[tuple[int, TypeRep], Any] = {}
        # Nodes whose own fields are being built. Keyed by node alone:
        # a cycle can present its node at ever-new types, so a
        # (node, type) marker might never be met again.
        self.building: set[int] = set()

    def go(self, p: TypeRep, n: int, path: str) -> Any:
        key = (n, p)
        if key in self.memo:
            return self.memo[key]
        if n in self.building:
            raise CyclicValue(f"at {path}: cyclic graph has no value form")
        p2, dd, rep = _resolve(p, path)
        if rep is not None:
            # The representation is on the same node, not yet marked as
            # building; rebuild it and let the abstract type judge it.
            v = rep.from_repr(self.go(rep.repr_ty, n, path))
            if v is None:
                raise RepresentationRejected(path)
        else:
            fields, make = _match_node(self.graph, n, p2, dd, path)
            self.building.add(n)
            # Not a comprehension, which would cost a second frame per level.
            values = []
            for i, (m, fp) in enumerate(fields):
                values.append(self.go(fp, m, f"{path}.{i}"))
            v = make(values)
            self.building.discard(n)
        self.memo[key] = v
        return v


def materialize(
    t: TypeRep, g: ValueGraph, root: Optional[int] = None, path: str = "root"
) -> Any:
    """Rebuild the library value the subgraph at root denotes.

    Applies _match_node's rules to every node at each type it is used
    at, so the graph need not have passed check_compat first, and
    validates each abstract value's representation with from_repr,
    raising RepresentationRejected. Shared nodes come back as shared
    objects. Cyclic graphs raise CyclicValue: the value layer is
    immutable and cannot tie knots.
    """
    m = _Materializer(g)
    try:
        return m.go(t, g.root if root is None else root, path)
    except RecursionError:
        raise DepthLimitExceeded("graph nests too deeply to materialize") from None


# ---------------------------------------------------------------------------
# End-to-end serialization


def serialize(t: TypeRep, v: Any) -> bytes:
    """Encode v at type t.

    build_graph takes each node's kind, tag and arity from the same
    descriptors that deserialize reads them back by, and checks scalars
    and text itself, so the graph is encoded as built.
    """
    return encode_graph(build_graph(t, v))


def deserialize(t: TypeRep, data: bytes) -> Any:
    """Decode the bytes and rebuild a value of type t, in one walk.

    materialize builds the value from the decoded graph, checking each
    node at every type it is used at as its value is built. So a shared
    node used at two clashing types is refused, which check_compat's
    join would let through.

    Malformed bytes raise MalformedBytes with an offset; structurally
    valid graphs of the wrong shape raise Incompatible with a path; a
    representation an abstract type refuses raises
    RepresentationRejected; a cyclic graph raises CyclicValue. No input
    crashes the process.
    """
    return materialize(t, decode_graph(data))
