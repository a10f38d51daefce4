"""Type-checked serialization over explicit value graphs.

Values serialize via an intermediate graph of wire nodes: immediates,
tagged blocks of node references, byte strings, floats, and named
extensible constructors. The graph layer makes sharing and cycles
first class: shared subvalues map to shared nodes, and a node may
reference itself.

Each direction is one walk. serialize builds the graph from the value
and encodes it. deserialize, which never trusts its input, decodes the
bytes into a graph and materializes the value from it, checking each
node at every type it is used at as its value is built.

The builder, the checker and the materializer look up one plan per
node: a type's plan, built once (desc.staged), states its descriptor
kind's wire rule in both directions, the node a value is written as
and what a node must look like to be read back (kind and payload
types, tag and arity, the character range, UTF-8 text). Only an
extensible type's constructors are found by name at each node, as the
set stays open.

The materializer applies the rules at the concrete type of every use
of a node and builds the value, so it is safe on a graph nobody
checked. It refuses cycles (the value layer cannot tie knots) by
noticing when it reaches a node whose own fields it is still building,
and a graph that would need more (node, type) pairs than its budget.

The checker, check_compat, builds no value. It walks nodes with type
patterns, generalizing a node's recorded pattern by anti-unification
whenever it is reached again at a different type. A node is
re-examined only when its pattern strictly generalized, which bounds
work per node by the size of the first pattern it was seen at, so
checking terminates even on cyclic graphs presenting a node at
ever-changing types.

Each walk raises without a location. Each level an error unwinds out
of notes its field index, and build_graph, check_compat and
materialize format the path root.i.j once (ReflectixError.locate).
"""
from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from itertools import repeat
from typing import Any, Callable, Iterator, Optional

from . import desc as d
from .errors import (
    BudgetExceeded,
    CyclicValue,
    DepthLimitExceeded,
    Incompatible,
    MalformedBytes,
    MalformedValue,
    NoDescriptor,
    ReflectixError,
    RepresentationRejected,
)
from .typerep import ANY, TypePattern, TypeRep, anti_unify, brief, pattern_size
from .views import closed

# ---------------------------------------------------------------------------
# Graph model


@dataclass(frozen=True, slots=True)
class Imm:
    """A 64-bit signed immediate."""

    value: int


@dataclass(frozen=True, slots=True)
class Block:
    """A constructor application: tag plus node references."""

    tag: int
    fields: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Bytes:
    """An uninterpreted byte string."""

    data: bytes


@dataclass(frozen=True, slots=True)
class Float:
    """A 64-bit IEEE-754 value."""

    value: float


@dataclass(frozen=True, slots=True)
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


# The payload types decode_graph gives each kind of node. A graph built
# in Python may hold others, and every read rule refuses those nodes.
_PAYLOAD = {Imm: (("value", int),), Block: (("tag", int), ("fields", tuple)),
            Bytes: (("data", bytes),), Float: (("value", float),),
            ExtCon: (("name", str), ("fields", tuple))}


def _well_typed(node: ValueNode, cls: type) -> bool:
    """node is a cls whose payload has the types decode_graph gives it."""
    if not isinstance(node, cls):
        return False
    for attr, ty in _PAYLOAD[cls]:
        if not isinstance(getattr(node, attr), ty):
            return False
    return True


def node_kind(node: ValueNode) -> str:
    """The node's kind, or the whole node if its payload has a type
    decode_graph would not give it."""
    ok = type(node) not in _PAYLOAD or _well_typed(node, type(node))
    return type(node).__name__ if ok else d.brief_value(node)


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


def encode_graph(g: ValueGraph) -> bytes:
    """Serialize a graph; the layout is canonical for a given graph."""
    n = len(g.nodes)
    if not 0 <= g.root < n:
        raise MalformedValue(f"root {g.root} outside graph of {n} nodes")
    out = bytearray(MAGIC)
    out += struct.pack("<II", g.root, n)
    try:
        for node in g.nodes:
            if isinstance(node, Imm):
                out += b"\x00" + struct.pack("<q", node.value)
            elif isinstance(node, Block):
                for r in node.fields:
                    _check_ref(r, g.nodes)
                out += b"\x01" + struct.pack("<II", node.tag, len(node.fields))
                out += struct.pack(f"<{len(node.fields)}I", *node.fields)
            elif isinstance(node, Bytes):
                out += b"\x02" + struct.pack("<I", len(node.data)) + node.data
            elif isinstance(node, Float):
                out += b"\x03" + struct.pack("<d", node.value)
            elif isinstance(node, ExtCon):
                for r in node.fields:
                    _check_ref(r, g.nodes)
                name = node.name.encode("utf-8")
                out += b"\x04" + struct.pack("<H", len(name)) + name
                out += struct.pack("<I", len(node.fields))
                out += struct.pack(f"<{len(node.fields)}I", *node.fields)
            else:
                raise MalformedValue(f"not a graph node: {d.brief_value(node)}")
    except (struct.error, TypeError, AttributeError) as e:
        # A value too wide for its field, or of the wrong type, which only
        # a graph built in Python can hold.
        raise MalformedValue(f"cannot encode {d.brief_value(node)}: {e}") from None
    return bytes(out)


def _check_ref(r: Any, nodes: list) -> None:
    """r indexes nodes. A graph built in Python may hold any object as a
    reference, and a negative one would index from the end."""
    if not (isinstance(r, int) and 0 <= r < len(nodes)):
        raise MalformedValue(f"node reference {r} outside graph of {len(nodes)} nodes")


_HEADER = struct.Struct("<II")  # also a Block's tag and arity
_I64 = struct.Struct("<q")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
# Field references by arity, compiled once for the arities most nodes
# have; a wider node compiles its own.
_REFS = tuple(struct.Struct(f"<{k}I") for k in range(16))


def decode_graph(data: bytes) -> ValueGraph:
    """Parse wire bytes into a graph, validating every structural claim.

    One pass over the bytes, each field read in place by a precompiled
    struct. Magic, node kinds, lengths, reference ranges, and the root
    index are all checked; any violation raises MalformedBytes whose
    offset is where the bad field starts: the magic at 0, a truncated
    field where it begins, an unknown kind at its byte, a count or an
    arity claiming more than the bytes left after it, trailing bytes
    where the graph ended. Two offsets differ: a constructor name that
    is not UTF-8 is reported just past the name, and a reference
    outside the graph at the end of the input, since references are
    judged only once every node has decoded. Trailing bytes are
    rejected so that re-encoding a decoded graph reproduces the input
    exactly. Other bytes-like input is copied, anything else refused.
    """
    if type(data) is not bytes:
        try:
            data = bytes(memoryview(data))
        except (TypeError, ValueError):  # ValueError: a released memoryview
            raise MalformedBytes(0, f"not bytes-like: {type(data).__name__}") from None
    end = len(data)
    if end < 4:
        raise MalformedBytes(0, "truncated magic")
    if data[:4] != MAGIC:
        raise MalformedBytes(0, "bad magic")
    if end < 12:
        what = "root index" if end < 8 else "node count"
        raise MalformedBytes(4 if end < 8 else 8, f"truncated {what}")
    root, count = _HEADER.unpack_from(data, 4)
    pos = 12
    if count == 0:
        raise MalformedBytes(pos, "empty graph")
    # Every node occupies at least one byte; reject absurd counts
    # before allocating anything.
    if count > end - pos:
        raise MalformedBytes(pos, "node count exceeds payload size")
    if root >= count:
        raise MalformedBytes(pos, f"root {root} outside graph of {count} nodes")
    nodes: list = []
    append = nodes.append
    bad = None  # the first reference outside the graph
    for _ in range(count):
        if pos >= end:
            raise MalformedBytes(pos, "truncated node kind")
        kind = data[pos]
        pos += 1
        if kind == 0:
            if pos + 8 > end:
                raise MalformedBytes(pos, "truncated immediate")
            append(Imm(_I64.unpack_from(data, pos)[0]))
            pos += 8
        elif kind == 1 or kind == 4:
            if kind == 1:
                if pos + 8 > end:
                    short = pos + 4 > end
                    raise MalformedBytes(pos if short else pos + 4,
                                         "truncated block tag" if short else "truncated block arity")
                head, arity = _HEADER.unpack_from(data, pos)
                pos += 8
                what = "block"
            else:
                if pos + 2 > end:
                    raise MalformedBytes(pos, "truncated name length")
                (name_len,) = _U16.unpack_from(data, pos)
                pos += 2
                if pos + name_len > end:
                    raise MalformedBytes(pos, "truncated constructor name")
                raw = data[pos : pos + name_len]
                pos += name_len
                try:
                    head = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise MalformedBytes(pos, "constructor name is not UTF-8") from None
                if pos + 4 > end:
                    raise MalformedBytes(pos, "truncated constructor arity")
                (arity,) = _U32.unpack_from(data, pos)
                pos += 4
                what = "constructor"
            if arity * 4 > end - pos:
                raise MalformedBytes(pos, f"{what} arity exceeds payload size")
            refs = (_REFS[arity] if arity < len(_REFS)
                    else struct.Struct(f"<{arity}I")).unpack_from(data, pos)
            pos += arity * 4
            # Most nodes have one or two fields: max is a call per node.
            if arity and (refs[0] >= count or refs[-1] >= count
                          or arity > 2 and max(refs) >= count) and bad is None:
                bad = next(r for r in refs if r >= count)
            append(Block(head, refs) if kind == 1 else ExtCon(head, refs))
        elif kind == 2:
            if pos + 4 > end:
                raise MalformedBytes(pos, "truncated byte length")
            (length,) = _U32.unpack_from(data, pos)
            pos += 4
            if pos + length > end:
                raise MalformedBytes(pos, "truncated byte string")
            append(Bytes(data[pos : pos + length]))
            pos += length
        elif kind == 3:
            if pos + 8 > end:
                raise MalformedBytes(pos, "truncated float")
            append(Float(_F64.unpack_from(data, pos)[0]))
            pos += 8
        else:
            raise MalformedBytes(pos - 1, f"unknown node kind {kind}")
    if pos != end:
        raise MalformedBytes(pos, "trailing bytes after graph")
    if bad is not None:
        raise MalformedBytes(pos, f"node reference {bad} outside graph of {count} nodes")
    return ValueGraph(nodes, root)


# ---------------------------------------------------------------------------
# Per-type plans: the wire rule of each descriptor kind, both directions


def _arity(con: d.Constructor, node: ValueNode, what: str) -> None:
    if len(node.fields) != con.arity:
        raise Incompatible(
            f"{con.name} with {con.arity} fields", f"{what} {len(node.fields)}"
        )


def _leaf_rule(u: TypePattern, dd: d.ScalarDesc, *_: Any) -> tuple:
    """A leaf is one node with no fields: Imm for an int or a character
    code, Bytes for UTF-8 text, Float for any other kind."""
    kind = dd.kind
    cls = {"int": Imm, "char": Imm, "text": Bytes}.get(kind, Float)

    def write(b: _Builder, v: Any) -> ValueNode:
        d.check_leaf(kind, v)
        if kind == "int" and not _I64_MIN <= v <= _I64_MAX:
            raise Incompatible("64-bit integer", f"integer {d.brief_value(v)}")
        if kind != "text":
            return cls(ord(v) if kind == "char" else v)
        try:
            return Bytes(v.encode("utf-8"))
        except UnicodeEncodeError:
            why = f"text is not encodable as UTF-8: {d.brief_value(v)}"
            raise MalformedValue(why) from None

    def read(node: ValueNode) -> tuple:
        if not _well_typed(node, cls):
            raise Incompatible(brief(u), node_kind(node))
        if kind == "text":
            try:
                v = node.data.decode("utf-8")
            except UnicodeDecodeError:
                raise Incompatible("UTF-8 text", "undecodable bytes") from None
        elif kind == "char":
            if not 0 <= node.value <= 0x10FFFF:
                raise Incompatible("character code", f"Imm {node.value}")
            v = chr(node.value)
        else:
            v = node.value
        return (), lambda _: v

    return write, read


def _con_rule(u: TypePattern, dd: d.Desc, infos: tuple, split: Callable) -> tuple:
    """A variant's constant constructor is Imm of its tag, and any other
    a Block of its tag and fields; constants and the rest are tagged
    apart, in declaration order. A record or bare product is Block 0 of
    its one constructor's fields. The split of views.closed takes values
    apart, and its entries give tags and field types."""
    variant = isinstance(dd, d.VariantDesc)
    cst = dd.cst if variant else ()
    blocks = [info for info in infos if info.meta.kind != "cst"]

    def write(b: _Builder, v: Any) -> ValueNode:
        info, args = split(v)
        meta = info.meta
        if meta.kind == "cst":
            return Imm(meta.tag)
        return Block(meta.tag, tuple(b._fields(info.tys, args)))

    def read(node: ValueNode) -> tuple:
        if variant and _well_typed(node, Imm):
            if not 0 <= node.value < len(cst):
                raise Incompatible(
                    f"{brief(u)} constant tag below {len(cst)}", f"Imm {node.value}"
                )
            return (), cst[node.value].embed
        if not _well_typed(node, Block) or (not variant and node.tag != 0):
            raise Incompatible(brief(u), node_kind(node))
        if not 0 <= node.tag < len(blocks):
            raise Incompatible(
                f"{brief(u)} block tag below {len(blocks)}", f"Block tag {node.tag}"
            )
        info = blocks[node.tag]
        _arity(info.con, node, "Block arity")
        return zip(node.fields, info.tys), info.con.embed

    return write, read


def _array_rule(u: TypePattern, dd: d.ArrayLikeDesc, *_: Any) -> tuple:
    """An array is Block 0 of its elements."""
    elem = repeat(dd.elem)  # never runs out, so every node can share it

    def write(b: _Builder, v: Any) -> ValueNode:
        return Block(0, tuple(b._fields(elem, d.check_leaf("array", v))))

    def read(node: ValueNode) -> tuple:
        if not _well_typed(node, Block) or node.tag != 0:
            raise Incompatible(brief(u), node_kind(node))
        return zip(node.fields, elem), list

    return write, read


def _extensible_rule(u: TypePattern, dd: d.ExtensibleDesc, *_: Any) -> tuple:
    """An extensible value is ExtCon of its constructor's name and
    fields, the constructor found by name at each node, since add_con
    may add one at any time and empties no cache."""

    def write(b: _Builder, v: Any) -> ValueNode:
        ca = d.conap(dd, v)
        tys = [f.ty for f in ca.con.fields]
        return ExtCon(ca.con.name, tuple(b._fields(tys, ca.args)))

    def read(node: ValueNode) -> tuple:
        if not _well_typed(node, ExtCon):
            raise Incompatible(brief(u), node_kind(node))
        con = d.ext_find(dd, node.name)
        _arity(con, node, "constructor arity")
        return [(m, f.ty) for m, f in zip(node.fields, con.fields)], con.embed

    return write, read


_RULES = {d.ScalarDesc: _leaf_rule, d.ArrayLikeDesc: _array_rule,
          d.ExtensibleDesc: _extensible_rule, d.VariantDesc: _con_rule,
          d.RecordDesc: _con_rule, d.ProductDesc: _con_rule}


@d.staged
def _plan(t: TypePattern) -> tuple:
    """(u, rep, write, read): u is t past its synonyms. An abstract type
    has its public representation as rep, and its values travel as
    rep.repr_ty's. Any other has its kind's rule: write(builder, v) is
    the node v is written as, read(node) checks the node against u and
    returns its fields, as (node, pattern) pairs, and make, which builds
    the value from the fields' values. The rule is handed all that
    views.closed(t) returns."""
    found = closed(t)
    u, dd = found[:2]
    if isinstance(dd, d.AbstractDesc):
        rep = d.try_repr(u)
        if rep is None:
            raise NoDescriptor(f"{brief(u)} has no public representation")
        return u, rep, None, None
    rule = _RULES.get(type(dd))
    if rule is None:
        raise NoDescriptor(f"no descriptor for {brief(u)}")
    return (u, None, *rule(*found))


# ---------------------------------------------------------------------------
# Building graphs from values


class _Builder:
    """Walks a value by its plans, emitting graph nodes.

    Sharing is preserved by memoizing on object identity and type, and
    the slot for a value is reserved before its fields are walked, so
    cyclic values (built by mutation) become cyclic graphs instead of
    infinite recursion.
    """

    def __init__(self) -> None:
        self.nodes: list = []
        self._memo: dict[tuple[int, TypeRep], int] = {}
        self._pins: list = []  # keep ids alive while building

    def build(self, t: TypeRep, v: Any) -> int:
        t, rep, write, _ = _plan(t)
        key = (id(v), t)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._pins.append(v)
        if rep is not None:
            idx = self._memo[key] = self.build(rep.repr_ty, rep.to_repr(v))
            return idx
        idx = self._memo[key] = len(self.nodes)
        self.nodes.append(None)
        self.nodes[idx] = write(self, v)
        return idx

    def _fields(self, reps: Any, flat: Any) -> Iterator[int]:
        # Three frames per level (build, write, this generator): going
        # deeper would pin an O(n) list suffix per cell through _pins.
        for i, (r, fv) in enumerate(zip(reps, flat)):
            try:
                yield self.build(r, fv)
            except ReflectixError as e:
                e.under_field(i)
                raise


def _walk(too_deep: str, go: Callable, *args: Any) -> Any:
    """go(*args), as the entry point of a walk: a RecursionError becomes
    DepthLimitExceeded, and an error raised inside is located."""
    try:
        return go(*args)
    except RecursionError:
        raise DepthLimitExceeded(too_deep) from None
    except ReflectixError as e:
        e.locate()
        raise


def build_graph(t: TypeRep, v: Any) -> ValueGraph:
    """The value graph of v at type t, sharing preserved."""
    b = _Builder()
    root = _walk("value nests too deeply to serialize", b.build, t, v)
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


def _ensure(st: ConvertState, n: int, p: TypePattern) -> None:
    _check_ref(n, st.graph.nodes)
    key = (n, p)
    if p is ANY or key in st.memo:
        return
    st.memo.add(key)
    u, rep, _, read = _plan(p)
    if rep is not None:
        _ensure(st, n, rep.repr_ty)
        return
    q = st.visited.get(n)
    if q is None:
        st.first_size[n] = pattern_size(u)
    else:
        g = anti_unify(q, u)
        if g == q:
            return
        st.updates[n] += 1
        if g is ANY:
            # The join of the patterns this node is used at constrains
            # nothing; any well-formed node passes.
            st.visited[n] = g
            return
        if g != u:
            u, read = g, _plan(g)[3]
    st.visited[n] = u
    if u is not p:
        st.memo.add((n, u))
    st.descents[n] += 1
    fields, _ = read(st.graph.nodes[n])
    for i, (m, fp) in enumerate(fields):
        try:
            _ensure(st, m, fp)
        except ReflectixError as e:
            e.under_field(i)
            raise


def check_compat(t: TypeRep, g: ValueGraph, root: Optional[int] = None) -> ConvertState:
    """Check that the subgraph at root fits type t, building no value.

    Reads each node once per pattern by the pattern's plan. Raises
    Incompatible, NoDescriptor, or UnknownConstructor on failure, and
    MalformedValue on a reference that is not an index of g.nodes;
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
    start = g.root if root is None else root
    _walk("graph nests too deeply to check", _ensure, st, start, t)
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


# Materializing builds one value per (node, type) pair, and a nested
# datatype can use one node at a number of types exponential in its
# depth, so a graph of a few hundred bytes could ask for millions of
# values. The walk refuses a graph of n nodes past
# PAIRS_PER_NODE * n + PAIRS_BASE pairs, raising BudgetExceeded.
PAIRS_PER_NODE = 4
PAIRS_BASE = 1024


class _Materializer:
    def __init__(self, g: ValueGraph):
        self.graph = g
        self.memo: dict[tuple[int, TypeRep], Any] = {}
        self.budget = PAIRS_PER_NODE * len(g.nodes) + PAIRS_BASE
        # Nodes whose own fields are being built. Keyed by node alone:
        # a cycle can present its node at ever-new types, so a
        # (node, type) marker might never be met again.
        self.building: set[int] = set()

    def go(self, p: TypeRep, n: int) -> Any:
        _check_ref(n, self.graph.nodes)
        key = (n, p)
        if key in self.memo:
            return self.memo[key]
        if n in self.building:
            raise CyclicValue("cyclic graph has no value form")
        _, rep, _, read = _plan(p)
        if rep is not None:
            # The representation is on the same node, not yet marked as
            # building; rebuild it and let the abstract type judge it.
            v = rep.from_repr(self.go(rep.repr_ty, n))
            if v is None:
                raise RepresentationRejected("representation rejected")
        else:
            fields, make = read(self.graph.nodes[n])
            self.building.add(n)
            # Not a comprehension, which would cost a second frame per level.
            values = []
            for i, (m, fp) in enumerate(fields):
                try:
                    values.append(self.go(fp, m))
                except ReflectixError as e:
                    e.under_field(i)
                    raise
            v = make(values)
            self.building.discard(n)
        if len(self.memo) >= self.budget:
            raise BudgetExceeded(
                f"graph of {len(self.graph.nodes)} nodes needs more than "
                f"{self.budget} (node, type) pairs to materialize"
            )
        self.memo[key] = v
        return v


def materialize(t: TypeRep, g: ValueGraph, root: Optional[int] = None) -> Any:
    """Rebuild the library value the subgraph at root denotes.

    Reads every node by the plan of each type it is used at, so the
    graph need not have passed check_compat first, and validates each
    abstract value's representation with from_repr, raising
    RepresentationRejected. A node comes back as one object
    per type it is used at: its uses at one type share that object,
    and its uses at different types, which a nested datatype such as
    PolyTree makes, get one object each. Cyclic graphs raise
    CyclicValue: the value layer is immutable and cannot tie knots.
    A graph that would need more than PAIRS_PER_NODE (node, type)
    pairs per node plus PAIRS_BASE raises BudgetExceeded, and a
    reference that is not an index of g.nodes raises MalformedValue.
    """
    start = g.root if root is None else root
    return _walk("graph nests too deeply to materialize", _Materializer(g).go, t, start)


# ---------------------------------------------------------------------------
# End-to-end serialization


def serialize(t: TypeRep, v: Any) -> bytes:
    """Encode v at type t.

    build_graph writes each node by the same per-type plan that
    deserialize reads it back by, and checks scalars and text itself,
    so the graph is encoded as built.
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
    RepresentationRejected; a cyclic graph raises CyclicValue; a graph
    that would build more values than materialize's budget raises
    BudgetExceeded. No input crashes the process.
    """
    return materialize(t, decode_graph(data))
