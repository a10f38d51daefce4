"""The wire decoder as it stood before it read fields in place: a
_Reader that slices and unpacks one field at a time, then a second walk
over every node's references. Kept as the reference the one-pass
decoder in reflectix.safeser is checked against, offset and message
alike (tests/test_decode_differential.py).
"""
import struct

from reflectix.errors import MalformedBytes
from reflectix.safeser import MAGIC, Block, Bytes, ExtCon, Float, Imm, ValueGraph, node_refs


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
