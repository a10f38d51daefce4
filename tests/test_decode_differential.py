"""The one-pass decoder against the reference decoder it replaced.

For every prefix and every single-bit flip of blobs holding all five
node kinds, both decoders give the same graph, or refuse with the same
MalformedBytes offset and message. test_safeser's truncation test only
bounds the offset; this pins it.
"""

import struct

import pytest

from reflectix import safeser as ss
from reflectix.errors import MalformedBytes

from reference_decoder import decode_graph as reference_decode


def _header(root, count):
    return ss.MAGIC + struct.pack("<II", root, count)


def _extcon(name: bytes, refs):
    return (b"\x04" + struct.pack("<H", len(name)) + name
            + struct.pack("<I", len(refs)) + struct.pack(f"<{len(refs)}I", *refs))


ALL_KINDS = ss.encode_graph(ss.ValueGraph(
    [ss.ExtCon("Fail", (1, 2)), ss.Bytes(b"hi"), ss.Block(1, (3, 4, 0)),
     ss.Imm(-5), ss.Float(2.5)], 2))
WIDE = ss.encode_graph(ss.ValueGraph(
    [ss.Block(0, tuple(range(1, 21)))] + [ss.Imm(i) for i in range(20)], 0))
BLOBS = {
    "all-kinds": ALL_KINDS,
    "wide-block": WIDE,
    "non-utf8-name": _header(0, 2) + _extcon(b"N\xff", (1,)) + b"\x00" + bytes(8),
    "oversized-arity": _header(0, 2) + b"\x01" + struct.pack("<II", 0, 1000)
    + struct.pack("<I", 1) + b"\x00" + bytes(8),
    "reference-outside": _header(0, 3) + b"\x01" + struct.pack("<III", 0, 2, 1) + struct.pack("<I", 7)
    + b"\x00" + bytes(8) + _extcon(b"E", (9,)),
    "unknown-kind": _header(0, 2) + b"\x00" + bytes(8) + b"\x05",
}


def _outcome(decode, data):
    try:
        g = decode(data)
    except MalformedBytes as e:
        return "refused", e.offset, str(e)
    # Re-encoding compares every payload bit for bit, NaNs included.
    return "graph", g.root, [type(n) for n in g.nodes], ss.encode_graph(g)


def _variants(blob):
    for cut in range(len(blob)):
        yield blob[:cut]
    yield blob
    for i in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << bit
            yield bytes(flipped)


def test_blobs_reach_every_refusal_they_are_named_for():
    assert _outcome(ss.decode_graph, ALL_KINDS)[0] == "graph"
    assert _outcome(ss.decode_graph, WIDE)[0] == "graph"
    reasons = {name: _outcome(ss.decode_graph, b)[2] for name, b in BLOBS.items()
               if name not in ("all-kinds", "wide-block")}
    assert reasons == {
        "non-utf8-name": "malformed bytes at offset 17: constructor name is not UTF-8",
        "oversized-arity": "malformed bytes at offset 21: block arity exceeds payload size",
        "reference-outside": "malformed bytes at offset 50: "
                             "node reference 7 outside graph of 3 nodes",
        "unknown-kind": "malformed bytes at offset 21: unknown node kind 5",
    }


@pytest.mark.parametrize("name", list(BLOBS))
def test_prefixes_and_bit_flips_match_the_reference(name):
    refused = 0
    for data in _variants(BLOBS[name]):
        expected = _outcome(reference_decode, data)
        assert _outcome(ss.decode_graph, data) == expected, data.hex()
        refused += expected[0] == "refused"
    assert refused > len(BLOBS[name])
