"""Reference sparse6 decoder, used to cross-check `jonescheck.io`.

This is the earlier `parse_sparse6` kept word for word: it expands the body
into a list of bits and rebuilds each field bit by bit.
"""

from __future__ import annotations

from jonescheck.io import FormatError, _as_text, _bits_of, _decode_size
from jonescheck.multigraph import Multigraph


def parse_sparse6(data: bytes | str) -> Multigraph:
    s = _as_text(data).strip()
    if s.startswith(">>sparse6<<"):
        s = s[len(">>sparse6<<") :]
    if not s.startswith(":"):
        raise FormatError("sparse6 must start with ':'")
    raw = s[1:].encode("ascii")
    n, rest = _decode_size(raw)
    if n == 0:
        return Multigraph(0)
    k = max(1, (n - 1).bit_length())
    bits = _bits_of(rest)
    edges = []
    v = 0
    i = 0
    while i + k < len(bits):
        b = bits[i]
        x = 0
        for t in bits[i + 1 : i + 1 + k]:
            x = (x << 1) | t
        i += k + 1
        if b:
            v += 1
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return Multigraph(n, tuple(edges))
