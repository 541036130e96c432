"""Graph serialization: graph6, sparse6 and a plain edge-list text format.

graph6 and sparse6 follow the published nauty format description.  graph6
covers simple graphs only and serialization rejects loops or parallel edges;
sparse6 carries loops and multiplicities exactly.  The edge-list format is
UTF-8 text: first non-comment line "n m", then exactly m lines "u v"
(0-based); '#' starts a comment line; "u u" is a loop; repeated lines are
parallel edges.
"""

from __future__ import annotations

from .multigraph import Multigraph

FORMATS = ("g6", "s6", "edges")


class FormatError(ValueError):
    """Malformed input or a graph not representable in the requested format."""


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


# -- size field shared by graph6 and sparse6 -------------------------------


def _encode_size(n: int) -> bytes:
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        parts = [126, 126]
        for shift in (30, 24, 18, 12, 6, 0):
            parts.append(((n >> shift) & 63) + 63)
        return bytes(parts)
    raise FormatError("vertex count too large for graph6/sparse6")


def _decode_size(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise FormatError("empty input")
    if data[0] != 126:
        n = data[0] - 63
        if n < 0:
            raise FormatError("bad size byte")
        return n, data[1:]
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated size field")
        n = 0
        for b in data[1:4]:
            if not 63 <= b <= 126:
                raise FormatError("bad size byte")
            n = (n << 6) | (b - 63)
        return n, data[4:]
    if len(data) < 8:
        raise FormatError("truncated size field")
    n = 0
    for b in data[2:8]:
        if not 63 <= b <= 126:
            raise FormatError("bad size byte")
        n = (n << 6) | (b - 63)
    return n, data[8:]


def _bits_of(data: bytes) -> list[int]:
    bits = []
    for b in data:
        if not 63 <= b <= 126:
            raise FormatError("byte out of graph6 range")
        x = b - 63
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    return bits


def _bytes_of(bits: list[int]) -> bytes:
    while len(bits) % 6:
        bits.append(0)
    out = bytearray()
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = (x << 1) | b
        out.append(x + 63)
    return bytes(out)


# -- graph6 ----------------------------------------------------------------


def parse_graph6(data: bytes | str) -> Multigraph:
    s = _as_text(data).strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    raw = s.encode("ascii")
    n, rest = _decode_size(raw)
    nbits = n * (n - 1) // 2
    bits = _bits_of(rest)
    if len(bits) < nbits:
        raise FormatError("graph6 body too short")
    if any(bits[nbits:]):
        raise FormatError("nonzero padding in graph6 body")
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Multigraph(n, tuple(edges))


def serialize_graph6(g: Multigraph) -> bytes:
    if not g.is_simple():
        raise FormatError("graph6 cannot encode loops or parallel edges")
    present = set(g.edges)
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in present else 0)
    return _encode_size(g.n) + _bytes_of(bits)


# -- sparse6 ---------------------------------------------------------------


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
    if rest and not (63 <= min(rest) and max(rest) <= 126):
        raise FormatError("byte out of graph6 range")
    k = max(1, (n - 1).bit_length())
    mask = (1 << k) - 1
    # each field is one bit b and k bits x; `buf` holds the `have` bits of
    # the body read but not yet taken, at most k + 6
    edges = []
    v = buf = have = 0
    for byte in rest:
        buf = (buf << 6) | (byte - 63)
        have += 6
        while have > k:
            have -= k + 1
            field = buf >> have
            buf &= (1 << have) - 1
            if field >> k:
                v += 1
            x = field & mask
            if v >= n or x >= n:
                return Multigraph(n, tuple(edges))
            if x > v:
                v = x
            else:
                edges.append((x, v))
    return Multigraph(n, tuple(edges))


def serialize_sparse6(g: Multigraph) -> bytes:
    n = g.n
    body: list[int] = []
    if n > 0:
        k = max(1, (n - 1).bit_length())
        cur = 0
        for u, v in sorted(g.edges, key=lambda e: (e[1], e[0])):
            if v == cur:
                body.append(0)
            elif v == cur + 1:
                cur = v
                body.append(1)
            else:
                cur = v
                body.append(1)
                body.extend((v >> s) & 1 for s in range(k - 1, -1, -1))
                body.append(0)
            body.extend((u >> s) & 1 for s in range(k - 1, -1, -1))
        pad = (6 - len(body) % 6) % 6
        # A run of k+1 one-bits in the padding would decode as a loop at n-1
        # when the current vertex is n-2 and n-1 is all-ones in k bits; lead
        # with a 0 bit in that case.
        if pad >= k + 1 and cur == n - 2 and n - 1 == (1 << k) - 1:
            body.append(0)
        while len(body) % 6:
            body.append(1)
    out = bytearray(b":")
    out.extend(_encode_size(n))
    out.extend(_bytes_of(body))
    return bytes(out)


# -- edge list -------------------------------------------------------------


def parse_edges(data: bytes | str) -> Multigraph:
    lines = [
        ln.strip()
        for ln in _as_text(data).splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError("first line must be 'n m'") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u},{v}) out of range for n={n}")
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def serialize_edges(g: Multigraph) -> bytes:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- dispatch --------------------------------------------------------------

_PARSERS = {"g6": parse_graph6, "s6": parse_sparse6, "edges": parse_edges}
_SERIALIZERS = {"g6": serialize_graph6, "s6": serialize_sparse6, "edges": serialize_edges}

_ALIASES = {"graph6": "g6", "sparse6": "s6", "edge-list": "edges", "edgelist": "edges"}


def _norm_format(fmt: str) -> str:
    fmt = _ALIASES.get(fmt, fmt)
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return fmt


def parse(data: bytes | str, fmt: str) -> Multigraph:
    return _PARSERS[_norm_format(fmt)](data)


def serialize(g: Multigraph, fmt: str) -> bytes:
    return _SERIALIZERS[_norm_format(fmt)](g)
