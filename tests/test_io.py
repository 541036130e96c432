import random

import pytest

import sparse6_oracle
from isomorphism import are_isomorphic
from jonescheck import graphs, io
from jonescheck.canonical import canonical_form
from jonescheck.multigraph import Multigraph


def test_graph6_hand_derived():
    # K3 -> "Bw": n=3 gives byte 63+3='B'; upper triangle bits 111 -> 'w'
    assert io.serialize_graph6(graphs.complete(3)) == b"Bw"
    # K4 -> "C~": bits 111111
    assert io.serialize_graph6(graphs.complete(4)) == b"C~"
    assert are_isomorphic(io.parse_graph6(b"Bw"), graphs.complete(3))
    assert are_isomorphic(io.parse_graph6("C~"), graphs.complete(4))


def test_graph6_roundtrip_corpus():
    from jonescheck import harness

    for g in harness.generate_corpus(harness.CorpusSpec("subcubic-planar-simple", 7)):
        back = io.parse_graph6(io.serialize_graph6(g))
        assert canonical_form(back) == canonical_form(g)


def test_graph6_rejects_multigraphs():
    with pytest.raises(io.FormatError):
        io.serialize_graph6(graphs.theta())
    with pytest.raises(io.FormatError):
        io.serialize_graph6(Multigraph(1, ((0, 0),)))


def test_graph6_cross_check_networkx():
    import networkx as nx

    for g in (graphs.petersen(), graphs.cube(), graphs.prism(), graphs.wheel(6)):
        data = io.serialize_graph6(g)
        h = nx.from_graph6_bytes(data)
        assert h.number_of_nodes() == g.n
        assert sorted(map(tuple, map(sorted, h.edges()))) == sorted(g.edges)
        # and our parser agrees with networkx's encoder
        back = io.parse_graph6(nx.to_graph6_bytes(h, header=False).strip())
        assert are_isomorphic(back, g)


def test_sparse6_roundtrip_multigraphs():
    cases = [
        graphs.theta(),
        Multigraph(1, ((0, 0),)),
        Multigraph(3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 2))),
        graphs.dodecahedron(),
        Multigraph(2),
        Multigraph(0),
    ]
    for g in cases:
        data = io.serialize_sparse6(g)
        assert data.startswith(b":")
        back = io.parse_sparse6(data)
        assert back.n == g.n and back.m == g.m
        assert canonical_form(back) == canonical_form(g)


def test_sparse6_cross_check_networkx():
    import networkx as nx

    for g in (graphs.theta(), graphs.prism(), Multigraph(3, ((0, 0), (1, 2), (1, 2)))):
        h = nx.from_sparse6_bytes(io.serialize_sparse6(g))
        assert h.number_of_nodes() == g.n
        assert h.number_of_edges() == g.m
        back = io.parse_sparse6(nx.to_sparse6_bytes(nx.MultiGraph(h), header=False).strip())
        assert are_isomorphic(back, g)


def test_sparse6_padding_edge_case():
    # n = 2^k forces the padding rule where trailing 1-bits could fabricate an
    # edge at vertex n-1; exercise graphs whose last vertex has degree > 0
    import networkx as nx

    for n in (2, 4, 8, 16):
        g = graphs.cycle(n) if n > 2 else Multigraph(2, ((0, 1), (0, 1)))
        data = io.serialize_sparse6(g)
        back = io.parse_sparse6(data)
        assert canonical_form(back) == canonical_form(g)
        h = nx.from_sparse6_bytes(data)
        assert h.number_of_edges() == g.m


# k = 1, 1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 9, 10; n <= 62 has a one-byte
# size field, n >= 63 a four-byte one
_SPARSE6_SIZES = (1, 2, 3, 5, 9, 17, 62, 63, 64, 100, 255, 256, 300, 1000)


def test_sparse6_decoder_matches_reference():
    rng = random.Random(606)
    for n in _SPARSE6_SIZES:
        for _ in range(20):
            edges = []
            for _ in range(rng.randint(0, 3 * n)):
                u = rng.randrange(n)
                v = u if rng.random() < 0.1 else rng.randrange(n)
                edges.extend([(u, v)] * rng.choice((1, 1, 1, 2, 3)))
            g = Multigraph(n, tuple(edges))
            data = io.serialize_sparse6(g)
            assert io.parse_sparse6(data) == sparse6_oracle.parse_sparse6(data)
            # arbitrary bodies reach the stops at v >= n and x >= n
            body = bytes(rng.randint(63, 126) for _ in range(rng.randint(0, 40)))
            data = b":" + data[1 : 2 if n <= 62 else 5] + body
            assert io.parse_sparse6(data) == sparse6_oracle.parse_sparse6(data)


def test_sparse6_decoder_errors_match_reference():
    good = io.serialize_sparse6(graphs.dodecahedron())
    big = io.serialize_sparse6(graphs.cycle(300))
    cases = [
        b"",
        b"Bw",
        b":",
        b":~",
        b":~?",
        b":~~??",
        big[:3],
        big[:5].replace(b"?", b"\x19"),
        good[:4] + b"\x19" + good[5:],
        good + b"\x7f",
        b":D~!",  # a bad byte after the field that stops the decode
        b":\x3e",
        ":S\u00e9".encode(),
    ]
    for data in cases:
        with pytest.raises(ValueError) as got:
            io.parse_sparse6(data)
        with pytest.raises(ValueError) as want:
            sparse6_oracle.parse_sparse6(data)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value)), data


def test_edge_list_format():
    g = graphs.prism()
    text = io.serialize_edges(g)
    assert text.splitlines()[0] == b"6 9"
    back = io.parse_edges(text)
    assert back.edges == g.edges
    with_comments = b"# prism\n6 2\n0 1\n# loop below\n2 2\n"
    h = io.parse_edges(with_comments)
    assert h.n == 6 and h.edges == ((0, 1), (2, 2))


def test_dispatch_aliases():
    g = graphs.complete(4)
    for fmt in ("g6", "graph6"):
        assert io.parse(io.serialize(g, fmt), fmt).m == 6
    for fmt in ("s6", "sparse6", "edges", "edge-list"):
        assert are_isomorphic(io.parse(io.serialize(g, fmt), fmt), g)


def test_error_cases():
    with pytest.raises(io.FormatError):
        io.parse_graph6(b"")
    with pytest.raises(io.FormatError):
        io.parse_sparse6(b"Bw")  # missing ':' prefix
    with pytest.raises(io.FormatError):
        io.parse_graph6(b"B\x19")  # byte below printable range
    with pytest.raises(io.FormatError):
        io.parse_edges(b"3\n0 1\n")  # malformed header
    with pytest.raises(io.FormatError):
        io.parse_edges(b"2 1\n0 5\n")  # vertex out of range
    with pytest.raises(io.FormatError):
        io.parse(b"Bw", "unknown-format")
