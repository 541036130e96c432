import itertools
import random
import time
from collections import Counter

import pytest

import canonical_bytes_oracle
import canonical_oracle
import generator_oracle
from isomorphism import are_isomorphic
from random_graphs import random_cubic_planar
import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from jonescheck import graphs, structure
from jonescheck.canonical import canonical_form
from jonescheck.multigraph import Multigraph


def _permuted(g: Multigraph, perm) -> Multigraph:
    return Multigraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _random_multigraph(rng: random.Random, n: int) -> Multigraph:
    m = rng.randrange(0, 2 * n + 1)
    edges = tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(m)
    )
    return Multigraph(n, edges)


def test_invariant_under_relabeling():
    rng = random.Random(12345)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g = _random_multigraph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(_permuted(g, perm))


def test_distinguishes_non_isomorphic_small():
    # exhaustive over all simple graphs on 4 vertices: canonical forms agree
    # exactly when a brute-force isomorphism exists
    pairs = list(itertools.combinations(range(4), 2))
    gs = []
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        gs.append(Multigraph(4, edges))

    def brute_iso(a, b):
        if a.m != b.m:
            return False
        ea = set(a.edges)
        for perm in itertools.permutations(range(4)):
            if {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges} == ea:
                return True
        return False

    rng = random.Random(7)
    sample = rng.sample(gs, 12)
    for a in sample:
        for b in sample:
            assert (canonical_form(a) == canonical_form(b)) == brute_iso(a, b)


def test_loops_and_multiplicities_matter():
    a = Multigraph(2, ((0, 1), (0, 1)))
    b = Multigraph(2, ((0, 0), (1, 1)))
    c = Multigraph(2, ((0, 1),))
    forms = {canonical_form(a), canonical_form(b), canonical_form(c)}
    assert len(forms) == 3


def test_are_isomorphic_named():
    assert are_isomorphic(graphs.petersen(), graphs.generalized_petersen(5, 2))
    assert not are_isomorphic(graphs.prism(), graphs.complete(4))
    # two labelings of the cube
    cube = graphs.cube()
    perm = [3, 7, 1, 0, 6, 2, 5, 4]
    assert are_isomorphic(cube, _permuted(cube, perm))


def test_counts_regular_classes():
    # connected subcubic planar graphs up to iso, simple and multi: the
    # counts pin the canonical form (no false merges or splits) and the
    # generator's pruning (no class lost or repeated)
    from jonescheck import harness

    def counts(cls, max_n):
        per_n = Counter(g.n for g in harness.generate_corpus(harness.CorpusSpec(cls, max_n)))
        return [per_n[n] for n in range(1, max_n + 1)]

    assert counts("subcubic-planar-simple", 10) == [1, 1, 2, 6, 10, 28, 63, 188, 514, 1650]
    assert counts("subcubic-planar-multi", 8) == [2, 5, 7, 22, 43, 140, 372, 1262]


def _group_order(n: int, gens: list[tuple[int, ...]]) -> int:
    """Order of the permutation group that `gens` generate, by closure."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


def test_automorphisms_generate_the_group():
    # every simple level graph with n <= 8, and relabelled multigraphs with
    # loops and parallel edges; networkx's matcher counts the automorphisms
    from jonescheck import harness

    rng = random.Random(1998)
    levels, _ = generator_oracle.simple_levels(8)
    pool = [g for level in levels for g in level.values()]
    for g in harness.generate_corpus(harness.CorpusSpec("subcubic-planar-multi", 6)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        pool.append(_permuted(g, perm))
    pool += [_cycles(3, 3, 3), _cycles(*[2] * 4), _permuted(graphs.cube(), [3, 7, 1, 0, 6, 2, 5, 4])]
    for g in pool:
        autos: list[tuple[int, ...]] = []
        form = canonical_form(g, autos)
        assert form == canonical_form(g)
        edges = Counter(g.edges)
        for p in autos:
            assert Counter(tuple(sorted((p[u], p[v]))) for u, v in g.edges) == edges
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        want = sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter())
        assert _group_order(g.n, autos) == want, g


def test_empty_and_singleton():
    assert canonical_form(Multigraph(0)) == b"\x00"
    assert canonical_form(Multigraph(1)) != canonical_form(Multigraph(1, ((0, 0),)))


def _random_oracle_graph(rng: random.Random) -> Multigraph:
    # loops, parallel and triple edges; often disconnected
    n = rng.randint(1, 10)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(max(0, n - 3), 2 * n + 1)):
        u = rng.randrange(n)
        r = rng.random()
        v = u if r < 0.1 else rng.randrange(n)
        edges.extend([(u, v)] * (3 if r > 0.95 else 2 if r > 0.85 else 1))
    return Multigraph(n, tuple(edges))


def _loops_neigh(g: Multigraph) -> tuple[tuple[int, ...], list[list[tuple[int, int]]]]:
    """Loop counts and sorted (neighbour, multiplicity) lists, the input of
    the reference refinements."""
    loops = [0] * g.n
    mult: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    return tuple(loops), [sorted(m.items()) for m in mult]


def _regular(g: Multigraph) -> bool:
    """Colour refinement leaves one class: the graph is regular, with the
    same loops and the same multiplicities at every vertex."""
    return g.n > 1 and max(canonical_oracle._refined_colors(g.n, *_loops_neigh(g))) == 0


def _assert_matches_oracle(gs: list[Multigraph]) -> None:
    """Bytes equal the oracle's on every non-regular graph.  On regular
    graphs the distance-layer split may change them, so there the forms
    must give the same classes: cf(a) == cf(b) exactly when the oracle's
    forms are equal."""
    new = [canonical_form(g) for g in gs]
    old = [canonical_oracle.canonical_form(g) for g in gs]
    for g, a, b in zip(gs, new, old):
        if not _regular(g):
            assert a == b, g
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old))


def test_matches_oracle_random():
    rng = random.Random(4242)
    gs = [_random_oracle_graph(rng) for _ in range(2000)]
    for n in range(4, 22, 2):
        for _ in range(4):
            g = random_cubic_planar(n, rng)
            assert g.is_cubic() and structure.is_planar(g)
            gs.append(g)
    regular = [g for g in gs if _regular(g)]
    assert len(regular) > 40
    copies = []
    for g in regular:
        perm = list(range(g.n))
        for _ in range(2):
            rng.shuffle(perm)
            copies.append(_permuted(g, perm))
    _assert_matches_oracle(gs + copies)


NAMED = {
    "K4": graphs.complete(4),
    "petersen": graphs.petersen(),
    "cube": graphs.cube(),
    "dodecahedron": graphs.dodecahedron(),
    "GP(14,2)": graphs.generalized_petersen(14, 2),
    "GP(10,3)": graphs.generalized_petersen(10, 3),
    "GP(12,2)": graphs.generalized_petersen(12, 2),
    "W6": graphs.wheel(6),
    "P7": graphs.path(7),
}


@pytest.mark.parametrize("name", NAMED)
def test_matches_oracle_named(name):
    # the graph, two relabelled copies, and the other named graphs
    g = NAMED[name]
    rng = random.Random(name)
    copies = []
    for _ in range(2):
        perm = list(range(g.n))
        rng.shuffle(perm)
        copies.append(_permuted(g, perm))
    _assert_matches_oracle([g, *copies, *NAMED.values()])


def _brute_iso(a: Multigraph, b: Multigraph) -> bool:
    """Exhaustive search for a bijection that keeps every multiplicity."""
    if a.n != b.n or a.m != b.m:
        return False
    ma, mb = Counter(map(frozenset, a.edges)), Counter(map(frozenset, b.edges))
    image: list[int] = []

    def search() -> bool:
        u = len(image)
        if u == a.n:
            return True
        for x in range(b.n):
            if x in image:
                continue
            image.append(x)
            # u's loops and its edges to the vertices mapped so far
            if all(
                ma[frozenset((u, v))] == mb[frozenset((x, image[v]))]
                for v in range(u + 1)
            ) and search():
                return True
            image.pop()
        return False

    return search()


def _random_regular(
    rng: random.Random, n: int, d: int, simple: bool
) -> list[tuple[int, int]]:
    """Configuration model: every vertex gets degree d, a loop counting twice.
    Loops and parallel edges are kept unless `simple` (which needs d < n)."""
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        keys = {frozenset(e) for e in pairs}
        if not simple or (len(keys) == len(pairs) and all(len(e) == 2 for e in keys)):
            return pairs


def _cycles(*lengths: int) -> Multigraph:
    """Disjoint cycles; a length of 2 gives a single edge."""
    edges: list[tuple[int, int]] = []
    base = 0
    for k in lengths:
        edges += [(base + j, base + (j + 1) % k) for j in range(k if k > 2 else 1)]
        base += k
    return Multigraph(base, tuple(edges))


def test_pruning_matches_bruteforce_regular():
    # regular multigraphs with n <= 8, often disjoint unions, each under
    # random relabellings: equal forms exactly when an isomorphism exists.
    # Unions of cycles of different lengths are where the distance split
    # splits at this size.
    rng = random.Random(2014)
    bases = [_cycles(*c) for c in ((3, 3), (3, 4), (3, 5), (4, 4), (6,), (7,), (8,))]
    for _ in range(150):
        n = rng.randint(2, 8)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        # every part needs an even degree sum
        d = rng.choice((2, 4)) if any(k % 2 for k in parts) else rng.randint(1, 3)
        simple = rng.random() < 0.6
        edges: list[tuple[int, int]] = []
        base = 0
        for k in parts:
            edges += [(base + u, base + v) for u, v in _random_regular(rng, k, d, simple and d < k)]
            base += k
        bases.append(Multigraph(base, tuple(edges)))
    by_size: dict[tuple[int, int], list[Multigraph]] = {}
    for g in bases:
        group = by_size.setdefault((g.n, g.m), [])
        group.append(g)
        perm = list(range(g.n))
        for _ in range(2):
            rng.shuffle(perm)
            group.append(_permuted(g, perm))
    checked = isomorphic = 0
    for group in by_size.values():
        forms = [canonical_form(g) for g in group]
        for i, j in itertools.combinations(range(len(group)), 2):
            iso = _brute_iso(group[i], group[j])
            assert (forms[i] == forms[j]) == iso, (group[i], group[j])
            checked += 1
            isomorphic += iso
    assert isomorphic > 100 and checked - isomorphic > 1000


@pytest.mark.parametrize(
    "g",
    [_cycles(*[2] * 8), _cycles(*[3] * 6), graphs.cycle(300)],
    ids=["8K2", "6K3", "C300"],
)
def test_symmetric_inputs_fast(g):
    # exponential before automorphism pruning: 8K2 took over a minute and
    # 6K3 about three
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    t0 = time.perf_counter()
    assert canonical_form(g) == canonical_form(_permuted(g, perm))
    assert time.perf_counter() - t0 < 10
    assert canonical_form(g) != canonical_form(Multigraph(g.n, g.edges[1:]))


def test_large_values():
    # values >= 255 take the escape byte and 4 more bytes
    a = Multigraph(2, ((0, 1),) * 299)
    b = Multigraph(2, ((0, 1),) * 300)
    assert canonical_form(a) != canonical_form(b)
    assert canonical_form(b) == bytes([2, 0, 0, 255]) + (300).to_bytes(4, "big")
    loops = Multigraph(1, ((0, 0),) * 256)
    assert canonical_form(loops) == bytes([1, 255]) + (256).to_bytes(4, "big")
    p = graphs.path(300)
    form = canonical_form(p)
    assert form[:5] == bytes([255]) + (300).to_bytes(4, "big")
    assert form == canonical_form(_permuted(p, list(reversed(range(300)))))
    assert form != canonical_form(graphs.path(301))


def _union(*gs: Multigraph) -> Multigraph:
    """Disjoint union, the vertices of each graph after those of the last."""
    edges: list[tuple[int, int]] = []
    base = 0
    for g in gs:
        edges += [(base + u, base + v) for u, v in g.edges]
        base += g.n
    return Multigraph(base, tuple(edges))


def _random_heavy_multigraph(rng: random.Random) -> Multigraph:
    """Loops and parallel edges, some of them 255 or more times over."""
    n = rng.randint(1, 12)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        u = rng.randrange(n)
        r = rng.random()
        v = u if r < 0.15 else rng.randrange(n)
        edges += [(u, v)] * (rng.choice((2, 3, 254, 255, 300)) if r > 0.9 else 1)
    return Multigraph(n, tuple(edges))


def _random_subcubic(rng: random.Random) -> Multigraph:
    """Simple graph of maximum degree 3, often a forest or disconnected."""
    n = rng.randint(2, 16)
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    for _ in range(rng.randint(n // 2, 2 * n)):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Multigraph(n, tuple(sorted(edges)))


def test_matches_byte_reference():
    # the same bytes and the same automorphism generators, in the same
    # order, as the reference kernel: on random multigraphs (loops, values
    # from 255 up), subcubic graphs (several rounds of refinement), cubic
    # planar graphs (one class until the layer split), paths, cycles and
    # disjoint unions, and on relabelled copies
    rng = random.Random(2501)
    gs = [_random_heavy_multigraph(rng) for _ in range(500)]
    gs += [_random_subcubic(rng) for _ in range(500)]
    gs += [random_cubic_planar(n, rng) for n in range(4, 31, 2) for _ in range(3)]
    gs += [graphs.path(k) for k in range(1, 41)] + [graphs.cycle(k) for k in range(3, 41)]
    for _ in range(60):
        parts = [
            rng.choice((graphs.path, graphs.cycle))(rng.randint(3, 8)),
            random_cubic_planar(rng.randrange(4, 13, 2), rng),
            _random_heavy_multigraph(rng),
        ]
        gs.append(_union(*rng.choices(parts, k=rng.randint(2, 4))))
    copies = []
    for g in gs[::3]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        copies.append(_permuted(g, perm))
    kinds: Counter = Counter()
    for g in gs + copies:
        want_autos: list[tuple[int, ...]] = []
        got_autos: list[tuple[int, ...]] = []
        want = canonical_bytes_oracle.canonical_form(g, want_autos)
        assert canonical_form(g, got_autos) == want, g
        assert got_autos == want_autos, g
        colors = canonical_bytes_oracle._refined_colors(g.n, *_loops_neigh(g))
        kinds["discrete" if len(set(colors)) == g.n else "classes"] += 1
        kinds["regular"] += _regular(g)
        kinds["wide"] += b"\xff" in want
    assert min(kinds.values()) > 40, kinds
