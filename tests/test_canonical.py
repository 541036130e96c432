import itertools
import random

import pytest

import canonical_oracle
from jonescheck import graphs
from jonescheck.canonical import are_isomorphic, canonical_form
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
    # connected simple subcubic graphs up to iso: known small counts act as an
    # oracle for the canonical form (no false merges or splits)
    from jonescheck import harness

    counts = {}
    for g in harness.generate_corpus(
        harness.CorpusSpec("subcubic-planar-simple", 7)
    ):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 28, 7: 63}


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


def test_matches_oracle_random():
    rng = random.Random(4242)
    for _ in range(2000):
        g = _random_oracle_graph(rng)
        assert canonical_form(g) == canonical_oracle.canonical_form(g), g


@pytest.mark.parametrize(
    "g",
    [
        graphs.complete(4),
        graphs.petersen(),
        graphs.cube(),
        graphs.dodecahedron(),
        graphs.generalized_petersen(14, 2),
    ],
    ids=["K4", "petersen", "cube", "dodecahedron", "GP(14,2)"],
)
def test_matches_oracle_named(g):
    assert canonical_form(g) == canonical_oracle.canonical_form(g)


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
