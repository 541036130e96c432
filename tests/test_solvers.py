import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bruteforce_oracle
import cp_oracle
import fvs_oracle
from random_graphs import chained_k4s, random_cubic_planar
from jonescheck import graphs, reduction, solvers, structure
from jonescheck.multigraph import Multigraph


def test_enumerate_cycles_counts():
    k4_and_theta = (graphs.complete(4), graphs.theta())
    assert [len(solvers.enumerate_cycles(g)) for g in k4_and_theta] == [4, 1]
    assert [len(bruteforce_oracle.all_cycles(g)) for g in k4_and_theta] == [7, 3]
    for enum in (solvers.enumerate_cycles, bruteforce_oracle.all_cycles):
        assert len(enum(graphs.cycle(5))) == 1
        assert len(enum(Multigraph(1, ((0, 0),)))) == 1
        assert enum(graphs.path(4)) == []


def test_enumerate_cycles_deadline():
    # GP(14,2) has 787 vertex-minimal cycles, found over more than 1,024
    # search steps, so the deadline is checked on the way
    with pytest.raises(solvers.SolverLimit):
        solvers.enumerate_cycles(
            graphs.generalized_petersen(14, 2), deadline=time.monotonic() - 1.0
        )


@pytest.mark.parametrize("minimal", [False, True])
def test_enumerate_cycles_deadline_per_step(minimal):
    # C_1500 has one cycle, found only after about 1,500 search steps, so the
    # deadline must be checked per step, not per cycle found; the oracle's
    # list of all cycles checks it the same way
    enum = solvers.enumerate_cycles if minimal else bruteforce_oracle.all_cycles
    with pytest.raises(solvers.SolverLimit):
        enum(graphs.cycle(1500), deadline=time.monotonic() - 1.0)


def _bridged_squares(k: int) -> Multigraph:
    """k 4-cycles, each joined to the next by a bridge from its vertex 2 to
    the next one's vertex 0; subcubic and planar."""
    edges = []
    for b in range(0, 4 * k, 4):
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
        if b:
            edges.append((b - 2, b))
    return Multigraph(4 * k, tuple(edges))


def test_cp_bridged_squares_within_blocks():
    # an induced path that crossed the bridges could pass each square on
    # either side, doubling per square; the search stays in one block
    assert solvers.cp_exact(_bridged_squares(400), time_limit_s=1.0).size == 400
    assert solvers.cp_exact(_bridged_squares(18), time_limit_s=0.5).size == 18


def test_cp_long_path_and_cycle_linear():
    # each root is dropped after its search and vertices left with fewer
    # than two live neighbours are peeled, so no O(n^2) walk remains
    assert solvers.cp_exact(graphs.path(1500), time_limit_s=0.5).size == 0
    assert solvers.cp_exact(graphs.cycle(1500), time_limit_s=0.5).size == 1


def _assert_minimal_matches_oracle(g: Multigraph) -> None:
    def key(c):
        return (len(c.vertices), c.edges)

    kept, _ = cp_oracle._vertex_minimal(g, sorted(bruteforce_oracle.all_cycles(g), key=key))
    assert sorted(solvers.enumerate_cycles(g), key=key) == kept


def test_minimal_cycles_match_oracle_random():
    # theta() and two_triples pin the triple-edge pitfall: a plain chordless
    # test would drop every 2-cycle of a triple edge
    two_triples = Multigraph(4, ((0, 1),) * 3 + ((2, 3),) * 3 + ((1, 2),))
    rng = random.Random(1309)
    for g in [graphs.theta(), two_triples] + [_random_multigraph(rng) for _ in range(2000)]:
        _assert_minimal_matches_oracle(g)


def test_minimal_cycles_match_oracle_multi_corpus(multi_corpus_8):
    for g in multi_corpus_8:
        _assert_minimal_matches_oracle(g)


def test_enumerate_cycles_max_len(multi_corpus_8):
    # the capped search lists exactly the short end of the full minimal list
    gps = [graphs.generalized_petersen(n, k) for n, k in ((10, 2), (12, 2), (14, 2), (13, 1))]
    for g in multi_corpus_8 + gps:
        full = solvers.enumerate_cycles(g)
        for cap in range(g.n + 2):
            capped = solvers.enumerate_cycles(g, max_len=cap)
            assert capped == [c for c in full if len(c.vertices) <= cap]


def test_fvs_examples():
    assert solvers.fvs_exact(graphs.complete(4)).size == 2
    assert bruteforce_oracle.fvs_bruteforce(graphs.complete(4)).size == 2
    assert solvers.fvs_exact(graphs.cycle(6)).size == 1
    assert solvers.fvs_exact(graphs.path(5)).size == 0
    for n in range(3, 11):
        assert solvers.fvs_exact(graphs.wheel(n)).size == 2


def test_fvs_multigraph_features():
    # loop vertex must be in every feedback set
    g = Multigraph(3, ((0, 0), (0, 1), (1, 2), (0, 2)))
    w = solvers.fvs_exact(g)
    assert 0 in w.vertices
    # parallel pair is a cycle of length two
    assert solvers.fvs_exact(graphs.theta()).size == 1


def test_cp_examples():
    assert solvers.cp_exact(graphs.complete(4)).size == 1
    assert solvers.cp_exact(graphs.prism()).size == 2
    assert bruteforce_oracle.cp_bruteforce(graphs.prism()).size == 2
    for n in range(3, 11):
        assert solvers.cp_exact(graphs.wheel(n)).size == 1
    # each case below exercises one drop rule of the vertex-minimal filter;
    # theta() is a triple edge: three 2-cycles on one vertex set
    assert solvers.cp_exact(graphs.theta()).size == 1
    two_triples = Multigraph(4, ((0, 1),) * 3 + ((2, 3),) * 3 + ((1, 2),))
    assert solvers.cp_exact(two_triples).size == 2
    looped_digon = Multigraph(2, ((0, 1), (0, 1), (0, 0)))  # 2-cycle touching a loop
    assert solvers.cp_exact(looped_digon).size == 1
    # theta a-x-b, a-y-b, a-u-w-b with u-w doubled: the long cycles through
    # u-w induce the parallel edge, the digon u-w packs beside a-x-b-y
    a, b, x, y, u, w = range(6)
    theta_doubled = Multigraph(
        6, ((a, x), (x, b), (a, y), (y, b), (a, u), (u, w), (u, w), (w, b))
    )
    assert solvers.cp_exact(theta_doubled).size == 2
    assert bruteforce_oracle.cp_bruteforce(theta_doubled).size == 2


def test_witness_verification():
    g = graphs.prism()
    fvs = solvers.fvs_exact(g)
    fvs.verify(g)
    cp = solvers.cp_exact(g)
    cp.verify(g)
    bad = solvers.FeedbackSet(vertices=(0,), size=1)
    with pytest.raises(AssertionError):
        bad.verify(g)
    # (0, 0) leaves K3 a forest, but its size 2 would overstate the set by one
    with pytest.raises(AssertionError, match="repeats"):
        solvers.FeedbackSet((0, 0), 2).verify(graphs.complete(3))


def test_cp_witness_disjoint():
    g = graphs.dodecahedron()
    cp = solvers.cp_exact(g)
    seen = set()
    for cyc in cp.cycles:
        verts = set()
        for e in cyc:
            verts.update(g.edges[e])
        assert not (verts & seen)
        seen |= verts


def test_dodecahedron_frozen_values():
    # derived via fvs_bruteforce-style oracles once, then frozen
    d = graphs.dodecahedron()
    fvs = solvers.fvs_exact(d, time_limit_s=60)
    cp = solvers.cp_exact(d, time_limit_s=60)
    assert fvs.size == 6
    assert cp.size == 3
    assert fvs.size == 2 * cp.size


def _random_multigraph(rng: random.Random, max_n: int = 9) -> Multigraph:
    """Multigraph on n <= max_n vertices with loops, parallel and triple edges."""
    n = rng.randrange(1, max_n + 1)
    edges = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 2 * n + 2))
    ]
    for _ in range(rng.randrange(0, 3)):
        if edges:
            edges += [rng.choice(edges)] * rng.randrange(1, 3)
    for _ in range(rng.randrange(0, 2)):
        v = rng.randrange(n)
        edges.append((v, v))
    return Multigraph(n, tuple(edges))


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    graphs_ = []
    for _ in range(60):
        n = rng.randrange(2, 8)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 10))
        )
        graphs_.append(Multigraph(n, edges))
    graphs_ += [_random_multigraph(rng) for _ in range(400)]
    # degree-4 bridge ends on n = 8 and 12, past the random multigraphs
    chains = [chained_k4s(2), chained_k4s(3)]
    assert [solvers.fvs_exact(g).size for g in chains] == [4, 6]
    for g in graphs_ + chains:
        fvs = bruteforce_oracle.fvs_bruteforce(g).size
        assert solvers.fvs_exact(g).size == fvs
        # the degree bound alone, on the whole graph, never exceeds fvs
        assert solvers._degree_lower_bound(solvers._Work(g), frozenset()) <= fvs
        if len(bruteforce_oracle.all_cycles(g)) <= 20:
            assert solvers.cp_exact(g).size == bruteforce_oracle.cp_bruteforce(g).size
        else:
            assert solvers.cp_exact(g).size == cp_oracle._cp_branch(g, None).size


def test_fvs_matches_dict_kernel(multi_corpus_8):
    # the dict-based reference kernel gives the same witness wherever the
    # multi-start does not run, and the same size everywhere
    rng = random.Random(2410)
    inputs = [_random_multigraph(rng, max_n=14) for _ in range(1500)] + multi_corpus_8
    for g in inputs:
        fvs, ref = solvers.fvs_exact(g), fvs_oracle.fvs_exact(g)
        assert fvs.size == ref.size
        if not fvs_oracle.multi_start_runs(g):
            assert fvs.vertices == ref.vertices


def _recount(work: solvers._Work) -> tuple:
    """Degrees, edges left and vertices left, counted from `adj` and `loops`."""
    deg, ends, loops, n = [], 0, 0, 0
    for v, a in enumerate(work.adj):
        if a is None:
            deg.append(0)
            continue
        assert all(work.adj[u][v] == k for u, k in a.items())  # symmetric
        deg.append(sum(a.values()) + 2 * work.loops[v])
        ends += sum(a.values())
        loops += work.loops[v]
        n += 1
    return deg, ends // 2 + loops, n


def test_work_counts_stay_current():
    rng = random.Random(77)
    for _ in range(300):
        work = solvers._Work(_random_multigraph(rng, max_n=14))
        assert (work.deg, work.m, work.n) == _recount(work)
        while work.n:
            step = rng.random()
            if step < 0.4:
                solvers._reduce(work, frozenset(), [])
            elif step < 0.5:
                work = work.copy()
            else:
                work.remove(rng.choice([v for v, a in enumerate(work.adj) if a is not None]))
            assert (work.deg, work.m, work.n) == _recount(work)


def _random_cubic_multigraph(n: int, rng: random.Random) -> Multigraph:
    """Loopless cubic multigraph on an even n: a random pairing of the 3n
    edge ends, drawn again until no edge joins a vertex to itself."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = [(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])]
        if all(a != b for a, b in edges):
            return Multigraph(n, tuple(edges))


def test_fvs_multi_start_matches_bruteforce():
    # cubic multigraphs with n <= 16 on which the multi-start runs
    rng = random.Random(316)
    tested = 0
    while tested < 30:
        g = _random_cubic_multigraph(rng.randrange(4, 17, 2), rng)
        if fvs_oracle.multi_start_runs(g):
            assert solvers.fvs_exact(g).size == bruteforce_oracle.fvs_bruteforce(g).size
            tested += 1


# fixed before any was run: each gives a random cubic planar graph with
# n = 44 to 100 (`_seeded_cubic_planar`)
CUBIC_PLANAR_SEEDS = tuple(range(1000, 1030))


def _seeded_cubic_planar(seed: int) -> Multigraph:
    rng = random.Random(seed)
    return random_cubic_planar(rng.randrange(44, 101, 2), rng)


def test_fvs_cubic_planar_meets_degree_bound():
    # the multi-start finds a feedback set of the Bafna-Berman-Fujito size
    # ceil((n + 2) / 4), so the search ends at its root
    for seed in CUBIC_PLANAR_SEEDS:
        g = _seeded_cubic_planar(seed)
        assert solvers.fvs_exact(g, time_limit_s=2).size == math.ceil((g.n + 2) / 4), seed


def test_fvs_witness_deterministic():
    # the restarts draw from a generator local to the call: the witness is
    # the same on every call and in fresh interpreters with other hash
    # seeds, and the global `random` state is untouched
    gs = [_seeded_cubic_planar(seed) for seed in CUBIC_PLANAR_SEEDS[:10]]
    assert sum(fvs_oracle.multi_start_runs(g) for g in gs) >= 8
    state = random.getstate()
    here = [list(solvers.fvs_exact(g).vertices) for g in gs]
    assert random.getstate() == state
    assert [list(solvers.fvs_exact(g).vertices) for g in gs] == here
    script = (
        "import json, sys\n"
        "from jonescheck import solvers\n"
        "from jonescheck.multigraph import Multigraph\n"
        "gs = [Multigraph(n, tuple(map(tuple, e))) for n, e in json.load(sys.stdin)]\n"
        "print(json.dumps([list(solvers.fvs_exact(g).vertices) for g in gs]))\n"
    )
    src = str(Path(solvers.__file__).resolve().parents[1])
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([(g.n, g.edges) for g in gs]),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == here


def _cp_uncapped(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """The witness of the whole minimal-cycle list packed by _mis_over_masks."""
    cycles = sorted(solvers.enumerate_cycles(g), key=lambda c: (len(c.vertices), c.edges))
    masks = [sum(1 << v for v in c.vertices) for c in cycles]
    picked = solvers._mis_over_masks(masks, [len(c.vertices) for c in cycles], g.n, None)
    return tuple(sorted(cycles[i].edges for i in picked))


def _capped_route_inputs() -> list[Multigraph]:
    """Random multigraphs with loops and parallel edges, n up to 18, and
    random cubic planar graphs, n up to 30."""
    rng = random.Random(1912)
    out = [_random_multigraph(rng) for _ in range(300)]
    for _ in range(150):
        n = rng.randrange(13, 19)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n + rng.randrange(2, 8))]
        edges += [rng.choice(edges)] * rng.randrange(0, 3)
        out.append(Multigraph(n, tuple(edges)))
    for n in range(4, 32, 2):
        out += [random_cubic_planar(n, rng) for _ in range(4)]
    return out


def test_cp_capped_matches_uncapped(monkeypatch):
    # with a first pass of 3 the two-pass route also runs on graphs of 7 to
    # 12 vertices, with loops and parallel edges
    for g in _capped_route_inputs():
        if g.n == 30:
            assert structure.is_planar(g) and {g.degree(v) for v in range(g.n)} == {3}
        whole = _cp_uncapped(g)
        for short in (6, 3):
            monkeypatch.setattr(solvers, "_SHORT_CYCLES", short)
            assert solvers.cp_exact(g).cycles == whole
        if len(bruteforce_oracle.all_cycles(g)) <= 12:
            assert len(whole) == bruteforce_oracle.cp_bruteforce(g).size
        elif g.n <= 22:
            assert len(whole) == cp_oracle._cp_branch(g, None).size


def test_cp_cap_one_too_small_is_caught(monkeypatch):
    # the inputs above are sharp enough that a cap one below the bound
    # changes some witness
    cap = solvers._packing_cap
    monkeypatch.setattr(solvers, "_packing_cap", lambda n, cycles: cap(n, cycles) - 1)
    assert any(solvers.cp_exact(g).cycles != _cp_uncapped(g) for g in _capped_route_inputs())


def test_cp_former_walls():
    # every vertex-minimal cycle of these was listed before the cap: GP(20,2)
    # took 8 s and GP(30,1) ran past 60 s at 1.6 GB
    assert solvers.cp_exact(graphs.generalized_petersen(20, 2), time_limit_s=10).size == 6
    assert solvers.cp_exact(graphs.generalized_petersen(30, 1), time_limit_s=10).size == 15


def test_long_cycle_no_recursion_error():
    g = graphs.cycle(1500)
    assert solvers.fvs_exact(g).size == 1
    assert solvers.cp_exact(g).size == 1


def test_weak_duality_and_monotonicity():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(3, 8)
        edges = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 10))
        ]
        g = Multigraph(n, tuple(edges))
        fvs = solvers.fvs_exact(g).size
        cp = solvers.cp_exact(g).size
        assert cp <= fvs  # disjoint cycles each need their own fvs vertex
        # deleting an edge cannot increase either quantity
        from jonescheck.multigraph import delete_edges

        h = delete_edges(g, [rng.randrange(g.m)]).graph
        assert solvers.fvs_exact(h).size <= fvs
        assert solvers.cp_exact(h).size <= cp


def test_suppression_preserves_fvs_cp():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(4, 8)
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3))
        ]
        g = Multigraph(n, tuple(edges))
        v = next(
            (x for x in range(n) if g.degree(x) == 2 and not g.loops[x]), None
        )
        if v is None:
            continue
        h = reduction.suppress_degree2(g, v).graph
        assert solvers.fvs_exact(h).size == solvers.fvs_exact(g).size
        assert solvers.cp_exact(h).size == solvers.cp_exact(g).size


def test_cp_matches_branching_oracle():
    for g in (graphs.prism(), graphs.cube(), graphs.wheel(5)):
        branched = cp_oracle._cp_branch(g, None)
        assert solvers.cp_exact(g).size == branched.size
        branched.verify(g)


def test_fp_fixed_embedding():
    k4 = graphs.complete(4)
    fp = solvers.fp_fixed_embedding(k4, structure.planar_embedding(k4))
    assert fp.size == 1
    cube = graphs.cube()
    fp = solvers.fp_fixed_embedding(cube, structure.planar_embedding(cube))
    assert fp.size == 2
    fp.verify(cube)


def test_fp_le_cp():
    for g in (graphs.complete(4), graphs.prism(), graphs.cube(), graphs.dodecahedron()):
        rot = structure.planar_embedding(g)
        assert solvers.fp_fixed_embedding(g, rot).size <= solvers.cp_exact(g).size


def test_time_limit_raises(monkeypatch):
    with pytest.raises(solvers.SolverLimit):
        solvers.fvs_exact(graphs.dodecahedron(), time_limit_s=0.0)
    # K4 and the dodecahedron reach their root degree bound at once (the
    # dodecahedron with its first multi-start candidate), and reductions
    # empty a loop vertex, so no search runs; the deadline still holds
    bounds = []
    lower_bound = solvers._degree_lower_bound

    def counted(*args):
        bounds.append(args)
        return lower_bound(*args)

    monkeypatch.setattr(solvers, "_degree_lower_bound", counted)
    for g in (graphs.complete(4), Multigraph(1, ((0, 0),)), graphs.dodecahedron()):
        bounds.clear()
        solvers.fvs_exact(g)
        assert len(bounds) == 1, g  # the root bound only: no search node
        with pytest.raises(solvers.SolverLimit):
            solvers.fvs_exact(g, time_limit_s=1e-9)


def test_cp_time_limit_bounds_enumeration():
    # GP(50,2) needs its minimal cycles of up to 20 vertices, about a second
    # to list, and its packing search runs past 20 s, so the 0.2 s limit
    # fires in the second enumeration pass; the per-step deadline of the
    # enumeration is pinned by test_enumerate_cycles_deadline_per_step
    t0 = time.monotonic()
    with pytest.raises(solvers.SolverLimit):
        solvers.cp_exact(graphs.generalized_petersen(50, 2), time_limit_s=0.2)
    assert time.monotonic() - t0 < 3.0


def test_witness_to_dict():
    g = graphs.complete(4)
    d = solvers.witness_to_dict(solvers.fvs_exact(g))
    assert d["kind"] == "fvs" and d["size"] == 2 and len(d["vertices"]) == 2
    d = solvers.witness_to_dict(solvers.cp_exact(g))
    assert d["kind"] == "cp" and d["size"] == 1
