import itertools

import pytest

import generator_oracle
from isomorphism import are_isomorphic
from jonescheck import canonical, graphs, harness, structure
from jonescheck.canonical import canonical_form
from jonescheck.multigraph import Multigraph


def _bruteforce_simple_classes(n):
    """All connected simple subcubic planar graphs on n labeled vertices,
    collapsed by canonical form — an independent oracle for the generator."""
    pairs = list(itertools.combinations(range(n), 2))
    forms = set()
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        g = Multigraph(n, edges)
        if not g.is_subcubic() or not g.is_connected():
            continue
        if not structure.is_planar(g):
            continue
        forms.add(canonical_form(g))
    return forms


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generator_matches_bruteforce(n):
    spec = harness.CorpusSpec("subcubic-planar-simple", n)
    got = {canonical_form(g) for g in harness.generate_corpus(spec) if g.n == n}
    assert got == _bruteforce_simple_classes(n)


def test_generator_matches_unpruned(monkeypatch):
    """Canonical-deletion pruning keeps every class and the stream order,
    and canonicalizes far fewer children than the unpruned loop."""
    levels, unpruned = generator_oracle.simple_levels(9)
    want = [cf for level in levels for cf in sorted(level)]
    calls = 0

    def counting(g, *args):
        nonlocal calls
        calls += 1
        return canonical.canonical_form(g, *args)

    # a fresh level cache, so the module's shared cache is neither used nor filled
    monkeypatch.setattr(harness, "_SIMPLE_LEVELS", {})
    monkeypatch.setattr(harness, "canonical_form", counting)
    spec = harness.CorpusSpec("subcubic-planar-simple", 9)
    got = [canonical.canonical_form(g) for g in harness.generate_corpus(spec)]
    assert got == want
    assert calls - 1 < unpruned / 2  # level 1 costs one call


def test_multi_class_matches_decorate_then_dedupe(monkeypatch):
    """One decoration per Aut(backbone)-orbit gives exactly the classes that
    canonicalizing every decoration finds, each once, with no decoration
    canonicalized."""
    levels, _ = generator_oracle.simple_levels(7)
    want = set().union(*map(generator_oracle.multi_level, levels))

    def no_call(*args):
        raise AssertionError("canonical_form called on a decoration")

    monkeypatch.setattr(harness, "_SIMPLE_LEVELS", {})
    harness._simple_level(7)  # the backbones are canonicalized here
    monkeypatch.setattr(harness, "canonical_form", no_call)
    spec = harness.CorpusSpec("subcubic-planar-multi", 7)
    got = [canonical_form(g) for g in harness.generate_corpus(spec)]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_cubic_class():
    gs = list(harness.generate_corpus(harness.CorpusSpec("cubic-planar-simple", 6)))
    assert [(g.n, g.m) for g in gs] == [(4, 6), (6, 9)]  # K4 and the prism
    assert all(g.is_cubic() for g in gs)
    # no cubic graph has an odd number of vertices
    assert not any(g.n % 2 for g in gs)


def test_multi_class_small():
    gs = list(harness.generate_corpus(harness.CorpusSpec("subcubic-planar-multi", 1)))
    assert [(g.n, g.m) for g in gs] == [(1, 0), (1, 1)]
    gs2 = [
        g
        for g in harness.generate_corpus(harness.CorpusSpec("subcubic-planar-multi", 2))
        if g.n == 2
    ]
    # K2 with multiplicity 1..3, K2 + one loop, K2 + two loops
    assert len(gs2) == 5
    assert all(g.is_subcubic() for g in gs2)


def test_corpus_deterministic():
    a = [
        canonical_form(g)
        for g in harness.generate_corpus(harness.CorpusSpec("subcubic-planar-simple", 6))
    ]
    b = [
        canonical_form(g)
        for g in harness.generate_corpus(harness.CorpusSpec("subcubic-planar-simple", 6))
    ]
    assert a == b
    assert len(set(a)) == len(a)  # pairwise non-isomorphic


def test_corpus_guards():
    with pytest.raises(ValueError):
        list(harness.generate_corpus(harness.CorpusSpec("subcubic-planar-simple", 15)))
    with pytest.raises(ValueError):
        list(harness.generate_corpus(harness.CorpusSpec("subcubic-planar-multi", 11)))
    with pytest.raises(ValueError):
        list(harness.generate_corpus(harness.CorpusSpec("nope", 3)))
    with pytest.raises(ValueError):
        harness.CorpusSpec("subcubic-planar-simple", 0)


def test_run_checks_prism():
    rec = harness.run_checks(graphs.prism())
    assert rec.values == {"cp": 2, "fvs": 2, "fp_fixed": 2}
    assert rec.checks["jones2"] and rec.checks["triple"]
    assert rec.flags["cubic"] and rec.flags["planar"]
    assert not rec.flags["cyclically_4ec"]
    assert rec.assertion_failures() == []
    assert not rec.skipped
    import json

    parsed = json.loads(rec.to_json())
    assert parsed["graph_id"] == rec.graph_id


def test_run_checks_nonplanar():
    rec = harness.run_checks(graphs.petersen())
    assert not rec.flags["planar"]
    assert "jones2" not in rec.checks  # conditional on planarity
    assert "fp_fixed" not in rec.values


def test_run_checks_time_limit():
    rec = harness.run_checks(graphs.dodecahedron(), time_limit_s=1e-9)
    assert "fvs" in rec.skipped


def test_run_checks_packs_faces_only_where_exact(monkeypatch):
    # a planar graph that is not 3-connected has several embeddings, so it
    # is never embedded and carries no face packing
    def no_embedding(g):
        raise AssertionError("planar_embedding called")

    monkeypatch.setattr(structure, "planar_embedding", no_embedding)
    bowtie = Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    for g in (graphs.cycle(5), bowtie, graphs.path(3), graphs.theta()):
        rec = harness.run_checks(g)
        assert rec.flags["planar"] and not rec.flags["fp_is_exact"]
        assert "fp_fixed" not in rec.values and "fp" not in rec.wall_time
        assert "facepack2" not in rec.checks and rec.checks["triple"]


def test_run_checks_wheel_is_exact():
    # W5 is simple and 3-connected with a hub of degree 5
    rec = harness.run_checks(graphs.wheel(5))
    assert rec.flags["fp_is_exact"] and not rec.flags["subcubic"]
    assert rec.values["fp_fixed"] == 1
    assert rec.checks["facepack2"] and rec.checks["triple"]
    assert "jones2" not in rec.checks


def test_pipeline_tree():
    res = harness.reduce_pipeline(graphs.path(6))
    assert all(l.label == "acyclic" for l in res.leaves)


def test_pipeline_prism():
    res = harness.reduce_pipeline(graphs.prism(), with_certificates=True)
    assert [d.kind for d in res.decompositions][0] == "cut3"
    assert all(
        l.label in ("acyclic", "essentially_4ec", "small") for l in res.leaves
    )
    assert all(c.holds for c in res.certificates)


def test_pipeline_2cut_keeps_virtual_edges():
    # two K4-minus-an-edge blocks joined by a 2-edge cut: each side with its
    # virtual edge is a K4 leaf
    g = Multigraph(
        8,
        (
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
            (0, 4), (3, 7),
        ),
    )
    res = harness.reduce_pipeline(g, with_certificates=True)
    assert [d.kind for d in res.decompositions] == ["cut2"]
    assert [l.label for l in res.leaves] == ["small", "small"]
    assert all(are_isomorphic(l.graph, graphs.complete(4)) for l in res.leaves)
    assert [c.holds for c in res.certificates] == [True]


def test_pipeline_dodecahedron():
    res = harness.reduce_pipeline(graphs.dodecahedron())
    assert len(res.leaves) == 1
    assert res.leaves[0].label == "essentially_4ec"
    assert res.decompositions == ()


def test_pipeline_disconnected():
    # two triangles and an isolated vertex: the components are split off
    # once, up front, and reduced last to first
    g = Multigraph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    res = harness.reduce_pipeline(g)
    assert [d.kind for d in res.decompositions] == ["low_degree"] * 3
    assert [(l.graph.n, l.graph.edges, l.label) for l in res.leaves] == [
        (0, (), "acyclic"),
        (1, ((0, 0),), "small"),
        (1, ((0, 0),), "small"),
    ]


def test_graph_digest_stable():
    assert harness.graph_digest(graphs.complete(4)) == harness.graph_digest(
        graphs.complete(4)
    )
    assert harness.graph_digest(graphs.complete(4)) != harness.graph_digest(
        graphs.prism()
    )
