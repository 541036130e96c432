"""Exact feedback vertex sets and cycle packings on named graphs.

Every solver returns a witness (a vertex set or a list of edge-disjoint
cycle edge sets) that is re-verified against the graph, so a wrong answer
cannot slip through silently.
"""

from jonescheck import graphs, solvers
from jonescheck.multigraph import delete_vertices


def show(name, g):
    fvs = solvers.fvs_exact(g)
    cp = solvers.cp_exact(g)
    tight = "tight!" if fvs.size == 2 * cp.size else ""
    print(f"{name:>14}: n={g.n:>2} m={g.m:>2}  fvs={fvs.size}  cp={cp.size}  "
          f"fvs<=2cp: {fvs.size <= 2 * cp.size}  {tight}")
    print(f"{'':>14}  feedback set {fvs.vertices}, "
          f"packing cycles (edge ids) {cp.cycles}")


def main():
    show("K4", graphs.complete(4))
    show("prism", graphs.prism())
    show("cube Q3", graphs.cube())
    show("theta", graphs.theta())
    for n in (3, 5, 8):
        show(f"wheel W{n}", graphs.wheel(n))
    # the dodecahedron attains fvs = 2*cp exactly
    show("dodecahedron", graphs.dodecahedron())

    # the witnesses prove both values: deleting the feedback set leaves a
    # forest, and the packed cycles share no vertex, so cp <= fvs
    g = graphs.prism()
    fvs, cp = solvers.fvs_exact(g), solvers.cp_exact(g)
    assert delete_vertices(g, fvs.vertices).graph.is_forest()
    vsets = [{v for e in cyc for v in g.edges[e]} for cyc in cp.cycles]
    assert sum(map(len, vsets)) == len(set().union(*vsets))
    print(f"\nwitnesses on the prism: forest after deleting {fvs.vertices}, "
          f"{cp.size} vertex-disjoint cycles")


if __name__ == "__main__":
    main()
