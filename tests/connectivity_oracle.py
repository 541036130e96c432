"""Max-flow edge connectivity, the reference for the k-edge-connected <=>
k-connected check on subcubic graphs (acceptance criterion 6) and for the
cut engine in `jonescheck.structure`.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph


def edge_connectivity(g: Multigraph) -> int:
    """Exact edge connectivity; 0 for disconnected or single-vertex graphs."""
    if g.n <= 1 or not g.is_connected():
        return 0
    # unit-capacity max-flow from vertex 0 to every other vertex
    best = min(g.degrees())
    for t in range(1, g.n):
        best = min(best, _maxflow_edges(g, 0, t))
        if best == 0:
            break
    return best


def _maxflow_edges(g: Multigraph, s: int, t: int) -> int:
    # Edmonds-Karp on the doubled digraph; each undirected edge has one unit
    # of capacity shared between its two directions.
    cap: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            cap[(eid, 0)] = 1  # u -> v
            cap[(eid, 1)] = 1  # v -> u
    flow = 0
    while True:
        prev: dict[int, tuple[int, int]] = {s: (-1, -1)}
        queue = [s]
        while queue and t not in prev:
            nxt = []
            for x in queue:
                for y, eid in g.adjacency[x]:
                    if y in prev:
                        continue
                    d = 0 if g.edges[eid][0] == x else 1
                    if cap.get((eid, d), 0) > 0:
                        prev[y] = (eid, d)
                        nxt.append(y)
            queue = nxt
        if t not in prev:
            return flow
        x = t
        while x != s:
            eid, d = prev[x]
            cap[(eid, d)] -= 1
            cap[(eid, 1 - d)] += 1
            x = g.edges[eid][d]
        flow += 1
