"""Acceptance suite: one test per acceptance criterion, so `pytest -v`
prints one pass/fail line for each.  The corpora (connected simple subcubic
planar graphs with n <= 12; connected subcubic planar multigraphs with
n <= 8) are generated once per session and shared across criteria, as are
the exact fvs/cp values."""

import pytest

import bruteforce_oracle
import connectivity_oracle
import cut_oracle
from jonescheck import graphs, harness, reduction, solvers, structure


@pytest.fixture(scope="session")
def solved(simple_corpus_12, multi_corpus_8):
    """(graph, fvs size, cp size) for every corpus graph, computed once."""
    out = []
    for g in simple_corpus_12 + multi_corpus_8:
        out.append((g, solvers.fvs_exact(g).size, solvers.cp_exact(g).size))
    return out


def test_criterion1_theorem1_sweep_fvs_le_2cp(solved):
    violations = [(g.n, g.m) for g, fvs, cp in solved if fvs > 2 * cp]
    print(
        f"[criterion 1] fvs <= 2*cp over {len(solved)} corpus graphs: "
        f"{len(violations)} violations"
    )
    assert violations == []


def test_criterion2_tightness_dodecahedron_and_wheels():
    d = graphs.dodecahedron()
    fvs = solvers.fvs_exact(d, time_limit_s=60)
    cp = solvers.cp_exact(d, time_limit_s=60)
    tight = [("dodecahedron", fvs.size, cp.size, fvs.size == 2 * cp.size == 6)]
    for n in range(3, 11):
        w = graphs.wheel(n)
        wf = solvers.fvs_exact(w, time_limit_s=60)
        wc = solvers.cp_exact(w, time_limit_s=60)
        tight.append((f"W{n}", wf.size, wc.size, (wf.size, wc.size) == (2, 1)))
    bad = [t for t in tight if not t[3]]
    print(f"[criterion 2] tightness on dodecahedron + W3..W10: {len(bad)} failures")
    assert bad == []


def test_criterion3_oracle_equivalence(solved):
    checked = mismatches = 0
    for g, fvs, cp in solved:
        if g.n > 9:
            continue
        if bruteforce_oracle.fvs_bruteforce(g).size != fvs:
            mismatches += 1
        try:
            if bruteforce_oracle.cp_bruteforce(g).size != cp:
                mismatches += 1
        except solvers.SolverLimit:
            pass  # more than 20 cycles: beyond the oracle's guard
        checked += 1
    print(
        f"[criterion 3] oracle equivalence on {checked} graphs with n <= 9: "
        f"{mismatches} mismatches"
    )
    assert mismatches == 0


def test_criterion4_fvs_le_3cp(solved):
    violations = sum(fvs > 3 * cp for _, fvs, cp in solved)
    print(
        f"[criterion 4] fvs <= 3*cp over {len(solved)} planar corpus graphs: "
        f"{violations} violations"
    )
    assert violations == 0


# certificate entries whose left side is the parent's fvs or cp
_PARENT_FVS = ("fvs_", "b_", "c_", "d_")
_PARENT_CP = ("cp_union", "a_cp_union")


def _parent_mismatches(cert, fvs: int, cp: int) -> int:
    """Entries and observations of a certificate that disagree with the
    parent's exact values."""
    bad = 0
    right = {}
    for e in cert.entries:
        right[e.name] = e.right
        if e.name.startswith(_PARENT_FVS):
            bad += e.left != fvs
        elif e.name in _PARENT_CP:
            bad += e.left != cp
    if cert.observations:
        bad += cert.observations["eq3"] != (fvs == right["c_fvs_plus_one"])
        bad += cert.observations["eq4"] != (cp == right["a_cp_union"])
    return bad


def test_criterion5_cut_certificates(simple_corpus_12, solved):
    # the certificates take the parent's values from lifted part witnesses;
    # each must hold and name the parent's exact values
    simple = solved[: len(simple_corpus_12)]
    pool = [t for t in simple if t[0].n <= 10] + solved[len(simple_corpus_12) :]
    n1 = n2 = n3 = failures = mismatches = 0
    for g, fvs, cp in pool:
        if not g.is_connected():
            continue
        certs = []
        cuts = cut_oracle.scan_cuts(g)
        bridges = [c for c in cuts if len(c.edges) == 1]
        for cut in bridges:
            d = reduction.split_bridge(g, cut.edges[0])
            certs.append(reduction.check_bridge_certificate(d))
            n1 += 1
        if not bridges:  # the 2-cut certificate presumes a bridgeless graph
            for cut in (c for c in cuts if len(c.edges) == 2):
                certs.append(reduction.check_cut2_certificate(reduction.split_2cut(g, cut)))
                n2 += 1
            for cut in (c for c in cuts if len(c.edges) == 3):
                if not cut.trivial:
                    d = reduction.decompose_3cut(g, cut)
                    certs.append(reduction.check_cut3_certificate(d))
                    n3 += 1
        for cert in certs:
            failures += not cert.holds
            mismatches += _parent_mismatches(cert, fvs, cp)
    print(
        f"[criterion 5] cut certificates: {n1} bridges, {n2} two-cuts and {n3} "
        f"nontrivial three-cuts checked, {failures} failures, {mismatches} "
        f"parent values unlike the exact ones"
    )
    assert failures == 0
    assert mismatches == 0
    assert min(n1, n2, n3) > 0


def test_criterion6_structural_equivalences(simple_corpus_12, multi_corpus_8):
    mismatches = 0
    ncubic = nconn = 0
    for g in simple_corpus_12 + multi_corpus_8:
        # a loop makes a single-vertex cut side contain a cycle, so a trivial
        # cut can be cyclic and the equivalence only holds for loopless
        # cubic graphs (e.g. two loop-vertices joined by a bridge break it)
        if g.is_cubic() and not any(g.loops):
            ess4, cyc4 = structure.small_cut_flags(g)
            if ess4 != cyc4:
                mismatches += 1
            ncubic += 1
        ec = connectivity_oracle.edge_connectivity(g)
        vc = structure.vertex_connectivity(g)
        for k in (1, 2, 3):
            if g.n >= k + 1:
                if (ec >= k) != (vc >= k):
                    mismatches += 1
                nconn += 1
    print(
        f"[criterion 6] essentially-4ec<=>cyclically-4ec on {ncubic} cubic "
        f"graphs and k-edge-conn<=>k-conn on {nconn} graph/k pairs: "
        f"{mismatches} mismatches"
    )
    assert mismatches == 0


def test_criterion7_munaro_consistency(solved):
    checked = failures = 0
    for g, fvs, cp in solved:
        if not (g.is_simple() and g.is_subcubic()):
            continue
        if not structure.small_cut_flags(g)[1]:  # cyclically 4ec
            continue
        checked += 1
        if fvs > 2 * cp:
            failures += 1
    print(
        f"[criterion 7] jones2 on {checked} cyclically-4ec simple subcubic "
        f"planar graphs: {failures} failures"
    )
    assert failures == 0


def test_criterion8_conjecture2_exploration(solved):
    worst = None
    violations = 0
    checked = 0
    for g, fvs, _cp in solved:
        if not (g.is_simple() and g.n >= 4):
            continue
        if structure.vertex_connectivity(g) < 3:
            continue
        rot = structure.planar_embedding(g)
        fp = solvers.fp_fixed_embedding(g, rot)
        margin = 2 * fp.size - fvs
        checked += 1
        if worst is None or margin < worst:
            worst = margin
        if margin < 0:
            violations += 1
    print(
        f"[criterion 8] conjecture exploration over {checked} 3-connected "
        f"simple planar corpus graphs: min(2*fp - fvs) = {worst}, "
        f"{violations} CONJECTURE-VIOLATION records"
    )
    assert checked > 0
    assert worst is not None and worst >= 0
    assert violations == 0


def test_criterion9_pipeline_leaf_contract(simple_corpus_12, multi_corpus_8):
    bad_leaves = bad_lifts = nlift = 0
    for g in simple_corpus_12 + multi_corpus_8:
        res = harness.reduce_pipeline(g)
        for leaf in res.leaves:
            if leaf.label not in ("acyclic", "essentially_4ec", "small"):
                bad_leaves += 1
        for d in res.decompositions:
            try:
                if d.kind == "cut3":
                    s_abc = solvers.fvs_exact(d.parts["G1_ABC"].graph)
                    s2 = solvers.fvs_exact(d.parts["G2"].graph)
                    reduction.lift_fvs_3cut(d, s_abc, s2, i=1).verify(d.parent)
                    nlift += 1
                elif d.kind == "cut2":
                    p1 = solvers.cp_exact(d.parts["G1p"].graph)
                    p2 = solvers.cp_exact(d.parts["G2p"].graph)
                    packings = {"G1p": p1, "G2p": p2}
                    reduction._lift_packing(d, packings, "G1p", "G2p").verify(d.parent)
                    nlift += 1
            except AssertionError:
                bad_lifts += 1
    total = len(simple_corpus_12) + len(multi_corpus_8)
    print(
        f"[criterion 9] pipeline leaf contract over {total} graphs: "
        f"{bad_leaves} bad leaves, {bad_lifts} of {nlift} lifted witnesses "
        f"failed re-verification"
    )
    assert bad_leaves == 0
    assert bad_lifts == 0
    assert nlift > 0
