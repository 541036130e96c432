"""Cut structure and the decomposition machinery, on the prism.

The prism (two triangles joined by three rungs) has exactly one nontrivial
3-edge-cut.  Decomposing along it contracts each side onto a single vertex,
turning both sides into K4; the certificate records the inequalities that
relate optima of the parts to optima of the parent, and a feedback set of
the parent is rebuilt ("lifted") from feedback sets of the parts and
re-verified.
"""

from jonescheck import graphs, reduction, solvers, structure
from jonescheck.canonical import canonical_form


def main():
    prism = graphs.prism()
    cut = structure.find_first_cut(prism)
    print(f"nontrivial 3-cut of the prism: edge ids {cut.edges}, "
          f"sides {cut.side_a} / {cut.side_b}, cyclic: {cut.cyclic}")

    d = reduction.decompose_3cut(prism, cut)
    print("parts:", ", ".join(sorted(d.parts)))
    print("G1_ABC isomorphic to K4:",
          canonical_form(d.parts["G1_ABC"].graph) == canonical_form(graphs.complete(4)))

    cert = reduction.check_cut3_certificate(d)
    print(f"certificate holds: {cert.holds} "
          f"({len(cert.entries)} inequalities checked)")
    for e in cert.entries[:4]:
        print(f"  {e.name}: {e.left} {e.relation} {e.right} -> {e.holds}")
    print("  ...")

    s_abc = solvers.fvs_exact(d.parts["G1_ABC"].graph)
    s2 = solvers.fvs_exact(d.parts["G2"].graph)
    lifted = reduction.lift_fvs_3cut(d, s_abc, s2, i=1)
    print(f"lifted feedback set of the prism: {lifted.vertices} "
          f"(verified, size {lifted.size})")

    # the full pipeline reduces any graph to acyclic / essentially-4ec /
    # tiny leaves
    for name, g in (("prism", prism), ("dodecahedron", graphs.dodecahedron())):
        res = reduction_pipeline_summary(g)
        print(f"pipeline({name}): {res}")


def reduction_pipeline_summary(g):
    from jonescheck import harness

    res = harness.reduce_pipeline(g, with_certificates=True)
    steps = [dd.kind for dd in res.decompositions]
    leaves = [(l.graph.n, l.label) for l in res.leaves]
    certs_ok = all(c.holds for c in res.certificates)
    return f"steps={steps} leaves={leaves} certificates_ok={certs_ok}"


if __name__ == "__main__":
    main()
