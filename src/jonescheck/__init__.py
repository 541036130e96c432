"""jonescheck: a verification workbench for cycle packings and feedback
vertex sets in subcubic planar multigraphs.

The package checks, with exact solvers and machine-verified witnesses, that
fvs(G) <= 2 cp(G) holds across exhaustively enumerated corpora, and provides
the cut-decomposition machinery (bridges, 2-cuts, nontrivial 3-cuts) whose
certificates track how the bound behaves under each reduction.
"""

from .multigraph import (
    EditResult,
    Multigraph,
    add_edge,
    add_isolated_vertices,
    contract_side_to_vertex,
    delete_edges,
    delete_vertices,
)
from .canonical import are_isomorphic, canonical_form
from .io import FormatError, parse, serialize
from .structure import (
    EdgeCut,
    Face,
    RotationSystem,
    enumerate_cuts,
    faces,
    find_first_cut,
    is_planar,
    planar_embedding,
    small_cut_flags,
    vertex_connectivity,
)
from .solvers import (
    CyclePacking,
    FacePacking,
    FeedbackSet,
    SolverLimit,
    cp_exact,
    enumerate_cycles,
    fp_fixed_embedding,
    fvs_exact,
    witness_to_dict,
)
from .reduction import (
    Certificate,
    Decomposition,
    Part,
    certify,
    check_bridge_certificate,
    check_cut2_certificate,
    check_cut3_certificate,
    combine_packings_2cut,
    decompose_3cut,
    delete_degree_le1,
    lift_fvs_3cut,
    split_2cut,
    split_bridge,
    suppress_degree2,
    tree_median,
)
from .harness import (
    CorpusSpec,
    PipelineResult,
    VerificationRecord,
    generate_corpus,
    reduce_pipeline,
    run_checks,
)
from . import graphs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
