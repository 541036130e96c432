"""jonescheck: a verification workbench for cycle packings and feedback
vertex sets in subcubic planar multigraphs.

The package checks, with exact solvers and machine-verified witnesses, that
fvs(G) <= 2 cp(G) holds across exhaustively enumerated corpora, and provides
the cut-decomposition machinery (bridges, 2-cuts, nontrivial 3-cuts) whose
certificates track how the bound behaves under each reduction.

The package namespace holds only the submodules and `__version__`; callers
import from the modules (`from jonescheck import harness, solvers`).
"""

from . import canonical, graphs, harness, io, multigraph, reduction, solvers, structure

__version__ = "0.1.0"
