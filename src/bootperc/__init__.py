"""Bootstrap percolation on Hamming and line graphs.

Percolation engines for the r-neighbor vertex process, the star edge
process and the line-graph edge process; the explicit minimum or
near-minimum seed constructions for those processes; their closed-form
sizes and sandwich bounds; an exact integer-rank computation of the
recognized-polynomial lower bound; and a brute-force oracle that
cross-validates everything on tiny instances.
"""

from bootperc.constructions import (
    carved_corner_set,
    carved_region,
    inner_cut_region,
    line_seed,
    simplex_corner_set,
    simplex_region,
    star_seed_complete,
    star_seed_hamming,
    vertex_seed_dim2,
)
from bootperc.engine import (
    ActivationTrace,
    is_percolating,
    is_percolating_hamming,
    percolate,
    seed_from_text,
    seed_to_text,
    trace_to_jsonable,
)
from bootperc.errors import FormatError, PreconditionError, ResourceLimitError
from bootperc.formulas import (
    min_seed_complete,
    min_seed_hamming_bounds,
    min_seed_hamming_dim2,
    min_seed_line_complete,
    weak_saturation_hamming,
)
from bootperc.graphs import (
    Graph,
    HammingSpace,
    graph_from_text,
    graph_to_text,
    make_complete,
    make_hamming,
    make_line_graph,
)
from bootperc.oracle import SearchResult, min_percolating
from bootperc.polymethod import (
    DimReport,
    EdgeColoring,
    is_proper_coloring,
    product_coloring_on,
    recognized_space_dim_hamming,
    recognized_space_report,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationTrace",
    "DimReport",
    "EdgeColoring",
    "FormatError",
    "Graph",
    "HammingSpace",
    "PreconditionError",
    "ResourceLimitError",
    "SearchResult",
    "carved_corner_set",
    "carved_region",
    "graph_from_text",
    "graph_to_text",
    "inner_cut_region",
    "is_percolating",
    "is_percolating_hamming",
    "is_proper_coloring",
    "line_seed",
    "make_complete",
    "make_hamming",
    "make_line_graph",
    "min_percolating",
    "min_seed_complete",
    "min_seed_hamming_bounds",
    "min_seed_hamming_dim2",
    "min_seed_line_complete",
    "percolate",
    "product_coloring_on",
    "recognized_space_dim_hamming",
    "recognized_space_report",
    "seed_from_text",
    "seed_to_text",
    "simplex_corner_set",
    "simplex_region",
    "star_seed_complete",
    "star_seed_hamming",
    "trace_to_jsonable",
    "vertex_seed_dim2",
    "weak_saturation_hamming",
]
