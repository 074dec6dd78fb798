"""Bootstrap percolation on Hamming and line graphs.

Percolation engines for the r-neighbor vertex process, the star edge
process and the line-graph edge process; the explicit minimum or
near-minimum seed constructions for those processes; their closed-form
sizes and sandwich bounds; an exact integer-rank computation of the
recognized-polynomial lower bound; and a brute-force oracle that
cross-validates everything on tiny instances.

Importing the package runs only :mod:`bootperc.errors`.  Each other
layer module is registered in ``sys.modules`` and bound here at once,
but its code runs on the first access to one of its attributes, so a
command compiles only the layers it calls.  The public names below are
served from their layer modules on first use (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from bootperc import errors

__version__ = "0.1.0"


def _lazy(layer: str):
    """The module bootperc.<layer>, in sys.modules, its code not yet run."""
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


hamming = _lazy("hamming")
graphs = _lazy("graphs")
linalg = _lazy("linalg")
formulas = _lazy("formulas")
packed = _lazy("packed")
engine = _lazy("engine")
constructions = _lazy("constructions")
oracle = _lazy("oracle")
polymethod = _lazy("polymethod")

# public name -> the module that defines it
_HOMES = {
    "carved_corner_set": constructions,
    "carved_region": constructions,
    "line_seed": constructions,
    "simplex_corner_set": constructions,
    "simplex_region": constructions,
    "star_seed_hamming": constructions,
    "vertex_seed_dim2": constructions,
    "ActivationTrace": engine,
    "is_percolating": engine,
    "percolate": engine,
    "trace_to_jsonable": engine,
    "FormatError": errors,
    "PreconditionError": errors,
    "ResourceLimitError": errors,
    "min_seed_hamming_bounds": formulas,
    "min_seed_hamming_dim2": formulas,
    "min_seed_line_complete": formulas,
    "weak_saturation_hamming": formulas,
    "Graph": graphs,
    "graph_from_text": graphs,
    "make_complete": graphs,
    "make_hamming": graphs,
    "make_line_graph": graphs,
    "seed_from_text": graphs,
    "seed_to_text": graphs,
    "HammingSpace": hamming,
    "SearchResult": oracle,
    "min_percolating": oracle,
    "is_percolating_hamming": packed,
    "DimReport": polymethod,
    "is_proper_coloring": polymethod,
    "product_coloring_on": polymethod,
    "recognized_space_dim_hamming": polymethod,
    "recognized_space_report": polymethod,
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
