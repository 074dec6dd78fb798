"""Exceptions shared across the package, the checks of every layer and seed, and the slot cap."""


class PreconditionError(ValueError):
    """An operation was asked outside its documented domain.

    Raised, for example, when a closed-form size is requested for a
    parameter range where the formula is not valid, or when a seed
    refers to vertices/edges that are not in the graph.
    """


class ResourceLimitError(RuntimeError):
    """A configured size or budget guard tripped.

    Raised before starting (or while running) a computation whose cost
    would exceed a configured cap, e.g. a huge Hamming graph request or
    an exhaustive search over too many subsets.
    """


class FormatError(ValueError):
    """A graph or seed text file could not be parsed."""


PROCESSES = ("vertex", "star", "line")


def check_process(process: str) -> None:
    """Refuse a process name other than those of PROCESSES."""
    if process not in PROCESSES:
        raise PreconditionError(f"unknown process {process!r}")


def check_int(name: str, value: int) -> None:
    """Refuse a ``value`` that is not an int, naming it ``name``."""
    if not isinstance(value, int):
        raise PreconditionError(f"{name} must be an int, not {value!r}")


def check_threshold(r: int) -> None:
    """Refuse a threshold that is not a nonnegative int."""
    check_int("threshold r", r)
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")


def _vertex_ids(count: int, r: int, seed) -> list[int]:
    check_threshold(r)
    out = list(seed)
    for v in out:
        if not (isinstance(v, int) and 0 <= v < count):
            raise PreconditionError(f"seed vertex {v!r} not in graph")
    return out


def _edge_pair(e) -> tuple[int, int]:
    """The two ends of seed edge ``e``; PreconditionError unless it is a pair of ints."""
    try:
        u, v = e
    except (TypeError, ValueError):
        u = v = None
    if not (isinstance(u, int) and isinstance(v, int)):
        raise PreconditionError(f"seed edge {e!r} is not a pair of ints")
    return u, v


def _not_an_edge(u: int, v: int) -> PreconditionError:
    return PreconditionError(f"seed edge {(min(u, v), max(u, v))} not in graph")


# The size cap of a CSR graph: vertices + 2*edges slots.  Rows take 4
# bytes per slot and derived edge ids 8 more; deriving them peaks near
# 15 bytes per slot (Hamming(12,5): 13.9M slots, 205 MB over the
# interpreter's own 20 MB), so about 300 MB at the cap.  The cap also
# keeps every offset, vertex and edge id inside a 32-bit typecode.  The
# seed constructions derive their own cap from it.
DEFAULT_SLOT_CAP = 20_000_000
