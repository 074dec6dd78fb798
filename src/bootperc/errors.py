"""Exceptions shared across the package, and the checks every layer makes."""


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


def check_threshold(r: int) -> None:
    """Refuse a negative threshold."""
    if r < 0:
        raise PreconditionError("threshold r must be nonnegative")
