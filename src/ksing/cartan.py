"""Path counts of the truncated quiver and the resulting Cartan matrix.

The commutation squares identify any two reorderings of the same letters,
so path classes between two vertices correspond to letter multisets with
matching weight sum.  The number of classes from i to i + s therefore does
not depend on i and equals the coefficient of t**s in the power series
prod_j 1 / (1 - t**a_j).  Two independent routes to these numbers live
here: exact series expansion, and a dynamic program over the quiver's
arrows that collects each vertex's letter multisets.
"""

from __future__ import annotations

from .errors import InputError
from .linalg import IntMatrix
from .params import QuotientParams
from .quiver import Quiver


class PathExplosion(InputError):
    """Raw path enumeration exceeded the configured cap."""


class NotHomogeneous(InputError):
    """Path-class counts of a quiver depend on the start vertex."""


def path_counts_gf(params: QuotientParams) -> list[int]:
    """Path-class counts P(0), ..., P(n-2) by series expansion.

    >>> path_counts_gf(QuotientParams(5, 3, (1, 2, 2)))
    [1, 1, 3, 3]
    """
    n = params.n
    counts = [0] * (n - 1)
    counts[0] = 1
    for a in params.weights:
        for s in range(a, n - 1):
            counts[s] += counts[s - a]
    return counts


def path_counts_bruteforce(q: Quiver, cap: int = 10_000_000) -> list[int]:
    """Path-class counts by one pass over the arrows per start vertex.

    In order of target, each arrow carries the raw path count and the
    classes (sorted letter tuples) of its source into its target.  Raises
    InputError for a negative ``cap``, a quiver without vertices or an arrow
    that does not go up within the vertices, PathExplosion once more than
    ``cap`` raw paths have been counted, and NotHomogeneous unless the class
    count from i to i + s is the same for every start vertex i, as it is for
    every quiver build_quiver makes.
    """
    if cap < 0:
        raise InputError(f"raw path cap must be nonnegative, got {cap}")
    if q.vertex_count < 1:
        raise InputError("quiver has no vertices")
    if any(not 1 <= source < target <= q.vertex_count for source, target, _ in q.arrows):
        raise InputError(f"arrows must go up within vertices 1..{q.vertex_count}")
    arrows = sorted(q.arrows, key=lambda a: a.target)

    raw = 0
    per_start: dict[int, dict[int, int]] = {}
    for start in range(1, q.vertex_count + 1):
        paths = {start: 1}
        classes: dict[int, set[tuple[int, ...]]] = {start: {()}}
        for source, target, letter in arrows:
            if source in paths:
                raw += paths[source]
                if raw > cap:
                    raise PathExplosion(
                        f"more than {cap} raw paths; raise the cap to continue"
                    )
                paths[target] = paths.get(target, 0) + paths[source]
                classes.setdefault(target, set()).update(
                    tuple(sorted(c + (letter,))) for c in classes[source]
                )
        per_start[start] = {v - start: len(cls) for v, cls in classes.items()}

    base = per_start[1]
    for start in range(2, q.vertex_count + 1):
        for off in range(q.vertex_count - start + 1):
            if per_start[start].get(off, 0) != base.get(off, 0):
                raise NotHomogeneous(
                    f"path count from {start} at offset {off} differs from"
                    f" vertex 1"
                )
    return [base.get(s, 0) for s in range(q.vertex_count)]


def cartan_matrix(counts: list[int]) -> IntMatrix:
    """Lower-triangular Toeplitz matrix with entry (i, j) = P(i - j)."""
    if not counts or counts[0] != 1:
        raise ValueError("path counts must start with P(0) = 1")
    return IntMatrix.lower_toeplitz(counts)
