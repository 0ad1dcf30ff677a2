"""Path counts of the truncated quiver and the resulting Cartan matrix.

The commutation squares identify any two reorderings of the same letters,
so path classes between two vertices correspond to letter multisets with
matching weight sum.  The number of classes from i to i + s therefore does
not depend on i and equals the coefficient of t**s in the power series
prod_j 1 / (1 - t**a_j).  Two independent routes give these numbers:
exact series expansion, here, and a dynamic program over the quiver's
arrows that collects each vertex's letter multisets, each held as one
integer whose digits count the letters, path_counts_bruteforce, which loads
on first use.
"""

from __future__ import annotations

from . import _bind
from .errors import InputError
from .linalg import IntMatrix
from .params import QuotientParams


def __getattr__(name):
    return _bind(globals(), name)


class PathExplosion(InputError):
    """Brute-force path counting would pass its budget of class updates."""


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


def cartan_matrix(counts: list[int]) -> IntMatrix:
    """Lower-triangular Toeplitz matrix with entry (i, j) = P(i - j)."""
    if not counts or counts[0] != 1:
        raise ValueError("path counts must start with P(0) = 1")
    return IntMatrix.lower_toeplitz(counts)
