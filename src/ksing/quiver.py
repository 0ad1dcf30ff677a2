"""Truncated quiver of a cyclic quotient singularity.

Starting from the full cyclic quiver on Z/nZ with arrows i -> i + a_j and
commutation relations, drop every arrow that wraps past n - 1 and the
vertex 0.  What remains has the closed form implemented here: vertices
1..n-1, an arrow (i, j) exactly when i + a_j <= n - 1, and a commutation
square at (i, j, j') exactly when i + a_j + a_j' <= n - 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .params import QuotientParams


class Arrow(NamedTuple):
    """Arrow source -> target carrying the 1-based weight index ``letter``."""

    source: int
    target: int
    letter: int


class Relation(NamedTuple):
    """Surviving commutation square based at ``vertex``.

    Identifies the two length-2 paths using letters ``first_letter`` and
    ``second_letter`` (stored with first < second).
    """

    vertex: int
    first_letter: int
    second_letter: int


class Quiver(NamedTuple):
    vertex_count: int
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]


def build_quiver(params: QuotientParams) -> Quiver:
    """Construct the truncated quiver for validated parameters."""
    n, d, weights = params
    arrows = tuple(
        Arrow(i, i + a, j)
        for i in range(1, n)
        for j, a in enumerate(weights, 1)
        if i + a <= n - 1
    )
    relations = tuple(
        Relation(i, j, jp)
        for i in range(1, n)
        for j in range(1, d + 1)
        for jp in range(j + 1, d + 1)
        if i + weights[j - 1] + weights[jp - 1] <= n - 1
    )
    return Quiver(n - 1, arrows, relations)


def export_quiver(q: Quiver, format: str) -> str:
    """Serialize a quiver deterministically as DOT or JSON text."""
    if format == "dot":
        lines = ["digraph quiver {", "  rankdir=LR;"]
        for v in range(1, q.vertex_count + 1):
            lines.append(f"  {v};")
        for arrow in sorted(q.arrows):
            lines.append(
                f'  {arrow.source} -> {arrow.target} [label="{arrow.letter}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        payload = {
            "vertex_count": q.vertex_count,
            "arrows": [a._asdict() for a in q.arrows],
            "relations": [r._asdict() for r in q.relations],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown quiver format {format!r}")


def quiver_from_json(text: str) -> Quiver:
    """Inverse of export_quiver(..., 'json')."""
    import json

    payload = json.loads(text)
    return Quiver(
        vertex_count=payload["vertex_count"],
        arrows=tuple(Arrow(**a) for a in payload["arrows"]),
        relations=tuple(Relation(**r) for r in payload["relations"]),
    )
