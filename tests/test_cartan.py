import time
from collections import defaultdict
from math import comb

import pytest

from ksing import (
    Arrow,
    InputError,
    IntMatrix,
    NotHomogeneous,
    PathExplosion,
    Quiver,
    build_quiver,
    cartan_matrix,
    determinant,
    path_counts_bruteforce,
    path_counts_gf,
    quiver_from_json,
    unipotent_inverse,
    validate_params,
)

from conftest import all_valid_params


def test_gf_low_dim_example():
    assert path_counts_gf(validate_params(5, 3, [1, 2, 2])) == [1, 1, 3, 3]


def test_gf_family_counts_are_multicombinations():
    for d in range(2, 8):
        counts = path_counts_gf(validate_params(d, d, [1] * d))
        assert counts == [comb(d + s - 1, s) for s in range(d - 1)]


def test_gf_smallest_case():
    assert path_counts_gf(validate_params(2, 2, [1, 1])) == [1]


def test_gf_unreachable_offsets_are_zero():
    # weights (2, 3): no path of total weight 1
    assert path_counts_gf(validate_params(5, 2, [2, 3])) == [1, 0, 1, 1]


def test_bruteforce_low_dim_example():
    counts = path_counts_bruteforce(build_quiver(validate_params(5, 3, [1, 2, 2])))
    # offset 3 classes: {x,x,x}, {x,y}, {x,z}
    assert counts == [1, 1, 3, 3]


def test_bruteforce_empty_quiver():
    assert path_counts_bruteforce(build_quiver(validate_params(2, 2, [1, 1]))) == [1]


def test_bruteforce_three_parallel_arrows():
    counts = path_counts_bruteforce(build_quiver(validate_params(3, 3, [1, 1, 1])))
    assert counts == [1, 3]


def test_bruteforce_cap():
    q = build_quiver(validate_params(8, 8, [1] * 8))
    with pytest.raises(PathExplosion):
        path_counts_bruteforce(q, cap=5)


def test_bruteforce_rejects_non_homogeneous_quiver():
    # One arrow 1 -> 2: vertex 1 reaches offset 1, vertex 2 does not.
    q = quiver_from_json(
        '{"vertex_count": 3, "relations": [],'
        ' "arrows": [{"source": 1, "target": 2, "letter": 1}]}'
    )
    with pytest.raises(NotHomogeneous, match="from 2 at offset 1"):
        path_counts_bruteforce(q)


@pytest.mark.parametrize(
    "arrows",
    [
        [(1, 3, 1), (3, 2, 2)],  # in order of target, 3 -> 2 precedes 1 -> 3
        [(2, 1, 1)],
        [(1, 1, 1)],  # a loop has raw paths of every length
    ],
)
def test_bruteforce_rejects_arrows_that_do_not_go_up(arrows):
    q = Quiver(3, tuple(Arrow(*a) for a in arrows), ())
    with pytest.raises(InputError, match="must go up") as excinfo:
        path_counts_bruteforce(q, cap=1000)
    assert type(excinfo.value) is InputError


def test_bruteforce_cap_is_exact_at_the_raw_path_count():
    # cap counts nonempty raw paths over all start vertices, so the count
    # must pass at cap = R and raise at cap = R - 1; n = 2 has R = 0, and
    # a negative cap is never checked
    for params in [p for p in all_valid_params(7) if p.n > 2]:
        q = build_quiver(params)
        raw = sum(len(seqs) for seqs in raw_paths_by_cell(q).values())
        raw -= q.vertex_count
        assert path_counts_bruteforce(q, cap=raw) == path_counts_gf(params)
        with pytest.raises(PathExplosion):
            path_counts_bruteforce(q, cap=raw - 1)


def test_bruteforce_cap_fails_fast():
    q = build_quiver(validate_params(12, 12, [1] * 12))
    began = time.perf_counter()
    with pytest.raises(PathExplosion):
        path_counts_bruteforce(q)
    assert time.perf_counter() - began < 2.0


def test_oracle_equivalence_small():
    # the full n <= 10, d <= 6 sweep runs in the acceptance suite
    for params in all_valid_params(7):
        gf = path_counts_gf(params)
        brute = path_counts_bruteforce(build_quiver(params))
        assert gf == brute, params


def raw_paths_by_cell(quiver):
    """Enumerate raw letter sequences grouped by (start, end)."""
    out = defaultdict(list)
    adjacency = defaultdict(list)
    for a in quiver.arrows:
        adjacency[a.source].append((a.target, a.letter))
    for start in range(1, quiver.vertex_count + 1):
        stack = [(start, ())]
        while stack:
            v, seq = stack.pop()
            out[(start, v)].append(seq)
            for w, letter in adjacency[v]:
                stack.append((w, seq + (letter,)))
    return out


def swap_closure_class_count(params, sequences):
    """Classes of raw paths under adjacent swaps licensed by the relations.

    A swap at position p needs the commutation square based at the vertex
    reached before position p (letter equality is always allowed).
    """
    quiver = build_quiver(params)
    relations = {(r.vertex, r.first_letter, r.second_letter) for r in quiver.relations}
    weights = params.weights

    def neighbors(start, seq):
        vertex = start
        for p in range(len(seq) - 1):
            j, jp = seq[p], seq[p + 1]
            if j == jp or (vertex, min(j, jp), max(j, jp)) in relations:
                yield seq[:p] + (jp, j) + seq[p + 2:]
            vertex += weights[seq[p] - 1]

    classes = 0
    start = sequences[0][0]
    pool = {seq for _, seq in sequences}
    while pool:
        classes += 1
        frontier = [pool.pop()]
        while frontier:
            seq = frontier.pop()
            for nbr in neighbors(start, seq):
                if nbr in pool:
                    pool.remove(nbr)
                    frontier.append(nbr)
    return classes


def test_multiset_canonicalization_matches_relation_closure():
    # the sorted-multiset shortcut must count exactly the classes generated
    # by the commutation squares that actually survive truncation
    for params in all_valid_params(6):
        cells = raw_paths_by_cell(build_quiver(params))
        for (start, end), seqs in cells.items():
            multiset_count = len({tuple(sorted(s)) for s in seqs})
            closure_count = swap_closure_class_count(
                params, [(start, s) for s in seqs]
            )
            assert multiset_count == closure_count, (params, start, end)


def test_counts_positive_exactly_on_reachable_offsets():
    for params in all_valid_params(10):
        counts = path_counts_gf(params)
        reachable = {0}
        for s in range(1, params.n - 1):
            if any(s - a in reachable for a in params.weights if s - a >= 0):
                reachable.add(s)
        for s, c in enumerate(counts):
            assert (c >= 1) == (s in reachable), (params, s)


def test_cartan_matrix_low_dim():
    c = cartan_matrix([1, 1, 3, 3])
    assert c == IntMatrix(
        [[1, 0, 0, 0], [1, 1, 0, 0], [3, 1, 1, 0], [3, 3, 1, 1]]
    )


def test_cartan_matrix_trivial_and_family():
    assert cartan_matrix([1]) == IntMatrix([[1]])
    assert cartan_matrix([1, 3]) == IntMatrix([[1, 0], [3, 1]])


def test_cartan_matrix_requires_unit_head():
    with pytest.raises(ValueError):
        cartan_matrix([2, 1])
    with pytest.raises(ValueError):
        cartan_matrix([])


def test_cartan_determinant_one_and_integral_inverse():
    for params in all_valid_params(9):
        c = cartan_matrix(path_counts_gf(params))
        assert determinant(c) == 1
        inv = unipotent_inverse(c)
        assert c @ inv == IntMatrix.identity(c.rows)
