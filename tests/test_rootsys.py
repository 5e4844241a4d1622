import re
from math import prod

import pytest

from weyl_dl import InternalError, InvalidType, NonFinite, SizeLimit, build_cartan, build_root_system, fundamental_degrees
from weyl_dl import rootsys
from weyl_dl.rootsys import CartanDatum, build_weyl_group, coxeter_number, enumerate_group


def test_a1_cartan_is_forced():
    c = build_cartan("A", 1)
    assert c.cartan_matrix == ((2,),)


def test_g2_cartan():
    c = build_cartan("G", 2)
    assert c.cartan_matrix == ((2, -1), (-3, 2))


@pytest.mark.parametrize("type_label,rank", [
    ("D", 3), ("D", 2), ("C", 2), ("B", 1), ("E", 6), ("E", 8), ("H", 3), ("G", 3), ("F", 3), ("A", True),
])
def test_invalid_pairs_rejected(type_label, rank):
    with pytest.raises(InvalidType):
        build_cartan(type_label, rank)


def test_invalid_error_names_accepted_set():
    accepted = "A(n>=1), B(n>=2), C(n>=3), D(n>=4), G(2), F(4)"
    with pytest.raises(InvalidType, match=f"unsupported type D3; accepted: {re.escape(accepted)}$"):
        build_cartan("D", 3)


@pytest.mark.parametrize("type_label,rank,n_roots,n_pos", [
    ("A", 1, 2, 1),
    ("A", 2, 6, 3),
    ("B", 2, 8, 4),
    ("G", 2, 12, 6),
    ("F", 4, 48, 24),
    ("D", 4, 24, 12),
])
def test_root_counts(type_label, rank, n_roots, n_pos):
    rs = build_root_system(build_cartan(type_label, rank))
    assert len(rs.roots) == n_roots
    assert rs.n_positive == n_pos


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 6), ("B", 2), ("B", 5), ("C", 3), ("C", 4), ("D", 4), ("D", 6), ("G", 2), ("F", 4),
])
def test_root_count_is_rank_times_coxeter_number(type_label, rank):
    rs = build_root_system(build_cartan(type_label, rank))
    assert len(rs.roots) == rank * coxeter_number(type_label, rank)


@pytest.mark.parametrize("type_label,rank", [
    ("B", 1), ("C", 2), ("D", 3), ("G", 4), ("F", 3), ("X", 5), ("G", 3), ("A", 0), ("E", 6),
])
def test_coxeter_number_rejects_unsupported_pairs(type_label, rank):
    """Both per-type lookups reject each unsupported pair with the same error."""
    for lookup in (coxeter_number, fundamental_degrees):
        with pytest.raises(InvalidType, match=f"unsupported type {type_label}{rank}"):
            lookup(type_label, rank)


@pytest.mark.parametrize("type_label,rank", [
    *(("A", n) for n in range(1, 9)), *(("B", n) for n in range(2, 9)), *(("C", n) for n in range(3, 9)),
    *(("D", n) for n in range(4, 9)), ("G", 2), ("F", 4),
])
def test_coxeter_number_agrees_with_degrees(type_label, rank):
    """h is the largest degree, and the rank * h roots are twice the sum of d_i - 1 (Humphreys 1990, ch. 3)."""
    h = coxeter_number(type_label, rank)
    degrees = fundamental_degrees(type_label, rank)
    assert len(degrees) == rank
    assert h == max(degrees)
    assert 2 * sum(d - 1 for d in degrees) == rank * h


def test_root_count_limit_checked_before_any_matrix(monkeypatch):
    def no_matrix(n):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(rootsys, "_chain", no_matrix)
    with pytest.raises(SizeLimit, match="A1000000 has 1000001000000 roots"):
        build_cartan("A", 1_000_000)
    monkeypatch.setattr(rootsys, "MAX_ROOTS", 39)
    with pytest.raises(SizeLimit, match="D5 has 40 roots, more than the limit of 39"):
        build_cartan("D", 5)


def test_roots_closed_under_negation():
    rs = build_root_system(build_cartan("B", 3))
    roots = set(rs.roots)
    assert all(tuple(-c for c in r) in roots for r in roots)
    assert len(roots) == 2 * rs.n_positive


def test_non_finite_matrix_rejected(monkeypatch):
    # 3-cycle diagram: passes the entry invariants, but the closure never terminates
    bad = CartanDatum("A", 3, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))
    monkeypatch.setattr(rootsys, "MAX_ROOTS", 200)
    with pytest.raises(NonFinite, match="root closure exceeded 200 vectors"):
        build_root_system(bad)


@pytest.mark.parametrize("matrix,match", [
    (((2, -5), (-5, 2)), "crystallographic"),
    (((2, 1), (1, 2)), "crystallographic"),
    (((2, -1), (0, 2)), "crystallographic"),
    (((2, -1), (-1, 3)), "entry \\(1,1\\) is 3"),
    (((2, -1),), "not 2x2"),
])
def test_cartan_datum_rejects_bad_matrix(matrix, match):
    with pytest.raises(InvalidType, match=match):
        CartanDatum("X", 2, matrix)


def test_cartan_datum_rejects_bad_matrix_under_optimize(run_optimized):
    code = (
        "from weyl_dl import InvalidType\n"
        "from weyl_dl.rootsys import CartanDatum\n"
        "try:\n"
        "    CartanDatum('X', 2, ((2, -5), (-5, 2)))\n"
        "    print('accepted')\n"
        "except InvalidType as exc:\n"
        "    print(exc)\n"
    )
    assert "crystallographic" in run_optimized(code)


def test_root_count_over_limit_is_size_limit(monkeypatch):
    # A200 is of finite type with 40200 roots: a resource limit, not NonFinite
    with pytest.raises(SizeLimit, match="40200 roots"):
        build_root_system(build_cartan("A", 200))
    d4 = build_cartan("D", 4)
    monkeypatch.setattr(rootsys, "MAX_ROOTS", 20)  # read when called, after the datum is built
    with pytest.raises(SizeLimit, match="24 roots"):
        build_root_system(d4)


@pytest.mark.parametrize("type_label,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
])
def test_group_order_matches_degrees(groups, type_label, rank):
    W = groups(type_label, rank)
    assert W.order == prod(fundamental_degrees(type_label, rank))


def test_size_limit():
    rs = build_root_system(build_cartan("F", 4))
    with pytest.raises(SizeLimit):
        enumerate_group(rs, max_order=100)


def test_lengths_equal_inversions(groups):
    for key in [("A", 3), ("B", 3), ("G", 2)]:
        W = groups(*key)
        assert all(W.lengths[e] == W.inversions(e) for e in range(W.order))


def test_longest_element_is_involution(groups):
    for key in [("A", 2), ("B", 2), ("D", 4), ("F", 4)]:
        W = groups(*key)
        w0 = W.longest_element
        assert W.lengths[w0] == W.rootsystem.n_positive
        assert W.mul(w0, w0) == W.identity_index


def test_action_is_faithful(groups):
    W = groups("B", 3)
    assert len(set(W.elements)) == W.order


def test_reflection_count(groups):
    for key in [("A", 3), ("B", 3), ("G", 2)]:
        W = groups(*key)
        reflections = set()
        for g in W.generator_indices:
            reflections.update(int(x) for x in W.conjugate_sweep(g))
        assert len(reflections) == W.rootsystem.n_positive


def test_canonical_order_starts_at_identity(groups):
    W = groups("A", 3)
    assert W.identity_index == 0
    assert W.lengths[0] == 0
    assert W.elements[0] == tuple(range(len(W.rootsystem.roots)))
    assert list(W.lengths) == sorted(W.lengths)


def test_products_match_permutation_composition(groups):
    for key in [("B", 2), ("A", 3)]:
        W = groups(*key)
        perms = W.elements
        index = {p: i for i, p in enumerate(perms)}
        inverses = []
        for p in perms:
            inverse = [0] * len(p)
            for r, image in enumerate(p):
                inverse[image] = r
            inverses.append(tuple(inverse))
        for a in range(W.order):
            assert W.inv(a) == index[inverses[a]]
            for b in range(W.order):
                assert W.mul(a, b) == index[tuple(perms[a][r] for r in perms[b])]
        for w in range(W.order):
            expected = [
                index[tuple(perms[x][perms[w][r]] for r in inverses[x])] for x in range(W.order)
            ]
            assert W.conjugate_sweep(w) == expected
            assert W.conjugate_sweep(w, [3, 1]) == [expected[3], expected[1]]


def test_size_limit_raised_before_any_product(without_generators):
    rs = without_generators(build_root_system(build_cartan("A", 9)))
    with pytest.raises(SizeLimit, match="A9 has order 3628800, more than the limit of 2000000"):
        enumerate_group(rs)
    with pytest.raises(SizeLimit, match="F4 has order 1152"):
        enumerate_group(without_generators(build_root_system(build_cartan("F", 4))), max_order=1151)
    # the stand-in is not vacuous: a search that goes ahead uses it at once
    with pytest.raises(AssertionError, match="a simple reflection was used"):
        enumerate_group(without_generators(build_root_system(build_cartan("A", 2))))


def test_size_limit_raised_before_the_root_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("the roots were closed")

    monkeypatch.setattr(rootsys, "build_root_system", no_closure)
    # A99 has 9900 roots, under the root limit, and order 100!
    with pytest.raises(SizeLimit, match="A99 has order 9332621544"):
        build_weyl_group("A", 99)
    with pytest.raises(SizeLimit, match="F4 has order 1152, more than the limit of 1151"):
        build_weyl_group("F", 4, max_order=1151)


def test_more_than_256_roots_is_size_limit():
    # A16 has 272 roots and order 17!, so only an explicit max_order lets the search start
    with pytest.raises(SizeLimit, match="A16 has 272 roots, more than the 256 a search key holds"):
        enumerate_group(build_root_system(build_cartan("A", 16)), max_order=10**15)


def test_order_mismatch_is_internal_error():
    # a G2 matrix under the label A2: 12 elements where the degrees of A2 give 6
    datum = CartanDatum("A", 2, ((2, -1), (-3, 2)))
    with pytest.raises(InternalError, match="enumerated 12 elements for A2, expected 6"):
        enumerate_group(build_root_system(datum))


def test_order_mismatch_is_internal_error_under_optimize(run_optimized):
    code = (
        "from weyl_dl import InternalError, build_root_system\n"
        "from weyl_dl.rootsys import CartanDatum, enumerate_group\n"
        "try:\n"
        "    enumerate_group(build_root_system(CartanDatum('A', 2, ((2, -1), (-3, 2)))))\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
    )
    assert "enumerated 12 elements for A2, expected 6" in run_optimized(code)


def full_permutation_search(rs):
    """Oracle: the group found as permutations of the whole root list.

    Returns the elements, lengths and words in canonical order (length, then
    the permutation), with the right maps and inverses read off the permutations.
    """
    identity = tuple(range(len(rs.roots)))
    gens = rs.simple_reflection_perms
    found = {identity}
    perms, depths, words = [identity], [0], [()]
    for k, p in enumerate(perms):
        for i, g in enumerate(gens):
            q = tuple(p[x] for x in g)
            if q not in found:
                found.add(q)
                perms.append(q)
                depths.append(depths[k] + 1)
                words.append(words[k] + (i,))
    ordering = sorted(range(len(perms)), key=lambda k: (depths[k], perms[k]))
    elements = tuple(perms[k] for k in ordering)
    index = {p: y for y, p in enumerate(elements)}
    right_maps = tuple(tuple(index[tuple(p[x] for x in g)] for p in elements) for g in gens)
    inverses = []
    for p in elements:
        inverse = [0] * len(p)
        for r, image in enumerate(p):
            inverse[image] = r
        inverses.append(index[tuple(inverse)])
    lengths = tuple(depths[k] for k in ordering)
    return elements, lengths, tuple(words[k] for k in ordering), right_maps, tuple(inverses)


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
])
def test_enumeration_matches_full_permutation_search(type_label, rank):
    W = build_weyl_group(type_label, rank)
    elements, lengths, words, right_maps, inverses = full_permutation_search(W.rootsystem)
    assert W.words == words
    assert W.lengths == lengths
    assert W.right_maps == right_maps
    assert tuple(W.inv(y) for y in range(W.order)) == inverses
    assert "elements" not in vars(W)  # built only when asked for
    assert W.elements == elements
    columns = W.rootsystem.simple_root_columns
    for y, p in enumerate(elements):
        assert [W.simple_images[y][c] for c in columns] == [p[c] for c in columns]
