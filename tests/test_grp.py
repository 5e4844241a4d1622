import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyl_dl
from weyl_dl import InvalidType, conjugacy_classes, double_cosets, parabolic, subgroup_classes
from weyl_dl.cli import ROSTER


def subsets(rank):
    return list(itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    ))


def test_a2_classes(groups):
    W = groups("A", 2)
    cc = conjugacy_classes(W)
    assert cc.sizes == (1, 3, 2)
    assert [W.word_str(r) for r in cc.reps][0] == "e"


def test_a1_classes(groups):
    W = groups("A", 1)
    cc = conjugacy_classes(W)
    assert cc.sizes == (1, 1)


def test_b2_classes(groups):
    W = groups("B", 2)
    cc = conjugacy_classes(W)
    assert sorted(cc.sizes) == [1, 1, 2, 2, 2]


def test_class_representatives_are_minimal(groups):
    W = groups("B", 3)
    cc = conjugacy_classes(W)
    for c, rep in enumerate(cc.reps):
        members = [e for e in range(W.order) if cc.class_of(e) == c]
        assert rep == min(members)


def test_inverse_class_map(groups):
    W = groups("A", 3)
    cc = conjugacy_classes(W)
    for c, rep in enumerate(cc.reps):
        assert cc.class_of(W.inv(rep)) == cc.inverse_class[c]


def fusion(W, H):
    """The W-class of each class of H, found at its representative."""
    return tuple(conjugacy_classes(W).class_of(rep) for rep in H.reps)


def test_parabolic_empty_and_full(groups):
    W = groups("A", 2)
    empty = parabolic(W, [])
    assert empty.order == 1
    assert fusion(W, empty) == (0,)
    full = parabolic(W, [0, 1])
    assert full.order == W.order
    assert fusion(W, full) == tuple(range(conjugacy_classes(W).n_classes))


def test_parabolic_fusion_a2(groups):
    W = groups("A", 2)
    P = parabolic(W, [0])
    assert P.order == 2
    # the non-identity class fuses into the size-3 transposition class
    cc = conjugacy_classes(W)
    target = fusion(W, P)[1]
    assert cc.sizes[target] == 3


def test_parabolic_order_divides(groups):
    W = groups("B", 3)
    for I in subsets(3):
        P = parabolic(W, I)
        assert W.order % P.order == 0


def test_fusion_well_defined(groups):
    W = groups("B", 3)
    cc = conjugacy_classes(W)
    for I in subsets(3):
        P = parabolic(W, I)
        for e in P.members:
            assert cc.class_of(e) == fusion(W, P)[P.class_of(e)]


def test_double_cosets_a2(groups):
    W = groups("A", 2)
    dc = double_cosets(W, (0,), (0,))
    assert len(dc) == 2
    nontrivial = [K for x, K in dc if x != 0]
    assert nontrivial == [()]  # trivial intersection subgroup
    assert parabolic(W, ()).members == (0,)
    assert len(double_cosets(W, (1,), (0,))) == 2


def test_double_cosets_cached_per_subset_pair(groups):
    W = groups("B", 3)
    dc = double_cosets(W, (1, 0), (2,))
    assert double_cosets(W, (0, 1), (2,)) is dc
    assert double_cosets(W, (2,), (0, 1)) is not dc


def test_double_cosets_empty_subset(groups):
    W = groups("B", 2)
    PJ = parabolic(W, (0,))
    dc = double_cosets(W, (0,), ())
    assert len(dc) == W.order // PJ.order


def test_double_coset_representatives_minimal(groups):
    W = groups("A", 3)
    for I in subsets(3):
        for J in subsets(3):
            reps = [x for x, _ in double_cosets(W, J, I)]
            assert reps == sorted(reps)
            assert reps[0] == 0


@settings(deadline=None, max_examples=20)
@given(
    I=st.sets(st.integers(min_value=0, max_value=2)),
    J=st.sets(st.integers(min_value=0, max_value=2)),
)
def test_coset_counting_identity(groups, I, J):
    W = groups("B", 3)
    PI, PJ = parabolic(W, I), parabolic(W, J)
    total = sum(
        PJ.order * PI.order // parabolic(W, K).order
        for _, K in double_cosets(W, tuple(J), tuple(I))
    )
    assert total == W.order


def test_subgroup_classes_of_explicit_set(groups):
    """Each proper parabolic, given by its members, gets the parabolic's classes."""
    for type_label, rank in [("A", 3), ("B", 3), ("G", 2)]:
        W = groups(type_label, rank)
        for I in subsets(rank)[:-1]:
            P = parabolic(W, I)
            sub = subgroup_classes(W, P.members)
            assert sub.sizes == P.sizes
            assert sub.reps == P.reps


@pytest.mark.parametrize("subset, bad", [
    ([7], "7"), ([0, 3], "3"), ([-1], "-1"),
    # True is no index 1, nor 1.0: each is refused, and before sorting
    ([True], "True"), ([False], "False"), ([0, 1.0], "1.0"), (["1"], "'1'"), ([0, None], "None"),
])
def test_parabolic_rejects_bad_index(groups, subset, bad):
    W = groups("A", 3)
    for call in (lambda: parabolic(W, subset), lambda: double_cosets(W, subset, [0]),
                 lambda: double_cosets(W, [0], subset)):
        with pytest.raises(InvalidType, match=f"index {re.escape(bad)} is outside 0..2"):
            call()


NOT_A_SUBGROUP = "the members given are no subgroup of A2"


@pytest.mark.parametrize("members, message", [
    ([], NOT_A_SUBGROUP),
    ([1], NOT_A_SUBGROUP),
    ([0, 1, 2], NOT_A_SUBGROUP),
    ([0, 99], "element index 99 is outside 0..5"),
    ([0, -1], "element index -1 is outside 0..5"),
    # True is no index 1, nor 1.0: each is refused before sorting and deduplicating
    ([0, 1, True], "element index True is outside 0..5"),
    ([0, 1.0], "element index 1.0 is outside 0..5"),
    ([0, None], "element index None is outside 0..5"),
])
def test_subgroup_classes_rejects_bad_members(groups, members, message):
    W = groups("A", 2)
    with pytest.raises(InvalidType, match=f"^{re.escape(message)}$"):
        subgroup_classes(W, members)


@pytest.mark.parametrize("type_label, rank", ROSTER)
def test_parabolic_of_all_of_s_is_w(groups, type_label, rank):
    """W_S is W's own classes, so W's table and counts serve it."""
    W = groups(type_label, rank)
    assert parabolic(W, range(W.rank)) is conjugacy_classes(W)


def test_parabolic_shortcut_comes_after_validation(groups):
    W = groups("A", 2)
    assert parabolic(W, [0, 0, 1]) is conjugacy_classes(W)
    with pytest.raises(InvalidType, match="index 5 is outside"):
        parabolic(W, [0, 5])


def test_parabolic_rejects_bad_index_under_optimize(run_optimized):
    code = (
        "from weyl_dl import InvalidType, build_weyl_group, parabolic\n"
        "try:\n"
        "    parabolic(build_weyl_group('A', 3), [7])\n"
        "except InvalidType as exc:\n"
        "    print(exc)\n"
    )
    assert "index 7 is outside" in run_optimized(code)


def brute_force_conjugate(W, index, x, y):
    """Index of x*y*x^-1, composed from the root permutations alone and looked up in index."""
    px, py = W.root_actions[x], W.root_actions[y]
    px_inv = [0] * len(px)
    for r, image in enumerate(px):
        px_inv[image] = r
    return index[bytes(px[py[px_inv[r]]] for r in range(len(px)))]


def assert_classes_match_oracle(W, cc, members):
    """cc against orbits found by conjugating with every member of the subgroup."""
    members = sorted(members)
    index = {p: i for i, p in enumerate(W.root_actions)}
    assert cc.members == tuple(members)
    orbits = []
    seen = set()
    for e in members:
        if e not in seen:
            orbit = {brute_force_conjugate(W, index, x, e) for x in members}
            seen |= orbit
            orbits.append(orbit)
    assert cc.reps == tuple(min(orbit) for orbit in orbits)
    assert cc.sizes == tuple(len(orbit) for orbit in orbits)
    for c, orbit in enumerate(orbits):
        assert all(cc.class_of(e) == c for e in orbit)
    assert cc.class_index.keys() == set(members)
    for c, rep in enumerate(cc.reps):
        p = W.root_actions[rep]
        inverse = [0] * len(p)
        for r, image in enumerate(p):
            inverse[image] = r
        assert cc.inverse_class[c] == cc.class_of(index[bytes(inverse)])


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_classes_match_brute_force_oracle(groups, type_label, rank):
    W = groups(type_label, rank)
    assert_classes_match_oracle(W, conjugacy_classes(W), range(W.order))
    for I in subsets(rank):
        P = parabolic(W, I)
        assert_classes_match_oracle(W, P, P.members)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_intersection_subgroup_classes_match_oracle(groups, type_label, rank):
    W = groups(type_label, rank)
    for I in subsets(rank):
        for J in subsets(rank):
            for _, K in double_cosets(W, J, I):
                members = parabolic(W, K).members
                assert_classes_match_oracle(W, subgroup_classes(W, members), members)


def compose(p, q):
    """The root permutation p after q, as bytes."""
    return bytes(p[r] for r in q)


def closure_by_composition(W, simple):
    """Root permutations of the subgroup generated by the listed simple reflections."""
    gens = [W.rootsystem.simple_reflection_perms[i] for i in simple]
    found = {W.root_actions[W.identity_index]}
    frontier = list(found)
    while frontier:
        frontier = [q for q in {compose(p, g) for p in frontier for g in gens} if q not in found]
        found.update(frontier)
    return found


def test_simple_reflection_maps(groups):
    W = groups("B", 3)
    index = {p: i for i, p in enumerate(W.root_actions)}
    for i, s in enumerate(W.rootsystem.simple_reflection_perms):
        assert W.generator_indices[i] == index[bytes(s)]
        for y, p in enumerate(W.root_actions):
            assert W.right_maps[i][y] == index[compose(p, s)]
            assert W.conjugation_maps[i][y] == index[compose(s, compose(p, s))]


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_double_cosets_match_composition(groups, type_label, rank):
    W = groups(type_label, rank)
    index = {p: i for i, p in enumerate(W.root_actions)}
    for J in subsets(rank):
        WJ = closure_by_composition(W, J)
        for I in subsets(rank):
            WI = closure_by_composition(W, I)
            covered = set()
            for x, K in double_cosets(W, J, I):
                px = W.root_actions[x]
                px_inv = [0] * len(px)
                for r, image in enumerate(px):
                    px_inv[image] = r
                coset = {index[compose(compose(u, px), v)] for u in WJ for v in WI}
                assert not coset & covered
                assert x == min(coset)
                covered |= coset
                expected = sorted(index[u] for u in WJ if compose(compose(px_inv, u), px) in WI)
                assert list(parabolic(W, K).members) == expected
            assert covered == set(range(W.order))


def test_products_without_numpy():
    """Classes, parabolics, double cosets, Mackey transport and products use no numpy."""
    code = (
        "import sys\n"
        "from weyl_dl import build_weyl_group, conjugacy_classes, double_cosets, parabolic, trivial\n"
        "from weyl_dl.indres import induce, mackey_check\n"
        "from weyl_dl.dl import subsets\n"
        "W = build_weyl_group('B', 3)\n"
        "cc = conjugacy_classes(W)\n"
        "for I in subsets(3):\n"
        "    P = parabolic(W, I)\n"
        "    for J in subsets(3):\n"
        "        double_cosets(W, J, I)\n"
        "        assert mackey_check(W, I, J, trivial(P), induce(trivial(P), P, cc)) == ()\n"
        "W.mul(5, 7), W.conjugate_sweep(3)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(weyl_dl.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
