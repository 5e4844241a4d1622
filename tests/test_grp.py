import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl import InvalidType, conjugacy_classes, double_cosets, parabolic, subgroup_classes


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


def test_parabolic_empty_and_full(groups):
    W = groups("A", 2)
    empty = parabolic(W, [])
    assert empty.order == 1
    assert empty.fusion == (0,)
    full = parabolic(W, [0, 1])
    assert full.order == W.order
    assert full.fusion == tuple(range(conjugacy_classes(W).n_classes))


def test_parabolic_fusion_a2(groups):
    W = groups("A", 2)
    P = parabolic(W, [0])
    assert P.order == 2
    # the non-identity class fuses into the size-3 transposition class
    cc = conjugacy_classes(W)
    target = P.fusion[1]
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
            assert cc.class_of(e) == P.fusion[P.classes.class_of(e)]


def test_double_cosets_a2(groups):
    W = groups("A", 2)
    dc = double_cosets(W, (0,), (0,))
    assert len(dc) == 2
    nontrivial = [m for x, m in dc if x != 0]
    assert nontrivial == [(0,)]  # trivial intersection subgroup
    assert len(double_cosets(W, (1,), (0,))) == 2


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
        PJ.order * PI.order // len(members)
        for _, members in double_cosets(W, tuple(J), tuple(I))
    )
    assert total == W.order


def test_subgroup_classes_of_explicit_set(groups):
    W = groups("A", 3)
    P = parabolic(W, (0, 2))
    sub = subgroup_classes(W, P.members)
    assert sub.sizes == P.classes.sizes
    assert sub.reps == P.classes.reps


@pytest.mark.parametrize("subset, bad", [([7], "7"), ([0, 3], "3"), ([-1], "-1")])
def test_parabolic_rejects_bad_index(groups, subset, bad):
    W = groups("A", 3)
    with pytest.raises(InvalidType, match=f"index {bad} is outside"):
        parabolic(W, subset)


def test_parabolic_rejects_bad_index_under_optimize(run_optimized):
    code = (
        "from weyl_dl import InvalidType, build_weyl_group, parabolic\n"
        "try:\n"
        "    parabolic(build_weyl_group('A', 3), [7])\n"
        "except InvalidType as exc:\n"
        "    print(exc)\n"
    )
    assert "index 7 is outside" in run_optimized(code)
