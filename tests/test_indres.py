import itertools
import re
from fractions import Fraction

import pytest

from weyl_dl import (
    CharacterTable,
    ClassFunction,
    GroupMismatch,
    build_weyl_group,
    character_table,
    conjugacy_classes,
    decompose,
    double_cosets,
    frobenius_check,
    induce,
    inner_product,
    mackey_check,
    parabolic,
    reflection,
    restrict,
    sign,
    subgroup_classes,
    trivial,
)
from weyl_dl.cli import ROSTER
from weyl_dl.indres import fusion, induce_between, induction_counts, mackey_operator


def subsets(rank):
    return list(itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    ))


def test_restrict_trivial(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0,))
    assert restrict(trivial(cc), P, cc).values == (Fraction(1), Fraction(1))


def test_restrict_reflection(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0,))
    res = restrict(reflection(W, cc), P, cc)
    assert res.values == (Fraction(2), Fraction(0))
    # equals trivial + sign of the subgroup
    expected = tuple(a + b for a, b in zip(trivial(P).values, sign(W, P).values))
    assert res.values == expected


def test_restrict_full_is_identity(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, (0, 1))
    f = reflection(W, cc)
    assert restrict(f, P, cc).values == f.values


def test_restrict_group_mismatch(tables):
    W, cc, _ = tables("A", 2)
    W3, cc3, _ = tables("A", 3)
    P = parabolic(W, (0,))
    with pytest.raises(GroupMismatch):
        restrict(trivial(cc3), P, cc)
    with pytest.raises(GroupMismatch):
        induce(trivial(cc), P, cc)


def test_a_subgroup_of_another_weyl_group_is_a_group_mismatch(tables, groups):
    """W_{s1} of B2 against A2: its members are indices of A2 too, so only the group ids can tell."""
    W, cc, t = tables("A", 2)
    H = parabolic(groups("B", 2), [0])
    with pytest.raises(GroupMismatch, match=re.escape("B2|I=[1] is a subgroup of B2, not of A2")):
        restrict(t.irreducibles[1], H, cc)
    with pytest.raises(GroupMismatch, match="not of A2"):
        induce(ClassFunction(H.group_id, (1, -1)), H, cc)
    with pytest.raises(GroupMismatch, match="not of A2"):
        frobenius_check(t, character_table(groups("B", 2), H))
    assert "A2" not in H.counts and "A2" not in H.fusion


def test_a_subgroup_from_a_second_build_of_a_type_is_accepted(tables):
    W, cc, t = tables("A", 2)
    H, H2 = parabolic(W, [0]), parabolic(build_weyl_group("A", 2), [0])
    assert H2 is not H
    assert restrict(t.irreducibles[1], H2, cc) == restrict(t.irreducibles[1], H, cc)
    assert induce(trivial(H2), H2, cc) == induce(trivial(H), H, cc)


def test_subgroup_outside_supergroup_is_a_group_mismatch(tables):
    """W_{s2} does not lie in W_{s1}: both directions raise GroupMismatch, not a bare KeyError."""
    W, cc, _ = tables("A", 2)
    P0, P1 = parabolic(W, [0]), parabolic(W, [1])
    for e in (-1, W.order):  # no element of W, so a member of no subgroup
        with pytest.raises(GroupMismatch, match=f"element {e} is not a member of A2"):
            cc.class_of(e)
    with pytest.raises(GroupMismatch, match="not a member of A2\\|I=\\[1\\]"):
        restrict(trivial(P0), P1, P0)
    with pytest.raises(GroupMismatch, match="not a member of A2\\|I=\\[1\\]"):
        induce(trivial(P1), P1, P0)


def test_induce_examples(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, (0,))
    ind_triv = induce(trivial(P), P, cc)
    assert ind_triv.values == (Fraction(3), Fraction(1), Fraction(0))
    assert decompose(t, ind_triv).coeffs == (1, 0, 1)  # trivial + reflection
    ind_sgn = induce(sign(W, P), P, cc)
    assert ind_sgn.values == (Fraction(3), Fraction(-1), Fraction(0))
    assert decompose(t, ind_sgn).coeffs == (0, 1, 1)  # sign + reflection


def test_induce_from_trivial_subgroup_is_regular(tables):
    W, cc, _ = tables("A", 2)
    P = parabolic(W, ())
    ind = induce(trivial(P), P, cc)
    expected = [Fraction(0)] * cc.n_classes
    expected[cc.identity_class] = Fraction(W.order)
    assert ind.values == tuple(expected)


def test_induce_preserves_virtual(tables):
    W, cc, t = tables("B", 3)
    for I in subsets(3):
        P = parabolic(W, I)
        sub_table = character_table(W, P)
        for chi in sub_table.irreducibles:
            decompose(t, induce(chi, P, cc))  # NotVirtual would raise


def test_frobenius_a2(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, (0,))
    tp = character_table(W, P)
    assert frobenius_check(t, tp) == ()
    assert tp.group_id == "A2|I=[1]"
    # <ind triv, reflection> = 1 = <triv, res reflection>
    refl = reflection(W, cc)
    lhs = inner_product(cc, induce(trivial(P), P, cc), refl)
    rhs = inner_product(P, trivial(P), restrict(refl, P, cc))
    assert lhs == rhs == 1


def test_frobenius_empty_subset_pairs_degrees(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, ())
    ind = induce(trivial(P), P, cc)
    for i, psi in enumerate(t.irreducibles):
        assert inner_product(cc, ind, psi) == t.degrees[i]


def test_frobenius_all_subsets(tables):
    for key in [("A", 3), ("B", 3), ("G", 2)]:
        W, _, t = tables(*key)
        for I in subsets(W.rank):
            assert frobenius_check(t, character_table(W, parabolic(W, I))) == ()


@pytest.mark.parametrize("type_label, rank, count", [("A", 3, 8), ("B", 3, 8), ("G", 2, 4)])
def test_frobenius_on_intersections(tables, type_label, rank, count):
    """Each distinct W_J n x W_I x^-1 against W and against W_J, with its own table."""
    W, _, t = tables(type_label, rank)
    seen = set()
    for J in subsets(rank):
        tj = character_table(W, parabolic(W, J))
        for I in subsets(rank):
            for _, K in double_cosets(W, J, I):
                members = parabolic(W, K).members
                H = subgroup_classes(W, members)
                assert H.generators is None
                th = character_table(W, H)
                assert frobenius_check(tj, th) == ()
                if members not in seen:
                    seen.add(members)
                    assert frobenius_check(t, th) == ()
    assert len(seen) == count


def test_mackey_a2_worked_example(tables):
    W, cc, t = tables("A", 2)
    P = parabolic(W, (0,))
    ind = induce(trivial(P), P, cc)
    assert mackey_check(W, (0,), (0,), trivial(P), ind) == ()
    assert restrict(ind, P, cc).values == (Fraction(3), Fraction(1))  # 2*trivial + sign


def test_mackey_empty_and_full(tables):
    W, cc, _ = tables("B", 2)
    P0 = parabolic(W, ())
    ind_trivial = induce(trivial(P0), P0, cc)
    assert mackey_check(W, (), (0,), trivial(P0), ind_trivial) == ()
    P1 = parabolic(W, (0,))
    assert mackey_check(W, (0,), (0, 1), sign(W, P1), induce(sign(W, P1), P1, cc)) == ()
    with pytest.raises(GroupMismatch):
        mackey_check(W, (0,), (1,), trivial(P0), ind_trivial)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("D", 4), ("F", 4)])
def test_mackey_all_pairs(tables, type_label, rank):
    """verify runs Mackey only up to rank 3; D4 and F4 check Kilmoyer's intersections at rank 4."""
    W, cc, _ = tables(type_label, rank)
    for I in subsets(rank):
        P = parabolic(W, I)
        for J in subsets(rank):
            for chi in character_table(W, P).irreducibles:
                assert mackey_check(W, I, J, chi, induce(chi, P, cc)) == ()


def test_transitivity_chains(tables):
    for key in [("A", 3), ("B", 3)]:
        W, cc, _ = tables(*key)
        for J in subsets(W.rank):
            PJ = parabolic(W, J)
            tj = character_table(W, PJ)
            for I in subsets(W.rank):
                if not set(J) <= set(I):
                    continue
                PI = parabolic(W, I)
                for chi in tj.irreducibles:
                    assert induce(induce(chi, PJ, PI), PI, cc) == induce(chi, PJ, cc)
                    assert induce_between(W, PJ, PI, chi) == induce(chi, PJ, PI)


def test_restrict_between_matches_parabolic_path(tables):
    W, cc, _ = tables("B", 3)
    P = parabolic(W, (0, 1))
    f = reflection(W, cc)
    explicit = subgroup_classes(W, P.members)
    assert (P.generators, explicit.generators) == ((0, 1), None)
    assert restrict(f, P, cc).values == restrict(f, explicit, cc).values


def indicator(classes, c):
    vals = [0] * classes.n_classes
    vals[c] = 1
    return ClassFunction(classes.group_id, tuple(vals))


def brute_force_counts(W, sup, sub):
    """counts[r][c] = #{x in sup : x w_r x^-1 in class c of sub}, by sweeping every x."""
    counts = []
    for rep in sup.reps:
        row = [0] * sub.n_classes
        for y in W.conjugate_sweep(rep, sup.members):
            if y in sub.class_index:
                row[sub.class_index[y]] += 1
        counts.append(tuple(row))
    return tuple(counts)


def dense(counts, G, H):
    """The full |classes(G)| x |classes(H)| matrix of the nonzero (r, c, n) triples, zeros included."""
    matrix = [[0] * H.n_classes for _ in range(G.n_classes)]
    for r, c, n in counts:
        assert n > 0 and matrix[r][c] == 0
        matrix[r][c] = n
    return tuple(map(tuple, matrix))


def assert_induce_between_matches_sweep(W, sub, sup):
    counts = brute_force_counts(W, sup, sub)
    assert dense(induction_counts(sup, sub), sup, sub) == counts
    for c in range(sub.n_classes):
        induced = induce(indicator(sub, c), sub, sup)
        assert induced.values == tuple(Fraction(row[c], sub.order) for row in counts)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induction_counts_match_sweep(tables, type_label, rank):
    W, cc, _ = tables(type_label, rank)
    for I in subsets(rank):
        P = parabolic(W, I)
        counts = induction_counts(cc, P)
        assert dense(counts, cc, P) == brute_force_counts(W, cc, P)
        assert induction_counts(cc, P) is counts is P.counts[cc.group_id]


@pytest.mark.parametrize("type_label, rank", [*ROSTER, ("D", 5)])
def test_induction_counts_into_w_have_one_triple_per_subgroup_class(groups, type_label, rank):
    """For W_I <= W_J, each class c of W_I lies in one class r of W_J: one triple (r, c, n) per c.

    r is the fusion of c, and n = |c| * |W_J| / |C_r|, so the DL assembly may
    read r off the triple alone.
    """
    W = groups(type_label, rank)
    for J in subsets(rank):
        PJ = parabolic(W, J)
        for I in subsets(rank):
            if not set(I) <= set(J):
                continue
            PI = parabolic(W, I)
            counts = induction_counts(PJ, PI)
            fused = fusion(PI, PJ)
            assert sorted(c for _, c, _ in counts) == list(range(PI.n_classes))
            for r, c, n in counts:
                assert r == fused[c], (J, I, c)
                assert n * PJ.sizes[r] == PI.sizes[c] * PJ.order, (J, I, c)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induce_between_matches_sweep(tables, type_label, rank):
    W, _, _ = tables(type_label, rank)
    for I in subsets(rank):
        PI = parabolic(W, I)
        for J in subsets(rank):
            if set(J) <= set(I):
                assert_induce_between_matches_sweep(W, parabolic(W, J), PI)


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3)])
def test_induce_between_matches_sweep_on_intersections(tables, type_label, rank):
    W, _, _ = tables(type_label, rank)
    for I in subsets(rank):
        for J in subsets(rank):
            PJ = parabolic(W, J)
            for _, K in double_cosets(W, J, I):
                assert_induce_between_matches_sweep(W, parabolic(W, K), PJ)


def frobenius_violations(table_G, table_H):
    """The violations of Frobenius reciprocity pair by pair, through inner_product."""
    G, H = table_G.classes, table_H.classes
    out = []
    for a, chi in enumerate(table_H.irreducibles):
        for b, psi in enumerate(table_G.irreducibles):
            lhs = inner_product(G, induce(chi, H, G), psi)
            rhs = inner_product(H, chi, restrict(psi, H, G))
            if lhs != rhs:
                out.append(f"{H.group_id} chi#{a} psi#{b}: <ind chi, psi>={lhs} != <chi, res psi>={rhs}")
    return tuple(out)


def test_frobenius_holds_for_any_class_function(tables):
    """Reciprocity is linear in chi: a table_H with a wrong row still passes."""
    W, cc, t = tables("B", 3)
    P = parabolic(W, (0, 1))
    tp = character_table(W, P)
    rows = list(tp.irreducibles)
    rows[2] = ClassFunction(P.group_id, tuple(v + 1 for v in rows[2].values))
    assert frobenius_check(t, CharacterTable(P, tuple(rows), tp.degrees)) == ()


def test_frobenius_reports_a_tampered_weighted_row(tables):
    """One wrong row of table_H's weighted conjugates |c| chi(c^-1) fails against every psi."""
    W, cc, t = tables("B", 3)
    P = parabolic(W, (0, 1))
    tp = character_table(W, P)
    tampered = CharacterTable(P, tp.irreducibles, tp.degrees)
    weighted = [list(row) for row in tp.weighted_conjugates]
    weighted[2][P.identity_class] += 1  # adds psi(1) / |H| to <chi#2, res psi>
    tampered.weighted_conjugates = tuple(map(tuple, weighted))
    chi = tp.irreducibles[2]
    expected = tuple(
        f"{P.group_id} chi#2 psi#{b}: "
        f"<ind chi, psi>={inner_product(cc, induce(chi, P, cc), psi)} != "
        f"<chi, res psi>={inner_product(P, chi, restrict(psi, P, cc)) + Fraction(t.degrees[b], P.order)}"
        for b, psi in enumerate(t.irreducibles)
    )
    assert frobenius_check(t, tampered) == expected


def test_frobenius_reports_a_tampered_tally(monkeypatch):
    """Counts that induce wrongly fail against the fusion-restricted side."""
    W = build_weyl_group("A", 3)
    cc = conjugacy_classes(W)
    t, P = character_table(W), parabolic(W, (0,))
    tp = character_table(W, P)
    (r, c, n), *rest = induction_counts(cc, P)
    monkeypatch.setitem(P.counts, cc.group_id, ((r, c, n + P.order), *rest))
    violations = frobenius_check(t, tp)
    assert violations != ()
    assert violations == frobenius_violations(t, tp)


def test_mackey_reports_a_tampered_operator(monkeypatch):
    W = build_weyl_group("B", 3)
    PI, PJ = parabolic(W, (0, 2)), parabolic(W, (1, 2))
    chi = character_table(W, PI).irreducibles[1]
    cc = conjugacy_classes(W)
    ind_chi = induce(chi, PI, cc)
    assert mackey_check(W, (0, 2), (1, 2), chi, ind_chi) == ()
    (r, c, n), *rest = mackey_operator(W, PJ, PI)
    monkeypatch.setitem(W.cache, ("mackey_operator", PJ.generators, PI.generators),
                        ((r, c, n + PJ.order), *rest))
    left = restrict(ind_chi, PJ, cc).values
    right = list(left)
    right[r] += chi.values[c]
    assert mackey_check(W, (0, 2), (1, 2), chi, ind_chi) == (
        f"I=(0, 2) J=(1, 2): res ind = {left} but coset sum = {tuple(right)}",
    )


@pytest.mark.parametrize("type_label, rank", [("A", 3), ("B", 3), ("G", 2)])
def test_mackey_operator_is_the_sum_of_coset_terms(tables, type_label, rank):
    """Applied to each irreducible of W_I, the cached operator gives the sum of the coset inductions."""
    W, cc, _ = tables(type_label, rank)
    for I in subsets(rank):
        PI = parabolic(W, I)
        for J in subsets(rank):
            PJ = parabolic(W, J)
            terms = []
            for x, K in double_cosets(W, J, I):
                inter = parabolic(W, K)
                transport = [PI.class_of(W.conjugate(W.inv(x), rep)) for rep in inter.reps]
                terms.append((inter, transport))
            for chi in character_table(W, PI).irreducibles:
                total = [0] * PJ.n_classes
                for inter, transport in terms:
                    moved = ClassFunction(inter.group_id, tuple(chi.values[c] for c in transport))
                    total = [a + b for a, b in zip(total, induce(moved, inter, PJ).values)]
                ind_chi = induce(chi, PI, cc)
                assert mackey_check(W, I, J, chi, ind_chi) == ()
                assert restrict(ind_chi, PJ, cc).values == tuple(total)


def test_fusion_is_cached_per_supergroup(tables):
    W, cc, _ = tables("B", 3)
    P = parabolic(W, (0, 1))
    fused = fusion(P, cc)
    assert fused == tuple(cc.class_of(rep) for rep in P.reps)
    assert fusion(P, cc) is fused is P.fusion[cc.group_id]
