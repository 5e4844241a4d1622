import inspect
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_dl import (
    GroupMismatch,
    InvalidType,
    IrrationalityError,
    build_weyl_group,
    NotVirtual,
    VirtualCharacter,
    character_table,
    conjugacy_classes,
    decompose,
    dl_operator,
    induce,
    inner_product,
    mackey_check,
    parabolic,
    realize,
    reflection,
    restrict,
    sign,
    tensor,
    trivial,
    unit,
)
from weyl_dl import chars
from weyl_dl.chars import (
    ClassFunction, _class_matrix, _class_order, _eigenvalues, certify_characters, table_from_rows,
)
from weyl_dl.cli import ROSTER
from weyl_dl.dl import subsets
from weyl_dl.grp import subgroup_classes
from weyl_dl.ratlinalg import split_prime
from weyl_dl.symchars import (
    cycle_type, dimension, natural_permutation, partitions, sn_character_table,
)


def test_a2_table(tables):
    W, cc, t = tables("A", 2)
    assert [t.irreducibles[i].values for i in range(3)] == [
        (1, 1, 1), (1, -1, 1), (2, 0, -1),
    ]
    assert t.labels == ((3,), (1, 1, 1), (2, 1))


def test_a1_table(tables):
    _, _, t = tables("A", 1)
    assert [t.irreducibles[i].values for i in range(2)] == [(1, 1), (1, -1)]


def test_b2_table_degrees(tables):
    _, _, t = tables("B", 2)
    assert t.degrees == (1, 1, 1, 1, 2)


def test_canonical_order_trivial_first(tables):
    for key in [("A", 3), ("B", 2), ("G", 2)]:
        _, cc, t = tables(*key)
        assert t.irreducibles[0].values == (1,) * cc.n_classes
        assert list(t.degrees) == sorted(t.degrees)


def test_orthogonality_exact(tables):
    for key in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        W, cc, t = tables(*key)
        k = cc.n_classes
        for i in range(k):
            for j in range(k):
                expected = Fraction(1 if i == j else 0)
                assert inner_product(cc, t.irreducibles[i], t.irreducibles[j]) == expected


def test_degree_divides_order(tables):
    for key in [("B", 3), ("D", 4), ("F", 4)]:
        W, _, t = tables(*key)
        assert all(W.order % d == 0 for d in t.degrees)


def test_seed_does_not_change_table():
    """character_table takes no seed, and two fresh B2 groups give the same table."""
    assert "seed" not in inspect.signature(character_table).parameters
    t0 = character_table(build_weyl_group("B", 2))
    t1 = character_table(build_weyl_group("B", 2))
    assert [t0.irreducibles[i].values for i in range(5)] == [t1.irreducibles[i].values for i in range(5)]


def test_seed_is_not_part_of_the_cache_key():
    W = build_weyl_group("B", 4)
    t0 = character_table(W)
    assert character_table(W) is t0
    assert [key for key in W.cache if key[0] == "character_table"] == [("character_table", W.group_id)]
    fresh = character_table(build_weyl_group("B", 4))
    assert [chi.values for chi in fresh.irreducibles] == [chi.values for chi in t0.irreducibles]


def test_table_from_rows_refuses_rows_out_of_canonical_order(tables):
    """Reversed rows still certify, but a table holds its irreducibles in canonical order only."""
    W, cc, t = tables("A", 3)
    rows = [chi.values for chi in t.irreducibles]
    with pytest.raises(IrrationalityError, match="canonical order"):
        table_from_rows(W, cc, rows[::-1])
    assert character_table(W) is t


@pytest.mark.parametrize("type_label, rank, subset", [
    ("A", 3, None), ("B", 3, None), ("G", 2, None), ("F", 4, None), ("F", 4, (1, 2, 3)),
])
def test_eigenvalues_are_central_characters_mod_p(groups, type_label, rank, subset):
    """Each class matrix's eigenvalues mod p are |C_i| chi(g_i) / chi(1) over the table."""
    W = groups(type_label, rank)
    cc = conjugacy_classes(W) if subset is None else parabolic(W, subset)
    t = character_table(W, cc)
    p = split_prime(cc.order)
    ident = cc.identity_class
    for i in range(cc.n_classes):
        central = [divmod(cc.sizes[i] * chi.values[i], chi.values[ident]) for chi in t.irreducibles]
        assert all(r == 0 for _, r in central)
        assert _eigenvalues(_class_matrix(W, cc, i), ident, p) == sorted({q % p for q, _ in central})


def test_class_matrix_is_tallied_once(groups):
    """The split and the certificate share one cached class matrix."""
    W = groups("B", 3)
    cc = parabolic(W, (0, 1))
    for i in range(cc.n_classes):
        assert _class_matrix(W, cc, i) is _class_matrix(W, cc, i)


def _by_size(W, classes):
    """Every class, the identity included, smallest first: the order of earlier releases."""
    return sorted(range(classes.n_classes), key=classes.sizes.__getitem__)


def _tallied(W, classes):
    """The classes whose matrices are cached on W for this group."""
    return sorted(key[2] for key in W.cache if key[:2] == ("class_matrix", classes.group_id))


def _rows(W, subset):
    """The rows of W's table, or of W_I's for a subset I."""
    classes = conjugacy_classes(W) if subset is None else parabolic(W, subset)
    return [chi.values for chi in character_table(W, classes).irreducibles]


# every roster type, and every parabolic of B3 and F4
ORDER_CASES = [(key, None) for key in ROSTER] + [
    (key, I) for key in [("B", 3), ("F", 4)] for I in subsets(key[1])
]


@pytest.mark.parametrize("order", [_by_size, lambda W, classes: _by_size(W, classes)[::-1]],
                         ids=["by-size", "reversed"])
def test_tables_do_not_depend_on_the_class_order(groups, monkeypatch, order):
    """Any order of the class matrices splits and certifies the same tables."""
    expected = {case: _rows(groups(*case[0]), case[1]) for case in ORDER_CASES}
    monkeypatch.setattr(chars, "_class_order", order)
    fresh = {key: build_weyl_group(*key) for key in ROSTER}
    assert {case: _rows(fresh[case[0]], case[1]) for case in ORDER_CASES} == expected


def test_class_order_starts_with_the_centre_and_leaves_out_the_identity(groups):
    """B3: w0 = -1 is central, then the two classes of simple reflections, then the rest by size."""
    W = groups("B", 3)
    cc = conjugacy_classes(W)
    order = _class_order(W, cc)
    assert sorted(order) == [i for i in range(cc.n_classes) if i != cc.identity_class]
    assert order[0] == cc.class_index[W.longest_element] and cc.sizes[order[0]] == 1
    reflection_classes = {cc.class_index[s] for s in W.generator_indices}
    assert set(order[1:3]) == reflection_classes
    assert [cc.sizes[i] for i in order[3:]] == sorted(cc.sizes[i] for i in order[3:])


def test_trivial_parabolic_tallies_no_class_matrix():
    """W_I for empty I has one class, the identity: it splits and certifies to [[1]] with no class matrix."""
    W = build_weyl_group("B", 3)
    empty = parabolic(W, ())
    assert empty.n_classes == 1 and _class_order(W, empty) == []
    assert character_table(W, empty).irreducibles[0].values == (1,)
    certify_characters(W, empty, [[1]])
    assert _tallied(W, empty) == []
    with pytest.raises(IrrationalityError):
        certify_characters(W, empty, [[-1]])


def test_explicit_subgroup_splits_without_generators(groups):
    """A subgroup given by its members has no simple reflections; its central classes and sizes still split it."""
    W = groups("B", 3)
    P = parabolic(W, (0, 1))
    H = subgroup_classes(W, P.members)
    assert H.generators is None
    assert [chi.values for chi in character_table(W, H).irreducibles] == [
        chi.values for chi in character_table(W, P).irreducibles
    ]
    centre = subgroup_classes(W, (0, W.longest_element))
    assert [chi.values for chi in character_table(W, centre).irreducibles] == [(1, 1), (1, -1)]


def test_fresh_f4_certificate_tallies_six_class_matrices(tables):
    """Of F4's 24 non-identity classes, the certificate tallies only the 6 that separate the rows."""
    _, _, t = tables("F", 4)
    W = build_weyl_group("F", 4)
    cc = conjugacy_classes(W)
    table_from_rows(W, cc, [chi.values for chi in t.irreducibles])
    assert len(_tallied(W, cc)) == 6


def bipartition_degrees(n, type_d):
    """Degrees of B_n (or D_n) from bipartitions (lam, mu): C(n, |lam|) f^lam f^mu.

    In D_n the pairs (lam, mu) and (mu, lam) give one character, and lam = mu
    gives two of half the degree.
    """
    out = []
    for a in range(n + 1):
        for lam in partitions(a):
            for mu in partitions(n - a):
                d = comb(n, a) * dimension(lam) * dimension(mu)
                if not type_d:
                    out.append(d)
                elif lam == mu:
                    out += [d // 2, d // 2]
                elif (a, lam) < (n - a, mu):
                    out.append(d)
    return sorted(out)


@pytest.mark.parametrize("type_label, rank", [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("D", 4), ("D", 5), ("D", 6),
])
def test_degrees_match_bipartition_oracle(tables, type_label, rank):
    _, cc, t = tables(type_label, rank)
    assert sorted(t.degrees) == bipartition_degrees(rank, type_label == "D")
    assert t.n_irreducibles == cc.n_classes


def test_type_a_matches_murnaghan_nakayama(tables):
    for rank in range(1, 5):
        W, cc, t = tables("A", rank)
        parts, rows = sn_character_table(rank + 1)
        col = [parts.index(cycle_type(natural_permutation(W, rep))) for rep in cc.reps]
        mine = {t.irreducibles[i].values for i in range(cc.n_classes)}
        theirs = {tuple(row[c] for c in col) for row in rows}
        assert mine == theirs


def test_subgroup_table(groups):
    W = groups("B", 3)
    P = parabolic(W, (0, 1))
    t = character_table(W, P)
    assert sum(d * d for d in t.degrees) == P.order


def test_sign_and_reflection(tables):
    W, cc, t = tables("A", 2)
    assert sign(W, cc).values == (Fraction(1), Fraction(-1), Fraction(1))
    assert reflection(W, cc).values == (Fraction(2), Fraction(0), Fraction(-1))
    assert inner_product(cc, trivial(cc), trivial(cc)) == 1


@pytest.mark.parametrize("type_label,rank", [*ROSTER, ("D", 5)])
def test_reflection_is_the_trace_of_the_root_action(groups, type_label, rank):
    """Column j of w's matrix is the coordinate vector of w(a_j), read off the permutation of the roots."""
    W = groups(type_label, rank)
    cc = conjugacy_classes(W)
    roots = W.rootsystem.roots
    columns = [roots.index(tuple(int(j == i) for j in range(rank))) for i in range(rank)]
    expected = tuple(
        sum(roots[W.root_actions[w][columns[j]]][j] for j in range(rank)) for w in cc.reps
    )
    assert reflection(W, cc).values == expected


@pytest.mark.parametrize("i", [-1, 3, True, 1.0], ids=repr)
def test_unit_refuses_an_index_outside_the_irreducibles(tables, i):
    _, _, t = tables("A", 2)
    with pytest.raises(InvalidType, match=rf"irreducible index {i!r} is outside 0\.\.2$"):
        unit(t, i)


def test_a_partition_of_another_weyl_group_is_a_group_mismatch(tables, groups):
    """The classes of B2 on A2: the indices overlap, so only the group ids can tell."""
    W, cc, t = tables("A", 2)
    WB = groups("B", 2)
    ccB = conjugacy_classes(WB)
    rows = [chi.values for chi in character_table(WB).irreducibles]
    for call in (lambda: character_table(W, ccB), lambda: table_from_rows(W, ccB, rows),
                 lambda: sign(W, ccB), lambda: reflection(W, ccB)):
        with pytest.raises(GroupMismatch, match="B2 is a subgroup of B2, not of A2"):
            call()


def test_a_second_build_of_a_type_shares_its_partitions(tables):
    """A second build of A2 indexes its elements as the first does, so the partitions carry over."""
    W, cc, t = tables("A", 2)
    W2 = build_weyl_group("A", 2)
    assert W2 is not W
    assert character_table(W2, cc).irreducibles == t.irreducibles
    assert sign(W2, cc) == sign(W, cc)
    assert reflection(W2, cc) == reflection(W, cc)


def test_decompose_regular(tables):
    W, cc, t = tables("A", 2)
    regular = [0] * cc.n_classes  # the regular character: |G| at the identity, 0 elsewhere
    regular[cc.identity_class] = cc.order
    assert decompose(t, ClassFunction(cc.group_id, tuple(regular))).coeffs == (1, 1, 2)
    assert decompose(t, trivial(cc)).coeffs == (1, 0, 0)


def test_decompose_rejects_non_virtual(tables):
    _, cc, t = tables("A", 2)
    f = ClassFunction(cc.group_id, (Fraction(1, 2), Fraction(0), Fraction(0)))
    with pytest.raises(NotVirtual):
        decompose(t, f)


def test_group_mismatch(tables):
    _, cc2, t2 = tables("A", 2)
    _, cc3, t3 = tables("A", 3)
    with pytest.raises(TypeError):
        trivial(cc2) + trivial(cc3)
    with pytest.raises(GroupMismatch):
        decompose(t2, trivial(cc3))


def call_sites(W, cc, t):
    """Per call site: the group its record must live on, the record class, and the call."""
    P = parabolic(W, (0,))
    induced = induce(trivial(P), P, cc)
    return {
        "inner_product f": (cc, ClassFunction, lambda x: inner_product(cc, x, trivial(cc))),
        "inner_product g": (cc, ClassFunction, lambda x: inner_product(cc, trivial(cc), x)),
        "decompose": (cc, ClassFunction, lambda x: decompose(t, x)),
        "realize": (cc, VirtualCharacter, lambda x: realize(t, x)),
        "dl_operator": (cc, VirtualCharacter, lambda x: dl_operator(W, t, x)),
        "restrict": (cc, ClassFunction, lambda x: restrict(x, P, cc)),
        "induce": (P, ClassFunction, lambda x: induce(x, P, cc)),
        "mackey_check": (P, ClassFunction, lambda x: mackey_check(W, (0,), (1,), x, induced)),
    }


@pytest.mark.parametrize("site", [
    "inner_product f", "inner_product g", "decompose", "realize", "dl_operator", "restrict",
    "induce", "mackey_check",
])
@pytest.mark.parametrize("kind", ["short", "long", "foreign"])
def test_a_record_off_its_group_is_a_group_mismatch(tables, site, kind):
    """A record must carry its group's id and one entry per class; a wrong length is no silent answer."""
    W, cc, t = tables("A", 2)
    home, cls, call = call_sites(W, cc, t)[site]
    k = home.n_classes
    call(cls(home.group_id, (1,) * k))  # the well-formed record is accepted
    group_id, length = {"short": (home.group_id, k - 1), "long": (home.group_id, k + 1),
                        "foreign": ("B2", k)}[kind]
    with pytest.raises(GroupMismatch):
        call(cls(group_id, (1,) * length))


def test_tensor_examples(tables):
    W, cc, t = tables("A", 2)
    sgn = decompose(t, sign(W, cc))
    refl = decompose(t, reflection(W, cc))
    triv = decompose(t, trivial(cc))
    assert tensor(t, sgn, sgn).coeffs == triv.coeffs
    assert tensor(t, sgn, refl).coeffs == refl.coeffs
    assert tensor(t, triv, refl).coeffs == refl.coeffs


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5))
def test_decompose_realize_roundtrip(tables, coeffs):
    _, cc, t = tables("A", 3)
    v = VirtualCharacter(t.group_id, tuple(coeffs))
    assert decompose(t, realize(t, v)).coeffs == tuple(coeffs)


def test_unit_vectors(tables):
    _, _, t = tables("B", 2)
    for i in range(t.n_irreducibles):
        u = unit(t, i)
        assert decompose(t, realize(t, u)).coeffs == u.coeffs
