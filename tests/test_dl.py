import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyl_dl import (
    GroupMismatch,
    InternalError,
    InvalidType,
    VirtualCharacter,
    build_weyl_group,
    character_table,
    decompose,
    dl_operator,
    parabolic,
    reflection,
    sign,
    springer_table,
    subgroup_classes,
    tensor,
    trivial,
    unit,
    verify_involution,
    verify_sign_twist,
)
from weyl_dl import dl
from weyl_dl.dl import (
    ShiftLedger,
    _alternating_matrix,
    dl_inverse_matrix,
    dl_matrix,
    sign_permutation,
    sign_tensor_permutation,
    subsets,
)
from weyl_dl.chars import CharacterTable, ClassFunction
from weyl_dl.cli import ROSTER, main
from weyl_dl.indres import induce, restrict
from weyl_dl.symchars import transpose


def test_dl_trivial_is_sign_a2(tables):
    W, cc, t = tables("A", 2)
    v = dl_operator(W, t, decompose(t, trivial(cc)))
    assert v.coeffs == decompose(t, sign(W, cc)).coeffs == (0, 1, 0)


def test_dl_trivial_is_sign_a1(tables):
    W, cc, t = tables("A", 1)
    v = dl_operator(W, t, decompose(t, trivial(cc)))
    assert v.coeffs == (0, 1)


def test_dl_fixes_reflection_a2(tables):
    W, cc, t = tables("A", 2)
    refl = decompose(t, reflection(W, cc))
    assert dl_operator(W, t, refl).coeffs == refl.coeffs


def test_sign_twist_small(tables):
    for key in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        W, _, t = tables(*key)
        violations = verify_sign_twist(W, t)
        assert violations == (), violations


def test_sign_twist_permutation_a2(tables):
    W, _, t = tables("A", 2)
    assert sign_permutation(W, t) == (1, 0, 2)


SWAPPED_VIOLATIONS = {
    ("A", 3): (
        (
            "irreducible #0: DL image (1, 0, 0, 0, 0) != sign-tensor image (0, 1, 0, 0, 0)",
            "irreducible #1: DL image (0, 1, 0, 0, 0) != sign-tensor image (1, 0, 0, 0, 0)",
        ),
        (),
    ),
    ("B", 2): (
        (
            "irreducible #0: DL image (0, 0, 1, 0, 0) != sign-tensor image (0, 0, 0, 1, 0)",
            "irreducible #1: DL image (0, 0, 0, 1, 0) != sign-tensor image (0, 0, 1, 0, 0)",
        ),
        (
            "column #0: DL^2 image is (0, 1, 0, 0, 0)",
            "column #1: DL^2 image is (1, 0, 0, 0, 0)",
            "column #2: DL^2 image is (0, 0, 0, 1, 0)",
            "column #3: DL^2 image is (0, 0, 1, 0, 0)",
        ),
    ),
}


@pytest.mark.parametrize("key", sorted(SWAPPED_VIOLATIONS), ids=["A3", "B2"])
def test_checks_return_every_violation_of_a_wrong_dl_matrix(monkeypatch, key):
    """Two swapped DL images: each check returns all its violations, in order, not only the first."""
    assemble = dl._alternating_matrix

    def swapped(W, table):
        first, second, *rest = assemble(W, table)
        return (second, first, *rest)

    monkeypatch.setattr(dl, "_alternating_matrix", swapped)
    W = build_weyl_group(*key)  # a fresh group: no DL matrix cached on it yet
    t = character_table(W)
    assert (verify_sign_twist(W, t), verify_involution(W, t)) == SWAPPED_VIOLATIONS[key]


def test_b2_two_dimensional_is_fixed(tables):
    W, _, t = tables("B", 2)
    perm = sign_tensor_permutation(W, t)
    two_dim = t.degrees.index(2)
    assert perm[two_dim] == two_dim


def test_involution_small(tables):
    for key in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        W, _, t = tables(*key)
        assert verify_involution(W, t) == ()


def test_dl_linear_on_lattice(tables):
    W, cc, t = tables("A", 2)
    v = VirtualCharacter(t.group_id, (2, -1, 3))
    image = dl_operator(W, t, v)
    # matches the sign-tensor permutation applied to coordinates
    assert image.coeffs == (-1, 2, 3)


def test_dl_inverse_matches_direct(tables):
    # a fresh assembly, the cached operator and the ledger-checked inverse side agree
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        W, _, t = tables(*key)
        assert _alternating_matrix(W, t) == dl_matrix(W, t) == dl_inverse_matrix(W, t)


def test_dl_inverse_refuses_a_disagreeing_ledger(tables, monkeypatch, capsys, tmp_path):
    """A layer whose inverse-side parity is not (-1)^|I| is an engine fault: InternalError, exit 4."""
    monkeypatch.setattr(ShiftLedger, "parity_identity_holds", lambda self, size: False)
    W, _, t = tables("A", 2)
    with pytest.raises(InternalError, match="layer 0"):
        dl_inverse_matrix(W, t)
    assert main(["dl", "A", "2", "--cache-dir", str(tmp_path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: internal: ")


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2), ("D", 4)], ids=["A3", "B3", "G2", "D4"])
def test_dl_on_every_parabolic_table(groups, key):
    """On the table of W_J, DL sums over the W_K, K in J: it is W_J's sign twist (Alvis-Curtis)."""
    W = groups(*key)
    for J in subsets(W.rank):
        t = character_table(W, parabolic(W, J))
        violations = verify_sign_twist(W, t)
        assert violations == (), (J, violations)
        assert verify_involution(W, t) == (), J
        assert dl_inverse_matrix(W, t) == dl_matrix(W, t)


def literal_dl_matrix(W, t):
    """DL as the literal sum over I in J of (-1)^|I| ind res, one irreducible and one W_I at a time."""
    G = t.classes
    images = []
    for chi in t.irreducibles:
        total = [0] * G.n_classes
        for positions in subsets(len(G.generators)):
            P = parabolic(W, tuple(G.generators[k] for k in positions))
            term = induce(restrict(chi, P, G), P, G).values
            sign = (-1) ** len(positions)
            total = [a + sign * v for a, v in zip(total, term)]
        images.append(decompose(t, ClassFunction(t.group_id, tuple(total))).coeffs)
    return tuple(images)


@pytest.mark.parametrize("key", [*ROSTER, ("D", 5)], ids=lambda key: f"{key[0]}{key[1]}")
def test_dl_matrix_equals_the_literal_alternating_sum(groups, key):
    """The one-operator assembly against the literal sum: on W, and on every parabolic table of B4 and F4."""
    W = groups(*key)
    tables = [character_table(W)]
    if key in (("B", 4), ("F", 4)):
        tables += [character_table(W, parabolic(W, J)) for J in subsets(W.rank)[:-1]]
    for t in tables:
        assert dl_matrix(W, t) == literal_dl_matrix(W, t), t.group_id


@pytest.mark.parametrize("key", [*ROSTER, ("D", 5)], ids=lambda key: f"{key[0]}{key[1]}")
def test_alternating_sum_of_parabolic_permutation_characters_is_sign(groups, key):
    """Solomon's identity: sum over I in J of (-1)^|I| ind_{W_I}^{W_J} 1 is the sign character of W_J."""
    W = groups(*key)
    for J in subsets(W.rank):
        PJ = parabolic(W, J)
        total = [0] * PJ.n_classes
        for positions in subsets(len(J)):
            PI = parabolic(W, tuple(J[k] for k in positions))
            term = induce(trivial(PI), PI, PJ).values
            total = [a + (-1) ** len(positions) * v for a, v in zip(total, term)]
        assert tuple(total) == sign(W, PJ).values, J


def test_dl_matrix_reads_no_fusion_map():
    """DL reads the induction counts alone: after it runs on W and on B4's parabolic tables, no fusion is cached."""
    W = build_weyl_group("B", 4)
    parabolics = [parabolic(W, J) for J in subsets(W.rank)]
    dl_matrix(W, character_table(W))
    assert all(P.fusion == {} for P in parabolics)
    for P in parabolics[:-1]:
        dl_matrix(W, character_table(W, P))
    assert all(P.fusion == {} for P in parabolics)


def test_dl_inverse_checks_the_ledger_of_the_parabolic(groups, monkeypatch):
    """On W_J the ledger has central rank rank - |J| and sigma size |J|, one check per layer."""
    seen = []

    class Recorded(ShiftLedger):
        def parity_identity_holds(self, size):
            seen.append((tuple(self), size))
            return super().parity_identity_holds(size)

    monkeypatch.setattr(dl, "ShiftLedger", Recorded)
    W = groups("B", 3)
    dl_inverse_matrix(W, character_table(W, parabolic(W, (0, 2))))
    assert seen == [((1, 2), 0), ((1, 2), 1), ((1, 2), 2)]
    seen.clear()
    dl_inverse_matrix(W, character_table(W))
    assert seen == [((0, 3), size) for size in range(4)]


def test_dl_refuses_a_table_of_another_group(tables):
    """DL reads its layers from the table's group, which must be W or one of its standard parabolics."""
    W, _, t_a2 = tables("A", 2)
    _, _, t_b2 = tables("B", 2)
    with pytest.raises(GroupMismatch):
        dl_matrix(W, t_b2)
    members = parabolic(W, (0,)).members
    explicit = character_table(W, subgroup_classes(W, members))
    with pytest.raises(GroupMismatch):
        dl_matrix(W, explicit)
    _, _, t_a3 = tables("A", 3)
    with pytest.raises(GroupMismatch):
        dl_matrix(W, t_a3)
    assert dl_matrix(W, t_a2)


def test_dl_accepts_a_table_of_another_build():
    """A table of a second build of W, or of one of its parabolics, is on W: the same DL matrix."""
    W, W2 = build_weyl_group("A", 2), build_weyl_group("A", 2)
    t, t2 = character_table(W), character_table(W2)
    assert dl_matrix(W, t2) == dl_matrix(W, t)
    assert verify_sign_twist(W, t2) == ()
    p, p2 = character_table(W, parabolic(W, (1,))), character_table(W2, parabolic(W2, (1,)))
    assert dl_matrix(W, p2) == dl_matrix(W, p)


def test_dl_caches_follow_the_table_not_its_group():
    """A second table of the same group, rows reordered, gets its own DL matrix and sign permutation."""
    W = build_weyl_group("A", 2)
    t = character_table(W)
    dl_matrix(W, t)
    t2 = CharacterTable(t.classes, tuple(reversed(t.irreducibles)), tuple(reversed(t.degrees)))
    assert verify_sign_twist(W, t2) == ()
    assert sign_permutation(W, t2) == sign_tensor_permutation(W, t2) != sign_permutation(W, t)


def tensor_sign_permutation(W, t):
    """The sign permutation through the representation ring: sign tensor each unit vector."""
    sgn = decompose(t, sign(W, t.classes))
    perm = []
    for i in range(t.n_irreducibles):
        image = tensor(t, sgn, unit(t, i)).coeffs
        assert sorted(image) == [0] * (t.n_irreducibles - 1) + [1]
        perm.append(image.index(1))
    return tuple(perm)


@pytest.mark.parametrize("key", ROSTER)
def test_sign_permutation_matches_tensor(tables, key):
    W, _, t = tables(*key)
    assert sign_tensor_permutation(W, t) == tensor_sign_permutation(W, t)


def test_sign_permutation_rejects_table_without_image(tables):
    W, cc, t = tables("A", 2)
    # the sign row replaced by minus the reflection row: sign * trivial is no row
    rows = list(t.irreducibles)
    rows[1] = ClassFunction(t.group_id, tuple(-v for v in rows[2].values))
    broken = CharacterTable(cc, tuple(rows), t.degrees)
    with pytest.raises(InternalError, match="not a row"):
        sign_tensor_permutation(W, broken)
    rows[1] = rows[0]
    repeated = CharacterTable(cc, tuple(rows), t.degrees)
    with pytest.raises(InternalError, match="repeated rows"):
        sign_tensor_permutation(W, repeated)


def test_sign_permutation_cached(tables):
    W, _, t = tables("B", 3)
    perm = sign_permutation(W, t)
    assert perm == sign_tensor_permutation(W, t)
    assert sign_permutation(W, t) is perm


def test_dl_inverse_composition_is_identity(tables):
    W, _, t = tables("A", 1)
    for i in range(t.n_irreducibles):
        v = VirtualCharacter(t.group_id, tuple(1 if j == i else 0 for j in range(t.n_irreducibles)))
        assert dl_operator(W, t, dl_operator(W, t, v)).coeffs == v.coeffs


def test_dl_images_are_unit_vectors(tables):
    for key in [("A", 3), ("B", 3), ("G", 2)]:
        W, _, t = tables(*key)
        for col in dl_matrix(W, t):
            assert sorted(col) == [0] * (t.n_irreducibles - 1) + [1]


def test_springer_pairs_a2(tables):
    W, _, t = tables("A", 2)
    pairs = set(springer_table(W, t))
    assert ("(3)", "(1,1,1)") in pairs
    assert ("(2,1)", "(2,1)") in pairs


def test_springer_pairs_a1(tables):
    W, _, t = tables("A", 1)
    pairs = set(springer_table(W, t))
    assert pairs == {("(2)", "(1,1)"), ("(1,1)", "(2)")}


def test_springer_pairs_a3(tables):
    W, _, t = tables("A", 3)
    pairs = set(springer_table(W, t))
    assert ("(4)", "(1,1,1,1)") in pairs
    assert ("(3,1)", "(2,1,1)") in pairs
    assert ("(2,2)", "(2,2)") in pairs


def test_springer_pairing_is_transpose(tables):
    for rank in range(1, 5):
        W, _, t = tables("A", rank)
        perm = sign_tensor_permutation(W, t)
        assert t.labels is not None
        for i in range(t.n_irreducibles):
            assert t.labels[perm[i]] == transpose(t.labels[i])


def test_shift_ledger_values():
    ledger = ShiftLedger(central_rank=0, sigma_size=3)
    assert ledger.d == (3, 2, 1, 0)
    assert all(ledger.d[i] > ledger.d[i + 1] for i in range(3))


@pytest.mark.parametrize("layer", [-1, 4, 9, True, 1.0, None])
def test_shift_rejects_layer_outside_ledger(layer):
    with pytest.raises(InvalidType, match=re.escape(f"layer {layer!r} is outside 0..3")):
        ShiftLedger(0, 3).shift(layer)


def test_shift_rejects_layer_under_optimize(run_optimized):
    code = (
        "from weyl_dl import InvalidType\n"
        "from weyl_dl.dl import ShiftLedger\n"
        "try:\n"
        "    print(ShiftLedger(0, 2).shift(9))\n"
        "except InvalidType as exc:\n"
        "    print(exc)\n"
    )
    assert "layer 9 is outside 0..2" in run_optimized(code)


@given(
    central=st.integers(min_value=0, max_value=3),
    sigma=st.integers(min_value=0, max_value=6),
)
def test_shift_parity_identity(central, sigma):
    ledger = ShiftLedger(central, sigma)
    for size in range(sigma + 1):
        assert ledger.parity_identity_holds(size)
        assert ledger.inverse_side_sign(size) == (-1) ** size
