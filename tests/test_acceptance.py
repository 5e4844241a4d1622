"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one PASS line on success; any failure is an exact integer or
rational mismatch, never a numeric-tolerance question.
"""
import io
import itertools
from contextlib import redirect_stdout
from math import factorial

from weyl_dl import (
    character_table,
    decompose,
    frobenius_check,
    induce,
    mackey_check,
    parabolic,
    sign,
    springer_table,
    tensor,
    unit,
)
from weyl_dl.cli import main as cli_main
from weyl_dl.dl import ShiftLedger, dl_matrix, sign_tensor_permutation
from weyl_dl.symchars import cycle_type, natural_permutation, sn_character_table, transpose

ROSTER = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4),
    ("G", 2), ("F", 4),
]

EXPECTED_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "G": lambda n: 12,
    "F": lambda n: 1152,
}


def subsets(rank):
    return list(itertools.chain.from_iterable(
        itertools.combinations(range(rank), k) for k in range(rank + 1)
    ))


def test_sign_twist_identity(tables):
    for type_label, rank in ROSTER:
        W, cc, t = tables(type_label, rank)
        sgn = decompose(t, sign(W, cc))
        matrix = dl_matrix(W, t)
        for i in range(t.n_irreducibles):
            expected = tensor(t, sgn, unit(t, i)).coeffs
            assert matrix[i] == expected, (type_label, rank, i)
    print("PASS sign-twist: DL equals sign-tensor on every irreducible, all types")


def test_involution(tables):
    for type_label, rank in ROSTER:
        W, _, t = tables(type_label, rank)
        matrix = dl_matrix(W, t)
        k = len(matrix)
        for i in range(k):
            twice = [0] * k
            for j, c in enumerate(matrix[i]):
                if c:
                    for m in range(k):
                        twice[m] += c * matrix[j][m]
            assert tuple(twice) == tuple(1 if m == i else 0 for m in range(k))
    print("PASS involution: the DL matrix squares to the identity, all types")


def test_springer_pairing_type_a(tables):
    for rank in range(1, 6):
        W, cc, t = tables("A", rank)
        n = rank + 1
        parts, mn_rows = sn_character_table(n)
        cols = [parts.index(cycle_type(natural_permutation(W, rep))) for rep in cc.reps]

        # independent oracle: the class-algebra table must BE the MN table
        mn_root = {tuple(row[c] for c in cols): lam for lam, row in zip(parts, mn_rows)}
        assert t.labels is not None
        for i in range(t.n_irreducibles):
            assert mn_root[t.irreducibles[i].values] == t.labels[i]

        perm = sign_tensor_permutation(W, t)
        assert dl_matrix(W, t) == tuple(
            tuple(1 if j == perm[i] else 0 for j in range(t.n_irreducibles))
            for i in range(t.n_irreducibles)
        )
        for i in range(t.n_irreducibles):
            assert t.labels[perm[i]] == transpose(t.labels[i])

        def fmt(lam):
            return "(" + ",".join(str(p) for p in lam) + ")"

        for i, (a, b) in enumerate(springer_table(W, t)):
            assert a == fmt(t.labels[i])
            assert b == fmt(transpose(t.labels[i]))
    print("PASS springer-pairing: transpose-of-partition in A1..A5, against the MN oracle")


def test_character_table_integrity(tables):
    for type_label, rank in ROSTER:
        W, cc, t = tables(type_label, rank)
        assert W.order == EXPECTED_ORDER[type_label](rank)
        k = cc.n_classes
        rows = [t.irreducibles[i].values for i in range(k)]
        inv = cc.inverse_class
        assert all(isinstance(v, int) for row in rows for v in row)
        for i in range(k):
            for j in range(k):
                ip = sum(cc.sizes[c] * rows[i][c] * rows[j][inv[c]] for c in range(k))
                assert ip == (W.order if i == j else 0)
        for c in range(k):
            for d in range(k):
                ip = sum(rows[i][c] * rows[i][inv[d]] for i in range(k))
                assert ip == (W.order // cc.sizes[c] if c == d else 0)
        assert sum(d * d for d in t.degrees) == W.order
    print("PASS table-integrity: exact orthogonality and degree identities, all types")


def test_frobenius_reciprocity(tables):
    for type_label, rank in ROSTER:
        if rank > 4:
            continue
        W, _, t = tables(type_label, rank)
        for I in subsets(rank):
            violations = frobenius_check(t, character_table(W, parabolic(W, I)))
            assert violations == (), violations[:1]
    print("PASS frobenius: <ind chi, psi> = <chi, res psi> for all subsets and pairs")


def test_mackey_decomposition(tables):
    for type_label, rank in ROSTER:
        if rank > 3:
            continue
        W, cc, _ = tables(type_label, rank)
        for I in subsets(rank):
            P = parabolic(W, I)
            for J in subsets(rank):
                for chi in character_table(W, P).irreducibles:
                    violations = mackey_check(W, I, J, chi, induce(chi, P, cc))
                    assert violations == (), violations[:1]
    print("PASS mackey: double-coset decomposition exact for all pairs, rank <= 3")


def test_induction_transitivity(tables):
    for type_label, rank in ROSTER:
        if rank > 3:
            continue
        W, cc, _ = tables(type_label, rank)
        for J in subsets(rank):
            PJ = parabolic(W, J)
            tj = character_table(W, PJ)
            for I in subsets(rank):
                if not set(J) <= set(I):
                    continue
                PI = parabolic(W, I)
                for chi in tj.irreducibles:
                    assert induce(induce(chi, PJ, PI), PI, cc) == induce(chi, PJ, cc)
    print("PASS transitivity: two-step induction equals direct, all chains, rank <= 3")


def test_shift_parity_ledger():
    for central in range(4):
        for sigma in range(7):
            ledger = ShiftLedger(central, sigma)
            assert all(ledger.d[i] > ledger.d[i + 1] for i in range(sigma))
            for size in range(sigma + 1):
                assert ledger.inverse_side_sign(size) == (-1) ** size
    print("PASS shift-parity: (-1)^(d_0+d_I) = (-1)^|I| for central<=3, sigma<=6")


def test_verify_all_deterministic(tmp_path):
    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main([
                "verify", "all", "--format", "json", "--cache-dir", str(tmp_path),
            ])
        return code, buf.getvalue().encode()

    code1, out1 = run()
    code2, out2 = run()
    assert code1 == code2 == 0
    assert out1 == out2
    print("PASS determinism: verify all twice produced byte-identical reports")
