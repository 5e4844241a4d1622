"""Induction and restriction of class functions along subgroup inclusions.

Every group here is a ConjugacyClasses of one W, and H <= G when H's members
are among G's.  Restriction is a fusion lookup: a class of H takes the value
of f on the G-class of its representative.  Induction uses the
conjugation-count formula (ind f)(w) = (1/|H|) * sum over x in G of
f(x w x^-1) taken over the x with x w x^-1 in H, evaluated once per class
representative of G.  The counts come from the two class partitions alone:
x -> x w x^-1 hits each element of the G-class C of w exactly |G|/|C| times,
so #{x in G : x w x^-1 in c} = |C n c| * |G|/|C|, tallied in one pass over the
members of H (Geck-Pfeiffer 2000, ch. 2) and cached on H per supergroup.  Each
class of H fuses into exactly one class of G, so only one count per class of H
is nonzero, and an induction is a scatter of one term per subgroup class.  The
sum is an integer for an integer f, and the division by |H| is exact; a value
is a Fraction only when f has Fraction values and the quotient is non-integral.
The fusion maps are cached on H per supergroup too, and Mackey's double-coset
side is one sparse operator of the same kind per (J, I), cached on W, over
intersections that are parabolics W_K (Kilmoyer; see grp.double_cosets).
"""
from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import floordiv, mod, mul
from typing import Sequence

from .chars import CharacterTable, ClassFunction, check_on, exact_quotient
from .grp import ConjugacyClasses, _check_weyl, conjugacy_classes, double_cosets, parabolic
from .rootsys import WeylGroup


def fusion(H: ConjugacyClasses, G: ConjugacyClasses) -> tuple[int, ...]:
    """The G-class of each class of H, read from its representative; cached in H.fusion.

    GroupMismatch if a member of H is not in G: induction_counts reads them all.
    The map itself never reads the counts, so restriction stays independent of them.
    """
    fused = H.fusion.get(G.group_id)
    if fused is None:
        induction_counts(G, H)
        fused = H.fusion[G.group_id] = tuple(map(G.class_of, H.reps))
    return fused


def restrict(f: ClassFunction, H: ConjugacyClasses, G: ConjugacyClasses) -> ClassFunction:
    """Pull a class function on G back to its subgroup H through the fusion of H's classes."""
    check_on(f, G)
    return ClassFunction(H.group_id, tuple(map(f.values.__getitem__, fusion(H, G))))


Counts = tuple[tuple[int, int, int], ...]


def induction_counts(G: ConjugacyClasses, H: ConjugacyClasses) -> Counts:
    """Nonzero (r, c, n): n = #{x in G : x w_r x^-1 lies in class c of H}, w_r the r-th rep of G.

    Each member of H is tallied under its (G class, H class) pair, and each
    tally is scaled by the centralizer order |G|/|C_r|.  A class c of H lies
    in one class r of G, so there is one triple per class of H, in the order
    of the G-classes, then the H-classes.  Cached in H.counts.  GroupMismatch
    if H and G are subgroups of different Weyl groups.
    """
    counts = H.counts.get(G.group_id)
    if counts is None:
        _check_weyl(H, G.weyl_id)
        tally = Counter((G.class_of(h), H.class_of(h)) for h in H.members)
        counts = H.counts[G.group_id] = tuple(
            (r, c, n * (G.order // G.sizes[r])) for (r, c), n in sorted(tally.items())
        )
    return counts


def _scatter(counts: Counts, values: Sequence, n_classes: int, denominator: int) -> tuple:
    """(sum over the triples (r, c, n) of n * values[c]) / denominator, for each r, exactly."""
    sums = [0] * n_classes
    for r, c, n in counts:
        sums[r] += n * values[c]
    if any(map(mod, sums, repeat(denominator))):
        return tuple(exact_quotient(t, denominator) for t in sums)
    return tuple(map(floordiv, sums, repeat(denominator)))


def induce(f: ClassFunction, H: ConjugacyClasses, G: ConjugacyClasses) -> ClassFunction:
    """Induce a class function on H up to its supergroup G."""
    check_on(f, H)
    return ClassFunction(
        G.group_id, _scatter(induction_counts(G, H), f.values, G.n_classes, H.order)
    )


def induce_between(
    W: WeylGroup, sub: ConjugacyClasses, sup: ConjugacyClasses, f: ClassFunction
) -> ClassFunction:
    """induce(f, sub, sup) under its former name and argument order."""
    return induce(f, sub, sup)


def frobenius_check(table_G: CharacterTable, table_H: CharacterTable) -> tuple[str, ...]:
    """<ind chi, psi> = <chi, res psi> for all irreducible pairs, exactly; the violations, or ().

    table_H is the table of a subgroup H of the group of table_G.  Induction
    goes through the members' tally and restriction through fusion, so the
    two sides are computed independently.  Each side is a sum against a
    table's weighted conjugates, and lhs_total / |G| = rhs_total / |H| is
    compared as lhs_total * |H| = rhs_total * |G|.
    """
    G, H = table_G.classes, table_H.classes
    g, h = G.order, H.order
    violations = []
    restrictions = [restrict(psi, H, G).values for psi in table_G.irreducibles]
    for a, (chi, chi_weighted) in enumerate(zip(table_H.irreducibles, table_H.weighted_conjugates)):
        ind_chi = induce(chi, H, G).values
        for b, (psi_weighted, res_psi) in enumerate(zip(table_G.weighted_conjugates, restrictions)):
            lhs_total = sum(map(mul, ind_chi, psi_weighted))
            rhs_total = sum(map(mul, chi_weighted, res_psi))
            if lhs_total * h != rhs_total * g:
                lhs, rhs = exact_quotient(lhs_total, g), exact_quotient(rhs_total, h)
                violations.append(
                    f"{H.group_id} chi#{a} psi#{b}: <ind chi, psi>={lhs} != <chi, res psi>={rhs}"
                )
    return tuple(violations)


def mackey_operator(W: WeylGroup, PJ: ConjugacyClasses, PI: ConjugacyClasses) -> Counts:
    """The double-coset side of Mackey's formula as (r, c, n): (sum of n f(c)) / |W_J| at class r of W_J.

    For each coset W_J x W_I, the intersection W_J n x W_I x^-1 is the parabolic
    W_K of double_cosets, with induction triples (r, c', n') up to W_J; its
    class c' is transported to the class c of W_I that holds x^-1 rep x, and n'
    is scaled by |W_J| / |W_K| so that every coset shares the denominator |W_J|.
    Cached on W per (J, I).
    """
    key = ("mackey_operator", PJ.generators, PI.generators)
    operator = W.cache.get(key)
    if operator is None:
        total: Counter[tuple[int, int]] = Counter()
        for x, K in double_cosets(W, PJ.generators, PI.generators):
            inter = parabolic(W, K)
            xi = W.inv(x)
            transport = [PI.class_of(W.conjugate(xi, rep)) for rep in inter.reps]
            scale = PJ.order // inter.order
            for r, c, n in induction_counts(PJ, inter):
                total[r, transport[c]] += n * scale
        operator = W.cache[key] = tuple((r, c, n) for (r, c), n in sorted(total.items()))
    return operator


def mackey_check(
    W: WeylGroup,
    subset_I: tuple[int, ...],
    subset_J: tuple[int, ...],
    f: ClassFunction,
    induced: ClassFunction,
) -> tuple[str, ...]:
    """res_J ind_I f against its double-coset decomposition, exactly; the violation, or ().

    induced is ind_{W_I}^W f, which the caller induces once for all J; the left
    side is its restriction to W_J.  The right-hand side runs over W_J \\ W / W_I;
    each term transports f along the coset representative x into the
    intersection W_J n x W_I x^-1 and induces up to W_J, all through
    mackey_operator.
    """
    cc = conjugacy_classes(W)
    PI = parabolic(W, subset_I)
    PJ = parabolic(W, subset_J)
    check_on(f, PI)
    left = restrict(induced, PJ, cc).values
    right = _scatter(mackey_operator(W, PJ, PI), f.values, PJ.n_classes, PJ.order)
    if left == right:
        return ()
    return (f"I={subset_I} J={subset_J}: res ind = {left} but coset sum = {right}",)
