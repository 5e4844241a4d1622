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
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .chars import CharacterTable, ClassFunction, exact_quotient, inner_product
from .errors import GroupMismatch
from .grp import ConjugacyClasses, conjugacy_classes, double_cosets, parabolic, subgroup_classes
from .rootsys import WeylGroup


def restrict(f: ClassFunction, H: ConjugacyClasses, G: ConjugacyClasses) -> ClassFunction:
    """Pull a class function on G back to its subgroup H through the fusion of H's classes.

    GroupMismatch if a member of H is not in G: induction_counts reads them all.
    """
    if f.group_id != G.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {G.group_id}")
    induction_counts(G, H)
    return ClassFunction(H.group_id, tuple(f.values[G.class_of(rep)] for rep in H.reps))


Counts = tuple[tuple[int, int, int], ...]


def induction_counts(G: ConjugacyClasses, H: ConjugacyClasses) -> Counts:
    """Nonzero (r, c, n): n = #{x in G : x w_r x^-1 lies in class c of H}, w_r the r-th rep of G.

    Each member of H is tallied under its (G class, H class) pair, and each
    tally is scaled by the centralizer order |G|/|C_r|.  A class c of H lies
    in one class r of G, so there is one triple per class of H, in the order
    of the G-classes, then the H-classes.  Cached in H.counts.
    """
    counts = H.counts.get(G.group_id)
    if counts is None:
        tally = Counter((G.class_of(h), H.class_of(h)) for h in H.members)
        counts = H.counts[G.group_id] = tuple(
            (r, c, n * (G.order // G.sizes[r])) for (r, c), n in sorted(tally.items())
        )
    return counts


def induce(f: ClassFunction, H: ConjugacyClasses, G: ConjugacyClasses) -> ClassFunction:
    """Induce a class function on H up to its supergroup G."""
    if f.group_id != H.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {H.group_id}")
    fv = f.values
    sums = [0] * G.n_classes
    for r, c, n in induction_counts(G, H):
        sums[r] += n * fv[c]
    order = H.order
    return ClassFunction(G.group_id, tuple(exact_quotient(t, order) for t in sums))


def induce_between(
    W: WeylGroup, sub: ConjugacyClasses, sup: ConjugacyClasses, f: ClassFunction
) -> ClassFunction:
    """induce(f, sub, sup) under its former name and argument order."""
    return induce(f, sub, sup)


class FrobeniusReport(NamedTuple):
    group_id: str
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def frobenius_check(table_G: CharacterTable, table_H: CharacterTable) -> FrobeniusReport:
    """<ind chi, psi> = <chi, res psi> for all irreducible pairs, exactly.

    table_H is the table of a subgroup H of the group of table_G.  Induction
    goes through the members' tally and restriction through fusion, so the
    two sides are computed independently.
    """
    G, H = table_G.classes, table_H.classes
    violations = []
    restrictions = [restrict(psi, H, G) for psi in table_G.irreducibles]
    for a, chi in enumerate(table_H.irreducibles):
        ind_chi = induce(chi, H, G)
        for b, psi in enumerate(table_G.irreducibles):
            lhs = inner_product(G, ind_chi, psi)
            rhs = inner_product(H, chi, restrictions[b])
            if lhs != rhs:
                violations.append(
                    f"{H.group_id} chi#{a} psi#{b}: <ind chi, psi>={lhs} != <chi, res psi>={rhs}"
                )
    return FrobeniusReport(H.group_id, tuple(violations))


class MackeyReport(NamedTuple):
    subset_I: tuple[int, ...]
    subset_J: tuple[int, ...]
    left: ClassFunction
    right: ClassFunction
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _mackey_terms(
    W: WeylGroup, PJ: ConjugacyClasses, PI: ConjugacyClasses
) -> tuple[tuple[ConjugacyClasses, tuple[int, ...]], ...]:
    """Each double coset's intersection and its transport into W_I, cached on W per (J, I).

    For the coset W_J x W_I: the classes of W_J n x W_I x^-1, and for each of
    them the class of W_I that holds x^-1 rep x.
    """
    key = ("mackey_terms", PJ.generators, PI.generators)
    if key not in W.cache:
        terms = []
        for x, members in double_cosets(W, PJ.generators, PI.generators):
            inter = subgroup_classes(W, members)
            xi = W.inv(x)
            terms.append((inter, tuple(PI.class_of(W.conjugate(xi, rep)) for rep in inter.reps)))
        W.cache[key] = tuple(terms)
    return W.cache[key]


def mackey_check(
    W: WeylGroup,
    subset_I: tuple[int, ...],
    subset_J: tuple[int, ...],
    f: ClassFunction,
) -> MackeyReport:
    """res_J ind_I f against its double-coset decomposition, exactly.

    The right-hand side runs over W_J \\ W / W_I; each term transports f along
    the coset representative x into the intersection W_J n x W_I x^-1 and
    induces up to W_J.
    """
    cc = conjugacy_classes(W)
    PI = parabolic(W, subset_I)
    PJ = parabolic(W, subset_J)
    left = restrict(induce(f, PI, cc), PJ, cc)

    right_vals = [0] * PJ.n_classes
    for inter, transport in _mackey_terms(W, PJ, PI):
        transported = tuple(map(f.values.__getitem__, transport))
        term = induce(ClassFunction(inter.group_id, transported), inter, PJ)
        right_vals = [a + b for a, b in zip(right_vals, term.values)]
    right = ClassFunction(PJ.group_id, tuple(right_vals))

    violations = ()
    if left.values != right.values:
        violations = (
            f"I={subset_I} J={subset_J}: res ind = {left.values} but "
            f"coset sum = {right.values}",
        )
    return MackeyReport(tuple(subset_I), tuple(subset_J), left, right, violations)
