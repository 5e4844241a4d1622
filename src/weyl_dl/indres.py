"""Induction and restriction of class functions along subgroup inclusions.

Restriction is a fusion lookup.  Induction uses the conjugation-count formula
(ind f)(w) = (1/|H|) * sum over x in K of f(x w x^-1) taken over the x with
x w x^-1 in H, evaluated once per class representative.  The counts come from
the two class partitions alone: x -> x w x^-1 hits each element of the class
C of w exactly |K|/|C| times, so #{x in K : x w x^-1 in c} = |C n c| * |K|/|C|,
tallied in one pass over the members of H (Geck-Pfeiffer 2000).  The sum is
an integer for an integer f, and the division by |H| is exact; a value is a
Fraction only when f has Fraction values and the quotient is non-integral.
For parabolic subgroups the counts are cached, making repeated inductions a
small integer matrix product.
"""
from __future__ import annotations

from typing import NamedTuple

from .chars import CharacterTable, ClassFunction, exact_quotient, inner_product
from .errors import GroupMismatch
from .grp import (
    ConjugacyClasses,
    ParabolicSubgroup,
    conjugacy_classes,
    double_cosets,
    parabolic,
    subgroup_classes,
)
from .rootsys import WeylGroup


def restrict(f: ClassFunction, P: ParabolicSubgroup) -> ClassFunction:
    """Pull a class function on the ambient group back to a parabolic subgroup."""
    if f.group_id != P.ambient_group_id:
        raise GroupMismatch(f"{f.group_id} is not on the ambient group {P.ambient_group_id}")
    vals = tuple(f.values[c] for c in P.fusion)
    return ClassFunction(P.classes.group_id, vals)


def restrict_between(
    sup: ConjugacyClasses, sub: ConjugacyClasses, f: ClassFunction
) -> ClassFunction:
    """Restriction along an inclusion of explicit subgroups."""
    if f.group_id != sup.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {sup.group_id}")
    vals = tuple(f.values[sup.class_of(rep)] for rep in sub.reps)
    return ClassFunction(sub.group_id, vals)


Counts = tuple[tuple[int, ...], ...]


def _conjugation_counts(sup: ConjugacyClasses, sub: ConjugacyClasses) -> Counts:
    """counts[r][c] = #{x in sup : x w_r x^-1 lies in class c of sub}, w_r the r-th rep of sup.

    Each member of sub is tallied under its (sup class, sub class) pair; row r
    is then scaled by the centralizer order |sup|/|C_r|.
    """
    tally = [[0] * sub.n_classes for _ in range(sup.n_classes)]
    for h in sub.members:
        tally[sup.class_of(h)][sub.class_of(h)] += 1
    return tuple(
        tuple(n * (sup.order // size) for n in row) for row, size in zip(tally, sup.sizes)
    )


def _induce_with(
    counts: Counts, sub: ConjugacyClasses, group_id: str, f: ClassFunction
) -> ClassFunction:
    fv = f.values
    vals = tuple(
        exact_quotient(sum(n * v for n, v in zip(row, fv)), sub.order) for row in counts
    )
    return ClassFunction(group_id, vals)


def induction_counts(W: WeylGroup, P: ParabolicSubgroup) -> Counts:
    """counts[r][c] = #{x in W : x w_r x^-1 lies in subgroup class c}, cached."""
    key = ("induction_counts", P.subset_I)
    if key not in W.cache:
        W.cache[key] = _conjugation_counts(conjugacy_classes(W), P.classes)
    return W.cache[key]


def induce(f: ClassFunction, P: ParabolicSubgroup, W: WeylGroup) -> ClassFunction:
    """Induce a class function from a parabolic subgroup up to the full group."""
    if f.group_id != P.classes.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {P.classes.group_id}")
    return _induce_with(induction_counts(W, P), P.classes, W.group_id, f)


def induce_between(
    W: WeylGroup, sub: ConjugacyClasses, sup: ConjugacyClasses, f: ClassFunction
) -> ClassFunction:
    """Induction along an inclusion of explicit subgroups of W."""
    if f.group_id != sub.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {sub.group_id}")
    return _induce_with(_conjugation_counts(sup, sub), sub, sup.group_id, f)


class FrobeniusReport(NamedTuple):
    subset_I: tuple[int, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def frobenius_check(
    W: WeylGroup,
    P: ParabolicSubgroup,
    table_W: CharacterTable,
    table_sub: CharacterTable,
) -> FrobeniusReport:
    """<ind chi, psi> = <chi, res psi> for all irreducible pairs, exactly."""
    violations = []
    ambient = conjugacy_classes(W)
    restrictions = [restrict(psi, P) for psi in table_W.irreducibles]
    for a, chi in enumerate(table_sub.irreducibles):
        ind_chi = induce(chi, P, W)
        for b, psi in enumerate(table_W.irreducibles):
            lhs = inner_product(ambient, ind_chi, psi)
            rhs = inner_product(P.classes, chi, restrictions[b])
            if lhs != rhs:
                violations.append(
                    f"I={P.subset_I} chi#{a} psi#{b}: <ind chi, psi>={lhs} != <chi, res psi>={rhs}"
                )
    return FrobeniusReport(P.subset_I, tuple(violations))


class MackeyReport(NamedTuple):
    subset_I: tuple[int, ...]
    subset_J: tuple[int, ...]
    left: ClassFunction
    right: ClassFunction
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _intersection_classes(W: WeylGroup, members: tuple[int, ...]) -> ConjugacyClasses:
    key = ("subgroup_classes", members)
    if key not in W.cache:
        W.cache[key] = subgroup_classes(W, members)
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
    PI = parabolic(W, subset_I)
    PJ = parabolic(W, subset_J)
    if f.group_id != PI.classes.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {PI.classes.group_id}")

    left = restrict(induce(f, PI, W), PJ)

    right_vals = [0] * PJ.classes.n_classes
    for x, inter_members in double_cosets(W, subset_J, subset_I):
        inter = _intersection_classes(W, inter_members)
        xi = W.inv(x)
        transported = tuple(
            f.values[PI.classes.class_of(W.conjugate(xi, rep))] for rep in inter.reps
        )
        g = ClassFunction(inter.group_id, transported)
        term = induce_between(W, inter, PJ.classes, g)
        right_vals = [a + b for a, b in zip(right_vals, term.values)]
    right = ClassFunction(PJ.classes.group_id, tuple(right_vals))

    violations = ()
    if left.values != right.values:
        violations = (
            f"I={subset_I} J={subset_J}: res ind = {left.values} but "
            f"coset sum = {right.values}",
        )
    return MackeyReport(tuple(subset_I), tuple(subset_J), left, right, violations)
