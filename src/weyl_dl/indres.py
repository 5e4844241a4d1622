"""Induction and restriction of class functions along subgroup inclusions.

Restriction is a fusion lookup.  Induction uses the conjugation-count formula
(ind f)(w) = (1/|H|) * sum over x in K of f(x w x^-1) taken over the x with
x w x^-1 in H, evaluated once per class representative.  The sum is an
integer for an integer f, and the division by |H| is exact; a value is a
Fraction only when f has Fraction values and the quotient is non-integral.
For parabolic subgroups the counts are cached, making repeated inductions a
small integer matrix product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def induction_counts(W: WeylGroup, P: ParabolicSubgroup) -> np.ndarray:
    """counts[r][c] = #{x in W : x w_r x^-1 lies in subgroup class c}, cached."""
    key = ("induction_counts", P.subset_I)
    if key in W.cache:
        return W.cache[key]
    ambient = conjugacy_classes(W)
    k_sub = P.classes.n_classes
    counts = np.zeros((ambient.n_classes, k_sub), dtype=np.int64)
    for r, rep in enumerate(ambient.reps):
        conj = W.conjugate_sweep(rep)
        cls = P.classes.class_of_arr[conj]
        counts[r] = np.bincount(cls[cls >= 0], minlength=k_sub)
    counts.setflags(write=False)
    W.cache[key] = counts
    return counts


def induce(f: ClassFunction, P: ParabolicSubgroup, W: WeylGroup) -> ClassFunction:
    """Induce a class function from a parabolic subgroup up to the full group."""
    if f.group_id != P.classes.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {P.classes.group_id}")
    fv = f.values
    vals = tuple(
        exact_quotient(sum(n * v for n, v in zip(row, fv)), P.order)
        for row in induction_counts(W, P).tolist()
    )
    return ClassFunction(W.group_id, vals)


def induce_between(
    W: WeylGroup, sub: ConjugacyClasses, sup: ConjugacyClasses, f: ClassFunction
) -> ClassFunction:
    """Induction along an inclusion of explicit subgroups of W."""
    if f.group_id != sub.group_id:
        raise GroupMismatch(f"{f.group_id} does not live on {sub.group_id}")
    xs = np.array(sup.members, dtype=np.int64)
    vals = []
    for rep in sup.reps:
        conj = W.conjugate_sweep(rep, xs)
        cls = sub.class_of_arr[conj].tolist()
        total = sum(f.values[c] for c in cls if c >= 0)
        vals.append(exact_quotient(total, sub.order))
    return ClassFunction(sup.group_id, tuple(vals))


@dataclass(frozen=True)
class FrobeniusReport:
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


@dataclass(frozen=True)
class MackeyReport:
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
            f.values[PI.classes.class_of(W.mul(W.mul(xi, rep), x))]
            for rep in inter.reps
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
