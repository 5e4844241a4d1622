"""Symmetric-group characters over partitions, via the Murnaghan-Nakayama rule.

This is a self-contained combinatorial route to the character table of S_n,
independent of the class-algebra machinery; it also supplies the partition
labels for type-A tables.  Our convention: the single-row partition (n) carries
the trivial character, the single-column partition carries the sign character.
"""
from __future__ import annotations

from functools import cache
from math import factorial

from .errors import InvalidType
from .rootsys import WeylGroup

Partition = tuple[int, ...]


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order: (n) first."""
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def dimension(lam: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    n = sum(lam)
    t = transpose(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (t[j] - i) - 1
    return factorial(n) // hooks


def centralizer_order(mu: Partition) -> int:
    """z_mu: the centralizer order of a permutation of cycle type mu."""
    z = 1
    count: dict[int, int] = {}
    for part in mu:
        count[part] = count.get(part, 0) + 1
    for part, k in count.items():
        z *= part**k * factorial(k)
    return z


def class_size(mu: Partition) -> int:
    return factorial(sum(mu)) // centralizer_order(mu)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    length = len(lam)
    return tuple(lam[i] + (length - 1 - i) for i in range(length))


def _beta_to_partition(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    length = len(beta)
    lam = [beta[i] - (length - 1 - i) for i in range(length)]
    return tuple(part for part in lam if part > 0)


@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value chi_lam on the class of cycle type mu.

    Recursion over border-strip removals, encoded on the beta-set: removing a
    strip of size t replaces a beta number b by b-t; the strip's leg length is
    the number of beta numbers strictly between b-t and b.
    """
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        raise InvalidType(f"partitions {lam} and {mu} have unequal sizes")
    t, rest = mu[0], mu[1:]
    beta = _beta_set(lam)
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b - t < 0 or (b - t) in beta_set:
            continue
        leg = sum(1 for c in beta if b - t < c < b)
        new_beta = [c for c in beta if c != b] + [b - t]
        total += (-1) ** leg * mn_character(_beta_to_partition(new_beta), rest)
    return total


def sn_character_table(n: int) -> tuple[tuple[Partition, ...], list[list[int]]]:
    """Rows indexed by shape, columns by cycle type, both in partitions(n) order."""
    parts = partitions(n)
    rows = [[mn_character(lam, mu) for mu in parts] for lam in parts]
    return parts, rows


def natural_permutation(W: WeylGroup, e: int) -> tuple[int, ...]:
    """For a type-A group of rank n, the element as a permutation of {0..n}.

    s_i swaps the points i and i+1, so sigma starts as the identity and each
    letter i of e's reduced word, first to last, swaps sigma[i] and sigma[i+1].
    """
    if W.cartan.type_label != "A":
        raise InvalidType(f"{W.cartan.label} is not of type A")
    sigma = list(range(W.rank + 1))
    for i in W.words[e]:
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    return tuple(sigma)


def cycle_type(sigma: tuple[int, ...]) -> Partition:
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = sigma[x]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles, reverse=True))
