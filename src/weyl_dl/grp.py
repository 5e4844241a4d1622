"""Conjugacy structure of a Weyl group and of its subgroups.

Subgroups are carried around as sorted tuples of element indices of the ambient
group; a ConjugacyClasses value bundles the class partition of one such member
set.  Standard parabolic subgroups additionally record how their classes fuse
into the ambient classes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidType
from .rootsys import WeylGroup


@dataclass(eq=False)
class ConjugacyClasses:
    """Partition of a member set into conjugation orbits.

    Representatives are canonical: each is the smallest element index in its
    class, and classes are listed in order of their representatives.
    class_of_arr has one entry per ambient element, -1 for non-members.
    """

    group_id: str
    members: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of_arr: np.ndarray
    inverse_class: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    @property
    def identity_class(self) -> int:
        return int(self.class_of_arr[0])

    def class_of(self, e: int) -> int:
        c = int(self.class_of_arr[e])
        if c < 0:
            raise KeyError(f"element {e} is not a member of {self.group_id}")
        return c


def _classes_of_members(W: WeylGroup, members: Sequence[int], group_id: str) -> ConjugacyClasses:
    member_arr = np.array(sorted(members), dtype=np.int64)
    class_of = np.full(W.order, -1, dtype=np.int64)
    reps: list[int] = []
    sizes: list[int] = []
    for e in member_arr:
        e = int(e)
        if class_of[e] >= 0:
            continue
        orbit = np.unique(W.conjugate_sweep(e, member_arr))
        class_of[orbit] = len(reps)
        reps.append(e)
        sizes.append(len(orbit))
    assert sum(sizes) == len(member_arr)
    inverse_class = tuple(int(class_of[W.inv(r)]) for r in reps)
    class_of.setflags(write=False)
    return ConjugacyClasses(
        group_id=group_id,
        members=tuple(int(x) for x in member_arr),
        reps=tuple(reps),
        sizes=tuple(sizes),
        class_of_arr=class_of,
        inverse_class=inverse_class,
    )


def conjugacy_classes(W: WeylGroup) -> ConjugacyClasses:
    """Classes of the full group, cached on the group."""
    key = "conjugacy_classes"
    if key not in W.cache:
        W.cache[key] = _classes_of_members(W, range(W.order), W.group_id)
    return W.cache[key]


def _closure(W: WeylGroup, generator_ids: Iterable[int]) -> tuple[int, ...]:
    gens = sorted(set(generator_ids))
    seen = {W.identity_index}
    frontier = [W.identity_index]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = W.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def subgroup_classes(W: WeylGroup, members: Sequence[int]) -> ConjugacyClasses:
    """Classes of an explicit subgroup, with a digest-based identifier."""
    members = tuple(sorted(members))
    digest = hashlib.sha1(",".join(map(str, members)).encode()).hexdigest()[:10]
    return _classes_of_members(W, members, f"{W.group_id}/sub-{digest}")


@dataclass(eq=False)
class ParabolicSubgroup:
    """The subgroup generated by the simple reflections indexed by subset_I.

    Elements are indices into the ambient group, so the embedding is the
    identity on indices.  fusion[c] is the ambient class containing class c.
    """

    ambient_group_id: str
    subset_I: tuple[int, ...]
    classes: ConjugacyClasses
    fusion: tuple[int, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return self.classes.members

    @property
    def order(self) -> int:
        return self.classes.order


def parabolic(W: WeylGroup, subset: Iterable[int]) -> ParabolicSubgroup:
    """Standard parabolic subgroup for a subset of {0..rank-1}, cached on W."""
    subset = tuple(sorted(set(subset)))
    for i in subset:
        if not 0 <= i < W.rank:
            raise InvalidType(f"simple reflection index {i} is outside 0..{W.rank - 1}")
    key = ("parabolic", subset)
    if key in W.cache:
        return W.cache[key]

    members = _closure(W, (W.generator_indices[i] for i in subset))
    tag = ",".join(str(i + 1) for i in subset)
    classes = _classes_of_members(W, members, f"{W.group_id}|I=[{tag}]")
    ambient = conjugacy_classes(W)
    assert W.order % classes.order == 0

    fusion = []
    for c, rep in enumerate(classes.reps):
        target = ambient.class_of(rep)
        # every element of the subgroup class lands in the same ambient class
        for e in members:
            if classes.class_of(e) == c:
                assert ambient.class_of(e) == target
        fusion.append(target)

    P = ParabolicSubgroup(W.group_id, subset, classes, tuple(fusion))
    W.cache[key] = P
    return P


def double_cosets(
    W: WeylGroup, left_subset: Iterable[int], right_subset: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Transversal of W_J \\ W / W_I with the intersection subgroups.

    left_subset is J, right_subset is I.  Returns (x, members of W_J n x W_I x^-1)
    per double coset; x is the smallest element index in its coset.
    """
    PJ = parabolic(W, left_subset)
    PI = parabolic(W, right_subset)
    gens_left = [W.generator_indices[i] for i in PJ.subset_I]
    gens_right = [W.generator_indices[i] for i in PI.subset_I]
    set_I = set(PI.members)

    seen = np.zeros(W.order, dtype=bool)
    out = []
    for x in range(W.order):
        if seen[x]:
            continue
        stack = [x]
        seen[x] = True
        while stack:
            y = stack.pop()
            for g in gens_left:
                z = W.mul(g, y)
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
            for g in gens_right:
                z = W.mul(y, g)
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
        xi = W.inv(x)
        inter = tuple(
            u for u in PJ.members if W.mul(W.mul(xi, u), x) in set_I
        )
        out.append((x, inter))
    return tuple(out)
