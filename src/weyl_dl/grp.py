"""Conjugacy structure of a Weyl group and of its subgroups.

Subgroups are carried around as sorted tuples of element indices of the ambient
group; a ConjugacyClasses value bundles the class partition of one such member
set.  Standard parabolic subgroups additionally record how their classes fuse
into the ambient classes.

Orbits come from the index maps of the group: W and its parabolic subgroups
conjugate by the simple reflections that generate them, an explicit subgroup
by its own members, each a product of simple-reflection conjugations along
its reduced word.  Closures and double cosets walk y -> y*s_i, and
s_j*y = (y^-1*s_j)^-1.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InternalError, InvalidType
from .rootsys import WeylGroup


class ConjugacyClasses:
    """Partition of a member set into conjugation orbits.

    Representatives are canonical: each is the smallest element index in its
    class, and classes are listed in order of their representatives.
    class_of_arr has one entry per ambient element, -1 for non-members.
    """

    def __init__(
        self,
        group_id: str,
        members: tuple[int, ...],
        reps: tuple[int, ...],
        sizes: tuple[int, ...],
        class_of_arr: tuple[int, ...],
        inverse_class: tuple[int, ...],
    ):
        self.group_id = group_id
        self.members = members
        self.reps = reps
        self.sizes = sizes
        self.class_of_arr = class_of_arr
        self.inverse_class = inverse_class

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    @property
    def identity_class(self) -> int:
        return self.class_of_arr[0]

    def class_of(self, e: int) -> int:
        c = self.class_of_arr[e]
        if c < 0:
            raise KeyError(f"element {e} is not a member of {self.group_id}")
        return c


def _classes_of_members(
    W: WeylGroup, members: Sequence[int], group_id: str, simple: Sequence[int] | None
) -> ConjugacyClasses:
    """Conjugation orbits of a subgroup given by its members.

    simple lists the simple reflections that generate the subgroup, whose
    conjugation maps then span each orbit breadth-first; None means an explicit
    subgroup, whose orbits are swept by conjugating with every member.
    """
    members = sorted(members)
    maps = W.conjugation_maps
    class_of = [-1] * W.order
    reps: list[int] = []
    sizes: list[int] = []
    for e in members:
        if class_of[e] >= 0:
            continue
        c = len(reps)
        class_of[e] = c
        orbit = [e]
        if simple is not None:
            for y in orbit:
                for i in simple:
                    z = maps[i][y]
                    if class_of[z] < 0:
                        class_of[z] = c
                        orbit.append(z)
        else:
            for x in members:
                z = W.conjugate(x, e)
                if class_of[z] < 0:
                    class_of[z] = c
                    orbit.append(z)
        reps.append(e)
        sizes.append(len(orbit))
    if sum(sizes) != len(members):
        raise InternalError(
            f"class sizes of {group_id} sum to {sum(sizes)}, not to its order {len(members)}"
        )
    return ConjugacyClasses(
        group_id=group_id,
        members=tuple(members),
        reps=tuple(reps),
        sizes=tuple(sizes),
        class_of_arr=tuple(class_of),
        inverse_class=tuple(class_of[W.inv(r)] for r in reps),
    )


def conjugacy_classes(W: WeylGroup) -> ConjugacyClasses:
    """Classes of the full group, cached on the group."""
    key = "conjugacy_classes"
    if key not in W.cache:
        W.cache[key] = _classes_of_members(W, range(W.order), W.group_id, range(W.rank))
    return W.cache[key]


def _closure(W: WeylGroup, simple: Sequence[int]) -> tuple[int, ...]:
    """Members of the subgroup generated by the simple reflections listed in simple."""
    seen = [False] * W.order
    seen[W.identity_index] = True
    found = [W.identity_index]
    for x in found:
        for i in simple:
            y = W.right_maps[i][x]
            if not seen[y]:
                seen[y] = True
                found.append(y)
    return tuple(sorted(found))


def subgroup_classes(W: WeylGroup, members: Sequence[int]) -> ConjugacyClasses:
    """Classes of an explicit subgroup, with a digest-based identifier."""
    import hashlib  # kept off the import path: it loads OpenSSL

    members = tuple(sorted(members))
    digest = hashlib.sha1(",".join(map(str, members)).encode()).hexdigest()[:10]
    return _classes_of_members(W, members, f"{W.group_id}/sub-{digest}", None)


class ParabolicSubgroup:
    """The subgroup generated by the simple reflections indexed by subset_I.

    Elements are indices into the ambient group, so the embedding is the
    identity on indices.  fusion[c] is the ambient class containing class c.
    """

    def __init__(
        self,
        ambient_group_id: str,
        subset_I: tuple[int, ...],
        classes: ConjugacyClasses,
        fusion: tuple[int, ...],
    ):
        self.ambient_group_id = ambient_group_id
        self.subset_I = subset_I
        self.classes = classes
        self.fusion = fusion

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

    members = _closure(W, subset)
    tag = ",".join(str(i + 1) for i in subset)
    classes = _classes_of_members(W, members, f"{W.group_id}|I=[{tag}]", subset)
    ambient = conjugacy_classes(W)
    if W.order % classes.order:
        raise InternalError(f"|W_I| = {classes.order} does not divide |W| = {W.order}")

    fusion = tuple(ambient.class_of(rep) for rep in classes.reps)
    # every element of a subgroup class lands in the ambient class of its representative
    for e in members:
        if ambient.class_of(e) != fusion[classes.class_of(e)]:
            raise InternalError(f"class of element {e} in {classes.group_id} does not fuse")

    P = ParabolicSubgroup(W.group_id, subset, classes, fusion)
    W.cache[key] = P
    return P


def double_cosets(
    W: WeylGroup, left_subset: Iterable[int], right_subset: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Transversal of W_J \\ W / W_I with the intersection subgroups.

    left_subset is J, right_subset is I.  Returns (x, members of W_J n x W_I x^-1)
    per double coset; x is the smallest element index in its coset.  Cached on W.
    """
    PJ = parabolic(W, left_subset)
    PI = parabolic(W, right_subset)
    key = ("double_cosets", PJ.subset_I, PI.subset_I)
    if key in W.cache:
        return W.cache[key]
    right, inv = W.right_maps, W.inv
    in_I = [False] * W.order
    for u in PI.members:
        in_I[u] = True

    seen = [False] * W.order
    out = []
    for x in range(W.order):
        if seen[x]:
            continue
        stack = [x]
        seen[x] = True
        while stack:
            y = stack.pop()
            yi = inv(y)
            neighbours = [inv(right[j][yi]) for j in PJ.subset_I]
            neighbours += [right[i][y] for i in PI.subset_I]
            for z in neighbours:
                if not seen[z]:
                    seen[z] = True
                    stack.append(z)
        xi = inv(x)
        inter = tuple(u for u in PJ.members if in_I[W.conjugate(xi, u)])
        out.append((x, inter))
    W.cache[key] = tuple(out)
    return W.cache[key]
