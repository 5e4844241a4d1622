"""Conjugacy structure of a Weyl group and of its subgroups.

One type, ConjugacyClasses, carries every group the engine meets: W itself
and its standard parabolic subgroups W_I, Mackey's intersections included.
Members are element indices of W, so an inclusion of subgroups is the
identity on indices, and a class of a subgroup fuses into the class of its
representative in any supergroup.  Each value is built once and cached on W.

One breadth-first walk over index maps of W, _orbit, gives every subgroup and
class: W_I closes the identity under y -> y*s_i for i in I, W and W_I conjugate
by the simple reflections that generate them, and an explicit subgroup
(subgroup_classes, kept for callers) by its own members, restricted to the
members.  Each double coset W_J x W_I has a unique shortest element
(Geck-Pfeiffer 2000, Prop. 2.1.1), the x with no right descent in I and no
left descent in J, and W_J n x W_I x^-1 is then the parabolic W_K with
K = J n x I x^-1 (Kilmoyer; Geck-Pfeiffer 2000, sec. 2.1).
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import GroupMismatch, InternalError, InvalidType
from .rootsys import WeylGroup


class ConjugacyClasses:
    """A subgroup of W, given by its members, partitioned into conjugation orbits.

    weyl_id is the group id of W.  generators lists the simple reflections that
    generate the subgroup (all of them for W), or is None for an explicit
    subgroup, which only callers of subgroup_classes build.  Representatives
    are canonical: each is the smallest element index in its class, and classes
    are listed in order of their representatives.  class_index maps each
    member, and only the members, to its class.  counts[G.group_id] keeps the
    nonzero induction counts from this subgroup up to a supergroup G, as (G
    class, class, count) triples, and fusion[G.group_id] the G-class of each
    class (indres).
    """

    def __init__(
        self,
        weyl_id: str,
        group_id: str,
        members: tuple[int, ...],
        reps: tuple[int, ...],
        sizes: tuple[int, ...],
        class_index: dict[int, int],
        inverse_class: tuple[int, ...],
        generators: tuple[int, ...] | None,
    ):
        self.weyl_id = weyl_id
        self.group_id = group_id
        self.members = members
        self.reps = reps
        self.sizes = sizes
        self.class_index = class_index
        self.inverse_class = inverse_class
        self.generators = generators
        self.counts: dict[str, tuple[tuple[int, int, int], ...]] = {}
        self.fusion: dict[str, tuple[int, ...]] = {}

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

    @property
    def identity_class(self) -> int:
        return self.class_index[0]

    def class_of(self, e: int) -> int:
        try:
            return self.class_index[e]
        except KeyError:
            raise GroupMismatch(f"element {e} is not a member of {self.group_id}") from None


def _check_weyl(classes: ConjugacyClasses, weyl_id: str) -> None:
    """GroupMismatch unless classes partition a subgroup of any build of the W with id weyl_id."""
    if classes.weyl_id != weyl_id:
        raise GroupMismatch(f"{classes.group_id} is a subgroup of {classes.weyl_id}, not of {weyl_id}")


def _check_index(i, bound: int, what: str) -> None:
    """InvalidType unless i is an int in 0..bound-1; a bool or a float is no index."""
    if type(i) is not int or not 0 <= i < bound:
        raise InvalidType(f"{what} index {i!r} is outside 0..{bound - 1}")


def _orbit(start: Sequence[int], maps: Sequence[Sequence[int] | dict[int, int]]) -> list[int]:
    """The distinct indices start, then every index the maps reach from them, breadth-first."""
    orbit = list(start)
    seen = set(orbit)
    for y in orbit:
        for m in maps:
            z = m[y]
            if z not in seen:
                seen.add(z)
                orbit.append(z)
    return orbit


def _classes_of_members(
    W: WeylGroup, members: Sequence[int], group_id: str, generators: tuple[int, ...] | None
) -> ConjugacyClasses:
    """Conjugation orbits of a subgroup given by its members.

    The generators' conjugation maps walk each orbit, or each member's for an explicit subgroup
    (generators None).  The order must divide |W|, and each element lie in its rep's W-class.
    """
    members = sorted(members)
    if W.order % len(members):
        raise InternalError(f"the order {len(members)} of {group_id} does not divide |W| = {W.order}")
    if generators is None:
        maps = [{y: W.conjugate(x, y) for y in members} for x in members]
    else:
        maps = [W.conjugation_maps[i] for i in generators]
    class_of: dict[int, int] = {}
    reps: list[int] = []
    sizes: list[int] = []
    for e in members:
        if e not in class_of:
            orbit = _orbit([e], maps)
            class_of.update(dict.fromkeys(orbit, len(reps)))
            reps.append(e)
            sizes.append(len(orbit))
    if sum(sizes) != len(members):
        raise InternalError(
            f"class sizes of {group_id} sum to {sum(sizes)}, not to its order {len(members)}"
        )
    fused = class_of if len(members) == W.order else conjugacy_classes(W).class_index
    for e in members:
        if fused[e] != fused[reps[class_of[e]]]:
            raise InternalError(f"class of element {e} in {group_id} does not fuse")
    return ConjugacyClasses(
        weyl_id=W.group_id,
        group_id=group_id,
        members=tuple(members),
        reps=tuple(reps),
        sizes=tuple(sizes),
        class_index=class_of,
        inverse_class=tuple(class_of[W.inv(r)] for r in reps),
        generators=generators,
    )


def conjugacy_classes(W: WeylGroup) -> ConjugacyClasses:
    """Classes of the full group, cached on the group."""
    key = "conjugacy_classes"
    if key not in W.cache:
        W.cache[key] = _classes_of_members(W, range(W.order), W.group_id, tuple(range(W.rank)))
    return W.cache[key]


def parabolic(W: WeylGroup, subset: Iterable[int]) -> ConjugacyClasses:
    """The standard parabolic subgroup generated by the simple reflections in subset, cached on W.

    W_S, for subset all of S, is W's own classes: the same object, so W's table
    and counts serve it too.
    """
    subset = tuple(subset)
    for i in subset:  # before sorting: a bool or a float is no index
        _check_index(i, W.rank, "simple reflection")
    subset = tuple(sorted(set(subset)))
    if len(subset) == W.rank:
        return conjugacy_classes(W)
    key = ("parabolic", subset)
    if key not in W.cache:
        members = _orbit([W.identity_index], [W.right_maps[i] for i in subset])
        tag = ",".join(str(i + 1) for i in subset)
        W.cache[key] = _classes_of_members(W, members, f"{W.group_id}|I=[{tag}]", subset)
    return W.cache[key]


def subgroup_classes(W: WeylGroup, members: Sequence[int]) -> ConjugacyClasses:
    """An explicit subgroup given by its members, or InvalidType; cached on W with a digest-based id."""
    for e in members:  # before sorting and deduplicating: True would merge into 1
        _check_index(e, W.order, "element")
    members = tuple(sorted(set(members)))
    key = ("subgroup_classes", members)
    if key not in W.cache:
        closed = set(members)
        if W.identity_index not in closed or any(W.mul(x, y) not in closed for x in closed for y in closed):
            raise InvalidType(f"the members given are no subgroup of {W.group_id}")
        import hashlib  # kept off the import path: it loads OpenSSL

        digest = hashlib.sha1(",".join(map(str, members)).encode()).hexdigest()[:10]
        W.cache[key] = _classes_of_members(W, members, f"{W.group_id}/sub-{digest}", None)
    return W.cache[key]


def _right_descents(W: WeylGroup) -> list[int]:
    """Per element x, the bitmask of its right descents: bit i set when l(x*s_i) < l(x); cached on W."""
    key = "right_descents"
    if key not in W.cache:
        lengths = W.lengths
        masks = [0] * W.order
        for i, right in enumerate(W.right_maps):
            bit = 1 << i
            for x, y in enumerate(right):
                if lengths[y] < lengths[x]:
                    masks[x] |= bit
        W.cache[key] = masks
    return W.cache[key]


def double_cosets(
    W: WeylGroup, left_subset: Iterable[int], right_subset: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Transversal of W_J \\ W / W_I with the intersection subgroups.

    left_subset is J, right_subset is I.  Returns (x, K) per double coset: x is
    its shortest element, so its smallest index, and W_J n x W_I x^-1 = W_K for
    K, the j in J with x^-1 s_j x a simple reflection of I.  The left descents
    of x are the right descents of x^-1.  Cached on W.
    """
    PJ = parabolic(W, left_subset)
    PI = parabolic(W, right_subset)
    key = ("double_cosets", PJ.generators, PI.generators)
    if key in W.cache:
        return W.cache[key]
    inv, gens, descents = W.inv, W.generator_indices, _right_descents(W)
    mask_I = sum(1 << i for i in PI.generators)
    mask_J = sum(1 << j for j in PJ.generators)
    simple_I = {gens[i] for i in PI.generators}
    out = []
    for x in range(W.order):
        if descents[x] & mask_I:
            continue
        xi = inv(x)
        if not descents[xi] & mask_J:
            out.append((x, tuple(j for j in PJ.generators if W.conjugate(xi, gens[j]) in simple_I)))
    W.cache[key] = tuple(out)
    return W.cache[key]
