"""Known-answer checks on the JSON reports of `weyl-dl table`, `dl` and `verify`.

Every expected value is computed here, from closed formulas (group orders from
the fundamental degrees, class counts from partition counts) or from
properties the method must have (orthogonality, the sign twist).  No report is
compared against a stored copy of an earlier report.  Each check returns a
list of problems; an empty list means the report passed.
"""
from __future__ import annotations

import json
from math import prod

# Degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, table 3.1); their product is |W|.
def fundamental_degrees(type_label: str, rank: int) -> tuple[int, ...]:
    if type_label == "A":
        return tuple(range(2, rank + 2))
    if type_label in "BC":
        return tuple(range(2, 2 * rank + 1, 2))
    if type_label == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return {"G": (2, 6), "F": (2, 6, 8, 12)}[type_label]


def partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def class_count(type_label: str, rank: int) -> int:
    """A_n: p(n+1); B_n and C_n: bipartitions of n; the rest from Carter (1972)."""
    if type_label == "A":
        return partition_count(rank + 1)
    if type_label in "BC":
        return sum(partition_count(a) * partition_count(rank - a) for a in range(rank + 1))
    return {("D", 4): 13, ("D", 5): 18, ("G", 2): 6, ("F", 4): 25}[(type_label, rank)]


def _word_length(word: str) -> int:
    return 0 if word == "e" else len(word.split("*"))


def check_table(report: dict, type_label: str, rank: int) -> list[str]:
    """Order, class count, degree squares and both orthogonality relations.

    Every Weyl-group element is conjugate to its inverse, so the relations
    need no complex conjugation and hold over the integers.
    """
    label = f"{type_label}{rank}"
    order = prod(fundamental_degrees(type_label, rank))
    sizes = [int(c["size"]) for c in report["classes"]]
    words = [c["word"] for c in report["classes"]]
    rows = [[int(v) for v in chi["values"]] for chi in report["irreducibles"]]
    degrees = [int(chi["degree"]) for chi in report["irreducibles"]]
    k = len(sizes)
    problems = []
    if report["label"] != label:
        problems.append(f"label {report['label']} != {label}")
    if "order" in report and int(report["order"]) != order:
        problems.append(f"{label}: order {report['order']} != {order}")
    if k != class_count(type_label, rank):
        problems.append(f"{label}: {k} classes, expected {class_count(type_label, rank)}")
    if sum(sizes) != order:
        problems.append(f"{label}: class sizes sum to {sum(sizes)}, not {order}")
    if len(rows) != k or any(len(row) != k for row in rows):
        return problems + [f"{label}: table is not {k} x {k}"]
    if sum(d * d for d in degrees) != order:
        problems.append(f"{label}: degree squares do not sum to {order}")
    if words.count("e") != 1 or degrees != [row[words.index("e")] for row in rows]:
        problems.append(f"{label}: degrees differ from the values at the identity")
    for i in range(k):
        for j in range(k):
            ip = sum(s * a * b for s, a, b in zip(sizes, rows[i], rows[j]))
            if ip != (order if i == j else 0):
                problems.append(f"{label}: rows {i}, {j} are not orthonormal")
    for c in range(k):
        for d in range(k):
            ip = sum(row[c] * row[d] for row in rows)
            if ip * sizes[c] != (order if c == d else 0):
                problems.append(f"{label}: columns {c}, {d} are not orthogonal")
    return problems


def check_dl(report: dict, type_label: str, rank: int) -> list[str]:
    """The table checks, plus: the DL image map is an involution and twists by sign."""
    problems = check_table(report, type_label, rank)
    irr = report["irreducibles"]
    k = len(irr)
    sign = [(-1) ** _word_length(c["word"]) for c in report["classes"]]
    perm = [int(chi["dl_image_index"]) for chi in irr]
    if sorted(perm) != list(range(k)) or any(perm[perm[i]] != i for i in range(k)):
        return problems + [f"{type_label}{rank}: dl_image is not an involution"]
    for i, chi in enumerate(irr):
        image = irr[perm[i]]
        if chi["dl_image"] != image["label"]:
            problems.append(f"{type_label}{rank}: dl_image of #{i} names the wrong label")
        if [int(v) for v in image["values"]] != [int(v) * s for v, s in zip(chi["values"], sign)]:
            problems.append(f"{type_label}{rank}: image of #{i} is not sign times #{i}")
    names = {c["name"]: c["passed"] for c in report["checks"]}
    if names != {"sign-twist": True, "involution": True, "dl-inverse-agreement": True}:
        problems.append(f"{type_label}{rank}: dl checks {names}")
    return problems


def check_verify(report: dict, types: tuple[tuple[str, int], ...]) -> list[str]:
    """Every check passed, and each type reports the checks its rank calls for."""
    problems = [
        f"{c.get('target', report.get('label'))}: {c['name']} failed"
        for c in report["checks"] if c["passed"] is not True
    ]
    by_target: dict[str, dict[str, dict]] = {}
    for c in report["checks"]:
        by_target.setdefault(c.get("target", report.get("label")), {})[c["name"]] = c
    labels = {f"{t}{n}" for t, n in types}
    if len(types) > 1 and set(by_target) != labels | {"ledger"}:
        problems.append(f"verify targets {sorted(by_target)}")
    for t, n in types:
        label = f"{t}{n}"
        found = by_target.get(label, {})
        required = ["sign-twist", "involution", "row-orthonormality", "column-orthogonality"]
        required += ["frobenius-reciprocity"] if n <= 4 else []
        required += ["mackey-decomposition"] if n <= 3 else []
        problems += [f"{label}: no {name} check" for name in required if name not in found]
        order = prod(fundamental_degrees(t, n))
        if found.get("group-order-degrees", {}).get("detail") != f"order={order}":
            problems.append(f"{label}: group order is not {order}")
        if found.get("class-sizes-sum", {}).get("detail") != f"classes={class_count(t, n)}":
            problems.append(f"{label}: class count is not {class_count(t, n)}")
    if len(types) == 1:
        problems += check_table(report, *types[0])
    return problems


def check_output(command: str, types: tuple[tuple[str, int], ...], stdout: bytes) -> list[str]:
    """Problems with the stdout of one `weyl-dl <command> ... --format json` run."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"{command}: output is not JSON"]
    if command == "table":
        return check_table(report, *types[0])
    if command == "dl":
        return check_dl(report, *types[0])
    return check_verify(report, types)
