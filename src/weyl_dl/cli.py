"""Command-line surface: table rendering, the DL pairing, verification, caching.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 resource
limit, 4 internal error (a consistency check of the engine failed, which is a
bug; one line on stderr).  All output is deterministic for a fixed (config,
command): numbers are rendered as decimal strings and mappings are emitted
with sorted keys.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property
from math import inf, prod
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    DEFAULT_MAX_ORDER, GroupMismatch, InternalError, InvalidType, IrrationalityError, NotVirtual, SizeLimit,
)

# The engine is imported inside the functions that run it, so `--help` and a
# usage error compile no engine module (README "Start-up").
if TYPE_CHECKING:
    from .chars import CharacterTable
    from .rootsys import WeylGroup

SCHEMA_VERSION = 1

ROSTER: tuple[tuple[str, int], ...] = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4),
    ("G", 2), ("F", 4),
)

FORMATS = ("json", "csv", "text")


class _ConfigFields(NamedTuple):
    max_group_order: int
    cache_dir: Path
    output_format: str


class Config(_ConfigFields):
    """Options of one command; validated on every construction, _replace included."""

    __slots__ = ()

    def __new__(cls, max_group_order: int = DEFAULT_MAX_ORDER,
                cache_dir: Path = Path("~/.cache/weyl-dl"), output_format: str = "text") -> Config:
        if type(max_group_order) is not int:
            raise InvalidType(f"max_group_order must be an int, got {max_group_order!r}")
        if max_group_order < 2:
            raise InvalidType(f"max_group_order must be >= 2, got {max_group_order}")
        if not isinstance(cache_dir, Path):
            raise InvalidType(f"cache_dir must be a Path, got {cache_dir!r}")
        if output_format not in FORMATS:
            raise InvalidType(f"output format must be one of {FORMATS}")
        return super().__new__(cls, max_group_order, cache_dir, output_format)

    @classmethod
    def _make(cls, iterable) -> Config:
        return cls(*iterable)


# ---------------------------------------------------------------------------
# character-table cache

def cache_path(cfg: Config, type_label: str, rank: int) -> Path:
    name = f"{type_label}{rank}z0.v{SCHEMA_VERSION}.json"
    return cfg.cache_dir.expanduser() / name


def cache_payload(W: WeylGroup, table: CharacterTable) -> dict:
    """The JSON object of W's cache file: numbers as decimal strings, central_rank 0."""
    return {
        "schema_version": str(SCHEMA_VERSION),
        "type_label": W.cartan.type_label,
        "rank": str(W.cartan.rank),
        "central_rank": "0",
        "class_words": [W.word_str(r) for r in table.classes.reps],
        "class_sizes": [str(s) for s in table.classes.sizes],
        "degrees": [str(d) for d in table.degrees],
        "labels": None if table.labels is None else [[str(p) for p in lam] for lam in table.labels],
        "values": [[str(v) for v in chi.values] for chi in table.irreducibles],
    }


def save_cache_entry(path: Path, payload: dict) -> None:
    """Atomic write: a new mode-0600 temp file in the target directory, then rename.

    The temp name holds the pid and random bytes; O_EXCL makes a clash an OSError.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cache_entry(path: Path, type_label: str, rank: int) -> tuple[dict, list[list[int]]] | None:
    """A cache file's JSON object and its values rows as ints, or None on a miss.

    A missing file, or one of another schema, type, rank or central rank, is a
    silent miss; a file that does not parse is a miss with a warning on stderr.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        header = (int(payload["schema_version"]), payload["type_label"],
                  int(payload["rank"]), int(payload["central_rank"]))
        rows = [[int(v) for v in row] for row in payload["values"]]
    except (FileNotFoundError, NotADirectoryError):
        return None
    # RecursionError: nesting too deep for the parser; OverflowError: int(Infinity)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, OSError):
        print(f"warning: ignoring corrupted or unreadable cache file {path}", file=sys.stderr)
        return None
    if header != (SCHEMA_VERSION, type_label, rank, 0):
        return None
    return payload, rows


def load_or_compute_table(cfg: Config, W: WeylGroup) -> tuple[CharacterTable, bool]:
    """Cached table if the file is exactly the one this table writes, else a fresh computation.

    A hit needs rows that table_from_rows certifies, in canonical order, and a
    file equal to cache_payload of the table they make.  Any other file is
    recomputed and rewritten; rows that certified are reused by character_table.
    A cache file that cannot be written costs only the saving: the fresh table
    is still returned, with a warning on stderr.
    """
    from .chars import character_table, table_from_rows
    from .grp import conjugacy_classes

    cartan = W.cartan
    path = cache_path(cfg, cartan.type_label, cartan.rank)
    cached = load_cache_entry(path, cartan.type_label, cartan.rank)
    if cached is not None:
        payload, rows = cached
        try:
            table = table_from_rows(W, conjugacy_classes(W), rows)
            if cache_payload(W, table) == payload:
                return table, True
        except IrrationalityError:
            pass
        print(f"warning: cache file {path} is inconsistent; recomputing", file=sys.stderr)
    table = character_table(W)
    try:
        save_cache_entry(path, cache_payload(W, table))
    except OSError as exc:
        print(f"warning: cannot write cache file {path}: {exc}", file=sys.stderr)
    return table, False


# ---------------------------------------------------------------------------
# verification suite

class CheckItem(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _row(violations: Sequence[str], detail: str = "") -> tuple[bool, str]:
    """Passes when there are no violations; a failing row shows the first one."""
    return not violations, violations[0] if violations else detail


class _Context:
    """One type's W and table, the engine modules its rows call, and the work rows share.

    Each shared value is computed when a row first reads it.
    """

    def __init__(self, W: WeylGroup, table: CharacterTable) -> None:
        from . import chars, dl, grp, indres, rootsys, symchars

        self.W, self.table = W, table
        self.chars, self.dl, self.grp, self.indres, self.rootsys, self.symchars = (
            chars, dl, grp, indres, rootsys, symchars)

    @cached_property
    def sub_tables(self) -> dict:
        """The table of W_I, for each of the 2^r subsets I of the simple reflections."""
        W, character_table = self.W, self.chars.character_table
        return {I: character_table(W, self.grp.parabolic(W, I)) for I in self.dl.subsets(W.rank)}

    @cached_property
    def induced(self) -> dict:
        """ind_{W_I}^W chi, once per (I, chi), for Mackey's left side and transitivity's direct side."""
        return {I: [self.indres.induce(chi, t.classes, self.table.classes) for chi in t.irreducibles]
                for I, t in self.sub_tables.items()}


def _transitivity(c: _Context) -> tuple[bool, str]:
    sub, induce = c.sub_tables, c.indres.induce
    # a list, not a generator: every pair is induced even after a failure
    return all([
        induce(induce(chi, sub[J].classes, sub[I].classes), sub[I].classes, c.table.classes) == direct
        for J in sub for I in sub if set(J) <= set(I)
        for chi, direct in zip(sub[J].irreducibles, c.induced[J])
    ]), ""


def _springer(c: _Context) -> tuple[bool, str]:
    labels, perm = c.table.labels, c.dl.sign_permutation(c.W, c.table)
    transposed = labels is not None and all(
        labels[p] == c.symchars.transpose(lam) for lam, p in zip(labels, perm))
    return transposed, "; ".join(f"{a}->{b}" for a, b in c.dl.springer_table(c.W, c.table)[:3])


# The report rows in order: (name, largest rank it runs at, the one type it runs on or None,
# check).  A check takes a _Context and returns (passed, detail).
ROWS = (
    ("group-order-degrees", inf, None, lambda c: (
        c.W.order == prod(c.rootsys.fundamental_degrees(c.W.cartan.type_label, c.W.rank)),
        f"order={c.W.order}")),
    ("length-inversions", inf, None, lambda c: (
        c.W.lengths == tuple(map(c.W.inversions, range(c.W.order))), "")),
    ("longest-element", inf, None, lambda c: (c.W.lengths[c.W.longest_element] == c.W.rootsystem.n_positive
                                              and c.W.mul(c.W.longest_element, c.W.longest_element) == 0, "")),
    ("faithful-action", inf, None, lambda c: (len(set(c.W.root_actions)) == c.W.order, "")),
    # the conjugates of the simple reflections: their orbit under conjugation by each s_i
    ("reflection-count", inf, None, lambda c: (
        (n := len(c.grp._orbit(c.W.generator_indices, c.W.conjugation_maps))) == c.W.rootsystem.n_positive,
        f"count={n}")),
    ("class-sizes-sum", inf, None, lambda c: (
        sum(c.table.classes.sizes) == c.W.order, f"classes={c.table.classes.n_classes}")),
    ("table-integer-values", inf, None, lambda c: (
        all(isinstance(v, int) for chi in c.table.irreducibles for v in chi.values), "")),
    # table_from_rows built the table only after certify_characters proved both relations
    ("row-orthonormality", inf, None, lambda c: (True, "")),
    ("column-orthogonality", inf, None, lambda c: (True, "")),
    ("degree-squares", inf, None, lambda c: (sum(d * d for d in c.table.degrees) == c.W.order, "")),
    ("degree-divides-order", inf, None, lambda c: (all(c.W.order % d == 0 for d in c.table.degrees), "")),
    ("type-a-partition-labels", inf, "A", lambda c: (
        c.table.labels is not None and len(set(c.table.labels)) == c.table.classes.n_classes, "")),
    ("frobenius-reciprocity", 4, None, lambda c: _row(
        [v for t in c.sub_tables.values() for v in c.indres.frobenius_check(c.table, t)],
        f"subsets={2 ** c.W.rank}")),
    ("mackey-decomposition", 3, None, lambda c: _row([
        v for I in c.sub_tables for J in c.sub_tables
        for chi, ind_chi in zip(c.sub_tables[I].irreducibles, c.induced[I])
        for v in c.indres.mackey_check(c.W, I, J, chi, ind_chi)])),
    ("induction-transitivity", 3, None, _transitivity),
    ("sign-twist", inf, None, lambda c: _row(c.dl.verify_sign_twist(c.W, c.table))),
    ("involution", inf, None, lambda c: _row(c.dl.verify_involution(c.W, c.table))),
    ("dl-unit-images", inf, None, lambda c: (all(sorted(col) == [0] * (c.table.classes.n_classes - 1) + [1]
                                                 for col in c.dl.dl_matrix(c.W, c.table)), "")),
    ("dl-inverse-agreement", inf, None, lambda c: (
        c.dl.dl_matrix(c.W, c.table) == c.dl.dl_inverse_matrix(c.W, c.table), "")),
    ("springer-transpose", inf, "A", _springer),
    ("shift-parity-ledger", inf, None, lambda c: (_parity_ledger_holds([c.W.rank]), "")),
)

DL_ROWS = ("sign-twist", "involution", "dl-inverse-agreement")


def _checks(W: WeylGroup, table: CharacterTable, names: Sequence[str] | None = None) -> list[CheckItem]:
    """The rows of ROWS whose gate admits W, in report order; only those named, if names is given."""
    c = _Context(W, table)
    return [CheckItem(name, *check(c)) for name, max_rank, only_type, check in ROWS
            if W.rank <= max_rank and only_type in (None, W.cartan.type_label)
            and (names is None or name in names)]


def run_type_checks(W: WeylGroup, table: CharacterTable) -> list[CheckItem]:
    """The full invariant suite for W and its table from load_or_compute_table, which certified it."""
    return _checks(W, table)


def _parity_ledger_holds(sigmas: Iterable[int]) -> bool:
    """The ledger's parity identity for central rank 0..3, each sigma, and every layer 0..sigma."""
    from .dl import ShiftLedger

    return all(
        ShiftLedger(central, sigma).parity_identity_holds(size)
        for central in range(4)
        for sigma in sigmas
        for size in range(sigma + 1)
    )


def global_parity_checks() -> list[CheckItem]:
    return [CheckItem("shift-parity-ledger-sweep", _parity_ledger_holds(range(7)),
                      "central<=3, sigma<=6")]


# ---------------------------------------------------------------------------
# rendering

def _ds(x) -> str:
    return str(int(x))


def _rows(table: CharacterTable) -> list[list[str]]:
    """One row per irreducible: its label, its degree, then its values."""
    from .chars import irreducible_labels

    return [[label, _ds(table.degrees[i])] + [_ds(v) for v in table.irreducibles[i].values]
            for i, label in enumerate(irreducible_labels(table))]


def _type_payload(W: WeylGroup, table: CharacterTable, extra: list[dict] | None = None) -> dict:
    """The per-type JSON object that every report extends; extra adds keys per irreducible."""
    irreducibles = [{"label": label, "degree": degree, "values": values}
                    for label, degree, *values in _rows(table)]
    for item, more in zip(irreducibles, extra or ()):
        item.update(more)
    return {
        "label": W.cartan.label,
        "cartan": [[_ds(v) for v in row] for row in W.cartan.cartan_matrix],
        "classes": [{"word": W.word_str(rep), "size": _ds(size)}
                    for rep, size in zip(table.classes.reps, table.classes.sizes)],
        "irreducibles": irreducibles,
    }


def _checks_payload(checks: list[CheckItem], target: str | None = None) -> list[dict]:
    out = []
    for c in checks:
        item = {"name": c.name, "passed": c.passed}
        if c.detail:
            item["detail"] = c.detail
        if target is not None:
            item["target"] = target
        out.append(item)
    return out


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _csv_row(fields: list[str]) -> str:
    quoted = []
    for f in fields:
        if any(ch in f for ch in ",\"\n"):
            f = '"' + f.replace('"', '""') + '"'
        quoted.append(f)
    return ",".join(quoted)


def render_table(cfg: Config, W: WeylGroup, table: CharacterTable) -> str:
    if cfg.output_format == "json":
        return _emit_json({**_type_payload(W, table), "order": _ds(W.order), "checks": []})
    classes = table.classes
    words = [W.word_str(r) for r in classes.reps]
    cols = ["label", "degree"] + words
    rows = _rows(table)
    if cfg.output_format == "csv":
        return "\n".join(map(_csv_row, [cols, *rows]))
    widths = [max(len(col), *(len(r[j]) for r in rows)) for j, col in enumerate(cols)]
    lines = [f"# {W.cartan.label}: |W| = {W.order}, {classes.n_classes} classes",
             "# classes: " + ", ".join(f"{w} (size {s})" for w, s in zip(words, classes.sizes)),
             "  ".join(col.ljust(widths[j]) for j, col in enumerate(cols)).rstrip()]
    for r in rows:
        lines.append("  ".join(r[j].rjust(widths[j]) if j else r[j].ljust(widths[j])
                               for j in range(len(cols))).rstrip())
    return "\n".join(lines)


SPRINGER_CONVENTION = "trivial character <-> single-row partition in type A"


def render_dl(cfg: Config, W: WeylGroup, table: CharacterTable, checks: list[CheckItem]) -> str:
    from .chars import irreducible_labels
    from .dl import sign_permutation

    perm = sign_permutation(W, table)
    names = irreducible_labels(table)
    if cfg.output_format == "json":
        extra = [
            {"dl_image": names[perm[i]], "dl_image_index": _ds(perm[i])}
            for i in range(table.n_irreducibles)
        ]
        return _emit_json({**_type_payload(W, table, extra),
                           "springer_convention": SPRINGER_CONVENTION,
                           "checks": _checks_payload(checks)})
    pair_lines = []
    for i in range(table.n_irreducibles):
        if perm[i] == i:
            pair_lines.append((names[i], "fixed", ""))
        elif perm[i] > i:
            pair_lines.append((names[i], "<->", names[perm[i]]))
    if cfg.output_format == "csv":
        lines = [f"# springer convention: {SPRINGER_CONVENTION}",
                 _csv_row(["source", "relation", "image"])]
        lines += [_csv_row(list(p)) for p in pair_lines]
        lines += [_csv_row([c.name, "passed" if c.passed else "FAILED", c.detail])
                  for c in checks]
        return "\n".join(lines)
    lines = [f"# {W.cartan.label}: DL pairing on {table.n_irreducibles} irreducibles",
             f"# springer convention: {SPRINGER_CONVENTION}"]
    for a, rel, b in pair_lines:
        lines.append(f"{a} {rel} {b}".rstrip())
    for c in checks:
        lines.append(f"{'ok' if c.passed else 'FAIL'} {c.name}")
    return "\n".join(lines)


def render_verify_single(cfg: Config, W: WeylGroup, table: CharacterTable, checks: list[CheckItem]) -> str:
    if cfg.output_format == "json":
        return _emit_json({**_type_payload(W, table), "checks": _checks_payload(checks)})
    if cfg.output_format == "csv":
        lines = [_csv_row(["name", "passed", "detail"])]
        lines += [_csv_row([c.name, "true" if c.passed else "false", c.detail]) for c in checks]
        return "\n".join(lines)
    return _verify_text([(W.cartan.label, checks)])


def render_verify_all(cfg: Config, results: list[tuple[str, list[CheckItem]]]) -> str:
    if cfg.output_format == "json":
        all_checks = []
        for label, checks in results:
            all_checks += _checks_payload(checks, target=label)
        return _emit_json({
            "cartan": [],
            "classes": [],
            "irreducibles": [],
            "checks": all_checks,
        })
    if cfg.output_format == "csv":
        lines = [_csv_row(["target", "name", "passed", "detail"])]
        for label, checks in results:
            lines += [_csv_row([label, c.name, "true" if c.passed else "false", c.detail])
                      for c in checks]
        return "\n".join(lines)
    return _verify_text(results)


def _verify_text(results: list[tuple[str, list[CheckItem]]]) -> str:
    """The text report of verify: each target's rows under its header, then the tally."""
    lines = []
    total = passed = 0
    for label, checks in results:
        lines.append(f"# verify {label}")
        for c in checks:
            suffix = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{'ok' if c.passed else 'FAIL'} {c.name}{suffix}")
            total += 1
            passed += c.passed
    lines.append(f"# {passed}/{total} checks passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands

# Each command returns its output and its exit code; main prints the output.
# Each imports the engine modules it runs before it builds its group: a module
# compiled after a large group is enumerated raises the peak RSS (README "Start-up").

def _load_type(cfg: Config, type_label: str, rank: int) -> tuple[WeylGroup, CharacterTable]:
    from .rootsys import build_weyl_group

    W = build_weyl_group(type_label, rank, max_order=cfg.max_group_order)
    table, _ = load_or_compute_table(cfg, W)
    return W, table


def _exit_code(checks: Iterable[CheckItem]) -> int:
    return 0 if all(c.passed for c in checks) else 1


def cmd_table(cfg: Config, type_label: str, rank: int) -> tuple[str, int]:
    from . import chars  # noqa: F401  (with grp, rootsys, ratlinalg and symchars)

    return render_table(cfg, *_load_type(cfg, type_label, rank)), 0


def cmd_dl(cfg: Config, type_label: str, rank: int) -> tuple[str, int]:
    from . import dl  # noqa: F401  (with chars, indres and everything chars imports)

    W, table = _load_type(cfg, type_label, rank)
    checks = _checks(W, table, DL_ROWS)
    return render_dl(cfg, W, table, checks), _exit_code(checks)


def cmd_verify(cfg: Config, targets: list[str]) -> tuple[str, int]:
    """verify T n or verify all: one loop that keeps only (label, checks) per type."""
    if targets[:1] == ["all"]:
        if len(targets) > 1:
            raise InvalidType("verify all takes no further arguments")
        types = ROSTER
    elif len(targets) == 2:
        try:
            types = ((targets[0].upper(), int(targets[1])),)
        except ValueError:
            raise InvalidType(f"rank must be an integer, got {targets[1]!r}")
    else:
        raise InvalidType("verify expects 'TYPE RANK' or 'all'")
    from . import dl  # noqa: F401  (and so every engine module)

    results = []
    for type_label, rank in types:
        W, table = _load_type(cfg, type_label, rank)
        results.append((W.cartan.label, run_type_checks(W, table)))
    if types is ROSTER:
        results.append(("ledger", global_parity_checks()))
        text = render_verify_all(cfg, results)
    else:
        text = render_verify_single(cfg, W, table, results[0][1])
    return text, _exit_code(c for _, checks in results for c in checks)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text")
    common.add_argument("--cache-dir", type=Path, default=Path("~/.cache/weyl-dl"))
    common.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    common.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)

    parser = argparse.ArgumentParser(
        prog="weyl-dl",
        description="Exact Weyl-group character tables and the Deligne-Lusztig involution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("table", "print a character table"),
                            ("dl", "print the DL pairing of irreducibles")):
        p_cmd = sub.add_parser(name, parents=[common], help=help_text)
        p_cmd.add_argument("type_label", metavar="TYPE")
        p_cmd.add_argument("rank", metavar="RANK", type=int)

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p_verify.add_argument("targets", metavar="TYPE RANK | all", nargs="+")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(
            max_group_order=args.max_order,
            cache_dir=args.cache_dir,
            output_format=args.format,
        )
        if args.command == "table":
            text, code = cmd_table(cfg, args.type_label.upper(), args.rank)
        elif args.command == "dl":
            text, code = cmd_dl(cfg, args.type_label.upper(), args.rank)
        else:
            text, code = cmd_verify(cfg, args.targets)
    except (InvalidType, GroupMismatch, NotVirtual) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`): point stdout at devnull
        # so the interpreter's final flush cannot fail, and keep the command's code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
