"""Run the weyl-dl command line with spans around each layer's public functions.

Usage: python3 perfbench/traced_cli.py TRACE_JSON WEYL_DL_ARGS...

Each traced function is replaced at every name its callers look it up by (the
module that defines it and every module that imported it by name), so
`chars.nullspace`, `dl.induce` and `cli.character_table` all reach the
wrapper.  A span's self time is its duration minus the durations of the spans
it caused.  A function that is only counted gets no span, so its time stays in
its caller's self time.  When the command ends, the calls, self times and
counters are written to TRACE_JSON.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import weyl_dl
from weyl_dl import chars, cli, dl, grp, indres, ratlinalg, rootsys, symchars

MODULES = (weyl_dl, chars, cli, dl, grp, indres, ratlinalg, rootsys, symchars)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self._child_s: list[float] = []  # time spent in child spans, per open span

    def wrap(self, name: str, fn, timed: bool, on_result=None):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        def spanned(*args, **kwargs):
            calls[name] += 1
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - child_s.pop()
                if child_s:
                    child_s[-1] += duration
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return spanned if timed else counted


def _count_vectors(counters: Counter, vectors) -> None:
    counters["chars.split.vectors"] += len(vectors)


def _count_cache(counters: Counter, result) -> None:
    counters["cli.cache.hits" if result[1] else "cli.cache.misses"] += 1


# (span name, owner, attribute, timed, on_result)
TRACED = (
    ("rootsys.build_root_system", rootsys, "build_root_system", True, None),
    ("rootsys.enumerate_group", rootsys, "enumerate_group", True, None),
    ("rootsys.conjugate_sweep", rootsys.WeylGroup, "conjugate_sweep", True, None),
    ("rootsys.mul", rootsys.WeylGroup, "mul", False, None),
    ("grp.conjugacy_classes", grp, "conjugacy_classes", True, None),
    ("grp.parabolic", grp, "parabolic", True, None),
    ("grp.double_cosets", grp, "double_cosets", True, None),
    ("grp.subgroup_classes", grp, "subgroup_classes", True, None),
    ("chars.character_table", chars, "character_table", True, None),
    ("chars.decompose", chars, "decompose", True, None),
    ("chars.tensor", chars, "tensor", False, None),
    ("chars.inner_product", chars, "inner_product", False, None),
    ("chars.split", chars, "_split_eigenvectors", False, _count_vectors),
    ("ratlinalg.nullspace", ratlinalg, "nullspace", True, None),
    ("symchars.sn_character_table", symchars, "sn_character_table", True, None),
    ("indres.induce", indres, "induce", True, None),
    ("indres.restrict", indres, "restrict", False, None),
    ("indres.induction_counts", indres, "induction_counts", True, None),
    ("indres.induce_between", indres, "induce_between", True, None),
    ("indres.frobenius_check", indres, "frobenius_check", True, None),
    ("indres.mackey_check", indres, "mackey_check", True, None),
    ("dl.dl_matrix", dl, "dl_matrix", True, None),
    ("dl.dl_inverse_matrix", dl, "dl_inverse_matrix", True, None),
    ("dl.sign_tensor_permutation", dl, "sign_tensor_permutation", True, None),
    ("dl.verify_sign_twist", dl, "verify_sign_twist", True, None),
    ("dl.verify_involution", dl, "verify_involution", True, None),
    ("cli.load_or_compute_table", cli, "load_or_compute_table", True, _count_cache),
    ("cli.save_cache_entry", cli, "save_cache_entry", True, None),
    ("cli.load_cache_entry", cli, "load_cache_entry", True, None),
    ("cli.run_type_checks", cli, "run_type_checks", True, None),
    ("cli.render", cli, "render_table", True, None),
    ("cli.render", cli, "render_dl", True, None),
    ("cli.render", cli, "render_verify_single", True, None),
    ("cli.render", cli, "render_verify_all", True, None),
)


def install(tracer: Tracer) -> None:
    for name, owner, attr, timed, on_result in TRACED:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, timed, on_result)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"calls": tracer.calls, "self_s": tracer.self_s,
                       "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main())
