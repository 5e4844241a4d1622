"""Arbitrary command lines end in a documented exit code, never in an uncaught exception.

Exit codes 0-4 are the program's own (see weyl_dl.cli); argparse rejects a
malformed command line with SystemExit(2).  Ranks 5-9 are left out of verify,
and ranks 6-9 out of table and dl, to keep each run short: every larger rank
is rejected by a size limit before any group is built.
"""
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from weyl_dl.cli import main

BAD_NUMBERS = st.sampled_from(["x", "1.5", "", "-", "1e3", "0x10", "three"])
LARGE = st.integers(10, 10**12)


def mostly(usual, odd):
    """usual three times in four, else odd."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 0 else usual)


TYPE_LABELS = mostly(
    st.sampled_from(["A", "B", "C", "D", "F", "G", "a", "b", "d", "g"]),
    st.sampled_from(["E", "X", "", "AA", "é", "ß"]) | st.text("ABCDEFGXabcdefgx", min_size=1, max_size=3),
)
ODD_RANKS = st.one_of(
    st.integers(-3, 0).map(str), LARGE.map(str), LARGE.map(lambda n: str(-n)), BAD_NUMBERS
)
FORMATS = mostly(st.sampled_from([None, "json", "csv", "text"]), st.sampled_from(["xml", ""]))
MAX_ORDERS = mostly(
    st.none() | st.integers(2, 100_000).map(str), st.integers(-5, 1).map(str) | BAD_NUMBERS
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["table", "dl", "verify"]))
    type_label = draw(TYPE_LABELS)
    rank = draw(mostly(st.integers(1, 4 if command == "verify" else 5).map(str), ODD_RANKS))
    targets = [type_label, rank]
    if command == "verify":
        # one or three targets are malformed too
        targets = draw(mostly(st.just(targets), st.sampled_from([[type_label], targets + [rank]])))
    args = [command] + targets
    fmt = draw(FORMATS)
    if fmt is not None:
        args += ["--format", fmt]
    max_order = draw(MAX_ORDERS)
    if max_order is not None:
        args += ["--max-order", max_order]
    return args


@pytest.fixture(scope="module")
def fuzz_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-cache")


@settings(deadline=None, max_examples=100)
@given(args=command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(fuzz_cache, args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args + ["--cache-dir", str(fuzz_cache)])
        except SystemExit as exc:
            code = ("argparse", exc.code)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4, ("argparse", 2)), (args, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue()
    elif code in (2, 3, 4):
        assert err.getvalue().startswith("error: ")
