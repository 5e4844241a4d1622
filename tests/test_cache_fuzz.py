"""A cache file that cannot be read leads to recomputation, never a traceback."""
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyl_dl.cli import Config, cache_path, main

ARGS = ["table", "G", "2", "--format", "json"]

KEYS = ("schema_version", "type_label", "rank", "central_rank", "class_words",
        "class_sizes", "degrees", "labels", "values")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

corruptions = st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=300)),
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    # None stands for the whole payload
    st.tuples(st.just("replace"), st.sampled_from((None,) + KEYS), json_values),
    st.tuples(st.just("nest"), st.sampled_from(["[", '{"a": ']), st.integers(1, 200_000)),
)


def corrupt(valid: bytes, how: tuple) -> bytes:
    kind, *args = how
    if kind == "bytes":
        return args[0]
    if kind == "truncate":
        return valid[: args[0] % len(valid)]
    if kind == "replace":
        key, value = args
        payload = json.loads(valid)
        if key is None:
            payload = value
        else:
            payload[key] = value
        return json.dumps(payload).encode()
    opener, depth = args
    return (opener * depth).encode()


def run(cache_dir: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(ARGS + ["--cache-dir", str(cache_dir)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The output on an empty cache, and the cache file it writes."""
    cache_dir = tmp_path_factory.mktemp("fresh")
    code, out, _ = run(cache_dir)
    assert code == 0
    return out, cache_path(Config(cache_dir=cache_dir), "G", 2).read_bytes()


@settings(max_examples=100, deadline=None)
@given(how=corruptions)
@example(how=("nest", "[", 200_000))
@example(how=("replace", "rank", float("inf")))
@example(how=("replace", None, []))
@example(how=("replace", "rank", 2))  # the right rank, but not as the engine writes it
def test_corrupted_cache_file_is_recomputed(fresh, how):
    fresh_out, valid = fresh
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        path = cache_path(Config(cache_dir=cache_dir), "G", 2)
        path.write_bytes(corrupt(valid, how))
        # an exception escaping main fails the test with its traceback
        code, out, err = run(cache_dir)
        left = path.read_bytes()
    assert code in range(5)
    assert "Traceback" not in err
    if code == 0:
        assert out == fresh_out
        # a file is reused only if it is the one a fresh run writes; any other is rewritten
        assert json.loads(left) == json.loads(valid)
