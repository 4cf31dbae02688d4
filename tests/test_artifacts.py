import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    reference_write_grid,
    scalar_write_policy_csv,
    scalar_write_q_csv,
    scalar_write_value_csv,
)
from wearsched import ArtifactParseError, MissingArtifactError, Policy, artifacts
from wearsched.artifacts import (
    POLICY_HEADER,
    Q_HEADER,
    VALUE_HEADER,
    _diagnose_rows,
    _stream_rows,
    _text_lines,
    read_policy_csv,
    read_q_csv,
    read_value_csv,
    write_policy_csv,
    write_q_csv,
    write_value_csv,
)


def test_policy_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pol = Policy(actions=rng.integers(0, 3, size=(13, 9)).astype(np.int8))
    path = tmp_path / "policy.csv"
    write_policy_csv(path, pol)
    assert read_policy_csv(path) == pol


def test_value_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    v = rng.normal(scale=1e7, size=(6, 11)) * 10.0 ** rng.integers(-12, 12, size=(6, 11))
    path = tmp_path / "value.csv"
    write_value_csv(path, v)
    np.testing.assert_array_equal(read_value_csv(path), v)


def test_q_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    q = rng.normal(size=(5, 4, 3))
    path = tmp_path / "q.csv"
    write_q_csv(path, q)
    np.testing.assert_array_equal(read_q_csv(path), q)


def test_write_is_deterministic(tmp_path):
    pol = Policy(actions=np.ones((4, 4), dtype=np.int8))
    write_policy_csv(tmp_path / "a.csv", pol)
    write_policy_csv(tmp_path / "b.csv", pol)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_missing_file_raises(tmp_path):
    with pytest.raises(MissingArtifactError):
        read_policy_csv(tmp_path / "nope.csv")


def test_bad_header_raises(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("foo,bar\n1,1,0\n")
    with pytest.raises(ArtifactParseError, match="header"):
        read_policy_csv(p)


def test_missing_state_raises(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1,1,0\n1,2,1\n2,1,2\n")  # 2x2 grid minus (2,2)
    with pytest.raises(ArtifactParseError, match="expected 4 rows|missing state"):
        read_policy_csv(p)


def test_bad_action_raises(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1,1,7\n")
    with pytest.raises(ArtifactParseError, match="actions must be"):
        read_policy_csv(p)


def test_unparseable_value_raises(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("tau,delta,value\n1,1,abc\n")
    with pytest.raises(ArtifactParseError):
        read_value_csv(p)


def test_wrong_field_count_names_the_line(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1,1,0\n1,2,1,5\n")
    with pytest.raises(ArtifactParseError, match=r"p\.csv:3: expected 3 fields, got 4"):
        read_policy_csv(p)


def test_form_feed_breaks_the_line(tmp_path):
    # Lines are what str.splitlines makes of the text, so "1\f,1,0" is the
    # lines "1" and ",1,0", though a number may carry a trailing form feed.
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1\f,1,0\n")
    with pytest.raises(ArtifactParseError, match=r"p\.csv:2: expected 3 fields, got 1"):
        read_policy_csv(p)


def test_non_integer_coordinate_rejected(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("tau,delta,value\n1,1.5,0.25\n")
    with pytest.raises(ArtifactParseError, match="v.csv"):
        read_value_csv(p)


def test_whitespace_only_lines_skipped(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1,1,0\n\n   \n1,2,1\n\t\n2,1,2\n2,2,1\n\n")
    np.testing.assert_array_equal(read_policy_csv(p).actions, [[0, 1], [2, 1]])


def test_shuffled_rows_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    q = rng.normal(size=(7, 5, 3))
    path = tmp_path / "q.csv"
    write_q_csv(path, q)
    header, *rows = path.read_text().splitlines()
    rng.shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    np.testing.assert_array_equal(read_q_csv(path), q)


def test_duplicated_state_rejected(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("tau,delta,value\n1,1,0.5\n1,2,1.5\n2,1,2.5\n1,2,3.5\n")
    with pytest.raises(ArtifactParseError, match="v.csv"):
        read_value_csv(p)


def test_trailing_comment_is_an_error(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("tau,delta,action\n1,1,0 # x\n")
    with pytest.raises(ArtifactParseError, match="p.csv"):
        read_policy_csv(p)


def test_header_only_file_has_no_data_rows(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("tau,delta,q_idle,q_transmit,q_renew\n")
    with pytest.raises(ArtifactParseError, match="no data rows"):
        read_q_csv(p)


# Doubles that stress the .17g formatting: signed zero, infinities, NaN,
# subnormals, extreme exponents and integers.
SPECIAL_DOUBLES = [
    -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
]
doubles = st.one_of(
    st.sampled_from(SPECIAL_DOUBLES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**12), 10**12).map(float),
)
grid_shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


def assert_writers_match_references(tmp, acts, v, q):
    for write, ref, grid in (
        (write_policy_csv, scalar_write_policy_csv, Policy(actions=acts)),
        (write_value_csv, scalar_write_value_csv, v),
        (write_q_csv, scalar_write_q_csv, q),
    ):
        write(tmp / "new.csv", grid)
        ref(tmp / "ref.csv", grid)
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


@given(data=st.data(), shape=grid_shapes)
def test_writers_match_scalar_references(tmp_path_factory, data, shape):
    assert_writers_match_references(
        tmp_path_factory.mktemp("codec"),
        data.draw(arrays(np.int8, shape, elements=st.integers(0, 2))),
        data.draw(arrays(np.float64, shape, elements=doubles)),
        data.draw(arrays(np.float64, (*shape, 3), elements=doubles)),
    )


def test_writers_match_scalar_references_320_by_3(tmp_path):
    rng = np.random.default_rng(4)
    assert_writers_match_references(
        tmp_path,
        rng.integers(0, 3, size=(320, 3)).astype(np.int8),
        rng.normal(scale=1e6, size=(320, 3)) * 10.0 ** rng.integers(-200, 200, size=(320, 3)),
        rng.normal(size=(320, 3, 3)) * 10.0 ** rng.integers(-20, 20, size=(320, 3, 3)),
    )


def assert_writers_match_reference_writer(tmp, acts, v, q):
    for write, header, fmt, obj, grid in (
        (write_policy_csv, POLICY_HEADER, "%d", Policy(actions=acts), acts[:, :, None]),
        (write_value_csv, VALUE_HEADER, "%.17g", v, v[:, :, None]),
        (write_q_csv, Q_HEADER, "%.17g", q, q),
    ):
        write(tmp / "new.csv", obj)
        reference_write_grid(tmp / "ref.csv", header, fmt, grid)
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def _runs(rng, pool, size):
    """``size`` values drawn from ``pool`` in runs of repeated values, some
    runs as long as the whole draw."""
    lengths = rng.integers(1, size + 1, size=size)
    picks = rng.integers(0, len(pool), size=size)
    return np.repeat(np.asarray(pool)[picks], lengths)[:size]


@given(
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    pool=st.lists(doubles, min_size=1, max_size=12),
    block_bytes=st.sampled_from([1, 600, 5000, artifacts.WRITE_BLOCK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_writers_match_the_reference_writer(tmp_path_factory, shape, pool, block_bytes, seed):
    # The block sizes make blocks of one row, a few rows and the whole grid.
    rng = np.random.default_rng(seed)
    t_max, d_max = shape
    pool = pool + [float(x) for x in rng.normal(scale=1e5, size=3)]
    acts = _runs(rng, np.array([0, 1, 2], dtype=np.int8), t_max * d_max).reshape(shape)
    v = _runs(rng, pool, t_max * d_max).reshape(shape)
    q = _runs(rng, pool, t_max * d_max * 3).reshape(*shape, 3)
    with mock.patch.object(artifacts, "WRITE_BLOCK_BYTES", block_bytes):
        assert_writers_match_reference_writer(tmp_path_factory.mktemp("blocks"), acts, v, q)


def test_block_boundary_inside_the_grid(tmp_path):
    # 17 x 23 grids: the Q grid is written 3 channel-age rows at a time, the
    # value and policy grids 7 at a time, so each last block is short.
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan, 3.0, 0.1]
    shape = (17, 23)
    v = rng.choice(special, size=shape)
    v[::2] = rng.normal(size=(9, 23)) * 1e12
    q = rng.normal(size=(*shape, 3))
    q[5:11] = 7.0
    prefix = len("17,23,")
    block_bytes = 3 * 23 * (prefix + 3 * (artifacts._FIELD_BYTES + 1))
    with mock.patch.object(artifacts, "WRITE_BLOCK_BYTES", block_bytes):
        assert_writers_match_reference_writer(
            tmp_path, rng.integers(0, 3, size=shape).astype(np.int8), v, q
        )


def test_q_writer_memory_is_bounded_by_the_block(tmp_path):
    # The writer holds one block of at most WRITE_BLOCK_BYTES of padded
    # lines, not the 7 MB of text of the whole grid.
    q = np.random.default_rng(9).normal(size=(320, 320, 3))
    tracemalloc.start()
    try:
        write_q_csv(tmp_path / "q.csv", q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert read_q_csv(tmp_path / "q.csv").tobytes() == q.tobytes()


def test_value_reader_rejects_zero_coordinate(tmp_path):
    # (0,1) must not wrap around to the last channel age.
    p = tmp_path / "v.csv"
    p.write_text("tau,delta,value\n1,1,0.5\n1,2,1.5\n0,1,2.5\n2,2,3.5\n")
    with pytest.raises(ArtifactParseError, match=r"\(0,1\) outside grid"):
        read_value_csv(p)


def test_q_reader_rejects_zero_coordinate(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text(
        "tau,delta,q_idle,q_transmit,q_renew\n"
        "1,1,1,2,3\n1,0,1,2,3\n2,1,1,2,3\n2,2,1,2,3\n"
    )
    with pytest.raises(ArtifactParseError, match=r"\(1,0\) outside grid"):
        read_q_csv(p)


@pytest.mark.parametrize("action", ["300", "-1", "3"])
def test_out_of_range_action_rejected(tmp_path, action):
    p = tmp_path / "p.csv"
    p.write_text(f"tau,delta,action\n1,1,0\n1,2,{action}\n")
    with pytest.raises(ArtifactParseError, match="actions must be"):
        read_policy_csv(p)


def test_undecodable_bytes_raise_parse_error(tmp_path):
    p = tmp_path / "p.csv"
    p.write_bytes(b"tau,delta,action\n1,1,\xff\n")
    with pytest.raises(ArtifactParseError, match="p.csv"):
        read_policy_csv(p)


def test_directory_is_a_missing_artifact(tmp_path):
    with pytest.raises(MissingArtifactError):
        read_value_csv(tmp_path)


MUTATION_ALPHABET = list(",.-+#e0123456789 \n\t\r\x00nai") + ["99999999999999999999", "1e999"]


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["set", "insert", "delete"]),
                  st.sampled_from(MUTATION_ALPHABET)),
        min_size=1, max_size=4,
    )
)
def test_mutated_files_read_or_raise_parse_error(tmp_path_factory, edits):
    tmp = tmp_path_factory.mktemp("mutated")
    rng = np.random.default_rng(5)
    for write, read, grid in (
        (write_policy_csv, read_policy_csv, Policy(actions=np.ones((3, 2), dtype=np.int8))),
        (write_value_csv, read_value_csv, rng.normal(size=(3, 2))),
        (write_q_csv, read_q_csv, rng.normal(size=(3, 2, 3))),
    ):
        write(tmp / "ok.csv", grid)
        text = list((tmp / "ok.csv").read_text())
        for pos, op, token in edits:
            k = pos % len(text)
            if op == "set":
                text[k] = token
            elif op == "insert":
                text.insert(k, token)
            elif len(text) > 1:
                del text[k]
        (tmp / "bad.csv").write_text("".join(text))
        try:
            read(tmp / "bad.csv")
        except ArtifactParseError:
            pass


@pytest.mark.parametrize(
    "read, text",
    [
        (read_value_csv, "tau,delta,value\n1,1,0.5\n1,2,nan\n"),
        (read_q_csv, "tau,delta,q_idle,q_transmit,q_renew\n1,1,1,2,3\n1,2,1,nan,3\n"),
        (read_value_csv, "tau,delta,value\n1,1,0.5\n1,2,inf\n"),
        (read_q_csv, "tau,delta,q_idle,q_transmit,q_renew\n1,1,1,2,3\n1,2,1,inf,3\n"),
        (read_value_csv, "tau,delta,value\n1,1,0.5\n1,2,-inf\n"),
        (read_q_csv, "tau,delta,q_idle,q_transmit,q_renew\n1,1,1,2,3\n1,2,-inf,2,3\n"),
    ],
)
def test_nan_rejected(tmp_path, read, text):
    # NaN and either infinity are named by the first state holding one.
    entry = next(x for x in text.splitlines()[-1].split(",")[2:] if not math.isfinite(float(x)))
    p = tmp_path / "g.csv"
    p.write_text(text)
    with pytest.raises(ArtifactParseError, match=rf": {'NaN' if entry == 'nan' else entry} at state \(1,2\)"):
        read(p)


def test_read_q_memory_is_a_small_multiple_of_the_grid(tmp_path):
    # The file is about 2.8x the grid; the text and its lines are never all
    # held at once.
    q = np.random.default_rng(6).normal(size=(320, 320, 3))
    path = tmp_path / "q.csv"
    write_q_csv(path, q)
    tracemalloc.start()
    try:
        got = read_q_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, q)
    assert peak < 4 * q.nbytes


@given(
    text=st.text(alphabet=list("ab,\n\r \x0b\x0c\x1c\x85\u2028"), max_size=40),
    block=st.integers(1, 9),
)
def test_text_lines_split_like_splitlines(text, block):
    lines = itertools.chain.from_iterable(_text_lines(io.StringIO(text, newline=""), block))
    assert list(lines) == text.splitlines()


# Line breaks that str.splitlines knows and file iteration does not, next to
# the characters of the grid format.
SPLIT_ALPHABET = MUTATION_ALPHABET + ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r\n", "   "]


@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["set", "insert", "delete"]),
                  st.sampled_from(SPLIT_ALPHABET)),
        max_size=4,
    )
)
def test_streamed_rows_are_the_whole_file_rows(tmp_path_factory, edits):
    # The one-pass parse either gives up or gives the rows of the whole-file
    # read, which also decides every error message.
    tmp = tmp_path_factory.mktemp("streamed")
    rng = np.random.default_rng(7)
    for write, header, grid in (
        (write_policy_csv, POLICY_HEADER, Policy(actions=np.ones((3, 2), dtype=np.int8))),
        (write_value_csv, VALUE_HEADER, rng.normal(size=(3, 2))),
        (write_q_csv, Q_HEADER, rng.normal(size=(3, 2, 3))),
    ):
        write(tmp / "ok.csv", grid)
        text = list((tmp / "ok.csv").read_text())
        for pos, op, token in edits:
            k = pos % len(text)
            if op == "set":
                text[k] = token
            elif op == "insert":
                text.insert(k, token)
            elif len(text) > 1:
                del text[k]
        path = tmp / "edited.csv"
        path.write_text("".join(text))
        value = np.int64 if header == POLICY_HEADER else np.float64
        dtype = [(n, np.int64 if i < 2 else value) for i, n in enumerate(header.split(","))]
        rows = _stream_rows(path, header, dtype)
        if not edits:
            assert rows is not None
        try:
            expected = _diagnose_rows(path, header, dtype)
        except ArtifactParseError:
            assert rows is None
            continue
        assert rows is None or rows.tobytes() == expected.tobytes()
