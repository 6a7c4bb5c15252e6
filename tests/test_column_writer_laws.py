"""A law: `dataset.write_columns` writes the bytes `csv.writer` writes for the
rows of any columns of mixed values, in blocks of any size."""

import csv
import io
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket import dataset  # noqa: E402

# csv.writer refuses NUL on Python 3.10 (no escapechar to write it with),
# and a lone surrogate cannot be encoded as UTF-8
CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(CHARS, max_size=6), st.sampled_from([",", '"', "\r", "\n", " ", "", '""']))


@st.composite
def columns(draw):
    n_rows = draw(st.integers(0, 12))
    n_columns = draw(st.integers(1, 4))
    return [draw(st.lists(VALUES, min_size=n_rows, max_size=n_rows)) for _ in range(n_columns)]


def _csv_text(header, columns) -> str:
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(header)
    w.writerows(zip(*columns))
    return out.getvalue()


@settings(deadline=None, max_examples=300)
@given(columns(), st.sampled_from([1, 2, 3, dataset._WRITE_ROWS]))
def test_the_columns_are_written_as_csv_writer_writes_their_rows(tmp_path_factory, columns,
                                                                  block_rows):
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path_factory.mktemp("law") / "columns.csv"
    with mock.patch.object(dataset, "_WRITE_ROWS", block_rows):
        dataset.write_columns(path, header, columns)
    assert path.read_bytes() == _csv_text(header, columns).encode("utf-8")
