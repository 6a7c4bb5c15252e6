"""`dataset.write_columns` writes the bytes `csv.writer` writes for the same
rows (excel dialect, QUOTE_MINIMAL), an array column read through `tolist`:
fixed cases of every field kind and quoting rule, in blocks of any size.
The law over generated columns is in test_column_writer_laws.py."""

import csv

import numpy as np
import pytest

from repmarket import dataset
from repmarket.dataset import write_columns, write_csv

TEXTS = [",", '"', "\r", "\n", "a,b", 'say "hi"', 'a""b', "line\r\nend", "\n\r", " lead",
         "trail ", " ", "", "plain", "é ünïcode"]
FLOATS = [0.1, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
          2.2250738585072014e-308, 1e16, 1e-5, 123456789.125, -1.5e300]
INTS = [0, -5, 7, 2**53 + 1, -(2**70)]


def _csv_bytes(tmp_path, header, columns) -> bytes:
    """What csv.writer writes for the header and the rows of the columns."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    path = tmp_path / "csv.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*lists))
    return path.read_bytes()


def _written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "columns.csv"
    write_columns(path, header, columns)
    return path.read_bytes()


CASES = {
    "texts": [TEXTS, TEXTS[::-1]],
    "texts needing no quotes": [["a", "b c", ""], ["x", "", " "]],
    "floats": [FLOATS, FLOATS[::-1]],
    "ints": [INTS + [1] * 7, list(range(12))],
    "none and empty": [[None, "", None], ["", None, "x"]],
    "bools": [[True, False, True], [1, 0, 1]],
    "mixed": [[1, 1.5, "a,b", None, True, -0.0, float("nan")],
              ["q", 2**64, 1e16, "", False, '"', 1e-5]],
    "numpy scalars": [[np.float64(0.1), np.float64(-0.0), np.float64(1e16)],
                      [np.float32(0.1), np.int64(3), np.bool_(True)]],
    "arrays": [np.array([1, -2, 3], dtype=np.int64), np.array([0.1, float("nan"), 1e-5]),
               np.array([True, False, True]), np.array(["a", None, "b,c"], dtype=object)],
    "empty": [[], []],
}


@pytest.mark.parametrize("block_rows", [1, 2, dataset._WRITE_ROWS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_columns_are_written_as_csv_writer_writes_their_rows(tmp_path, monkeypatch, case,
                                                                  block_rows):
    monkeypatch.setattr(dataset, "_WRITE_ROWS", block_rows)
    columns = CASES[case]
    header = [f"c{k}" for k in range(len(columns))]
    assert _written(tmp_path, header, columns) == _csv_bytes(tmp_path, header, columns)


@pytest.mark.parametrize("block_rows", [1, 2, dataset._WRITE_ROWS])
def test_a_row_of_one_empty_field_is_quoted(tmp_path, monkeypatch, block_rows):
    """csv writes a row whose one field is empty as "", and the header alike."""
    monkeypatch.setattr(dataset, "_WRITE_ROWS", block_rows)
    for header, columns in ((["only"], [["", None, "a", ",", ""]]), ([""], [["x", ""]])):
        written = _written(tmp_path, header, columns)
        assert written == _csv_bytes(tmp_path, header, columns)
    assert written == b'""\r\nx\r\n""\r\n'


def test_special_texts_alone_are_quoted():
    """The quoting is decided for each field: a column that needs quotes
    quotes only the fields that hold a special character."""
    assert dataset._texts(["a", "b,c", 'd"e', "f"]) == ["a", '"b,c"', '"d""e"', "f"]


@pytest.mark.parametrize("rows", [[], [["a", 1, 0.5]], [["x,y", None, -0.0], ["", True, 1e16]]])
def test_write_csv_writes_rows_as_csv_writer(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_csv(path, ["s", "n", "f"], iter(rows))
    assert path.read_bytes() == _csv_bytes(tmp_path, ["s", "n", "f"], list(zip(*rows))
                                           or [[], [], []])
