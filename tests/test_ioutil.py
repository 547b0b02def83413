import numpy as np
import pytest

from opemu.errors import DataError
from opemu.ioutil import parse_rows, read_table, write_csv


class TestWriteCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a", "b", "n"), [(0.1, -2.0, "7"), (1 / 3, 1e-300, "12")],
                  meta={"seed": 4, "dof": "3.5"})
        assert path.read_bytes() == (
            b"# seed=4\n# dof=3.5\na,b,n\n"
            b"0.1,-2.0,7\n0.3333333333333333,1e-300,12\n"
        )

    def test_no_meta_and_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["x"], [])
        assert path.read_bytes() == b"x\n"

    def test_numbers_round_trip(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(20, 4)) * 10.0 ** np.arange(-8, 8, 4)
        path = tmp_path / "t.csv"
        write_csv(str(path), ("p", "q", "r", "s"), values, meta={"k": "v"})
        header, rows, meta = read_table(str(path))
        assert meta == {"k": "v"}
        assert np.array_equal(parse_rows(str(path), header, rows), values)


class TestParseRows:
    HEADER = ["x0", "u0", "t=0.5"]

    def test_parses_finite_numbers(self):
        got = parse_rows("f.csv", self.HEADER, [["1", "-2.5", "3e-3"], ["0", "1", "2"]])
        assert got.shape == (2, 3)
        assert got[0, 2] == 3e-3

    def test_ragged_row_names_row(self):
        with pytest.raises(DataError, match=r"f\.csv: row 1 has 2 fields, expected 3"):
            parse_rows("f.csv", self.HEADER, [["1", "2", "3"], ["1", "2"]])

    def test_bad_cell_names_row_and_column(self):
        with pytest.raises(DataError, match=r"row 1, column t=0\.5: bad value 'x'"):
            parse_rows("f.csv", self.HEADER, [["1", "2", "3"], ["1", "2", "x"]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, cell):
        with pytest.raises(DataError, match=r"non-finite value at row 0, column u0"):
            parse_rows("f.csv", self.HEADER, [["1", cell, "3"], ["1", "2", "3"]])
