import numpy as np
import pytest

from isospec import serialize
from isospec.serialize import format_float, format_tables, write_csv, write_csvs, write_json


def per_value_csv(header, rows):
    """The per-value rendering write_csv must reproduce byte for byte."""
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [
        np.array([[-0.0, 5e-324, 1e308], [3.0, -2.0, 1e16],
                  [np.pi, -1.0 / 3.0, 2.0 ** -1074 * 3], [1e-300, 123456789.0, -7.5e-8]]),
        np.arange(-6, 6).reshape(4, 3),
        np.random.default_rng(0).normal(size=(50, 3)) * 10.0 ** np.arange(-5, 10, 5),
        np.array([1.5, -0.0, 2.0]),
    ], ids=["edge-values", "int-dtype", "random", "one-row"])
    def test_bytes_match_per_value_rendering(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["x", "a", "b"], rows)
        assert path.read_text() == per_value_csv(["x", "a", "b"], rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raises_and_leaves_no_file(self, tmp_path, bad):
        rows = np.ones((5, 2))
        rows[3, 1] = bad
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(str(path), ["x", "a"], rows)
        assert not path.exists()


class TestWriteJson:
    def test_render_error_leaves_no_file(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_json(str(path), {"a": [1.0, np.inf]})
        assert not path.exists()


def percent_lines(values):
    return "".join("%.17g\n" % v for v in np.asarray(values, float).tolist())


class TestFormatTables:
    """format_tables must give '%.17g' % v for every finite double."""

    @staticmethod
    def rendered(values):
        return format_tables([np.asarray(values, float)[:, None]])[0].decode()

    def test_million_seeded_doubles(self):
        rng = np.random.default_rng(20240519)
        bits = rng.integers(0, 2**64, 410_000, dtype=np.uint64).view(float)
        sign = rng.choice([-1.0, 1.0], 600_000)
        values = np.concatenate([
            bits[np.isfinite(bits)],                        # every exponent, both signs
            sign * 10.0 ** rng.uniform(-8, 18, 600_000),    # log-uniform on [1e-8, 1e18]
        ])
        assert values.size >= 1_000_000
        assert self.rendered(values) == percent_lines(values)

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-30, 31)])
        values = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        assert self.rendered(np.r_[values, -values]) == percent_lines(np.r_[values, -values])

    def test_half_way_ties_round_to_even(self):
        assert self.rendered([1 + 2.0 ** -17]) == "1.0000076293945312\n"
        ties = np.array([(1 + 2.0 ** -k) * 2.0 ** j for k in range(1, 53) for j in range(-20, 60)])
        assert self.rendered(np.r_[ties, -ties]) == percent_lines(np.r_[ties, -ties])

    def test_nines_round_into_the_next_decade(self):
        # each literal is the next power of ten as a double; nextafter(., 0) is the
        # largest double below that power, the one a rounding carry would reach
        nines = np.array([float(f"9.99999999999999999e{k}") for k in range(-8, 18)])
        values = np.r_[nines, np.nextafter(nines, 0)]
        assert self.rendered(values) == percent_lines(values)
        assert self.rendered([9.99999999999999999e-5, 9.99999999999999999e16]) == "0.0001\n1e+17\n"

    def test_zero_extremes_and_subnormals(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        assert self.rendered(values) == "0\n-0\n4.9406564584124654e-324\n" \
            "-4.9406564584124654e-324\n1.7976931348623157e+308\n-1.7976931348623157e+308\n"

    def test_int_rows(self):
        rows = np.random.default_rng(3).integers(-2**62, 2**62, (1000, 4))
        lines = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
        assert format_tables([rows])[0].decode() == lines

    def test_tables_split_across_batches(self, monkeypatch):
        # blocks of at most 7 values and whole rows: 3 rows of the (10, 2)
        # table, then one row at a time, a row of 9 values over the budget too
        monkeypatch.setattr(serialize, "_CHUNK_BYTES", 7 * serialize._VALUE_BYTES)
        fields, sizes = serialize._fields, []
        monkeypatch.setattr(serialize, "_fields",
                            lambda v, seps: sizes.append(v.size) or fields(v, seps))
        rng = np.random.default_rng(5)
        tables = [rng.normal(size=shape) for shape in [(10, 2), (0, 2), (1, 1), (6, 4), (2, 9)]]
        expected = ["".join(",".join(["%.17g"] * t.shape[1]) % tuple(row) + "\n"
                            for row in t.tolist()).encode() for t in tables]
        assert format_tables(tables) == expected
        assert sizes == [6, 6, 6, 2, 1] + [4] * 6 + [9, 9]


class TestWriteCsvs:
    def test_empty_table_writes_the_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(str(path), ["x", "a", "b"], np.empty((0, 3)))
        assert path.read_text() == "x,a,b\n"

    def test_each_file_matches_its_own_rendering(self, tmp_path):
        rng = np.random.default_rng(6)
        tables = [(tmp_path / f"t{k}.csv", ["x", "a"], rng.normal(size=(k + 1, 2)))
                  for k in range(4)]
        write_csvs([(str(path), header, rows) for path, header, rows in tables])
        for path, header, rows in tables:
            assert path.read_text() == per_value_csv(header, rows)

    def test_nan_in_the_last_table_leaves_no_file(self, tmp_path):
        rows = np.ones((5, 2))
        bad = rows.copy()
        bad[4, 1] = np.nan
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        with pytest.raises(ValueError, match="non-finite value nan to .*2.csv"):
            write_csvs([(str(p), ["x", "a"], r) for p, r in zip(paths, [rows, rows, bad])])
        assert list(tmp_path.iterdir()) == []
