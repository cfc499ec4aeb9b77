import numpy as np
import pytest

from isospec.serialize import format_float, write_csv, write_json


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
