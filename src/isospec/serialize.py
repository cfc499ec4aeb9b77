"""Deterministic JSON/CSV output.

All floats are rendered with a fixed %.17g format so identical inputs give
byte-identical artifacts that survive text round-trips exactly.
"""

import json

import numpy as np


def format_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return "%.17g" % x


def _render(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(_render(v, indent) for v in seq) + "]"
        items = [f"{pad}  {_render(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def dumps_json(obj) -> str:
    return _render(obj, 0) + "\n"


def write_json(path: str, obj) -> None:
    """Render obj, then write it; a render error leaves no file behind."""
    text = dumps_json(obj)
    with open(path, "w") as f:
        f.write(text)


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Write a header line and one %.17g-formatted line per row.

    Every value is checked before the file is opened, so a non-finite value
    raises ValueError and leaves no file behind.
    """
    rows = np.atleast_2d(rows)
    bad = ~np.isfinite(rows)
    if bad.any():
        raise ValueError(f"cannot serialize non-finite value {rows[bad][0]} to {path}")
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(fmt % tuple(row) for row in rows.tolist())
