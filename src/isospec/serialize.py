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


# '%.17g' writes every v with 1e-4 <= |v| < 1e17 in fixed notation, which
# _fields takes from 42 candidate bytes: "-", "0.000", the 17 digits, ".", the
# 17 digits again, the separator. Which bytes a field keeps depends only on its
# sign, decimal exponent x and last nonzero digit: one row of _MASKS per triple.
_WIDTH = 42
_NEG, _X, _LAST = np.mgrid[0:2, -4:17, 0:17].reshape(3, -1, 1)
_J = np.arange(17)
_MASKS = np.hstack([_NEG == 1, np.arange(5) < np.where(_X < 0, 1 - _X, 0), _J <= _X,
                    (_X >= 0) & (_LAST > _X), (_J > _X) & (_J <= _LAST), _NEG >= 0])
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])     # 10**k, exact in float64 for k <= 22
# the four ASCII digits of 0..9999, one uint32 each
_DIGITS4 = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T
            + np.uint8(ord("0"))).astype(np.uint8, order="C").view(np.uint32).ravel()
# bounds the arrays one batch of values allocates: its fields, masks and float
# temporaries take about _VALUE_BYTES per value
_CHUNK_BYTES = 1 << 20
_VALUE_BYTES = 256


def _scaled(a, x):
    """S = a * 10**(16 - x) as the exact sum hi + lo: Dekker's two-product, on
    Veltkamp's split of both factors into 26-bit halves, whose products are exact."""
    b = _POW10[16 - x]
    ta, tb = a * 134217729.0, b * 134217729.0
    ah, bh = ta - (ta - a), tb - (tb - b)
    al, bl, hi = a - ah, b - bh, a * b
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _fields(v: np.ndarray, seps: np.ndarray):
    """'%.17g' % v[i] followed by seps[i], for each i, as the bytes of row i of
    a (v.size, _WIDTH) table that row i of a mask of the same shape keeps."""
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e17)       # the exact x decides 1e-4, below
    a = np.where(fixed, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    hi, lo = _scaled(a, x)
    # log10 can be one off next to a power of ten; S = hi + lo is exact
    x += (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    x -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    hi, lo = _scaled(a, x)
    # S >= 1e16 > 2**53 makes hi an even integer, so rint(lo) rounds S half-even.
    # No d reaches 1e17: the largest double below each power of ten from 1e-5
    # to 1e17 is at least 4.5 units of its 17th digit below it.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fixed &= x >= -4

    # d's 17 digits in bytes 3..19 of 20: a lead digit, then four groups of four
    digits = np.empty((v.size, 5), np.uint32)
    high, low = np.divmod(d, 10**8)
    lead, high = np.divmod(high, 10**8)
    for k, g in enumerate(np.divmod(high, 10**4) + np.divmod(low, 10**4)):
        digits[:, k + 1] = _DIGITS4[g]
    digits = digits.view(np.uint8)
    digits[:, 3] = lead + ord("0")
    last = 16 - np.argmax(digits[:, :2:-1] != ord("0"), axis=1)

    buf = np.empty((v.size, _WIDTH), np.uint8)
    buf[:, :6] = np.frombuffer(b"-0.000", np.uint8)
    buf[:, 6:23] = buf[:, 24:41] = digits[:, 3:]
    buf[:, 23] = ord(".")
    buf[:, 41] = seps
    keep = _MASKS[((v < 0) * 21 + np.clip(x, -4, 16) + 4) * 17 + last]

    slow = np.flatnonzero(~fixed)
    text = np.array([b"%.17g" % f for f in v[slow].tolist()], dtype="S24")
    buf[slow, :24] = text.view(np.uint8).reshape(slow.size, 24)
    keep[slow, :-1] = False
    keep[slow, :24] = buf[slow, :24] != 0
    return buf, keep


def format_tables(tables: list[np.ndarray]) -> list[bytes]:
    """The CSV lines of each 2-D table, every value as '%.17g' % v, byte for byte.
    Each table is rendered alone, in blocks of whole rows (one at least) of at
    most _CHUNK_BYTES // _VALUE_BYTES values."""
    bodies = []
    for t in tables:
        t = np.asarray(t, dtype=float)
        seps = np.full(t.shape, ord(","), np.uint8)
        seps[:, -1:] = ord("\n")
        rows = max(1, _CHUNK_BYTES // _VALUE_BYTES // max(t.shape[1], 1))
        blocks = (_fields(t[lo:lo + rows].ravel(), seps[lo:lo + rows].ravel())
                  for lo in range(0, t.shape[0], rows))
        bodies.append(b"".join(buf[keep] for buf, keep in blocks))
    return bodies


def write_csvs(tables: list[tuple]) -> None:
    """Write each (path, header, rows) of tables as a header line and one line
    of %.17g values per row. Every value of every table is checked before the
    first file is opened, so a non-finite value leaves no file behind."""
    tables = [(path, header, np.atleast_2d(rows)) for path, header, rows in tables]
    for path, _, rows in tables:
        bad = ~np.isfinite(rows)
        if bad.any():
            raise ValueError(f"cannot serialize non-finite value {rows[bad][0]} to {path}")
    bodies = format_tables([rows for _, _, rows in tables])
    for (path, header, _), body in zip(tables, bodies):
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            f.write(body)


def write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """write_csvs of the one table (path, header, rows)."""
    write_csvs([(path, header, rows)])
