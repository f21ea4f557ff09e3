"""Text formats: .xyz point clouds, PSGRID occupancy grids, JSON shape specs.

All writers emit the shortest decimal representation that round-trips to the
same float64 (with a trailing ".0" dropped), so write then read is exact and
files stay human-readable. All parsers report 1-based line numbers.
"""

import json
import os
import stat
from io import StringIO
from itertools import islice

import numpy as np

from .core import validate
from .errors import DimensionMismatch, ParseError
from .meanshape import spec_from_dict
from .voxel import OccupancyGrid

GRID_HEADER = "PSGRID 1"
# characters of grid body lines parsed at a time: 32^3 values of at most 23
# characters plus a separator each, so a 32^3 grid is one block and a larger
# one never holds all its tokens at once
GRID_BLOCK_CHARS = 32 ** 3 * 24


def fmt_float(x):
    """Shortest exact decimal for a float64; integral values lose the '.0'."""
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _write_rows(fh, values, width):
    """Write values `width` to a line, each as fmt_float writes it, formatted
    from Python floats a block of lines at a time."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, width)
    step = max(1, 65536 // width)
    for lo in range(0, len(rows), step):
        toks = [t[:-2] if t.endswith(".0") else t
                for t in map(repr, rows[lo:lo + step].ravel().tolist())]
        fh.write("".join(" ".join(toks[i:i + width]) + "\n"
                         for i in range(0, len(toks), width)))


def _parse_floats(tokens, lineno):
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(lineno, f"bad number {tok!r}") from None
        if not np.isfinite(v):
            raise ParseError(lineno, "non-finite coordinate")
        out.append(v)
    return out


def read_xyz(path):
    """Read a point set: one `x y z` line per point.

    Blank lines and lines starting with '#' are skipped. Plain numeric rows
    are parsed in one numpy call; the line parser takes every other file.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if text.strip():  # loadtxt warns on a file without rows
            # with comments=None any '#' fails here and goes to the line parser
            pts = np.loadtxt(StringIO(text), dtype=np.float64, comments=None, ndmin=2)
            if pts.shape[1] == 3 and np.isfinite(pts).all():
                return pts
    except ValueError:  # a bad number, a ragged row or undecodable bytes
        pass
    return _read_xyz_lines(path)


def _read_xyz_lines(path):
    """Line-by-line reference parser behind read_xyz."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(lineno, "expected 3 tokens")
            points.append(_parse_floats(tokens, lineno))
    if not points:
        return np.empty((0, 3))
    return np.array(points)


def write_xyz(ps, path):
    pts = validate(ps)
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, pts, 3)


def read_grid(path):
    """Read a PSGRID 1 occupancy grid.

    Format: header line `PSGRID 1`, dims line `D D D` (cubic), origin line
    `ox oy oz`, cell-size line `h`, then D^3 whitespace-separated values in
    [0, 1], z fastest and x slowest.
    """
    with open(path) as fh:
        dx, origin, h = _grid_header("".join(islice(fh, 4)).split("\n"))
        values = _grid_body(fh, dx ** 3)
    return OccupancyGrid(dx, origin, h, values.reshape(dx, dx, dx))


def _grid_header(lines):
    """(dims, origin, cell size) from the file split at its first 4 newlines."""
    if lines[0] != GRID_HEADER:
        raise ParseError(1, f"expected header {GRID_HEADER!r}")
    if len(lines) < 4:
        raise ParseError(len(lines), "truncated grid file")
    dim_tokens = lines[1].split()
    if len(dim_tokens) != 3:
        raise ParseError(2, "expected 3 dims")
    try:
        dx, dy, dz = (int(t) for t in dim_tokens)
    except ValueError:
        raise ParseError(2, "dims must be integers") from None
    if not dx == dy == dz:
        raise DimensionMismatch(f"grid must be cubic, got {dx} {dy} {dz}")
    if dx < 1:
        raise ParseError(2, "dims must be >= 1")
    origin_tokens = lines[2].split()
    if len(origin_tokens) != 3:
        raise ParseError(3, "expected 3 origin coordinates")
    origin = _parse_floats(origin_tokens, 3)
    size_tokens = lines[3].split()
    if len(size_tokens) != 1:
        raise ParseError(4, "expected a single cell size")
    h = _parse_floats(size_tokens, 4)[0]
    if not h > 0:
        raise ParseError(4, "cell size must be > 0")
    return dx, origin, h


def _grid_body(fh, expected):
    """The values after the header, parsed GRID_BLOCK_CHARS at a time into
    one preallocated array; any count but `expected` is refused."""
    # each value takes a character and a separator, so a larger count than
    # the file can hold is not allocated; the count check below refuses it
    st = os.fstat(fh.fileno())
    room = st.st_size // 2 + 1 if stat.S_ISREG(st.st_mode) else expected
    values = np.empty(min(expected, room))
    count = 0
    lineno = 5  # the body starts on file line 5
    while block := fh.readlines(GRID_BLOCK_CHARS):
        v = _grid_values(block, lineno)
        if count + len(v) <= len(values):
            values[count:count + len(v)] = v
        count += len(v)
        lineno += len(block)
        del block, v  # free this block before the next is read
    if count != expected:
        raise DimensionMismatch(f"expected {expected} values, got {count}")
    return values


def _grid_values(lines, lineno):
    """Values of body lines, the first being file line lineno, each token
    through float() into one array; a bad token or a value outside [0, 1]
    goes to the line parser to report its line."""
    tokens = " ".join(lines).split()
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        if values.min(initial=0.0) >= 0.0 and values.max(initial=1.0) <= 1.0:
            return values  # a NaN fails both comparisons
    except ValueError:
        pass
    return _grid_values_lines(lines, lineno)


def _grid_values_lines(lines, lineno):
    """Line-by-line reference parser behind _grid_values."""
    values = []
    for lineno, line in enumerate(lines, start=lineno):
        for v in _parse_floats(line.split(), lineno):
            if not 0.0 <= v <= 1.0:
                raise ParseError(lineno, f"value {v!r} outside [0, 1]")
            values.append(v)
    return np.array(values)


def write_grid(g, path):
    d = g.dims
    if (g.values < 0.0).any() or (g.values > 1.0).any():
        raise ValueError("grid values outside [0, 1]; saturate or binarize first")
    with open(path, "w", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        fh.write(f"{d} {d} {d}\n")
        fh.write(" ".join(fmt_float(c) for c in g.origin) + "\n")
        fh.write(fmt_float(g.cell_size) + "\n")
        _write_rows(fh, g.values, d)  # one z-run per line


def read_distribution_spec(path):
    """Read and validate a JSON shape-distribution spec, filling defaults."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    if not isinstance(data, dict):
        raise ParseError(1, "expected a JSON object")
    return spec_from_dict(data)
