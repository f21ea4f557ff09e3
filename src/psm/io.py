"""Text formats: .xyz point clouds, PSGRID occupancy grids, JSON shape specs.

All writers emit the shortest decimal representation that round-trips to the
same float64 (with a trailing ".0" dropped), so write then read is exact and
files stay human-readable. All parsers report 1-based line numbers.
"""

import json
import math
from itertools import chain, dropwhile, filterfalse, islice

import numpy as np

from .core import validate
from .errors import DimensionMismatch, ParseError
from .meanshape import spec_from_dict
from .voxel import OccupancyGrid

GRID_HEADER = "PSGRID 1"


def fmt_float(x):
    """Shortest exact decimal for a float64; integral values lose the '.0'."""
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _write_rows(fh, values, width, distinct=False):
    """Write values `width` to a line as fmt_float does, a block of lines at a
    time; distinct formats each bit pattern once, faster if values repeat."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, width)
    step = max(1, 65536 // width)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step].ravel()
        if distinct:
            bits, inv = np.unique(block.view(np.int64), return_inverse=True)
            block = bits.view(np.float64)
        toks = [t[:-2] if t.endswith(".0") else t for t in map(repr, block.tolist())]
        if distinct:
            toks = np.array(toks, dtype=object)[inv].tolist()
        fh.write("".join(" ".join(toks[i:i + width]) + "\n"
                         for i in range(0, len(toks), width)))


def _parse_floats(tokens, lineno):
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(lineno, f"bad number {tok!r}") from None
        if not math.isfinite(v):
            raise ParseError(lineno, "non-finite coordinate")
        out.append(v)
    return out


def _loadtxt(fh):
    """The rest of fh as rows of floats in one numpy call, or None when it
    holds no row or numpy refuses it (a bad token, a ragged row or
    undecodable bytes); a caller's line parser then takes the file."""
    try:
        for first in fh:
            if first.strip():  # loadtxt warns on input without rows
                # with comments=None any '#' is a bad token
                return np.loadtxt(chain([first], fh), dtype=np.float64,
                                  comments=None, ndmin=2)
    except ValueError:
        pass
    return None


def _skipped(line):
    return line.strip()[:1] in ("", "#")


def read_xyz(path):
    """Read a point set: one `x y z` line per point.

    Blank lines and lines starting with '#' are skipped. Files of plain
    numeric rows are parsed by numpy; the line parser takes the rest.
    """
    with open(path) as fh:
        pts = _loadtxt(dropwhile(_skipped, fh))
        if pts is None:  # a skipped line after the first row, or a bad file
            fh.seek(0)
            pts = _loadtxt(filterfalse(_skipped, fh))
    if pts is not None and pts.shape[1] == 3 and np.isfinite(pts).all():
        return pts
    return _read_xyz_lines(path)


def _read_xyz_lines(path):
    """Line-by-line reference parser behind read_xyz."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if _skipped(raw):
                continue
            tokens = raw.split()
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
    [0, 1], z fastest and x slowest. A body of plain numeric rows is parsed
    in one numpy call; the line parser takes every other body.
    """
    with open(path) as fh:
        dx, origin, h = _grid_header("".join(islice(fh, 4)).split("\n"))
        values = _loadtxt(fh)
        # a NaN fails both comparisons
        if values is None or not (values.min() >= 0.0 and values.max() <= 1.0):
            fh.seek(0)
            values = np.fromiter(_grid_values_lines(islice(fh, 4, None), 5), np.float64)
    if values.size != dx ** 3:
        raise DimensionMismatch(f"expected {dx ** 3} values, got {values.size}")
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


def _grid_values_lines(lines, lineno):
    """Values of body lines, the first being file line lineno, one at a time:
    the line-by-line reference parser behind read_grid."""
    for lineno, line in enumerate(lines, start=lineno):
        for v in _parse_floats(line.split(), lineno):
            if not 0.0 <= v <= 1.0:
                raise ParseError(lineno, f"value {v!r} outside [0, 1]")
            yield v


def write_grid(g, path):
    d = g.dims
    if not (g.values.min() >= 0.0 and g.values.max() <= 1.0):  # NaN fails both
        raise ValueError("grid values outside [0, 1]; saturate or binarize first")
    with open(path, "w", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        fh.write(f"{d} {d} {d}\n")
        fh.write(" ".join(fmt_float(c) for c in g.origin) + "\n")
        fh.write(fmt_float(g.cell_size) + "\n")
        _write_rows(fh, g.values, d, distinct=True)  # one z-run per line


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
