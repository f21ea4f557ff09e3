"""Text formats: .xyz point clouds, PSGRID occupancy grids, JSON shape specs.

All files are UTF-8 under any locale. Writers emit the shortest decimal that
round-trips to the same float64 (a trailing ".0" dropped), so write then read
is exact. The .xyz and grid readers parse with one np.loadtxt call on the
path; a line parser that reports 1-based line numbers takes what numpy refuses.
"""

import json
import math
import os
import re
from itertools import islice

import numpy as np

from .core import validate
from .errors import DimensionMismatch, ParseError
from .meanshape import spec_from_dict
from .voxel import OccupancyGrid

GRID_HEADER = "PSGRID 1"
_LEADING = re.compile(rb"(?:\s|#[^\n]*)*")  # blank and '#' lines


def fmt_float(x):
    """Shortest exact decimal for a float64; integral values lose the '.0'."""
    return repr(float(x)).removesuffix(".0")


def _write_rows(fh, values, width):
    """Write values `width` to a line as fmt_float does, a block of lines at a
    time, formatting each distinct bit pattern in a block once."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, width)
    step = max(1, 65536 // width)
    for lo in range(0, len(rows), step):
        bits, inv = np.unique(rows[lo:lo + step].view(np.int64), return_inverse=True)
        inv = inv.reshape(-1, width)
        text = "\n".join(map(repr, bits.view(np.float64).tolist())) + "\n"
        text = text.replace(".0\n", "\n")  # only an integral value's repr ends in ".0"
        # each token carries what follows it: a space, or a newline at a row's end
        toks = np.array(text.replace("\n", " \n").split("\n"), dtype=object)[inv]
        toks[:, -1] = np.array(text.splitlines(True), dtype=object)[inv[:, -1]]
        fh.write("".join(toks.ravel().tolist()))


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


def _numpy_reads(data):
    """Whether np.loadtxt(comments="#") reads these bytes as the line parser
    does: every '#' opens its line after only spaces or tabs, and a row
    follows the leading blank and '#' lines. Steps once per '#' line."""
    i = data.find(b"#")
    while i >= 0:
        if data[data.rfind(b"\n", 0, i) + 1:i].strip(b" \t"):
            return False
        i = data.find(b"#", data.find(b"\n", i) + 1 or len(data))
    i = _LEADING.match(data).end()  # loadtxt warns on input without rows
    return b"!" <= data[i:i + 1] <= b"~"


def read_xyz(path):
    """Read a point set: one `x y z` line per point.

    Blank lines and lines starting with '#' are skipped. A file with a row,
    whose every '#' opens a line, is parsed in one np.loadtxt call; the line
    parser takes every other file and every file numpy refuses.
    """
    path = os.fsdecode(path)  # np.loadtxt takes no bytes path
    with open(path, "rb") as fh:
        plain = _numpy_reads(fh.read())
    try:
        pts = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8") if plain else None
    except ValueError:  # a bad token, a ragged row or undecodable bytes
        pts = None
    if pts is not None and pts.shape[1] == 3 and np.isfinite(pts).all():
        return pts
    return _read_xyz_lines(path)


def _read_xyz_lines(path):
    """Line-by-line reference parser behind read_xyz."""
    points = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip()[:1] in ("", "#"):
                continue
            tokens = raw.split()
            if len(tokens) != 3:
                raise ParseError(lineno, "expected 3 tokens")
            points.append(_parse_floats(tokens, lineno))
    return np.array(points).reshape(-1, 3)


def write_xyz(ps, path):
    pts = validate(ps)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, pts, 3)


def read_grid(path):
    """Read a PSGRID 1 occupancy grid.

    Format: header line `PSGRID 1`, dims line `D D D` (cubic), origin line
    `ox oy oz`, cell-size line `h`, then D^3 whitespace-separated values in
    [0, 1], z fastest and x slowest. A body of equal-width numeric rows is
    parsed in one np.loadtxt call; the line parser takes every other body.
    """
    path = os.fsdecode(path)  # np.loadtxt takes no bytes path
    with open(path, encoding="utf-8") as fh:
        dx, origin, h = _grid_header("".join(islice(fh, 4)).split("\n"))
        rows = any(line.split() for line in fh)  # loadtxt warns on input without rows
    try:
        values = np.loadtxt(path, skiprows=4, comments=None, ndmin=2,
                            encoding="utf-8") if rows else None
    except ValueError:  # a bad token, a ragged row or undecodable bytes
        values = None
    if values is None or not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails both
        with open(path, encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(GRID_HEADER + "\n")
        fh.write(f"{d} {d} {d}\n")
        fh.write(" ".join(fmt_float(c) for c in g.origin) + "\n")
        fh.write(fmt_float(g.cell_size) + "\n")
        _write_rows(fh, g.values, d)  # one z-run per line


def _read_json_object(path):
    """A JSON file's object; ParseError names the line of a syntax error, or 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    if not isinstance(data, dict):
        raise ParseError(1, "expected a JSON object")
    return data


def read_distribution_spec(path):
    """Read and validate a JSON shape-distribution spec, filling defaults."""
    return spec_from_dict(_read_json_object(path))
