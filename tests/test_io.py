"""Text formats: .xyz files, PSGRID grids, JSON distribution specs."""

import os
import re
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psm import io as psio
from psm.errors import (DimensionMismatch, InvalidParameter, ParseError,
                        UnknownFamily)
from psm.meanshape import FAMILY_DEFAULTS
from psm.voxel import OccupancyGrid


def test_fmt_float_round_trips():
    rng = np.random.default_rng(1)
    vals = list(rng.normal(size=50)) + list(rng.normal(size=50) * 1e-12)
    vals += [0.0, 1.0, -2.5, 1e300, 5e-324]
    for v in vals:
        assert float(psio.fmt_float(v)) == float(v)


def test_read_xyz_basic(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 1 1\n")
    pts = psio.read_xyz(p)
    assert pts.shape == (2, 3)
    assert pts.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_read_xyz_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("# hdr\n\n0 0 0\n   \n# more\n1 2 3\n")
    pts = psio.read_xyz(p)
    assert pts.tolist() == [[0, 0, 0], [1, 2, 3]]


def test_read_xyz_wrong_token_count(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0\n")
    with pytest.raises(ParseError) as exc:
        psio.read_xyz(p)
    assert exc.value.line == 1
    assert "expected 3 tokens" in str(exc.value)


def test_read_xyz_bad_and_nonfinite_tokens(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 1 zebra\n")
    with pytest.raises(ParseError) as exc:
        psio.read_xyz(p)
    assert exc.value.line == 2

    p.write_text("# c\n0 0 0\n0 0 nan\n")
    with pytest.raises(ParseError) as exc:
        psio.read_xyz(p)
    assert exc.value.line == 3


def test_write_xyz_single_point_bytes(tmp_path):
    p = tmp_path / "a.xyz"
    psio.write_xyz([(0, 0, 0)], p)
    assert p.read_bytes() == b"0 0 0\n"


def test_write_xyz_empty(tmp_path):
    p = tmp_path / "a.xyz"
    psio.write_xyz(np.empty((0, 3)), p)
    assert p.read_bytes() == b""
    assert psio.read_xyz(p).shape == (0, 3)


def special_values(rng, n, lo):
    """n values mixing integral values, subnormals, negative zero and
    shortest-repr edge cases with random ones in [lo, 1]."""
    edge = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 0.5, 0.1, 1e-5,
            1e-16, 1 - 2**-53]
    if lo < 0:
        edge += [-1.0, -2.0**52, 2.0**53, 1e16, -1e22, 123456789.0, -5e-324]
    vals = rng.uniform(lo, 1.0, size=n)
    vals[rng.integers(0, n, size=n // 2)] = rng.choice(edge, size=n // 2)
    return vals


def test_writers_match_per_value_fmt_float(tmp_path):
    # byte parity with one fmt_float per value, on sizes that span more
    # than one block of formatted lines
    rng = np.random.default_rng(8)
    for n in (1, 7, 22000):
        pts = special_values(rng, 3 * n, -1.0).reshape(n, 3)
        p = tmp_path / "p.xyz"
        psio.write_xyz(pts, p)
        want = "".join(" ".join(psio.fmt_float(v) for v in row) + "\n" for row in pts)
        assert p.read_bytes() == want.encode()
    for d in (1, 5, 41):
        g = OccupancyGrid(d, [-0.0, 1.0, -2.5], 0.125, special_values(rng, d ** 3, 0.0).reshape(d, d, d))
        p = tmp_path / "g.psgrid"
        psio.write_grid(g, p)
        body = "".join(" ".join(psio.fmt_float(v) for v in row) + "\n"
                       for row in g.values.reshape(d * d, d))
        want = f"PSGRID 1\n{d} {d} {d}\n-0 1 -2.5\n0.125\n" + body
        assert p.read_bytes() == want.encode()


@pytest.mark.parametrize("kind", ["binary", "raw", "negative_zero", "tiny"])
def test_write_grid_body_matches_per_value_rows(tmp_path, kind):
    # the body is one fmt_float per value, one z-run per line
    rng = np.random.default_rng(9)
    d = 32
    values = (rng.random(d ** 3) < 0.1).astype(np.float64)
    if kind == "raw":
        values *= np.round(rng.random(d ** 3), 3)
    elif kind == "negative_zero":
        values[::7] = -0.0
    elif kind == "tiny":
        values[::5] = 1e-300
    p = tmp_path / "g.psgrid"
    psio.write_grid(OccupancyGrid(d, [0, 0, 0], 1.0, values.reshape(d, d, d)), p)
    body = "".join(" ".join(psio.fmt_float(v) for v in row) + "\n"
                   for row in values.reshape(d * d, d))
    assert p.read_text().split("\n", 4)[4] == body


def test_readers_take_bytes_paths(tmp_path):
    psio.write_xyz([(0, 1, 2)], tmp_path / "a.xyz")
    assert psio.read_xyz(os.fsencode(tmp_path / "a.xyz")).tolist() == [[0, 1, 2]]
    psio.write_grid(OccupancyGrid(1, [0, 0, 0], 1.0, np.ones((1, 1, 1))), tmp_path / "g.grid")
    assert psio.read_grid(os.fsencode(tmp_path / "g.grid")).values.tolist() == [[[1.0]]]


def test_readers_skip_a_byte_order_mark(tmp_path):
    # a UTF-8 BOM before the first line changes nothing a reader returns
    def xyz(p):
        return outcome(psio.read_xyz, p)

    def grid(p):
        g = psio.read_grid(p)
        return g.dims, g.origin.tolist(), g.cell_size, g.values.tobytes()

    cases = [(xyz, b"0 1 2\n3 4 5\n"),
             (xyz, b"# units: m\n0 1 2\n"),
             (grid, b"PSGRID 1\n2 2 2\n0 0 0\n0.5\n0 1\n1 0\n0 0\n1 1\n"),
             (grid, b"PSGRID 1\n2 2 2\n0 0 0\n0.5\n0 1 1\n0 0 0 1 1\n"),  # line parser
             (psio.read_distribution_spec, b'{"family": "circle_radius", "n_points": 64}')]
    for read, data in cases:
        (tmp_path / "plain").write_bytes(data)
        (tmp_path / "marked").write_bytes(b"\xef\xbb\xbf" + data)
        assert read(tmp_path / "marked") == read(tmp_path / "plain")


def test_xyz_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(1000, 3)) * rng.choice([1e-9, 1.0, 1e12], size=(1000, 1))
    p = tmp_path / "rt.xyz"
    psio.write_xyz(pts, p)
    back = psio.read_xyz(p)
    assert np.array_equal(back, pts)


def outcome(fn, *args):
    """What a parser returns, as comparable bytes, or the error it raises."""
    try:
        out = fn(*args)
    except ValueError as e:  # ParseError, DimensionMismatch, UnicodeDecodeError
        return type(e).__name__, str(e), getattr(e, "line", None)
    return out.shape, out.tobytes()


XYZ_PARITY = {
    "tabs": b"0\t1\t2\n3\t4\t5\n",
    "crlf": b"0 1 2\r\n3 4 5\r\n",
    "lone_cr": b"0 1 2\r3 4 5\r",
    "trailing_blank_lines": b"0 1 2\n\n\n",
    "whitespace_only_line": b"0 1 2\n  \t \n3 4 5",
    "form_feed": b"0 1 2\x0c\n\x0c\n",
    "comment_at_start": b"# header\n0 1 2\n",
    "comment_indented": b"  # note\n0 1 2\n",
    "comment_mid_line": b"0 1 2 # note\n",
    "comments_and_blanks_first": b"\n# a\n \t\n#b\n0 1 2\n3 4 5\n",
    "comment_after_rows": b"# a\n0 1 2\n# b\n3 4 5\n",
    "comment_mid_file": b"0 1 2\n\n# part 2\n3 4 5\n",
    "comment_glued": b"0 1 #2\n",
    "underscore": b"1_0 2 3\n",
    "plus_dot": b"+.5 -.25 3\n",
    "negative_zero": b"-0 0 -0.0\n",
    "nan": b"0 1 2\nnan 0 0\n",
    "inf": b"0 1 2\n0 inf 0\n",
    "overflowing_literal": b"1e500 0 0\n",
    "two_tokens": b"0 1 2\n3 4\n",
    "four_tokens": b"0 1 2 3\n",
    "one_token_lines": b"1\n2\n3\n",
    "bad_token": b"0 1 x\n",
    "unicode_digit": "\u0661 2 3\n".encode(),
    "line_separator": "0 1 2\u20283 4 5\n".encode(),
    "undecodable": b"0 1 2\n\xff 1 2\n",
    "empty": b"",
    "blank_only": b"\n \n",
    "comment_glued_after_comment_line": b"# a\n0 1 #2\n",
    "comment_glued_to_three_wide_row": b"# a\n0 1 2 #3\n",
    "comment_after_tab": b"\t# t\n0 1 2\n",
    "comment_last_without_newline": b"0 1 2\n# end",
    "comment_crlf": b"0 1 2\r\n# x\r\n3 4 5\r\n",
    "comments_only": b"# a\n# b\n",
    "comment_after_form_feed": b"\x0c# x\n0 1 2\n",
    "bom": b"\xef\xbb\xbf0 1 2\n3 4 5\n",
}


@pytest.mark.parametrize("name", sorted(XYZ_PARITY))
def test_read_xyz_matches_line_parser(tmp_path, name):
    p = tmp_path / "a.xyz"
    p.write_bytes(XYZ_PARITY[name])
    assert outcome(psio.read_xyz, p) == outcome(psio._read_xyz_lines, p)


def test_read_xyz_header_keeps_numpy_path(tmp_path, monkeypatch):
    # leading blank and '#' lines are skipped before numpy parses the rows
    rng = np.random.default_rng(3)
    p = tmp_path / "a.xyz"
    psio.write_xyz(rng.normal(size=(500, 3)), p)
    p.write_text("# header\n\n  # units: m\n" + p.read_text())
    want = outcome(psio._read_xyz_lines, p)

    def refuse(path):
        raise AssertionError("line parser reached")

    monkeypatch.setattr(psio, "_read_xyz_lines", refuse)
    assert outcome(psio.read_xyz, p) == want


def test_read_xyz_mid_file_comment_keeps_numpy_path(tmp_path, monkeypatch):
    # a '#' line between rows costs numpy one more pass, not the line parser
    rng = np.random.default_rng(4)
    p = tmp_path / "a.xyz"
    psio.write_xyz(rng.normal(size=(500, 3)), p)
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:200] + ["# part 2\n"] + lines[200:]))
    want = outcome(psio._read_xyz_lines, p)

    def refuse(path):
        raise AssertionError("line parser reached")

    monkeypatch.setattr(psio, "_read_xyz_lines", refuse)
    assert outcome(psio.read_xyz, p) == want


@pytest.mark.parametrize("layout", ["trailing_comment", "comment_every_100_rows"])
def test_read_xyz_comment_lines_take_one_loadtxt_call(tmp_path, monkeypatch, layout):
    # a file whose every '#' opens a line is one np.loadtxt call on its path
    rng = np.random.default_rng(6)
    p = tmp_path / "a.xyz"
    psio.write_xyz(rng.normal(size=(500, 3)), p)
    lines = p.read_text().splitlines(keepends=True)
    if layout == "trailing_comment":
        lines.append("# end of cloud\n")
    else:
        for i in range(400, 0, -100):
            lines.insert(i, f"  # row {i}\n")
    p.write_text("".join(lines))
    want = outcome(psio._read_xyz_lines, p)
    calls = []
    loadtxt = np.loadtxt

    def refuse(path):
        raise AssertionError("line parser reached")

    monkeypatch.setattr(psio, "_read_xyz_lines", refuse)
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    assert outcome(psio.read_xyz, p) == want
    assert [tuple(map(str, args)) for args in calls] == [(str(p),)]


TOKENS = ["0", "1", "-2.5e-3", "+.5", "7_0", "nan", "-inf", "x", "#", "#c", "1e400"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=4), max_size=6),
       st.sampled_from([" ", "\t", "  "]), st.sampled_from(["\n", "\r\n"]))
def test_read_xyz_matches_line_parser_on_token_soup(tmp_path_factory, lines, sep, newline):
    path = tmp_path_factory.getbasetemp() / "soup.xyz"
    path.write_bytes(newline.join(sep.join(tokens) for tokens in lines).encode())
    assert outcome(psio.read_xyz, path) == outcome(psio._read_xyz_lines, path)


GRID_HEADER_2 = b"PSGRID 1\n2 2 2\n0 0 0\n1\n"  # a body of 8 values follows

GRID_BODY_PARITY = {
    "valid": b"0 1\n0.25\t0.75\n0 0\n1 1\n",
    "ragged": b"0 1 0.25\n0.75\n0 0 1 1\n",
    "crlf": b"0 1\r\n0.25 0.75\r\n0 0\r\n1 1\r\n",
    "lone_cr": b"0 1\r0.25 0.75\r0 0\r1 1\r",
    "comment": b"0 1\n# 0 0\n0 0\n1 1\n0 0\n",
    "above_one": b"0 0 0 0\n0 1.5 0 0\n",
    "below_zero": b"0\n-0.1\n",
    "negative_zero": b"-0 0\n0 0\n0 0\n0 -0.0\n",
    "nan": b"0 nan\n",
    "inf": b"0\ninf\n",
    "underscore": b"0 1_0\n",
    "zero_underscore": b"0_0 0\n0 0\n0 0\n0 0\n",
    "plus_dot": b"+.5 .25\n0 0\n0 0\n0 0\n",
    "bad_token": b"0 0\n0 x\n",
    "undecodable": b"0 0\n0 \xff\n0 0\n0 0\n",
    "too_many_values": b"0 0\n0 0\n0 0\n0 0\n1 1\n",
    "too_few_values": b"0 0\n0 0\n0 0\n0\n",
    "blank_lines": b"\n0 1\n\n   \n1 0 0\n0 0 0\n",
    "blank_body": b"\n  \n\t\n",
    "empty": b"",
}


def read_grid_lines(path):
    """The line parser plus the count rule: the reference behind read_grid."""
    with open(path, encoding="utf-8") as fh:
        d, _, _ = psio._grid_header("".join(islice(fh, 4)).split("\n"))
        values = np.fromiter(psio._grid_values_lines(fh, 5), np.float64)
    if values.size != d ** 3:
        raise DimensionMismatch(f"expected {d ** 3} values, got {values.size}")
    return values.reshape(d, d, d)


@pytest.mark.parametrize("name", sorted(GRID_BODY_PARITY))
def test_grid_values_match_line_parser(tmp_path, name):
    p = tmp_path / "g.grid"
    p.write_bytes(GRID_HEADER_2 + GRID_BODY_PARITY[name])
    assert (outcome(lambda path: psio.read_grid(path).values, p)
            == outcome(read_grid_lines, p))


def grid_text(dims, origin, h, values):
    lines = ["PSGRID 1", f"{dims} {dims} {dims}",
             " ".join(str(c) for c in origin), str(h)]
    lines += [" ".join(str(v) for v in row) for row in values]
    return "\n".join(lines) + "\n"


def test_grid_minimal_round_trip(tmp_path):
    p = tmp_path / "g.grid"
    g = OccupancyGrid(1, [0, 0, 0], 1.0, np.ones((1, 1, 1)))
    psio.write_grid(g, p)
    back = psio.read_grid(p)
    assert back.dims == 1 and back.cell_size == 1.0
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.origin, g.origin)


def test_grid_zeros_32_round_trip(tmp_path):
    p = tmp_path / "g.grid"
    g = OccupancyGrid(32, [0, 0, 0], 1.0, np.zeros((32, 32, 32)))
    psio.write_grid(g, p)
    back = psio.read_grid(p)
    assert back.values.shape == (32, 32, 32)
    assert not back.values.any()


def test_grid_random_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.random((6, 6, 6))
    g = OccupancyGrid(6, [-1.5, 0.25, 3.0], 0.125, vals)
    p = tmp_path / "g.grid"
    psio.write_grid(g, p)
    back = psio.read_grid(p)
    assert np.array_equal(back.values, vals)
    assert np.array_equal(back.origin, g.origin)
    assert back.cell_size == 0.125


def test_grid_body_count_mismatch(tmp_path):
    p = tmp_path / "g.grid"
    p.write_text(grid_text(2, (0, 0, 0), 1.0, [[0.0] * 7]))  # needs 8
    with pytest.raises(DimensionMismatch):
        psio.read_grid(p)


def test_grid_non_cubic_dims(tmp_path):
    p = tmp_path / "g.grid"
    p.write_text("PSGRID 1\n2 2 3\n0 0 0\n1\n" + "0 " * 12 + "\n")
    with pytest.raises(DimensionMismatch):
        psio.read_grid(p)


def test_grid_header_is_byte_exact(tmp_path):
    p = tmp_path / "g.grid"
    for bad in ("PSGRID 2", "psgrid 1", " PSGRID 1", "PSGRID  1"):
        p.write_text(bad + "\n1 1 1\n0 0 0\n1\n1\n")
        with pytest.raises(ParseError) as exc:
            psio.read_grid(p)
        assert exc.value.line == 1


def test_grid_value_range_and_line_numbers(tmp_path):
    p = tmp_path / "g.grid"
    # body starts on file line 5; put the offending value on line 6
    p.write_text("PSGRID 1\n2 2 2\n0 0 0\n1\n0 0 0 0\n0 1.5 0 0\n")
    with pytest.raises(ParseError) as exc:
        psio.read_grid(p)
    assert exc.value.line == 6
    assert "outside [0, 1]" in str(exc.value)


def test_grid_bad_token_in_late_block_keeps_line_number(tmp_path):
    # break one value near the end of a 64^3 grid
    g = OccupancyGrid(64, [0, 0, 0], 1.0, np.full((64, 64, 64), 0.123456789))
    p = tmp_path / "g.grid"
    psio.write_grid(g, p)
    lines = p.read_text().split("\n")
    bad = len(lines) - 3  # 0-based index of the third-last value line
    lines[bad] = lines[bad].replace("0.123456789", "0.12x", 1)
    p.write_text("\n".join(lines))
    with pytest.raises(ParseError) as exc:
        psio.read_grid(p)
    assert exc.value.line == bad + 1
    assert "bad number '0.12x'" in str(exc.value)


def test_grid_parses_in_blocks_with_identical_values(tmp_path):
    rng = np.random.default_rng(8)
    vals = rng.random((64, 64, 64))
    vals[rng.random(vals.shape) < 0.5] = 0.0  # short and long tokens mixed
    g = OccupancyGrid(64, [0.5, -2.0, 1e-3], 0.25, vals)
    p = tmp_path / "g.grid"
    psio.write_grid(g, p)
    assert np.array_equal(psio.read_grid(p).values, vals)


def test_written_grids_skip_line_parser(tmp_path, monkeypatch):
    # write_grid's layout never reaches the line parser: the largest 32^3
    # body, every value a 23-character repr, and a mixed 64^3 one
    rng = np.random.default_rng(9)
    big = rng.random((64, 64, 64))
    big[rng.random(big.shape) < 0.5] = 0.0
    line_parser = psio._grid_values_lines

    def refuse(lines, lineno):
        raise AssertionError("line parser reached")

    monkeypatch.setattr(psio, "_grid_values_lines", refuse)
    p = tmp_path / "g.grid"
    for vals in (np.full((32, 32, 32), 2.2250738585072014e-308), big):
        psio.write_grid(OccupancyGrid(len(vals), [0, 0, 0], 1.0, vals), p)
        assert np.array_equal(psio.read_grid(p).values, vals)
    # the same 64^3 values with each 64-value row split 40 + 24 do reach it
    lines = p.read_text().split("\n")
    rows = [row.split() for row in lines[4:-1]]
    body = [" ".join(part) for row in rows for part in (row[:40], row[40:])]
    p.write_text("\n".join(lines[:4] + body) + "\n")
    calls = []
    monkeypatch.setattr(psio, "_grid_values_lines",
                        lambda lines, lineno: calls.append(lineno)
                        or line_parser(lines, lineno))
    assert np.array_equal(psio.read_grid(p).values, big)
    assert calls == [5]


def test_grid_bad_cell_size(tmp_path):
    p = tmp_path / "g.grid"
    p.write_text("PSGRID 1\n1 1 1\n0 0 0\n0\n1\n")
    with pytest.raises(ParseError) as exc:
        psio.read_grid(p)
    assert exc.value.line == 4


def test_write_grid_rejects_unsaturated(tmp_path):
    g = OccupancyGrid(1, [0, 0, 0], 1.0, np.full((1, 1, 1), 1.25))
    with pytest.raises(ValueError):
        psio.write_grid(g, tmp_path / "g.grid")


def test_write_grid_rejects_nan(tmp_path):
    # read_grid refuses a written nan, so the writer must too
    values = np.zeros((2, 2, 2))
    values[1, 0, 1] = np.nan
    g = OccupancyGrid(2, [0, 0, 0], 1.0, values)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        psio.write_grid(g, tmp_path / "g.grid")
    assert not (tmp_path / "g.grid").exists()


def test_grid_layout_z_fastest(tmp_path):
    # values[x, y, z]; the file flattens z fastest, one z-run per line
    vals = np.arange(8).reshape(2, 2, 2) / 10.0
    g = OccupancyGrid(2, [0, 0, 0], 1.0, vals)
    p = tmp_path / "g.grid"
    psio.write_grid(g, p)
    body = p.read_text().split("\n")[4:8]
    assert body[0].split() == ["0", "0.1"]          # x=0, y=0, z=0..1
    assert body[1].split() == ["0.2", "0.3"]        # x=0, y=1
    assert body[2].split() == ["0.4", "0.5"]        # x=1, y=0
    assert body[3].split() == ["0.6", "0.7"]


def test_distribution_spec_schema_example(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"family":"circle_radius","r_min":0.5,"r_max":1.5,"n_points":256}')
    spec = psio.read_distribution_spec(p)
    assert spec.family == "circle_radius"
    assert spec.n_points == 256
    assert spec.params["r_min"] == 0.5 and spec.params["r_max"] == 1.5
    assert spec.params["center"] == [0.5, 0.5]  # default filled


def test_distribution_spec_defaults(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"family":"bar_disk","p_disk":0.5}')
    spec = psio.read_distribution_spec(p)
    assert spec.params["p_disk"] == 0.5
    assert spec.params["disk_radius"] > 0  # default geometry present
    assert spec.n_points == 256


def test_distribution_spec_unknown_family(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"family":"torus"}')
    with pytest.raises(UnknownFamily):
        psio.read_distribution_spec(p)


def test_distribution_spec_unknown_key(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"family":"circle_radius","wobble":3}')
    with pytest.raises(InvalidParameter):
        psio.read_distribution_spec(p)


def test_distribution_spec_bad_json_line(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{"family": "circle_radius",\n "r_min": }')
    with pytest.raises(ParseError) as exc:
        psio.read_distribution_spec(p)
    assert exc.value.line == 2

    p.write_text('[1, 2]')
    with pytest.raises(ParseError):
        psio.read_distribution_spec(p)


def test_formats_doc_lists_family_parameters():
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    section = doc.split("Families and their parameters")[1].split("\n\n")[1]
    listed = {}
    for item in re.findall(r"^- `(\w+)`: (.*?)\.\s", section, flags=re.M | re.S):
        listed[item[0]] = set(re.findall(r"`(\w+)`", item[1]))
    assert listed == {family: set(params) for family, params in FAMILY_DEFAULTS.items()}
