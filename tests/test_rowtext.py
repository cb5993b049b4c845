"""The numpy table rows: every float64 as "%.17g" prints it, byte for byte."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ep_nozzle import export, pool, rowtext
from ep_nozzle.grid import build_grid


def _rows(columns, texts=None, sep=b" ", block=None):
    """The bytes of the columns' rows, block rows at a time (all at once by
    default). texts: per column, None for a float column, or the strings its
    codes index."""
    texts = texts or [None] * len(columns)
    layout = rowtext.Layout([t and [s.encode() for s in t] for t in texts], sep)
    n = columns[0].size
    block = block or max(n, 1)
    chars, kept = layout.buffers(block)
    return b"".join(layout.render(columns, b, min(b + block, n), chars, kept).tobytes()
                    for b in range(0, n, block))


def _floats(values):
    """One float column's bytes."""
    return _rows([np.asarray(values, dtype=float)])


def _oracle(values):
    return "".join("%.17g\n" % v for v in values).encode()


def _bits(x):
    return int(np.float64(x).view(np.uint64))


# a raw pattern is in the range of the digit arithmetic once in about 27
# draws, so patterns of that range, either sign, are drawn too
PATTERNS = st.one_of(st.integers(0, 2 ** 64 - 1),
                     st.integers(_bits(1e-6), _bits(1e17)).map(lambda b: b | (1 << 63)),
                     st.integers(_bits(1e-6), _bits(1e17)))


@settings(max_examples=300, deadline=None)
@given(st.lists(PATTERNS, min_size=1, max_size=64))
def test_every_bit_pattern_prints_as_percent_17g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _floats(values) == _oracle(values.tolist())


def _fixed_table():
    powers = [10.0 ** j for j in range(-7, 19)]
    near = [math.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    switch = [1e-4, 1e-5, 9.99999999999999e-5, 9.9999999999999991e-05,
              9.9999999999999991e-06, 1.0000000000000001e-05, 1.5e-5, 1.5e-4]
    ties = [1049 / 2 ** 20, 4000000000000001 / 4, 800000000000001 / 8,
            7999999999999999 / 8, 160000000000001 / 16, 880000000000001 / 16]
    # the largest doubles below the powers of ten of the digit range: no
    # rounding of theirs carries into the next decade; these four doubles lie
    # within 5e-18 below their power of ten, so their 17 digits carry
    below = [math.nextafter(float(f"1e{j}"), 0.0) for j in range(-6, 18)]
    carries = [1e-14, 1e-79, 1e98, 1e153]
    short = [0.5, 0.125, 1.0, 2.0, 10.0, 0.1, 0.3, 1 / 3, 123456.0, 1.5e16, 1e16 + 2]
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = powers + near + switch + ties + below + carries + short + special
    return values + [-v for v in values]


def test_fixed_table_prints_as_percent_17g():
    values = _fixed_table()
    assert _floats(values) == _oracle(values)
    text = _floats(values).decode()
    for expected in ("0.0010004043579101562\n", "1000000000000000.2\n", "-0\n", "nan\n",
                     "-inf\n", "1.0000000000000001e-05\n", "0.0001\n", "1e-05\n",
                     "4.9406564584124654e-324\n", "9.9999999999999995e-07\n", "1e-14\n",
                     "1e+98\n"):
        assert expected in text


def test_no_double_of_the_fast_range_is_within_half_a_unit_of_the_next_decade():
    # the rounding to 17 digits never carries from 99...9 into a new decade
    for j in range(-5, 18):
        power = Fraction(10) ** j
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        assert (power - Fraction(x)) / power > Fraction(5, 10 ** 18), j


def test_random_decades_and_short_decimals_in_blocks():
    rng = np.random.default_rng(0)
    values = rng.random(20000) * 10.0 ** rng.integers(-9, 19, 20000)
    scale = 10.0 ** rng.integers(0, 12, 20000)
    values[::2] = np.round(values[::2] * scale[::2]) / scale[::2]
    values[::3] *= -1.0
    assert _rows([values], block=777) == _oracle(values.tolist())


def test_text_and_float_columns_share_a_row():
    texts = ["", "a", "longer text", "-0"]
    codes = np.array([3, 0, 1, 2, 1, 3, 2])
    x = np.array([0.5, -0.0, 1e-300, math.nan, 1 / 3, 1e22, 12.0])
    y = -x[::-1].copy()
    got = _rows([codes, x, y, codes], [texts, None, None, texts], sep=b",", block=3)
    oracle = "".join("%s,%.17g,%.17g,%s\n" % (texts[c], a, b, texts[c])
                     for c, a, b in zip(codes, x, y))
    assert got == oracle.encode()
    # a table that opens with a float column has no separator before it
    assert _rows([x, codes], [None, texts], sep=b",") == "".join(
        "%.17g,%s\n" % (a, texts[c]) for a, c in zip(x, codes)).encode()


def test_a_command_that_writes_no_table_does_not_import_the_module():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", "import sys; from ep_nozzle import cli; "
                          "print('ep_nozzle.rowtext' in sys.modules)"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_block_buffers_stay_within_the_block_bytes(tmp_path, monkeypatch):
    # one process, so that every block is formatted here
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)
    sizes = []
    buffers = rowtext.Layout.buffers

    def recording(layout, rows):
        sizes.append((rows, layout.width))
        return buffers(layout, rows)

    monkeypatch.setattr(rowtext.Layout, "buffers", recording)
    g = build_grid(dim=2, shape=(129, 257))
    f = np.sin(np.arange(g.n_nodes) * 0.37)
    export.export_field_csv(g, {"f": f, "g": -f}, tmp_path / "field.csv")
    (rows, width), = sizes
    assert rows < g.n_nodes
    assert export.BLOCK_BYTES - width < rows * width <= export.BLOCK_BYTES
