"""Rows of a text table as bytes, built with numpy a block of rows at a time.

A float value is written as `"%.17g" % v` writes it, byte for byte, and a
text column is gathered from a byte table of its distinct strings.

Each column of a row owns a fixed slot of bytes in one uint8 matrix, and a
bool matrix of the same shape marks the bytes kept: selecting them turns a
block of rows into the block's bytes. A slot starts with the column
separator, and the row ends in a slot holding "\\n".

A float's slot holds every byte that its text can need, in order:

    byte  0    1   2   3   4-6   7    8-23        24-26   27   28-43       44-47
          sep  -   0   .   000   d1   d2 ... d17  unused  .    d2 ... d17  e-0x

d1 ... d17 are the 17 significant digits, correctly rounded, half to even
on an exact tie, and x is the exponent digit. The kept bytes depend only on
the sign, the decimal exponent X and the number of digits left once the
trailing zeros are dropped, so they are one row of a table of patterns:
- 0 <= X <= 16: d1 ... d(X+1) from the first run of digits, then "." and
  the rest from the second run, if any digit is left;
- -4 <= X <= -1: "0.", -X-1 zeros and the digits from the first run;
- X = -5 or -6: d1, then "." and the rest from the second run, if any, and
  "e-05" or "e-06";
- 0 and -0 keep bytes 2 and 1-2.

The digits of 1e-6 < |v| < 1e17 are the integer d = round(|v| 10^(16-k)),
k = floor(log10 |v|): 10^(16-k) is an exact double (k >= -6), and the
product is formed exactly as p + e by Dekker's two-product (T. J. Dekker,
Numer. Math. 18, 1971). So k is corrected by exact comparisons of (p, e)
with 1e16 and 1e17, and p + e is rounded to an integer exactly. Every other
nonzero value (subnormals, |v| <= 1e-6, |v| >= 1e17, inf and nan) is
formatted by `"%.17g" % v` itself, the format's own definition, into bytes
4-23 and 28-31 of its slot.

Digits are written as 4-byte words from a table of the 10 000 groups of four
digits, so a float's slot is 12 words and every slot starts on a word; a
text slot is padded to whole words. The tables are built with numpy, in
about a millisecond, and only a command that writes a table imports this
module.
"""

from __future__ import annotations

import numpy as np

SLOT = 48                  # bytes of a float's slot
_WORDS = SLOT // 4
_SPLIT = 134217729.0       # 2^27 + 1: Veltkamp's split of a double into two halves
# where the text of a value printed by `%`, at most 24 characters
# ("-2.2250738585072014e-308"), goes in its slot: bytes 4-23 and 28-31
_RARE_AT = np.concatenate([np.arange(4, 24), np.arange(28, 32)])


def _split(x):
    """x as hi + lo, each half of the significand."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _words(chars):
    """(n, 4k) uint8 character codes as (n, k) native 4-byte words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32)


def _digit_groups():
    """The groups 0000 ... 9999 as words, and the trailing zeros of each (4
    for 0000): a group's four digits are the axes of a (10, 10, 10, 10) array."""
    chars = np.empty((10,) * 4 + (4,), np.uint8)
    for j in range(4):
        chars[..., j] = np.arange(ord("0"), ord("0") + 10).reshape((10,) + (1,) * (3 - j))
    z = np.arange(10) == 0
    zeros = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    return chars.view(np.uint32).ravel(), zeros.ravel()


_DIGITS4, _ZEROS4 = _digit_groups()
# the word of bytes 4-7: "000" and the first digit
_LEAD = _words(np.column_stack([np.full((10, 3), ord("0")), ord("0") + np.arange(10)])).ravel()
# the word of bytes 44-47 by t = 16 - X, for X = -5 and -6 (t = 21, 22)
_EXP = np.zeros(23, np.uint32)
_EXP[21:] = _words([list(b"e-05"), list(b"e-06")]).ravel()

_POW10 = 10.0 ** np.arange(23)               # exact: 10^22 < 2^53 5^22
_POW10_HI, _POW10_LO = _split(_POW10)


def _patterns():
    """Kept bytes of a float's slot by (sign, t = 16 - X, digits), one row of
    SLOT per triple in C order of the (2, 23, 17) triples."""
    pos = np.arange(SLOT)
    neg = np.arange(2).reshape(2, 1, 1, 1) == 1
    x = 16 - np.arange(23).reshape(1, 23, 1, 1)
    nd = np.arange(1, 18).reshape(1, 1, 17, 1)
    fixed, small = x >= 0, (x < 0) & (x >= -4)
    tail = nd > np.where(fixed, x + 1, 1)        # digits after the first "."
    keep = np.broadcast_to((pos == 0) | (neg & (pos == 1)), (2, 23, 17, SLOT)).copy()
    keep |= fixed & (pos >= 7) & (pos <= 7 + x)
    keep |= ~small & tail & ((pos == 27) | ((pos >= 28 + np.maximum(x, 0)) & (pos <= 26 + nd)))
    keep |= small & ((pos == 2) | (pos == 3) | ((pos >= 4) & (pos < 3 - x))
                     | ((pos >= 7) & (pos <= 6 + nd)))
    keep |= (x < -4) & ((pos == 7) | (pos >= 44))
    return keep.reshape(-1, SLOT)


# row (sign 23 + t) 17 + digits - 1 holds the kept bytes of a digit pattern;
# rows _ZERO and _ZERO + 1 those of 0 and -0: the separator, "-" and "0"
_ZERO = 2 * 23 * 17
_SIGNED_ZEROS = np.zeros((2, SLOT), bool)
_SIGNED_ZEROS[:, [0, 2]] = True
_SIGNED_ZEROS[1, 1] = True
_PATTERNS = _words(np.concatenate([_patterns(), _SIGNED_ZEROS]))
# a value formatted by `%`: the separator and its first n characters
_RARE = np.zeros((25, SLOT), bool)
_RARE[:, 0] = True
_RARE[:, _RARE_AT] = np.arange(24) < np.arange(25)[:, None]
_RARE = _words(_RARE)


def _scaled(a, t):
    """|v| 10^t as p + e exactly (Dekker's two-product)."""
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _POW10_HI[t], _POW10_LO[t]
    p = a * _POW10[t]
    e = a_hi * s_hi - p
    e += a_hi * s_lo
    e += a_lo * s_hi
    e += a_lo * s_lo
    return p, e


def _float_slots(values, words, chars, kept):
    """Write the slots of float columns into the rows of a block.

    values (n, c) holds n rows of c columns, and column j's slot starts at
    word words[j] of a row. chars and kept are the block's contiguous (n,
    row words) uint32 views of its bytes and kept bytes."""
    n, c = values.shape
    v = values.ravel()
    a = np.abs(v)
    rare = np.flatnonzero(~((a > 1e-6) & (a < 1e17)))
    zero = a[rare] == 0.0
    rare, zero = rare[~zero], rare[zero]
    a[rare] = a[zero] = 1.0
    t = np.log10(a)
    np.floor(t, out=t)
    np.subtract(16.0, t, out=t)
    np.clip(t, 0, 22, out=t)
    t = t.astype(np.intp)
    p, e = _scaled(a, t)
    # log10 may be one off: k is right when 1e16 <= p + e < 1e17
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if near.size:
        pn, en = p[near], e[near]
        step = ((pn < 1e16) | ((pn == 1e16) & (en < 0))).astype(np.intp)
        step -= (pn > 1e17) | ((pn == 1e17) & (en >= 0))
        t[near] += step
        p[near], e[near] = _scaled(a[near], t[near])
    # p is even, so this is p + e rounded half to even; it stays below 1e17,
    # because no double of the range is within 5e-18 of a power of ten above
    # it (the nearest, below 1e-6, is 4.5e-17 of it away)
    d = p.astype(np.int64)
    d += np.rint(e, out=e).astype(np.int64)
    del a, p, e
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    high = d // 10 ** 8
    d -= high * 10 ** 8
    groups = np.empty((v.size, 4), np.intp)
    np.floor_divide(high, 10 ** 4, out=groups[:, 0])
    np.floor_divide(d, 10 ** 4, out=groups[:, 2])
    np.subtract(high, groups[:, 0] * 10 ** 4, out=groups[:, 1])
    np.subtract(d, groups[:, 2] * 10 ** 4, out=groups[:, 3])
    del d, high
    trailing = np.take(_ZEROS4, groups[:, 3])      # trailing zeros of d
    for j in (2, 1, 0):          # whole groups of zeros: rare
        more = np.flatnonzero(trailing == 4 * (3 - j))
        trailing[more] += _ZEROS4[groups[more, j]]
    expo = np.flatnonzero(t > 20)
    chars[expo // c, words[expo % c] + 11] = _EXP[t[expo]]
    t *= 17                      # t becomes the row of _PATTERNS
    t += np.signbit(v) * (23 * 17)
    t += 16
    t -= trailing
    t[zero] = _ZERO + np.signbit(v[zero])
    del trailing
    digits = np.take(_DIGITS4, groups).reshape(n, c, 4)
    del groups
    lead = np.take(_LEAD, lead).reshape(n, c)
    for j, w in enumerate(words.tolist()):
        chars[:, w + 1] = lead[:, j]
        chars[:, w + 2:w + 6] = chars[:, w + 7:w + 11] = digits[:, j]
    del digits, lead
    pattern = np.take(_PATTERNS, t, axis=0).reshape(n, c, _WORDS)
    for j, w in enumerate(words.tolist()):
        kept[:, w:w + _WORDS] = pattern[:, j]
    del pattern
    if rare.size:
        texts = ("%.17g " * rare.size % tuple(v[rare].tolist())).split()
        row, word = rare // c, words[rare % c]
        start = 4 * (row * chars.shape[1] + word)
        chars.view(np.uint8).reshape(-1)[start[:, None] + _RARE_AT] = (
            np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24))
        kept[row[:, None], word[:, None] + np.arange(_WORDS)] = _RARE[[len(s) for s in texts]]


def _text_table(strings, sep, words):
    """The slots of a text column's strings (encoded), each words long, as
    two (len(strings), words) uint32 tables: the bytes and the kept bytes."""
    width = 4 * words
    chars = np.zeros((len(strings), width), np.uint8)
    chars[:, 0] = sep
    if strings:
        body = np.array(strings, dtype=f"S{width - 1}").view(np.uint8)
        chars[:, 1:] = body.reshape(len(strings), width - 1)
    kept = np.arange(width) <= np.array([len(s) for s in strings], dtype=np.intp)[:, None]
    return _words(chars), _words(kept)


class Layout:
    """The slots of a table's rows: SLOT bytes for a float column, and for a
    text column its longest string after the separator, rounded up to
    words. The row ends in a word holding "\\n".

    texts holds, per column, None for a float column, or the encoded
    strings that a text column's codes index. sep is one byte."""

    def __init__(self, texts, sep: bytes):
        self.texts = []            # (column, first word, tables) of each text column
        self.floats = []           # the float columns
        words = []                 # the first word of each float column's slot
        word = 0
        for j, strings in enumerate(texts):
            if strings is None:
                self.floats.append(j)
                words.append(word)
                word += _WORDS
            else:
                width = (1 + max(map(len, strings), default=0) + 3) // 4
                self.texts.append((j, word, _text_table(strings, sep[0], width)))
                word += width
        self.words = np.array(words, dtype=np.intp)
        self.width = 4 * word + 4   # bytes per row
        self.template = np.zeros(self.width, np.uint8)
        for w in words:
            self.template[4 * w:4 * w + 28] = list(sep + b"-0.000" + b"\0" * 20 + b".")
        self.template[-4] = ord("\n")

    def buffers(self, rows):
        """Block buffers of rows rows: the bytes and the kept bytes."""
        chars = np.empty((rows, self.width), np.uint8)
        chars[:] = self.template
        kept = np.zeros((rows, self.width), bool)
        kept[:, -4] = True
        return chars, kept

    def render(self, columns, begin, end, chars, kept):
        """The bytes of rows begin:end of the columns (float arrays and text
        codes, each read in its `.flat` order), through the buffers."""
        n = end - begin
        c, k = chars[:n].view(np.uint32), kept[:n].view(np.uint32)
        if self.floats:
            _float_slots(np.stack([columns[j][begin:end] for j in self.floats], axis=1),
                        self.words, c, k)
        for j, w, (strings, keep) in self.texts:
            codes = columns[j].flat[begin:end]
            np.take(strings, codes, axis=0, out=c[:, w:w + strings.shape[1]])
            np.take(keep, codes, axis=0, out=k[:, w:w + keep.shape[1]])
        kept[:n, 0] = False        # no separator before the first column
        return chars[:n][kept[:n]]
