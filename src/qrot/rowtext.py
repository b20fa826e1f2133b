"""The text of float64 values: exactly the bytes ``repr`` writes, from numpy.

:func:`reprs` formats a whole array at once.  For each normal double it finds
the shortest digits that read back as that double by Schubfach (Giulietti,
"The Schubfach way to render doubles", 2020): a 126-bit power of ten from a
table times the double's scaled significand, each 64x64-bit product taken as
32-bit limbs in uint64.  It then lays them out as CPython's ``repr`` does:
in exponent form (``1.5e-05``, ``1e+16``) for magnitudes below 1e-4 and
from 1e16 on, and otherwise as ``0.000ddd``, ``dd.ddd`` or ``ddd000.0``.
Zeros keep their sign; the rare subnormal, inf and nan go through ``repr``
itself.  The tables are built on first use.

:func:`spans` and :func:`lines` give the rows of a matrix file
(:func:`qrot.fileio.write_matrix`).  Only a row's span, from its first to its
last cell that is not ``+0.0``, goes through :func:`reprs`; the cells outside
it get the literal ``0.0``, which is ``repr(0.0)``.
"""

import functools

import numpy as np

# Values formatted at once: :func:`reprs` works on runs of this many, and
# :func:`lines` on runs of rows with about this many in their spans.
CHUNK = 1 << 14

_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_DIGIT_ZEROS = np.array([int.from_bytes(b"0" * 8, "little")] * 2 + [ord("0")], dtype=np.uint64)


# floor(log10(2**q)), floor(log10(3/4 2**q)) and floor(log2(10**e)) in
# integer arithmetic, exact for |q| and |e| in the thousands and beyond
def _floor_log10_pow2(q):
    return (q * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(q):
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


def _words(raw, count):
    """The non-negative int ``raw`` as ``count`` 64-bit words, the lowest
    first: the bytes of a text from ``int.from_bytes(text, "little")``."""
    return [(raw >> 64 * j) & ((1 << 64) - 1) for j in range(count)]


def _ascii(text):
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _powers():
    """Per biased exponent, twice (the second for a significand of 2**52,
    whose lower neighbour is nearer): the decimal exponent k, the shift h and
    the two 63-bit halves of g = floor(10**-k 2**(125 - r)) + 1, where
    r = floor(log2(10**-k)) puts g above 2**125 and at most 2**126."""
    q = np.clip(np.arange(2048), 1, 2046) - 1075  # zeros, inf and nan read any row
    k = np.empty(4096, np.int64)
    k[0::2] = _floor_log10_pow2(q)
    k[1::2] = np.where(q > -1074, _floor_log10_three_quarters_pow2(q), k[0::2])
    h = np.repeat(q, 2) + _floor_log2_pow10(-k) + 2
    g = []
    for e in range(-int(k.max()), -int(k.min()) + 1):  # e = -k
        shift = 125 - _floor_log2_pow10(e)
        g.append((10 ** max(e, 0) << max(shift, 0)) // (10 ** max(-e, 0) << max(-shift, 0)) + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    return k, h.astype(np.uint64), g1[k.max() - k], g0[k.max() - k]


@functools.cache
def _layouts():
    """How :func:`_reprs` lays out a value, by ``point`` (clipped to -4...17)
    and its count n of significant digits: which bytes of its 17 digits to
    keep, which to take moved up by one byte past the '.', where the '.'
    goes, and the prefix ('-', '0.', '-0.000'); then each ``point``'s suffix
    ('e-05', or none where ``repr`` uses fixed point) and its length in bits."""
    body, prefix = [], []
    dots = int.from_bytes(b"." * 24, "little")
    for point in range(-4, 18):
        for n in range(18):
            if point in (-4, 17):  # d.ddde+XX
                dot, cut, lead = 1, n + (n > 1), ""
            elif point <= 0:  # 0.000ddd
                dot, cut, lead = 17, n, "0." + "0" * -point
            else:  # dd.ddd, ddd000.0
                dot, cut, lead = point, max(n, point + 1) + 1, ""
            below, upto, within = (1 << 8 * dot) - 1, (1 << 8 * dot + 8) - 1, (1 << 8 * cut) - 1
            body.append([_words(m & within, 3) for m in (below, ~upto, upto & ~below & dots)])
            prefix.append(lead)
    exponents = ["" if -3 <= point <= 16 else f"e{point - 1:+03d}" for point in range(-400, 400)]
    return (np.array(body, dtype=np.uint64).transpose(1, 2, 0).copy(),
            np.array([_ascii(sign + lead) for sign in ("", "-") for lead in prefix], dtype=np.uint64),
            np.array([_ascii(e) for e in exponents], dtype=np.uint64),
            np.array([8 * len(e) for e in exponents], dtype=np.uint64))


def _product(g, cp):
    """The (high, low) words of g * cp, for g and cp below 2**64."""
    gh, gl = g >> 32, g & _M32
    ch, cl = cp >> 32, cp & _M32
    low = gl * cl
    cross1 = gl * ch
    cross2 = gh * cl
    mid = (low >> 32) + (cross1 & _M32) + (cross2 & _M32)
    return gh * ch + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32), (mid << 32) | (low & _M32)


def _shifted(high, low, g, shift, add):
    """The (high, low) words of (high, low) + g * 2**shift, or minus it, for
    shift from 1 to 63."""
    dh, dl = g >> (64 - shift), g << shift
    if add:
        total = low + dl
        return high + dh + (total < low), total
    return high - dh - (low < dl), low - dl


def _round_to_odd(x1, y1, y0):
    """(g1 2**63 + g0) cp 2**-127 rounded to odd, from the high word x1 of
    g0 cp and the words y1, y0 of g1 cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) != 0)


def _shortest(mag):
    """``(f, k)`` with f 10**k the shortest decimal that reads back as each
    normal double of magnitude bits ``mag`` (nearest it, and even on a tie);
    f has 16 or 17 digits, trailing zeros included."""
    k_of, h_of, g1_of, g0_of = _powers()
    t = mag & ((1 << 52) - 1)
    near_below = (t == 0) & (mag >> 52 > 1)  # its lower neighbour is half as far
    row = ((mag >> 52) << 1 | near_below).astype(np.intp)
    k, h, g1, g0 = k_of[row], h_of[row], g1_of[row], g0_of[row]
    c = t | (1 << 52)
    odd = c & 1  # the rounding interval is open
    # vb, vbr and vbl: 4 10**-k times the double and the ends of its rounding
    # interval, rounded to odd, from significands 4c, 4c + 2 and 4c - 2 (4c - 1
    # when near_below) shifted by h.  The ends' products differ from the
    # double's by g shifted, so they take no further multiplication.
    cp = c << h + 2
    x1, x0 = _product(g0, cp)
    y1, y0 = _product(g1, cp)
    vb = _round_to_odd(x1, y1, y0)
    vbr = _round_to_odd(_shifted(x1, x0, g0, h + 1, True)[0], *_shifted(y1, y0, g1, h + 1, True))
    vbl = _round_to_odd(_shifted(x1, x0, g0, h + 1 - near_below, False)[0],
                        *_shifted(y1, y0, g1, h + 1 - near_below, False))
    s = vb >> 2
    # one digit fewer, if exactly one of its two candidates is in the interval
    u = s // 10 * 10
    u_in = vbl + odd <= u << 2
    w_in = (u + 10 << 2) + odd <= vbr
    # else s or s + 1, whichever is in it, or the nearer, or the even one
    s_in = vbl + odd <= s << 2
    t_in = (s + 1 << 2) + odd <= vbr
    mid = (s << 2) + 2
    pick_s = np.where(s_in != t_in, s_in, (vb < mid) | ((vb == mid) & ((s & 1) == 0)))
    return np.where(u_in != w_in, u + 10 * w_in.astype(np.uint64), s + ~pick_s), k


def _digits8(x):
    """The 8 decimal digits of each x below 10**8 as the bytes of one word,
    the first digit in the lowest byte: halves, quarters and eighths of the
    word each take a quotient by a multiply and a shift."""
    high = x // 10_000
    v = high | (x - high * 10_000) << 32
    high = (v * 10_486 >> 20) & np.uint64(0x7F_0000_007F)
    v = high | (v - high * 100) << 16
    high = (v * 103 >> 10) & np.uint64(0xF_000F_000F_000F)
    return high | (v - high * 10) << 8


def _top_byte(w):
    """The index of the highest nonzero byte of each nonzero w with all its
    bytes below 10, from the exponent of w as a double."""
    return ((w.astype(np.float64).view(np.uint64) >> 52) - 1023) >> 3


def _reprs(x, ends):
    """:func:`reprs` of one run of C-contiguous values ``x``, with one end
    byte for each."""
    body_masks, prefixes, suffixes, suffix_bits = _layouts()
    bits = x.view(np.uint64)
    mag = bits & _M63
    zero = mag == 0
    f, k = _shortest(mag)
    f *= ~zero
    long = f >= 10**16
    f = np.where(long, f, f * 10)  # 17 digits, leading zeros for zero
    point = np.where(zero, 1, k + 16 + long)  # the value is 0.ddd... times 10**point
    # the 17 digits as three words; the significant ones end at the last nonzero
    high = f // 1_000_000_000
    low = f - high * 1_000_000_000
    words = np.empty((3, len(x)), np.uint64)
    words[:2] = _digits8(np.stack([high, low // 10]))
    words[2] = low % 10
    top = _top_byte(words[:2])
    n = np.where(words[2] != 0, 17, np.where(words[1] != 0, 9 + top[1], 1 + top[0]))
    n = np.where(zero, 1, n.astype(np.intp))
    words += _DIGIT_ZEROS[:, None]
    # Each value's text is its prefix, its digits with '.' inserted (the
    # bytes after it move up by one) and cut, and its suffix with its end
    # byte, in five words with NUL for the unused bytes.
    layout = (np.clip(point, -4, 17) + 4) * 18 + n
    moved = words << 8
    moved[1:] |= words[:2] >> 56
    keep, keep_moved, dots = np.take(body_masks, layout, axis=2)
    text = np.empty((5, len(x)), dtype="<u8")
    text[0] = prefixes[layout + body_masks.shape[-1] * (bits >> 63).astype(np.intp)]
    text[1:4] = (words & keep) | (moved & keep_moved) | dots
    suffix = point + 400
    text[4] = suffixes[suffix] | ends.astype(np.uint64) << suffix_bits[suffix]
    text = np.ascontiguousarray(text.T)
    for i in np.flatnonzero((mag >= np.uint64(2047 << 52)) | ~zero & (mag < np.uint64(1 << 52))).tolist():
        text[i] = _words(int.from_bytes(repr(float(x[i])).encode("ascii") + bytes([ends[i]]), "little"), 5)
    return text.tobytes().translate(None, b"\0")


def reprs(values, ends) -> bytes:
    """``repr`` of each of the float64 ``values``, each followed by its byte
    of ``ends``: one byte value for all of them, or a uint8 array with one
    per value."""
    x = np.ascontiguousarray(values, dtype=float).ravel()
    ends = np.broadcast_to(np.asarray(ends, dtype=np.uint8).ravel(), x.shape)
    return b"".join(_reprs(x[i:i + CHUNK], ends[i:i + CHUNK]) for i in range(0, len(x), CHUNK))


def spans(rows):
    """``(start, stop)``, two arrays: the span of each row of the C-contiguous
    float64 ``rows``, its cells from the first to the last that is not
    ``+0.0``, its last cell alone in a row of ``+0.0`` only, and ``(0, 0)``
    with no columns."""
    n, m = rows.shape
    if not m:
        return np.zeros(n, np.intp), np.zeros(n, np.intp)
    nonzero = rows.view(np.uint64) != 0  # +0.0 is the one double whose bits are all zero
    start = np.argmax(nonzero, axis=1)
    stop = m - np.argmax(nonzero[:, ::-1], axis=1)
    empty = ~nonzero[np.arange(n), start]
    start[empty], stop[empty] = m - 1, m
    return start, stop


def lines(rows):
    """The text lines of the C-contiguous float64 ``rows``, each row's
    values as their ``repr`` joined by spaces, and a newline: one bytes
    object for each run of rows with about :data:`CHUNK` values in their
    :func:`spans` (a longer row alone)."""
    start, stop = spans(rows)
    done = np.cumsum(stop - start)  # span values up to and including each row
    first = 0
    while first < len(rows):
        before = done[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(done, before + CHUNK, side="right")))
        yield _run(rows[first:last], start[first:last], stop[first:last])
        first = last


def _run(rows, start, stop):
    """The text lines of ``rows``, whose spans are ``start`` to ``stop``."""
    n, m = rows.shape
    if not m:
        return b"\n" * n
    columns = np.arange(m)
    ends = np.full(int((stop - start).sum()), ord(" "), np.uint8)
    ends[np.cumsum(stop - start) - 1] = ord("\n")
    text = reprs(rows[(columns >= start[:, None]) & (columns < stop[:, None])], ends)
    if not start.any() and (stop == m).all():
        return text
    return b"".join(b"0.0 " * a + line + b" 0.0" * (m - b) + b"\n"
                    for line, a, b in zip(text.split(b"\n"), start.tolist(), stop.tolist()))
