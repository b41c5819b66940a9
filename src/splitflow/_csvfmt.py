"""CSV rows of float64 values in exactly the bytes of ``'%.17e'``.

``'%.17e' % v`` prints the 18 significant digits N of |v|, rounded to
nearest from |v| 10^(17-e) with e = floor(log10 |v|), as ``d.ddd...de+XX``.
CPython converts one value at a time (about 0.9 us per value, most of the
cost of writing a trace value by value). Here every step is a whole-array
numpy operation:

* |v| 10^(17-e) is formed as a double-double: Dekker's (1971) error-free
  product of |v| with the double nearest 10^(17-e), plus |v| times the
  remainder of that power, each part read from a flat table indexed by
  e. For |v| in [1e-280, 1e280) no intermediate leaves the normal range
  and the absolute error stays below 1e-13, so rounding it gives N
  exactly unless its fraction lies within 1e-6 of 1/2 (exact ties
  included);
* a field is a fixed-width buffer of seven 4-byte words, each filled by
  one table lookup: word 0 (sign or pad, d0, ``.``, d1) by 100 signbit +
  d0 d1; words 1-4 (digits d2..d17, from four passes of ``// 10000``) by
  four-digit group; word 5 (``e``, sign, hundreds, tens) by e; word 6 by
  e, its units digit OR'ed with the row's separator bytes. Pad bytes are
  zero, and are the only zero bytes, so one ``bytes.translate`` drops
  them all. The word tables are ASCII strings printed by ``%`` and read
  as byte quads.

Values this cannot decide are formatted by ``'%.17e' % v`` one by one:
non-finite values, |v| outside [1e-280, 1e280), fractions within 1e-6 of a
tie, and N outside (1e17, 1e18), where log10 put e off by one or rounding
carries into the next decade. The output is byte-identical to ``'%.17e'``
by construction; zero (either sign) is written directly.
"""

from __future__ import annotations

import functools

import numpy as np

# rows formatted per call, so that the buffer and temporaries of a chunk
# stay small: on the benchmark's lasso_export workload (README config,
# up to 303 columns) 256-row chunks raised the peak RSS from ~98 to
# ~107 MiB, while 8-row chunks saved <1 MiB and cost ~15% more run time
CHUNK_ROWS = 32

# |v| in [_LOW, _HIGH) keeps every product of the double-double normal
_LOW, _HIGH = 1e-280, 1e280
_E_MAX = 281                    # largest |e| there, log10 off by one included
_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitting factor
_WIDTH = 25                     # widest field: -d.<17 digits>e-XXX
_U32 = np.dtype("<u4")          # a byte quad, first byte first


@functools.cache
def _tables():
    """Lookup tables, indexed by e + _E_MAX, by 100 signbit + d0 d1 or by
    a four-digit number.

    Built on the first export rather than at import. ``hi``, ``head``,
    ``tail`` and ``lo`` hold hi + lo = 10^(17-e) to ~2^-106 relative and
    head + tail = hi exactly, each part fitting 26 bits.
    """
    exponents = range(-_E_MAX, _E_MAX + 1)
    pow10 = []
    for e in exponents:
        # 10^(17-e) = num / den; int / int is correctly rounded
        num, den = 10 ** max(17 - e, 0), 10 ** max(e - 17, 0)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        c = _SPLIT * hi
        head = c - (c - hi)
        pow10.append((hi, head, hi - head, lo))
    out = dict(zip(("hi", "head", "tail", "lo"), np.array(pow10).T.copy()))
    two = ["%02d" % k for k in range(100)]
    words = {
        # a + a.join(two) is the hundred numbers a00 .. a99
        "four": "".join(a + a.join(two) for a in two),
        # sign or pad, d0, ".", d1
        "lead": "".join("%s%s.%s" % (sign, *d) for sign in "\0-" for d in two),
        # "e", sign, hundreds or pad, tens; then units and three pads
        "exp": "".join("e%s%s%d" % ("-+"[k >= 0], abs(k) // 100 or "\0",
                                    abs(k) // 10 % 10) for k in exponents),
        "units": "".join("%d\0\0\0" % (abs(k) % 10) for k in exponents),
    }
    for name, text in words.items():
        out[name] = np.frombuffer(text.encode("ascii"), _U32)
    for table in out.values():
        table.flags.writeable = False
    return out


def _decimal_digits(a, t):
    """Table index e + _E_MAX and 18-digit integer N of each positive
    ``a``, with a mask of the entries whose N is certain."""
    i = np.floor(np.log10(a)).astype(np.int64) + _E_MAX
    hi = t["hi"].take(i)
    # Dekker's two-product: p + err == a * hi exactly
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    head, tail = t["head"].take(i), t["tail"].take(i)
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    # a 10^(17-e) = p + r; p is an integer, as a 10^(17-e) > 1e16 > 2^53
    r = err + a * t["lo"].take(i)
    floor_r = np.floor(r)
    frac = r - floor_r
    p = np.minimum(p, 2e18)             # where e is off, keep the cast in range
    n = p.astype(np.int64) + floor_r.astype(np.int64) + (frac > 0.5)
    sure = (n > 10**17) & (n < 10**18) & (np.abs(frac - 0.5) > 1e-6)
    return i, n, sure


def format_rows(block):
    """Bytes of ``block`` (R, C) as R CSV lines of ``'%.17e'`` fields joined
    by ``,``, each line ended by CRLF."""
    t = _tables()
    block = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    fast = zero | ((a >= _LOW) & (a < _HIGH))
    i, n, sure = _decimal_digits(np.where(fast & ~zero, a, 1.0), t)
    i[zero] = _E_MAX
    n[zero] = 0
    fast &= sure | zero

    # a field is 7 byte quads, 0 bytes being pad: (sign, d0, ".", d1)
    # (d2..d5) .. (d14..d17) ("e", sign, h, t) (u, sep, sep, pad)
    buf = np.empty((v.size, 7), dtype=_U32)
    for j in range(4, 0, -1):
        q = n // 10000
        buf[:, j] = t["four"].take(n - 10000 * q)
        n = q
    # n < 100 where N is sure; the rest is overwritten below
    buf[:, 0] = t["lead"].take(np.minimum(n, 99) + 100 * np.signbit(v))
    buf[:, 5] = t["exp"].take(i)
    ends = b"\0,\0\0" * (n_cols - 1) + b"\0\r\n\0"     # (u, sep, sep, pad)
    buf.reshape(n_rows, n_cols, 7)[..., 6] = (
        t["units"].take(i).reshape(n_rows, n_cols)
        | np.frombuffer(ends, _U32))
    out = buf.view(np.uint8)
    for k in np.flatnonzero(~fast):
        text = ("%.17e" % v[k]).encode("ascii")
        out[k, :_WIDTH] = 0
        out[k, :len(text)] = list(text)
    return out.tobytes().translate(None, b"\0")


def write_csv(path, header, columns):
    """Write a header line and the rows of the column blocks ``columns``
    (each (R, k)) to ``path`` with CRLF line endings, formatting CHUNK_ROWS
    rows at a time. Returns the number of bytes written."""
    with open(path, "wb") as fh:
        size = fh.write((",".join(header) + "\r\n").encode("ascii"))
        for i in range(0, columns[0].shape[0], CHUNK_ROWS):
            rows = slice(i, i + CHUNK_ROWS)
            size += fh.write(format_rows(
                np.hstack([c[rows] for c in columns])))
    return size
