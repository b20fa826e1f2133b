"""The text lines of a matrix file, from the standard library alone.

:func:`lines` formats the rows of every :func:`qrot.fileio.write_matrix`
file, in the CLI process from the array and in its helpers from raw bytes.
Each value is written as its ``repr``; only a row's span, from its first to
its last cell that is not ``+0.0``, goes through ``repr``, and the cells
outside it get the literal ``0.0``, which is ``repr(0.0)``.

``python -I -S rowtext.py N M`` reads N rows of M float64 values (native
byte order, rows one after another) on stdin and writes their N lines to
stdout.  It imports neither numpy nor qrot, so a helper starts in about
20 ms rather than 0.2 s.  A helper ignores Ctrl-C, which its parent handles.
Its parent writes all the rows to a file before starting it, and that file
is its stdin, so the rows are there in full; it still refuses input that is
not N rows of M values.  Then, and when its stdout has no reader because the
parent died, it exits with status 1 and prints nothing.
"""

import os
import signal
import sys

_NONZERO = bytes([0] + [1] * 255)  # a translate table: 1 for each byte that is not zero


def spans(data, n, m):
    """``(start, stop)`` of the span of each of the ``n`` rows of ``m``
    float64 values in ``data``, any C-contiguous buffer of them: the cells
    from the row's first to its last that is not ``+0.0``, its last cell
    alone in a row of ``+0.0`` only, and ``(0, 0)`` with no columns.

    :func:`lines` ``repr``s exactly these cells, and
    :func:`qrot.fileio.write_matrix` finds them once, to share rows out
    among helpers by their number and to format its own rows."""
    if not n * m:  # memoryview.cast refuses a zero in the shape
        yield from [(0, 0)] * n
        return
    raw = memoryview(data).cast("B")
    width = 8 * m
    for i in range(n):
        # +0.0 is the one float whose bytes are all zero.  find and rfind run
        # at memchr speed, where stripping zero bytes tests them one by one
        flags = bytes(raw[i * width:(i + 1) * width]).translate(_NONZERO)
        first = flags.find(1)
        yield (first // 8, flags.rfind(1) // 8 + 1) if first >= 0 else (m - 1, m)


def lines(data, m, spans):
    """The text line of each row of ``m`` float64 values in ``data``, any
    C-contiguous buffer of them: one line for each ``(start, stop)`` in
    ``spans``, what :func:`spans` gives for those rows."""
    if not memoryview(data).nbytes:  # memoryview.cast refuses a zero in the shape
        yield from ("\n" for _ in spans)
        return
    values = memoryview(data).cast("B").cast("d")
    for i, (start, stop) in enumerate(spans):
        span = values[i * m + start:i * m + stop].tolist()
        yield "0.0 " * start + " ".join(map(repr, span)) + " 0.0" * (m - stop) + "\n"


def main(argv) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    n, m = int(argv[1]), int(argv[2])
    data = sys.stdin.buffer.read()
    if len(data) != 8 * n * m:  # not the rows it was started for
        os._exit(1)
    # All of it before the first write: the parent reads it only after
    # writing its own rows, and a pipe holds far less.
    text = [line.encode("ascii") for line in lines(data, m, spans(data, n, m))]
    try:
        sys.stdout.buffer.writelines(text)
        sys.stdout.buffer.flush()
    except OSError:  # the parent died
        os._exit(1)


if __name__ == "__main__":
    main(sys.argv)
