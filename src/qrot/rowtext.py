"""The text lines of :func:`qrot.fileio.write_matrix`, from the standard library alone.

``python -I -S rowtext.py N M`` reads N rows of M float64 values (native
byte order, rows one after another) on stdin and writes their N lines to
stdout: the ``repr`` of each value, separated by single spaces.  A row that
is mostly ``+0.0`` gets the literal ``0.0`` for those cells, as
``write_matrix`` does, so the lines are byte for byte the ones it writes.

``write_matrix`` runs this file in its helper processes.  It imports neither
numpy nor qrot, so a helper starts in about 20 ms rather than 0.2 s.  A
helper ignores Ctrl-C, which its parent handles.  If the parent dies, the
helper's stdin ends early or its stdout has no reader, and it exits with
status 1 and prints nothing.
"""

import os
import signal
import sys
from array import array
from itertools import compress


def lines(data, n, m):
    """The text line of each of the ``n`` rows of ``m`` values in ``data``."""
    values, bits = array("d"), array("q")
    values.frombytes(data)
    bits.frombytes(data)  # +0.0 is the one float whose bits are all zero
    zeros = ["0.0"] * m
    cols = range(m)
    for i in range(n):
        row, row_bits = values[i * m:(i + 1) * m], bits[i * m:(i + 1) * m]
        if 2 * (m - row_bits.count(0)) < m:
            cells = zeros.copy()
            for j in compress(cols, row_bits):
                cells[j] = repr(row[j])
        else:
            cells = map(repr, row)
        yield " ".join(cells) + "\n"


def main(argv) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    n, m = int(argv[1]), int(argv[2])
    data = sys.stdin.buffer.read()
    if len(data) != 8 * n * m:  # the parent died while sending the rows
        os._exit(1)
    # All of it before the first write: the parent reads it only after
    # writing its own rows, and a pipe holds far less.
    text = [line.encode("ascii") for line in lines(data, n, m)]
    try:
        sys.stdout.buffer.writelines(text)
        sys.stdout.buffer.flush()
    except OSError:  # the parent died
        os._exit(1)


if __name__ == "__main__":
    main(sys.argv)
