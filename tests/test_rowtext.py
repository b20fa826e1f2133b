import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qrot import rowtext

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_reprs(values, negated=True):
    """rowtext.reprs gives repr of each of ``values``, and of its negation."""
    values = np.asarray(values, dtype=float)
    if negated:
        values = np.concatenate([values, -values])
    text = rowtext.reprs(values, ord(" "))
    mismatched = [(value, got) for value, got in zip(values.tolist(), text.decode("ascii").split(" "))
                  if repr(value) != got]
    assert mismatched == [] and text.count(b" ") == len(values), mismatched[:5]


def test_reprs_match_repr_on_a_million_random_bit_patterns():
    # every exponent, sign and significand, subnormals, inf and nan included
    rng = np.random.default_rng(35)
    assert_reprs(rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False).view(np.float64), negated=False)


def test_reprs_match_repr_on_edge_classes():
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    normal = np.finfo(float).tiny
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    turns = np.array([1e-5, 1e-4, 1e16, 1e17])  # where repr switches between fixed point and exponent
    small_integers = np.arange(2.0**16 + 1)
    big_integers = np.arange(2.0**53 - 2**16, 2.0**53 + 3)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_reprs([0.0, tiny, 2 * tiny, normal, np.nextafter(normal, 0), np.nextafter(normal, 1), huge, np.inf, np.nan])
    for values in (powers_of_ten, turns, small_integers, big_integers, powers_of_two[powers_of_two < huge]):
        assert_reprs(values)
        assert_reprs(np.nextafter(values, 0.0))
        assert_reprs(np.nextafter(values, np.inf))
    assert_reprs(np.ldexp(1.0, np.arange(54)) + 1.0)


def test_reprs_end_each_value_with_its_byte():
    values = np.array([[1.5, -0.0], [np.inf, 1e-300]])  # any shape, read in C order
    assert rowtext.reprs(values, ord("\n")) == b"1.5\n-0.0\ninf\n1e-300\n"
    ends = np.frombuffer(b" \n ,", np.uint8)
    assert rowtext.reprs(values, ends) == b"1.5 -0.0\ninf 1e-300,"
    assert rowtext.reprs(np.zeros(0), ends[:0]) == b""


def floor_log(base, num, den):
    """floor(log_base(num / den)) for positive ints, exactly."""
    k = len(str(num)) - len(str(den)) if base == 10 else num.bit_length() - den.bit_length()
    return k if (num * base**-k >= den if k <= 0 else num >= den * base**k) else k - 1


def test_floor_logs_are_exact_over_every_double():
    for q in range(-1074, 972):
        num, den = (2**q, 1) if q >= 0 else (1, 2**-q)
        assert rowtext._floor_log10_pow2(q) == floor_log(10, num, den), q
        assert rowtext._floor_log10_three_quarters_pow2(q) == floor_log(10, 3 * num, 4 * den), q
    for e in range(-400, 400):
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        assert rowtext._floor_log2_pow10(e) == floor_log(2, num, den), e


def test_powers_of_ten_bracket_the_true_ones():
    # 10**-k = beta 2**(r - 125) with 2**125 <= beta < 2**126, and g = floor(beta) + 1
    k, h, g1, g0 = rowtext._powers()
    for kk, high, low in zip(k.tolist(), g1.tolist(), g0.tolist()):
        g = high << 63 | low
        r = rowtext._floor_log2_pow10(-kk)
        assert 2**125 < g <= 2**126
        if kk <= 0:
            assert (g - 1) << max(r - 125, 0) <= 10**-kk << max(125 - r, 0) < g << max(r - 125, 0)
        else:
            assert (g - 1) * 10**kk <= 2 ** (125 - r) < g * 10**kk


def test_cli_import_leaves_the_formatter_unloaded():
    # the set-up path (problem files, realized problems) neither compiles the
    # formatter nor builds its tables; the writers import it
    script = ("import sys\nimport qrot.cli\nfrom qrot.fileio import default_problem, realize_problem\n"
              "realize_problem(default_problem())\nassert 'qrot.rowtext' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
