"""One set-up in a fresh interpreter, timed from outside by run.py.

Imports qrot, writes the problem file with fileio.save_problem,
reads it back and realizes the arrays, then prints a digest of the arrays
so the parent can check they equal its own.

    python3 perfbench/setup_probe.py N GAMMA SEED PROBLEM_PATH
"""

import hashlib
import sys

from qrot.fileio import load_problem, realize_problem, save_problem

from workloads import make_problem


def digest(mu, nu, c) -> str:
    h = hashlib.sha256()
    for arr in (mu.w, nu.w, c):
        h.update(arr.tobytes())
    return h.hexdigest()


def main(argv):
    n, gamma, seed, path = argv
    save_problem(make_problem(int(n), float(gamma), int(seed)), path)
    print(digest(*realize_problem(load_problem(path))))


if __name__ == "__main__":
    main(sys.argv[1:])
