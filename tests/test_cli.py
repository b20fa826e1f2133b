import csv
import dataclasses
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from qrot import (
    Algorithm,
    ConvergenceReport,
    DivergenceError,
    DualPotentials,
    Grid1D,
    HistoryEntry,
    MixtureComponent,
    MixtureSpec,
    SolverConfig,
    solve,
)
from qrot import rowtext
from qrot.cli import main
from qrot.fileio import (
    ProblemFile,
    ProblemFileError,
    default_problem,
    load_problem,
    read_matrix,
    realize_problem,
    save_problem,
    write_history_csv,
    write_matrix,
    write_vector,
)
from qrot.pool import _READY
from qrot.problems import COST_KINDS

from conftest import record_processes, running

SRC = Path(__file__).resolve().parent.parent / "src"


def small_problem(n1=6, n2=6, gamma=2.0, cost="squared"):
    return ProblemFile(
        grid1=Grid1D(n1, 0.0, 1.0),
        grid2=Grid1D(n2, 0.0, 1.0),
        marginal1=MixtureSpec(((0.5, 0.3, 0.12), (0.5, 0.7, 0.12))),
        marginal2=MixtureSpec(((1.0, 0.5, 0.2),)),
        cost=cost,
        gamma=gamma,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = [r for r in body if not r[0].startswith("#")]
    footer = {r[0][2:]: r[1] for r in body if r[0].startswith("#")}
    return header, data, footer


def strip_elapsed(path):
    header, data, footer = read_csv(path)
    k = header.index("elapsed_ms")
    return [tuple(v for i, v in enumerate(row) if i != k) for row in data], footer


def test_problem_roundtrip(tmp_path):
    problem = small_problem(gamma=3.5, cost="absolute")
    path = tmp_path / "p.json"
    save_problem(problem, path)
    assert load_problem(path) == problem


def test_problem_file_bytes(tmp_path):
    # the file holds each field as the dataclasses store it, spelled out
    # here so that a new or renamed field shows as a changed file
    stock = {
        "grid1": {"n": 100, "a": 0.0, "b": 1.0},
        "grid2": {"n": 100, "a": 0.0, "b": 1.0},
        "marginal1": [{"weight": 0.5, "mean": 0.25, "std": 0.05}, {"weight": 0.5, "mean": 0.75, "std": 0.05}],
        "marginal2": [{"weight": 0.4, "mean": 0.35, "std": 0.08}, {"weight": 0.6, "mean": 0.65, "std": 0.06}],
        "cost": "squared",
        "gamma": 10.0,
    }
    thirds = MixtureSpec(tuple(MixtureComponent(Fraction(1, 3), k, 0.1) for k in range(3)))
    awkward = ProblemFile(Grid1D(3, np.float32(0.1), Fraction(1, 3)), Grid1D(np.int64(2), -1, 2),
                          thirds, MixtureSpec(((1, 0.5, 0.2),)), "absolute", 5e-324)
    odd = {
        "grid1": {"n": 3, "a": 0.10000000149011612, "b": 0.3333333333333333},
        "grid2": {"n": 2, "a": -1.0, "b": 2.0},
        "marginal1": [
            {"weight": 0.3333333333333333, "mean": 0.0, "std": 0.1},
            {"weight": 0.3333333333333333, "mean": 1.0, "std": 0.1},
            {"weight": 0.3333333333333333, "mean": 2.0, "std": 0.1},
        ],
        "marginal2": [{"weight": 1.0, "mean": 0.5, "std": 0.2}],
        "cost": "absolute",
        "gamma": 5e-324,
    }
    path = tmp_path / "p.json"
    for problem, doc in ((default_problem(), stock), (awkward, odd)):
        save_problem(problem, path)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


def test_problem_constructors_refuse_booleans():
    for build in (
        lambda: Grid1D(True),
        lambda: Grid1D(3, False, True),
        lambda: Grid1D(np.bool_(True)),
        lambda: MixtureComponent(True, 0.5, 0.1),
        lambda: MixtureComponent(1.0, np.bool_(False), 0.1),
        lambda: MixtureComponent(1.0, 0.5, True),
        lambda: small_problem(gamma=True),
        lambda: small_problem(gamma=np.bool_(True)),
    ):
        with pytest.raises(ValueError):
            build()


def test_problem_constructors_refuse_numbers_beyond_float_range():
    huge = 10**400
    for build in (
        lambda: Grid1D(3, 0, huge),
        lambda: Grid1D(3, -huge, 0),
        lambda: Grid1D(3, 0, Fraction(huge)),
        lambda: MixtureComponent(1.0, huge, 0.1),
        lambda: MixtureComponent(1.0, 0.5, Fraction(huge, 3)),
    ):
        with pytest.raises(ValueError, match="must be a finite real number"):
            build()
    with pytest.raises(ProblemFileError, match="'gamma'"):
        small_problem(gamma=huge)


def test_every_built_problem_roundtrips(tmp_path):
    # whatever number types the constructors accept, the file holds plain
    # ints and floats that load back equal
    path = tmp_path / "p.json"
    sizes = (1, 7, np.int64(5), np.uint8(3))
    ends = ((0, 1), (-0.0, 1.0), (np.float32(-0.5), Fraction(1, 3)), (-1e300, np.float64(1e300)))
    gammas = (1, 5e-324, np.float32(2.5), Fraction(1, 3), np.float64(1e300))
    mixtures = (
        MixtureSpec(((1, 0, 1),)),
        MixtureSpec(((np.float32(0.25), -1e10, 1e-300), (0.75, np.int64(2), Fraction(1, 7)))),
        MixtureSpec(tuple(MixtureComponent(Fraction(1, 3), k, 0.1) for k in range(3))),
    )
    for k, (n, (a, b), gamma, mix) in enumerate(itertools.product(sizes, ends, gammas, mixtures)):
        problem = ProblemFile(Grid1D(n, a, b), Grid1D(4, a, b), mix, mixtures[k % 3], COST_KINDS[k % 2], gamma)
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded == problem
        assert type(loaded.grid1.n) is type(problem.grid1.n) is int
        assert type(loaded.gamma) is type(problem.gamma) is float


def test_load_problem_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFileError, match="line"):
        load_problem(path)

    save_problem(small_problem(), tmp_path / "ok.json")
    doc = json.loads((tmp_path / "ok.json").read_text())
    doc["gamma"] = 0.0
    (tmp_path / "gz.json").write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="gamma"):
        load_problem(tmp_path / "gz.json")

    del doc["cost"]
    (tmp_path / "mc.json").write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="cost"):
        load_problem(tmp_path / "mc.json")

    # numbers are taken as the file writes them: no bool as a number, no
    # fraction or bool as a grid size, no integer beyond the float range
    for field, key, value, match in (
        ("gamma", None, True, "'gamma'"),
        ("grid1", "n", 3.7, "'grid1.n'"),
        ("grid2", "n", True, "'grid2.n'"),
        ("gamma", None, 10**400, "'gamma'"),
        ("grid1", "a", -(10**400), "'grid1.a'"),
    ):
        bad = json.loads((tmp_path / "ok.json").read_text())
        if key is None:
            bad[field] = value
        else:
            bad[field][key] = value
        (tmp_path / "coerced.json").write_text(json.dumps(bad))
        with pytest.raises(ProblemFileError, match=match):
            load_problem(tmp_path / "coerced.json")
        # and the CLI reports it as an error line, not a traceback
        capsys.readouterr()
        assert main(["solve", str(tmp_path / "coerced.json"), "--algorithm", "nesterov",
                     "--out", str(tmp_path / "o")]) == 1
        assert f"error: field {match}" in capsys.readouterr().err


def test_history_csv_bytes(tmp_path):
    history = (
        HistoryEntry(1, -0.0, np.float64(2.0 / 3.0), 1e300, 5e-324, 0.25),
        HistoryEntry(7, 1e-06, -3.5e-09, 0.1, np.float64(-0.0), 1.5),
    )
    report = ConvergenceReport(Algorithm.SINKHORN, 7, True, np.zeros((1, 1)),
                               DualPotentials(np.zeros(1), np.zeros(1)), history)
    write_history_csv(tmp_path / "h.csv", report, 0.5, 1e-6)
    assert (tmp_path / "h.csv").read_bytes() == (
        b"iteration,max_violation,dual_objective,primal_objective,duality_gap,elapsed_ms\n"
        b"1,-0.0,0.6666666666666666,1e+300,5e-324,250.0\n"
        b"7,1e-06,-3.5e-09,0.1,-0.0,1500.0\n"
        b"# algorithm,sinkhorn,,,,\n"
        b"# converged,true,,,,\n"
        b"# iterations,7,,,,\n"
        b"# gamma,0.5,,,,\n"
        b"# tol,1e-06,,,,\n"
    )


def test_realize_problem_shapes():
    mu, nu, c = realize_problem(small_problem(5, 7))
    assert mu.w.shape == (5,) and nu.w.shape == (7,) and c.shape == (5, 7)
    assert mu.mass == pytest.approx(nu.mass, abs=1e-12)


def test_matrix_roundtrip(tmp_path):
    arr = np.array([[1.25, -3.5e-9, 0.1], [0.0, 7.0, 1e300], [-0.0, 5e-324, 2.0 / 3.0]])
    write_matrix(tmp_path / "m.txt", arr)
    assert np.array_equal(read_matrix(tmp_path / "m.txt"), arr)
    lines = (tmp_path / "m.txt").read_text().splitlines()
    assert lines[0] == "# 3 3"
    # shortest round-trip reprs, with the sign of zero kept
    assert lines[1:] == ["1.25 -3.5e-09 0.1", "0.0 7.0 1e+300", "-0.0 5e-324 0.6666666666666666"]
    write_vector(tmp_path / "v.txt", arr[2])
    assert (tmp_path / "v.txt").read_text() == "# 3\n-0.0\n5e-324\n0.6666666666666666\n"


def plain_matrix(arr):
    return (f"# {arr.shape[0]} {arr.shape[1]}\n"
            + "".join(" ".join(map(repr, row)) + "\n" for row in arr.tolist())).encode()


def test_write_matrix_is_byte_identical_to_plain_repr_rows(tmp_path, rng):
    # the writer formats only each row's span, from the first to the last cell
    # that is not +0.0, found from the row's bits; its bytes must be those of a
    # repr on every cell, whatever the order of the array in memory and however
    # its rows fall into runs of rowtext.CHUNK span values
    sparse = np.where(rng.random((40, 37)) < 0.05, rng.lognormal(0.0, 3.0, (40, 37)), 0.0)
    sparse[3, 5], sparse[7, 0], sparse[7, 36], sparse[11, 9] = -0.0, 5e-324, -5e-324, 2.2250738585072014e-308
    odd = sparse.copy()
    odd[0, :3] = (np.inf, -np.inf, np.nan)
    odd[1] = -0.0  # a row of -0.0 only
    odd[2, ::2] = 1.5  # a row about half nonzero
    # span ends at the first and last column, inside the row, or one cell alone,
    # with +0.0 cells between them; 0.5 and 1.5 have zero low bytes, 5e-324 zero
    # high bytes and -0.0 a single nonzero byte
    ends = ((0, 8), (2, 6), (3, 4), (0, 0), (8, 8))
    values = list(itertools.product((0.5, 1.5, 5e-324, -0.0), repeat=2))
    spans = np.zeros((len(ends) * len(values), 9))
    for row, ((j, k), (x, y)) in zip(spans, itertools.product(ends, values)):
        row[j], row[k] = x, y
    dense = rng.lognormal(0.0, 3.0, (23, 31))
    runs = np.where(rng.random((40, 1000)) < 0.5, rng.lognormal(-20.0, 10.0, (40, 1000)), 0.0)
    runs[::3, 0] = 0.0
    cases = {
        "sparse": sparse,
        "dense": dense,
        "zeros": np.zeros((5, 6)),
        "odd": odd,
        "columns": sparse.T,  # not C-contiguous
        "fortran": np.asfortranarray(dense),
        "one": np.array([[0.1]]),
        "one zero": np.zeros((1, 1)),
        "one negative zero": np.array([[-0.0]]),
        "one row": dense[:1],
        "one column": sparse[:, 5:6],
        "no columns": np.zeros((3, 0)),
        "no rows": np.zeros((0, 4)),
        "spans": spans,
        "runs": runs,  # three runs of rows
        "long row": np.concatenate([[0.0, 2.5], runs[0], runs[1], runs[2], runs[3]] * 5)[None, 1:],
    }
    assert cases["long row"].shape[1] > rowtext.CHUNK
    for name, arr in cases.items():
        write_matrix(tmp_path / "m.txt", arr)
        assert (tmp_path / "m.txt").read_bytes() == plain_matrix(arr), name


@pytest.mark.parametrize("runs", [2, 3])
def test_write_matrix_counts_the_spans_it_reprs(tmp_path, monkeypatch, runs):
    # each row's span, from its first to its last cell that is not +0.0,
    # zeros between them included, goes to the formatter: 1000 rows with only
    # their end cells set are 300,000 values, in runs of at most
    # rowtext.CHUNK, though only 2,000 cells are nonzero; with a CHUNK of
    # 1000 / runs rows, rounded up, they fall into exactly that many runs
    arr = np.zeros((1000, 300))
    arr[:, 0], arr[:, -1] = 0.25, -3.5
    received = []
    real = rowtext.reprs

    def reprs(values, ends):
        received.append(len(values))
        return real(values, ends)

    monkeypatch.setattr(rowtext, "reprs", reprs)
    write_matrix(tmp_path / "m.txt", arr)
    assert (tmp_path / "m.txt").read_bytes() == plain_matrix(arr)
    assert sum(received) == 300_000 and max(received) <= rowtext.CHUNK
    # a row of +0.0 alone is one value, its last; -0.0 is not +0.0
    edges = np.array([[0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 3.0]])
    assert [list(ends) for ends in rowtext.spans(edges)] == [[2, 1, 0, 1], [3, 2, 1, 3]]
    received.clear()
    write_matrix(tmp_path / "m.txt", edges)
    assert (tmp_path / "m.txt").read_bytes() == plain_matrix(edges)
    assert received == [5]
    assert [list(ends) for ends in rowtext.spans(np.zeros((2, 0)))] == [[0, 0], [0, 0]]
    received.clear()
    monkeypatch.setattr(rowtext, "CHUNK", 300 * -(-1000 // runs))
    write_matrix(tmp_path / "m.txt", arr)
    assert (tmp_path / "m.txt").read_bytes() == plain_matrix(arr)
    assert len(received) == runs and sum(received) == 300_000
    assert received[:-1] == [rowtext.CHUNK] * (runs - 1)


def test_row_parts_carry_about_equal_numbers_of_values(monkeypatch):
    # rowtext.lines cuts the rows into runs, each the most rows whose spans
    # hold at most CHUNK values together, a row with more values alone, and
    # none empty: spans of 1, 5, 5, 1, 1, 10, 1, 12 and 3 values under a
    # CHUNK of 10 are runs of 6, 7, 10, 1, 12 and 3 values
    monkeypatch.setattr(rowtext, "CHUNK", 10)
    lengths = [1, 5, 5, 1, 1, 10, 1, 12, 3]
    rows = np.zeros((len(lengths), 12))
    for row, length in zip(rows, lengths):
        row[12 - length] = row[-1] = 0.5
    rows[0, -1] = 0.0
    assert list(np.subtract(*rowtext.spans(rows)[::-1])) == lengths
    runs = list(rowtext.lines(rows))
    assert [run.count(b"\n") for run in runs] == [2, 3, 1, 1, 1, 1]
    assert (b"# 9 12\n" + b"".join(runs)) == plain_matrix(rows)
    assert [run.count(b"\n") for run in rowtext.lines(np.zeros((3, 0)))] == [3]
    assert list(rowtext.lines(np.zeros((0, 4)))) == []


def test_write_matrix_starts_no_process_and_leaves_no_file(tmp_path, monkeypatch, rng):
    # a dense plan with more values than any run: one process, no thread, and
    # nothing in tempfile's directory
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    tempdir = tmp_path / "tempdir"
    tempdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tempdir))
    threads = threading.active_count()
    arr = rng.lognormal(0.0, 3.0, (400, 400))
    write_matrix(tmp_path / "m.txt", arr)
    assert (tmp_path / "m.txt").read_bytes() == plain_matrix(arr)
    assert threading.active_count() == threads
    assert list(tempdir.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_plan_write_is_an_error(tmp_path, capsys):
    # the plan file is /dev/full, so writing it fails
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "plan_nesterov.txt").symlink_to("/dev/full")
    capsys.readouterr()
    assert main(["solve", str(problem_path), "--algorithm", "nesterov", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_generate_then_solve_converges(tmp_path):
    problem_path = tmp_path / "problem.json"
    assert main(["generate", "--out", str(problem_path), "--cost", "squared", "--gamma", "2.0", "--n", "6"]) == 0
    out = tmp_path / "run"
    code = main(["solve", str(problem_path), "--algorithm", "fixed-point", "--tol", "1e-6", "--out", str(out)])
    assert code == 0
    header, data, footer = read_csv(out / "history_fixed_point.csv")
    assert header == ["iteration", "max_violation", "dual_objective", "primal_objective", "duality_gap", "elapsed_ms"]
    assert footer["algorithm"] == "fixed_point"
    assert footer["converged"] == "true"
    assert float(data[-1][1]) <= 1e-6
    iters = [int(r[0]) for r in data]
    assert iters == sorted(iters)
    assert all(float(r[1]) >= 0 for r in data)
    plan = read_matrix(out / "plan_fixed_point.txt")
    mu, nu, c = realize_problem(load_problem(problem_path))
    assert plan.shape == c.shape


def test_generate_default_gamma_per_cost(tmp_path):
    path = tmp_path / "p.json"
    assert main(["generate", "--out", str(path), "--cost", "absolute"]) == 0
    assert load_problem(path).gamma == 50.0


def test_solve_exit_codes(tmp_path, monkeypatch, capsys):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)

    # iteration cap on a nontrivial problem
    code = main(["solve", str(problem_path), "--algorithm", "gradient", "--max-iters", "1", "--out", str(tmp_path / "o1")])
    assert code == 2

    # malformed input file
    bad = tmp_path / "bad.json"
    bad.write_text('{"gamma": 0}')
    assert main(["solve", str(bad), "--algorithm", "gradient", "--out", str(tmp_path / "o2")]) == 1

    # gamma = 0 names the field
    doc = json.loads(problem_path.read_text())
    doc["gamma"] = 0.0
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(doc))
    assert main(["solve", str(zero), "--algorithm", "gradient", "--out", str(tmp_path / "o3")]) == 1

    # missing file
    assert main(["solve", str(tmp_path / "nope.json"), "--algorithm", "gradient"]) == 1

    # a non-finite gamma is refused before any file is written
    capsys.readouterr()
    inf = tmp_path / "inf.json"
    assert main(["generate", "--out", str(inf), "--gamma", "inf"]) == 1
    assert "error: field 'gamma' must be positive and finite" in capsys.readouterr().err
    assert not inf.exists()

    # bad usage (unknown algorithm) is an input error, not an iteration cap
    assert main(["solve", str(problem_path), "--algorithm", "bogus"]) == 1
    capsys.readouterr()

    # Sinkhorn underflow: costs near 900 make exp(-c / gamma) vanish
    shifted = ProblemFile(
        grid1=Grid1D(4, 0.0, 1.0),
        grid2=Grid1D(5, 30.0, 31.0),
        marginal1=MixtureSpec(((0.5, 0.3, 0.12), (0.5, 0.7, 0.12))),
        marginal2=MixtureSpec(((1.0, 30.5, 0.2),)),
        cost="squared",
        gamma=1.0,
    )
    save_problem(shifted, tmp_path / "shifted.json")
    code = main(["solve", str(tmp_path / "shifted.json"), "--algorithm", "sinkhorn", "--out", str(tmp_path / "o4")])
    assert code == 1
    assert "error: Sinkhorn denominator underflowed" in capsys.readouterr().err

    # a diverging solve is an error line, and no output directory is left behind
    code = main(["solve", str(problem_path), "--algorithm", "gradient", "--tau", "1e200", "--out", str(tmp_path / "o5")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dual_gradient produced a non-finite iterate")
    assert err.endswith("; try a smaller stepsize or larger gamma\n")
    assert not (tmp_path / "o5").exists()

    # Sinkhorn takes no stepsize, so its divergence suggests none
    tiny_gamma = tmp_path / "tiny_gamma.json"
    assert main(["generate", "--n", "8", "--gamma", "1e-6", "--out", str(tiny_gamma)]) == 0
    capsys.readouterr()
    assert main(["solve", str(tiny_gamma), "--algorithm", "sinkhorn", "--out", str(tmp_path / "o8")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sinkhorn produced a non-finite iterate") and err.endswith("; try a larger gamma\n")

    # an allocation the machine cannot serve (simulated; nothing is allocated)
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setattr("qrot.cli.save_problem", out_of_memory)
    monkeypatch.setattr("qrot.cli.realize_problem", out_of_memory)
    for argv in (
        ["generate", "--out", str(tmp_path / "g.json")],
        ["solve", str(problem_path), "--algorithm", "gradient", "--out", str(tmp_path / "o6")],
        ["compare", str(problem_path), "--out", str(tmp_path / "o7")],
        ["oracle-check", str(problem_path)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"


def test_compare_writes_artifacts_and_is_deterministic(tmp_path):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["compare", str(problem_path), "--tol", "1e-7", "--max-iters", "20000", "--out", str(out)])
        assert code == 0
        outs.append(out)

    names = [
        "history_cyclic_projection.csv",
        "history_dual_gradient.csv",
        "history_fixed_point.csv",
        "history_nesterov.csv",
    ]
    for name in names:
        assert (outs[0] / name).exists()
        assert strip_elapsed(outs[0] / name) == strip_elapsed(outs[1] / name)

    svg = outs[0] / "compare.svg"
    root = ET.parse(svg).getroot()  # well-formed XML
    assert root.tag.endswith("svg")
    labels = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert {"cyclic_projection", "dual_gradient", "fixed_point", "nesterov"} <= labels
    assert len([el for el in root.iter() if el.tag.endswith("polyline")]) == 4


def test_compare_one_cell_problem(tmp_path):
    problem = ProblemFile(
        grid1=Grid1D(1, 0.0, 1.0),
        grid2=Grid1D(1, 0.0, 1.0),
        marginal1=MixtureSpec(((1.0, 0.5, 0.1),)),
        marginal2=MixtureSpec(((1.0, 0.5, 0.1),)),
        cost="squared",
        gamma=1.0,
    )
    path = tmp_path / "one.json"
    save_problem(problem, path)
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 0
    for name in ("cyclic_projection", "dual_gradient", "fixed_point", "nesterov"):
        _, data, footer = read_csv(tmp_path / "out" / f"history_{name}.csv")
        assert int(footer["iterations"]) <= 3


def test_compare_unwritable_out_dir(tmp_path):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["compare", str(problem_path), "--out", str(blocker)]) == 1


def test_oracle_check_small_fixture(tmp_path):
    problem = ProblemFile(
        grid1=Grid1D(2, 0.0, 1.0),
        grid2=Grid1D(2, 0.0, 1.0),
        marginal1=MixtureSpec(((1.0, 0.4, 0.3),)),
        marginal2=MixtureSpec(((1.0, 0.6, 0.25),)),
        cost="squared",
        gamma=1.0,
    )
    path = tmp_path / "tiny.json"
    save_problem(problem, path)
    assert main(["oracle-check", str(path)]) == 0


def test_oracle_check_random_4x4_seeds(tmp_path, rng):
    for seed in range(5):
        local = np.random.default_rng(1000 + seed)
        comps1 = ((0.5, float(local.uniform(0.1, 0.4)), float(local.uniform(0.05, 0.3))),
                  (0.5, float(local.uniform(0.6, 0.9)), float(local.uniform(0.05, 0.3))))
        comps2 = ((1.0, float(local.uniform(0.3, 0.7)), float(local.uniform(0.1, 0.4))),)
        problem = ProblemFile(
            grid1=Grid1D(4, 0.0, 1.0),
            grid2=Grid1D(4, 0.0, 1.0),
            marginal1=MixtureSpec(comps1),
            marginal2=MixtureSpec(comps2),
            cost="squared",
            gamma=float(local.uniform(0.5, 5.0)),
        )
        path = tmp_path / f"p{seed}.json"
        save_problem(problem, path)
        assert main(["oracle-check", str(path)]) == 0


def test_oracle_check_stock_n10(tmp_path, capsys):
    # 100 cells: all four dual methods against the oracle on a stock problem
    path = tmp_path / "t10.json"
    assert main(["generate", "--n", "10", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["oracle-check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("all plans within 1e-06 of the exact solution\n")


def test_oracle_check_bound_guard(tmp_path, capsys):
    problem = small_problem(101, 100)  # N + M = 201
    path = tmp_path / "big.json"
    save_problem(problem, path)
    assert main(["oracle-check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "N + M = 201" in captured.err, captured.err


def test_cli_flags_are_the_solver_configs(tmp_path, monkeypatch, capsys):
    # solve and compare take every run flag; oracle-check its own defaults, no history
    path = tmp_path / "p.json"
    problem = small_problem()
    save_problem(problem, path)
    configs = []
    monkeypatch.setattr("qrot.cli.solve", lambda mu, nu, c, config: configs.append(config) or solve(mu, nu, c, config))
    monkeypatch.setattr("qrot.cli.usable_cpus", lambda: 1)
    flags = ["--tol", "1e-7", "--max-iters", "123", "--tau", "0.01", "--history-stride", "3"]
    main(["solve", str(path), "--algorithm", "gradient", *flags, "--out", str(tmp_path / "s")])
    main(["compare", str(path), *flags, "--out", str(tmp_path / "c")])
    main(["oracle-check", str(path)])
    capsys.readouterr()
    ran = [Algorithm.DUAL_GRADIENT, Algorithm.CYCLIC_PROJECTION, Algorithm.DUAL_GRADIENT, Algorithm.FIXED_POINT,
           Algorithm.NESTEROV]
    assert configs[:5] == [SolverConfig(problem.gamma, a, 1e-7, 123, 0.01, True, 3) for a in ran]
    assert configs[5:] == [SolverConfig(problem.gamma, a, 1e-9, 200_000, None, False) for a in ran[1:]]


# -- compare across processes ---------------------------------------------

COMPARED = ("cyclic_projection", "dual_gradient", "fixed_point", "nesterov")


def wait_for(condition, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def wait_out_helpers(started):
    """Wait until helper processes have started and then all exited."""
    wait_for(lambda: started, "a helper process to start")
    wait_for(lambda: not running(started), "the helper processes to exit")


def run_compare(monkeypatch, capsys, argv, cpus, started, parent_solve=None):
    """``main(["compare", *argv])`` with ``cpus`` usable CPUs; ``parent_solve``
    replaces ``solve`` in the CLI process.  ``started``, from record_processes,
    holds the helper processes of this run alone: all of them start at once,
    and none is left when it ends."""
    monkeypatch.setattr("qrot.cli.usable_cpus", lambda: cpus)
    if parent_solve is not None:
        monkeypatch.setattr("qrot.cli.solve", parent_solve)
    started.clear()
    capsys.readouterr()
    code = main(["compare", *argv])
    out, err = capsys.readouterr()
    assert len(started) == min(cpus, 4) - 1 and running(started) == []
    return code, out, err


class CountedWrites:
    """A pipe that counts the bytes written to it and the flushes done."""

    def __init__(self, pipe):
        self.pipe, self.written, self.flushed = pipe, 0, 0

    def write(self, data):
        self.written += memoryview(data).nbytes
        return self.pipe.write(data)

    def flush(self):
        self.pipe.flush()
        self.flushed += 1

    def __getattr__(self, name):
        return getattr(self.pipe, name)


def count_sent_bytes(monkeypatch, stop=False):
    """The stdin of each process started from now on, as a list of
    CountedWrites; with ``stop``, each process is stopped (SIGSTOP) at once."""
    pipes = []
    real = subprocess.Popen

    def popen(*args, **kwargs):
        proc = real(*args, **kwargs)
        if stop:
            os.kill(proc.pid, signal.SIGSTOP)
        proc.stdin = CountedWrites(proc.stdin)
        pipes.append(proc.stdin)
        return proc

    monkeypatch.setattr(subprocess, "Popen", popen)
    return pipes


def compare_artifacts(out):
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if path.suffix == ".csv":
            files[path.name] = strip_elapsed(path)
        else:
            files[path.name] = path.read_bytes()
    return files


def test_compare_in_helper_processes_matches_one_process(tmp_path, monkeypatch, capsys):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    one_cell = tmp_path / "one.json"
    save_problem(ProblemFile(Grid1D(1, 0.0, 1.0), Grid1D(1, 0.0, 1.0), MixtureSpec(((1.0, 0.5, 0.1),)),
                             MixtureSpec(((1.0, 0.5, 0.1),)), "squared", 1.0), one_cell)
    cases = {
        "tol": ([str(problem_path), "--tol", "1e-7"], 0),
        "cap": ([str(problem_path), "--max-iters", "40"], 2),
        "diverging": ([str(problem_path), "--tau", "1e200"], 1),
        "one-cell": ([str(one_cell)], 0),
    }
    started = record_processes(monkeypatch)
    for name, (argv, expected_code) in cases.items():
        runs = []
        for cpus in (1, 2, 4):
            solved_here = []

            def parent_solve(mu, nu, c, config, cpus=cpus, solved_here=solved_here):
                # the CLI process waits until the helpers have solved all they could take
                if cpus > 1 and not solved_here:
                    wait_out_helpers(started)
                solved_here.append(config.algorithm.value)
                return solve(mu, nu, c, config)

            out = tmp_path / f"{name}-{cpus}"
            code, stdout, stderr = run_compare(monkeypatch, capsys, argv + ["--out", str(out)], cpus, started,
                                               parent_solve)
            runs.append((code, stdout.replace(str(out), "OUT"), stderr.replace(str(out), "OUT"), compare_artifacts(out)))
            # in one process everything is solved here, with helpers only the first method
            assert solved_here == (list(COMPARED[:2] if name == "diverging" else COMPARED) if cpus == 1
                                   else ["cyclic_projection"]), (name, cpus, solved_here)
        assert runs[0] == runs[1] == runs[2], name
        code, _, stderr, files = runs[0]
        assert code == expected_code, (name, stderr)
        if name == "diverging":
            assert list(files) == ["history_cyclic_projection.csv"]
            assert stderr.startswith("error: dual_gradient produced a non-finite iterate")
        else:
            assert list(files) == ["compare.svg"] + [f"history_{m}.csv" for m in COMPARED]


def test_compare_leaves_no_process_behind(tmp_path, monkeypatch, capsys):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    started = record_processes(monkeypatch)

    # success: the CLI process solves everything while a helper is still starting
    def after_helper_starts(mu, nu, c, config):
        wait_for(lambda: started, "a helper process to start")
        return solve(mu, nu, c, config)

    code, _, _ = run_compare(monkeypatch, capsys, [str(problem_path), "--out", str(tmp_path / "a")], 2, started,
                             after_helper_starts)
    assert code == 0

    # a divergence in the CLI process, while a helper is still starting
    def diverge_here(mu, nu, c, config):
        wait_for(lambda: started, "a helper process to start")
        raise DivergenceError(config.algorithm, 1)

    code, _, err = run_compare(monkeypatch, capsys, [str(problem_path), "--out", str(tmp_path / "b")], 2, started,
                               diverge_here)
    assert code == 1 and err.startswith("error: cyclic_projection produced a non-finite iterate at iteration 1")
    assert not (tmp_path / "b").exists()

    # a divergence in a helper: gradient descent diverges there at once, while
    # fixed point and Nesterov run on in two more helpers towards a tolerance
    # they cannot reach, and are stopped
    def after_divergence(mu, nu, c, config):
        wait_for(lambda: len(running(started)) == 3, "three helper processes to start")
        wait_for(lambda: len(running(started)) < 3, "a helper process to exit")
        return solve(mu, nu, c, dataclasses.replace(config, max_iters=5))

    argv = [str(problem_path), "--tau", "1e200", "--tol", "1e-300", "--max-iters", "100000000",
            "--out", str(tmp_path / "c")]
    code, _, err = run_compare(monkeypatch, capsys, argv, 4, started, after_divergence)
    assert code == 1 and err.startswith("error: dual_gradient produced a non-finite iterate")
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["history_cyclic_projection.csv"]


def test_compare_solved_before_its_helper_is_ready_sends_it_nothing(tmp_path, monkeypatch, capsys):
    # the helper is stopped as soon as it starts, so it never says it is
    # ready: the CLI process solves all four methods, and the helper is
    # killed and reaped without a byte on its stdin, the problem least of all
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    started = record_processes(monkeypatch)
    pipes = count_sent_bytes(monkeypatch, stop=True)
    runs = []
    for cpus in (1, 2):
        out = tmp_path / str(cpus)
        code, stdout, stderr = run_compare(monkeypatch, capsys, [str(problem_path), "--out", str(out)], cpus, started)
        runs.append((code, stdout.replace(str(out), "OUT"), stderr, compare_artifacts(out)))
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert [pipe.written for pipe in pipes] == [0]
    assert started[0].returncode == -signal.SIGKILL


def test_helper_killed_mid_solve_is_an_error_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    # the helper solves gradient descent towards a tolerance it cannot reach
    # and is killed once it has been sent the problem and its first index;
    # the CLI process then solves cyclic projection, whose history alone is written
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    started = record_processes(monkeypatch)
    pipes = count_sent_bytes(monkeypatch)

    def kill_the_helper(mu, nu, c, config):
        wait_for(lambda: pipes and pipes[0].flushed, "the helper to be sent the problem")
        time.sleep(0.2)  # the helper is solving by now
        started[0].send_signal(signal.SIGKILL)
        return solve(mu, nu, c, dataclasses.replace(config, max_iters=5))

    out = tmp_path / "out"
    argv = [str(problem_path), "--tol", "1e-300", "--max-iters", "100000000", "--out", str(out)]
    code, stdout, err = run_compare(monkeypatch, capsys, argv, 2, started, kill_the_helper)
    assert (code, stdout) == (1, "")
    assert err == "error: the helper process solving dual_gradient failed: EOFError('Ran out of input')\n"
    assert [p.name for p in out.iterdir()] == ["history_cyclic_projection.csv"]
    assert started[0].returncode == -signal.SIGKILL


def test_helper_returns_solver_errors_as_the_cli_process_raises_them(tmp_path, monkeypatch, capsys):
    # every exception a solve can raise and main reports, after the trip from a
    # helper process (started here, with qrot.solvers.solve raising each in
    # turn), gives the same error line and exit 1 as when the CLI process
    # raises it itself
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    raised = [
        DivergenceError(Algorithm.NESTEROV, 7),
        ZeroDivisionError("Sinkhorn denominator underflowed; increase gamma"),
        MemoryError(),
        ValueError("cost matrix must be finite"),
    ]
    script = (
        "import qrot.solvers\n"
        "from qrot import Algorithm, DivergenceError\n"
        "from qrot.pool import _helper\n"
        "raised = [DivergenceError(Algorithm.NESTEROV, 7),\n"
        "          ZeroDivisionError('Sinkhorn denominator underflowed; increase gamma'),\n"
        "          MemoryError(), ValueError('cost matrix must be finite')]\n"
        "def solve(mu, nu, c, config):\n"
        "    raise raised[config.max_iters - 1]\n"
        "qrot.solvers.solve = solve\n"
        "_helper()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    helper = subprocess.Popen([sys.executable, "-c", script], env=env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert helper.stdout.read(1) == _READY
        configs = [SolverConfig(gamma=1.0, algorithm=Algorithm.NESTEROV, max_iters=k + 1) for k in range(len(raised))]
        pickle.dump((None, None, None, configs), helper.stdin)
        arrived = []
        for index in range(len(raised)):
            pickle.dump(index, helper.stdin)
            helper.stdin.flush()
            arrived.append(pickle.load(helper.stdout))
        helper.stdin.close()  # the end of its stdin ends the helper, without a word
        assert helper.wait(timeout=60) == 1
        assert (helper.stdout.read(), helper.stderr.read()) == (b"", b"")
    finally:
        helper.kill()
        helper.wait()
        helper.stdout.close()
        helper.stderr.close()

    lines = []
    started = record_processes(monkeypatch)
    for exc in raised + arrived:
        def fail(mu, nu, c, config, exc=exc):
            raise exc

        code, _, err = run_compare(monkeypatch, capsys, [str(problem_path), "--out", str(tmp_path / "o")], 1,
                                   started, fail)
        lines.append((type(exc), code, err))
    assert lines[:4] == lines[4:]
    assert [code for _, code, _ in lines] == [1] * 8
    assert lines[2][2] == "error: MemoryError\n"
    assert (arrived[0].algorithm, arrived[0].iteration) == (Algorithm.NESTEROV, 7)


def test_out_that_is_a_file_is_refused_before_any_solve(tmp_path, monkeypatch, capsys):
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")

    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr("qrot.cli.solve", no_solve)
    monkeypatch.setattr("qrot.cli.usable_cpus", lambda: 4)
    started = record_processes(monkeypatch)
    for argv in (["solve", str(problem_path), "--algorithm", "nesterov"], ["compare", str(problem_path)]):
        capsys.readouterr()
        assert main(argv + ["--out", str(blocker)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{blocker}'\n"
        assert started == []
    assert blocker.read_text() == "a file, not a directory"


def test_solve_starts_no_helper_and_a_short_compare_reaps_its_unused_one(tmp_path):
    # on two CPUs; in a fresh interpreter, which must not import
    # multiprocessing, and whose compare starts no helper without an
    # interpreter to run it
    problem_path = tmp_path / "problem.json"
    save_problem(small_problem(), problem_path)
    script = (
        "import subprocess, sys\n"
        "import qrot.cli as cli\n"
        "started = []\n"
        "real_popen = subprocess.Popen\n"
        "def popen(*args, **kwargs):\n"
        "    started.append(real_popen(*args, **kwargs))\n"
        "    return started[-1]\n"
        "subprocess.Popen = popen\n"
        "cli.usable_cpus = lambda: 2\n"
        f"assert cli.main(['solve', {str(problem_path)!r}, '--algorithm', 'nesterov', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "assert started == []\n"
        f"assert cli.main(['compare', {str(problem_path)!r}, '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        "assert len(started) == 1 and started[0].returncode is not None\n"
        "sys.executable = ''\n"
        f"assert cli.main(['compare', {str(problem_path)!r}, '--out', {str(tmp_path / 'e')!r}]) == 0\n"
        "assert len(started) == 1\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
