import csv
import json
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from qrot import Algorithm, ConvergenceReport, DualPotentials, Grid1D, HistoryEntry, MixtureSpec
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


def test_load_problem_diagnostics(tmp_path):
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
    # fraction or bool as a grid size
    for field, key, value, match in (
        ("gamma", None, True, "'gamma'"),
        ("grid1", "n", 3.7, "'grid1.n'"),
        ("grid2", "n", True, "'grid2.n'"),
    ):
        bad = json.loads((tmp_path / "ok.json").read_text())
        if key is None:
            bad[field] = value
        else:
            bad[field][key] = value
        (tmp_path / "coerced.json").write_text(json.dumps(bad))
        with pytest.raises(ProblemFileError, match=match):
            load_problem(tmp_path / "coerced.json")


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

    # an allocation the machine cannot serve (simulated; nothing is allocated)
    def out_of_memory(problem):
        raise MemoryError()

    monkeypatch.setattr("qrot.cli.realize_problem", out_of_memory)
    assert main(["solve", str(problem_path), "--algorithm", "gradient", "--out", str(tmp_path / "o5")]) == 1
    assert "error: MemoryError" in capsys.readouterr().err


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


def test_oracle_check_bound_guard(tmp_path):
    problem = small_problem(5, 4)  # 20 cells
    path = tmp_path / "big.json"
    save_problem(problem, path)
    assert main(["oracle-check", str(path)]) == 1
