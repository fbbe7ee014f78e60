import json

import numpy as np
import pytest

import mindisc as md
from mindisc import cli


def run(argv, capsys=None):
    code = cli.main([str(a) for a in argv])
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


def make_problem(path, ens, povm=None):
    path.write_text(cli.problem_to_json(ens, povm))
    return path


def test_generate_trine_round_trips(tmp_path):
    out = tmp_path / "trine.json"
    assert run(["generate", "--kind", "trine", "--output", out])[0] == 0
    problem = cli.load_problem(out)
    assert len(problem.ensemble) == 3
    assert np.allclose(problem.ensemble.priors, 1.0 / 3.0)
    # byte-stable round trip: parse then re-serialize reproduces the file
    assert cli.problem_to_json(problem.ensemble) == out.read_text()


def test_generate_orthogonal_pair(tmp_path):
    out = tmp_path / "pair.json"
    assert run(["generate", "--kind", "pair", "--overlap", 0, "--output", out])[0] == 0
    ens = cli.load_problem(out).ensemble
    assert np.max(np.abs(ens.states[0].mat @ ens.states[1].mat)) <= 1e-12


def test_generate_random_is_seeded(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--kind", "random", "--dim", 2, "--n", 3, "--seed", 7]
    assert run(args + ["--output", first])[0] == 0
    assert run(args + ["--output", second])[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_rejects_bad_overlap(tmp_path):
    code = run(["generate", "--kind", "pair", "--overlap", 1.5,
                "--output", tmp_path / "x.json"])[0]
    assert code == cli.EXIT_VALIDATION


def test_certify_optimal_exit_zero(tmp_path, capsys):
    ens = md.pure_pair(0.0)
    povm = md.validate_povm([s.mat for s in ens.states])
    path = make_problem(tmp_path / "p.json", ens, povm)
    code, captured = run(["certify", path], capsys)
    assert code == 0
    assert "OPTIMAL" in captured.out


def test_certify_suboptimal_prints_witness(tmp_path, capsys):
    path = make_problem(tmp_path / "p.json", md.trine(), md.uniform_povm(3, 2))
    code, captured = run(["certify", path, "--report", tmp_path / "r.json"], capsys)
    assert code == cli.EXIT_NOT_OPTIMAL
    assert "witness" in captured.out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["certificate"]["verdict"] == "not_optimal"
    assert report["certificate"]["witness"]["eigenvalue"] < 0


def test_certify_requires_povm(tmp_path):
    path = make_problem(tmp_path / "p.json", md.trine())
    assert run(["certify", path])[0] == cli.EXIT_PARSE


def test_certify_missing_file():
    assert run(["certify", "no-such-file.json"])[0] == cli.EXIT_NOT_FOUND


def test_certify_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["certify", path])[0] == cli.EXIT_PARSE


def test_certify_non_square_matrix_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "dim": 2,
        "states": [
            {"prior": 1.0, "matrix": [[[1, 0], [0, 0]]]},
        ],
        "povm": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
    }
    path.write_text(json.dumps(doc))
    assert run(["certify", path])[0] == cli.EXIT_PARSE


def test_certify_invalid_state_is_validation_error(tmp_path):
    doc = {
        "dim": 2,
        "states": [
            {"prior": 1.0, "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
        ],
        "povm": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", path])[0] == cli.EXIT_VALIDATION


def test_zero_prior_warning(tmp_path, capsys):
    ens = md.Ensemble([1.0, 0.0], (md.pure_state([1, 0]), md.pure_state([0, 1])))
    povm = md.validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    path = make_problem(tmp_path / "p.json", ens, povm)
    _, captured = run(["certify", path], capsys)
    assert "zero-prior" in captured.err


def test_solve_pure_pair_report(tmp_path, capsys):
    out = tmp_path / "pair.json"
    run(["generate", "--kind", "pair", "--overlap", 0.5, "--output", out])
    code, captured = run(
        ["solve", out, "--output", tmp_path / "sol.json", "--report", tmp_path / "r.json"],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["p_corr"] == pytest.approx(0.5 * (1 + np.sqrt(3) / 2), abs=1e-6)
    assert report["p_err"] == pytest.approx(1 - report["p_corr"], abs=0)
    assert report["certificate"]["verdict"] == "optimal"
    assert report["solver"]["converged"] is True
    assert len(report["input_sha256"]) == 64


def test_solve_then_certify_consistent_verdict(tmp_path):
    problem = tmp_path / "trine.json"
    run(["generate", "--kind", "trine", "--output", problem])
    solution = tmp_path / "solution.json"
    report = tmp_path / "report.json"
    code = run(["solve", problem, "--max-iter", 400, "--output", solution,
                "--report", report])[0]
    assert code == 0
    parsed = json.loads(report.read_text())
    assert parsed["certificate"]["verdict"] == "optimal"
    assert parsed["p_corr"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    # certifying the emitted solution reproduces the verdict
    assert run(["certify", solution])[0] == 0


def test_solve_deterministic_reports(tmp_path):
    problem = tmp_path / "rand.json"
    run(["generate", "--kind", "random", "--dim", 2, "--n", 2, "--seed", 11,
         "--output", problem])
    outs = []
    for tag in ("one", "two"):
        report = tmp_path / f"report-{tag}.json"
        solution = tmp_path / f"solution-{tag}.json"
        code = run(["solve", problem, "--seed", 3, "--output", solution,
                    "--report", report])[0]
        assert code == 0
        outs.append((report.read_bytes(), solution.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_start_srm(tmp_path):
    problem = tmp_path / "trine.json"
    run(["generate", "--kind", "trine", "--output", problem])
    report = tmp_path / "report.json"
    code = run(["solve", problem, "--start", "srm", "--output", tmp_path / "s.json",
                "--report", report])[0]
    assert code == 0
    assert json.loads(report.read_text())["solver"]["iterations"] == 0


def test_solve_start_file_requires_povm(tmp_path):
    problem = make_problem(tmp_path / "p.json", md.trine())
    assert run(["solve", problem, "--start", "file"])[0] == cli.EXIT_PARSE


def test_solve_start_file_uses_given_povm(tmp_path):
    ens = md.pure_pair(0.0)
    povm = md.validate_povm([s.mat for s in ens.states])
    problem = make_problem(tmp_path / "p.json", ens, povm)
    report = tmp_path / "r.json"
    code = run(["solve", problem, "--start", "file", "--output", tmp_path / "s.json",
                "--report", report])[0]
    assert code == 0
    assert json.loads(report.read_text())["solver"]["iterations"] == 0


def test_solve_default_output_path(tmp_path):
    problem = tmp_path / "prob.json"
    run(["generate", "--kind", "pair", "--overlap", 0.25, "--output", problem])
    assert run(["solve", problem])[0] == 0
    assert (tmp_path / "prob.solution.json").exists()


def test_spec_file_input(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"spec": {"kind": "random", "dim": 2, "n": 2, "seed": 4}}))
    problem = cli.load_problem(path)
    assert len(problem.ensemble) == 2
    reference = md.random_mixed(2, 2, seed=4)
    for a, b in zip(problem.ensemble.states, reference.states):
        assert np.array_equal(a.mat, b.mat)


def test_spec_and_states_conflict(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "dim": 2,
        "states": [{"prior": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        "spec": {"kind": "trine"},
    }))
    with pytest.raises(cli.ProblemFormatError):
        cli.load_problem(path)


def test_unknown_spec_kind(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"spec": {"kind": "mystery"}}))
    assert run(["solve", path])[0] == cli.EXIT_PARSE


def test_report_floats_round_trip_exactly(tmp_path):
    problem = tmp_path / "p.json"
    run(["generate", "--kind", "random", "--dim", 3, "--n", 3, "--seed", 2,
         "--output", problem])
    loaded = cli.load_problem(problem)
    reference = md.random_mixed(3, 3, seed=2)
    for a, b in zip(loaded.ensemble.states, reference.states):
        assert np.array_equal(a.mat, b.mat)
    assert np.array_equal(loaded.ensemble.priors, reference.priors)


def test_canonical_dump_sorts_keys():
    text = cli.dumps_canonical({"b": 1, "a": [1.5, 2]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_non_finite_state_is_validation_error(tmp_path):
    path = tmp_path / "nan.json"
    doc = {
        "dim": 2,
        "states": [
            {"prior": 0.5, "matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"prior": 0.5, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        ],
    }
    path.write_text(json.dumps(doc))
    assert "NaN" in path.read_text()
    assert run(["solve", path, "--output", tmp_path / "sol.json"])[0] == cli.EXIT_VALIDATION
