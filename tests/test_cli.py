import contextlib
import gc
import json
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
from helpers import BAD_STATES, count_calls, padded_bad_states
from mindisc import cli, ensembles, matrices
from mindisc.matrices import _hermitian_part


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


def test_solve_report_states_gap_bound(tmp_path, capsys):
    problem = tmp_path / "spec.json"
    problem.write_text(json.dumps({"spec": {"kind": "random", "dim": 3, "n": 3, "seed": 1}}))
    report_path = tmp_path / "r.json"
    code, captured = run(["solve", problem, "--report", report_path], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    certificate = report["certificate"]
    # the bound is the smaller of d mu and the witnesses' negative trace
    mu = max(0.0, -min(certificate["witness_min_eigenvalues"]))
    assert 0.0 <= certificate["gap_bound"] <= 3 * mu
    assert "optimality gap bound: P_opt - P_corr <= " in captured.out


def test_solve_report_solver_block(tmp_path, capsys):
    problem = tmp_path / "trine.json"
    run(["generate", "--kind", "trine", "--output", problem])
    report = tmp_path / "r.json"
    code, captured = run(["solve", problem, "--seed", 5, "--report", report], capsys)
    assert code == 0
    solver = json.loads(report.read_text())["solver"]
    assert set(solver) == {"start", "seed", "converged", "iterations"}
    assert solver["seed"] == 5
    assert f"iterations={solver['iterations']}, seed 5" in captured.out
    assert "(total" not in captured.out


def test_solve_then_certify_consistent_verdict(tmp_path):
    problem = tmp_path / "trine.json"
    run(["generate", "--kind", "trine", "--output", problem])
    solution = tmp_path / "solution.json"
    report = tmp_path / "report.json"
    code = run(["solve", problem, "--max-iter", 2400, "--output", solution,
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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_validation_error_before_any_work(tmp_path, tol):
    problem = tmp_path / "r.json"
    run(["generate", "--kind", "random", "--dim", 3, "--n", 3, "--seed", 1, "--output", problem])
    assert run(["solve", problem, "--tol", tol])[0] == cli.EXIT_VALIDATION
    assert not (tmp_path / "r.solution.json").exists()
    trine = tmp_path / "t.json"
    run(["generate", "--kind", "trine", "--output", trine])
    run(["solve", trine, "--start", "srm"])
    assert run(["certify", tmp_path / "t.solution.json", "--tol", tol])[0] == cli.EXIT_VALIDATION


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


def test_spec_accepts_integral_floats(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": 2.0, "spec": {"kind": "random", "dim": 2.0, "n": 3.0, "seed": 4.0}}))
    problem = cli.load_problem(path)
    reference = md.random_mixed(2, 3, seed=4)
    for a, b in zip(problem.ensemble.states, reference.states):
        assert np.array_equal(a.mat, b.mat)


@pytest.mark.parametrize(
    "doc",
    [
        {"spec": {"kind": "random", "dim": [2], "n": 2, "seed": 1}},
        {"spec": {"kind": "random", "dim": "x", "n": 2, "seed": 1}},
        {"spec": {"kind": "random", "dim": 2, "n": 2, "seed": float("inf")}},
        {"spec": {"kind": "pair", "overlap": None}},
        {"spec": {"kind": "pair", "priors": [0.5, None]}},
        {"dim": [2], "spec": {"kind": "trine"}},
        {"spec": {"kind": "random", "dim": 2.7, "n": 2.9, "seed": 1.5}},
        {"spec": {"kind": "random", "dim": 2, "n": 2, "seed": 1.5}},
        {"dim": 2.5, "spec": {"kind": "trine"}},
        {"dim": True, "states": [{"prior": 1.0, "matrix": [[[1, 0]]]}]},
    ],
)
def test_malformed_spec_fields_are_parse_errors(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", path])[0] == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"spec": 3}, "spec: expected an object with a 'kind' key"),
        ({"spec": {"kind": "pair", "priors": [1]}}, "spec.priors: expected two numbers"),
        ({"spec": {"kind": "random", "dim": 2, "n": 2}}, "spec.seed: required for kind 'random'"),
    ],
    ids=["spec-not-an-object", "pair-priors", "random-seed"],
)
def test_malformed_spec_is_parse_error_with_its_message(tmp_path, capsys, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, captured = run(["solve", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {message}\n"


_QUBIT = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 2, "states": []}, "'states' must be a nonempty list"),
        ({"dim": 2, "states": [3]}, "states[0] must carry 'prior' and 'matrix'"),
        ({"dim": 2, "states": [{"prior": "1", "matrix": _QUBIT}]}, "states[0].prior must be a number"),
        ({"dim": 2, "states": [{"prior": 1, "matrix": _QUBIT}], "povm": []},
         "'povm' must be a nonempty list"),
    ],
    ids=["states-empty", "state-fields", "prior-type", "povm-empty"],
)
def test_malformed_structure_is_parse_error_with_its_path(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {path}: {message}\n"


@pytest.mark.parametrize(
    "priors, message",
    [("0.5", "--priors expects two comma-separated numbers, got '0.5'"),
     ("a,b", "--priors: could not convert string to float: 'a'")],
)
def test_generate_pair_rejects_malformed_priors(tmp_path, capsys, priors, message):
    out = tmp_path / "pair.json"
    code, captured = run(["generate", "--kind", "pair", "--priors", priors, "--output", out], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {message}\n"
    assert not out.exists()


def test_pair_spec_file_loads_as_pure_pair(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"spec": {"kind": "pair", "overlap": 0.3, "priors": [0.2, 0.8]}}))
    loaded = cli.load_problem(path).ensemble
    reference = md.pure_pair(0.3, (0.2, 0.8))
    assert loaded.priors.tobytes() == reference.priors.tobytes()
    for a, b in zip(loaded.states, reference.states, strict=True):
        assert a.mat.tobytes() == b.mat.tobytes()
    assert loaded.weighted_states.tobytes() == reference.weighted_states.tobytes()


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


def test_canonical_dump_of_an_empty_object():
    assert cli.dumps_canonical({}) == "{}\n"


def test_canonical_dump_rejects_a_value_json_cannot_hold():
    with pytest.raises(TypeError):
        cli.dumps_canonical({"a": object()})


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


def test_generate_non_finite_priors_is_validation_error(tmp_path):
    code = run(["generate", "--kind", "pair", "--priors", "nan,0.5",
                "--output", tmp_path / "x.json"])[0]
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "x.json").exists()


def test_non_finite_prior_is_validation_error(tmp_path):
    path = tmp_path / "nan-prior.json"
    doc = {
        "dim": 2,
        "states": [
            {"prior": float("nan"), "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"prior": 0.5, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ],
    }
    path.write_text(json.dumps(doc))
    assert '"prior": NaN' in path.read_text()
    assert run(["solve", path, "--output", tmp_path / "sol.json"])[0] == cli.EXIT_VALIDATION



def _diagonal_doc():
    """Two orthogonal qubit states with the measurement that tells them apart."""
    def zero():
        return [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

    def one():
        return [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]

    return {
        "dim": 2,
        "states": [{"prior": 0.5, "matrix": zero()}, {"prior": 0.5, "matrix": one()}],
        "povm": [zero(), one()],
    }


def _set_entry(r, c, entry):
    def edit(matrix):
        matrix[r][c] = entry
    return edit


def _set_row(r, row):
    def edit(matrix):
        matrix[r] = row
    return edit


def _entry_before_short_row(matrix):
    matrix[0][1] = [None, 0]
    matrix[1] = []


MALFORMED_MATRICES = {
    "bool": (_set_entry(0, 1, [True, 0]), "row 0 column 1: expected [re, im] pair"),
    "string": (_set_entry(1, 0, ["0", 0]), "row 1 column 0: expected [re, im] pair"),
    "null": (_set_entry(1, 1, [1, None]), "row 1 column 1: expected [re, im] pair"),
    "three-element entry": (_set_entry(0, 0, [1, 0, 0]), "row 0 column 0: expected [re, im] pair"),
    "bare number entry": (_set_entry(0, 0, 1), "row 0 column 0: expected [re, im] pair"),
    "short row": (_set_row(1, [[0, 0]]), "row 1: expected 2 entries"),
    "non-list row": (_set_row(1, 7), "row 1: expected 2 entries"),
    "entry before short row": (_entry_before_short_row, "row 0 column 1: expected [re, im] pair"),
}


@pytest.mark.parametrize("where", ["states", "povm"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
def test_malformed_matrix_is_parse_error_with_its_message(tmp_path, capsys, where, case):
    edit, message = MALFORMED_MATRICES[case]
    doc = _diagonal_doc()
    if where == "states":
        edit(doc["states"][1]["matrix"])
        field = "states[1].matrix"
    else:
        edit(doc["povm"][1])
        field = "povm[1]"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {path}: {field} {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("where", ["states", "povm"])
@pytest.mark.parametrize("entry", [[float("nan"), 0], [0, float("inf")], [-float("inf"), 0]])
def test_non_finite_matrix_entry_is_validation_error(tmp_path, where, entry):
    doc = _diagonal_doc()
    matrix = doc["states"][1]["matrix"] if where == "states" else doc["povm"][1]
    matrix[1][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", path])[0] == cli.EXIT_VALIDATION


HUGE = 10**400  # an integer literal no double can hold


@pytest.mark.parametrize(
    "where, field",
    [
        ("states", "{path}: states[1].matrix row 1 column 0"),
        ("povm", "{path}: povm[1] row 1 column 0"),
        ("prior", "{path}: states[0].prior"),
        ("spec overlap", "spec.overlap"),
        ("spec prior", "spec.priors"),
    ],
    ids=["states", "povm", "prior", "spec-overlap", "spec-prior"],
)
def test_number_too_large_for_a_double_is_parse_error(tmp_path, capsys, where, field):
    doc = _diagonal_doc()
    if where == "states":
        doc["states"][1]["matrix"][1][0] = [HUGE, 0]
    elif where == "povm":
        doc["povm"][1][1][0] = [0, HUGE]
    elif where == "prior":
        doc["states"][0]["prior"] = HUGE
    elif where == "spec overlap":
        doc = {"spec": {"kind": "pair", "overlap": HUGE}}
    else:
        doc = {"spec": {"kind": "pair", "priors": [0.5, -HUGE]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert "0" * 400 in path.read_text()
    for argv in (["certify", path], ["solve", path, "--output", tmp_path / "s.json"]):
        code, captured = run(argv, capsys)
        assert code == cli.EXIT_PARSE
        message = field.format(path=path) + ": number too large for a double"
        assert captured.err == f"parse error: {message}\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"dim": 2, "states": ' + "[" * 100_000], ids=["bare", "in-states"]
)
def test_deeply_nested_file_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {path}: JSON nested too deeply\n"


NON_UTF8 = b'{"dim": 2\xff}'
UTF8_BOM = b'\xef\xbb\xbf{"dim": 2}'


@pytest.mark.parametrize(
    "raw, message",
    [
        (NON_UTF8, "not valid UTF-8 ('utf-8' codec can't decode byte 0xff in position 9: "
                   "invalid start byte)"),
        (UTF8_BOM, "invalid JSON at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ],
    ids=["non-utf8", "bom"],
)
def test_undecodable_file_is_parse_error_with_its_message(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err == f"parse error: {path}: {message}\n"
    assert captured.out == ""


@contextlib.contextmanager
def _collector(enabled):
    was_enabled = gc.isenabled()
    _set_collector(enabled)
    try:
        yield
    finally:
        _set_collector(was_enabled)


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _file(content):
    def write(directory):
        raw = content() if callable(content) else content
        path = directory / "f.json"
        path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
        return path
    return write


def _non_number_slot():
    doc = _diagonal_doc()
    doc["states"][1]["matrix"][1][0] = ["0", 0]
    return json.dumps(doc)


LOAD_PATHS = {
    "problem": (_file(lambda: cli.problem_to_json(md.trine())), None),
    "solution": (
        _file(lambda: cli.problem_to_json(md.trine(), md.square_root_measurement(md.trine()))),
        None,
    ),
    "non-utf8": (_file(NON_UTF8), cli.ProblemFormatError),
    "bom": (_file(UTF8_BOM), cli.ProblemFormatError),
    "invalid-json": (_file("{not json"), cli.ProblemFormatError),
    "deep": (_file("[" * 100_000), cli.ProblemFormatError),
    "non-number-slot": (_file(_non_number_slot), cli.ProblemFormatError),
    "non-hermitian": (
        _file('{"dim": 2, "states": [{"prior": 1, "matrix": [[[1, 0], [0.5, 0]], [[0, 0], [0, 0]]]}]}'),
        md.NotHermitianError,
    ),
    "directory": (lambda directory: directory, OSError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", sorted(LOAD_PATHS))
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled, case):
    write, error = LOAD_PATHS[case]
    path = write(tmp_path)
    with _collector(enabled):
        if error is None:
            cli.load_problem(path)
        else:
            with pytest.raises(error):
                cli.load_problem(path)
        assert gc.isenabled() is enabled


def test_large_load_runs_no_collection_and_matches_a_load_with_the_collector_off(tmp_path):
    ens = md.random_mixed(32, 16, 1)
    path = make_problem(tmp_path / "big.json", ens, md.square_root_measurement(ens))
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    with _collector(True):
        # no automatic collection can fall due before the loader pauses
        # the collector
        gc.collect()
        gc.callbacks.append(count)
        try:
            loaded = cli.load_problem(path)
        finally:
            gc.callbacks.remove(count)
    assert generations == []
    with _collector(False):
        reference = cli.load_problem(path)
    assert loaded.digest == reference.digest
    assert loaded.ensemble.priors.tobytes() == reference.ensemble.priors.tobytes()
    for state, expected in zip(loaded.ensemble.states, reference.ensemble.states, strict=True):
        assert state.mat.tobytes() == expected.mat.tobytes()
    assert loaded.povm.elements.tobytes() == reference.povm.elements.tobytes()


def _report_block(stdout: str) -> dict:
    return json.loads(stdout.split("--- report ---\n", 1)[1])


def test_successive_main_calls_do_not_share_arguments(tmp_path, capsys):
    trine = tmp_path / "t.json"
    run(["generate", "--kind", "trine", "--output", trine])
    first_report = tmp_path / "first.json"
    code, captured = run(["solve", trine, "--start", "srm", "--output", tmp_path / "a.json",
                          "--report", first_report], capsys)
    assert code == 0
    assert _report_block(captured.out)["solver"]["start"] == "srm"
    assert json.loads(first_report.read_text())["solver"]["start"] == "srm"
    first_report.unlink()
    code, captured = run(["solve", trine, "--output", tmp_path / "b.json"], capsys)
    assert code == 0
    assert _report_block(captured.out)["solver"]["start"] == "uniform"
    assert not first_report.exists()
    code, captured = run(["certify", tmp_path / "b.json", "--report", tmp_path / "c.json"],
                         capsys)
    assert code == 0
    assert json.loads((tmp_path / "c.json").read_text())["solver"] is None
    assert not first_report.exists()
    assert cli._parser() is cli._parser()


# Values that stress a text round trip of doubles: signed zeros, subnormals,
# extremes, and integers beyond 2**53.
SPECIAL_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 2.0**60 + 2.0**8, 1e22, 0.1,
]
doubles = st.one_of(
    st.sampled_from(SPECIAL_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def complex_stacks(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    parts = draw(st.lists(doubles, min_size=2 * n * d * d, max_size=2 * n * d * d))
    as_int = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    stack = np.array(parts, dtype=float).view(complex).reshape(n, d, d)
    return stack, as_int


def _json_slots(stack, as_int) -> list:
    """The [re, im] pairs of every matrix, with integer-valued slots chosen
    by `as_int` written as JSON integers (-0.0 stays a float: int drops its sign)."""
    flat = [
        int(x) if use_int and x.is_integer() and math.copysign(1.0, x) > 0 else x
        for x, use_int in zip(stack.view(float).ravel().tolist(), as_int)
    ]
    n, d, _ = stack.shape
    pairs = [flat[k:k + 2] for k in range(0, len(flat), 2)]
    return [[pairs[(i * d + r) * d:(i * d + r + 1) * d] for r in range(d)] for i in range(n)]


def _reference_matrix_text(stack) -> str:
    """The canonical emission of {"stack": <matrices>}, one scalar at a time."""
    def row(values):
        return "[" + ", ".join(
            f"[{format(z.real, '.17g')}, {format(z.imag, '.17g')}]" for z in values
        ) + "]"

    def matrix(m):
        return "[\n" + ",\n".join("      " + row(r) for r in m) + "\n    ]"

    return '{\n  "stack": [\n' + ",\n".join("    " + matrix(m) for m in stack) + "\n  ]\n}\n"


@settings(max_examples=80, deadline=None)
@given(complex_stacks())
def test_matrices_round_trip_bit_for_bit(drawn):
    stack, as_int = drawn
    n, d, _ = stack.shape
    matrices = _json_slots(stack, as_int)
    doc = {
        "dim": d,
        "states": [{"prior": 1.0 / n, "matrix": m} for m in matrices],
        "povm": matrices,
    }
    # physical validation is out of scope here: keep the decoded arrays as they are
    with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
        cli,
        _checked_states=lambda mats: tuple(SimpleNamespace(mat=mat) for mat in mats),
        Ensemble=lambda priors, states: SimpleNamespace(priors=priors, states=states, dim=d),
        validate_povm=np.array,
    ):
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(doc))
        loaded = cli.load_problem(path)
    states = np.array([s.mat for s in loaded.ensemble.states])
    assert states.tobytes() == stack.tobytes()
    assert loaded.povm.tobytes() == stack.tobytes()

    text = cli.dumps_canonical({"stack": stack.view(float).reshape(n, d, d, 2).tolist()})
    assert text == _reference_matrix_text(stack)
    flat = stack.view(float).ravel().tolist()
    assert cli.dumps_canonical(flat) == "[" + ", ".join(format(x, ".17g") for x in flat) + "]\n"
    # -0.0 is emitted as "-0", which JSON reads back as the integer 0
    reloaded = json.loads(text)["stack"]
    decoded = [cli._decode_matrix(m, d, "stack") for m in reloaded]
    assert np.array(decoded).tobytes() == (stack + 0.0).tobytes()


@pytest.mark.parametrize(
    "value",
    [
        [float("nan")],
        [1.0, float("inf")],
        [[0.0, -float("inf")]],
        {"matrix": [[[1.0, 0.0], [0.0, float("nan")]]]},
        [1, float("inf")],
    ],
)
def test_non_finite_value_in_report_is_numeric_failure(value):
    with pytest.raises(md.NumericFailure, match="non-finite value"):
        cli.dumps_canonical(value)


_EDGE_VALUES = np.array([-0.0, 5e-324, 1e308, 1.0, 0.1, 1 / 3])
_ARRAY_SHAPES = [(0,), (5,), (3, 2), (1, 1, 2), (4, 4, 2), (2, 3, 3, 2), (3, 0), (0, 3)]


def _edge_array(shape, seed=0):
    return np.random.default_rng(seed).choice(_EDGE_VALUES, size=shape)


def _wrappings(a):
    """``a`` bare, and nested in dicts and lists."""
    return [a, [a], (a, a), [1.0, a], [[a]], {"b": a, "a": [0.5, a], "c": {"d": a}}]


def _failure(value):
    with pytest.raises(md.NumericFailure) as info:
        cli.dumps_canonical(value)
    return str(info.value)


@pytest.mark.parametrize("shape", _ARRAY_SHAPES)
def test_an_array_is_emitted_as_its_nested_lists(shape):
    a = _edge_array(shape)
    for arr, lists in zip(_wrappings(a), _wrappings(a.tolist())):
        assert cli.dumps_canonical(arr) == cli.dumps_canonical(lists)
    # a strided view and arrays the direct path does not take
    small = np.minimum(a, 1.0)
    for b in [a.T, small.astype(np.float32), np.arange(a.size).reshape(shape)]:
        for arr, lists in zip(_wrappings(b), _wrappings(b.tolist())):
            assert cli.dumps_canonical(arr) == cli.dumps_canonical(lists)


def test_a_zero_dimensional_array_is_emitted_as_its_number():
    a = np.full((), 0.1)
    for value in [a, [a], [1.0, a], {"a": a}]:
        assert cli.dumps_canonical(value) == cli.dumps_canonical(json.loads(json.dumps(value, default=float)))


@pytest.mark.parametrize("shape", [(5,), (3, 2), (1, 1, 2), (4, 4, 2), (2, 3, 3, 2)])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_array_entry_fails_as_in_its_nested_lists(shape, bad):
    for index in [0, -1]:  # the first row and the last
        a = _edge_array(shape)
        a.flat[index] = bad
        for arr, lists in zip(_wrappings(a), _wrappings(a.tolist())):
            assert _failure(arr) == _failure(lists) == f"non-finite value {bad!r} in report"
    # two non-finite entries: the first in row-major order is named
    first = -bad if math.isinf(bad) else float("inf")
    a = _edge_array(shape)
    a.flat[-1], a.flat[a.size // 2 - 1] = bad, first
    assert _failure(a) == _failure(a.tolist()) == f"non-finite value {first!r} in report"


def _list_encoded_problem(ens, povm):
    def pairs(mat):
        return [[[z.real, z.imag] for z in row] for row in mat.tolist()]

    states = [{"prior": float(p), "matrix": pairs(s.mat)} for p, s in zip(ens.priors, ens.states)]
    return cli.dumps_canonical({"dim": ens.dim, "states": states, "povm": [pairs(e) for e in povm]})


@pytest.mark.parametrize("build", [md.trine, lambda: md.random_mixed(3, 4, 5), lambda: md.random_mixed(8, 2, 9)])
def test_problem_emission_matches_the_list_encoded_document(build):
    ens = build()
    povm = md.square_root_measurement(ens)
    assert cli.problem_to_json(ens, povm) == _list_encoded_problem(ens, povm)


_GOLDEN_PROBLEM = """\
{
  "dim": 2,
  "povm": [
    [
      [[1, 0], [-0, 0]],
      [[0, 0], [0.33333333333333331, 0]]
    ],
    [
      [[0, 0], [0, 0]],
      [[0, 0], [0.66666666666666674, 0]]
    ]
  ],
  "states": [
    {
      "matrix": [
        [[0.33333333333333331, 0], [0.10000000000000001, 0]],
        [[0.10000000000000001, 0], [0.66666666666666674, 0]]
      ],
      "prior": 0.10000000000000001
    },
    {
      "matrix": [
        [[1, 0], [0, 1e-300]],
        [[-0, -1e-300], [0, 0]]
      ],
      "prior": 0.90000000000000002
    }
  ]
}
"""


def test_problem_emission_is_pinned_to_its_bytes():
    third = 1 / 3
    rho0 = np.array([[third, 0.1], [0.1, 1 - third]], dtype=complex)
    rho1 = np.array([[1.0, complex(-0.0, 1e-300)], [complex(-0.0, -1e-300), 0.0]])
    ens = md.Ensemble(np.array([0.1, 0.9]), (md.DensityMatrix(rho0), md.DensityMatrix(rho1)))
    e0 = np.array([[1.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), third]])
    e1 = np.array([[0.0, 0.0], [0.0, 1 - third]], dtype=complex)
    assert cli.problem_to_json(ens, md.validate_povm([e0, e1])) == _GOLDEN_PROBLEM


_SALTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1 / 3, -1 / 3, 3.0, -7.0]


def _hermitian_stack(n, d, seed, salted=0.0):
    """(a + a^dagger)/2 of n complex normal draws, each of whose real and
    imaginary parts is replaced by an edge value with probability ``salted``."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((n, d, d, 2))
    salt = rng.random(parts.shape) < salted
    parts[salt] = rng.choice(_SALTS, size=salt.sum())
    return _hermitian_part(parts.view(complex)[..., 0])


def _bit_hermitian(m) -> bool:
    """Whether a complex matrix of size 2 or more is its conjugate transpose
    bit for bit, signed zeros included."""
    off = ~np.eye(len(m), dtype=bool)
    real = (m.real == m.real.T) & (np.signbit(m.real) == np.signbit(m.real.T))
    imag = (m.imag == -m.imag.T) & (np.signbit(m.imag) != np.signbit(m.imag.T))
    return len(m) > 1 and bool(real.all() and imag[off].all())


@pytest.mark.parametrize("salted", [0.0, 0.25], ids=["plain", "salted"])
@pytest.mark.parametrize("d", [*range(2, 10), 33])
def test_a_hermitian_block_is_emitted_from_its_upper_triangle(monkeypatch, d, salted):
    stack = _hermitian_stack(4, d, seed=d, salted=salted)
    hermitian = [_bit_hermitian(m) for m in stack]
    # a salted zero can leave a block Hermitian in value only, which the
    # emitter must format in full
    assert all(hermitian) if not salted else any(hermitian)
    pairs = stack.view(float).reshape(4, d, d, 2)
    view = pairs[:, ::-1, ::-1]  # Hermitian too, on negative strides
    calls = count_calls(monkeypatch, cli, "_emit_hermitian")
    for arr in [*pairs, pairs]:
        assert cli.dumps_canonical(arr) == cli.dumps_canonical(arr.tolist())
    assert cli.dumps_canonical({"stack": pairs}) == _reference_matrix_text(stack)
    assert cli.dumps_canonical(view) == cli.dumps_canonical(np.ascontiguousarray(view))
    # blocks alone, as a POVM, in the document, as the view and its copy
    assert len(calls) == 5 * sum(hermitian)


def _one_ulp_up(a, index):
    a = a.copy()
    a[index] = np.nextafter(a[index], np.inf)
    return a


_NOT_HERMITIAN_BITS = {
    "real-symmetric": cli._encode_matrix(md.random_mixed(4, 1, 3).states[0].mat.real + 0j),
    "real-one-ulp-off": _one_ulp_up(_hermitian_stack(1, 4, 5).view(float).reshape(4, 4, 2), (3, 1, 0)),
    "imag-one-ulp-off": _one_ulp_up(_hermitian_stack(1, 4, 5).view(float).reshape(4, 4, 2), (3, 1, 1)),
    "d=1": np.array([[[0.5, -0.0]]]),
}


@pytest.mark.parametrize("block", _NOT_HERMITIAN_BITS.values(), ids=_NOT_HERMITIAN_BITS)
def test_a_block_not_hermitian_bit_for_bit_formats_every_number(monkeypatch, block):
    calls = count_calls(monkeypatch, cli, "_emit_hermitian")
    for arr in [block, np.stack([block, block])]:
        assert cli.dumps_canonical(arr) == cli.dumps_canonical(arr.tolist())
    assert not calls


@pytest.mark.parametrize(
    "argv",
    [["certify", "{dir}"], ["solve", "{dir}"], ["generate", "--kind", "trine", "--output", "{dir}"]],
    ids=["certify", "solve", "generate"],
)
def test_directory_in_place_of_a_file_exits_13(tmp_path, capsys, argv):
    code, captured = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert code == cli.EXIT_NOT_FOUND
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


def test_max_iter_default_is_the_solver_default():
    args = cli.build_parser().parse_args(["solve", "p.json"])
    assert args.max_iter == md.SolverConfig().max_iter


def test_report_file_is_the_printed_report_block(tmp_path, capsys):
    path = make_problem(tmp_path / "p.json", md.trine(), md.uniform_povm(3, 2))
    report = tmp_path / "r.json"
    for argv, expected in (
        (["certify", path], cli.EXIT_NOT_OPTIMAL),
        (["solve", path, "--output", tmp_path / "s.json"], cli.EXIT_OPTIMAL),
    ):
        code, captured = run([*argv, "--report", report], capsys)
        assert code == expected
        assert captured.out.split("--- report ---\n", 1)[1] == report.read_text()


def test_eigensolver_failure_in_validation_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError; unwrapped, it would pass for a validation error
    path = make_problem(tmp_path / "p.json", md.trine(), md.uniform_povm(3, 2))
    elements = md.uniform_povm(3, 2).elements

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(md.EigendecompositionError):
        md.validate_povm(elements)
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_NUMERIC
    assert captured.err.startswith("numeric failure: ") and captured.err.count("\n") == 1


def test_eigensolver_failure_above_the_cholesky_gate_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # at d = 16 a failed Cholesky proof hands the check to eigvalsh, whose
    # failure is still a numeric one
    path = make_problem(tmp_path / "p.json", md.random_mixed(16, 3, 1), md.uniform_povm(3, 16))
    elements = md.uniform_povm(3, 16).elements

    def not_definite(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "cholesky", not_definite)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(md.EigendecompositionError):
        md.validate_povm(elements)
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_NUMERIC
    assert captured.err.startswith("numeric failure: ") and captured.err.count("\n") == 1


def _states_doc(*mats) -> dict:
    """A problem file of equiprior states given as complex matrices."""
    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]

    return {"dim": len(mats[0]), "states": [{"prior": 1 / len(mats), "matrix": pairs(m)} for m in mats]}


@pytest.mark.parametrize("kind", BAD_STATES)
def test_loader_reports_a_bad_state_as_its_own_check_does(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_states_doc(np.diag([1.0, 0.0]), BAD_STATES[kind], np.eye(2) / 2)))
    with pytest.raises(ValueError) as err:
        md.validate_density(BAD_STATES[kind])
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_VALIDATION
    assert captured.err == f"validation error: {err.value}\n"


def _outcome(build):
    """What ``build()`` gives: the bytes of the array it returns, or its
    error's type, message and attributes (``index``, deviation, eigenvalue
    or trace)."""
    try:
        return "valid", build().tobytes()
    except ValueError as exc:
        return type(exc), str(exc), vars(exc)


@pytest.mark.parametrize("kind", BAD_STATES)
def test_bad_states_above_the_cholesky_gate_raise_their_qubit_errors(tmp_path, capsys, kind):
    # padded to d = 16, every bad state reaches the shifted Cholesky proof
    # or an earlier check, and each place that checks it gives what the
    # eigvalsh scan alone gives, and the errors its qubit original raises
    def outcomes(bad):
        dim = len(bad)
        kept = np.zeros((dim, dim))
        kept[0, 0] = 1.0
        stack = np.array([kept, bad, np.eye(dim) / dim], dtype=complex)
        path = tmp_path / f"bad{dim}.json"
        path.write_text(json.dumps(_states_doc(*stack)))
        code, captured = run(["certify", path], capsys)
        return [
            _outcome(lambda: md.DensityMatrix(bad).mat),
            _outcome(lambda: np.array([s.mat for s in ensembles._checked_states(stack)])),
            _outcome(lambda: md.Povm(np.array([bad, np.eye(dim) - bad])).elements),
            (code, captured.err),
        ]

    bad = padded_bad_states(16)[kind]
    with mock.patch.object(matrices, "_CHOLESKY_MIN_DIM", 17):
        eigvalsh_alone = outcomes(bad)
    got = outcomes(bad)
    assert got == eigvalsh_alone
    qubit = outcomes(BAD_STATES[kind])
    assert [o[:1] if o[0] == "valid" else o for o in got] == [
        o[:1] if o[0] == "valid" else o for o in qubit
    ]


@pytest.mark.parametrize("bad", [0, 1])
def test_loader_reports_an_invalid_state_before_a_later_malformed_one(tmp_path, capsys, bad):
    mats = [np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2]
    mats[bad] = BAD_STATES["non-psd"]
    doc = _states_doc(*mats)
    doc["states"][bad + 1]["matrix"] = [[[1, 0]], [[0, 0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_VALIDATION
    assert captured.err == "validation error: has negative eigenvalue -5.000000e-01\n"
    # with the invalid state mended, the malformed one is a parse error
    doc["states"][bad]["matrix"] = _states_doc(np.eye(2) / 2)["states"][0]["matrix"]
    path.write_text(json.dumps(doc))
    code, captured = run(["certify", path], capsys)
    assert code == cli.EXIT_PARSE
    assert captured.err.startswith(f"parse error: {path}: states[{bad + 1}].matrix row 0")


@pytest.mark.parametrize(
    "ens",
    [md.trine(), md.pure_pair(0.3, (0.2, 0.8)), md.random_mixed(2, 3, 5), md.random_mixed(32, 16, 1)],
    ids=["trine", "pair", "random-2x3", "random-32x16"],
)
def test_loaded_states_match_per_state_construction(tmp_path, monkeypatch, ens):
    path = make_problem(tmp_path / "p.json", ens, md.square_root_measurement(ens))
    doc = json.loads(path.read_text())
    reference = md.Ensemble(
        np.asarray([item["prior"] for item in doc["states"]]),
        tuple(
            md.DensityMatrix(cli._decode_matrix(item["matrix"], ens.dim, "reference"))
            for item in doc["states"]
        ),
    )
    calls = count_calls(monkeypatch, ensembles, "checked_psd")
    loaded = cli.load_problem(path)
    assert calls == [(len(ens), ens.dim, ens.dim)]
    for state, expected in zip(loaded.ensemble.states, reference.states, strict=True):
        assert state.mat.tobytes() == expected.mat.tobytes()
    assert loaded.ensemble.weighted_states.tobytes() == reference.weighted_states.tobytes()
    assert loaded.ensemble.priors.tobytes() == reference.priors.tobytes()
    povm = md.validate_povm([cli._decode_matrix(m, ens.dim, "reference") for m in doc["povm"]])
    assert loaded.povm.elements.tobytes() == povm.elements.tobytes()
