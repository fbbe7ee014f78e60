"""Command-line front end: certify, solve, and generate discrimination problems.

Problem files are JSON with complex entries encoded as [re, im] pairs in
row-major order:

    {
      "dim": 2,
      "states": [{"prior": 0.5, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}, ...],
      "povm": [ <matrix>, ... ]          # optional
    }

A file may instead carry a generator spec under "spec"
({"kind": "pair" | "trine" | "random", ...}).  Exit codes: 0 optimal,
10 not optimal, 11 validation failure, 12 parse failure, 13 file not
found, 14 numeric failure (2 is argparse usage).  All report numbers are
printed with 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certificates import DEFAULT_TOL, Certificate, certify
from .ensembles import (
    DensityMatrix,
    Ensemble,
    PurePairSpec,
    RandomMixedSpec,
    TrineSpec,
    generate,
)
from .matrices import NumericFailure
from .povm import Povm, validate_povm
from .solver import SolveTrace, SolverConfig, solve, square_root_measurement

EXIT_OPTIMAL = 0
EXIT_NOT_OPTIMAL = 10
EXIT_VALIDATION = 11
EXIT_PARSE = 12
EXIT_NOT_FOUND = 13
EXIT_NUMERIC = 14


class ProblemFormatError(ValueError):
    """Problem file is structurally malformed (as opposed to invalid physics)."""


@dataclass(frozen=True)
class LoadedProblem:
    ensemble: Ensemble
    povm: Povm | None
    digest: str


# ---------------------------------------------------------------------------
# canonical JSON emission: sorted keys, two-space indent, %.17g floats,
# numeric leaf lists inlined

def _format_float(x: float) -> str:
    value = float(x)
    if not math.isfinite(value):
        raise NumericFailure(f"non-finite value {value!r} in report")
    return format(value, ".17g")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _format_float(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _inline_list(items) -> bool:
    return all(
        _is_number(v) or (isinstance(v, (list, tuple)) and all(_is_number(u) for u in v))
        for v in items
    )


def _emit(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(key))}: {_emit(value[key], indent + 1)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if _inline_list(items):
            flat = [
                "[" + ", ".join(_scalar(u) for u in v) + "]"
                if isinstance(v, (list, tuple))
                else _scalar(v)
                for v in items
            ]
            return "[" + ", ".join(flat) + "]"
        rows = [f"{inner}{_emit(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _scalar(value)


def dumps_canonical(value) -> str:
    return _emit(value, 0) + "\n"


# ---------------------------------------------------------------------------
# problem files

def _encode_matrix(mat: np.ndarray) -> list:
    return [
        [[float(entry.real), float(entry.imag)] for entry in row] for row in mat
    ]


def _decode_matrix(obj, dim: int, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ProblemFormatError(f"{field}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ProblemFormatError(f"{field} row {r}: expected {dim} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(_is_number(u) for u in entry)
            ):
                raise ProblemFormatError(
                    f"{field} row {r} column {c}: expected [re, im] pair"
                )
            out[r, c] = complex(float(entry[0]), float(entry[1]))
    return out


def problem_to_json(ens: Ensemble, povm: Povm | None = None) -> str:
    doc = {
        "dim": ens.dim,
        "states": [
            {"prior": float(ens.priors[i]), "matrix": _encode_matrix(ens.states[i].mat)}
            for i in range(len(ens))
        ],
    }
    if povm is not None:
        doc["povm"] = [_encode_matrix(element) for element in povm]
    return dumps_canonical(doc)


def _spec_from_dict(obj, field: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFormatError(f"{field}: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "pair":
        priors = obj.get("priors", [0.5, 0.5])
        if not isinstance(priors, list) or len(priors) != 2:
            raise ProblemFormatError(f"{field}.priors: expected two numbers")
        return PurePairSpec(float(obj.get("overlap", 0.0)), (float(priors[0]), float(priors[1])))
    if kind == "trine":
        return TrineSpec()
    if kind == "random":
        for key in ("dim", "n", "seed"):
            if key not in obj:
                raise ProblemFormatError(f"{field}.{key}: required for kind 'random'")
        return RandomMixedSpec(int(obj["dim"]), int(obj["n"]), int(obj["seed"]))
    raise ProblemFormatError(f"{field}.kind: unknown kind {kind!r}")


def load_problem(path: str | Path) -> LoadedProblem:
    """Parse and validate a problem file.

    Structural defects raise ProblemFormatError; physical-invariant
    violations propagate as the validation errors of the domain types.
    """
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")

    has_states = "states" in doc
    has_spec = "spec" in doc
    if has_states and has_spec:
        raise ProblemFormatError(f"{path}: give either 'states' or 'spec', not both")
    if not has_states and not has_spec:
        raise ProblemFormatError(f"{path}: missing 'states' (or a generator 'spec')")

    if has_spec:
        ensemble = generate(_spec_from_dict(doc["spec"], "spec"))
        if "dim" in doc and int(doc["dim"]) != ensemble.dim:
            raise ProblemFormatError(
                f"{path}: dim {doc['dim']} does not match spec dimension {ensemble.dim}"
            )
    else:
        if "dim" not in doc or not isinstance(doc["dim"], int) or doc["dim"] < 1:
            raise ProblemFormatError(f"{path}: 'dim' must be a positive integer")
        dim = doc["dim"]
        states_obj = doc["states"]
        if not isinstance(states_obj, list) or not states_obj:
            raise ProblemFormatError(f"{path}: 'states' must be a nonempty list")
        priors = []
        states = []
        for i, item in enumerate(states_obj):
            if not isinstance(item, dict) or "prior" not in item or "matrix" not in item:
                raise ProblemFormatError(
                    f"{path}: states[{i}] must carry 'prior' and 'matrix'"
                )
            if not _is_number(item["prior"]):
                raise ProblemFormatError(f"{path}: states[{i}].prior must be a number")
            priors.append(float(item["prior"]))
            states.append(
                DensityMatrix(_decode_matrix(item["matrix"], dim, f"{path}: states[{i}].matrix"))
            )
        ensemble = Ensemble(np.asarray(priors), tuple(states))

    povm = None
    if "povm" in doc:
        povm_obj = doc["povm"]
        if not isinstance(povm_obj, list) or not povm_obj:
            raise ProblemFormatError(f"{path}: 'povm' must be a nonempty list")
        elements = [
            _decode_matrix(item, ensemble.dim, f"{path}: povm[{i}]")
            for i, item in enumerate(povm_obj)
        ]
        povm = validate_povm(elements)

    return LoadedProblem(ensemble=ensemble, povm=povm, digest=digest)


# ---------------------------------------------------------------------------
# reports

def _certificate_dict(cert: Certificate) -> dict:
    witness = None
    if cert.witness is not None:
        witness = {
            "outcome": cert.witness.outcome,
            "eigenvalue": cert.witness.eigenvalue,
            "vector": [[float(u.real), float(u.imag)] for u in cert.witness.vector],
        }
    return {
        "verdict": "optimal" if cert.is_optimal else "not_optimal",
        "witness_min_eigenvalues": list(cert.witness_min_eigenvalues),
        "lagrange_hermiticity_residual": cert.lagrange_herm_residual,
        "pairwise_equality_residual": cert.pairwise_equality_residual,
        "zero_product_residual": cert.zero_product_residual,
        "witness": witness,
    }


def _build_report(
    command: str,
    digest: str,
    cert: Certificate,
    solver: dict | None,
) -> dict:
    return {
        "command": command,
        "input_sha256": digest,
        "tolerance": cert.tolerance,
        "p_corr": cert.p_corr,
        "p_err": 1.0 - cert.p_corr,
        "certificate": _certificate_dict(cert),
        "solver": solver,
    }


def _print_report(report: dict, out=None) -> None:
    out = out or sys.stdout
    cert = report["certificate"]
    print(f"P_corr = {_format_float(report['p_corr'])}", file=out)
    print(f"P_err  = {_format_float(report['p_err'])}", file=out)
    verdict = cert["verdict"].upper()
    print(f"verdict: {verdict} (tolerance {_format_float(report['tolerance'])})", file=out)
    minima = ", ".join(_format_float(v) for v in cert["witness_min_eigenvalues"])
    print(f"witness min eigenvalues: [{minima}]", file=out)
    print(
        "residuals: hermiticity "
        f"{_format_float(cert['lagrange_hermiticity_residual'])}, "
        f"pairwise equality {_format_float(cert['pairwise_equality_residual'])}, "
        f"zero product {_format_float(cert['zero_product_residual'])}",
        file=out,
    )
    if cert["witness"] is not None:
        print(
            f"witness: outcome {cert['witness']['outcome']}, "
            f"eigenvalue {_format_float(cert['witness']['eigenvalue'])}",
            file=out,
        )
    if report["solver"] is not None:
        s = report["solver"]
        eps = "none" if s["final_epsilon"] is None else _format_float(s["final_epsilon"])
        print(
            f"solver: converged={s['converged']} iterations={s['iterations']} "
            f"(total {s['iterations_used']}), final epsilon {eps}, seed {s['seed']}",
            file=out,
        )
    print("--- report ---", file=out)
    out.write(dumps_canonical(report))


def _warn_zero_priors(ensemble: Ensemble) -> None:
    if ensemble.has_zero_prior:
        print(
            "warning: ensemble contains zero-prior states; the optimality "
            "conditions remain well-defined for them",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# commands

def _cmd_certify(args) -> int:
    problem = load_problem(args.input)
    _warn_zero_priors(problem.ensemble)
    if problem.povm is None:
        raise ProblemFormatError(f"{args.input}: certify requires a 'povm' section")
    cert = certify(problem.ensemble, problem.povm, tol=args.tol)
    report = _build_report("certify", problem.digest, cert, None)
    _print_report(report)
    if args.report:
        Path(args.report).write_text(dumps_canonical(report))
    return EXIT_OPTIMAL if cert.is_optimal else EXIT_NOT_OPTIMAL


def _solver_summary(trace: SolveTrace, seed: int, start: str) -> dict:
    final_epsilon = trace.iterations[-1].epsilon if trace.iterations else None
    return {
        "start": start,
        "seed": seed,
        "converged": trace.converged,
        "iterations": len(trace.iterations),
        "iterations_used": trace.iterations_used,
        "final_epsilon": final_epsilon,
    }


def _cmd_solve(args) -> int:
    problem = load_problem(args.input)
    _warn_zero_priors(problem.ensemble)
    if args.start == "uniform":
        start = None
    elif args.start == "srm":
        start = square_root_measurement(problem.ensemble)
    else:  # file
        if problem.povm is None:
            raise ProblemFormatError(
                f"{args.input}: --start file requires a 'povm' section"
            )
        start = problem.povm
    config = SolverConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    trace = solve(problem.ensemble, start, config)

    output = args.output or str(Path(args.input).with_suffix("")) + ".solution.json"
    Path(output).write_text(problem_to_json(problem.ensemble, trace.final_povm))

    report = _build_report(
        "solve",
        problem.digest,
        trace.final_certificate,
        _solver_summary(trace, args.seed, args.start),
    )
    _print_report(report)
    if args.report:
        Path(args.report).write_text(dumps_canonical(report))
    return EXIT_OPTIMAL if trace.final_certificate.is_optimal else EXIT_NOT_OPTIMAL


def _parse_priors(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ProblemFormatError(f"--priors expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ProblemFormatError(f"--priors: {exc}") from exc


def _cmd_generate(args) -> int:
    if args.kind == "pair":
        spec = PurePairSpec(args.overlap, _parse_priors(args.priors))
    elif args.kind == "trine":
        spec = TrineSpec()
    else:
        spec = RandomMixedSpec(args.dim, args.n, args.seed)
    ensemble = generate(spec)
    Path(args.output).write_text(problem_to_json(ensemble))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindisc",
        description="Minimum-error quantum state discrimination: solve and certify.",
        epilog=(
            "exit codes: 0 optimal, 10 not optimal, 11 validation failure, "
            "12 parse failure, 13 file not found, 14 numeric failure"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="check optimality of a POVM from a file")
    cert.add_argument("input", help="problem file with states and povm")
    cert.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certificate tolerance (default %(default)g)")
    cert.add_argument("--report", default=None, help="write the machine-readable report here")
    cert.set_defaults(func=_cmd_certify)

    slv = sub.add_parser("solve", help="find an optimal measurement for an ensemble")
    slv.add_argument("input", help="problem file with states (povm optional as start)")
    slv.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certificate tolerance (default %(default)g)")
    slv.add_argument("--max-iter", type=int, default=10000, help="iteration cap (default %(default)s)")
    slv.add_argument("--seed", type=int, default=0, help="seed for solver restarts (default %(default)s)")
    slv.add_argument(
        "--start",
        choices=("uniform", "srm", "file"),
        default="uniform",
        help="starting measurement (default %(default)s)",
    )
    slv.add_argument("--output", default=None, help="solution POVM file (default INPUT.solution.json)")
    slv.add_argument("--report", default=None, help="write the machine-readable report here")
    slv.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("generate", help="write a generated problem file")
    gen.add_argument("--kind", choices=("pair", "trine", "random"), required=True)
    gen.add_argument("--overlap", type=float, default=0.0, help="pair overlap in [0, 1)")
    gen.add_argument("--priors", default="0.5,0.5", help="pair priors, e.g. 0.3,0.7")
    gen.add_argument("--dim", type=int, default=2, help="dimension for kind=random")
    gen.add_argument("--n", type=int, default=2, help="state count for kind=random")
    gen.add_argument("--seed", type=int, default=0, help="seed for kind=random")
    gen.add_argument("--output", required=True, help="destination problem file")
    gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except ProblemFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
