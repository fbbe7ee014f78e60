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
10 not optimal, 11 validation failure, 12 parse failure, 13 unreadable or
unwritable file, 14 numeric failure (2 is argparse usage).  All report
numbers are printed with 17 significant digits so doubles round-trip
exactly (-0.0 is printed as -0, which reads back as 0).

Numbers cross between JSON and arrays a whole matrix at a time.  A matrix
is decoded by flattening its [re, im] pairs into one list, type-checking
that list at once (JSON integers and floats only, not booleans, strings or
null) and viewing its doubles as complex entries; a number too large for
a double is a parse error.  A file's states are stacked into one
(n, d, d) array and checked as one stack, and so are its POVM elements.
A matrix is emitted as its (d, d, 2) float64 array of [re, im] pairs, and
a POVM as one (n, d, d, 2) array: one finiteness test per array, then one
%.17g template per matrix row of pairs, formatted from that row's doubles.
A matrix that is Hermitian bit for bit takes a mirror path instead.  One
test on the block's bits, viewed as uint64 and XORed with its transpose's,
finds every real part equal to its mirror's and every off-diagonal
imaginary part differing from its mirror's in the sign bit alone; such a
block of size d >= 2 formats only its upper triangle, d(d + 1) of its 2d^2
numbers, in one %.17g template, and each lower entry takes its mirror's
real text and its mirror's imaginary text with the sign flipped.  Every
other block formats every number: one not Hermitian bit for bit, a real
symmetric one (its +0 imaginary parts fail the sign test) and a 1 x 1
one.  The bytes are those of the array's nested lists, which the emitter
formats scalar by scalar.

A problem file is parsed by orjson, whose doubles are correctly rounded as
float() rounds them.  The stdlib json parser, on the UTF-8 decoded text,
reads the file instead in three cases, and it alone sets every error's
type, message and exit code:
- orjson rejects the text (NaN and Infinity literals, a number beyond
  the doubles, a byte order mark, invalid UTF-8, any syntax error), or
  the text is kept from orjson: it holds a backslash (lone surrogates
  among its escapes), or it nests arrays and objects more than 1024 deep,
  which orjson 3.8 would follow until the C stack overflows;
- the document carries a 'spec', whose dim, n and seed must stay exact
  integers (orjson reads an integer beyond 64 bits as a double);
- building the problem from orjson's document raises.
Valid JSON nested deeper than the json parser's recursion limit (about
1000 levels, less the caller's stack) but at most 1024 deep, under a key
the loader ignores, therefore loads, where json alone fails it as nested
too deeply.

A problem file loads with the cyclic garbage collector paused, because
the decoded document holds no reference cycles for it to reclaim; the
caller's collector state is restored afterwards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .certificates import DEFAULT_TOL, Certificate, certify
from .ensembles import (
    Ensemble,
    PurePairSpec,
    RandomMixedSpec,
    TrineSpec,
    _checked_states,
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


@functools.lru_cache(maxsize=None)
def _float_template(count: int, width: int) -> str:
    """%-template of an inline list of `count` floats (width 0) or of
    `count` rows of `width` floats."""
    item = "%.17g" if width == 0 else "[" + ", ".join(["%.17g"] * width) + "]"
    return "[" + ", ".join([item] * count) + "]"


def _block(texts: list, indent: int, brackets: str = "[]") -> str:
    """Emitted items one per line, one level deeper than ``indent``."""
    inner = "\n" + "  " * (indent + 1)
    return brackets[0] + inner + ("," + inner).join(texts) + "\n" + "  " * indent + brackets[1]


@functools.lru_cache(maxsize=None)
def _mirror_bits(d: int) -> np.ndarray:
    """The bits of a Hermitian (d, d, 2) block XORed with its transpose's:
    the sign bit of every off-diagonal imaginary part, zero elsewhere."""
    bits = np.zeros((d, d, 2), dtype=np.uint64)
    bits[..., 1] = 1 << 63
    bits[range(d), range(d), 1] = 0
    return bits


def _is_hermitian_block(a: np.ndarray) -> bool:
    """Whether ``a`` is a (d, d, 2) block of [re, im] pairs, d >= 2, that is
    Hermitian bit for bit: each real part has its mirror's bits, and each
    off-diagonal imaginary part differs from its mirror's in the sign bit
    alone (so a real symmetric block, whose +0 parts agree, is not)."""
    d = a.shape[0]
    if a.shape != (d, d, 2) or d < 2:
        return False
    bits = a.view(np.uint64)
    return bool(((bits ^ bits.transpose(1, 0, 2)) == _mirror_bits(d)).all())


@functools.lru_cache(maxsize=None)
def _mirror_layout(d: int):
    """For a (d, d, 2) block: the flat positions of its upper triangle's
    numbers in row-major order, the %s-template of one row's text, and the
    getter that orders, row after row, the upper triangle's texts followed
    by their imaginary parts' sign-flipped texts."""
    rows, cols = np.triu_indices(d)
    # the place of each entry, or of its mirror below the diagonal, in the upper triangle
    k = np.empty((d, d), dtype=np.intp)
    k[rows, cols] = k[cols, rows] = np.arange(len(rows))
    real = 2 * k
    imag = np.where(np.triu(np.ones((d, d), dtype=bool)), real + 1, 2 * len(rows) + k)
    order = np.stack((real, imag), axis=-1).ravel().tolist()
    upper = 2 * (rows * d + cols)
    return (
        np.stack((upper, upper + 1), axis=-1).ravel(),
        "[" + ", ".join(["[%s, %s]"] * d) + "]",
        operator.itemgetter(*order),
    )


def _emit_hermitian(a: np.ndarray, indent: int) -> str:
    """The text of ``a.tolist()`` for a block that `_is_hermitian_block`
    accepts, formatting only its upper triangle: a lower entry repeats its
    mirror's real text, and its mirror's imaginary text with the sign
    flipped, which is exact since %.17g writes the sign apart from the
    digits.  Rows are formatted one at a time, as in `_emit_floats`: one
    template for the whole block grows its text by reallocation and left
    the process's peak memory about 2 MiB higher on a 32 x 16 problem."""
    d = a.shape[0]
    upper, row, layout = _mirror_layout(d)
    values = a.reshape(-1)[upper].tolist()
    texts = (_float_template(len(values), 0) % tuple(values))[1:-1].split(", ")
    flipped = [t[1:] if t[0] == "-" else "-" + t for t in texts[1::2]]
    ordered = layout(texts + flipped)
    return _block([row % ordered[k:k + 2 * d] for k in range(0, 2 * d * d, 2 * d)], indent)


def _emit_floats(a: np.ndarray, indent: int) -> str:
    """The text of ``a.tolist()`` for a finite float64 array with no
    zero-length axis: 1-D and 2-D arrays inline through one template,
    deeper arrays one element per line.

    A (d, d, 2) block with d >= 2 whose real parts have their mirrors'
    bits and whose off-diagonal imaginary parts differ from their mirrors'
    in the sign bit alone, one vectorised test (`_is_hermitian_block`),
    formats only its upper triangle (`_emit_hermitian`).  Any other block,
    d = 1 and real symmetric blocks among them, falls back on formatting
    every number; each matrix of a POVM stack is tested on its own."""
    if _is_hermitian_block(a):
        return _emit_hermitian(a, indent)
    if a.ndim > 2:
        return _block([_emit_floats(sub, indent + 1) for sub in a], indent)
    width = a.shape[1] if a.ndim == 2 else 0
    return _float_template(len(a), width) % tuple(a.ravel().tolist())


def _emit_array(a: np.ndarray, indent: int) -> str:
    """``_emit(a.tolist(), indent)``, byte for byte; a float64 array with
    no zero-length axis skips the nested lists and their type checks."""
    if a.dtype != np.float64 or not a.size or not a.ndim:
        return _emit(a.tolist(), indent)
    finite = np.isfinite(a)
    if not finite.all():
        # raises NumericFailure naming the first non-finite value in row-major order
        _format_float(a.flat[finite.argmin()])
    return _emit_floats(a, indent)


def _emit(value, indent: int) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{json.dumps(str(key))}: {_emit(value[key], indent + 1)}" for key in sorted(value)]
        return _block(rows, indent, "{}")
    if isinstance(value, np.ndarray):
        return _emit_array(value, indent)
    if isinstance(value, (list, tuple)):
        # an array that would inline in this list as its nested lists enters as them
        items = [
            v.tolist() if isinstance(v, np.ndarray) and (v.ndim < 2 or not v.size) else v
            for v in value
        ]
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
        return _block([_emit(v, indent + 1) for v in items], indent)
    return _scalar(value)


def dumps_canonical(value) -> str:
    return _emit(value, 0) + "\n"


# ---------------------------------------------------------------------------
# problem files

def _encode_matrix(mat: np.ndarray) -> np.ndarray:
    """The [re, im] pairs of a complex matrix, or of a stack of them, as one
    float64 array with a trailing axis of 2."""
    return np.stack((mat.real, mat.imag), axis=-1)


# json.loads yields these two types for numbers; bool is not among them
_JSON_NUMBERS = {int, float}
# stands in for an entry that is not a 2-list, so its slots fail the type check
_NOT_A_PAIR = (None, None)


def _slot_problem(u) -> str | None:
    if type(u) not in _JSON_NUMBERS:
        return "expected [re, im] pair"
    try:
        float(u)
    except OverflowError:
        return "number too large for a double"
    return None


def _entry_error(flat: list, dim: int, field: str) -> ProblemFormatError:
    """The error for the first flat slot that is not a number a double holds."""
    k, problem = next((k, p) for k, p in enumerate(map(_slot_problem, flat)) if p)
    r, c = divmod(k // 2, dim)
    return ProblemFormatError(f"{field} row {r} column {c}: {problem}")


def _as_double(value, field: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ProblemFormatError(f"{field}: number too large for a double") from None


def _decode_matrix(obj, dim: int, field: str) -> np.ndarray:
    """Decode a d x d matrix of [re, im] pairs in one pass over its entries.

    The complex matrix is a bit-exact view of the flat (re, im) doubles, so
    an infinite part stays infinite instead of turning into NaN.
    """
    if not isinstance(obj, list) or len(obj) != dim:
        raise ProblemFormatError(f"{field}: expected {dim} rows")
    bad_row = next(
        (r for r, row in enumerate(obj) if not isinstance(row, list) or len(row) != dim),
        dim,
    )
    # an entry error in a row before a malformed row is reported first
    flat = [
        u
        for row in obj[:bad_row]
        for entry in row
        for u in (entry if isinstance(entry, list) and len(entry) == 2 else _NOT_A_PAIR)
    ]
    if not set(map(type, flat)) <= _JSON_NUMBERS:
        raise _entry_error(flat, dim, field)
    if bad_row < dim:
        raise ProblemFormatError(f"{field} row {bad_row}: expected {dim} entries")
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:
        raise _entry_error(flat, dim, field) from None
    return values.view(complex).reshape(dim, dim)


def problem_to_json(ens: Ensemble, povm: Povm | None = None) -> str:
    doc = {
        "dim": ens.dim,
        "states": [
            {"prior": float(ens.priors[i]), "matrix": _encode_matrix(ens.states[i].mat)}
            for i in range(len(ens))
        ],
    }
    if povm is not None:
        # one (n, d, d, 2) array lays out as the list of its n matrices
        doc["povm"] = _encode_matrix(povm.elements)
    return dumps_canonical(doc)


def _spec_number(value, field: str):
    if not (_is_number(value) and abs(value) < math.inf):
        raise ProblemFormatError(f"{field}: expected a finite number, got {value!r}")
    return value


def _spec_float(value, field: str) -> float:
    return _as_double(_spec_number(value, field), field)


def _spec_int(value, field: str) -> int:
    value = _spec_number(value, field)
    if value != int(value):
        raise ProblemFormatError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def _spec_from_dict(obj, field: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProblemFormatError(f"{field}: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "pair":
        priors = obj.get("priors", [0.5, 0.5])
        if not isinstance(priors, list) or len(priors) != 2:
            raise ProblemFormatError(f"{field}.priors: expected two numbers")
        overlap = _spec_float(obj.get("overlap", 0.0), f"{field}.overlap")
        priors = tuple(_spec_float(p, f"{field}.priors") for p in priors)
        return PurePairSpec(overlap, priors)
    if kind == "trine":
        return TrineSpec()
    if kind == "random":
        values = []
        for key in ("dim", "n", "seed"):
            if key not in obj:
                raise ProblemFormatError(f"{field}.{key}: required for kind 'random'")
            values.append(_spec_int(obj[key], f"{field}.{key}"))
        return RandomMixedSpec(*values)
    raise ProblemFormatError(f"{field}.kind: unknown kind {kind!r}")


def load_problem(path: str | Path) -> LoadedProblem:
    """Parse and validate a problem file.

    Structural defects raise ProblemFormatError; physical-invariant
    violations propagate as the validation errors of the domain types.
    orjson parses the file's bytes.  The json module parses the decoded
    text instead when orjson rejects it, when the text holds a backslash
    or nests more than 1024 deep, when the document carries a 'spec', and
    when building the problem from orjson's document raises; every error
    is therefore the one json's document gives.

    The load runs with the cyclic garbage collector paused, since the
    decoded document is a tree of lists, dicts and numbers with no cycles
    to reclaim, and the caller's collector state is restored whether it
    returns or raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_problem(path)
    finally:
        if was_enabled:
            gc.enable()


def _load_problem(path: str | Path) -> LoadedProblem:
    # a separate frame, so the decoded documents are freed before the
    # collector resumes
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    doc = _orjson_document(raw)
    if doc is not None:
        try:
            return _problem_from_document(doc, path, digest)
        except Exception:
            # json's reading of the same text raises the error, or loads a
            # document orjson read differently
            pass
    return _problem_from_document(_json_document(raw, path), path, digest)


# deeper texts go to json: orjson 3.8 sets no depth limit of its own and
# overflows the C stack converting a document some 10^5 levels deep
_MAX_ORJSON_DEPTH = 1024
# everything but the bytes that open or close an array, an object or a string
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_DEPTH_STEP = np.zeros(256, dtype=np.int64)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1


def _nesting_depth(raw: bytes) -> int:
    """The deepest nesting of arrays and objects in a JSON text without a
    backslash, whose quotes therefore pair up as string delimiters; an
    invalid text, which orjson rejects before it nests anything, may count
    wrong."""
    structure = raw.translate(None, _NOT_STRUCTURE)
    outside_strings = b"".join(structure.split(b'"')[::2])
    steps = _DEPTH_STEP[np.frombuffer(outside_strings, dtype=np.uint8)]
    return int(steps.cumsum().max(initial=0))


def _orjson_document(raw: bytes) -> dict | None:
    """The object orjson reads from ``raw``, or None where json alone reads
    it: a text with a backslash, whose escaped quotes the depth count would
    take for string delimiters, a text nested more than _MAX_ORJSON_DEPTH
    deep, one orjson rejects, and one that is not an object or carries a
    'spec', whose integers must stay exact (orjson reads an integer beyond
    64 bits as a double)."""
    if b"\\" in raw or _nesting_depth(raw) > _MAX_ORJSON_DEPTH:
        return None
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or "spec" in doc:
        return None
    return doc


def _json_document(raw: bytes, path: str | Path):
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ProblemFormatError(f"{path}: JSON nested too deeply") from None


def _problem_from_document(doc, path: str | Path, digest: str) -> LoadedProblem:
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
        if "dim" in doc and _spec_int(doc["dim"], f"{path}: dim") != ensemble.dim:
            raise ProblemFormatError(
                f"{path}: dim {doc['dim']} does not match spec dimension {ensemble.dim}"
            )
    else:
        dim = doc.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ProblemFormatError(f"{path}: 'dim' must be a positive integer")
        states_obj = doc["states"]
        if not isinstance(states_obj, list) or not states_obj:
            raise ProblemFormatError(f"{path}: 'states' must be a nonempty list")
        priors = []
        mats = []
        try:
            for i, item in enumerate(states_obj):
                if not isinstance(item, dict) or "prior" not in item or "matrix" not in item:
                    raise ProblemFormatError(
                        f"{path}: states[{i}] must carry 'prior' and 'matrix'"
                    )
                if not _is_number(item["prior"]):
                    raise ProblemFormatError(f"{path}: states[{i}].prior must be a number")
                priors.append(_as_double(item["prior"], f"{path}: states[{i}].prior"))
                mats.append(_decode_matrix(item["matrix"], dim, f"{path}: states[{i}].matrix"))
        except ProblemFormatError:
            # an invalid state before the malformed one is reported instead
            if mats:
                _checked_states(np.array(mats))
            raise
        ensemble = Ensemble(np.asarray(priors), _checked_states(np.array(mats)))

    povm = None
    if "povm" in doc:
        povm_obj = doc["povm"]
        if not isinstance(povm_obj, list) or not povm_obj:
            raise ProblemFormatError(f"{path}: 'povm' must be a nonempty list")
        elements = np.array([
            _decode_matrix(item, ensemble.dim, f"{path}: povm[{i}]")
            for i, item in enumerate(povm_obj)
        ])
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
            "vector": _encode_matrix(cert.witness.vector),
        }
    return {
        "verdict": "optimal" if cert.is_optimal else "not_optimal",
        "witness_min_eigenvalues": np.array(cert.witness_min_eigenvalues),
        "lagrange_hermiticity_residual": cert.lagrange_herm_residual,
        "pairwise_equality_residual": cert.pairwise_equality_residual,
        "zero_product_residual": cert.zero_product_residual,
        "gap_bound": cert.gap_bound,
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


def _finish(report: dict, report_path: str | None, optimal: bool) -> int:
    """Print ``report`` as text and canonical JSON, write the JSON to
    ``report_path`` if one is given, and return the verdict's exit code."""
    canonical = dumps_canonical(report)
    cert = report["certificate"]
    print(f"P_corr = {_format_float(report['p_corr'])}")
    print(f"P_err  = {_format_float(report['p_err'])}")
    verdict = cert["verdict"].upper()
    print(f"verdict: {verdict} (tolerance {_format_float(report['tolerance'])})")
    minima = ", ".join(_format_float(v) for v in cert["witness_min_eigenvalues"])
    print(f"witness min eigenvalues: [{minima}]")
    print(f"optimality gap bound: P_opt - P_corr <= {_format_float(cert['gap_bound'])}")
    print(
        "residuals: hermiticity "
        f"{_format_float(cert['lagrange_hermiticity_residual'])}, "
        f"pairwise equality {_format_float(cert['pairwise_equality_residual'])}, "
        f"zero product {_format_float(cert['zero_product_residual'])}"
    )
    if cert["witness"] is not None:
        print(
            f"witness: outcome {cert['witness']['outcome']}, "
            f"eigenvalue {_format_float(cert['witness']['eigenvalue'])}"
        )
    if report["solver"] is not None:
        s = report["solver"]
        eps = "none" if s["final_epsilon"] is None else _format_float(s["final_epsilon"])
        print(
            f"solver: converged={s['converged']} iterations={s['iterations']}, "
            f"final epsilon {eps}, seed {s['seed']}"
        )
    print("--- report ---")
    sys.stdout.write(canonical)
    if report_path:
        Path(report_path).write_text(canonical)
    return EXIT_OPTIMAL if optimal else EXIT_NOT_OPTIMAL


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
    return _finish(report, args.report, cert.is_optimal)


def _solver_summary(trace: SolveTrace, seed: int, start: str) -> dict:
    final_epsilon = trace.iterations[-1].epsilon if trace.iterations else None
    return {
        "start": start,
        "seed": seed,
        "converged": trace.converged,
        "iterations": len(trace.iterations),
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
    config = SolverConfig(tol=args.tol, max_iter=args.max_iter)
    trace = solve(problem.ensemble, start, config)

    output = args.output or str(Path(args.input).with_suffix("")) + ".solution.json"
    Path(output).write_text(problem_to_json(problem.ensemble, trace.final_povm))

    report = _build_report(
        "solve",
        problem.digest,
        trace.final_certificate,
        _solver_summary(trace, args.seed, args.start),
    )
    return _finish(report, args.report, trace.final_certificate.is_optimal)


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
            "12 parse failure, 13 file cannot be read or written, 14 numeric failure"
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
    slv.add_argument(
        "--max-iter", type=int, default=SolverConfig.max_iter,
        help="a solve takes at most this many steps (default %(default)s)",
    )
    slv.add_argument(
        "--seed", type=int, default=0,
        help="recorded in the report; the solver draws no random numbers (default %(default)s)",
    )
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


# parse_args keeps no state in the parser, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:  # a directory, a denied permission, a full disk
        print(f"error: cannot read or write a file: {exc}", file=sys.stderr)
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
