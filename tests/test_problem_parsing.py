"""The problem loader parses with orjson and falls back on the json module.

Every problem text must load to the same bits, or fail with the same
exception type and message, as through the json module alone.  The one
accepted difference is a document nested deeper than json's recursion limit
but no deeper than the loader lets orjson read, under a key the loader
ignores: it now loads.
"""

import json
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindisc as md
from mindisc import cli


def _json_only_load(path):
    """The loader with orjson taken out: every file goes to the json module."""
    with mock.patch.object(cli, "_orjson_document", lambda raw: None):
        return cli.load_problem(path)


def _outcome(load, path):
    try:
        problem = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    ens = problem.ensemble
    return (
        problem.digest,
        ens.priors.tobytes(),
        ens.weighted_states.tobytes(),
        tuple(state.mat.tobytes() for state in ens.states),
        None if problem.povm is None else problem.povm.elements.tobytes(),
    )


def _assert_loads_as_json_alone(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_bytes(raw)
        assert _outcome(cli.load_problem, path) == _outcome(_json_only_load, path)


# ---------------------------------------------------------------------------
# named inputs, written into two orthogonal qubit states and the measurement
# that tells them apart; the edited slots keep the problem valid where the
# number allows it

def _diagonal_text(entry="1", off_diagonal="0", prior="0.5", dim="2", povm_entry="1",
                   extra="") -> str:
    return (
        '{"dim": %s, %s"states": [{"prior": %s, "matrix": [[[%s, 0], [%s, 0]], [[%s, 0], [0, 0]]]}, '
        '{"prior": 0.5, "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}], '
        '"povm": [[[[%s, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}'
    ) % (dim, extra, prior, entry, off_diagonal, off_diagonal, povm_entry)


HALFWAY_ABOVE_ONE = "1.00000000000000011102230246251565404236316680908203125"  # 1 + 2**-53
DIGITS_400 = "1" + "0" * 399
VALID = _diagonal_text()

NAMED_TEXTS = {
    "valid": VALID,
    "nan-entry": _diagonal_text(entry="NaN"),
    "infinity-entry": _diagonal_text(povm_entry="Infinity"),
    "minus-infinity-prior": _diagonal_text(prior="-Infinity"),
    "1e400-entry": _diagonal_text(entry="1e400"),
    "minus-1e400-prior": _diagonal_text(prior="-1e400"),
    "400-digit-entry": _diagonal_text(entry=DIGITS_400),
    "400-digit-povm-entry": _diagonal_text(povm_entry="-" + DIGITS_400),
    "400-digit-mantissa": _diagonal_text(entry="0." + "9" * 400),
    "400-digit-subnormal": _diagonal_text(off_diagonal="0." + "0" * 320 + "7" * 80),
    "2**64+1-entry": _diagonal_text(entry="18446744073709551617"),
    "-2**70-prior": _diagonal_text(prior=str(-2**70)),
    "2**64+1-off-diagonal": _diagonal_text(off_diagonal="18446744073709551617"),
    "2**64+2-dim": _diagonal_text(dim="18446744073709551618"),
    "2**64-1-dim": _diagonal_text(dim="18446744073709551615"),
    "float-dim": _diagonal_text(dim="2.0"),
    "minus-zero": _diagonal_text(off_diagonal="-0"),
    "minus-zero-float": _diagonal_text(off_diagonal="-0.0"),
    "smallest-subnormal": _diagonal_text(off_diagonal="5e-324"),
    "largest-subnormal": _diagonal_text(off_diagonal="2.2250738585072009e-308"),
    "subnormal-halfway-down": _diagonal_text(off_diagonal="2.4703282292062327e-324"),
    "subnormal-halfway-up": _diagonal_text(off_diagonal="2.4703282292062328e-324"),
    "underflow": _diagonal_text(off_diagonal="1e-400"),
    "halfway-mantissa": _diagonal_text(entry=HALFWAY_ABOVE_ONE),
    "above-halfway-mantissa": _diagonal_text(entry=HALFWAY_ABOVE_ONE + "1"),
    "halfway-integer": _diagonal_text(entry="9007199254740993", prior="9007199254740993e-16"),
    "20-digit-entry": _diagonal_text(entry="%.19e" % 1.0, prior="%.19e" % 0.5),
    "lone-high-surrogate-value": _diagonal_text(extra='"note": "\\ud800", '),
    "lone-low-surrogate-key": _diagonal_text(extra='"\\udc00": 1, '),
    "escaped-key": _diagonal_text().replace('"dim"', '"\\u0064im"', 1),
    "escaped-quote-and-bracket": _diagonal_text(extra='"note": "\\"]]]]", '),
    "bracket-in-string": _diagonal_text(extra='"note": "]]]]}}[[", '),
    "non-ascii-string": _diagonal_text(extra='"note": "é漢\U0001f600", '),
    "control-character": _diagonal_text(extra='"note": "\x01", '),
    "trailing-data": VALID + " x",
    "trailing-object": VALID + "{}",
    "trailing-whitespace": VALID + " \n\t\r",
    "form-feed": "\f" + VALID,
    "duplicate-dim-last-wrong": VALID.replace('{"dim": 2,', '{"dim": 2, "dim": 3,', 1),
    "duplicate-dim-last-right": VALID.replace('{"dim": 2,', '{"dim": 3, "dim": 2,', 1),
    "duplicate-prior": VALID.replace('{"prior": 0.5,', '{"prior": 0.25, "prior": 0.5,', 1),
    "duplicate-states": _diagonal_text(extra='"states": 7, '),
    "spec": '{"spec": {"kind": "random", "dim": 2, "n": 2, "seed": 3}}',
    "spec-with-states": '{"spec": {"kind": "trine"}, ' + VALID[1:],
    "spec-big-dim": '{"spec": {"kind": "random", "dim": 18446744073709551617, "n": 2, "seed": 3}}',
    "spec-float-seed": '{"spec": {"kind": "random", "dim": 2, "n": 2, "seed": 1e400}}',
    "spec-big-outer-dim": '{"dim": 18446744073709551619, "spec": {"kind": "trine"}}',
    "top-level-list": "[" + VALID + "]",
    "top-level-number": "-0",
    "empty": "",
    "open-brackets": "[" * 100_000,
    "balanced-brackets": "[" * 2000 + "]" * 2000,
    "deep-under-ignored-key": _diagonal_text(extra='"pad": %s, ' % ("[" * 2000 + "]" * 2000)),
}

NAMED_BYTES = {
    "bom": b"\xef\xbb\xbf" + VALID.encode(),
    "invalid-utf8-in-string": _diagonal_text(extra='"note": "@", ').encode().replace(b"@", b"\xff"),
    "encoded-surrogate": _diagonal_text(extra='"note": "@", ').encode().replace(b"@", b"\xed\xa0\x80"),
    "overlong-encoding": _diagonal_text(extra='"note": "@", ').encode().replace(b"@", b"\xc0\xaf"),
    "beyond-unicode": _diagonal_text(extra='"note": "@", ').encode().replace(b"@", b"\xf4\x90\x80\x80"),
    "invalid-utf8-outside": VALID.encode() + b"\xff",
    "nul-byte": VALID.encode() + b"\x00",
}


@pytest.mark.parametrize(
    "raw",
    [text.encode() for text in NAMED_TEXTS.values()] + list(NAMED_BYTES.values()),
    ids=list(NAMED_TEXTS) + list(NAMED_BYTES),
)
def test_named_inputs_load_as_through_json_alone(raw):
    _assert_loads_as_json_alone(raw)


def test_named_inputs_cover_orjson_loads_and_every_fallback():
    def served_by_orjson(text):
        doc = cli._orjson_document(text.encode())
        return doc is not None

    assert served_by_orjson(VALID)
    for name in ("halfway-mantissa", "minus-zero", "2**64+1-entry", "duplicate-prior",
                 "non-ascii-string", "400-digit-mantissa", "2**64+2-dim"):
        assert served_by_orjson(NAMED_TEXTS[name]), name
    for name in ("nan-entry", "1e400-entry", "400-digit-entry", "escaped-key", "spec",
                 "trailing-data", "open-brackets", "balanced-brackets", "top-level-list"):
        assert not served_by_orjson(NAMED_TEXTS[name]), name


def test_a_problem_file_loads_without_the_json_parser(tmp_path):
    ens = md.random_mixed(4, 3, 1)
    path = tmp_path / "p.json"
    path.write_text(cli.problem_to_json(ens, md.square_root_measurement(ens)))
    with mock.patch.object(cli, "_json_document", side_effect=AssertionError("json used")):
        loaded = cli.load_problem(path)
    assert loaded.ensemble.weighted_states.tobytes() == ens.weighted_states.tobytes()


@pytest.mark.parametrize(
    "text, code, message",
    [
        (_diagonal_text(entry="NaN"), cli.EXIT_VALIDATION, "validation error: "),
        (_diagonal_text(entry=DIGITS_400), cli.EXIT_PARSE,
         "states[0].matrix row 0 column 0: number too large for a double"),
        (_diagonal_text(dim="18446744073709551618"), cli.EXIT_PARSE,
         "states[0].matrix: expected 18446744073709551618 rows"),
        ('{"spec": {"kind": "random", "dim": 2, "n": 2, "seed": 1.5}}', cli.EXIT_PARSE,
         "spec.seed: expected an integer, got 1.5"),
    ],
    ids=["nan", "400-digits", "big-dim", "spec-seed"],
)
def test_fallback_errors_keep_their_exit_code_and_message(tmp_path, capsys, text, code, message):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert cli.main(["certify", str(path)]) == code
    assert message in capsys.readouterr().err


def test_a_spec_seed_beyond_64_bits_stays_exact(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"spec": {"kind": "random", "dim": 4, "n": 2, "seed": 18446744073709551617}}')
    assert isinstance(orjson.loads(path.read_bytes())["spec"]["seed"], float)
    loaded = cli.load_problem(path)
    reference = md.random_mixed(4, 2, 2**64 + 1)
    assert loaded.ensemble.weighted_states.tobytes() == reference.weighted_states.tobytes()
    assert loaded.ensemble.weighted_states.tobytes() != md.random_mixed(4, 2, 2**64).weighted_states.tobytes()


# ---------------------------------------------------------------------------
# generated problem documents

class _Slot:
    """A number written into a document as its text."""

    def __init__(self, text: str):
        self.text = text


def _text(value) -> str:
    if isinstance(value, _Slot):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return json.dumps(value)


def _slots(value) -> list:
    if isinstance(value, _Slot):
        return [value]
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [slot for child in children for slot in _slots(child)]


FORMATS = ("%.17g", "%r", "%.19e", "%.20g")

odd_numbers = st.one_of(
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", "-0", "-0.0", "1e400", "-1e400", DIGITS_400,
        "0." + "3" * 400, "1e-400", "5e-324", "2.4703282292062328e-324", "9007199254740993",
        HALFWAY_ABOVE_ONE, "18446744073709551617", "-9223372036854775809",
        "18446744073709551615", "true", "null", '"0"', "[]", "0.5",
    ]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(json.dumps),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def problem_texts(draw) -> str:
    if draw(st.integers(0, 5)) == 0:
        spec = {
            "kind": "random",
            "dim": _Slot(str(draw(st.integers(1, 3)))),
            "n": _Slot(str(draw(st.integers(1, 3)))),
            "seed": _Slot(str(draw(st.sampled_from([0, 7, 2**63, 2**64 + 1, -2**70])))),
        }
        doc = {"spec": spec}
    else:
        d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ens = md.random_mixed(d, n, draw(st.integers(0, 2**16)))
        fmt = draw(st.sampled_from(FORMATS))

        def matrix(mat):
            return [[[_Slot(fmt % z.real), _Slot(fmt % z.imag)] for z in row] for row in mat.tolist()]

        doc = {
            "dim": _Slot(str(d)),
            "states": [
                {"prior": _Slot(fmt % p), "matrix": matrix(s.mat)}
                for p, s in zip(ens.priors.tolist(), ens.states)
            ],
        }
        if draw(st.booleans()):
            doc["povm"] = [matrix(e) for e in md.square_root_measurement(ens).elements]
    if draw(st.booleans()):
        doc["note"] = draw(json_values)
    slots = _slots(doc)
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(slots)).text = draw(odd_numbers)
    text = _text(doc)
    if draw(st.integers(0, 7)) == 0:
        text = json.dumps(json.loads(text), ensure_ascii=draw(st.booleans()))
    return text


@settings(max_examples=300, deadline=None)
@given(problem_texts())
def test_generated_problems_load_as_through_json_alone(text):
    _assert_loads_as_json_alone(text.encode())


@settings(max_examples=300, deadline=None)
@given(json_values, st.booleans())
def test_generated_documents_load_as_through_json_alone(value, ensure_ascii):
    _assert_loads_as_json_alone(json.dumps(value, ensure_ascii=ensure_ascii).encode())


# ---------------------------------------------------------------------------
# the depth guard in front of orjson

def _reference_depth(value) -> int:
    if isinstance(value, dict):
        return 1 + max(map(_reference_depth, value.values()), default=0)
    if isinstance(value, list):
        return 1 + max(map(_reference_depth, value), default=0)
    return 0


string_with_structure = st.text(alphabet='[]{}"\\ abé', max_size=6)
nested_values = st.recursive(
    st.integers() | string_with_structure,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(string_with_structure, children, max_size=3),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(nested_values, st.booleans())
def test_nesting_depth_counts_arrays_and_objects_outside_strings(value, ensure_ascii):
    text = json.dumps(value, ensure_ascii=ensure_ascii).encode()
    if b"\\" not in text:
        assert cli._nesting_depth(text) == _reference_depth(value)


def test_a_file_nested_beyond_the_stack_fails_as_nested_too_deeply(tmp_path):
    # orjson 3.8 alone overflows the C stack on this text, some 10**5 levels deep
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 1, "pad": ' + "[" * 300_000 + "]" * 300_000 + "}")
    with pytest.raises(cli.ProblemFormatError, match="JSON nested too deeply"):
        cli.load_problem(path)


@pytest.mark.parametrize("depth", [1000, cli._MAX_ORJSON_DEPTH])
def test_nesting_past_the_json_limit_under_an_ignored_key_loads(tmp_path, depth):
    """The accepted divergence: the document nests `depth` levels (the
    'pad' key adds the outer object), json's recursion limit is lower here,
    and the loader loads it where json alone fails it as nested too deeply."""
    pad = "[" * (depth - 1) + "]" * (depth - 1)
    path = tmp_path / "deep.json"
    path.write_text(_diagonal_text(extra=f'"pad": {pad}, '))
    loaded = _outcome(cli.load_problem, path)
    (tmp_path / "flat.json").write_text(VALID)
    assert loaded[1:] == _outcome(cli.load_problem, tmp_path / "flat.json")[1:]
    try:
        json.loads(path.read_text())
    except RecursionError:
        assert _outcome(_json_only_load, path) == (
            cli.ProblemFormatError, f"{path}: JSON nested too deeply"
        )
    else:  # an interpreter whose json reads this depth: no divergence
        assert _outcome(_json_only_load, path) == loaded


def test_nesting_past_the_orjson_limit_fails_as_through_json_alone(tmp_path):
    pad = "[" * cli._MAX_ORJSON_DEPTH + "]" * cli._MAX_ORJSON_DEPTH
    raw = _diagonal_text(extra=f'"pad": {pad}, ').encode()
    assert cli._nesting_depth(raw) == cli._MAX_ORJSON_DEPTH + 1
    assert cli._orjson_document(raw) is None
    _assert_loads_as_json_alone(raw)


# ---------------------------------------------------------------------------
# orjson's doubles are float()'s

def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # any bit pattern: every exponent, subnormals included
    st.integers(0, 2**64 - 1).map(lambda u: struct.unpack("<d", struct.pack("<Q", u))[0]),
    # subnormals alone
    st.integers(1, 2**52 - 1).map(lambda u: struct.unpack("<d", struct.pack("<Q", u))[0]),
).filter(math.isfinite)


@settings(max_examples=2000, deadline=None)
@given(finite_doubles, st.booleans())
def test_orjson_reads_doubles_as_float_does(x, negate):
    """orjson and float() agree bit for bit on every text of a double the
    loader meets: 17 significant digits, repr and 20 significant digits.
    An integer text (``%.17g`` writes 1.0 as ``1``) is compared with the
    integer the json module reads, which float() rounds the same way."""
    x = -x if negate else x
    for text in (format(x, ".17g"), repr(x), format(x, ".19e")):
        reference = json.loads(text)
        assert _bits(orjson.loads(text)) == _bits(reference), text
        if isinstance(reference, float):
            assert _bits(reference) == _bits(float(text))

