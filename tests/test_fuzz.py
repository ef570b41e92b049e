"""Fuzz tests: malformed text and argument vectors map to documented errors.

The parsers may raise only ``ValueError`` subclasses, and the CLI may end
only with its documented exit codes (0 success, 2 parse or usage error,
3 invalid input, 4 internal breach).  Every example runs in process and
is kept to milliseconds: few trials, few darts, a small distance budget.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hypermap_codes import (
    export_json,
    face_code,
    format_hypermap,
    parse_hypermap,
    parse_json,
    random_hypermap,
    reduce_to_surface,
)
from hypermap_codes.cli import main

from conftest import TORUS8

TORUS_TEXT = TORUS8.read_text()

# Pieces of the hypermap text format, so that drawn text often gets past
# the first line and reaches the cycle and special-dart parsers.
HM_PIECES = ["darts:", "alpha:", "sigma:", "special:", "#", "\n", " ", "(", ")", ":",
             "1", "2", "3", "8", "0", "-1", "９", "(1 2)", "(4 3 2 1)(5 7 8 6)", "﻿",
             "darts: 8\n", "darts: 3\n", "alpha: ()\n", "sigma: ()\n", "9" * 30]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(HM_PIECES), max_size=30).map("".join),
    st.integers(0, len(TORUS_TEXT)).flatmap(
        lambda cut: st.text(max_size=8).map(lambda s: TORUS_TEXT[:cut] + s + TORUS_TEXT[cut:])),
))
def test_parse_hypermap_raises_only_value_errors(text):
    try:
        parse_hypermap(text)
    except ValueError:
        pass


def _artifact_documents():
    h = random_hypermap(6, 3)
    return [json.loads(export_json(a)) for a in (
        h, face_code(h), reduce_to_surface(h, face_code(h)))]


ARTIFACTS = _artifact_documents()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 7) | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


@st.composite
def tampered_documents(draw):
    """An exported artifact with one field replaced, removed or added."""
    doc = dict(draw(st.sampled_from(ARTIFACTS)))
    key = draw(st.sampled_from(sorted(doc)) | st.text(max_size=8))
    if draw(st.booleans()) and key in doc:
        del doc[key]
    else:
        doc[key] = draw(json_values)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=200),
    json_values.map(json.dumps),
    tampered_documents(),
    st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 5000).map(lambda depth: '{"a":' * depth + "0" + "}" * depth),
))
def test_parse_json_raises_only_value_errors(text):
    try:
        parse_json(text)
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# argument vectors through the in-process CLI and its shared parser

HM_FILES = {
    "torus8.hm": TORUS_TEXT,
    "one.hm": "darts: 1\nalpha: ()\nsigma: ()\n",
    "random9.hm": format_hypermap(random_hypermap(9, 4)),
    "disconnected.hm": "darts: 2\nalpha: ()\nsigma: ()\n",
    "bad-special.hm": TORUS_TEXT + "special: 1 2 3\n",
    "bad-cycles.hm": "darts: 3\nalpha: (1 2\nsigma: ()\n",
    "bad-count.hm": "darts: x\n",
}


@pytest.fixture(scope="module")
def hm_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in HM_FILES.items():
        (root / name).write_text(text)
    (root / "latin1.hm").write_bytes(b"darts: 8\xe9\n")
    return [str(root / name) for name in (*HM_FILES, "latin1.hm", "missing.hm")]


def _number(high):
    return st.integers(-2, high).map(str) | st.sampled_from(["", "x", "1.5", "٣"])


# option -> strategy for its value tokens; the bounds keep every command cheap
OPTIONS = {
    "--kind": st.sampled_from(["face", "edge", "full", "other"]).map(lambda v: [v]),
    "--special": st.lists(_number(10), max_size=4),
    "--budget": _number(6).map(lambda v: [v]),
    "--allow-large": st.just([]),
    "--trials": _number(5).map(lambda v: [v]),
    "--max-darts": _number(12).map(lambda v: [v]),
    "--darts": _number(12).map(lambda v: [v]),
    "--seed": _number(9).map(lambda v: [v]),
    "--format": st.sampled_from(["dot", "json", "xml"]).map(lambda v: [v]),
    "--what": st.sampled_from(["hypermap", "code", "complex", "all"]).map(lambda v: [v]),
    "--bogus": st.just([]),
}
COMMANDS = ["info", "dual", "tri-dual", "contrary", "code", "reduce", "distance", "verify",
            "random", "export", "nope", "--help"]


@st.composite
def argvs(draw, files):
    argv = [draw(st.sampled_from(COMMANDS))]
    if argv[0] == "verify":  # the default of 500 trials would take a large part of a second
        argv += ["--trials", str(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(files)))
    for option in draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=4)):
        argv += [option, *draw(OPTIONS[option])]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--help")
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exits_only_with_documented_codes(hm_files, data):
    argv = data.draw(argvs(hm_files))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
