"""One grammar for number strings, whatever Python reads them.

``rat`` reads a string by CPython 3.13's ``Fraction`` grammar on every
supported Python: 3.10 takes no underscores and 3.10-3.11 no spaces
around "/", and 3.11-3.12 name a literal such as "1.d" by an ``int()``
error.  The table runs in this process and, in a child process, under
every other CPython >= 3.10 found on ``PATH``.  On Python >= 3.13 a
property checks ``rat`` against that interpreter's own ``Fraction``.
"""

import inspect
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames.rational import fmt, rat

from helpers import other_interpreters
from test_cli import checkout_env

# each string and its value, or the exact text of its ValueError
GRAMMAR = [
    ("3", "3"),
    ("-7/2", "-7/2"),
    ("0.25", "1/4"),
    ("0.2_5", "1/4"),
    ("1e3", "1000"),
    ("-2.5E-2", "-1/40"),
    (" 3/4 ", "3/4"),
    (".5", "1/2"),
    ("5.", "5"),
    ("+5", "5"),
    ("1_000", "1000"),
    ("1_0/3", "10/3"),
    ("3 / 4", "3/4"),
    ("1e1_0", "10000000000"),
    ("٣", "3"),
    ("1.d", "ValueError: Invalid literal for Fraction: '1.d'"),
    ("0x1", "ValueError: Invalid literal for Fraction: '0x1'"),
    ("1_", "ValueError: Invalid literal for Fraction: '1_'"),
    ("_1", "ValueError: Invalid literal for Fraction: '_1'"),
    ("1__0", "ValueError: Invalid literal for Fraction: '1__0'"),
    ("1/2e3", "ValueError: Invalid literal for Fraction: '1/2e3'"),
    ("", "ValueError: Invalid literal for Fraction: ''"),
    ("1/0", "ValueError: zero denominator in '1/0'"),
]


def read(text):
    """``rat`` of one string in canonical form, or the text of its ValueError."""
    try:
        return fmt(rat(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


# the child reads the strings as JSON on stdin and writes what read gives each
CHILD = "\n".join(
    [
        "import json, sys",
        "from matchgames.rational import fmt, rat",
        inspect.getsource(read),
        "print(json.dumps([read(text) for text in json.load(sys.stdin)]))",
    ]
)


def interpreters():
    runs = [pytest.param(None, id="in-process")]
    runs += [pytest.param(path, id=name) for name, path in other_interpreters()]
    return runs


@pytest.mark.parametrize("python", interpreters())
def test_grammar_table(python):
    texts = [text for text, _ in GRAMMAR]
    if python is None:
        got = [read(text) for text in texts]
    else:
        run = subprocess.run(
            [python, "-c", CHILD],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            env=checkout_env(),
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout)
    assert dict(zip(texts, got)) == dict(GRAMMAR)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="the grammar is CPython 3.13's")
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789_/.eE+- \t٣", max_size=10))
def test_rat_agrees_with_fraction(text):
    mine = read(text)
    if mine.endswith("(sys.get_int_max_str_digits())"):
        return  # past the digit limits: rat refuses before Fraction would spend the time
    try:
        theirs = fmt(Fraction(text))
    except ZeroDivisionError:
        theirs = f"ValueError: zero denominator in {text!r}"
    except ValueError as exc:
        theirs = f"ValueError: {exc}"
    assert mine == theirs
