"""One grammar for number strings, whatever Python reads them.

``rat`` reads a string by CPython 3.13's ``Fraction`` grammar on every
supported Python: 3.10 takes no underscores and 3.10-3.11 no spaces
around "/", and 3.11-3.12 name a literal such as "1.d" by an ``int()``
error.  The table runs in this process and, in a child process, under
every other CPython >= 3.10 found on ``PATH``.  On Python >= 3.13 a
property checks ``rat`` against that interpreter's own ``Fraction``.
``rat`` dispatches on exact types and makes "n" and "n/d" straight from
their integers; a property and fixed cases check it against
``helpers.reference_rat``, which sends every value through ``isinstance``
and every string through one path.
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

from helpers import other_interpreters, reference_rat
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


def outcome(read_number, value):
    """What reading one value gives: its type and value, or its exception's type and text."""
    try:
        x = read_number(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(x), x


@st.composite
def number_texts(draw):
    """Literals built from the grammar's parts, in ASCII and other decimal digits."""
    digit = st.sampled_from("0123456789" * 3 + "٣٧۵५")

    def digits():
        groups = draw(st.lists(st.text(digit, min_size=1, max_size=4), min_size=1, max_size=3))
        return "_".join(groups) if draw(st.booleans()) else "".join(groups)

    space = st.sampled_from(["", "", " ", "\t", " \n "])
    text = draw(st.sampled_from(["", "+", "-"])) + digits()
    shape = draw(st.sampled_from(["int", "ratio", "decimal", "exponent", "both"]))
    if shape == "ratio":
        text += draw(space) + "/" + draw(space) + digits()
    if shape in ("decimal", "both"):
        text += "." + (digits() if draw(st.booleans()) else "")
    if shape in ("exponent", "both"):
        exponent = draw(st.one_of(st.integers(-40, 40).map(str), st.sampled_from(["4300", "-4301", "1_0"])))
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+"])) * (exponent[0] != "-") + exponent
    return draw(space) + text + draw(space)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.integers(),
        number_texts(),
        st.text(alphabet="0123456789_/.eE+- \t٣", max_size=10),
    )
)
def test_rat_agrees_with_the_reference(value):
    assert outcome(rat, value) == outcome(reference_rat, value)


class I(int):
    pass


class S(str):
    pass


class R(Fraction):
    pass


@pytest.mark.parametrize(
    "value", [I(7), S("-3/4"), S("2.5e1"), S("1/0"), S("x"), R(1, 3), True, False, 1.0, None, [1]], ids=repr
)
def test_other_types_take_the_isinstance_ladder(value):
    assert outcome(rat, value) == outcome(reference_rat, value)
    if isinstance(value, Fraction):
        assert rat(value) is value


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
@pytest.mark.parametrize("text", ["{}", "-{}", "{}/7", "7/{}", " {} / 9 "])
def test_plain_literals_at_the_digit_limit(text):
    limit = sys.get_int_max_str_digits()
    at, past = text.format("9" * limit), text.format("9" * (limit + 1))
    assert outcome(rat, at) == outcome(reference_rat, at)
    assert rat(at) == Fraction(at.replace(" ", ""))
    kind, message = outcome(rat, past)
    assert (kind, message) == outcome(reference_rat, past)
    assert kind is ValueError and "limit" in message
