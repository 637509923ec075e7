"""Mutated demo files end in a result or a clean error, never a traceback.

Each example takes one file from ``demos/data``, replaces one node of its
JSON (a leaf, a container or the whole document) with an arbitrary JSON
value or deletes it, then feeds the result to the matching ``parse_*``
function, which may raise only ``SchemaError``, and to ``cli.main``, which
may return only 0, 2 or 3.  A second property sets one number of a
market to a string around ``sys.get_int_max_str_digits()`` digits and
accepts only a result or an exit 2 that names the number's couple or
field, or ``--eps``, each within a second.
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matchgames import SchemaError, parse_instance, parse_model, parse_tree
from matchgames.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# file -> (parse, CLI arguments with FILE and OUT as placeholders)
INSTANCE = (lambda data: parse_instance(data, eps="1/2"), ["solve-stable", "FILE", "--eps", "1/2"])
TARGETS = {
    "coordination.json": INSTANCE,
    "wage_split.json": INSTANCE,
    "mixed_classes.json": INSTANCE,
    "ordinal.json": (lambda data: parse_model(data, "ordinal"), ["adapt", "ordinal", "FILE", "-o", "OUT"]),
    "housing.json": (
        lambda data: parse_model(data, "shapley_shubik"),
        ["adapt", "shapley-shubik", "FILE", "-o", "OUT"],
    ),
    "veto_tree.json": (parse_tree, ["spe", "FILE", "--outs", "0", "0"]),
}
DOCUMENTS = {name: json.loads((DATA / name).read_text()) for name in TARGETS}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.sampled_from([0.5, -2.0]),
    st.sampled_from(["", "x", "0", "-3", "1/0", "-1/2", "7/3", "0.25", "1e3", "NaN", "m0", "w1", "zeta"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["class", "u", "v", "g", "men", "0", "x"]), inner, max_size=3),
    ),
    max_leaves=6,
)
DELETE = object()


def node_paths(node, path=()):
    """Every node's path (dict keys and list indices), the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def mutate(document, path, value):
    if not path:
        return None if value is DELETE else value
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_demo_files(data):
    name = data.draw(st.sampled_from(sorted(TARGETS)), label="file")
    document = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(node_paths(document))), label="path")
    value = data.draw(st.one_of(st.just(DELETE), VALUES), label="value")
    mutated = mutate(document, path, value)
    parse, argv = TARGETS[name]
    try:
        parse(mutated)
    except SchemaError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / name
        file.write_text(json.dumps(mutated))
        args = [{"FILE": str(file), "OUT": str(Path(tmp) / "out.json")}.get(a, a) for a in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(args)
    assert rc in (0, 2, 3), sink.getvalue()


# Where each number sits in mixed_classes.json (one couple of every class),
# and the prefix its error must name; None is --eps.
NUMBER_SITES = {
    "bimatrix U": (("games", "m0", "w0", "u", 0, 0), "instance.games['m0']['w0']"),
    "potential phi": (("games", "m0", "w1", "phi", 0, 0), "instance.games['m0']['w1']"),
    "zero-sum g": (("games", "m0", "w2", "g", 0, 0), "instance.games['m0']['w2']"),
    "strictly competitive breakpoint": (("games", "m1", "w0", "f", 1, 0), "instance.games['m1']['w0']"),
    "transfer t_max": (("games", "m1", "w1", "t_max"), "instance.games['m1']['w1']"),
    "repeated U": (("games", "m1", "w2", "u", 0, 0), "instance.games['m1']['w2']"),
    "reservation payoff": (("irp", "men", 0), "instance.irp.men[0]"),
    "eps": (None, "--eps"),
}
NUMBER_SHAPES = {
    "numerator": lambda k: "9" * k,
    "denominator": lambda k: "1/" + "9" * k,
    "exponent": lambda k: f"1e{k}",
    "negative exponent": lambda k: f"1e-{k}",
}


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(NUMBER_SITES)),
    st.sampled_from(sorted(NUMBER_SHAPES)),
    st.integers(-1, 1),
)
def test_numbers_around_the_print_limit(site, shape, offset):
    path, names = NUMBER_SITES[site]
    text = NUMBER_SHAPES[shape](sys.get_int_max_str_digits() + offset)
    document, eps = DOCUMENTS["mixed_classes.json"], "1/2"
    if path is None:
        eps = text
    else:
        document = mutate(document, path, text)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "market.json"
        file.write_text(json.dumps(document))
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(["solve-external", str(file), "--eps", eps])
            except SystemExit as exc:  # argparse refuses a bad --eps
                rc = exc.code
        assert time.perf_counter() - start < 1
    assert rc == 0 or (rc == 2 and names in err.getvalue()), err.getvalue()
