"""Exact JSON round trips for instances, profiles, trees, and model files."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    Contract,
    MatchingProfile,
    PiecewiseLinear,
    PotentialGame,
    RepeatedGame,
    SchemaError,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    build_instance,
    dump_instance,
    dump_profile,
    fmt,
    parse_instance,
    parse_model,
    parse_profile,
    parse_tree,
    rat,
    run_propose_dispose,
    validate_potential,
)
from matchgames import serde
from matchgames.rational import digits_past_limit, render_event
from matchgames.serde import dump_game, load_json

from helpers import reference_is_potential
from test_rational import number_texts

F = Fraction

PD_U = [[3, 0], [4, 1]]
PD_V = [[3, 4], [0, 1]]
PENNIES = [[1, -1], [-1, 1]]
IDENT = [(-2, -2), (2, 2)]


def mixed_instance():
    """One game of every class, fractional reservation payoffs."""
    coord = [[2, 0], [0, 1]]
    games = {
        (0, 0): BimatrixGame([[3, 2, 0]], [[1, 4, 9]]),
        (0, 1): PotentialGame(coord, coord, coord),
        (0, 2): ZeroSumGame(PENNIES, F(1, 2)),
        (1, 0): StrictlyCompetitiveGame(
            PENNIES, F(1, 2), PiecewiseLinear(IDENT), PiecewiseLinear(IDENT)
        ),
        (1, 1): TransferGame(
            0,
            6,
            1,
            PiecewiseLinear([(0, -2), (1, -1)]),
            PiecewiseLinear([(0, 6), (1, 7)]),
        ),
        (1, 2): RepeatedGame(PD_U, PD_V, F(1, 2)),
    }
    return build_instance(
        ["m0", "m1"],
        ["w0", "w1", "w2"],
        [F(1, 2), F(-3, 2)],
        [0, 0, 0],
        games,
    )


class TestInstanceRoundTrip:
    def test_all_game_classes(self):
        inst = mixed_instance()
        d1 = dump_instance(inst)
        inst2, eps = parse_instance(d1, eps=F(1, 2))
        assert eps == F(1, 2)
        d2 = dump_instance(inst2)
        assert d1 == d2
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        for key in inst.games:
            a = inst.game(*key).menu()
            b = inst2.game(*key).menu()
            assert [(c.id, c.u, c.v) for c in a] == [(c.id, c.u, c.v) for c in b]

    def test_fractions_canonical_on_output(self):
        inst = build_instance(
            ["m"], ["w"], [F(6, 4)], [F(-2, 8)], {(0, 0): BimatrixGame([[2]], [[2]])}
        )
        data = dump_instance(inst)
        assert data["irp"]["men"] == ["3/2"]
        assert data["irp"]["women"] == ["-1/4"]

    def test_integers_stay_integers(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[2]], [[3]])}
        )
        data = dump_instance(inst)
        assert data["games"]["m"]["w"]["u"] == [[2]]
        assert data["irp"]["men"] == [0]


def minimal_data(u=None, v=None):
    return {
        "men": ["m"],
        "women": ["w"],
        "irp": {"men": [0], "women": [0]},
        "games": {
            "m": {"w": {"class": "bimatrix", "u": u or [[1]], "v": v or [[1]]}}
        },
    }


class TestInstanceParsing:
    def test_default_eps_on_integer_instance(self):
        _inst, eps = parse_instance(minimal_data())
        assert eps == 1

    def test_fractional_instance_demands_eps(self):
        data = minimal_data(u=[["1/2"]])
        with pytest.raises(SchemaError, match="--eps"):
            parse_instance(data)
        _inst, eps = parse_instance(data, eps=F(1, 4))
        assert eps == F(1, 4)

    def test_the_refusal_without_eps_names_the_flag(self):
        with pytest.raises(SchemaError) as info:
            parse_instance(minimal_data(u=[["1/2"]]))
        assert str(info.value) == (
            "instance has non-integer payoffs, so there is no default margin; pass --eps"
        )

    def test_a_given_eps_reads_no_number_for_integrality(self, monkeypatch):
        # Only the default margin asks whether every number is an integer.
        def walked(value):
            raise AssertionError(f"integrality read for {value!r}")

        monkeypatch.setattr(serde, "_integral", walked)
        data = minimal_data(u=[["1/2", 2]], v=[[1, "3/4"]])
        data["menu_resolution"] = "1/4"
        for eps in ("1/2", 1, 0):
            _inst, used = parse_instance(data, eps=eps)
            assert used == F(eps)

    def test_menu_resolution_defaults_to_half_eps(self):
        data = minimal_data()
        data["games"]["m"]["w"] = {"class": "zero_sum", "g": [[1, -1], [-1, 1]]}
        inst, _ = parse_instance(data)
        assert inst.game(0, 0).resolution == F(1, 2)
        # the fractional resolution itself kills the all-integer default
        data["menu_resolution"] = "1/4"
        with pytest.raises(SchemaError, match="--eps"):
            parse_instance(data)
        inst, _ = parse_instance(data, eps=1)
        assert inst.game(0, 0).resolution == F(1, 4)

    def test_zero_eps_without_resolution_rejected(self):
        data = minimal_data()
        data["games"]["m"]["w"] = {"class": "zero_sum", "g": [[0]]}
        with pytest.raises(SchemaError, match="resolution"):
            parse_instance(data, eps=0)

    def test_field_errors_name_the_field(self):
        data = minimal_data()
        del data["irp"]
        with pytest.raises(SchemaError, match="irp"):
            parse_instance(data)
        data = minimal_data()
        data["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            parse_instance(data)
        data = minimal_data()
        data["games"]["m"]["w"]["class"] = "quantum"
        with pytest.raises(SchemaError, match="quantum"):
            parse_instance(data)
        data = minimal_data()
        data["games"] = {"x": data["games"]["m"]}
        with pytest.raises(SchemaError, match="exactly the men"):
            parse_instance(data)

    def test_no_men_refused(self):
        data = minimal_data()
        data.update(men=[], irp={"men": [], "women": [0]}, games={})
        with pytest.raises(SchemaError) as info:
            parse_instance(data)
        assert str(info.value) == "instance.men: must be nonempty"

    def test_zero_denominators_rejected(self):
        with pytest.raises(SchemaError, match=r"u\[0\]\[0\]"):
            parse_instance(minimal_data(u=[["1/0"]]), eps=1)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_instance(minimal_data(), eps="1/0")

    def test_booleans_are_not_numbers(self):
        with pytest.raises(SchemaError, match="expected an integer"):
            parse_instance(minimal_data(u=[[True]]), eps=1)

    def test_game_build_errors_become_schema_errors(self):
        data = minimal_data()
        data["games"]["m"]["w"] = {
            "class": "bimatrix",
            "u": [[1, 2]],
            "v": [[1]],
        }
        with pytest.raises(SchemaError, match="dimensions"):
            parse_instance(data)


def potential_data(**fields):
    """One 3×3 exact-potential couple; ``fields`` replace its payload fields."""
    game = {
        "class": "potential",
        "u": [[1, 1, 1], [2, 2, 2], [3, 3, 3]],
        "v": [[1, 2, 3], [1, 2, 3], [1, 2, 3]],
        "phi": [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        **fields,
    }
    data = minimal_data()
    data["games"]["m"]["w"] = game
    return data


GAME = "instance.games['m']['w']"


class TestMatrixEntryErrors:
    """The exact message for each malformed matrix entry, path included."""

    @pytest.mark.parametrize("field, r, c", [("u", 1, 2), ("phi", 2, 0)])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, 'expected an integer or "p/q" string, got True'),
            ("x", "Invalid literal for Fraction: 'x'"),
            ("1/0", "zero denominator in '1/0'"),
            (json.loads("Infinity"), 'expected an integer or "p/q" string, got inf'),
        ],
    )
    def test_entry_messages(self, field, r, c, bad, message):
        data = potential_data()
        data["games"]["m"]["w"][field][r][c] = bad
        with pytest.raises(SchemaError) as info:
            parse_instance(data)
        assert str(info.value) == f"{GAME}.{field}[{r}][{c}]: {message}"

    def test_ragged_and_non_list_rows(self):
        cases = [
            ({"u": [[1, 1, 1], [2, 2], [3, 3, 3]]}, f"{GAME}: U must be a nonempty rectangular matrix"),
            ({"phi": [[0, 1, 2], [1, 2, 3], [2, 3]]}, f"{GAME}: phi must be a nonempty rectangular matrix"),
            ({"u": [[1, 1, 1], 5, [3, 3, 3]]}, f"{GAME}.u[1]: expected a list, got 5"),
            ({"u": 5}, f"{GAME}.u: expected a list, got 5"),
        ]
        for fields, message in cases:
            with pytest.raises(SchemaError) as info:
                parse_instance(potential_data(**fields))
            assert str(info.value) == message

    def test_integral_fraction_strings_keep_the_default_margin(self):
        _inst, eps = parse_instance(potential_data(u=[[1, 1, 1], ["4/2", 2, "6/3"], [3, 3, 3]]))
        assert eps == 1

    def test_fractional_breakpoint_or_t_min_demands_eps(self):
        data = minimal_data()
        data["games"]["m"]["w"] = {
            "class": "strictly_competitive",
            "g": [[1, -1], [-1, 1]],
            "f": [[-2, -2], ["1/2", 2]],
            "h": [[-2, -2], [2, 2]],
        }
        with pytest.raises(SchemaError, match="--eps"):
            parse_instance(data)
        data["games"]["m"]["w"] = {
            "class": "transfer",
            "t_min": "1/2",
            "t_max": 6,
            "f_u": [[0, -2], [1, -1]],
            "f_v": [[0, 6], [1, 7]],
        }
        with pytest.raises(SchemaError, match="--eps"):
            parse_instance(data)
        _inst, eps = parse_instance(data, eps="1/2")
        assert eps == F(1, 2)


SHAPE = f"{GAME}: U must be a nonempty rectangular matrix"
NO_MARGIN = "instance has non-integer payoffs, so there is no default margin; pass --eps"


class TestMatrixRefusals:
    """Every refusal of a matrix, in full, through ``parse_instance``, with and without a margin."""

    @pytest.mark.parametrize("eps", [None, 1])
    @pytest.mark.parametrize(
        "u, message",
        [
            ([[1, 1, 1], [2, 2], [3, 3, 3]], SHAPE),
            ([], SHAPE),
            ([[]], SHAPE),
            ([[1, 1, 1], [2, 2, 2], "row"], f"{GAME}.u[2]: expected a list, got 'row'"),
            ([[1, 1, 1], [2, True, 2], [3, 3, 3]], f'{GAME}.u[1][1]: expected an integer or "p/q" string, got True'),
            ([[1, 1, 1], [2, 2, "x"], [3, 3, 3]], f"{GAME}.u[1][2]: Invalid literal for Fraction: 'x'"),
            ([[1, 1, 1], [2, 2, 2], [3, "1/0", 3]], f"{GAME}.u[2][1]: zero denominator in '1/0'"),
            ([[1, 1, 1], [2, 2, 2], [3, 3, 0.5]], f'{GAME}.u[2][2]: expected an integer or "p/q" string, got 0.5'),
        ],
        ids=["ragged", "empty", "empty_row", "row_not_a_list", "true", "x", "zero_denominator", "float"],
    )
    def test_full_text(self, u, message, eps):
        with pytest.raises(SchemaError) as info:
            parse_instance(potential_data(u=u), eps=eps)
        assert str(info.value) == message

    def test_a_float_literal_in_the_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(potential_data()).replace("[3, 3, 3]", "[3, 3.0, 3]"))
        with pytest.raises(SchemaError) as info:
            serde.load_instance_file(str(path))
        assert str(info.value) == "float literal '3.0' not allowed; write numbers as integers or \"p/q\" strings"

    def test_a_ragged_fractional_matrix_without_eps_has_no_margin(self):
        data = potential_data(u=[[1, 1, 1], [2, "1/2"], [3, 3, 3]])
        with pytest.raises(SchemaError) as info:
            parse_instance(data)
        assert str(info.value) == NO_MARGIN
        with pytest.raises(SchemaError) as info:
            parse_instance(data, eps=1)
        assert str(info.value) == SHAPE

    def test_a_bad_number_in_a_later_couple_comes_before_a_ragged_matrix(self):
        # every couple is read before any game is built
        data = {
            "men": ["m"],
            "women": ["w0", "w1"],
            "irp": {"men": [0], "women": [0, 0]},
            "games": {
                "m": {
                    "w0": {"class": "bimatrix", "u": [[1, 2], [3]], "v": [[1, 2], [3, 4]]},
                    "w1": {"class": "bimatrix", "u": [[1]], "v": [["x"]]},
                }
            },
        }
        for eps in (None, 1):
            with pytest.raises(SchemaError) as info:
                parse_instance(data, eps=eps)
            assert str(info.value) == "instance.games['m']['w1'].v[0][0]: Invalid literal for Fraction: 'x'"

    def test_the_default_margin_reads_each_matrix_by_its_d(self, monkeypatch):
        reads, at_build = [], []

        class Watched(tuple):
            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

            def __getitem__(self, k):
                reads.append(k)
                return super().__getitem__(k)

        over_lcm, build_game = serde._over_lcm, serde._build_game

        def watched(xs, rows, cols):
            m = over_lcm(xs, rows, cols)
            return m._replace(numerators=Watched(m.numerators))

        def first_build(*args):
            at_build.append(len(reads))
            return build_game(*args)

        monkeypatch.setattr(serde, "_over_lcm", watched)
        monkeypatch.setattr(serde, "_build_game", first_build)
        data = potential_data(u=[[1, 1, 1], ["4/2", 2, "6/3"], [3, 3, 3]])
        _inst, eps = parse_instance(data)
        assert eps == 1
        assert at_build[0] == 0  # no matrix entry read between the matrix reader and the first game
        assert reads  # the games do read them


MATRIX_CLASSES = ("bimatrix", "potential", "zero_sum", "strictly_competitive", "repeated")
DOUBLING = [[0, 0], [1, 2]]  # the breakpoints of x -> 2x


def file_form(draw, x: Fraction):
    """x as a file writes it: "p/q", the same over twice the denominator ("4/2"), or an int when integral."""
    forms = [f"{x.numerator}/{x.denominator}", f"{2 * x.numerator}/{2 * x.denominator}"]
    return draw(st.sampled_from(forms + ([int(x)] if x.denominator == 1 else [])))


@st.composite
def matrix_couples(draw):
    """A game class, its matrices as Fractions (1×1 to 4×4) and its payload with each entry in a file form.

    Half the potential games get phi as an exact potential, U = phi + a(col)
    and V = phi + b(row); the rest draw phi freely and are often refused.
    """
    kind = draw(st.sampled_from(MATRIX_CLASSES))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.builds(F, st.integers(-6, 6), st.sampled_from(draw(st.sampled_from([[1], [1], [1, 2, 3]]))))

    def matrix():  # entries from a pool of at most four values, so ties are common
        cell = st.sampled_from(draw(st.lists(value, min_size=1, max_size=4)))
        return [[draw(cell) for _c in range(cols)] for _r in range(rows)]

    names = {"potential": ("u", "v", "phi"), "zero_sum": ("g",), "strictly_competitive": ("g",)}
    ms = {name: matrix() for name in names.get(kind, ("u", "v"))}
    if kind == "potential" and draw(st.booleans()):
        phi, a, b = ms["phi"], [draw(value) for _c in range(cols)], [draw(value) for _r in range(rows)]
        ms["u"] = [[phi[r][c] + a[c] for c in range(cols)] for r in range(rows)]
        ms["v"] = [[phi[r][c] + b[r] for c in range(cols)] for r in range(rows)]
    payload = {"class": kind, **{name: [[file_form(draw, x) for x in row] for row in m] for name, m in ms.items()}}
    if kind == "strictly_competitive":
        payload["f"] = payload["h"] = DOUBLING
    if kind in ("zero_sum", "strictly_competitive", "repeated"):
        payload["resolution"] = 1
    return kind, ms, payload


def constructed(kind, ms):
    """The game the public constructor makes from the Fraction matrices."""
    if kind == "bimatrix":
        return BimatrixGame(ms["u"], ms["v"])
    if kind == "potential":
        return PotentialGame(ms["u"], ms["v"], ms["phi"])
    if kind == "zero_sum":
        return ZeroSumGame(ms["g"], 1)
    if kind == "strictly_competitive":
        return StrictlyCompetitiveGame(ms["g"], 1, PiecewiseLinear(DOUBLING), PiecewiseLinear(DOUBLING))
    return RepeatedGame(ms["u"], ms["v"], 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_couples())
@example(("bimatrix", {"u": [[F(3, 2)]], "v": [[F(1)]]}, {"class": "bimatrix", "u": [["3/2"]], "v": [["2/2"]]}))
@example(
    (
        "zero_sum",
        {"g": [[F(3, 2), -1], [0, F(1, 3)]]},
        {"class": "zero_sum", "g": [["3/2", -1], ["0/2", "2/6"]], "resolution": 1},
    )
)
@example(
    (
        "potential",
        {
            "u": [[F(1, 2), F(4, 3)], [F(3, 2), F(7, 3)]],
            "v": [[F(1, 2), 1], [F(3, 2), 2]],
            "phi": [[F(1, 2), 1], [F(3, 2), 2]],
        },
        {
            "class": "potential",
            "u": [["1/2", "8/6"], ["3/2", "7/3"]],
            "v": [["2/4", 1], ["3/2", "4/2"]],
            "phi": [["1/2", "2/2"], ["6/4", 2]],
        },
    )
)
def test_the_one_pass_reader_equals_the_constructors(drawn):
    kind, ms, payload = drawn
    data = minimal_data()
    data["games"]["m"]["w"] = payload
    potential = kind != "potential" or reference_is_potential(ms["u"], ms["v"], ms["phi"])
    integral = all(x.denominator == 1 for m in ms.values() for row in m for x in row)
    not_potential = f"{GAME}: phi is not an ordinal potential for (U, V)"
    # without a margin: refused unless every entry is an integer, then built at eps 1
    if not integral or not potential:
        with pytest.raises(SchemaError) as info:
            parse_instance(data)
        assert str(info.value) == (NO_MARGIN if not integral else not_potential)
    else:
        assert parse_instance(data)[1] == 1
    if not potential:
        assert validate_potential(ms["u"], ms["v"], ms["phi"]) is False
        with pytest.raises(SchemaError) as info:
            parse_instance(data, eps=1)
        assert str(info.value) == not_potential
        return
    got, want = parse_instance(data, eps=1)[0].game(0, 0), constructed(kind, ms)
    assert type(got) is type(want)
    assert got._payoffs == want._payoffs
    for name in ("U", "V", "phi", "g"):
        if hasattr(want, name):
            assert getattr(got, name) == getattr(want, name) == ms[name.lower()]
    assert list(got.menu()) == list(want.menu())
    assert dump_game(got) == dump_game(want)


def breakpoint_list(draw, value):
    """Two to four breakpoints of a strictly increasing map, as Fraction pairs."""
    n = draw(st.integers(2, 4))
    xs, ys = (sorted(draw(st.sets(value, min_size=n, max_size=n))) for _axis in "xy")
    return list(zip(xs, ys))


@st.composite
def level_couples(draw):
    """A strictly competitive or transfer couple: its numbers as Fractions and its payload in file forms.

    Every number is written as ``file_form`` writes it: an int when
    integral, "p/q", or the same over twice the denominator.
    """
    kind = draw(st.sampled_from(["strictly_competitive", "transfer"]))
    value = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    if kind == "strictly_competitive":
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        numbers = {"g": [[draw(value) for _c in range(cols)] for _r in range(rows)]}
        maps = ("f", "h")
    else:
        numbers = dict(zip(("t_min", "t_max"), sorted([draw(value), draw(value)])))
        maps = ("f_u", "f_v")
    numbers.update({name: breakpoint_list(draw, value) for name in maps})

    def form(x):
        return [form(y) for y in x] if isinstance(x, (list, tuple)) else file_form(draw, x)

    payload = {"class": kind, **{name: form(x) for name, x in numbers.items()}, "resolution": 1}
    return kind, numbers, payload


def level_constructed(kind, numbers):
    """The game the public constructor makes from the Fraction numbers and breakpoints."""
    if kind == "strictly_competitive":
        f, h = PiecewiseLinear(numbers["f"]), PiecewiseLinear(numbers["h"])
        return StrictlyCompetitiveGame(numbers["g"], 1, f, h)
    f, h = PiecewiseLinear(numbers["f_u"]), PiecewiseLinear(numbers["f_v"])
    return TransferGame(numbers["t_min"], numbers["t_max"], 1, f, h)


def flat(x):
    return [z for y in x for z in flat(y)] if isinstance(x, (list, tuple)) else [x]


PROBES = [(n, d) for n in range(-15, 16) for d in (1, 2, 3, 4)]  # past every drawn breakpoint on both sides


@settings(max_examples=120, deadline=None, derandomize=True)
@given(level_couples())
@example(
    (
        "transfer",
        {"t_min": F(-1, 2), "t_max": F(2), "f_u": [(F(0), F(-2)), (F(1, 2), F(1))], "f_v": [(-1, F(1, 3)), (4, 5)]},
        {"class": "transfer", "t_min": "-2/4", "t_max": "4/2", "f_u": [["0/2", -2], ["1/2", "2/2"]],
         "f_v": [[-1, "2/6"], ["8/2", 5]], "resolution": 1},
    )
)
@example(
    (
        "strictly_competitive",
        {"g": [[F(2)]], "f": [(-2, -2), (0, F(1, 2)), (2, 3)], "h": [(-3, -3), (3, 3)]},
        {"class": "strictly_competitive", "g": [["4/2"]], "f": [[-2, "-4/2"], ["0/3", "1/2"], [2, 3]],
         "h": [[-3, -3], [3, "6/2"]], "resolution": 1},
    )
)
def test_the_one_pass_reader_equals_the_constructors_on_level_games(drawn):
    kind, numbers, payload = drawn
    data = minimal_data()
    data["games"]["m"]["w"] = payload
    if all(x.denominator == 1 for x in flat(list(numbers.values()))):
        assert parse_instance(data)[1] == 1
    else:
        with pytest.raises(SchemaError) as info:
            parse_instance(data)
        assert str(info.value) == NO_MARGIN
    got, want = parse_instance(data, eps=1)[0].game(0, 0), level_constructed(kind, numbers)
    assert type(got) is type(want)
    assert got._payoffs == want._payoffs
    assert list(got.menu()) == list(want.menu())
    maps = ("f", "h") if kind == "strictly_competitive" else ("f_u", "f_v")
    for name, mine, theirs in zip(maps, (got.f, got.h), (want.f, want.h)):
        assert mine.points == theirs.points == tuple(numbers[name])
        for inverse in (False, True):
            assert mine.walk(PROBES, inverse) == theirs.walk(PROBES, inverse)
    assert dump_game(got) == dump_game(want)


def read_pair(value):
    """``serde._pair`` of one value at the path "at", or its SchemaError's text."""
    try:
        return serde._pair(value, "at")
    except SchemaError as exc:
        return f"SchemaError: {exc}"


def read_num(value):
    """``serde._num`` of one value at the path "at" as (numerator, denominator), or its SchemaError's text."""
    try:
        x = serde._num(value, "at")
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return x.numerator, x.denominator


class TestPairReader:
    """``_pair`` reads each value as ``_num`` does: the same lowest-terms pair, or the same error text."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(st.integers(), number_texts(), st.text(alphabet="0123456789_/.eE+- \t٣", max_size=10)))
    def test_it_reads_as_num(self, value):
        got = read_pair(value)
        assert got == read_num(value)
        if isinstance(got, tuple):
            assert list(map(type, got)) == [int, int]

    @pytest.mark.parametrize(
        "value, want",
        [
            ("4/2", (2, 1)),
            ("-0/5", (0, 1)),
            ("-25/6", (-25, 6)),
            ("-12", (-12, 1)),
            ("3/-4", "SchemaError: at: Invalid literal for Fraction: '3/-4'"),
            ("+3/4", (3, 4)),
            ("1/0", "SchemaError: at: zero denominator in '1/0'"),
            (" 3/4", (3, 4)),
            ("1_0/3", (10, 3)),
            ("٣/4", (3, 4)),
            ("²", "SchemaError: at: Invalid literal for Fraction: '²'"),
            ("0.25", (1, 4)),
            ("1e3", (1000, 1)),
            ("1/", "SchemaError: at: Invalid literal for Fraction: '1/'"),
            ("-", "SchemaError: at: Invalid literal for Fraction: '-'"),
            (True, 'SchemaError: at: expected an integer or "p/q" string, got True'),
            (None, 'SchemaError: at: expected an integer or "p/q" string, got None'),
        ],
        ids=repr,
    )
    def test_the_edges_of_the_plain_form(self, value, want):
        assert read_pair(value) == read_num(value) == want

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    @pytest.mark.parametrize("text", ["{}", "-{}", "{}/7", "7/{}"])
    def test_plain_strings_at_and_past_the_digit_limit(self, text):
        limit = sys.get_int_max_str_digits()
        at, past = text.format("9" * limit), text.format("9" * (limit + 1))
        assert read_pair(at) == read_num(at) == F(at).as_integer_ratio()
        assert read_pair(past) == read_num(past)
        assert read_pair(past).startswith("SchemaError: at: Exceeds the limit")

    def test_a_plain_string_makes_no_fraction(self, monkeypatch):
        def refused(value):
            raise AssertionError(f"rat called on {value!r}")

        monkeypatch.setattr(serde, "rat", refused)
        assert [serde._pair(x, "at") for x in ("-25/6", "12", "-6/4", 7)] == [(-25, 6), (12, 1), (-3, 2), (7, 1)]


class TestFloatRejection:
    def test_float_literal_rejected(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"men": [0.5]}')
        with pytest.raises(SchemaError, match="float literal"):
            load_json(str(path))

    def test_exponent_notation_rejected(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"x": 1e3}')
        with pytest.raises(SchemaError, match="float literal"):
            load_json(str(path))

    def test_infinity_rejected_as_number(self, tmp_path):
        # parse_float does not see Infinity; the number check must
        path = tmp_path / "inst.json"
        data = minimal_data()
        text = json.dumps(data).replace('"irp": {"men": [0]', '"irp": {"men": [Infinity]')
        path.write_text(text)
        with pytest.raises(SchemaError, match="expected an integer"):
            parse_instance(load_json(str(path)))

    def test_invalid_json_and_missing_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_json(str(path))
        with pytest.raises(SchemaError, match="cannot read"):
            load_json(str(tmp_path / "absent.json"))

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(SchemaError, match="nested.json nests too deeply"):
            load_json(str(path))


class TestProfileRoundTrip:
    def test_solver_output_round_trips(self):
        inst = mixed_instance()
        profile, _ = run_propose_dispose(inst, F(1, 2))
        data = dump_profile(inst, profile)
        back = parse_profile(inst, data)
        assert back.matches == profile.matches
        assert {k: c.id for k, c in back.chosen.items()} == {
            k: c.id for k, c in profile.chosen.items()
        }
        assert dump_profile(inst, back) == data

    def test_synthesized_repeated_contract(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): RepeatedGame(PD_U, PD_V, F(1, 2))}
        )
        game = inst.game(0, 0)
        # off the menu grid but on the hull edge from (3,3) to (4,0)
        c = game.synthesize_contract((F(10, 3), 2))
        profile = MatchingProfile((0,), {(0, 0): c})
        data = dump_profile(inst, profile)
        assert data["contracts"]["m"]["id"] is None
        back = parse_profile(inst, data)
        got = back.chosen[(0, 0)]
        assert (got.u, got.v) == (F(10, 3), 2)

    def test_null_id_rejected_outside_repeated_games(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])}
        )
        data = {
            "matching": {"m": "w"},
            "contracts": {
                "m": {"id": None, "strategy_a": 0, "strategy_b": 0, "u": 1, "v": 1}
            },
        }
        with pytest.raises(SchemaError, match="repeated"):
            parse_profile(inst, data)

    def test_a_bool_menu_id_is_written_as_an_integer(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1, 2]], [[3, 4]])})
        contract = Contract(True, 0, 1, 2, 4)  # equal to menu contract 1, as True == 1
        assert inst.game(0, 0).contract(True) == contract
        data = dump_profile(inst, MatchingProfile((0,), {(0, 0): contract}))
        assert data["contracts"]["m"]["id"] == 1 and type(data["contracts"]["m"]["id"]) is int
        back = parse_profile(inst, json.loads(json.dumps(data)))
        assert back.chosen[(0, 0)] is inst.game(0, 0).menu()[1]

    def test_an_id_past_the_menu_is_refused(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1, 2]], [[3, 4]])})
        entry = {"id": 2, "strategy_a": 0, "strategy_b": 0, "u": 1, "v": 3}
        with pytest.raises(SchemaError) as info:
            parse_profile(inst, {"matching": {"m": "w"}, "contracts": {"m": entry}})
        assert str(info.value) == "profile.contracts['m'].id: no contract with id 2 in this menu"

    def test_a_null_id_off_the_hull_is_refused(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): RepeatedGame(PD_U, PD_V, F(1, 2))})
        entry = {"id": None, "strategy_a": [5, 5], "strategy_b": [5, 5], "u": 5, "v": 5}
        with pytest.raises(SchemaError) as info:
            parse_profile(inst, {"matching": {"m": "w"}, "contracts": {"m": entry}})
        assert str(info.value) == (
            "profile.contracts['m']: point (Fraction(5, 1), Fraction(5, 1)) outside the feasible payoff hull"
        )

    def test_level_strategies_round_trip_as_number_strings(self):
        inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): ZeroSumGame(PENNIES, F(1, 3))})
        contract = inst.game(0, 0).menu()[2]
        data = dump_profile(inst, MatchingProfile((0,), {(0, 0): contract}))
        assert data["contracts"]["m"] == {"id": 2, "strategy_a": "-1/3", "strategy_b": "-1/3", "u": "-1/3", "v": "1/3"}
        assert parse_profile(inst, json.loads(json.dumps(data))).chosen[(0, 0)] is contract

    def test_tampered_payoff_rejected(self):
        inst = mixed_instance()
        profile, _ = run_propose_dispose(inst, F(1, 2))
        data = dump_profile(inst, profile)
        man = next(iter(data["contracts"]))
        data["contracts"][man]["u"] = "999"
        with pytest.raises(SchemaError, match="disagree"):
            parse_profile(inst, data)

    def test_tampered_strategy_rejected(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1, 1]], [[1, 1]])}
        )
        contract = inst.game(0, 0).menu()[0]
        data = dump_profile(inst, MatchingProfile((0,), {(0, 0): contract}))
        data["contracts"]["m"]["strategy_b"] = 1
        with pytest.raises(SchemaError, match="strategy"):
            parse_profile(inst, data)

    def test_matching_keys_must_cover_men(self):
        inst = mixed_instance()
        with pytest.raises(SchemaError, match="exactly the men"):
            parse_profile(inst, {"matching": {"m0": None}, "contracts": {}})

    def test_contracts_must_match_the_matched(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])}
        )
        data = {"matching": {"m": None}, "contracts": {"m": {}}}
        with pytest.raises(SchemaError, match="matched men"):
            parse_profile(inst, data)

    def test_unknown_woman_rejected(self):
        inst = build_instance(
            ["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])}
        )
        data = {"matching": {"m": "z"}, "contracts": {}}
        with pytest.raises(SchemaError, match="unknown woman"):
            parse_profile(inst, data)


TWO_BRANCH = {
    "players": ["left", "right"],
    "nodes": {
        "0": {"player": 0, "children": [1, 2]},
        "1": {"payoffs": [2, 0]},
        "2": {"player": 1, "children": [3, 4]},
        "3": {"payoffs": [1, 1]},
        "4": {"payoffs": [3, -1]},
    },
}


class TestTreeParsing:
    def test_two_branch_tree(self):
        tree = parse_tree(TWO_BRANCH)
        assert tree.root == 0
        assert tree.nodes[1].payoffs == (2, 0)
        assert tree.nodes[2].children == (3, 4)

    def test_player_by_name(self):
        data = json.loads(json.dumps(TWO_BRANCH))
        data["nodes"]["0"]["player"] = "left"
        data["nodes"]["2"]["player"] = "right"
        tree = parse_tree(data)
        assert tree.nodes[0].player == 0
        assert tree.nodes[2].player == 1

    def test_fractional_payoffs(self):
        data = {
            "players": ["solo"],
            "nodes": {"0": {"payoffs": ["1/3"]}},
        }
        tree = parse_tree(data)
        assert tree.nodes[0].payoffs == (F(1, 3),)

    def test_errors(self):
        with pytest.raises(SchemaError, match="node ids are integers"):
            parse_tree({"players": ["p"], "nodes": {"zero": {"payoffs": [1]}}})
        with pytest.raises(SchemaError, match="unknown player"):
            parse_tree(
                {
                    "players": ["p"],
                    "nodes": {"0": {"player": "q", "children": [1]}, "1": {"payoffs": [1]}},
                }
            )
        bad = json.loads(json.dumps(TWO_BRANCH))
        bad["nodes"]["1"]["payoffs"] = [2]
        with pytest.raises(SchemaError, match="tree"):
            parse_tree(bad)
        with pytest.raises(SchemaError, match="root"):
            parse_tree({"players": ["p"], "nodes": {"0": {"payoffs": [1]}}, "root": "x"})

    def test_a_bool_player_is_refused(self):
        data = json.loads(json.dumps(TWO_BRANCH))
        data["nodes"]["0"]["player"] = True
        with pytest.raises(SchemaError) as info:
            parse_tree(data)
        assert str(info.value) == "tree.nodes['0'].player: expected a player name or index"


class TestModelParsing:
    def test_ordinal_model(self):
        inst = parse_model(
            {
                "model": "ordinal",
                "men": {"m0": ["w0", "w1"], "m1": ["w1", "w0"]},
                "women": {"w0": ["m1", "m0"], "w1": ["m0", "m1"]},
            },
            "ordinal",
        )
        assert inst.men == ("m0", "m1")
        assert inst.game(0, 0).menu()[0].u == 2

    def test_shapley_shubik_model(self):
        inst = parse_model(
            {
                "costs": {"s": 2},
                "valuations": {"s": {"b": 6}},
                "price_grid": [0, 10, 1],
            },
            "shapley_shubik",
        )
        assert len(inst.game(0, 0).menu()) == 11

    def test_gale_demange_model(self):
        inst = parse_model(
            {
                "f": {"m": {"w": [[-5, -5], [5, 5]]}},
                "h": {"m": {"w": [[-5, -5], [5, 5]]}},
                "transfer_grid": [-5, 5, 1],
            },
            "gale_demange",
        )
        assert len(inst.game(0, 0).menu()) == 11

    def test_contracts_model(self):
        inst = parse_model(
            {
                "contracts": ["x"],
                "relations": {"x": ["m1", "w1"]},
                "prefs": {"m1": ["x", "EMPTY"], "w1": ["x", "EMPTY"]},
            },
            "contracts",
        )
        assert inst.men == ("m1",) and inst.women == ("w1",)

    def test_tag_mismatch_and_unknown_kind(self):
        with pytest.raises(SchemaError, match="tagged"):
            parse_model({"model": "ordinal", "men": {}, "women": {}}, "contracts")
        with pytest.raises(SchemaError, match="unknown model kind"):
            parse_model({}, "auction")

    def test_adapter_errors_become_schema_errors(self):
        with pytest.raises(SchemaError, match="model"):
            parse_model({"men": {"m": ["w", "w"]}, "women": {"w": ["m"]}}, "ordinal")


GRID = [0, 2, 1]
NUMBER = 'expected an integer or "p/q" string'


class TestModelFieldErrors:
    """The exact message of each nested-mapping reader, path included."""

    @pytest.mark.parametrize(
        "kind, data, message",
        [
            # preference lists: ordinal sides and the contracts model's prefs
            ("ordinal", {"men": [], "women": {}}, "model.men: expected an object, got []"),
            ("ordinal", {"men": {}, "women": {"w": "m"}}, "model.women['w']: expected a list, got 'm'"),
            ("ordinal", {"men": {"m": ["w", 3]}, "women": {}}, "model.men['m'][1]: expected a string, got 3"),
            ("ordinal", {"men": {1: ["w"]}, "women": {}}, "model.men key: expected a string, got 1"),
            (
                "contracts",
                {"contracts": ["x"], "relations": {"x": ["m", "w"]}, "prefs": {"m": [None]}},
                "model.prefs['m'][0]: expected a string, got None",
            ),
            # costs: one level of numbers
            (
                "shapley_shubik",
                {"costs": 3, "valuations": {}, "price_grid": GRID},
                "model.costs: expected an object, got 3",
            ),
            (
                "shapley_shubik",
                {"costs": {"s": [1]}, "valuations": {}, "price_grid": GRID},
                f"model.costs['s']: {NUMBER}, got [1]",
            ),
            # valuations: two levels of numbers
            (
                "shapley_shubik",
                {"costs": {"s": 1}, "valuations": {"s": 2}, "price_grid": GRID},
                "model.valuations['s']: expected an object, got 2",
            ),
            (
                "shapley_shubik",
                {"costs": {"s": 1}, "valuations": {"s": {2: 1}}, "price_grid": GRID},
                "model.valuations['s'] key: expected a string, got 2",
            ),
            (
                "shapley_shubik",
                {"costs": {"s": 1}, "valuations": {"s": {"b": "1/0"}}, "price_grid": GRID},
                "model.valuations['s']['b']: zero denominator in '1/0'",
            ),
            # Gale–Demange maps: two levels of breakpoint lists
            (
                "gale_demange",
                {"f": None, "h": {}, "transfer_grid": GRID},
                "model.f: expected an object, got None",
            ),
            (
                "gale_demange",
                {"f": {}, "h": {"m": {"w": "x"}}, "transfer_grid": GRID},
                "model.h['m']['w']: expected a list, got 'x'",
            ),
            (
                "gale_demange",
                {"f": {"m": {"w": [[0, 0], [1, True]]}}, "h": {}, "transfer_grid": GRID},
                f"model.f['m']['w'][1][1]: {NUMBER}, got True",
            ),
            (
                "gale_demange",
                {"f": {"m": {"w": [[0, 0, 0]]}}, "h": {}, "transfer_grid": GRID},
                "model.f['m']['w'][0]: breakpoints are [x, y] pairs",
            ),
        ],
    )
    def test_messages(self, kind, data, message):
        with pytest.raises(SchemaError) as info:
            parse_model(data, kind)
        assert str(info.value) == message


class TestRationalText:
    @given(st.fractions())
    def test_fmt_rat_round_trip(self, x):
        assert rat(fmt(x)) == x

    def test_rat_accepts_ints_and_exact_strings(self):
        assert rat(3) == 3
        assert rat("-7/2") == F(-7, 2)
        # decimal strings are exact; binary floats never enter
        assert rat("0.25") == F(1, 4)
        with pytest.raises(TypeError):
            rat(1.5)
        with pytest.raises(TypeError):
            rat(True)

    def test_rat_exponent_bound_follows_the_digit_limit(self):
        assert rat("1e3") == 1000
        assert rat("-2.5E-2") == F(-1, 40)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert rat("1e639") == 10**639
            assert rat("-0.1e640") == -(10**639)
            for text in ("1e641", "1e-641", "1E+6_41"):
                with pytest.raises(ValueError, match="exceeds the limit of 640"):
                    rat(text)
            # 641 digits: inside the exponent bound, but too long to print
            for text in ("1e640", "1e-640", "-12e639"):
                with pytest.raises(ValueError, match="has more than 640 digits"):
                    rat(text)
            sys.set_int_max_str_digits(0)  # no limit, no cap
            assert rat("1e-700") == F(1, 10**700)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
    )
    def test_numbers_too_long_to_print_are_named(self):
        limit = sys.get_int_max_str_digits()
        assert digits_past_limit(10**limit) == limit
        assert digits_past_limit(-(10**limit)) == limit
        assert digits_past_limit(10**limit - 1) == 0
        assert render_event("exit", own=F(1, 10**limit - 1)).startswith("event=exit own=1/")
        with pytest.raises(ValueError, match="^trace field own= has too many digits to print$"):
            render_event("exit", proposer="m0", own=F(1, 10**limit))

    def test_dump_profile_deterministic(self):
        rng = random.Random(5)
        inst = mixed_instance()
        profile, _ = run_propose_dispose(inst, F(1, 2))
        once = json.dumps(dump_profile(inst, profile), sort_keys=True)
        again = json.dumps(dump_profile(inst, profile), sort_keys=True)
        assert once == again


def _profile_case(**entry):
    """A 1x1 bimatrix couple (u = v = 1) and a profile whose contract entry takes ``entry``."""
    inst = build_instance(["m"], ["w"], [0], [0], {(0, 0): BimatrixGame([[1]], [[1]])})
    contract = {"id": 0, "strategy_a": 0, "strategy_b": 0, "u": 1, "v": 1, **entry}
    return lambda: parse_profile(inst, {"matching": {"m": "w"}, "contracts": {"m": contract}})


def _instance_case(**fields):
    data = minimal_data()
    data.update(fields)
    return lambda: parse_instance(data)


def _transfer_case(f_u):
    data = minimal_data()
    data["games"]["m"]["w"] = {"class": "transfer", "t_min": 0, "t_max": 2, "f_u": f_u, "f_v": [[0, 0], [1, 1]]}
    return lambda: parse_instance(data)


def _tree_case(nodes, **fields):
    return lambda: parse_tree({"players": ["p"], "nodes": nodes, **fields})


SOLO_LEAF = {"0": {"payoffs": [1]}}


class TestPinnedRefusals:
    """The exact message of each list, pair and id reader, on one fault each."""

    @pytest.mark.parametrize(
        "parse, message",
        [
            (_instance_case(irp={"men": ["x"], "women": [0]}), "instance.irp.men[0]: Invalid literal for Fraction: 'x'"),
            (_instance_case(irp={"men": [0], "women": [0, None]}), f"instance.irp.women[1]: {NUMBER}, got None"),
            (_transfer_case([[0, 0, 0], [1, 1]]), f"{GAME}.f_u[0]: breakpoints are [x, y] pairs"),
            (_transfer_case([[0, 0], 1]), f"{GAME}.f_u[1]: expected a list, got 1"),
            (_instance_case(women=["m"]), "instance: men and women must not share names"),
            (_instance_case(men=["m", "m"]), "instance.men: names must be distinct"),
            (_instance_case(men=["m", 1]), "instance.men[1]: expected a string, got 1"),
            (
                _tree_case({"0": {"player": 0, "children": ["1"]}, "1": {"payoffs": [1]}}),
                "tree.nodes['0'].children[0]: expected a node id",
            ),
            (
                _tree_case({"0": {"player": 0, "children": [1, True]}, "1": {"payoffs": [1]}}),
                "tree.nodes['0'].children[1]: expected a node id",
            ),
            (_tree_case(SOLO_LEAF, root="0"), "tree.root: expected a node id"),
            (_tree_case(SOLO_LEAF, root=False), "tree.root: expected a node id"),
            (_tree_case({"0": {"payoffs": [None]}}), f"tree.nodes['0'].payoffs[0]: {NUMBER}, got None"),
            (
                lambda: parse_model({"costs": {"s": 1}, "valuations": {"s": {"b": 2}}, "price_grid": [0, 10]}, "shapley_shubik"),
                "model.price_grid: expected [min, max, step]",
            ),
            (
                lambda: parse_model({"f": {}, "h": {}, "transfer_grid": [0, 1, "x"]}, "gale_demange"),
                "model.transfer_grid[2]: Invalid literal for Fraction: 'x'",
            ),
            (
                lambda: parse_model({"contracts": ["x"], "relations": {"x": ["m"]}, "prefs": {}}, "contracts"),
                "model.relations['x']: expected [man, woman]",
            ),
            (
                lambda: parse_model({"contracts": ["x"], "relations": {"x": ["m", 2]}, "prefs": {}}, "contracts"),
                "model.relations['x'][1]: expected a string, got 2",
            ),
            (
                lambda: parse_model({"contracts": ["x", "x"], "relations": {}, "prefs": {}}, "contracts"),
                "model.contracts: names must be distinct",
            ),
            (_profile_case(strategy_a=True), "profile.contracts['m'].strategy_a: invalid strategy descriptor"),
            (
                _profile_case(strategy_a=[1, 2, 3]),
                "profile.contracts['m'].strategy_a: invalid strategy descriptor [1, 2, 3]",
            ),
            (_profile_case(id=True), "profile.contracts['m'].id: expected an integer or null"),
            (_profile_case(id="0"), "profile.contracts['m'].id: expected an integer or null"),
            (_profile_case(id=None), "profile.contracts['m']: null id is only valid for repeated games"),
        ],
    )
    def test_messages(self, parse, message):
        with pytest.raises(SchemaError) as info:
            parse()
        assert str(info.value) == message
