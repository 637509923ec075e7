"""The integer menu and value kernels against the Fraction code they replaced.

``zero_sum_value`` (a fraction-free simplex) must equal the Fraction
simplex ``helpers.reference_matrix_game_value`` and the kernel oracle
``helpers.support_value``.  Repeated-game menus (one sweep over the hull's
chains) must equal ``helpers.reference_hull_menu``, which slices the hull
edge by edge on every u-column, and the hull itself (taken on the
stage's integers) must equal ``helpers.reference_convex_hull`` of the
stage's cells.  Level-game menus and
``PiecewiseLinear.walk`` must equal the single-point maps and the slope
formula ``helpers.reference_map``.  The run kernel (grids as arithmetic
runs, maps cut at their breakpoints, payoffs made run by run) and every
level and repeated menu's integer ``Payoffs`` must equal references built
point by point in Fractions.  ``geometry.convex_hull`` (cross
products on integers) and ``geometry.clip_ge`` must equal
``helpers.reference_convex_hull``, which takes every cross product in
Fractions.  Parsing a market and indexing it solve no LP: a level game's
value and a repeated game's punishment levels are each one LP, solved on
first read.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    LevelGame,
    PiecewiseLinear,
    RepeatedGame,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    feasible_payoff_hull,
    punishment_levels,
    zero_sum_value,
)
from matchgames import exactlp, games
from matchgames._market import market_index
from matchgames.games import _grid_runs, _made_payoffs
from matchgames.geometry import clip_ge, convex_hull
from matchgames.serde import dump_game, dump_instance, parse_instance

from helpers import (
    reference_column,
    reference_convex_hull,
    reference_grid,
    reference_hull_menu,
    reference_map,
    reference_matrix_game_value,
    reference_payoffs,
    support_value,
)
from test_market import markets

F = Fraction
EXAMPLES = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def matrices(draw):
    """1x1 to 4x4 matrices over a small pool of values, so ties are common."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 6, 10**15]))
    pool = draw(st.lists(st.fractions(-5, 5, max_denominator=width), min_size=1, max_size=5))
    A = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        A[-1] = list(A[0])
    return A


@EXAMPLES
@given(matrices())
@example([[F(7, 3)] * 3] * 3)  # all entries equal
@example([[F(1, 10**15), F(-2, 999_999_999_999_999)], [F(-1, 3), F(5, 10**15 - 1)]])
def test_matrix_game_value_matches_references(A):
    v = zero_sum_value(A)
    assert type(v) is Fraction
    assert v == reference_matrix_game_value(A)
    if len(A) * len(A[0]) <= 9:
        assert v == support_value(A)


@EXAMPLES
@given(matrices(), st.data())
def test_saddle_point_value(A, data):
    r = data.draw(st.integers(0, len(A) - 1))
    c = data.draw(st.integers(0, len(A[0]) - 1))
    v = A[r][c]
    # make v the least entry of its row and the greatest of its column
    A[r] = [max(x, v) for x in A[r]]
    for row in A:
        row[c] = min(row[c], v)
    assert zero_sum_value(A) == v == reference_matrix_game_value(A)


def make_saddle(A, r, c):
    """Make A[r][c] the least entry of its row and the greatest of its column."""
    v = A[r][c]
    A[r] = [max(x, v) for x in A[r]]
    for row in A:
        row[c] = min(row[c], v)
    return v


@st.composite
def saddle_biased(draw):
    """``matrices()``, and half the time with a saddle point made at a drawn cell."""
    A = draw(matrices())
    if draw(st.booleans()):
        make_saddle(A, draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(A[0]) - 1)))
    return A


def refuse_simplex(A):
    raise AssertionError("the simplex ran on a matrix with a pure saddle point")


@EXAMPLES
@given(matrices(), st.data())
@example([[F(7, 3)] * 3] * 3, None)  # all entries equal: every cell is a saddle point
def test_saddle_point_matrices_skip_the_simplex(A, data):
    if data is not None:
        v = make_saddle(A, data.draw(st.integers(0, len(A) - 1)), data.draw(st.integers(0, len(A[0]) - 1)))
    else:
        v = A[0][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_simplex_max", refuse_simplex)
        value = zero_sum_value(A)
    assert type(value) is Fraction and value == v


@EXAMPLES
@given(saddle_biased())
@example([[1, 0], [0, 1]])  # no pure saddle point
@example([[F(1, 2), F(1, 2)], [0, F(1, 2)]])  # tied saddle points
def test_saddle_biased_values_match_the_reference(A):
    calls = []
    simplex = exactlp._simplex_max

    def counted(T):
        calls.append(1)
        return simplex(T)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlp, "_simplex_max", counted)
        value = zero_sum_value(A)
    assert value == reference_matrix_game_value(A)
    lower, upper = max(map(min, A)), min(map(max, zip(*A)))
    assert len(calls) == (lower != upper)


@st.composite
def stages(draw):
    """Stage games whose hulls include every degenerate shape."""
    rows, cols = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    shape = draw(st.sampled_from(["free", "point", "horizontal", "vertical", "vertical_edges"]))
    cell = st.fractions(-4, 4, max_denominator=3)
    U = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    V = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    if shape in ("point", "vertical"):
        U = [[U[0][0]] * cols for _ in range(rows)]
    if shape in ("point", "horizontal"):
        V = [[V[0][0]] * cols for _ in range(rows)]
    if shape == "vertical_edges":
        # two cells on the least u, two on the greatest, with distinct v
        lo, hi = min(min(row) for row in U) - 1, max(max(row) for row in U) + 1
        U[0][0] = U[0][1] = lo
        U[1][0] = U[1][1] = hi
        V[0][1], V[1][1] = V[0][0] + 2, V[1][0] - F(3, 2)
    resolution = draw(
        st.sampled_from([F(1), F(1, 2)]) | st.fractions(F(1, 4), 3, max_denominator=7)
    )
    return U, V, resolution


@EXAMPLES
@given(stages())
@example(([[0, 0], [0, 0]], [[1, 1], [1, 1]], F(1, 3)))  # one point
@example(([[0, 0], [2, 2]], [[0, 1], [0, 1]], F(2, 3)))  # a square, vertical edges at both ends
@example(([[1, 1], [1, 1]], [[-2, 0], [3, 1]], F(2)))  # vertical segment, range not a multiple
def test_repeated_menu_matches_edge_slices(stage):
    U, V, resolution = stage
    g = RepeatedGame(U, V, resolution)
    menu = g.menu()
    assert [(c.u, c.v) for c in menu] == reference_hull_menu(g)
    assert g._payoffs == reference_payoffs(*zip(*reference_hull_menu(g)))
    assert all(type(c.u) is type(c.v) is Fraction for c in menu)
    assert all(c.id == k and c.strategy_a == c.strategy_b == (c.u, c.v) for k, c in enumerate(menu))
    for c in menu[:: max(1, len(menu) // 5)]:
        assert g.synthesize_contract((c.u, c.v)) is c
    assert g.alpha == reference_matrix_game_value(g.U)
    assert g.beta == reference_matrix_game_value([list(col) for col in zip(*g.V)])
    # the hull and the levels against references that do not read the game's own hull
    cells = [(F(u), F(v)) for us, vs in zip(U, V) for u, v in zip(us, vs)]
    assert g.hull == tuple(reference_convex_hull(cells))
    stage = BimatrixGame(U, V)
    assert feasible_payoff_hull(stage) == g.hull
    assert punishment_levels(g) == punishment_levels(stage) == (g.alpha, g.beta)
    assert (g.U, g.V) == ([[F(x) for x in row] for row in U], [[F(x) for x in row] for row in V])
    payload = dump_game(g)
    doc = {"men": ["m"], "women": ["w"], "irp": {"men": [0], "women": [0]}, "games": {"m": {"w": payload}}}
    back = parse_instance(doc, eps=1)[0].game(0, 0)
    assert back.menu() == menu


@st.composite
def maps(draw, q):
    """Strictly increasing maps whose breakpoints' inputs lie on the 1/q grid inside [-12/q, 12/q]."""
    n = draw(st.integers(2, 4))
    xs = sorted(draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n, unique=True)))
    ys = sorted(
        draw(st.lists(st.fractions(-20, 20, max_denominator=7), min_size=n, max_size=n, unique=True))
    )
    return PiecewiseLinear([(F(x, q), y) for x, y in zip(xs, ys)])


@EXAMPLES
@given(st.sampled_from([1, 2, 3]).flatmap(lambda q: st.tuples(st.just(q), maps(q), maps(q))))
def test_level_menus_match_single_point_maps(drawn):
    # the transfer grid hits every breakpoint and runs past both ends
    q, f, h = drawn
    transfer = TransferGame(F(-15, q), F(15, q), F(1, 2 * q), f, h)
    for c in transfer.menu():
        assert (c.u, c.v) == (f(c.strategy_a), h(-c.strategy_a))
    g = [[F(-15, q), F(1, 7)], [F(15, q), F(2, q)]]
    res = F(1, 3)
    competitive = StrictlyCompetitiveGame(g, res, f, h)
    grid = reference_grid(f(F(-15, q)), f(F(15, q)), res)
    assert list(competitive.levels) == [f.inverse(u) for u in grid]
    for c in competitive.menu():
        assert (c.u, c.v) == (f(c.strategy_a), h(-c.strategy_a))


@EXAMPLES
@given(maps(1), st.lists(st.fractions(-30, 30, max_denominator=10**15), max_size=6), st.integers(1, 4))
def test_walk_matches_slope_formula(pl, extra, scale):
    xs = [p[0] for p in pl.points]
    ys = [p[1] for p in pl.points]
    probes = sorted(set(xs + ys + [xs[0] - 1, xs[-1] + 1, ys[0] - 1, ys[-1] + F(1, 3)] + extra))
    # unreduced pairs, as the menu grids pass them
    pairs = [(x.numerator * scale, x.denominator * scale) for x in probes]
    for order in (1, -1):  # ascending, then descending
        walked = [reference_map(pl.points, x, 0) for x in probes[::order]]
        assert pl.walk(pairs[::order]) == walked
        inverted = [reference_map(pl.points, x, 1) for x in probes[::order]]
        assert pl.walk(pairs[::order], inverse=True) == inverted


@st.composite
def grids(draw):
    """(lo, hi, step): one point, a step wider than the range, hi on the grid, or any hi."""
    lo = F(draw(st.integers(-40, 40)), draw(st.sampled_from([1, 2, 3, 4])))
    step = draw(st.fractions(F(1, 6), 4, max_denominator=6))
    shape = draw(st.sampled_from(["point", "wide", "on grid", "any"]))
    if shape == "point":
        return lo, lo, step
    if shape == "wide":
        return lo, lo + step * draw(st.fractions(F(1, 7), F(6, 7), max_denominator=7)), step
    if shape == "on grid":
        return lo, lo + step * draw(st.integers(1, 30)), step
    return lo, lo + draw(st.fractions(0, 20, max_denominator=12)), step


@st.composite
def maps_through(draw, points):
    """Maps of 2 to 5 breakpoints whose inputs and outputs are often drawn from points."""
    n = draw(st.integers(2, 5))
    near = st.fractions(int(min(points)) - 4, int(max(points)) + 4, max_denominator=8)
    axis = st.lists(st.sampled_from(points) | near, min_size=n, max_size=n, unique=True).map(sorted)
    return PiecewiseLinear(list(zip(draw(axis), draw(axis))))


def expand(runs):
    """The numbers of runs (n, step, count, d), point by point."""
    return [F(n + k * s, d) for n, s, c, d in runs for k in range(c)]


@EXAMPLES
@given(grids(), st.data())
@example((F(3, 2), F(3, 2), F(1, 3)), None)  # lo == hi
@example((F(-1, 3), F(0), F(7, 4)), None)  # step larger than the range
@example((F(0), F(10), F(1, 2)), None)  # hi on the grid, breakpoints on grid points below
def test_the_run_kernel_matches_point_by_point_references(grid, data):
    lo, hi, step = grid
    up = _grid_runs(lo.as_integer_ratio(), hi.as_integer_ratio(), step)
    down = [(-n, -s, c, d) for n, s, c, d in up]
    points = reference_grid(lo, hi, step)
    assert expand(up) == points
    assert _made_payoffs(up) == reference_column(points)
    if data is None:
        cuts = sorted({points[0] - 1, *points[1:4], points[-1] + 1})  # interior breakpoints on grid points
        maps = [PiecewiseLinear([(x, k * k + k) for k, x in enumerate(cuts)])]
    else:
        maps = [data.draw(maps_through(points)), data.draw(maps_through([-x for x in points]))]
    for pl in maps:
        for runs in (up, down):  # ascending, then descending
            xs = expand(runs)
            for inverse in (False, True):
                want = [reference_map(pl.points, x, int(inverse)) for x in xs]
                walked = pl._walk(runs, inverse)
                assert all(type(n) is type(d) is int for n, _, _, d in walked)
                assert all(s != 0 and c > 0 and d > 0 for _, s, c, d in walked)
                assert expand(walked) == want
                assert _made_payoffs(walked) == reference_column(want)
                assert pl.walk([x.as_integer_ratio() for x in xs], inverse) == want


@EXAMPLES
@given(grids(), st.data())
def test_level_menu_payoffs_match_point_by_point_references(grid, data):
    lo, hi, step = grid
    levels = reference_grid(lo, hi, step)
    f, h = data.draw(maps_through(levels)), data.draw(maps_through([-x for x in levels]))

    def ref_f(x, inverse=False):
        return reference_map(f.points, x, int(inverse))

    def ref_h(x):
        return reference_map(h.points, x, 0)

    transfer = TransferGame(lo, hi, step, f, h)
    paid = [ref_f(x) for x in levels], [ref_h(-x) for x in levels]
    assert transfer._payoffs == reference_payoffs(*paid, levels)
    # g spans [lo, hi]: its least and greatest entries are the grid's ends
    g = [[lo, data.draw(st.sampled_from(levels))], [hi, lo]]
    zero_sum = ZeroSumGame(g, step)
    assert zero_sum._payoffs == reference_payoffs(levels, [-x for x in levels], levels)
    u_lo, u_hi = ref_f(lo), ref_f(hi)
    res = (u_hi - u_lo) / data.draw(st.fractions(F(1, 2), 40, max_denominator=3)) if hi > lo else step
    us = reference_grid(u_lo, u_hi, res)
    competitive = StrictlyCompetitiveGame(g, res, f, h)
    native = [ref_f(u, inverse=True) for u in us]
    assert competitive._payoffs == reference_payoffs(us, [ref_h(-x) for x in native], native)


@st.composite
def point_sets(draw):
    """0 to 9 points: some repeated, some on one line, some with denominators up to 10^15."""
    width = draw(st.sampled_from([1, 6, 10**15]))
    coord = st.fractions(-5, 5, max_denominator=width)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=6))
    if pts and draw(st.booleans()):
        # points on the line through a and b, inside the segment and beyond it
        a, b = draw(st.sampled_from(pts)), draw(st.tuples(coord, coord))
        for t in draw(st.lists(st.fractions(-2, 3, max_denominator=width), max_size=3)):
            pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    if pts and draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))  # duplicates
    return pts


@EXAMPLES
@given(point_sets(), st.data())
@example([], None)
@example([(F(1, 3), F(2))] * 3, None)  # one point, repeated
@example([(F(0), F(0)), (F(1, 10**15), F(1)), (F(0), F(0))], None)  # a segment
@example([(F(k, 7), F(2 * k, 7)) for k in (3, 0, 6, 1)], None)  # collinear
@example([(F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(2), F(2)), (F(0), F(2)), (F(1), F(1))], None)
def test_convex_hull_matches_fraction_cross_products(pts, data):
    hull = convex_hull(pts)
    assert hull == reference_convex_hull(pts)
    assert all(type(x) is type(y) is Fraction for x, y in hull)
    if data is not None and hull:
        axis = data.draw(st.sampled_from([0, 1]))
        bound = data.draw(st.sampled_from([p[axis] for p in pts]) | st.fractions(-5, 5))
        kept = [p for p in hull if p[axis] >= bound]
        clipped = clip_ge(hull, axis, bound)
        assert clipped == reference_convex_hull(clipped)
        assert all(p in clipped for p in reference_convex_hull(kept))


MIXED = [[1, 3], [4, 2]]  # no pure saddle point: its value 5/2 takes the simplex
UP = PiecewiseLinear([(-10, -10), (10, 30)])
LAZY_GAMES = {
    "z": ZeroSumGame(MIXED, F(1, 2)),
    "s": StrictlyCompetitiveGame(MIXED, 1, UP, UP),
    "t": TransferGame(-2, 3, F(1, 3), UP, UP),
    "r": RepeatedGame(MIXED, [[2, 0], [-1, 3]], F(1, 2)),
}
LAZY_MARKET = {
    "men": ["m"],
    "women": list(LAZY_GAMES),
    "irp": {"men": [0], "women": [0] * len(LAZY_GAMES)},
    "games": {"m": {w: dump_game(g) for w, g in LAZY_GAMES.items()}},
}


@settings(EXAMPLES, max_examples=30)
@given(markets())
def test_parsing_runs_no_lp_and_each_value_is_one_lp_on_first_read(inst):
    calls = []
    scaled_value = games._scaled_value

    def counted(N, D):
        calls.append(1)
        return scaled_value(N, D)

    def read(game, name, lps):
        before = len(calls)
        first = getattr(game, name)
        assert len(calls) == before + lps
        assert getattr(game, name) is first and len(calls) == before + lps
        return first

    for doc in (json.loads(json.dumps(dump_instance(inst))), json.loads(json.dumps(LAZY_MARKET))):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(games, "_scaled_value", counted)
            parsed, _eps = parse_instance(doc, eps=1)
            market_index(parsed)
            assert calls == []
            values = {}
            for key, game in parsed.games.items():
                if isinstance(game, RepeatedGame):
                    values[key] = (read(game, "alpha", 1), read(game, "beta", 1))
                    before = len(calls)
                    assert punishment_levels(game) == values[key] and len(calls) == before
                elif isinstance(game, LevelGame):
                    values[key] = read(game, "value_level", 0 if isinstance(game, TransferGame) else 1)
        for key, value in values.items():
            game = parsed.game(*key)
            if isinstance(game, RepeatedGame):
                assert value == punishment_levels(BimatrixGame(game.U, game.V))
                assert value == (
                    reference_matrix_game_value(game.U),
                    reference_matrix_game_value([list(col) for col in zip(*game.V)]),
                )
            elif isinstance(game, TransferGame):
                assert value == 0
            else:
                assert value == zero_sum_value(game.g) == reference_matrix_game_value(game.g)
