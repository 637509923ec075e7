"""Game classes with finite contract menus.

Each couple's interaction is one of six game classes, all exposing the
same interface: a finite ordered menu of contracts, exact payoff
re-evaluation from strategy descriptors, unilateral improving
deviations, and a Nash test.  Continuous classes (payoff levels,
transfers, repeated play) are discretized on exact rational grids so
every downstream comparison stays exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import abc
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .exactlp import _scaled_value
from .geometry import Point, _integer_hull, hull_contains
from .rational import NEG_INF, POS_INF, RationalLike, digits_past_limit, fmt, is_neg_inf, rat, str_limit


class GameError(ValueError):
    """Malformed game payload or a contract used with the wrong game."""


class Side(Enum):
    MAN = "man"
    WOMAN = "woman"


class Contract:
    """A strategy pair together with its exact payoffs.

    ``strategy_a`` / ``strategy_b`` are descriptors whose meaning is
    class specific: pure action indices for matrix games, a payoff
    level or transfer for level games, a payoff point for repeated
    games.  ``Game.describe`` puts a contract into words.

    Contracts compare and hash by value, so an equal copy stands for a
    menu's own object.  A game's menu (``_Menu``) makes each of its
    contracts on first access; a contract made by hand or synthesized
    off a repeated game's grid is a contract like any other.
    """

    __slots__ = ("id", "strategy_a", "strategy_b", "u", "v")
    __match_args__ = ("id", "strategy_a", "strategy_b", "u", "v")

    def __init__(self, id: int, strategy_a: object, strategy_b: object, u: Fraction, v: Fraction):
        self.id = id
        self.strategy_a = strategy_a
        self.strategy_b = strategy_b
        self.u = u
        self.v = v

    def __eq__(self, other):
        if isinstance(other, Contract):
            return (self.id, self.strategy_a, self.strategy_b, self.u, self.v) == (
                other.id, other.strategy_a, other.strategy_b, other.u, other.v
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.id, self.strategy_a, self.strategy_b, self.u, self.v))

    def __repr__(self):
        return (
            f"Contract(id={self.id!r}, strategy_a={self.strategy_a!r}, "
            f"strategy_b={self.strategy_b!r}, u={self.u!r}, v={self.v!r})"
        )


Pair = Tuple[int, int]  # the number n/d as integers (n, d), d > 0, not always in lowest terms


class Payoffs(NamedTuple):
    """A menu's payoffs in integers: contract k pays u[k]/du and v[k]/dv.

    du and dv are the lcm of the lowest-terms denominators of the u and
    the v column, so the market index scales them without reading a
    Fraction.  What contract k's descriptors are rides along: a matrix
    game's ``cols`` makes them the cell divmod(k, cols); a level game's
    levels, as (dl, numerators), make them level k; with neither they are
    the contract's point (u, v).
    """

    du: int
    u: Tuple[int, ...]
    dv: int
    v: Tuple[int, ...]
    levels: Optional[Tuple[int, Tuple[int, ...]]] = None
    cols: Optional[int] = None


# A run (n, step, count, d) is the count numbers (n + k*step)/d, k < count, with d > 0 and
# step != 0: a stretch of an arithmetic progression, ascending or descending as step's sign.
Run = Tuple[int, int, int, int]


def _made_payoffs(runs: Sequence[Run]) -> Tuple[int, Tuple[int, ...]]:
    """(L, numerators) of numbers a game computes, given as runs: number k in run order is numerators[k] / L.

    L is the lcm of the numbers' lowest-terms denominators.  Over M, the lcm
    of the runs' denominators, the numbers are N_k / M, and L = M / gcd(M, N_0, N_1, ...).
    A run's numerators over M are a progression, whose gcd is the gcd of its
    first and its step (only the first for a run of one number), so L takes
    O(runs) steps and each run's numerators are one ``range``.  A number
    ``str`` could not print is refused: in lowest terms it is at most
    |numerators[k]| over at most L, an integer below 2**(3*limit) has at
    most limit digits, and a run's largest magnitudes are at its ends, so
    one bit_length screens the menu; only a number past the screen is reduced.
    """
    M = lcm(*{run[3] for run in runs})
    scaled, terms, ends = [], [M], []  # the runs over M, the gcd's terms, each run's first and last
    for n, s, c, d in runs:
        f = M // d
        n, s = n * f, s * f
        scaled.append((n, s, c))
        if c > 1:
            terms += (n, s)
            ends += (n, n + (c - 1) * s)
        else:
            terms.append(n)
            ends.append(n)
    g = gcd(*terms)
    ns: List[int] = []
    for n, s, c in scaled:
        ns += range(n // g, (n + c * s) // g, s // g) if c > 1 else (n // g,)
    limit = str_limit()
    if limit and (max(M, max(ends), -min(ends)) // g).bit_length() > 3 * limit:
        for n, s, c, d in runs:
            for m in range(n, n + c * s, s):
                if max(m.bit_length(), d.bit_length()) > 3 * limit:
                    r = gcd(m, d)
                    if digits_past_limit(m // r) or digits_past_limit(d // r):
                        raise GameError(
                            f"a menu payoff or level has more than {limit} digits to print "
                            "(sys.get_int_max_str_digits())"
                        )
    return M // g, tuple(ns)


class _Menu(abc.Sequence):
    """A game's contracts in id order, each made from the integer ``Payoffs`` on its first read.

    A read by index, slice (a tuple) or iteration returns the same object
    every time; menus compare and hash by their contracts.  ``made[k]`` is
    contract k once made, None before; outside ``games`` only
    ``stability.read_profile`` reads it, so its identity test costs no call.
    """

    __slots__ = ("_payoffs", "made", "_unmade")

    def __init__(self, payoffs: Payoffs):
        self._payoffs = payoffs
        self.made: List[Optional[Contract]] = [None] * len(payoffs.u)
        self._unmade = len(self.made)  # counted, as ``None in made`` would compare every made contract

    def __len__(self) -> int:
        return len(self.made)

    def __getitem__(self, k):
        made = self.made
        if isinstance(k, slice):
            return tuple([made[i] or self._make(i) for i in range(len(made))[k]])
        return made[k] or self._make(range(len(made))[k])

    def __iter__(self):
        if self._unmade:
            for k, c in enumerate(self.made):
                if c is None:
                    self._make(k)
        return iter(self.made)

    def __eq__(self, other):
        if isinstance(other, _Menu):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def _make(self, k: int) -> Contract:
        pay = self._payoffs
        u, v = Fraction(pay.u[k], pay.du), Fraction(pay.v[k], pay.dv)
        # a matrix contract's descriptors are its cell, a level one's its level, a repeated one's its point
        if pay.cols is not None:
            a, b = divmod(k, pay.cols)
        elif pay.levels is None:
            a = b = (u, v)
        elif pay.levels[1] is pay.u:  # zero-sum: the level is the man's payoff
            a = b = u
        else:
            a = b = Fraction(pay.levels[1][k], pay.levels[0])
        self.made[k] = c = Contract(k, a, b, u, v)
        self._unmade -= 1
        return c


class _Matrix(NamedTuple):
    """A payoff matrix read once, in integers: entry (r, c) is numerators[r*cols + c] / D.

    D is the lcm of the entries' lowest-terms denominators, so every entry
    is an integer exactly when D == 1.
    """

    rows: int
    cols: int
    D: int
    numerators: Tuple[int, ...]


def _scaled(pairs: Sequence[Pair]) -> Tuple[int, Tuple[int, ...]]:
    """(D, numerators): numbers given as lowest-terms pairs n/d, as integers over the lcm D of their d."""
    D = lcm(*[d for _, d in pairs])
    return D, tuple([n * (D // d) for n, d in pairs])


def _over_lcm(pairs: Sequence[Pair], rows: int, cols: int) -> _Matrix:
    """The matrix whose entries, row by row, are the lowest-terms pairs n/d, as integers over their lcm D."""
    return _Matrix(rows, cols, *_scaled(pairs))


def _read_matrix(m: Union[_Matrix, Sequence[Sequence[RationalLike]]], name: str) -> _Matrix:
    """The one reading of a payoff matrix: a nonempty list or tuple of equally long list or tuple rows.

    An int entry is read as it is, every other entry through ``rat``
    (``_rat``).  A ``_Matrix`` (``serde`` reads a file's matrices into one
    as it parses them) is returned unchanged.
    """
    if type(m) is _Matrix:
        return m
    shape = f"{name} must be a nonempty rectangular matrix"
    if not isinstance(m, (list, tuple)) or not m or not all([isinstance(row, (list, tuple)) for row in m]):
        raise GameError(shape)
    xs = [(x, 1) if type(x) is int else _rat(x, name).as_integer_ratio() for row in m for x in row]
    cols = len(m[0])
    if not cols or len({len(row) for row in m}) > 1:
        raise GameError(shape)
    return _over_lcm(xs, len(m), cols)


def _rat(value: RationalLike, what: str) -> Fraction:
    """``rat`` of a number a game is given; its error becomes a ``GameError`` that names the field."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise GameError(f"{what}: {exc}") from exc


def _rows(m: _Matrix) -> List[Tuple[int, ...]]:
    """A matrix read by ``_read_matrix`` as rows of its integers (each entry times D)."""
    _, cols, _, ns = m
    return [ns[k : k + cols] for k in range(0, len(ns), cols)]


def _fractions(m: _Matrix) -> List[List[Fraction]]:
    """A matrix read by ``_read_matrix`` as rows of ``Fraction``s."""
    return [[Fraction(n, m.D) for n in row] for row in _rows(m)]


def _value(m: _Matrix) -> Fraction:
    """``zero_sum_value`` of a matrix read by ``_read_matrix``."""
    return _scaled_value(_rows(m), m.D)


def _stage(u_matrix, v_matrix) -> Tuple[_Matrix, _Matrix]:
    """A stage game's U and V, read by ``_read_matrix``, of one shape."""
    U, V = _read_matrix(u_matrix, "U"), _read_matrix(v_matrix, "V")
    if U[:2] != V[:2]:
        raise GameError("U and V must share dimensions")
    return U, V


# Largest menu one couple game may have; beyond it construction fails
# before any contract is built, so a small file cannot ask for unbounded
# memory through a fine resolution.
MAX_MENU = 100_000


def _grid_runs(lo: Pair, hi: Pair, step: Fraction, before: int = 0) -> List[Run]:
    """The ascending grid lo, lo+step, ... (all below hi) with hi appended exactly: at most two runs.

    Callers check lo <= hi and step > 0.  ``before`` counts the contracts
    the menu already holds, so the cap applies to the whole menu.
    """
    (ln, ld), (hn, hd) = lo, hi
    # point k is lo + k*step = (a + k*b) / d over the common denominator d
    d = lcm(ld, step.denominator)
    a, b = ln * (d // ld), step.numerator * (d // step.denominator)
    count = 1 - (a * hd - hn * d) // (b * hd)
    if before + count > MAX_MENU:
        past = digits_past_limit(before + count)  # a size str() cannot print is named by its digits
        size = f"at least 10**{past}" if past else before + count
        raise GameError(f"menu of {size} contracts exceeds the limit of {MAX_MENU}")
    if (a + (count - 1) * b) * hd == hn * d:  # hi on the grid
        return [(a, b, count, d)]
    return [(a, b, count - 1, d), (hn, 1, 1, hd)]


class _Breakpoints(NamedTuple):
    """A map's breakpoints read once, in integers: breakpoint k is (xs[k]/dx, ys[k]/dy).

    dx and dy are the lcm of the lowest-terms denominators on each axis, as a
    ``_Matrix``'s D is; ``serde`` reads a file's breakpoint lists into one.
    """

    dx: int
    xs: Tuple[int, ...]
    dy: int
    ys: Tuple[int, ...]


class PiecewiseLinear:
    """Strictly increasing piecewise-linear map with rational breakpoints.

    Evaluation and inversion are exact.  Outside the breakpoint range
    the first/last segment is extended with its own slope, keeping the
    map a bijection on the rationals.  An input lying on an interior
    breakpoint is evaluated on the segment to its left (both agree there).

    The map keeps one copy of its breakpoints, in integers: a
    ``_Breakpoints`` record, taken as it is when given one (``serde``
    reads a file's into one).  ``points`` makes their ``Fraction``s on
    first read, and the lines of the segments are made on the first walk
    that needs them, the inverse's on the first inverse walk.
    """

    __slots__ = ("_breakpoints", "_points", "_tables")

    def __init__(self, breakpoints: Union[_Breakpoints, Sequence[Tuple[RationalLike, RationalLike]]]):
        if type(breakpoints) is not _Breakpoints:
            pts = [(_rat(x, "breakpoints"), _rat(y, "breakpoints")) for x, y in breakpoints]
            breakpoints = _Breakpoints(
                *_scaled([x.as_integer_ratio() for x, _ in pts]), *_scaled([y.as_integer_ratio() for _, y in pts])
            )
        _, xs, _, ys = breakpoints
        if len(xs) < 2:
            raise GameError("piecewise-linear map needs at least two breakpoints")
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(ys, ys[1:])):
            raise GameError("piecewise-linear map must be strictly increasing")
        self._breakpoints = breakpoints
        self._points: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None
        self._tables: List[Optional[tuple]] = [None, None]  # the map's, then its inverse's

    @property
    def points(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The breakpoints as ``Fraction`` pairs, made on first read."""
        if self._points is None:
            dx, xs, dy, ys = self._breakpoints
            self._points = tuple([(Fraction(x, dx), Fraction(y, dy)) for x, y in zip(xs, ys)])
        return self._points

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        return self.walk([(x.numerator, x.denominator)])[0]

    def inverse(self, y: RationalLike) -> Fraction:
        y = rat(y)
        return self.walk([(y.numerator, y.denominator)], inverse=True)[0]

    def walk(self, pairs: Sequence[Pair], inverse: bool = False) -> List[Fraction]:
        """The map (or its inverse) at each n/d of integer pairs (d > 0), each a run of one number."""
        return [Fraction(n, d) for n, _, _, d in self._walk([(n, 1, 1, d) for n, d in pairs], inverse)]

    def _walk(self, runs: Sequence[Run], inverse: bool = False) -> List[Run]:
        """The map (or its inverse) on runs.

        A run is cut at the breakpoints it crosses (``_pieces``), and each piece maps to one run.
        """
        way = 1 if inverse else 0
        table = self._tables[way] or self._table(way)
        out: List[Run] = []
        for n, s, c, d in runs:
            if s > 0:
                out += _pieces(n, s, c, d, *table)
            else:  # a descending run is mapped in ascending order, then read back
                pieces = _pieces(n + (c - 1) * s, -s, c, d, *table)
                out += [(m + (k - 1) * t, -t, k, e) for m, t, k, e in reversed(pieces)]
        return out

    def _table(self, way: int) -> tuple:
        """(dx, cuts, lines) of the map (way 0), or of its inverse with the axes swapped (way 1), made once.

        The interior breakpoints are cuts[j] / dx, ascending, and lines[j]
        is the line (A, B, C) of the segment left of cut j (``_line``).
        """
        dx, xs, dy, ys = self._breakpoints
        if way:
            dx, xs, dy, ys = dy, ys, dx, xs
        pts = list(zip(xs, ys))
        table = self._tables[way] = (dx, xs[1:-1], [_line(a, b, dx, dy) for a, b in zip(pts, pts[1:])])
        return table


def _pieces(n: int, s: int, c: int, d: int, dx: int, cuts, lines) -> List[Run]:
    """The ascending run (n, s, c, d) through a piecewise-linear map, one run per segment it meets.

    ``cuts`` are the interior breakpoints over dx, ascending, and
    ``lines[j]`` the line (A, B, C) of the segment left of cut j: it maps x
    to (A*x + B) / C.  Point k lies at or left of cut X/dx exactly when
    k <= (X*d - n*dx) / (s*dx), so one floor division finds where the run
    crosses each cut, and a point on a cut is mapped on the segment to its
    left.  A piece from point k0 maps to (A*(n + k0*s) + B*d + i*A*s) / (C*d).
    """
    out, start, ndx, sdx = [], 0, n * dx, s * dx
    for X, (A, B, C) in zip(cuts, lines):
        end = min(c, (X * d - ndx) // sdx + 1)  # points at or left of the cut
        if end > start:
            out.append((A * (n + start * s) + B * d, A * s, end - start, C * d))
            start = end
    if start < c:
        A, B, C = lines[-1]
        out.append((A * (n + start * s) + B * d, A * s, c - start, C * d))
    return out


def _line(a: Tuple[int, int], b: Tuple[int, int], dx: int, dy: int) -> Tuple[int, int, int]:
    """Integers (A, B, C) in lowest terms, C > 0, with (A*x + B) / C the line through a and b.

    a and b are integer points (x, y) standing for (x/dx, y/dy), dx, dy > 0, a left of b.
    """
    (x1, y1), (x2, y2) = a, b
    run, rise = x2 - x1, y2 - y1
    A, B, C = rise * dx, y1 * run - x1 * rise, run * dy
    g = gcd(A, B, C)  # the lowest terms keep the tables' ints small
    return (A // g, B // g, C // g)


class Game:
    """Shared interface over all couple game classes."""

    kind = "abstract"

    _menu: _Menu
    _payoffs: Payoffs  # the menu's payoffs in integers: its contracts and the market index read them

    def menu(self) -> Sequence[Contract]:
        """The finite contract menu, ordered by id (deterministic): a read-only sequence, sliced as tuples."""
        return self._menu

    def contract(self, contract_id: int) -> Contract:
        if not (isinstance(contract_id, int) and 0 <= contract_id < len(self._menu)):
            raise GameError(f"no contract with id {contract_id} in this menu")
        return self._menu[contract_id]

    def _in_menu(self, contract: Contract) -> bool:
        k, menu = contract.id, self._menu
        return isinstance(k, int) and 0 <= k < len(menu) and (menu.made[k] is contract or menu[k] == contract)

    def validate_contract(self, contract: Contract) -> None:
        """Raise unless the contract belongs to this game."""
        if not self._in_menu(contract):
            raise GameError(f"foreign contract {contract!r} for {self.kind} game")

    def payoff(self, contract: Contract) -> Tuple[Fraction, Fraction]:
        """Re-derive (u, v) from the strategy descriptors.

        The re-derivation must agree with the stored payoffs; a mismatch
        means the contract was tampered with or belongs elsewhere.
        """
        self.validate_contract(contract)
        u, v = self._evaluate(contract.strategy_a, contract.strategy_b)
        if (u, v) != (contract.u, contract.v):
            raise GameError("contract payoffs disagree with re-evaluation")
        return (u, v)

    def _evaluate(self, a: object, b: object) -> Tuple[Fraction, Fraction]:
        raise NotImplementedError

    def describe(self, contract: Contract) -> str:
        """A short human-readable account of what the contract is."""
        raise NotImplementedError

    def improving_deviations(self, contract: Contract, side: Side) -> Tuple[Contract, ...]:
        """Menu contracts one side can reach unilaterally and strictly prefer."""
        raise NotImplementedError

    def is_nash_contract(self, contract: Contract) -> bool:
        return not self.improving_deviations(contract, Side.MAN) and not self.improving_deviations(
            contract, Side.WOMAN
        )


class BimatrixGame(Game):
    """Finite bimatrix game; the menu is all pure strategy cells, contract r*cols + c cell (r, c).

    The menu's integer ``Payoffs`` are the game's one copy of its payoffs, read as the stage by
    ``_matrices``; ``U`` and ``V`` make their ``Fraction`` matrices from them on first access.
    """

    kind = "bimatrix"

    def __init__(self, u_matrix: Sequence[Sequence[RationalLike]], v_matrix: Sequence[Sequence[RationalLike]]):
        (self.rows, self.cols, du, u), (_, _, dv, v) = _stage(u_matrix, v_matrix)
        self._payoffs = Payoffs(du, u, dv, v, cols=self.cols)
        self._menu = _Menu(self._payoffs)

    @property
    def _matrices(self) -> Tuple[_Matrix, _Matrix]:
        pay = self._payoffs
        return _Matrix(self.rows, self.cols, pay.du, pay.u), _Matrix(self.rows, self.cols, pay.dv, pay.v)

    @cached_property
    def U(self) -> List[List[Fraction]]:
        return _fractions(self._matrices[0])

    @cached_property
    def V(self) -> List[List[Fraction]]:
        return _fractions(self._matrices[1])

    def _evaluate(self, a, b):
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < self.rows and 0 <= b < self.cols):
            raise GameError(f"invalid cell ({a},{b})")
        pay, k = self._payoffs, a * self.cols + b
        return (Fraction(pay.u[k], pay.du), Fraction(pay.v[k], pay.dv))

    def improving_deviations(self, contract, side):
        self.validate_contract(contract)
        pay, cols, k = self._payoffs, self.cols, contract.id
        if side is Side.MAN:  # the man moves within the contract's column
            xs, cells = pay.u, range(k % cols, len(pay.u), cols)
        else:  # the woman within its row
            row = k - k % cols
            xs, cells = pay.v, range(row, row + cols)
        return tuple(self._menu[j] for j in cells if xs[j] > xs[k])

    def describe(self, contract):
        self.validate_contract(contract)
        return f"cell({contract.strategy_a},{contract.strategy_b})"


def validate_potential(
    u_matrix: Sequence[Sequence[RationalLike]],
    v_matrix: Sequence[Sequence[RationalLike]],
    phi_matrix: Sequence[Sequence[RationalLike]],
) -> bool:
    """Ordinal potential check: unilateral payoff changes match potential signs.

    Row deviations (the row player moving within a column) must change U
    and the potential with the same sign, column deviations likewise for
    V.  Dimension mismatches are rejected.
    """
    U, V, phi = _read_matrix(u_matrix, "U"), _read_matrix(v_matrix, "V"), _read_matrix(phi_matrix, "phi")
    if not U[:2] == V[:2] == phi[:2]:
        raise GameError("U, V, phi must share dimensions")
    return _is_potential(U.numerators, V.numerators, phi.numerators, U.cols)


# A line (row or column) of at most this many cells is checked pair by
# pair in place; past it a matrix's lines go through their sorted order,
# so the check costs about rows·cols·log comparisons at any size.
_PAIRWISE_LINE = 4


def _is_potential(u: Sequence[int], v: Sequence[int], phi: Sequence[int], cols: int) -> bool:
    """The ordinal potential check on matrices read row by row as integers.

    Down a column U and phi, along a row V and phi, each pair of cells must
    compare alike (<, = or >).  Each matrix may be scaled by its own
    positive constant, which keeps every order in it.
    """
    n = len(phi)
    if max(n // cols, cols) > _PAIRWISE_LINE:
        return all(_same_order(u[c::cols], phi[c::cols]) for c in range(cols)) and all(
            _same_order(v[k : k + cols], phi[k : k + cols]) for k in range(0, n, cols)
        )
    for k, p in enumerate(phi):
        a = u[k]
        for j in range(k + cols, n, cols):  # the cells below k in its column
            x, q = u[j], phi[j]
            if (a < x) != (p < q) or (x < a) != (q < p):
                return False
        a = v[k]
        for j in range(k + 1, k - k % cols + cols):  # the cells right of k in its row
            x, q = v[j], phi[j]
            if (a < x) != (p < q) or (x < a) != (q < p):
                return False
    return True


def _same_order(xs: Sequence[int], ps: Sequence[int]) -> bool:
    """Each pair of positions compares alike (<, = or >) in xs and in ps.

    Sorted by (x, p), neighbours must step up in p exactly where they step
    up in x; orders that agree on neighbours agree on every pair.
    """
    pairs = sorted(zip(xs, ps))
    for (x0, p0), (x1, p1) in zip(pairs, pairs[1:]):
        if (x0 < x1) != (p0 < p1):
            return False
    return True


class PotentialGame(BimatrixGame):
    """Bimatrix game carrying a validated ordinal potential, kept in integers; ``phi`` is made on first access."""

    kind = "potential"

    def __init__(self, u_matrix, v_matrix, phi_matrix):
        super().__init__(u_matrix, v_matrix)
        self._phi = _read_matrix(phi_matrix, "phi")
        if self._phi[:2] != (self.rows, self.cols):
            raise GameError("phi must share dimensions with U and V")
        if not _is_potential(self._payoffs.u, self._payoffs.v, self._phi.numerators, self.cols):
            raise GameError("phi is not an ordinal potential for (U, V)")

    @cached_property
    def phi(self) -> List[List[Fraction]]:
        return _fractions(self._phi)

    def potential_of(self, contract: Contract) -> Fraction:
        self.validate_contract(contract)
        return self.phi[contract.strategy_a][contract.strategy_b]


class _Identity:
    """The map x -> x; zero-sum games use it for both f and h."""

    def __call__(self, x):
        return x

    inverse = __call__


_IDENTITY = _Identity()


def _positive(value: RationalLike, what: str) -> Fraction:
    value = _rat(value, what)
    if value <= 0:
        raise GameError(f"{what} must be positive")
    return value


def _monotone(m) -> PiecewiseLinear:
    return m if isinstance(m, PiecewiseLinear) else PiecewiseLinear(m)


class LevelGame(Game):
    """A menu that is a grid of payoff levels: u = f(level), v = h(-level).

    Levels live on a native scale (the zero-sum payoff scale or the
    transfer scale).  ``f`` and ``h`` are strictly increasing exact
    maps, so the man's payoff strictly increases with the level and the
    woman's strictly decreases; ``value_level`` is the level both sides
    would settle on absent outside pressure.  A menu deviation is
    improving for the man when it moves the level from below toward the
    value (never past it), mirrored for the woman.

    The menu is made at construction and the value on first read (a
    zero-sum or strictly competitive game solves its LP then): external
    stability and the proposal auction read only menus, and the value
    serves the constrained equilibria and internal stability of couples
    that end up matched.

    The construction rests on two facts.  A grid of levels is an arithmetic
    progression, so the caller gives the levels and the man's payoffs
    ``us`` (f at each level) as runs (``Run``), strictly ascending, and a
    piecewise-linear map turns a run into one run per segment it meets:
    the menu takes O(runs) integer steps beside its numerators.  And the
    game is strictly competitive, so the menu is an anti-monotone chain:
    u strictly rises and v strictly falls as the id grows, which gives the
    market index both staircases without a sort (``_market``).  Levels
    and payoffs stay integers over their common denominators, and
    ``levels`` makes their ``Fraction``s on first access.
    """

    value_level: Fraction

    def __init__(self, levels: Sequence[Run], us: Sequence[Run], resolution, f, h):
        self.resolution = resolution
        self.f = f
        self.h = h
        column = _made_payoffs(levels)
        u_column = column if us is levels else _made_payoffs(us)
        vs = [(-n, -s, c, d) for n, s, c, d in levels]
        vs = _made_payoffs(vs if h is _IDENTITY else h._walk(vs))
        self._payoffs = Payoffs(*u_column, *vs, column)
        self._menu = _Menu(self._payoffs)

    @cached_property
    def levels(self) -> Tuple[Fraction, ...]:
        """The menu's levels in id order (ascending)."""
        dl, ns = self._payoffs.levels
        return tuple(Fraction(n, dl) for n in ns)

    def _count_below(self, x, inclusive: bool = False) -> int:
        """How many levels lie below x (at or below x when inclusive), x rational or infinite."""
        dl, ns = self._payoffs.levels
        if isinstance(x, float):  # an infinite sentinel
            return 0 if x < 0 else len(ns)
        # level n/dl is below x = p/q exactly when n < p*dl/q
        p, q = x.numerator, x.denominator
        return bisect_right(ns, p * dl // q) if inclusive else bisect_left(ns, -(-p * dl // q))

    def level_of(self, contract: Contract) -> Fraction:
        self.validate_contract(contract)
        return contract.strategy_a

    def _evaluate(self, a, b):
        if a != b:
            raise GameError(f"{self.kind} contract descriptors must agree")
        lev = rat(a)
        return (self.f(lev), self.h(-lev))

    def level_bounds(self, u_floor, v_floor) -> Tuple[object, object]:
        """Native-scale interval [lo, hi] of levels meeting the payoff floors.

        Floors may be the minus-infinity sentinel; the returned bounds
        may then be infinite sentinels as well.
        """
        lo = self.f.inverse(u_floor) if not is_neg_inf(u_floor) else NEG_INF
        hi = -self.h.inverse(v_floor) if not is_neg_inf(v_floor) else POS_INF
        return (lo, hi)

    def improving_deviations(self, contract, side):
        cur = self.level_of(contract)
        w = self.value_level
        below = self._count_below
        if side is Side.MAN:  # levels in (cur, w]
            return self._menu[below(cur, True) : below(w, True)]
        return self._menu[below(w) : below(cur)]  # levels in [w, cur)


def _span(g: _Matrix) -> List[Pair]:
    """The least and the greatest entry of a matrix read by ``_read_matrix``, as Pairs."""
    _, _, d, ns = g
    return [(min(ns), d), (max(ns), d)]


class ZeroSumGame(LevelGame):
    """Zero-sum game discretized into payoff levels u = g, v = -g; g is made on first access."""

    kind = "zero_sum"

    def __init__(self, g_matrix: Sequence[Sequence[RationalLike]], resolution: RationalLike):
        self._g = _read_matrix(g_matrix, "g")
        res = _positive(resolution, "menu resolution")
        grid = _grid_runs(*_span(self._g), res)
        super().__init__(grid, grid, res, _IDENTITY, _IDENTITY)

    @cached_property
    def g(self) -> List[List[Fraction]]:
        return _fractions(self._g)

    @cached_property
    def value_level(self) -> Fraction:
        return _value(self._g)

    def describe(self, contract):
        lev = self.level_of(contract)
        entries = [x for row in self.g for x in row]
        below = max(x for x in entries if x <= lev)
        above = min(x for x in entries if x >= lev)
        return f"between pure levels {fmt(below)} and {fmt(above)}"


class StrictlyCompetitiveGame(LevelGame):
    """Monotone transforms of a zero-sum game: u = f(g), v = h(-g).

    The menu is gridded on the u scale (so consecutive u values differ
    by at most the resolution) and mapped back to native g levels
    through the exact piecewise-linear inverse.  g is made on first
    access, as a zero-sum game's is.
    """

    kind = "strictly_competitive"

    def __init__(
        self,
        g_matrix: Sequence[Sequence[RationalLike]],
        resolution: RationalLike,
        f_map: PiecewiseLinear,
        h_map: PiecewiseLinear,
    ):
        self._g = _read_matrix(g_matrix, "g")
        res = _positive(resolution, "menu resolution")
        f, h = _monotone(f_map), _monotone(h_map)
        lo, hi = f.walk(_span(self._g))
        grid = _grid_runs(lo.as_integer_ratio(), hi.as_integer_ratio(), res)  # on the u = f(level) scale
        super().__init__(f._walk(grid, inverse=True), grid, res, f, h)

    g, value_level = ZeroSumGame.g, ZeroSumGame.value_level
    describe = ZeroSumGame.describe


class TransferGame(LevelGame):
    """Surplus division through a bounded transfer grid.

    The man receives the transfer t (u = f(t)), the woman pays it
    (v = h(-t)); both maps are strictly increasing.  The underlying
    game has value 0 on the transfer scale: absent outside pressure
    neither side owes the other anything.
    """

    kind = "transfer"
    value_level = Fraction(0)

    def __init__(
        self,
        t_min: RationalLike,
        t_max: RationalLike,
        step: RationalLike,
        f_u: PiecewiseLinear,
        f_v: PiecewiseLinear,
    ):
        t_min, t_max = _rat(t_min, "t_min"), _rat(t_max, "t_max")
        res = _positive(step, "transfer grid step")
        if t_min > t_max:
            raise GameError("transfer grid has empty range")
        grid = _grid_runs(t_min.as_integer_ratio(), t_max.as_integer_ratio(), res)
        f, h = _monotone(f_u), _monotone(f_v)
        super().__init__(grid, f._walk(grid), res, f, h)

    def describe(self, contract):
        return f"transfer {fmt(self.level_of(contract))}"


def punishment_levels(stage: Union[BimatrixGame, RepeatedGame]) -> Tuple[Fraction, Fraction]:
    """Exact mixed minmax levels (alpha, beta) of a bimatrix, potential or repeated game.

    alpha is what the column player can hold the row player down to,
    beta the mirror image; both are matrix-game values of its integers.
    A repeated game answers with the pair it keeps.
    """
    if isinstance(stage, RepeatedGame):
        return stage.alpha, stage.beta
    return _alpha(stage), _beta(stage)


def _alpha(stage: Union[BimatrixGame, RepeatedGame]) -> Fraction:
    return _value(stage._matrices[0])


def _beta(stage: Union[BimatrixGame, RepeatedGame]) -> Fraction:
    V = stage._matrices[1]
    return _scaled_value(list(zip(*_rows(V))), V.D)


def feasible_payoff_hull(stage: Union[BimatrixGame, RepeatedGame]) -> Tuple[Point, ...]:
    """Exact convex hull (ccw, strict) of the payoff vectors of a bimatrix, potential or repeated game.

    It is taken on the integer cells (u*du, v*dv): scaling each axis by its
    own positive denominator keeps every order and the sign of every cross
    product, so the vertices are the same.
    """
    (_, _, du, u), (_, _, dv, v) = stage._matrices
    return tuple([(Fraction(x, du), Fraction(y, dv)) for x, y in _integer_hull(zip(u, v))])


class RepeatedGame(Game):
    """Infinitely repeated stage game summarized by its payoff hull.

    Contracts are payoff points on a rational grid over the hull of the
    stage cells.  ``alpha`` and ``beta`` are the exact mixed punishment
    levels; a point weakly above both is sustainable without outside
    pressure, so no deviation from it is improving.  Each is one LP, solved
    on its first read and kept: external stability and the proposal
    auction read only the menu, and the levels serve the constrained
    equilibria and internal stability of couples that end up matched.

    The stage is kept once, in integers (``_matrices``, as ``_read_matrix``
    read it); ``U``, ``V`` and ``hull`` make their ``Fraction``s on first access.
    """

    kind = "repeated"

    def __init__(
        self,
        u_matrix: Sequence[Sequence[RationalLike]],
        v_matrix: Sequence[Sequence[RationalLike]],
        resolution: RationalLike,
    ):
        self._matrices = U, V = _stage(u_matrix, v_matrix)
        self.resolution = _positive(resolution, "menu resolution")
        # as in feasible_payoff_hull; hull[0] is its least point
        hull = _integer_hull(zip(U.numerators, V.numerators))
        du, u_cols = _made_payoffs(_grid_runs((hull[0][0], U.D), (max(hull)[0], U.D), self.resolution))
        u_ints, v_runs = [], []
        # each grid column u holds the v grid between the hull's lowest and highest v there
        for u_int, lo, hi in zip(u_cols, *_sweep(hull, U.D, V.D, du, u_cols)):
            column = _grid_runs(lo, hi, self.resolution, len(u_ints))
            v_runs += column
            for run in column:
                u_ints += [u_int] * run[2]
        self._payoffs = Payoffs(du, tuple(u_ints), *_made_payoffs(v_runs))
        self._menu = _Menu(self._payoffs)
        self._by_point = None

    U, V, hull = BimatrixGame.U, BimatrixGame.V, cached_property(feasible_payoff_hull)
    alpha, beta = cached_property(_alpha), cached_property(_beta)

    def _evaluate(self, a, b):
        if a != b:
            raise GameError("repeated-game contract descriptors must agree")
        u, v = a
        return (rat(u), rat(v))

    def validate_contract(self, contract: Contract) -> None:
        if self._in_menu(contract):
            return
        # Synthesized contracts (off-grid feasible points) are accepted
        # when the point really lies in the hull.
        point = (contract.u, contract.v)
        if (
            contract.strategy_a == point
            and contract.strategy_b == point
            and hull_contains(list(self.hull), point)
        ):
            return
        raise GameError(f"foreign contract {contract!r} for repeated game")

    def synthesize_contract(self, point: Point) -> Contract:
        """Wrap an exact hull point as a contract (menu contract if it is one)."""
        pay = self._payoffs
        u, v = point
        # on the menu's grid u*du and v*dv are integers, the keys of its points
        ku, ru = divmod(u.numerator * pay.du, u.denominator)
        kv, rv = divmod(v.numerator * pay.dv, v.denominator)
        if not ru and not rv:
            if self._by_point is None:
                self._by_point = {key: k for k, key in enumerate(zip(pay.u, pay.v))}
            k = self._by_point.get((ku, kv))
            if k is not None:
                return self._menu[k]
        if not hull_contains(list(self.hull), point):
            raise GameError(f"point {point} outside the feasible payoff hull")
        return Contract(len(self.menu()), point, point, point[0], point[1])

    def describe(self, contract):
        self.validate_contract(contract)
        if self._in_menu(contract):
            return "hull grid point"
        return "synthesized hull point"

    def improving_deviations(self, contract, side):
        self.validate_contract(contract)
        pay = self._payoffs
        if side is Side.MAN:
            x, level, scale, xs = contract.u, self.alpha, pay.du, pay.u
        else:
            x, level, scale, xs = contract.v, self.beta, pay.dv, pay.v
        if x >= level:
            return ()
        # menu payoff y/scale beats x = n/d exactly when y*d > n*scale
        n, d = x.numerator, x.denominator
        return tuple(self._menu[k] for k, y in enumerate(xs) if y * d > n * scale)

    def is_nash_contract(self, contract):
        self.validate_contract(contract)
        return contract.u >= self.alpha and contract.v >= self.beta


def _sweep(hull: List[Tuple[int, int]], du: int, dv: int, dg: int, us: Sequence[int]) -> List[List[Pair]]:
    """The hull's lowest and highest v on each grid column u, as integer pairs.

    ``hull`` is a stage's integer hull: vertex (x, y) stands for the point
    (x/du, y/dv).  Returns two lists of (numerator, denominator), one
    entry per u of the ascending grid ``us``, the u values times dg,
    which runs from the hull's least u to its greatest.  The end
    columns read the vertices there (a point, a vertical segment or a
    vertical edge); the interior columns walk the lower and upper chains
    left to right, each edge's line (``_line``) in integers.
    """

    def ends(u):
        ys = [y for x, y in hull if x == u]
        return [(min(ys), dv), (max(ys), dv)]

    k = hull.index(max(hull))  # the lower chain runs from hull[0] to hull[k]
    first, last = ends(hull[0][0]), ends(hull[k][0])
    cols = []
    for side, chain in enumerate((hull[: k + 1], (hull[k:] + hull[:1])[::-1])):
        edges = [(q[0], du) + _line(p, q, du, dv) for p, q in zip(chain, chain[1:]) if p[0] != q[0]]
        col = [first[side]]
        i = 0
        for n in us[1:-1]:
            while n * edges[i][1] > edges[i][0] * dg:
                i += 1
            _, _, A, B, C = edges[i]
            col.append((A * n + B * dg, C * dg))
        if len(us) > 1:
            col.append(last[side])
        cols.append(col)
    return cols


def zero_sum_value(g_matrix: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact value of the mixed extension of a zero-sum matrix game."""
    return _value(_read_matrix(g_matrix, "g"))


@dataclass(frozen=True)
class Instance:
    """A two-sided market: agents, reservation payoffs, one game per pair.

    The first blocking check, outside-option query or propose-dispose
    run builds an integer index of every menu and caches it on the
    instance, so ``games`` must not be mutated after that.
    """

    men: Tuple[str, ...]
    women: Tuple[str, ...]
    irp_men: Tuple[Fraction, ...]
    irp_women: Tuple[Fraction, ...]
    games: Mapping[Tuple[int, int], Game]

    def __post_init__(self):
        if len(set(self.men)) != len(self.men) or len(set(self.women)) != len(self.women):
            raise GameError("agent names must be distinct per side")
        if set(self.men) & set(self.women):
            raise GameError("agent names must not repeat across sides")
        if len(self.irp_men) != len(self.men) or len(self.irp_women) != len(self.women):
            raise GameError("one reservation payoff per agent required")
        expected = {(i, j) for i in range(len(self.men)) for j in range(len(self.women))}
        if set(self.games.keys()) != expected:
            raise GameError("games must be defined for every (man, woman) pair")
        for key, game in self.games.items():
            if not isinstance(game, Game):
                raise GameError(f"games[{key}] is not a couple game")

    def game(self, i: int, j: int) -> Game:
        return self.games[(i, j)]

    @property
    def n_men(self) -> int:
        return len(self.men)

    @property
    def n_women(self) -> int:
        return len(self.women)


def build_instance(
    men: Sequence[str],
    women: Sequence[str],
    irp_men: Sequence[RationalLike],
    irp_women: Sequence[RationalLike],
    games: Mapping[Tuple[int, int], Game],
) -> Instance:
    """Convenience constructor parsing reservation payoffs."""
    return Instance(
        men=tuple(men),
        women=tuple(women),
        irp_men=tuple(rat(x) for x in irp_men),
        irp_women=tuple(rat(x) for x in irp_women),
        games=dict(games),
    )
