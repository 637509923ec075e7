"""Seeded market generator for the benchmark (standard library only).

``build(workload, seed)`` returns the workload's pool of markets as
instance payloads in the schema ``matchgames.serde.parse_instance``
reads.  Every payoff is a JSON integer or a ``"p/q"`` string, and
``encode`` gives the canonical bytes written to disk, so the same seed
always yields byte-identical files.  Nothing here imports matchgames:
the program under test only ever sees the written files or the
instances built from these payloads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple

# One entry per workload: agents per side, markets in the pool, and the
# CLI arguments after the file name (None for the library-path workload).
# ``eps`` is the margin the run uses: the CLI's own default of 1 for the
# all-integer wide-matrix markets, the --eps flag for the other two.
WORKLOADS: Dict[str, dict] = {
    "wide-matrix": {"n": 10, "pool": 170, "eps": Fraction(1), "argv": ["solve-stable"]},
    "deep-level": {
        "n": 4,
        "pool": 100,
        "eps": Fraction(1, 2),
        "argv": ["solve-external", "--eps", "1/2", "--side", "women"],
    },
    "repeated-hull": {"n": 4, "pool": 260, "eps": Fraction(1), "argv": ["solve-stable", "--eps", "1"]},
    "oracle-crosscheck": {"n": 3, "pool": 280, "eps": Fraction(1), "argv": None},
}


class Market(NamedTuple):
    name: str
    payload: dict
    numbers: int  # numeric leaves in the payload


def num(x) -> object:
    """JSON form of an exact number: an int, or a lowest-terms "p/q" string."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def encode(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def count_numbers(payload: dict) -> int:
    def leaves(value) -> int:
        if isinstance(value, list):
            return sum(leaves(v) for v in value)
        return 1

    total = len(payload["irp"]["men"]) + len(payload["irp"]["women"])
    total += 1 if "menu_resolution" in payload else 0
    for row in payload["games"].values():
        for game in row.values():
            total += sum(leaves(v) for k, v in game.items() if k != "class")
    return total


def _market(n: int, irp_men: list, irp_women: list, games: List[List[dict]], extra=None) -> dict:
    men = [f"m{i}" for i in range(n)]
    women = [f"w{j}" for j in range(n)]
    payload = {
        "men": men,
        "women": women,
        "irp": {"men": [num(x) for x in irp_men], "women": [num(x) for x in irp_women]},
        "games": {m: {w: games[i][j] for j, w in enumerate(women)} for i, m in enumerate(men)},
    }
    payload.update(extra or {})
    return payload


def _matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> List[List[int]]:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def potential_game(rng: random.Random, size: int, spread: int) -> dict:
    """Exact potential game: u = phi + x[col], v = phi + y[row]."""
    phi = _matrix(rng, size, size, -spread, spread)
    x = [rng.randint(-spread, spread) for _ in range(size)]
    y = [rng.randint(-spread, spread) for _ in range(size)]
    u = [[phi[r][c] + x[c] for c in range(size)] for r in range(size)]
    v = [[phi[r][c] + y[r] for c in range(size)] for r in range(size)]
    return {"class": "potential", "u": u, "v": v, "phi": phi}


def bimatrix_game(rng: random.Random, size: int, spread: int) -> dict:
    return {
        "class": "bimatrix",
        "u": _matrix(rng, size, size, -spread, spread),
        "v": _matrix(rng, size, size, -spread, spread),
    }


def _pl_map(rng: random.Random, lo: Fraction, hi: Fraction, rise: Fraction, start: Fraction) -> list:
    """Three-breakpoint strictly increasing map from [lo, hi] onto [start, start + rise]."""
    cut = Fraction(rng.randint(1, 3), 4)
    share = Fraction(rng.randint(1, 4), 5)
    pts = [(lo, start), (lo + (hi - lo) * cut, start + rise * share), (hi, start + rise)]
    return [[num(x), num(y)] for x, y in pts]


def _level_matrix(rng: random.Random, lo: Fraction, span: int) -> List[List[object]]:
    """3x3 payoff matrix on thirds and halves whose entries span exactly [lo, lo + span]."""
    cells = [lo + Fraction(rng.randint(0, 6 * span), 6) for _ in range(9)]
    cells[rng.randrange(9)] = lo
    cells[rng.choice([k for k in range(9) if cells[k] != lo])] = lo + span
    return [[num(cells[3 * r + c]) for c in range(3)] for r in range(3)]


def level_game(rng: random.Random, kind: str, spans=(12, 40)) -> dict:
    """Zero-sum, strictly competitive or transfer couple without its own resolution.

    With the market's menu_resolution of 1/4 the menu has 4 * span + 1
    contracts, so spans of 12 to 40 give menus of 49 to 161.
    """
    span = rng.randint(*spans)
    lo = Fraction(rng.randint(-60, -6), rng.choice([1, 2, 3]))
    if kind == "zero_sum":
        return {"class": "zero_sum", "g": _level_matrix(rng, lo, span)}
    if kind == "strictly_competitive":
        g = _level_matrix(rng, lo, span)
        hi = lo + span
        start = Fraction(rng.randint(-30, 0), rng.choice([1, 2]))
        return {
            "class": "strictly_competitive",
            "g": g,
            "f": _pl_map(rng, lo, hi, Fraction(span), start),
            "h": _pl_map(rng, -hi, -lo, Fraction(rng.randint(6, 40)), start),
        }
    t_min = lo / 2
    t_max = t_min + span
    start = Fraction(rng.randint(-20, 0), rng.choice([1, 3]))
    return {
        "class": "transfer",
        "t_min": num(t_min),
        "t_max": num(t_max),
        "f_u": _pl_map(rng, t_min, t_max, Fraction(rng.randint(10, 40)), start),
        "f_v": _pl_map(rng, -t_max, -t_min, Fraction(rng.randint(10, 40)), start),
    }


def repeated_game(rng: random.Random, spread: int, resolution) -> dict:
    return {
        "class": "repeated",
        "u": _matrix(rng, 2, 2, -spread, spread),
        "v": _matrix(rng, 2, 2, -spread, spread),
        "resolution": num(resolution),
    }


def wide_matrix(rng: random.Random, n: int) -> dict:
    # About one couple in eight plays a plain bimatrix game, which can
    # leave refinement Infeasible; the exact-potential rest converges.
    games = [
        [
            bimatrix_game(rng, 3, 9) if rng.random() < 0.125 else potential_game(rng, 3, 6)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    irp_men = [rng.randint(-8, 2) for _ in range(n)]
    irp_women = [rng.randint(-8, 2) for _ in range(n)]
    return _market(n, irp_men, irp_women, games)


def deep_level(rng: random.Random, n: int) -> dict:
    kinds = ("zero_sum", "strictly_competitive", "transfer")
    games = [[level_game(rng, rng.choice(kinds)) for _ in range(n)] for _ in range(n)]

    def irp() -> Fraction:
        return Fraction(rng.randint(-90, 30), rng.choice([3, 5, 7]))

    irp_men = [irp() for _ in range(n)]
    irp_women = [irp() for _ in range(n)]
    return _market(n, irp_men, irp_women, games, {"menu_resolution": "1/4"})


def repeated_hull(rng: random.Random, n: int) -> dict:
    # Payoffs within +-8 keep the internal-stability check, which runs one
    # blocking scan per improving deviation, from dwarfing the rest of the
    # op in the markets where a refined contract sits below a punishment level.
    games = [[repeated_game(rng, 8, 1) for _ in range(n)] for _ in range(n)]
    irp_men = [rng.randint(-8, 3) for _ in range(n)]
    irp_women = [rng.randint(-8, 3) for _ in range(n)]
    return _market(n, irp_men, irp_women, games)


def _tiny_level(rng: random.Random, kind: str) -> dict:
    """Level game whose own resolution cuts its range into three steps (menu <= 4)."""
    game = level_game(rng, kind, spans=(1, 6))
    if kind == "zero_sum":
        entries = [Fraction(x) for row in game["g"] for x in row]
        rise = max(entries) - min(entries)
    elif kind == "strictly_competitive":
        rise = Fraction(game["f"][-1][1]) - Fraction(game["f"][0][1])
    else:
        # The transfer menu is gridded on the transfer scale.
        rise = Fraction(game["t_max"]) - Fraction(game["t_min"])
    game["resolution"] = num(rise / 3)
    return game


def _tiny_repeated(rng: random.Random) -> dict:
    u = _matrix(rng, 2, 2, -4, 4)
    v = _matrix(rng, 2, 2, -4, 4)
    spread = [max(x for row in m for x in row) - min(x for row in m for x in row) for m in (u, v)]
    return {"class": "repeated", "u": u, "v": v, "resolution": max(spread + [1])}


def oracle_crosscheck(rng: random.Random, n: int) -> dict:
    def game() -> dict:
        kind = rng.choice(
            ["bimatrix", "potential", "zero_sum", "strictly_competitive", "transfer", "repeated"]
        )
        if kind == "bimatrix":
            return bimatrix_game(rng, 2, 4)
        if kind == "potential":
            return potential_game(rng, 2, 2)
        if kind == "repeated":
            return _tiny_repeated(rng)
        return _tiny_level(rng, kind)

    games = [[game() for _ in range(n)] for _ in range(n)]
    irp_men = [rng.randint(-3, 1) for _ in range(n)]
    irp_women = [rng.randint(-3, 1) for _ in range(n)]
    return _market(n, irp_men, irp_women, games)


_BUILDERS = {
    "wide-matrix": wide_matrix,
    "deep-level": deep_level,
    "repeated-hull": repeated_hull,
    "oracle-crosscheck": oracle_crosscheck,
}


def build(workload: str, seed: int) -> List[Market]:
    """The workload's pool of markets; the same seed gives the same pool."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for k in range(spec["pool"]):
        payload = _BUILDERS[workload](rng, spec["n"])
        pool.append(Market(f"{workload}-{k:03d}", payload, count_numbers(payload)))
    return pool
