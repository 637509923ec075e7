"""Exact JSON input and output for instances, profiles, models, trees.

Numbers travel as JSON integers or as strings like "3/4"; JSON floats
are rejected outright so no value ever passes through binary floating
point.  Emission is canonical (lowest-terms "p/q" strings, fixed key
order), which is what makes reruns byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import adapters
from .extensive import GameTree, InternalNode, TerminalNode, TreeError, TreeNode
from .games import (
    BimatrixGame,
    Game,
    GameError,
    Instance,
    PotentialGame,
    RepeatedGame,
    StrictlyCompetitiveGame,
    TransferGame,
    ZeroSumGame,
    _Matrix,
    _over_lcm,
    build_instance,
)
from .rational import fmt, rat
from .stability import SINGLE, MatchingProfile


class SchemaError(ValueError):
    """An input file violates the schema; the message names the field."""


Reader = Callable[[Any, str], Any]  # one JSON value and the path that names it in errors


def _reject_float(text: str) -> Fraction:
    raise SchemaError(
        f"float literal {text!r} not allowed; write numbers as integers or \"p/q\" strings"
    )


def load_json(path: str) -> Any:
    def unique(pairs):  # json.load alone would keep the last of two equal keys
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, _ in pairs if sum(k == q for q, _ in pairs) > 1)
            raise SchemaError(f"{path}: key {key!r} appears twice in one object")
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float, object_pairs_hook=unique)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except SchemaError:
        raise
    except ValueError as exc:  # an integer literal past Python's digit limit, or not UTF-8
        raise SchemaError(f"cannot parse {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{path} nests too deeply to parse") from None


def dump_json(path: str, data: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _num(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{where}: expected an integer or \"p/q\" string, got {value!r}")
    try:
        return rat(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _num_out(x: Fraction) -> Any:
    # Integers stay JSON integers; everything else is a canonical string.
    if x.denominator == 1:
        return int(x)
    return fmt(x)


def _str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {value!r}")
    return value


def _dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {value!r}")
    return value


def _object(value: Any, where: str, required: Tuple[str, ...], optional: Tuple[str, ...] = ()) -> dict:
    """A JSON object with every required key and no key outside required and optional."""
    keys = set(_dict(value, where))
    missing = set(required) - keys
    extra = keys - set(required) - set(optional)
    if missing:
        raise SchemaError(f"{where}: missing field(s) {sorted(missing)}")
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {sorted(extra)}")
    return value


def _each(value: Any, where: str, read: Reader) -> list:
    """A JSON list read entry by entry, entry k at where[k]."""
    return [read(x, f"{where}[{k}]") for k, x in enumerate(_list(value, where))]


def _fixed(value: Any, where: str, read: Reader, n: int, shape: str) -> tuple:
    """A JSON list of exactly n entries, each read as by _each; otherwise the shape is named."""
    items = _list(value, where)
    if len(items) != n:
        raise SchemaError(f"{where}: {shape}")
    return tuple([read(x, f"{where}[{k}]") for k, x in enumerate(items)])


def _breakpoints(value: Any, where: str) -> List[Tuple[Fraction, Fraction]]:
    # a plain comprehension (level-game couples read these on the timed path); _fixed names a bad pair
    return [
        (_num(p[0], f"{where}[{k}][0]"), _num(p[1], f"{where}[{k}][1]")) if type(p) is list and len(p) == 2
        else _fixed(p, f"{where}[{k}]", _num, 2, "breakpoints are [x, y] pairs")
        for k, p in enumerate(_list(value, where))
    ]


def _matrix_in(value: Any, where: str) -> Union[_Matrix, List[list]]:
    """A payoff matrix read in one pass, as the games' ``_Matrix``; a ragged or empty one as its rows.

    A JSON integer is kept as it is and a path is made only for an error.
    The game refuses the rows of a matrix that is not rectangular.
    """
    rows = _list(value, where)
    xs = [
        x if type(x) is int else _num(x, f"{where}[{r}][{c}]")
        for r, row in enumerate(rows)
        for c, x in enumerate(row if type(row) is list else _list(row, f"{where}[{r}]"))
    ]
    if rows and rows[0] and len(set(map(len, rows))) == 1:
        return _over_lcm(xs, len(rows), len(rows[0]))
    entries = iter(xs)
    return [[next(entries) for _x in row] for row in rows]


def _matrix_out(rows) -> list:
    return [[_num_out(x) for x in row] for row in rows]


class _Codec(NamedTuple):
    """How one game class travels as JSON.

    ``fields`` pairs each required payload field with its reader, and
    ``resolution`` tells whether the optional "resolution" field
    applies.  ``build`` makes the game from the parsed fields (with the
    resolution filled in); ``dump`` gives back every field but "class"
    and "resolution", in emission order.  Builders name the game
    classes at call time, so they use whatever this module binds then.
    """

    fields: Tuple[Tuple[str, Reader], ...]
    resolution: bool
    build: Callable[[Dict[str, Any]], Game]
    dump: Callable[[Any], Dict[str, Any]]


_CODECS: Dict[str, _Codec] = {
    "bimatrix": _Codec(
        (("u", _matrix_in), ("v", _matrix_in)),
        False,
        lambda p: BimatrixGame(p["u"], p["v"]),
        lambda g: {"u": _matrix_out(g.U), "v": _matrix_out(g.V)},
    ),
    "potential": _Codec(
        (("u", _matrix_in), ("v", _matrix_in), ("phi", _matrix_in)),
        False,
        lambda p: PotentialGame(p["u"], p["v"], p["phi"]),
        lambda g: {"u": _matrix_out(g.U), "v": _matrix_out(g.V), "phi": _matrix_out(g.phi)},
    ),
    "zero_sum": _Codec(
        (("g", _matrix_in),),
        True,
        lambda p: ZeroSumGame(p["g"], p["resolution"]),
        lambda g: {"g": _matrix_out(g.g)},
    ),
    "strictly_competitive": _Codec(
        (("g", _matrix_in), ("f", _breakpoints), ("h", _breakpoints)),
        True,
        lambda p: StrictlyCompetitiveGame(p["g"], p["resolution"], p["f"], p["h"]),
        lambda g: {"g": _matrix_out(g.g), "f": _matrix_out(g.f.points), "h": _matrix_out(g.h.points)},
    ),
    "transfer": _Codec(
        (("t_min", _num), ("t_max", _num), ("f_u", _breakpoints), ("f_v", _breakpoints)),
        True,
        lambda p: TransferGame(p["t_min"], p["t_max"], p["resolution"], p["f_u"], p["f_v"]),
        lambda g: {
            "t_min": _num_out(g.levels[0]),
            "t_max": _num_out(g.levels[-1]),
            "f_u": _matrix_out(g.f.points),
            "f_v": _matrix_out(g.h.points),
        },
    ),
    "repeated": _Codec(
        (("u", _matrix_in), ("v", _matrix_in)),
        True,
        lambda p: RepeatedGame(p["u"], p["v"], p["resolution"]),
        lambda g: {"u": _matrix_out(g.U), "v": _matrix_out(g.V)},
    ),
}


def _read_game(payload: Any, where: str) -> Tuple[_Codec, Dict[str, Any]]:
    """Check a tagged game payload and parse every number in it."""
    obj = _dict(payload, where)
    if "class" not in obj:
        raise SchemaError(f"{where}: missing game class tag")
    cls = _str(obj["class"], f"{where}.class")
    if cls not in _CODECS:
        raise SchemaError(f"{where}.class: unknown game class {cls!r}")
    codec = _CODECS[cls]
    required = tuple(name for name, _read in codec.fields) + ("class",)
    _object(obj, where, required, ("resolution",) if codec.resolution else ())
    fields = {name: read(obj[name], f"{where}.{name}") for name, read in codec.fields}
    if "resolution" in obj:
        fields["resolution"] = _num(obj["resolution"], f"{where}.resolution")
    return codec, fields


def _build_game(codec: _Codec, fields: Dict[str, Any], where: str, default_resolution) -> Game:
    if codec.resolution and "resolution" not in fields:
        if default_resolution is None or default_resolution <= 0:
            raise SchemaError(
                f"{where}: no menu resolution; give the game an explicit "
                "\"resolution\" or run with a positive eps (default is eps/2)"
            )
        fields["resolution"] = default_resolution
    try:
        return codec.build(fields)
    except GameError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dump_game(game: Game) -> dict:
    """Tagged payload for one couple game; read back by parse_instance."""
    codec = _CODECS.get(game.kind)
    if codec is None:
        raise SchemaError(f"cannot serialize game of kind {game.kind!r}")
    out = {"class": game.kind, **codec.dump(game)}
    if codec.resolution:
        out["resolution"] = _num_out(game.resolution)
    return out


def _integral(value: Any) -> bool:
    """Every number in a parsed field is an integer; a matrix read whole says so by its D."""
    if type(value) is _Matrix:
        return value.D == 1
    if type(value) is Fraction:
        return value.denominator == 1
    return all(x.denominator == 1 for row in value for x in row)


def _strings(value: Any, where: str) -> List[str]:
    return _each(value, where, _str)


def _names(value: Any, where: str) -> List[str]:
    names = _strings(value, where)
    if len(set(names)) != len(names):
        raise SchemaError(f"{where}: names must be distinct")
    if not names:
        raise SchemaError(f"{where}: must be nonempty")
    return names


def parse_instance(data: Any, eps=None) -> Tuple[Instance, Fraction]:
    """Parse an instance object; returns (instance, margin actually used).

    With eps omitted, an instance whose raw numbers are all integers
    defaults to eps = 1; anything else is rejected so the caller must
    choose.  Games without an explicit menu resolution get eps/2, or
    the top-level "menu_resolution" when present.
    """
    obj = _object(data, "instance", ("men", "women", "irp", "games"), ("menu_resolution",))
    men = _names(obj["men"], "instance.men")
    women = _names(obj["women"], "instance.women")
    if set(men) & set(women):
        raise SchemaError("instance: men and women must not share names")
    irp = _object(obj["irp"], "instance.irp", ("men", "women"))
    irp_men = _each(irp["men"], "instance.irp.men", _num)
    irp_women = _each(irp["women"], "instance.irp.women", _num)
    if len(irp_men) != len(men) or len(irp_women) != len(women):
        raise SchemaError("instance.irp: one reservation payoff per agent")

    games_obj = _dict(obj["games"], "instance.games")
    if set(games_obj) != set(men):
        raise SchemaError("instance.games: keys must be exactly the men")
    parsed: Dict[Tuple[int, int], Tuple[_Codec, Dict[str, Any], str]] = {}
    for i, m in enumerate(men):
        row = _dict(games_obj[m], f"instance.games[{m!r}]")
        if set(row) != set(women):
            raise SchemaError(f"instance.games[{m!r}]: keys must be exactly the women")
        for j, w in enumerate(women):
            where = f"instance.games[{m!r}][{w!r}]"
            codec, fields = _read_game(row[w], where)
            parsed[(i, j)] = (codec, fields, where)
    default_res = None
    if "menu_resolution" in obj:
        default_res = _num(obj["menu_resolution"], "instance.menu_resolution")

    if eps is not None:
        eps_used = rat(eps)
    elif (  # only the default margin needs every number read to be an integer
        all(map(_integral, irp_men + irp_women))
        and (default_res is None or _integral(default_res))
        and all(_integral(x) for _codec, fields, _where in parsed.values() for x in fields.values())
    ):
        eps_used = Fraction(1)
    else:
        raise SchemaError(
            "instance has non-integer payoffs, so there is no default margin; pass --eps"
        )
    if default_res is None and eps_used > 0:
        default_res = eps_used / 2

    games = {
        key: _build_game(codec, fields, where, default_res)
        for key, (codec, fields, where) in parsed.items()
    }
    return build_instance(men, women, irp_men, irp_women, games), eps_used


def load_instance_file(path: str, eps=None) -> Tuple[Instance, Fraction]:
    return parse_instance(load_json(path), eps=eps)


def dump_instance(inst: Instance) -> dict:
    return {
        "men": list(inst.men),
        "women": list(inst.women),
        "irp": {
            "men": [_num_out(x) for x in inst.irp_men],
            "women": [_num_out(x) for x in inst.irp_women],
        },
        "games": {
            m: {w: dump_game(inst.game(i, j)) for j, w in enumerate(inst.women)}
            for i, m in enumerate(inst.men)
        },
    }


def _strategy_out(desc: Any) -> Any:
    if isinstance(desc, bool):
        raise SchemaError(f"cannot serialize strategy descriptor {desc!r}")
    if isinstance(desc, int):
        return desc
    if isinstance(desc, Fraction):
        return _num_out(desc)
    if isinstance(desc, tuple) and len(desc) == 2:
        return [_num_out(rat(desc[0])), _num_out(rat(desc[1]))]
    raise SchemaError(f"cannot serialize strategy descriptor {desc!r}")


def dump_profile(inst: Instance, profile: MatchingProfile) -> dict:
    """Profile file payload: the matching plus each couple's contract.

    Synthesized contracts (off the menu grid, repeated games only) get
    a null id; everything else is identified by menu id.  Payoffs are
    always included so readers need not rebuild the instance.
    """
    matching = {
        m: (inst.women[profile.matches[i]] if profile.matches[i] is not SINGLE else None)
        for i, m in enumerate(inst.men)
    }
    contracts = {}
    for (i, j), c in sorted(profile.chosen.items()):
        contracts[inst.men[i]] = {
            "id": c.id if inst.game(i, j)._in_menu(c) else None,
            "strategy_a": _strategy_out(c.strategy_a),
            "strategy_b": _strategy_out(c.strategy_b),
            "u": _num_out(c.u),
            "v": _num_out(c.v),
        }
    return {"matching": matching, "contracts": contracts}


def _strategy_in(value: Any, where: str) -> Any:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: invalid strategy descriptor")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return _num(value, where)
    if isinstance(value, list) and len(value) == 2:
        return (_num(value[0], f"{where}[0]"), _num(value[1], f"{where}[1]"))
    raise SchemaError(f"{where}: invalid strategy descriptor {value!r}")


def parse_profile(inst: Instance, data: Any) -> MatchingProfile:
    """Rebuild a profile against its instance, cross-checking payoffs."""
    obj = _object(data, "profile", ("matching", "contracts"))
    matching = _dict(obj["matching"], "profile.matching")
    if set(matching) != set(inst.men):
        raise SchemaError("profile.matching: keys must be exactly the men")
    w_index = {w: j for j, w in enumerate(inst.women)}
    matches: List[Optional[int]] = []
    for m in inst.men:
        tgt = matching[m]
        if tgt is None:
            matches.append(None)
            continue
        tgt = _str(tgt, f"profile.matching[{m!r}]")
        if tgt not in w_index:
            raise SchemaError(f"profile.matching[{m!r}]: unknown woman {tgt!r}")
        matches.append(w_index[tgt])

    contracts_obj = _dict(obj["contracts"], "profile.contracts")
    expected = {inst.men[i] for i, j in enumerate(matches) if j is not None}
    if set(contracts_obj) != expected:
        raise SchemaError("profile.contracts: keys must be exactly the matched men")
    chosen = {}
    for i, j in enumerate(matches):
        if j is None:
            continue
        m = inst.men[i]
        where = f"profile.contracts[{m!r}]"
        entry = _object(contracts_obj[m], where, ("id", "strategy_a", "strategy_b", "u", "v"))
        game = inst.game(i, j)
        u = _num(entry["u"], f"{where}.u")
        v = _num(entry["v"], f"{where}.v")
        if entry["id"] is not None:
            if isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
                raise SchemaError(f"{where}.id: expected an integer or null")
            try:
                contract = game.contract(entry["id"])
            except GameError as exc:
                raise SchemaError(f"{where}.id: {exc}") from exc
        else:
            if game.kind != "repeated":
                raise SchemaError(f"{where}: null id is only valid for repeated games")
            try:
                contract = game.synthesize_contract((u, v))
            except GameError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
        if (contract.u, contract.v) != (u, v):
            raise SchemaError(
                f"{where}: stored payoffs ({fmt(u)},{fmt(v)}) disagree with "
                f"contract {contract.id} ({fmt(contract.u)},{fmt(contract.v)})"
            )
        a = _strategy_in(entry["strategy_a"], f"{where}.strategy_a")
        b = _strategy_in(entry["strategy_b"], f"{where}.strategy_b")
        if (a, b) != (contract.strategy_a, contract.strategy_b):
            raise SchemaError(f"{where}: strategy descriptors disagree with the contract")
        chosen[(i, j)] = contract
    return MatchingProfile(matches=tuple(matches), chosen=chosen)


def load_profile_file(inst: Instance, path: str) -> MatchingProfile:
    return parse_profile(inst, load_json(path))


def _node_id(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected a node id")
    return value


def parse_tree(data: Any) -> GameTree:
    """Game tree file: players, nodes keyed by integer id, optional root."""
    obj = _object(data, "tree", ("players", "nodes"), ("root",))
    players = _names(obj["players"], "tree.players")
    nodes_obj = _dict(obj["nodes"], "tree.nodes")
    nodes: Dict[int, TreeNode] = {}
    player_index = {p: k for k, p in enumerate(players)}
    for key, payload in nodes_obj.items():
        try:
            nid = int(key)
        except ValueError:
            raise SchemaError(f"tree.nodes: node ids are integers, got {key!r}") from None
        if nid in nodes:  # "1" and "01" name one node
            first = next(k for k in nodes_obj if int(k) == nid)
            raise SchemaError(f"tree.nodes: keys {first!r} and {key!r} name the same node {nid}")
        where = f"tree.nodes[{key!r}]"
        node = _dict(payload, where)
        if "payoffs" in node:
            _object(node, where, ("payoffs",))
            nodes[nid] = TerminalNode(payoffs=tuple(_each(node["payoffs"], f"{where}.payoffs", _num)))
        else:
            _object(node, where, ("player", "children"))
            raw_player = node["player"]
            if isinstance(raw_player, str):
                if raw_player not in player_index:
                    raise SchemaError(f"{where}.player: unknown player {raw_player!r}")
                player = player_index[raw_player]
            elif isinstance(raw_player, int) and not isinstance(raw_player, bool):
                player = raw_player
            else:
                raise SchemaError(f"{where}.player: expected a player name or index")
            children = tuple(_each(node["children"], f"{where}.children", _node_id))
            nodes[nid] = InternalNode(player=player, children=children)
    root = _node_id(obj.get("root", 0), "tree.root")
    try:
        return GameTree(players=players, nodes=nodes, root=root)
    except TreeError as exc:
        raise SchemaError(f"tree: {exc}") from exc


def load_tree_file(path: str) -> GameTree:
    return parse_tree(load_json(path))


def _grid_in(value: Any, where: str) -> Tuple[Fraction, Fraction, Fraction]:
    return _fixed(value, where, _num, 3, "expected [min, max, step]")


def _mapping(leaf: Reader, depth: int = 1) -> Reader:
    """Reader of an object keyed by names, nested depth deep, whose leaves leaf reads."""
    inner = leaf if depth == 1 else _mapping(leaf, depth - 1)
    return lambda value, where: {
        _str(k, f"{where} key"): inner(v, f"{where}[{k!r}]") for k, v in _dict(value, where).items()
    }


# Each model kind: its adapter and the adapter's fields, in argument order, with their readers.
MODELS: Dict[str, Tuple[Callable[..., Instance], Tuple[Tuple[str, Reader], ...]]] = {
    "ordinal": (adapters.from_ordinal, (("men", _mapping(_strings)), ("women", _mapping(_strings)))),
    "shapley_shubik": (
        adapters.from_shapley_shubik,
        (("costs", _mapping(_num)), ("valuations", _mapping(_num, 2)), ("price_grid", _grid_in)),
    ),
    "gale_demange": (
        adapters.from_gale_demange,
        (("f", _mapping(_breakpoints, 2)), ("h", _mapping(_breakpoints, 2)), ("transfer_grid", _grid_in)),
    ),
    "contracts": (
        adapters.from_hatfield_milgrom,
        (
            ("contracts", _names),
            ("relations", _mapping(lambda v, at: _fixed(v, at, _str, 2, "expected [man, woman]"))),
            ("prefs", _mapping(_strings)),
        ),
    ),
}


def parse_model(data: Any, kind: str) -> Instance:
    """Build an instance from a classical-model file of the given kind."""
    if kind not in MODELS:
        raise SchemaError(f"unknown model kind {kind!r}")
    build, fields = MODELS[kind]
    obj = _dict(data, "model")
    if "model" in obj and obj["model"] != kind:
        raise SchemaError(f"model file is tagged {obj['model']!r}, not {kind!r}")
    _object(obj, "model", tuple(name for name, _read in fields), ("model",))
    args = [read(obj[name], f"model.{name}") for name, read in fields]
    try:
        return build(*args)
    except GameError as exc:
        raise SchemaError(f"model: {exc}") from exc


def load_model_file(path: str, kind: str) -> Instance:
    return parse_model(load_json(path), kind)
