"""Command-line front end.

Subcommands mirror the library: solve-external (propose-dispose),
solve-stable (propose-dispose then refinement), verify, enumerate,
join, spe, and adapt.  Exit codes: 0 on success (including a verifier
reporting holds=false), 1 when stdout's reader has gone (a closed pipe;
no traceback), 2 on validation problems, 3 when a solver reports
Infeasible or PassLimit or the oracle refuses its cap.

All output is deterministic: identical inputs and flags give
byte-identical stdout, with rationals in canonical lowest terms.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .cne import CnePolicy
from .extensive import constrained_spe, play
from .games import Instance, Side
from .lattice import join as lattice_join
from .oracle import OracleCapError, enumerate_stable
from .propose import run_propose_dispose
from .rational import digits_past_limit, fmt, rat
from .refine import RefineStatus, refine
from .serde import (
    MODELS,
    SchemaError,
    dump_instance,
    dump_json,
    dump_profile,
    load_instance_file,
    load_model_file,
    load_profile_file,
    load_tree_file,
)
from .stability import (
    BlockingPair,
    DeviationWitness,
    StabilityReport,
    is_externally_stable,
    is_internally_stable,
    is_nash_stable,
    is_stable_variant,
)

def _render_report(inst: Instance, report: StabilityReport) -> List[str]:
    head = f"{report.notion}: holds={'true' if report.holds else 'false'}"
    if report.eps is not None:
        head += f" eps={fmt(report.eps)}"
    lines = [head]
    w = report.witness
    if isinstance(w, BlockingPair):
        man = inst.men[w.man] if w.man is not None else "-"
        woman = inst.women[w.woman] if w.woman is not None else "-"
        if w.contract is None:
            lines.append(f"witness kind=reservation man={man} woman={woman}")
        else:
            lines.append(
                f"witness kind=blocking man={man} woman={woman} "
                f"contract={w.contract.id} u={fmt(w.contract.u)} v={fmt(w.contract.v)}"
            )
    elif isinstance(w, DeviationWitness):
        lines.append(
            f"witness kind=deviation man={inst.men[w.man]} woman={inst.women[w.woman]} "
            f"side={'man' if w.side is Side.MAN else 'woman'} "
            f"from={w.from_contract.id} to={w.to_contract.id} "
            f"u={fmt(w.to_contract.u)} v={fmt(w.to_contract.v)}"
        )
    return lines


def _emit_profile(inst: Instance, profile, out: Optional[str]) -> None:
    payload = dump_profile(inst, profile)
    if out:  # first, so a file that cannot be written leaves stdout empty
        dump_json(out, payload)
    print(json.dumps(payload, indent=2))


def _write_trace(path: str, lines: List[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _cmd_solve_external(args) -> int:
    inst, eps = load_instance_file(args.file, eps=args.eps)
    if eps <= 0:
        raise SchemaError("solve-external needs a positive --eps")
    side = Side.MAN if args.side == "men" else Side.WOMAN
    profile, state = run_propose_dispose(inst, eps, side)
    limit = digits_past_limit(state.iteration_bound)
    if limit:
        raise SchemaError(f"--eps is too small: the iteration bound has more than {limit} digits to print")
    if args.trace:
        _write_trace(args.trace, state.trace)
    _emit_profile(inst, profile, args.out)
    print(f"iterations={state.iterations} bound={state.iteration_bound}")
    for line in _render_report(inst, is_externally_stable(inst, profile, eps)):
        print(line)
    return 0


# --policy names mapped to refine's per-game-class policies; games of
# other classes keep the automatic dispatch.
_POLICY_NAMES = {"auto": None, "max-potential": {"potential": CnePolicy.MAX_POTENTIAL}}


def _cmd_solve_stable(args) -> int:
    inst, eps = load_instance_file(args.file, eps=args.eps)
    if eps <= 0:
        raise SchemaError("solve-stable needs a positive --eps")
    profile, _state = run_propose_dispose(inst, eps, Side.MAN)
    result = refine(inst, profile, eps, policies=_POLICY_NAMES[args.policy], max_passes=args.max_passes)
    _emit_profile(inst, result.profile, args.out)
    line = f"status={result.status.value} passes={result.passes}"
    if result.failed_couple is not None:
        i, j = result.failed_couple
        line += f" couple={inst.men[i]},{inst.women[j]}"
    print(line)
    for text in _render_report(inst, is_externally_stable(inst, result.profile, eps)):
        print(text)
    if result.status is RefineStatus.CONVERGED:
        for text in _render_report(inst, is_internally_stable(inst, result.profile, eps)):
            print(text)
        return 0
    return 3


def _nonnegative_eps(args) -> None:
    """Refuse a negative --eps by its flag, before the instance is read."""
    if args.eps is not None and args.eps < 0:
        raise SchemaError(f"{args.command} needs a nonnegative --eps")


def _cmd_verify(args) -> int:
    _nonnegative_eps(args)
    inst, eps = load_instance_file(args.file, eps=args.eps)
    profile = load_profile_file(inst, args.profile)
    if args.notion == "ext":
        report = is_externally_stable(inst, profile, eps)
    elif args.notion == "int":
        report = is_internally_stable(inst, profile, eps)
    elif args.notion == "nash":
        report = is_nash_stable(inst, profile)
    elif args.notion == "weak":
        report = is_stable_variant(inst, profile, "weak")
    else:
        report = is_stable_variant(inst, profile, "unilateral")
    for line in _render_report(inst, report):
        print(line)
    return 0


def _cmd_enumerate(args) -> int:
    _nonnegative_eps(args)
    inst, eps = load_instance_file(args.file, eps=args.eps)
    notion = "external" if args.notion == "ext" else "internal"
    count = 0
    for profile in enumerate_stable(inst, eps, notion, cap=args.cap):
        print(json.dumps(dump_profile(inst, profile), separators=(",", ":")))
        count += 1
    print(f"count={count}")
    return 0


def _cmd_join(args) -> int:
    _nonnegative_eps(args)
    inst, eps = load_instance_file(args.file, eps=args.eps)
    margin = 0 if args.eps is None else eps
    p1 = load_profile_file(inst, args.a)
    p2 = load_profile_file(inst, args.b)
    side = Side.MAN if args.side == "men" else Side.WOMAN
    joined = lattice_join(inst, p1, p2, side, margin)
    _emit_profile(inst, joined, args.out)
    for line in _render_report(inst, is_externally_stable(inst, joined, margin)):
        print(line)
    return 0


def _cmd_spe(args) -> int:
    tree = load_tree_file(args.tree)
    outs = [rat(x) for x in args.outs]
    choices = constrained_spe(tree, outs)
    if choices is None:
        print("admissible=false")
        return 0
    print("admissible=true")
    for nid in sorted(choices):
        print(f"choose node={nid} child={choices[nid]}")
    outcome = play(tree, choices)
    print("outcome=" + ",".join(fmt(x) for x in outcome))
    return 0


def _cmd_adapt(args) -> int:
    inst = load_model_file(args.model_file, args.kind.replace("-", "_"))
    dump_json(args.out, dump_instance(inst))
    print(f"wrote {args.out}")
    return 0


@functools.cache  # one parser per process; each parse still makes a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchgames",
        description="Solvers and checkers for two-sided matching games.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def eps_arg(p, required=False):
        p.add_argument(
            "--eps",
            type=rat,
            default=None,
            required=required,
            help="stability margin, a rational like 1/2 (default 1 on all-integer instances)",
        )

    p = sub.add_parser("solve-external", help="propose-dispose solver")
    p.add_argument("file", help="instance file")
    eps_arg(p)
    p.add_argument("--side", choices=["men", "women"], default="men")
    p.add_argument("--trace", default=None, help="write the run trace to this file")
    p.add_argument("-o", "--out", default=None, help="also write the profile to this file")
    p.set_defaults(func=_cmd_solve_external)

    p = sub.add_parser("solve-stable", help="propose-dispose, then in-couple refinement")
    p.add_argument("file")
    eps_arg(p)
    p.add_argument("--policy", choices=list(_POLICY_NAMES), default="auto")
    p.add_argument("--max-passes", type=int, default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_solve_stable)

    p = sub.add_parser("verify", help="check a profile against a stability notion")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.add_argument("--notion", choices=["ext", "int", "weak", "uni", "nash"], required=True)
    eps_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="brute-force enumeration of stable profiles")
    p.add_argument("file")
    eps_arg(p)
    p.add_argument("--notion", choices=["ext", "int"], default="ext")
    p.add_argument("--cap", type=int, default=10**7)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("join", help="side-optimal join of two stable profiles")
    p.add_argument("file")
    p.add_argument("--a", required=True, help="first profile file")
    p.add_argument("--b", required=True, help="second profile file")
    eps_arg(p)
    p.add_argument("--side", choices=["men", "women"], default="men")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("spe", help="constrained subgame-perfect equilibrium of a tree")
    p.add_argument("tree", help="game tree file")
    p.add_argument("--outs", nargs="+", required=True, help="outside options, one per player")
    p.set_defaults(func=_cmd_spe)

    p = sub.add_parser("adapt", help="build an instance file from a classical model")
    p.add_argument("kind", choices=sorted(kind.replace("_", "-") for kind in MODELS))
    p.add_argument("model_file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_adapt)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest, not at interpreter exit
        return code
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # SchemaError, GameError, MatchingError and TreeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout's descriptor at devnull
        # so the interpreter's own flush at exit cannot fail again, and exit 1
        # as Python does on EPIPE (the recipe in the ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
