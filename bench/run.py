#!/usr/bin/env python3
"""Seeded benchmark for matchgames: per-market latency end to end, time per layer.

Run one workload (the last stdout line is a JSON summary):

    python3 bench/run.py --workload wide-matrix --seed 0 --seconds 15 --trace 0

``--workload all`` runs every workload in its own process, ``--runs K``
repeats each with seeds seed .. seed+K-1, ``--out FILE`` appends one
JSON record per run, and ``--compare A B`` prints, per workload, how two
such files differ against the bounds in BENCHMARK.json.
``--record-digests`` rewrites the stored stdout digests and exact counts
for the default seed.

One op takes one market through the workload's pipeline, in this
process and on one thread.  The CLI workloads call
``matchgames.cli.main`` with stdout captured; oracle-crosscheck calls
the solvers and the brute-force oracle.  The timed loop cycles through
the seeded pool of markets until ``--seconds`` have passed and every
market has run at least once.  A fixed calibration loop runs before
every op, and every time is rescaled to the nominal machine speed that
the neighbouring samples measure, because the shared machine's speed
drifts by tens of percent.
Every op's output is checked: the first
output of each market by an independent stability check (verify.py)
and, for the default seed, against the stored SHA-256; every later
output of that market must be byte-identical to the first.

With ``--trace 1`` the run measures half its time untraced and half with
spans around the calls between modules (spans.py), and reports per-layer
metrics plus the tracing overhead.  Each market must give exactly the
same counts every time it runs traced, and for the default seed the
counts stored with the benchmark.  The spans are written to
``.benchmarks/spans-<workload>-<seed>.jsonl.gz`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
RECOUNT = 4  # markets run a second time traced, to check their counts repeat
# Times are rescaled to a fixed machine speed: calibration_work() took
# NOMINAL_CALIBRATION_S on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7, idle).  An op or a set-up is scaled by that over the
# median of the CALIBRATION_WINDOW samples before it and as many after it.
NOMINAL_CALIBRATION_S = 0.0014
CALIBRATION_WINDOW = 5
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".benchmarks"
# Counts that must repeat exactly for the same seed and code; for the
# default seed they are stored per market in digests.json.
EXACT_COUNTS = (
    "propose.iterations",
    "propose.competes",
    "stability.blocking_calls",
    "refine.replacements",
    "games.menu_contracts",
    "oracle.profiles",
)
# The tail is one fixed percentile, so every run reports the same
# statistic: the highest of p99, p95 and p90 that leaves at least ten
# distinct markets beyond it in every workload's pool (the smallest pool
# has 100 markets).
TAIL_PERCENTILE = 90.0

E2E_UNITS = {
    "market_s_p50": "s",
    "market_s_tail": "s",
    "markets_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Layer self times (their sum is op.traced_s), counts and ratios.
LAYER_UNITS = {
    "serde.load_s": "s",
    "serde.parse_self_s": "s",
    "serde.numbers": "count",
    "games.build_s": "s",
    "games.menu_contracts": "count",
    "games.menu_max": "count",
    "propose.run_s": "s",
    "propose.iterations": "count",
    "propose.competes": "count",
    "propose.bound_use": "ratio",
    "stability.blocking_s": "s",
    "stability.blocking_calls": "count",
    "stability.external_self_s": "s",
    "stability.internal_self_s": "s",
    "stability.internal_deviations": "count",
    "cne.outside_options_s": "s",
    "cne.outside_options_calls": "count",
    "refine.self_s": "s",
    "refine.passes": "count",
    "refine.visits": "count",
    "refine.replacements": "count",
    "refine.replace_ratio": "ratio",
    "refine.converged_share": "ratio",
    "oracle.self_s": "s",
    "oracle.profiles": "count",
    "oracle.stable_external": "count",
    "oracle.stable_internal": "count",
    "oracle.yield": "ratio",
    "cli.self_s": "s",
    "op.self_s": "s",
    "op.traced_s": "s",
    "trace.overhead_share": "ratio",
}
# Span name whose self time each time metric reports.
SELF_TIME_SPANS = {
    "serde.load_s": "serde.load",
    "serde.parse_self_s": "serde.parse",
    "games.build_s": "games.build",
    "propose.run_s": "propose.run",
    "stability.blocking_s": "stability.blocking",
    "stability.external_self_s": "stability.external",
    "stability.internal_self_s": "stability.internal",
    "cne.outside_options_s": "cne.outside_options",
    "refine.self_s": "refine.refine",
    "oracle.self_s": "oracle.enumerate",
    "cli.self_s": "cli",
    "op.self_s": "op",
}


class ProgramMissing(Exception):
    """The checkout has no matchgames sources to benchmark."""


def import_program() -> SimpleNamespace:
    """Import matchgames afresh from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "matchgames" / "__init__.py").is_file():
        raise ProgramMissing(f"no matchgames package under {src}")
    for name in [n for n in sys.modules if n == "matchgames" or n.startswith("matchgames.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module("matchgames")
    if Path(package.__file__).resolve().parent != (src / "matchgames").resolve():
        raise ProgramMissing(f"matchgames was imported from {package.__file__}, not {src}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"matchgames.{m}") for m in ("cli", "games", "oracle", "propose", "refine", "serde")}
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliWorkload:
    """Markets written to files and solved by ``matchgames.cli.main``."""

    def __init__(self, name: str, mods: SimpleNamespace, pool: List[gen.Market], workdir: Path):
        spec = gen.WORKLOADS[name]
        self.mods, self.pool, self.eps = mods, pool, spec["eps"]
        self.command = spec["argv"][0]
        self.argvs = []
        for market in pool:
            path = workdir / f"{market.name}.json"
            path.write_bytes(gen.encode(market.payload))
            self.argvs.append([self.command, str(path)] + spec["argv"][1:])

    def op(self, k: int, tracer: Optional[spans.Tracer]):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin("cli") if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.mods.cli.main(self.argvs[k])
        finally:
            if span:
                tracer.end(span)
        return code, out.getvalue()

    def render(self, k: int, result) -> str:
        code, stdout = result
        return f"{stdout}exit={code}\n"

    def check(self, k: int, result):
        code, stdout = result
        return verify.check_cli_output(self.pool[k].payload, self.eps, self.command, code, stdout)

    def static_counts(self, k: int) -> Dict[str, int]:
        return {}


def _profile_key(profile):
    return (profile.matches, tuple(sorted((ij, c.id) for ij, c in profile.chosen.items())))


class OracleWorkload:
    """Tiny markets: both proposing sides, refinement, and the brute-force oracle."""

    def __init__(self, name: str, mods: SimpleNamespace, pool: List[gen.Market], workdir: Path):
        self.mods, self.pool, self.eps = mods, pool, gen.WORKLOADS[name]["eps"]
        self.instances = [mods.serde.parse_instance(m.payload, eps=self.eps)[0] for m in pool]

    def op(self, k: int, tracer: Optional[spans.Tracer]):
        span = tracer.begin("op") if tracer else None
        try:
            return self._op(k)
        finally:
            if span:
                tracer.end(span)

    def _op(self, k: int):
        m, inst, eps = self.mods, self.instances[k], self.eps
        men, women = m.games.Side.MAN, m.games.Side.WOMAN
        proposed = [
            m.propose.run_propose_dispose(inst, eps, men)[0],
            m.propose.run_propose_dispose(inst, eps, women)[0],
        ]
        refined = [m.refine.refine(inst, p, eps) for p in proposed]
        external = {_profile_key(p) for p in m.oracle.enumerate_stable(inst, eps, "external")}
        internal = {_profile_key(p) for p in m.oracle.enumerate_stable(inst, eps, "internal")}
        problems = [f"proposed profile {n} is not in the oracle's external set"
                    for n, p in enumerate(proposed) if _profile_key(p) not in external]
        for n, r in enumerate(refined):
            if any(c.id >= len(inst.game(i, j).menu()) for (i, j), c in r.profile.chosen.items()):
                continue  # a synthesized hull point lies outside the oracle's menus
            key = _profile_key(r.profile)
            if key not in external:
                problems.append(f"refined profile {n} is not in the oracle's external set")
            if r.status.value == "Converged" and key not in internal:
                problems.append(f"converged profile {n} is not in the oracle's internal set")
        return proposed, refined, len(external), len(internal), problems

    def render(self, k: int, result) -> str:
        proposed, refined, n_ext, n_int, problems = result
        inst, dump = self.instances[k], self.mods.serde.dump_profile
        lines = [json.dumps(dump(inst, p)) for p in proposed + [r.profile for r in refined]]
        lines.append(f"status={','.join(r.status.value for r in refined)} external={n_ext} internal={n_int}")
        lines += problems
        return "\n".join(lines) + "\n"

    def check(self, k: int, result):
        proposed, refined, _n_ext, _n_int, problems = result
        status = ",".join(r.status.value for r in refined)
        if problems:
            return problems[0], status
        dump = self.mods.serde.dump_profile
        for p in proposed + [r.profile for r in refined]:
            problem = verify.check_profile(self.pool[k].payload, self.eps, dump(self.instances[k], p))
            if problem:
                return problem, status
        return None, status

    def static_counts(self, k: int) -> Dict[str, int]:
        # Games are built in set-up here, so the menus are counted from the instance.
        sizes = [len(g.menu()) for g in self.instances[k].games.values()]
        return {"games.menu_contracts": sum(sizes), "games.menu_max": max(sizes)}


def make_workload(name: str, mods, pool, workdir):
    kind = OracleWorkload if gen.WORKLOADS[name]["argv"] is None else CliWorkload
    return kind(name, mods, pool, workdir)


class Ledger:
    """Every op's outcome, with the first output of each market as reference.

    Outputs are only compared while the clock runs; ``finish`` checks each
    market's first output afterwards, and a market that fails the check
    fails every op it ran.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first: Dict[int, tuple] = {}  # market -> (rendered output, result)
        self.ok_ops: Dict[int, int] = {}
        self.attempted = 0
        self.failed_ops = 0
        self.failures: List[str] = []
        self.bad_markets: set = set()
        self.statuses: Dict[str, int] = {}

    def record(self, k: int, result, error: Optional[str]) -> bool:
        """Count one op; returns whether its output matched the market's first."""
        self.attempted += 1
        if error is None:
            text = self.workload.render(k, result)
            if k not in self.first:
                self.first[k] = (text, result)
            elif text != self.first[k][0]:
                error = "output differs from this market's first output"
        if error is not None:
            self.failed_ops += 1
            self.failures.append(f"{self.workload.pool[k].name}: {error}")
            return False
        self.ok_ops[k] = self.ok_ops.get(k, 0) + 1
        return True

    def fail_market(self, k: int, problem: str) -> None:
        """Fail every op of market k that has not failed already."""
        self.failures.append(f"{self.workload.pool[k].name}: {problem}")
        if k not in self.bad_markets:
            self.bad_markets.add(k)
            self.failed_ops += self.ok_ops.get(k, 0)

    def finish(self) -> None:
        for k in sorted(self.first):
            problem, status = self.workload.check(k, self.first[k][1])
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if problem is not None:
                self.fail_market(k, problem)

    def digests(self) -> dict:
        """SHA-256 of each market's first output; a market without one (all
        its ops raised, so it has failed already) counts as empty output."""
        texts = [self.first[k][0] if k in self.first else "" for k in range(len(self.workload.pool))]
        return {"digest": sha256("".join(texts)), "markets": [sha256(t) for t in texts]}


def calibration_work() -> Fraction:
    """Fixed pure-Python work with the program's hot-path mix: Fraction arithmetic and comparisons."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        if total > 1000:
            total -= 999
    return total


def calibrate() -> float:
    """Time one calibration_work(), with the cyclic collector held off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factor(window: List[float]) -> float:
    """Nominal calibration time over the median of a window of samples."""
    return NOMINAL_CALIBRATION_S / statistics.median(window)


def speed_factors(samples: List[float]) -> List[float]:
    """Per op: speed_factor of the CALIBRATION_WINDOW samples before it and as many after it.

    ``samples[k]`` runs just before op k and ``samples[k + 1]`` just after
    it, so there is one sample more than ops.  A median over neighbours
    follows the machine's drift, and one stalled sample cannot move it.
    """
    w = CALIBRATION_WINDOW
    return [speed_factor(samples[max(0, k + 1 - w):k + 1 + w]) for k in range(len(samples) - 1)]


def run_op(workload, k: int, tracer=None):
    """One op as (result, error); a crash of the program is a failed op, not a crashed run."""
    try:
        return workload.op(k, tracer), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def measure(workload, ledger: Ledger, seconds: float, tracer=None, min_ops: int = 1):
    """Closed loop over the pool, in order, until time is up and min_ops ops are done.

    A calibration sample runs before every op, and one after the last, and
    is not timed with it.  ``times`` and ``slots`` (an op plus the
    bookkeeping after it) are rescaled to the nominal machine speed by
    speed_factors(); ``raw`` keeps the plain wall times.  With a tracer,
    ``log`` holds every traced op's spans.
    """
    pool_size = len(workload.pool)
    raw, slots, samples, passed, summaries = [], [], [], [], []
    log = spans.SpanLog() if tracer is not None else None
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n < min_ops or time.perf_counter() < deadline:
        if n:
            slots.append(time.perf_counter_ns() - t0)
        samples.append(calibrate())
        k = n % pool_size
        n += 1
        t0 = time.perf_counter_ns()
        result, error = run_op(workload, k, tracer)
        t1 = time.perf_counter_ns()
        raw.append((t1 - t0) / 1e9)
        if tracer is not None:
            op_spans = tracer.take_op()
            log.extend(op_spans)
            if error is None:
                spans.annotate(op_spans)
                summary = spans.op_summary(op_spans)
                summary["op"] = n - 1
                summaries.append((k, summary))
        if ledger.record(k, result, error):
            passed.append(n - 1)
    slots.append(time.perf_counter_ns() - t0)
    samples.append(calibrate())
    factors = speed_factors(samples)
    for _, summary in summaries:
        summary["factor"] = factors[summary["op"]]
    return SimpleNamespace(
        raw=raw,
        times=[t * f for t, f in zip(raw, factors)],
        slots=[ns / 1e9 * f for ns, f in zip(slots, factors)],
        raw_slots_s=sum(slots) / 1e9,
        factors=factors,
        passed=passed,
        ks=[n % pool_size for n in range(len(raw))],
        summaries=summaries,
        log=log,
    )


def tail(times: List[float]) -> float:
    """Wall time at TAIL_PERCENTILE over all ops (nearest rank)."""
    ordered = sorted(times)
    return ordered[max(math.ceil(TAIL_PERCENTILE / 100 * len(ordered)), 1) - 1]


def market_counts(workload, k: int, summary: dict) -> Dict[str, int]:
    """All counts of one traced op of market k."""
    counts = dict(summary["counts"])
    for key, value in workload.static_counts(k).items():
        counts[key] = counts[key] or value
    counts["stability.blocking_calls"] = summary["layers"].get("stability.blocking", {}).get("calls", 0)
    counts["cne.outside_options_calls"] = summary["layers"].get("cne.outside_options", {}).get("calls", 0)
    return counts


def first_counts(workload, summaries) -> Dict[int, Dict[str, int]]:
    """Counts of each market's first traced op."""
    first: Dict[int, Dict[str, int]] = {}
    for k, s in summaries:
        if k not in first:
            first[k] = market_counts(workload, k, s)
    return first


def overhead_share(untraced, traced) -> float:
    """Tracing overhead on the same markets: the median over markets that ran in
    both halves of (median traced time ÷ median untraced time), minus one."""
    by_market = ({}, {})
    for half, run in zip(by_market, (untraced, traced)):
        for n, t in enumerate(run.times):
            half.setdefault(run.ks[n], []).append(t)
    plain, wrapped = by_market
    ratios = [statistics.median(wrapped[k]) / statistics.median(plain[k]) for k in plain if k in wrapped]
    return statistics.median(ratios) - 1


def layer_metrics(workload, summaries, overhead: float):
    """Per-layer metrics from the traced phase: times are means per op, counts come
    from the first traced run of each market, so they are exact for the seed."""
    n_ops = len(summaries) or 1  # every traced op may have raised
    metrics = {}
    for metric, span_name in SELF_TIME_SPANS.items():
        total = sum(s["layers"].get(span_name, {}).get("self_ns", 0) * s["factor"] for _, s in summaries)
        metrics[metric] = total / n_ops / 1e9
    metrics["op.traced_s"] = sum(s["total_ns"] * s["factor"] for _, s in summaries) / n_ops / 1e9

    first = first_counts(workload, summaries)
    totals: Dict[str, int] = defaultdict(int)
    for k in sorted(first):
        for key, value in first[k].items():
            if key == "games.menu_max":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    n_markets = len(first) or 1
    for key in (
        "games.menu_contracts",
        "propose.iterations",
        "propose.competes",
        "stability.blocking_calls",
        "stability.internal_deviations",
        "cne.outside_options_calls",
        "refine.passes",
        "refine.visits",
        "refine.replacements",
        "oracle.profiles",
        "oracle.stable_external",
        "oracle.stable_internal",
    ):
        metrics[key] = totals[key] / n_markets
    metrics["games.menu_max"] = totals["games.menu_max"]
    metrics["serde.numbers"] = statistics.fmean(m.numbers for m in workload.pool)

    def ratio(a: str, b: str) -> float:
        return totals[a] / totals[b] if totals[b] else 0.0

    metrics["propose.bound_use"] = ratio("propose.iterations", "propose.bound")
    metrics["refine.replace_ratio"] = ratio("refine.replacements", "refine.visits")
    metrics["refine.converged_share"] = ratio("refine.converged", "refine.calls")
    totals["oracle.stable"] = totals["oracle.stable_external"] + totals["oracle.stable_internal"]
    metrics["oracle.yield"] = ratio("oracle.stable", "oracle.profiles")
    metrics["trace.overhead_share"] = overhead
    return {name: metrics[name] for name in LAYER_UNITS}, dict(totals)


def count_mismatches(summaries) -> List[tuple]:
    """(market, problem) for each market whose counts differ between two of its traced ops."""
    first: Dict[int, tuple] = {}
    out = []
    for k, s in summaries:
        calls = {name: layer["calls"] for name, layer in s["layers"].items()}
        key = (s["counts"], calls)
        if k not in first:
            first[k] = key
        elif first[k] != key:
            out.append((k, f"counts {key} differ from {first[k]}"))
    return out


def stored_count_mismatches(first: Dict[int, Dict[str, int]], stored: List[List[int]]) -> List[tuple]:
    """(market, problem) for each market whose EXACT_COUNTS differ from the stored ones."""
    out = []
    for k, counts in sorted(first.items()):
        got = [counts[key] for key in EXACT_COUNTS]
        if got != stored[k]:
            diff = {key: (want, g) for key, want, g in zip(EXACT_COUNTS, stored[k], got) if want != g}
            out.append((k, f"exact counts differ from the stored ones (stored, got): {diff}"))
    return out


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory for the written inputs, removed with its parent when empty."""
    path = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def setup(name: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, and run one untimed warm-up op.

    Returns the workload and the warm-up's (result, error).
    """
    mods = import_program()
    pool = gen.build(name, seed)
    workload = make_workload(name, mods, pool, workdir)
    return workload, run_op(workload, 0)


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    try:
        with scratch_dir(name) as workdir:
            setup_raw, setup_times = [], []
            for _ in range(SETUP_REPEATS):
                workload = None  # the previous set-up's pool is garbage before the next one is timed
                gc.collect()
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                samples = [calibrate() for _ in range(CALIBRATION_WINDOW)]
                t0 = time.perf_counter()
                workload, warm_up = setup(name, seed, workdir)
                setup_raw.append(time.perf_counter() - t0)
                samples += [calibrate() for _ in range(CALIBRATION_WINDOW)]
                setup_times.append(setup_raw[-1] * speed_factor(samples))
            # A CLI process holds one market, not a pool of them: keep the
            # pool out of the cyclic collector's scans, or its pauses would
            # land at random inside ops.
            gc.collect()
            gc.freeze()
            ledger = Ledger(workload)
            ledger.record(0, *warm_up)  # the last set-up's warm-up op is checked like the timed ones
            if args.trace:
                # The traced half covers the whole pool, for exact per-market
                # counts, and then runs the first markets again to recount them.
                untraced = measure(workload, ledger, args.seconds / 2)
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    traced = measure(workload, ledger, args.seconds / 2, tracer, len(workload.pool) + RECOUNT)
                timed = untraced
            else:
                timed = measure(workload, ledger, args.seconds, min_ops=len(workload.pool))
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    ledger.finish()
    check_s = time.perf_counter() - t0
    digests = ledger.digests()
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = stored.get("workloads", {}).get(name) if seed == stored.get("seed") else None
    if expected is not None:
        for k, (want, got) in enumerate(zip(expected["markets"], digests["markets"])):
            if want != got and k in ledger.first:
                ledger.fail_market(k, "stdout digest differs from the stored one")
    if args.trace:
        for k, s in traced.summaries:
            if s["self_sum_ns"] != s["total_ns"]:
                ledger.fail_market(k, "layer self times do not add up to the op")
        mismatches = count_mismatches(traced.summaries)
        if expected is not None:
            mismatches += stored_count_mismatches(first_counts(workload, traced.summaries), expected["counts"])
        for k, problem in mismatches:
            ledger.fail_market(k, problem)
        spans_file = SPANS_DIR / f"spans-{name}-{seed}.jsonl.gz"
        SPANS_DIR.mkdir(exist_ok=True)
        traced.log.write(spans_file)
    verified = [n for n in timed.passed if timed.ks[n] not in ledger.bad_markets]
    failed = ledger.failed_ops
    correct = failed == 0

    p50 = statistics.median(timed.times)
    tail_value = tail(timed.times)
    e2e = {
        "market_s_p50": p50,
        "market_s_tail": tail_value,
        "markets_per_s": len(verified) / sum(timed.slots),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    # The same figures in plain wall time, before rescaling to the nominal speed.
    wall = {
        "market_s_p50": statistics.median(timed.raw),
        "market_s_tail": tail(timed.raw),
        "markets_per_s": len(verified) / timed.raw_slots_s,
        "setup_s": statistics.median(setup_raw),
        "speed_factor": statistics.median(timed.factors),
    }
    if args.trace:
        values, totals = layer_metrics(workload, traced.summaries, overhead_share(untraced, traced))
        units = LAYER_UNITS
    else:
        values, totals, units = e2e, None, E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "pool": len(workload.pool),
        "ops": len(timed.times),
        "ops_traced": len(traced.times) if args.trace else 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "fail_ratio": failed / ledger.attempted,
        "tail_percentile": TAIL_PERCENTILE,
        "setup_samples_s": setup_times,
        "check_s": check_s,
        "wall_time": wall,
        "statuses": ledger.statuses,
        "digest": digests["digest"],
        "digest_checked": expected is not None,
        "counts": totals,
        "end_to_end": e2e,
        "metrics": metrics,
        "spans_file": os.path.relpath(spans_file, ROOT) if args.trace else None,
        "failures": ledger.failures[:20],
    }
    print(f"# workload={name} seed={seed} seconds={args.seconds} trace={args.trace} "
          f"python={record['python']} commit={record['commit']} nproc={record['nproc']}")
    print(f"# pool={record['pool']} ops={record['ops']} ops_traced={record['ops_traced']} "
          f"statuses={json.dumps(record['statuses'], sort_keys=True)} "
          f"digest={'checked' if expected is not None else 'not stored for this seed'}")
    for metric, value in e2e.items():
        extra = f"  (p{TAIL_PERCENTILE:g} of {len(timed.times)} ops on {len(workload.pool)} markets)" if metric == "market_s_tail" else ""
        print(f"{metric} {value!r} {E2E_UNITS[metric]}{extra}")
    print(f"fail_ratio {record['fail_ratio']!r} ratio  ({failed} of {ledger.attempted} ops)")
    print("# plain wall time: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    if args.trace:
        for metric, value in values.items():
            print(f"{metric} {value!r} {LAYER_UNITS[metric]}")
        print(f"# {len(traced.log)} spans written to {record['spans_file']}")
    for line in record["failures"]:
        print(f"FAIL {line}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_many(args) -> int:
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results: Dict[str, List[dict]] = {}
    ok = True
    for name in names:
        for r in range(args.runs):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed + r),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
            lines = proc.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                results.setdefault(name, []).append(json.loads(lines[-1]))
    print("\n# summary: medians over runs")
    for name, rows in results.items():
        cells = []
        for metric in rows[0]["metrics"]:
            value = statistics.median(row["metrics"][metric]["value"] for row in rows)
            cells.append(f"{metric}={value:.6g} {rows[0]['metrics'][metric]['unit']}")
        failed = sum(row["failed"] for row in rows)
        attempted = sum(row["attempted"] for row in rows)
        print(f"{name}: " + ", ".join(cells) + f", fail_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    return 0 if ok else 1


def quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: medians, quartiles, ratio and verdict against the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            records.append([json.loads(line) for line in fh if line.strip()])
    a_runs, b_runs = records
    print(f"A={path_a}  B={path_b}")
    print(f"{'workload':18} {'metric':14} {'A median [q1, q3]':34} {'B median [q1, q3]':34} {'B/A':>8}  bound  verdict")
    for workload in gen.WORKLOADS:
        a_rows = [r for r in a_runs if r["workload"] == workload and r["trace"] == 0]
        b_rows = [r for r in b_runs if r["workload"] == workload and r["trace"] == 0]
        if not a_rows or not b_rows:
            continue
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a = [r["metrics"][m]["value"] for r in a_rows]
            b = [r["metrics"][m]["value"] for r in b_rows]
            a_q, b_q = quartiles(a), quartiles(b)
            ratio = b_q[1] / a_q[1]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = (a_q[2] - a_q[0]) / a_q[1]
            b_all_better = (max(b) < min(a)) if metric["better"] == "lower" else (min(b) > max(a))
            if worse > metric["bound"]:
                verdict = "outside (worse)"
            elif spread > metric["bound"] and not b_all_better:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "inside"
            cell = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{workload:18} {m:14} {cell(a_q):34} {cell(b_q):34} {ratio:8.4f}  {metric['bound']:.2f}   {verdict}")
        fails = [sum(r["failed"] for r in rows) for rows in (a_rows, b_rows)]
        tries = [sum(r["attempted"] for r in rows) for rows in (a_rows, b_rows)]
        print(f"{workload:18} {'fail_ratio':14} {fails[0]}/{tries[0]:<32} {fails[1]}/{tries[1]}")
    # Exact counts of traced runs of the same seed; for the same commit they must agree.
    status = 0
    for workload in gen.WORKLOADS:
        a_traced = {r["seed"]: r for r in a_runs if r["workload"] == workload and r["trace"] == 1}
        b_traced = {r["seed"]: r for r in b_runs if r["workload"] == workload and r["trace"] == 1}
        for seed in sorted(set(a_traced) & set(b_traced)):
            a, b = a_traced[seed], b_traced[seed]
            diff = sorted(k for k in a["counts"] if a["counts"][k] != b["counts"].get(k))
            verdict = "identical" if not diff else "differ in " + ", ".join(diff)
            if diff and a["commit"] is not None and a["commit"] == b["commit"]:
                verdict += "  FAIL: same commit"
                status = 1
            print(f"{workload:18} counts seed={seed}: {verdict}")
    return status


def record_digests(args) -> int:
    """Store the stdout digests and exact counts of every workload at the default seed."""
    out = {"seed": DEFAULT_SEED, "count_keys": list(EXACT_COUNTS), "workloads": {}}
    for name in gen.WORKLOADS:
        with scratch_dir(name) as workdir:
            workdir.mkdir(parents=True)
            workload = make_workload(name, import_program(), gen.build(name, DEFAULT_SEED), workdir)
            ledger = Ledger(workload)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                traced = measure(workload, ledger, 0, tracer, min_ops=len(workload.pool))
            ledger.finish()
        if ledger.failed_ops:
            print("\n".join(ledger.failures), file=sys.stderr)
            return 1
        first = first_counts(workload, traced.summaries)
        out["workloads"][name] = ledger.digests()
        out["workloads"][name]["counts"] = [[first[k][key] for key in EXACT_COUNTS] for k in sorted(first)]
    text = json.dumps(out, indent=1)
    # One line per market's counts.
    text = re.sub(r"\[\n\s*(\d+(?:,\n\s*\d+)*)\n\s*\]", lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]", text)
    DIGESTS.write_text(text + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(gen.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="append one JSON record per run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.record_digests:
            return record_digests(args)
        if args.workload == "all" or args.runs > 1:
            return run_many(args)
        return run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
