"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


def small_workload(name, mods, tmp_path, size=2):
    return run.make_workload(name, mods, gen.build(name, 3)[:size], tmp_path)


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_generator_is_deterministic(name):
    first = [gen.encode(m.payload) for m in gen.build(name, 11)]
    again = [gen.encode(m.payload) for m in gen.build(name, 11)]
    other = [gen.encode(m.payload) for m in gen.build(name, 12)]
    assert first == again
    assert first != other
    assert len(first) == gen.WORKLOADS[name]["pool"]


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_payoffs_are_ints_or_rational_strings(name):
    def leaves(value):
        if isinstance(value, list):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    for market in gen.build(name, 5)[:10]:
        payload = market.payload
        values = list(leaves(payload["irp"]["men"] + payload["irp"]["women"]))
        for row in payload["games"].values():
            for game in row.values():
                values += [x for k, v in game.items() if k != "class" for x in leaves(v)]
        assert market.numbers == len(values) + ("menu_resolution" in payload)
        for x in values:
            assert (isinstance(x, int) and not isinstance(x, bool)) or (
                isinstance(x, str) and str(Fraction(x)) == x and "/" in x
            )


def test_potential_games_are_exact():
    for market in gen.build("wide-matrix", 2)[:5]:
        for row in market.payload["games"].values():
            for game in row.values():
                if game["class"] != "potential":
                    continue
                u, v, phi = game["u"], game["v"], game["phi"]
                for r in range(3):
                    for c in range(3):
                        assert u[r][c] - phi[r][c] == u[0][c] - phi[0][c]
                        assert v[r][c] - phi[r][c] == v[r][0] - phi[r][0]


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_independent_menus_match_the_program(name, mods):
    eps = gen.WORKLOADS[name]["eps"]
    for market in gen.build(name, 4)[:3]:
        inst, _ = mods.serde.parse_instance(market.payload, eps=eps)
        res = Fraction(market.payload.get("menu_resolution", eps / 2))
        for i, m in enumerate(inst.men):
            for j, w in enumerate(inst.women):
                ours = verify.menu(market.payload["games"][m][w], res)
                theirs = [(c.u, c.v) for c in inst.game(i, j).menu()]
                assert ours == theirs


def test_self_times_on_a_hand_built_span_tree():
    ticks = iter([0, 10, 15, 25, 40, 50, 90, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("cli")  # 0 .. 100
    a = tracer.begin("refine.refine")  # 10 .. 40
    b = tracer.begin("stability.blocking")  # 15 .. 25
    tracer.end(b)
    tracer.end(a)
    c = tracer.begin("propose.run")  # 50 .. 90
    c.result = (None, type("State", (), {"iterations": 3, "iteration_bound": 6, "trace": ["event=compete x"]})())
    tracer.end(c)
    tracer.end(root)
    a.result = type("Result", (), {"passes": 1, "status": run.Ledger, "trace": ["event=replace a", "event=visit b"]})()
    a.result.status = type("S", (), {"value": "Converged"})()
    op = tracer.take_op()
    assert spans.self_times(op) == [30, 20, 10, 40]
    spans.annotate(op)
    summary = spans.op_summary(op)
    assert summary["total_ns"] == 100 == summary["self_sum_ns"]
    assert summary["layers"]["refine.refine"] == {"self_ns": 20, "calls": 1}
    assert summary["counts"]["propose.competes"] == 1
    assert summary["counts"]["refine.visits"] == 2
    assert summary["counts"]["refine.replacements"] == 1


def test_spans_must_close_in_order():
    tracer = spans.Tracer()
    outer = tracer.begin("cli")
    tracer.begin("serde.load")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_traced_run_restores_every_rebound_name(mods, tmp_path):
    originals = {}
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        originals[(module_name, attr)] = getattr(module, attr)
    workload = small_workload("wide-matrix", mods, tmp_path)
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with spans.installed(tracer):
            for module_name, attr, _ in spans.TARGETS:
                assert getattr(importlib.import_module(module_name), attr) is not originals[(module_name, attr)]
            workload.op(0, tracer)
            raise KeyError("leave the block early")
    for module_name, attr, _ in spans.TARGETS:
        assert getattr(importlib.import_module(module_name), attr) is originals[(module_name, attr)]
    names = {s.name for s in tracer.take_op()}
    assert {"cli", "serde.load", "serde.parse", "games.build", "propose.run", "refine.refine"} <= names


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_traced_ops_add_up_and_repeat_their_counts(name, mods, tmp_path):
    workload = small_workload(name, mods, tmp_path)
    ledger = run.Ledger(workload)
    untraced = run.measure(workload, ledger, 0, min_ops=2)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = run.measure(workload, ledger, 0, tracer, min_ops=4)
    ledger.finish()
    assert ledger.failed_ops == 0, ledger.failures
    assert len(untraced.times) == 2 and len(traced.summaries) == 4
    for _, summary in traced.summaries:
        assert summary["self_sum_ns"] == summary["total_ns"]
    assert run.count_mismatches(traced.summaries) == []
    values, _ = run.layer_metrics(workload, traced.summaries, 0.0)
    assert set(values) == set(run.LAYER_UNITS)
    self_total = sum(values[m] for m in run.SELF_TIME_SPANS)
    assert self_total == pytest.approx(values["op.traced_s"])


def test_count_mismatch_is_reported():
    summary = {"counts": {"propose.iterations": 3}, "layers": {"cli": {"self_ns": 5, "calls": 1}}}
    changed = {"counts": {"propose.iterations": 4}, "layers": {"cli": {"self_ns": 5, "calls": 1}}}
    assert run.count_mismatches([(0, summary), (0, summary)]) == []
    assert len(run.count_mismatches([(0, summary), (1, changed), (0, changed)])) == 1


def test_perturbed_stdout_byte_is_a_failed_op(mods, tmp_path):
    workload = small_workload("deep-level", mods, tmp_path)
    ledger = run.Ledger(workload)
    code, stdout = workload.op(0, None)
    assert ledger.record(0, (code, stdout), None)
    flipped = stdout.replace("eps=1/2", "eps=1/3")
    assert flipped != stdout
    assert not ledger.record(0, (code, flipped), None)
    ledger.finish()
    assert ledger.failed_ops == 1 and ledger.attempted == 2


def test_wrong_first_output_fails_every_op_of_its_market(mods, tmp_path):
    workload = small_workload("wide-matrix", mods, tmp_path)
    code, stdout = workload.op(0, None)
    profile, end = json.JSONDecoder().raw_decode(stdout)
    man = next(iter(profile["contracts"]))
    profile["contracts"][man]["u"] = 10**6  # no menu pays this
    wrong = json.dumps(profile, indent=2) + stdout[end:]
    ledger = run.Ledger(workload)
    for _ in range(3):
        ledger.record(0, (code, wrong), None)
    assert ledger.record(1, workload.op(1, None), None)
    ledger.finish()
    assert ledger.failed_ops == 3 and ledger.attempted == 4
    assert ledger.bad_markets == {0}


def test_a_blocked_profile_is_rejected():
    market = gen.build("wide-matrix", 1)[0].payload
    everyone_single = {"matching": {m: None for m in market["men"]}, "contracts": {}}
    problem = verify.check_profile(market, Fraction(1), everyone_single)
    assert problem is not None and "block" in problem


def test_wrong_oracle_profile_is_a_failed_op(mods, tmp_path):
    workload = small_workload("oracle-crosscheck", mods, tmp_path)
    proposed, refined, n_ext, n_int, problems = workload.op(0, None)
    assert workload.check(0, (proposed, refined, n_ext, n_int, problems))[0] is None
    single = importlib.import_module("matchgames.stability").MatchingProfile(matches=(None,) * 3, chosen={})
    assert workload.check(0, ([single] + proposed[1:], refined, n_ext, n_int, problems))[0] is not None
    assert workload.check(0, (proposed, refined, n_ext, n_int, ["not in the set"]))[0] == "not in the set"


def test_tail_is_the_nearest_rank_percentile():
    times = [float(k) for k in range(400, 0, -1)]
    assert run.tail(times) == 360.0
    assert run.tail(times[:1]) == 400.0


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_every_pool_leaves_ten_markets_beyond_the_tail(name):
    assert gen.WORKLOADS[name]["pool"] * (100 - run.TAIL_PERCENTILE) / 100 >= 10


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


@pytest.fixture
def small_run(monkeypatch, tmp_path, capsys):
    """run_one on pools of three markets, with stored digests and spans under tmp_path."""
    for name, spec in list(gen.WORKLOADS.items()):
        monkeypatch.setitem(gen.WORKLOADS, name, {**spec, "pool": 3})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")

    def go(name, trace, seed=3):
        code = run.run_one(Namespace(workload=name, seed=seed, seconds=0, trace=trace, out=None))
        gc.unfreeze()
        stdout = capsys.readouterr().out
        return code, stdout, json.loads(stdout.strip().splitlines()[-1])

    return go


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("bad", [0, 1, None])
def test_an_op_that_raises_is_a_failed_op_not_a_crash(small_run, monkeypatch, bad, trace):
    """Market ``bad`` raises on every op (market 0 in the warm-up too); None: every market."""
    op = run.CliWorkload.op

    def raising(self, k, tracer):
        if bad is None or k == bad:
            raise ValueError("boom")
        return op(self, k, tracer)

    monkeypatch.setattr(run.CliWorkload, "op", raising)
    code, stdout, last = small_run("deep-level", trace)
    assert code == 1 and not last["correct"]
    assert 1 <= last["failed"] <= last["attempted"]
    assert (last["failed"] == last["attempted"]) == (bad is None)
    fail_ratio = next(line for line in stdout.splitlines() if line.startswith("fail_ratio "))
    assert float(fail_ratio.split()[1]) > 0
    assert "ValueError: boom" in stdout


def test_a_traced_run_writes_its_spans(small_run, tmp_path):
    code, stdout, last = small_run("wide-matrix", 1)
    assert code == 0 and last["correct"]
    with gzip.open(tmp_path / "spans" / "spans-wide-matrix-3.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    ops = {row[4] for row in rows}
    assert len(ops) == 3 + run.RECOUNT
    for op in ops:
        op_rows = [row for row in rows if row[4] == op]
        assert [row[3] for row in op_rows].count(None) == 1
        assert op_rows[0][0] == "cli" and all(row[1] <= row[2] for row in op_rows)
    assert f"{len(rows)} spans written" in stdout


def test_stored_digests_and_counts_are_checked(small_run, monkeypatch):
    monkeypatch.setattr(run, "DEFAULT_SEED", 3)
    assert run.record_digests(None) == 0
    assert small_run("repeated-hull", 1)[0] == 0

    stored = json.loads(run.DIGESTS.read_text())
    stored["workloads"]["repeated-hull"]["counts"][1][0] += 1
    run.DIGESTS.write_text(json.dumps(stored))
    code, stdout, last = small_run("repeated-hull", 1)
    assert code == 1 and "exact counts differ from the stored ones" in stdout
    assert small_run("repeated-hull", 0)[0] == 0  # counts are only taken traced

    stored["workloads"]["repeated-hull"]["markets"][2] = run.sha256("other output")
    run.DIGESTS.write_text(json.dumps(stored))
    code, stdout, last = small_run("repeated-hull", 0)
    assert code == 1 and "stdout digest differs" in stdout
    assert 1 <= last["failed"] < last["attempted"]


def test_stored_count_mismatches_name_the_market_and_counts():
    counts = dict.fromkeys(run.EXACT_COUNTS, 2)
    stored = [[2] * len(run.EXACT_COUNTS), [2] * len(run.EXACT_COUNTS)]
    assert run.stored_count_mismatches({0: counts, 1: counts}, stored) == []
    stored[1][0] = 3
    [(k, problem)] = run.stored_count_mismatches({0: counts, 1: counts}, stored)
    assert k == 1 and "propose.iterations" in problem


def test_speed_factors_take_a_median_over_neighbouring_samples():
    nominal = run.NOMINAL_CALIBRATION_S
    stalled = [nominal] * 21
    stalled[10] = 100 * nominal  # one stalled sample moves no op
    assert run.speed_factors(stalled) == [1.0] * 20
    drifting = [nominal] * 20 + [2 * nominal] * 21
    factors = run.speed_factors(drifting)
    assert len(factors) == 40
    assert factors[:15] == [1.0] * 15 and factors[-15:] == [0.5] * 15
    assert run.speed_factor([nominal, 2 * nominal, 4 * nominal]) == 0.5


def test_calibration_runs_without_the_cyclic_collector(monkeypatch):
    seen = []
    monkeypatch.setattr(run, "calibration_work", lambda: seen.append(gc.isenabled()))
    run.calibrate()
    assert seen == [False] and gc.isenabled()


def test_tracing_overhead_compares_the_same_markets():
    untraced = SimpleNamespace(times=[1.0, 2.0, 1.0], ks=[0, 1, 0])
    traced = SimpleNamespace(times=[1.1, 2.2, 50.0, 1.1], ks=[0, 1, 2, 0])
    assert run.overhead_share(untraced, traced) == pytest.approx(0.1)
