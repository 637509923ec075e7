"""Command-line behaviour: reports, exit codes, files written, determinism."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import matchgames
from matchgames.cli import _build_parser, main

# classic two-couple market with opposed tastes, single-cell games
CLASSIC = {
    "men": ["m0", "m1"],
    "women": ["w0", "w1"],
    "irp": {"men": [0, 0], "women": [0, 0]},
    "games": {
        "m0": {
            "w0": {"class": "bimatrix", "u": [[2]], "v": [[1]]},
            "w1": {"class": "bimatrix", "u": [[1]], "v": [[2]]},
        },
        "m1": {
            "w0": {"class": "bimatrix", "u": [[1]], "v": [[2]]},
            "w1": {"class": "bimatrix", "u": [[2]], "v": [[1]]},
        },
    },
}

MIXED_CLASSES = Path(__file__).resolve().parent.parent / "demos" / "data" / "mixed_classes.json"
DEMO_DATA = MIXED_CLASSES.parent

ZERO_SUM_COUPLE = {
    "men": ["m0"],
    "women": ["w0"],
    "irp": {"men": [-5], "women": [-5]},
    "games": {"m0": {"w0": {"class": "zero_sum", "g": [[1, -1], [-1, 1]]}}},
}

POTENTIAL_COUPLE = {
    "men": ["m0"],
    "women": ["w0"],
    "irp": {"men": [0], "women": [0]},
    "games": {
        "m0": {
            "w0": {
                "class": "potential",
                "u": [[1, 0], [0, 2]],
                "v": [[1, 0], [0, 2]],
                "phi": [[1, 0], [0, 2]],
            }
        }
    },
}

SOLAN_COUPLE = {
    "men": ["m0"],
    "women": ["w0"],
    "irp": {"men": [-100], "women": [-100]},
    "games": {
        "m0": {
            "w0": {
                "class": "bimatrix",
                "u": [[2, -10, 3], [3, 2, -10], [-10, 3, 2]],
                "v": [[1, -10, 0], [0, 1, -10], [-10, 0, 1]],
            }
        }
    },
}

TREE = {
    "players": ["left", "right"],
    "nodes": {
        "0": {"player": 0, "children": [1, 2]},
        "1": {"payoffs": [2, 0]},
        "2": {"player": 1, "children": [3, 4]},
        "3": {"payoffs": [1, 1]},
        "4": {"payoffs": [3, -1]},
    },
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


# directory that holds the imported ``matchgames`` package (``src/`` in a checkout)
PACKAGE_ROOT = Path(matchgames.__file__).resolve().parent.parent


def checkout_env(bin_dir=None):
    """Environment for a child process that runs the imported ``matchgames``.

    The package root goes first on ``PYTHONPATH``, so the child imports the
    same code as this test session whatever the caller's environment holds;
    ``bin_dir``, when given, goes first on ``PATH``.
    """
    env = dict(os.environ)
    for var, head in (("PYTHONPATH", PACKAGE_ROOT), ("PATH", bin_dir)):
        if head is not None:
            env[var] = os.pathsep.join(
                [str(head)] + ([env[var]] if env.get(var) else [])
            )
    return env


def declared_script():
    """The ``matchgames`` entry of ``[project.scripts]``, e.g. ``"pkg.mod:fn"``.

    Read from the ``pyproject.toml`` next to the imported package; when the
    package was imported from an installed copy, from the checkout that holds
    this test file.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = PACKAGE_ROOT.parent / "pyproject.toml"
    if not pyproject.is_file():
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "matchgames" in scripts, f"no matchgames script in {pyproject}"
    return scripts["matchgames"]


def installed_script():
    """The installed ``matchgames`` console-script entry point, if it is on PATH."""
    try:
        dist = importlib.metadata.distribution("matchgames")
    except importlib.metadata.PackageNotFoundError:
        return None
    eps = dist.entry_points.select(group="console_scripts", name="matchgames")
    if not eps or shutil.which("matchgames") is None:
        return None
    return next(iter(eps))


def write_launcher(bin_dir, value):
    """Write the launcher an installer generates for console script ``value``."""
    module, _, attr = value.partition(":")
    bin_dir.mkdir()
    launcher = bin_dir / "matchgames"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)


def contract_entry(u, v):
    return {"id": 0, "strategy_a": 0, "strategy_b": 0, "u": u, "v": v}


MEN_OPT = {
    "matching": {"m0": "w0", "m1": "w1"},
    "contracts": {"m0": contract_entry(2, 1), "m1": contract_entry(2, 1)},
}
WOMEN_OPT = {
    "matching": {"m0": "w1", "m1": "w0"},
    "contracts": {"m0": contract_entry(1, 2), "m1": contract_entry(1, 2)},
}


class TestSolveExternal:
    def test_men_proposing(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        out = str(tmp_path / "profile.json")
        rc = main(["solve-external", inst, "-o", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "holds=true" in captured.out
        assert "eps=1" in captured.out
        assert "iterations=" in captured.out and "bound=" in captured.out
        saved = json.loads(Path(out).read_text())
        assert saved["matching"] == {"m0": "w0", "m1": "w1"}

    def test_women_proposing(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        out = str(tmp_path / "profile.json")
        rc = main(["solve-external", inst, "--side", "women", "-o", out])
        capsys.readouterr()
        assert rc == 0
        saved = json.loads(Path(out).read_text())
        assert saved["matching"] == {"m0": "w1", "m1": "w0"}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        main(["solve-external", inst])
        first = capsys.readouterr().out
        main(["solve-external", inst])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_file(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        trace = tmp_path / "trace.log"
        rc = main(["solve-external", inst, "--trace", str(trace)])
        capsys.readouterr()
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines and all(line.startswith("event=") for line in lines)
        assert lines[0].startswith("event=propose")

    def test_zero_eps_rejected(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        rc = main(["solve-external", inst, "--eps", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["solve-external", "solve-stable"])
    @pytest.mark.parametrize("eps", [["--eps", "0"], ["--eps=-1/2"]], ids=["zero", "negative"])
    def test_nonpositive_eps_refusal_names_the_flag(self, tmp_path, capsys, command, eps):
        rc = main([command, write(tmp_path, "inst.json", CLASSIC), *eps])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {command} needs a positive --eps\n"

    def test_zero_denominator_eps_is_a_usage_error(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        with pytest.raises(SystemExit) as exc:
            main(["solve-external", inst, "--eps", "1/0"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    def test_oversized_menu_rejected_before_building(self, tmp_path, capsys):
        # payoff range 10 at resolution 1/20000 would be 200,001 contracts
        data = dict(ZERO_SUM_COUPLE)
        data["games"] = {"m0": {"w0": {"class": "zero_sum", "g": [[0, 10]], "resolution": "1/20000"}}}
        inst = write(tmp_path, "inst.json", data)
        start = time.perf_counter()
        rc = main(["solve-external", inst, "--eps", "1"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2
        assert elapsed < 1.0
        assert "m0" in err and "w0" in err
        assert "200001" in err

    def test_deeply_nested_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        rc = main(["solve-external", str(path)])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("payoff", ["1e4000000", "1e-1000000"])
    def test_exponent_bomb_is_exit_2_naming_the_field(self, tmp_path, capsys, payoff):
        data = json.loads(json.dumps(CLASSIC))
        data["games"]["m0"]["w1"]["u"] = [[payoff]]
        inst = write(tmp_path, "inst.json", data)
        start = time.perf_counter()
        rc = main(["solve-external", inst, "--eps", "1"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2
        assert elapsed < 1.0
        assert err.startswith("error: instance.games['m0']['w1'].u[0][0]: exponent in ")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_unprintable_exponent_string_is_exit_2_naming_the_field(self, tmp_path, capsys, sign):
        # the exponent is inside the digit limit, but the number has one digit more
        limit = sys.get_int_max_str_digits()
        data = json.loads(json.dumps(CLASSIC))
        data["games"]["m0"]["w1"]["u"] = [[f"1e{sign}{limit}"]]
        inst = write(tmp_path, "inst.json", data)
        start = time.perf_counter()
        rc = main(["solve-external", inst, "--eps", "1"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2
        assert elapsed < 1.0
        assert err.startswith(
            f"error: instance.games['m0']['w1'].u[0][0]: '1e{sign}{limit}' has more than {limit} digits"
        )

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
    )
    def test_eps_whose_bound_cannot_print_is_exit_2_naming_the_flag(self, tmp_path, capsys):
        # eps itself prints, but the iteration bound, about 1/eps, has one digit too many
        eps = "1/" + "9" * (sys.get_int_max_str_digits() - 1)
        trace, out = tmp_path / "trace.txt", tmp_path / "profile.json"
        start = time.perf_counter()
        rc = main(["solve-external", str(MIXED_CLASSES), "--eps", eps, "--trace", str(trace), "-o", str(out)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2
        assert elapsed < 1.0
        assert captured.out == ""
        assert captured.err.startswith("error: --eps is too small: the iteration bound has more than ")
        assert not trace.exists() and not out.exists()

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
    )
    def test_transfer_payoff_too_long_to_print_is_exit_2_naming_the_couple(self, tmp_path, capsys):
        # every number has 3,000 digits, but f_u has slope N**2: u(1) has about 6,000
        N = "9" * 3000
        data = {
            "men": ["m0"],
            "women": ["w0"],
            "irp": {"men": [-1], "women": [-5]},
            "games": {
                "m0": {
                    "w0": {
                        "class": "transfer",
                        "t_min": 0,
                        "t_max": 1,
                        "resolution": 1,
                        "f_u": [[0, 0], ["1/" + N, N]],
                        "f_v": [[0, 0], [1, 1]],
                    }
                }
            },
        }
        inst = write(tmp_path, "inst.json", data)
        start = time.perf_counter()
        rc = main(["solve-external", inst, "--eps", "1"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == 2
        assert elapsed < 1.0
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert captured.err.startswith(
            f"error: instance.games['m0']['w0']: a menu payoff or level has more than {limit} digits to print"
        )

    def test_level_menus_stay_unread_after_a_run(self, tmp_path, capsys, monkeypatch):
        from matchgames import cli

        loaded, load = [], cli.load_instance_file

        def capture(*args, **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_instance_file", capture)
        data = json.loads(json.dumps(CLASSIC))
        for m, w, g in (("m0", "w0", [[0, 50]]), ("m0", "w1", [[-30, 20]]), ("m1", "w0", [[10, -40]])):
            data["games"][m][w] = {"class": "zero_sum", "g": g, "resolution": "1/2"}
        data["games"]["m1"]["w1"] = {
            "class": "transfer",
            "t_min": -60,
            "t_max": 60,
            "resolution": 1,
            "f_u": [[0, 0], [1, 2]],
            "f_v": [[0, 1], [1, 2]],
        }
        rc = main(["solve-external", write(tmp_path, "inst.json", data), "--eps", "1/2"])
        assert rc == 0, capsys.readouterr().err
        [(inst, _eps)] = loaded
        menus = [g.menu() for g in inst.games.values()]
        assert min(map(len, menus)) >= 100
        unmade = sum(c is None for menu in menus for c in menu.made)
        assert unmade > 0.9 * sum(map(len, menus))

    def test_small_exponents_still_parse(self, tmp_path, capsys):
        data = json.loads(json.dumps(CLASSIC))
        data["games"]["m0"]["w0"]["u"] = [["1e3"]]
        data["games"]["m0"]["w1"]["u"] = [["0.25"]]
        data["games"]["m1"]["w0"]["u"] = [["-7/2"]]
        rc = main(["solve-external", write(tmp_path, "inst.json", data), "--eps", "1/4"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_over_long_integer_literal_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(CLASSIC).replace('"u": [[2]]', '"u": [[' + "7" * 5000 + "]]", 1))
        rc = main(["solve-external", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot parse {path}: ")

    def test_repeated_key_is_exit_2_naming_key_and_file(self, tmp_path, capsys):
        # json.load alone keeps the last "u", and the couple would solve with u = 7
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(CLASSIC).replace('"u": [[2]]', '"u": [[2]], "u": [[7]]', 1))
        assert main(["solve-external", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: key 'u' appears twice in one object\n"


class TestVerify:
    def test_stable_profile_holds(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        prof = write(tmp_path, "men_opt.json", MEN_OPT)
        rc = main(["verify", inst, "--profile", prof, "--notion", "ext"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "holds=true" in captured.out

    def test_planted_blocking_pair_reports_witness(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        singles = write(
            tmp_path,
            "singles.json",
            {"matching": {"m0": None, "m1": None}, "contracts": {}},
        )
        rc = main(
            ["verify", inst, "--profile", singles, "--notion", "ext", "--eps", "1/2"]
        )
        captured = capsys.readouterr()
        # an unstable profile is a valid verification outcome, not an error
        assert rc == 0
        assert "holds=false" in captured.out
        assert "witness kind=blocking man=m0 woman=w0" in captured.out

    def test_repeated_key_in_profile_is_exit_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        prof = tmp_path / "men_opt.json"
        prof.write_text(json.dumps(MEN_OPT).replace('"m0": "w0"', '"m0": "w1", "m0": "w0"', 1))
        assert main(["verify", inst, "--profile", str(prof), "--notion", "ext"]) == 2
        assert capsys.readouterr().err == f"error: {prof}: key 'm0' appears twice in one object\n"

    @pytest.mark.parametrize(
        "name, eps, notion, witness",
        [
            ("wage_split.json", [], "int", "witness kind=deviation man=ben woman=zeta side=man from=0 to=1 u=2 v=-2"),
            ("wage_split.json", [], "nash", "witness kind=deviation man=ben woman=zeta side=man from=0 to=1 u=2 v=-2"),
            ("mixed_classes.json", ["--eps", "1/2"], "int", "witness kind=deviation man=m0 woman=w0 side=woman from=0 to=1 u=2 v=4"),
        ],
    )
    def test_deviation_witness_lines(self, tmp_path, capsys, name, eps, notion, witness):
        inst = str(DEMO_DATA / name)
        prof = str(tmp_path / "profile.json")
        assert main(["solve-external", inst, *eps, "-o", prof]) == 0
        capsys.readouterr()
        assert main(["verify", inst, "--profile", prof, "--notion", notion, *eps]) == 0
        assert capsys.readouterr().out.splitlines()[1] == witness

    def test_reservation_witness_line(self, tmp_path, capsys):
        data = {
            "men": ["m"],
            "women": ["w"],
            "irp": {"men": [0], "women": [0]},
            "games": {"m": {"w": {"class": "bimatrix", "u": [[-1]], "v": [[1]]}}},
        }
        inst = write(tmp_path, "inst.json", data)
        prof = write(tmp_path, "profile.json", {"matching": {"m": "w"}, "contracts": {"m": contract_entry(-1, 1)}})
        assert main(["verify", inst, "--profile", prof, "--notion", "ext"]) == 0
        assert capsys.readouterr().out == "ExternalEps: holds=false eps=1\nwitness kind=reservation man=m woman=-\n"

    @pytest.mark.parametrize(
        "notion, out",
        [
            ("ext", "ExternalEps: holds=false eps=1\nwitness kind=blocking man=m0 woman=w1 contract=0 u=5 v=5\n"),
            ("weak", "Weak: holds=false\nwitness kind=reservation man=m1 woman=-\n"),
            ("uni", "Unilateral: holds=false\nwitness kind=reservation man=m1 woman=-\n"),
        ],
    )
    def test_witness_order(self, tmp_path, capsys, notion, out):
        # m0 blocks with w1 and m1 is below his reservation payoff: the blocking
        # scan reaches m0's pair first, the reservation scan m1
        def cell(x):
            return {"class": "bimatrix", "u": [[x]], "v": [[x]]}

        data = {
            "men": ["m0", "m1"],
            "women": ["w0", "w1"],
            "irp": {"men": [0, 1], "women": [0, 0]},
            "games": {"m0": {"w0": cell(0), "w1": cell(5)}, "m1": {"w0": cell(0), "w1": cell(0)}},
        }
        inst = write(tmp_path, "inst.json", data)
        contracts = {"m0": contract_entry(0, 0), "m1": contract_entry(0, 0)}
        prof = write(tmp_path, "profile.json", {"matching": {"m0": "w0", "m1": "w1"}, "contracts": contracts})
        assert main(["verify", inst, "--profile", prof, "--notion", notion]) == 0
        assert capsys.readouterr().out == out

    def test_all_notions_run(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        prof = write(tmp_path, "men_opt.json", MEN_OPT)
        for notion in ("ext", "int", "weak", "uni", "nash"):
            rc = main(["verify", inst, "--profile", prof, "--notion", notion])
            captured = capsys.readouterr()
            assert rc == 0
            assert "holds=true" in captured.out


class TestSolveStable:
    def test_converged_zero_sum(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", ZERO_SUM_COUPLE)
        rc = main(["solve-stable", inst])
        captured = capsys.readouterr()
        assert rc == 0
        assert "status=Converged" in captured.out
        assert captured.out.count("holds=true") == 2

    def test_policy_flag(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", POTENTIAL_COUPLE)
        rc = main(["solve-stable", inst, "--policy", "max-potential"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "status=Converged" in captured.out

    @pytest.mark.parametrize("name", ["zero-sum", "repeated"])
    def test_removed_policy_exit_2(self, tmp_path, capsys, name):
        inst = write(tmp_path, "inst.json", ZERO_SUM_COUPLE)
        with pytest.raises(SystemExit) as exc:
            main(["solve-stable", inst, "--policy", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_pass_limit_exit_code(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        rc = main(["solve-stable", inst, "--max-passes", "0"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "status=PassLimit" in captured.out

    def test_infeasible_names_the_couple(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", SOLAN_COUPLE)
        rc = main(["solve-stable", inst])
        captured = capsys.readouterr()
        assert rc == 3
        assert "status=Infeasible" in captured.out
        assert "couple=m0,w0" in captured.out


class TestEnumerate:
    def test_lists_stable_profiles(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        rc = main(["enumerate", inst, "--eps", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[-1] == "count=2"
        matchings = [json.loads(line)["matching"] for line in lines[:-1]]
        assert {"m0": "w0", "m1": "w1"} in matchings
        assert {"m0": "w1", "m1": "w0"} in matchings

    def test_deterministic_order(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        main(["enumerate", inst, "--eps", "0"])
        first = capsys.readouterr().out
        main(["enumerate", inst, "--eps", "0"])
        assert capsys.readouterr().out == first

    def test_cap_exhaustion_is_exit_3(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        rc = main(["enumerate", inst, "--cap", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "cap" in captured.err

    def test_internal_notion(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", ZERO_SUM_COUPLE)
        rc = main(["enumerate", inst, "--eps", "1", "--notion", "int"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "count=" in captured.out


    def test_tall_market(self, tmp_path, capsys):
        # one man per recursion level used to overflow the stack
        men = [f"m{i}" for i in range(1200)]
        data = {
            "men": men,
            "women": ["w0"],
            "irp": {"men": [0] * len(men), "women": [0]},
            "games": {m: {"w0": {"class": "bimatrix", "u": [[0]], "v": [[0]]}} for m in men},
        }
        inst = write(tmp_path, "inst.json", data)
        rc = main(["enumerate", inst, "--eps", "0"])
        assert rc == 0
        assert capsys.readouterr().out.endswith("count=1201\n")

    def test_cap_refused_without_visiting_matchings(self, tmp_path):
        # 12x12 has about 3.7e12 partial matchings; counting must not walk them
        men, women = [f"m{i}" for i in range(12)], [f"w{j}" for j in range(12)]
        game = {"class": "bimatrix", "u": [[0, 1]], "v": [[1, 0]]}
        data = {
            "men": men,
            "women": women,
            "irp": {"men": [0] * 12, "women": [0] * 12},
            "games": {m: {w: game for w in women} for m in men},
        }
        inst = write(tmp_path, "inst.json", data)
        result = subprocess.run(
            [sys.executable, "-m", "matchgames.cli", "enumerate", inst, "--cap", "10"],
            capture_output=True,
            env=checkout_env(),
            timeout=30,
        )
        assert result.returncode == 3
        assert b"exceeding cap 10" in result.stderr


class TestJoin:
    def test_men_side(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        a = write(tmp_path, "a.json", MEN_OPT)
        b = write(tmp_path, "b.json", WOMEN_OPT)
        out = str(tmp_path / "joined.json")
        rc = main(["join", inst, "--a", a, "--b", b, "-o", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "External0: holds=true" in captured.out
        assert json.loads(Path(out).read_text())["matching"] == {"m0": "w0", "m1": "w1"}

    def test_women_side(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        a = write(tmp_path, "a.json", MEN_OPT)
        b = write(tmp_path, "b.json", WOMEN_OPT)
        out = str(tmp_path / "joined.json")
        rc = main(["join", inst, "--a", a, "--b", b, "--side", "women", "-o", out])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(Path(out).read_text())["matching"] == {"m0": "w1", "m1": "w0"}

    def test_non_integer_instance_joins_at_the_given_margin(self, tmp_path, capsys):
        inst = str(Path(__file__).resolve().parent.parent / "demos" / "data" / "mixed_classes.json")
        profile = str(tmp_path / "p.json")
        assert main(["solve-external", inst, "--eps", "1/2", "-o", profile]) == 0
        capsys.readouterr()
        assert main(["join", inst, "--a", profile, "--b", profile]) == 2
        assert "pass --eps" in capsys.readouterr().err
        rc = main(["join", inst, "--a", profile, "--b", profile, "--eps", "1/2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out[: captured.out.rindex("}") + 1]) == json.loads(Path(profile).read_text())
        assert captured.out.endswith("\nExternalEps: holds=true eps=1/2\n")

    def test_unstable_input_is_exit_2(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        singles = write(
            tmp_path,
            "singles.json",
            {"matching": {"m0": None, "m1": None}, "contracts": {}},
        )
        a = write(tmp_path, "a.json", MEN_OPT)
        rc = main(["join", inst, "--a", a, "--b", singles])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")


class TestSpe:
    def test_admissible_tree(self, tmp_path, capsys):
        tree = write(tmp_path, "tree.json", TREE)
        rc = main(["spe", tree, "--outs", "0", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "admissible=true" in captured.out
        assert "choose node=0 child=1" in captured.out
        assert "choose node=2 child=3" in captured.out
        assert "outcome=2,0" in captured.out

    def test_inadmissible_outs(self, tmp_path, capsys):
        tree = write(tmp_path, "tree.json", TREE)
        rc = main(["spe", tree, "--outs", "5", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "admissible=false"

    def test_fractional_outs(self, tmp_path, capsys):
        tree = write(tmp_path, "tree.json", TREE)
        rc = main(["spe", tree, "--outs", "1/2", "1/2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "admissible=true" in captured.out

    def test_zero_denominator_outs_is_exit_2(self, tmp_path, capsys):
        tree = write(tmp_path, "tree.json", TREE)
        rc = main(["spe", tree, "--outs", "1/0", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:") and "1/0" in captured.err

    def test_malformed_tree_is_exit_2(self, tmp_path, capsys):
        bad = dict(TREE, nodes=dict(TREE["nodes"], **{"4": {"payoffs": [3]}}))
        tree = write(tmp_path, "tree.json", bad)
        rc = main(["spe", tree, "--outs", "0", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")

    def test_node_id_given_twice_is_exit_2(self, tmp_path, capsys):
        # "1" and "01" are both node 1; the later one must not replace the earlier
        nodes = {"0": {"player": 0, "children": [1, 2]}, "1": {"payoffs": [5]}, "01": {"payoffs": [1]}}
        tree = write(tmp_path, "tree.json", {"players": ["a"], "nodes": dict(nodes, **{"2": {"payoffs": [3]}})})
        assert main(["spe", tree, "--outs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tree.nodes: keys '1' and '01' name the same node 1\n"

    def test_zero_padded_node_id_alone_still_parses(self, tmp_path, capsys):
        nodes = {"0": {"player": 0, "children": [1, 2]}, "01": {"payoffs": [1]}, "2": {"payoffs": [3]}}
        tree = write(tmp_path, "tree.json", {"players": ["a"], "nodes": nodes})
        assert main(["spe", tree, "--outs", "0"]) == 0
        assert capsys.readouterr().out == "admissible=true\nchoose node=0 child=2\noutcome=3\n"


class TestAdapt:
    def test_ordinal_chain(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {
                "model": "ordinal",
                "men": {"m0": ["w0", "w1"], "m1": ["w1", "w0"]},
                "women": {"w0": ["m1", "m0"], "w1": ["m0", "m1"]},
            },
        )
        inst = str(tmp_path / "inst.json")
        rc = main(["adapt", "ordinal", model, "-o", inst])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("wrote ")

        rc = main(["enumerate", inst, "--eps", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip().splitlines()[-1] == "count=2"

    def test_contracts_kind(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {
                "contracts": ["x"],
                "relations": {"x": ["m1", "w1"]},
                "prefs": {"m1": ["x", "EMPTY"], "w1": ["x", "EMPTY"]},
            },
        )
        inst = str(tmp_path / "inst.json")
        rc = main(["adapt", "contracts", model, "-o", inst])
        capsys.readouterr()
        assert rc == 0
        rc = main(["solve-external", inst])
        captured = capsys.readouterr()
        assert rc == 0
        assert "holds=true" in captured.out

    def test_tag_mismatch_is_exit_2(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {"model": "ordinal", "men": {"m": ["w"]}, "women": {"w": ["m"]}},
        )
        rc = main(["adapt", "contracts", model, "-o", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "tagged" in captured.err


    def test_valuation_of_unknown_seller_is_exit_2_naming_it(self, tmp_path, capsys):
        model = write(
            tmp_path,
            "model.json",
            {
                "model": "shapley_shubik",
                "costs": {"s1": 1},
                "valuations": {"s1": {"b1": 5}, "s2": {"b1": 9}},
                "price_grid": [0, 10, 1],
            },
        )
        out = tmp_path / "x.json"
        assert main(["adapt", "shapley-shubik", model, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: model: valuations given for seller 's2', who has no cost\n"
        assert not out.exists()

    def test_kind_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["adapt", "--help"])
        assert "{contracts,gale-demange,ordinal,shapley-shubik}" in capsys.readouterr().out


class TestEntryPoints:
    def test_no_command_prints_help(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 2
        assert "usage:" in captured.err

    def test_fractional_instance_needs_eps(self, tmp_path, capsys):
        data = json.loads(json.dumps(CLASSIC))
        data["games"]["m0"]["w0"]["u"] = [["1/2"]]
        inst = write(tmp_path, "inst.json", data)
        rc = main(["solve-external", inst])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--eps" in captured.err

    @pytest.mark.parametrize("command", ["verify", "enumerate", "join"])
    def test_negative_eps_refusal_names_the_flag(self, tmp_path, capsys, command):
        inst, prof = write(tmp_path, "inst.json", CLASSIC), write(tmp_path, "men_opt.json", MEN_OPT)
        rest = {
            "verify": ["--profile", prof, "--notion", "ext"],
            "enumerate": [],
            "join": ["--a", prof, "--b", prof],
        }[command]
        rc = main([command, inst, *rest, "--eps=-1/2"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {command} needs a nonnegative --eps\n"

    def test_console_script(self, tmp_path, capsys):
        # the declared script: the installed one when there is one, else the
        # launcher an installer would build from [project.scripts]
        declared = declared_script()
        installed = installed_script()
        if installed is not None:
            assert installed.value == declared
            env = checkout_env()
        else:
            write_launcher(tmp_path / "bin", declared)
            env = checkout_env(bin_dir=tmp_path / "bin")
        inst = write(tmp_path, "inst.json", CLASSIC)
        result = subprocess.run(
            ["matchgames", "solve-external", inst],
            capture_output=True,
            env=env,
        )
        stdout = result.stdout.decode()
        assert result.returncode == 0
        assert "holds=true" in stdout
        # same bytes as the in-process entry point
        main(["solve-external", inst])
        assert result.stdout == capsys.readouterr().out.encode()

    def test_module_invocation(self, tmp_path):
        inst = write(tmp_path, "inst.json", CLASSIC)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "matchgames.cli",
                "verify",
                inst,
                "--profile",
                inst,
                "--notion",
                "ext",
            ],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        # garbage profile file: clean error, exit 2
        assert result.returncode == 2
        assert result.stderr.startswith("error:")

    def test_closed_stdout_is_exit_1_without_a_traceback(self):
        # The reader closes its end before the child writes a byte, as
        # a `head` that exits early would.
        proc = subprocess.Popen(
            [sys.executable, "-m", "matchgames.cli", "solve-stable", str(DEMO_DATA / "wage_split.json"), "--eps", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=checkout_env(),
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr, stderr.decode()
        assert proc.returncode == 1


SUBCOMMANDS = ["solve-external", "solve-stable", "verify", "enumerate", "join", "spe", "adapt"]


def fresh_parse(argv, capsys):
    """Exit code and output of a parse by a newly built parser, not the cached one."""
    with pytest.raises(SystemExit) as exit_info:
        _build_parser.__wrapped__().parse_args(argv)
    return exit_info.value.code, capsys.readouterr()


class TestCachedParser:
    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        assert main(["solve-external", inst]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.log"
        assert main(["solve-external", inst, "--trace", str(trace), "--side", "women", "--eps", "1/2"]) == 0
        assert capsys.readouterr().out != plain
        trace.unlink()
        assert main(["solve-external", inst]) == 0
        assert capsys.readouterr().out == plain
        assert "eps=1\n" in plain and '"m0": "w0"' in plain
        assert not trace.exists()

    @pytest.mark.parametrize("command", [[]] + [[name] for name in SUBCOMMANDS])
    def test_help_is_a_fresh_parsers_help(self, command, capsys):
        code, fresh = fresh_parse(command + ["--help"], capsys)
        assert code == 0 and fresh.out.startswith("usage: matchgames")
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr() == fresh

    def test_usage_error_after_a_successful_call(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.json", CLASSIC)
        argv = ["verify", inst, "--notion", "ext"]  # --profile missing
        code, fresh = fresh_parse(argv, capsys)
        assert code == 2 and "--profile" in fresh.err
        assert main(["solve-external", inst]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr() == fresh

    def test_no_command_twice(self, capsys):
        assert main([]) == 2
        first = capsys.readouterr()
        assert main([]) == 2
        assert capsys.readouterr() == first
        assert first.out == "" and first.err.startswith("usage: matchgames")


class TestUnwritableOutput:
    """A file that cannot be written is a usage error naming it, not a traceback."""

    @pytest.mark.parametrize(
        "command",
        [
            ["solve-external", "{inst}", "--trace", "{path}"],
            ["solve-external", "{inst}", "-o", "{path}"],
            ["solve-stable", "{inst}", "-o", "{path}"],
            ["join", "{inst}", "--a", "{a}", "--b", "{b}", "-o", "{path}"],
            ["adapt", "ordinal", "{model}", "-o", "{path}"],
        ],
    )
    def test_missing_directory_is_exit_2(self, tmp_path, capsys, command):
        files = {
            "inst": write(tmp_path, "inst.json", CLASSIC),
            "a": write(tmp_path, "a.json", MEN_OPT),
            "b": write(tmp_path, "b.json", WOMEN_OPT),
            "model": write(tmp_path, "model.json", {"model": "ordinal", "men": {"m": ["w"]}, "women": {"w": ["m"]}}),
            "path": str(tmp_path / "missing" / "out"),
        }
        rc = main([arg.format(**files) for arg in command])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {files['path']}: ")
        assert captured.err.count("\n") == 1
