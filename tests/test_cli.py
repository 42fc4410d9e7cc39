"""End-to-end tests for the command line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PDDL_ERRORS
import tgr
from tgr import bench, cli, fond, planner

TIREWORLD = bench.bundled_dataset("triangle-tireworld")
EXAMPLE1 = os.path.join(os.path.dirname(tgr.__file__), "data", "example1")


@pytest.fixture()
def tireworld_files(tmp_path):
    domain = tmp_path / "domain.pddl"
    problem = tmp_path / "p01.pddl"
    domain.write_text(TIREWORLD.domain_text)
    problem.write_text(TIREWORLD.problem_text)
    return str(domain), str(problem)


def test_version_exits_cleanly(capsys):
    assert cli.main(["--version"]) == 0
    assert tgr.__version__ in capsys.readouterr().out


def test_python_m_tgr_runs_the_cli():
    src = os.path.dirname(os.path.dirname(tgr.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tgr", "--version"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"tgr {tgr.__version__}"


def test_import_loads_no_process_modules():
    # Only `bench --jobs N` and `--planner exec:` start processes; they
    # import what they need when they run. Modules that `site` loaded
    # before the import do not count.
    src = os.path.dirname(os.path.dirname(tgr.__file__))
    child = ("import sys; before = set(sys.modules); import tgr, tgr.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "tgr.cli" in new
    assert new.isdisjoint({"concurrent.futures", "multiprocessing",
                           "subprocess", "shlex"})


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_compile_to_stdout(tireworld_files, capsys):
    domain, problem = tireworld_files
    rc = cli.main(["compile", "--domain", domain, "--problem", problem,
                   "--goal", "F(vAt_22)"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "(define (domain" in captured.out
    assert "(define (problem" in captured.out
    assert "automaton: 2 states" in captured.err


def test_compile_writes_files_and_dot(tireworld_files, tmp_path, capsys):
    domain, problem = tireworld_files
    out = tmp_path / "out"
    dot = tmp_path / "dfa.dot"
    rc = cli.main(["compile", "--domain", domain, "--problem", problem,
                   "--goal", "F(vAt_22)", "--goal-id", "g3",
                   "--mode", "parametric",
                   "--out", str(out), "--dot", str(dot)])
    captured = capsys.readouterr()
    assert rc == 0
    paths = captured.out.splitlines()
    assert len(paths) == 2
    assert all("__g3__" in p for p in paths)
    fond.parse_domain(open(paths[0], encoding="utf-8").read())
    fond.parse_problem(open(paths[1], encoding="utf-8").read())
    assert "digraph" in dot.read_text()


def test_compile_bad_formula_is_input_error(tireworld_files, capsys):
    domain, problem = tireworld_files
    rc = cli.main(["compile", "--domain", domain, "--problem", problem,
                   "--goal", "F(vAt_22"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_plan_prints_policy(tireworld_files, capsys):
    domain, problem = tireworld_files
    rc = cli.main(["plan", "--domain", domain, "--problem", problem])
    captured = capsys.readouterr()
    assert rc == 0
    assert "policy:" in captured.err
    grounded = fond.ground(fond.parse_domain(TIREWORLD.domain_text),
                           fond.parse_problem(TIREWORLD.problem_text))
    policy = planner.policy_from_text(captured.out, grounded)
    assert planner.verify_policy(policy).ok


def test_plan_with_temporal_goal(tireworld_files, tmp_path, capsys):
    domain, problem = tireworld_files
    out = tmp_path / "policy.txt"
    rc = cli.main(["plan", "--domain", domain, "--problem", problem,
                   "--goal", "F(vAt_21 & X(F(vAt_22)))", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert "(move 11 21)" in out.read_text()


DATA = os.path.join(os.path.dirname(tgr.__file__), "data")

# sha256 of `tgr plan` stdout, and its stderr, per bundled p01 problem with
# its own goal ("") or per --goal on triangle-tireworld.
PINNED_PLANS = {
    ("triangle-tireworld", ""): (
        "37cc94920d2670cdd39c471ec917900a26a28dd15b063e6e1befd7bf83ee2e1d",
        "policy: 4 states\n"),
    ("blocks-world", ""): (
        "3afe93ed77226e39ca12db047f690929d17a580ffb0f7d6e0baa27d4b7beda6d",
        "policy: 2 states\n"),
    ("logistics", ""): (
        "b916dfb0dc6bb568a19c1bfc0a332e719ebdbc65f110ea4de31fba883838a6a0",
        "policy: 4 states\n"),
    ("triangle-tireworld", "(vAt 22)"): (
        "37cc94920d2670cdd39c471ec917900a26a28dd15b063e6e1befd7bf83ee2e1d",
        "policy: 4 states\n"),
    ("triangle-tireworld", "vAt_22 & !vAt_11"): (
        "37cc94920d2670cdd39c471ec917900a26a28dd15b063e6e1befd7bf83ee2e1d",
        "policy: 4 states\n"),
    ("triangle-tireworld", "F(vAt_21 & X(F(vAt_22)))"): (
        "dd4a0efc85952e72660e7dd133e516e973f58c76c69ebea91dca7a147a1a86d3",
        "policy: 12 states\n"),
}


def plan_argv(dataset, *extra):
    return ["plan", "--domain", os.path.join(DATA, dataset, "domain.pddl"),
            "--problem", os.path.join(DATA, dataset, "p01.pddl"), *extra]


def test_plan_output_is_pinned(capsys):
    got = {}
    for dataset, goal in PINNED_PLANS:
        rc = cli.main(plan_argv(dataset, *(["--goal", goal] if goal else [])))
        captured = capsys.readouterr()
        assert rc == 0
        got[dataset, goal] = (
            hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert got == PINNED_PLANS


@pytest.mark.parametrize("extra, err", [
    (["--state-cap", "2"], "error: reachable state space exceeded 2 states\n"),
    (["--goal", "(vAt 99)"], "error: unknown atom (vAt 99) in goal\n"),
    (["--deadline", "0.000001"], "error: planner deadline exceeded\n"),
])
def test_plan_errors_are_pinned(extra, err, capsys):
    # A missed deadline exits 2, as an unsolvable task does; the rest, 1.
    code = 2 if err.endswith("deadline exceeded\n") else 1
    assert cli.main(plan_argv("triangle-tireworld", *extra)) == code
    assert capsys.readouterr() == ("", err)


def test_recognize_stops_at_the_state_cap(capsys):
    # The cap stops the whole recognition: no goal gets an answer.
    assert cli.main(["recognize", "--bundle", EXAMPLE1,
                     "--state-cap", "2"]) == 1
    assert capsys.readouterr() == (
        "", "error: reachable state space exceeded 2 states\n")


def test_plan_grounds_a_problem_once_per_process(monkeypatch, capsys):
    grounded = []

    def counting(dom, prob, ground=fond.ground):
        grounded.append(prob)
        return ground(dom, prob)

    monkeypatch.setattr(fond, "ground", counting)
    for goal in ([], ["--goal", "(vAt 21)"]):
        assert cli.main(plan_argv("triangle-tireworld", *goal)) == 0
    capsys.readouterr()
    assert len(grounded) == 1 and grounded[0].goal is None


def test_plan_unsolvable_exits_2(tmp_path, capsys):
    domain = tmp_path / "domain.pddl"
    trap = tmp_path / "trap.pddl"
    domain.write_text(TIREWORLD.domain_text)
    trap.write_text(bench.bundled_text("triangle-tireworld", "trap.pddl"))
    rc = cli.main(["plan", "--domain", str(domain), "--problem", str(trap)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


PRUNED = "no strong-cyclic policy: the initial state was pruned"
# No blocks-world p01 state has b1 on b2 and b2 on b1.
IMPOSSIBLE = "F(on_b1_b2 & on_b2_b1)"


def test_plan_goal_that_no_state_meets_exits_2(capsys):
    rc = cli.main(plan_argv("blocks-world", "--goal", IMPOSSIBLE))
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {PRUNED}\n")


def test_recognize_drops_only_a_goal_that_no_state_meets(tmp_path, capsys):
    def recognize(goals):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({
            "domain": os.path.join(DATA, "blocks-world", "domain.pddl"),
            "problem": os.path.join(DATA, "blocks-world", "p01.pddl"),
            "goals": goals, "obs": ["(pick-up-from-table b1)"]}))
        assert cli.main(["recognize", "--bundle", str(bundle)]) == 0
        return json.loads(capsys.readouterr().out)

    goals = ["F(on_b1_b2)", "F(on_b3_b4)"]
    alone = recognize(goals)
    payload = recognize(goals + [IMPOSSIBLE])
    assert payload["gstar"] == alone["gstar"]
    assert payload["likelihoods"] == alone["likelihoods"] + [0.0]
    assert payload["posteriors"] == pytest.approx(alone["posteriors"] + [0.0])
    assert [g["error"] for g in payload["per_goal"]] == [None, None, PRUNED]
    assert not payload["per_goal"][2]["solvable"]


def test_plan_rejects_unknown_planner_spec(tireworld_files, capsys):
    domain, problem = tireworld_files
    rc = cli.main(["plan", "--domain", domain, "--problem", problem,
                   "--planner", "prp"])
    assert rc == 1
    assert "unknown planner" in capsys.readouterr().err


def test_plan_without_any_goal_exits_1(tireworld_files, tmp_path, capsys):
    domain, _ = tireworld_files
    goalless = tmp_path / "goalless.pddl"
    goalless.write_text(
        TIREWORLD.problem_text.replace("(:goal (vAt 22))", ""))
    rc = cli.main(["plan", "--domain", domain, "--problem", str(goalless)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", "error: the problem has no goal; pass one with --goal\n")


def test_missing_input_file_exits_1(tireworld_files, capsys):
    domain, _ = tireworld_files
    rc = cli.main(["plan", "--domain", domain, "--problem", "/nope.pddl"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_recognize_worked_example(capsys):
    rc = cli.main(["recognize", "--bundle", EXAMPLE1])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["gstar"] == [1]
    assert payload["posteriors"][1] == pytest.approx(0.412021, abs=1e-5)
    assert "most likely goal(s): F((vAt 33))" in captured.err
    assert "hit" in captured.err


# sha256 of `tgr recognize`'s JSON on example1 with propositional goals,
# `elapsed_s` zeroed and the keys sorted.
PROPOSITIONAL_EXAMPLE1_SHA256 = (
    "217ba53cc193edc12bd65ca08f7d199feb8489fd3580ca647ff17377f924b6e1")


def test_recognize_propositional_goals_is_pinned(tmp_path, capsys):
    goals = ["vAt_51", "vAt_33", "vAt_15", "vAt_51 | vAt_15"]
    rc = cli.main(["recognize", "--bundle",
                   example1_with(tmp_path, goals=goals)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    payload["elapsed_s"] = 0.0
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PROPOSITIONAL_EXAMPLE1_SHA256


def test_recognize_writes_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = cli.main(["recognize", "--bundle", EXAMPLE1, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert json.loads(out.read_text())["gstar"] == [1]


def test_bench_tiny_config(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "datasets": ["triangle-tireworld"],
        "levels": [100],
        "goals_per_problem": 2,
        "problems_per_dataset": 1,
    }))
    out = tmp_path / "results"
    rc = cli.main(["bench", "--config", str(cfg), "--canonical",
                   "--out", str(out), "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith(bench.SUMMARY_HEADER)
    assert "[1/1] triangle-tireworld #0" in captured.err
    payload = json.loads((out / "records.json").read_text())
    assert payload["config"]["seed"] == 3
    assert (out / "summary.csv").read_text().startswith(bench.SUMMARY_HEADER)


def test_bench_quiet_suppresses_progress(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "datasets": ["triangle-tireworld"],
        "levels": [100],
        "goals_per_problem": 2,
        "problems_per_dataset": 1,
    }))
    rc = cli.main(["bench", "--config", str(cfg), "--quiet", "--canonical"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[1/1]" not in captured.err


def test_bench_timeout_overrides_the_config(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({
        "datasets": ["triangle-tireworld"],
        "levels": [100],
        "goals_per_problem": 2,
        "problems_per_dataset": 1,
        "timeout_s": 600,
    }))
    out = tmp_path / "results"
    rc = cli.main(["bench", "--config", str(cfg), "--canonical", "--quiet",
                   "--out", str(out), "--timeout", "1e-9"])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads((out / "records.json").read_text())
    assert payload["config"]["timeout_s"] == 1e-9
    assert [r["error"] for r in payload["records"]] == ["timeout"]


@pytest.mark.parametrize("case", ["recognize", "bench"])
def test_unwritable_out_exits_1(case, tmp_path, capsys):
    # A directory where recognize writes a file, a file where bench
    # makes its output directory: either way the OS refuses.
    taken = tmp_path / "taken"
    if case == "recognize":
        taken.mkdir()
        argv = ["recognize", "--bundle", EXAMPLE1, "--out", str(taken)]
    else:
        taken.write_text("")
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "datasets": ["triangle-tireworld"], "levels": [100],
            "goals_per_problem": 2, "problems_per_dataset": 1}))
        argv = ["bench", "--config", str(cfg), "--quiet", "--canonical",
                "--out", str(taken)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: [Errno ")
    assert str(taken) in err
    assert "Traceback" not in err


def test_bench_rejects_bad_timeout(capsys):
    rc = cli.main(["bench", "--timeout", "-5"])
    assert rc == 1
    assert "--timeout must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["recognize", "--execution-cap", "0"], "--execution-cap"),
    (["recognize", "--execution-cap", "-4"], "--execution-cap"),
    (["recognize", "--state-cap", "0"], "--state-cap"),
    (["recognize", "--state-cap", "-1"], "--state-cap"),
    (["recognize", "--deadline", "0"], "--deadline"),
    (["recognize", "--deadline", "-2.5"], "--deadline"),
    (["recognize", "--deadline", "nan"], "--deadline"),
    (["recognize", "--deadline", "inf"], "--deadline"),
    (["plan", "--state-cap", "0"], "--state-cap"),
    (["plan", "--deadline", "nan"], "--deadline"),
    (["bench", "--jobs", "0"], "--jobs"),
    (["bench", "--jobs", "-2"], "--jobs"),
    (["bench", "--timeout", "0"], "--timeout"),
    (["bench", "--timeout", "nan"], "--timeout"),
    (["bench", "--timeout", "inf"], "--timeout"),
])
def test_out_of_range_option_exits_1(tireworld_files, capsys, argv, option):
    domain, problem = tireworld_files
    inputs = {"recognize": ["--bundle", EXAMPLE1],
              "plan": ["--domain", domain, "--problem", problem],
              "bench": []}[argv[0]]
    rc = cli.main(argv[:1] + inputs + argv[1:])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be ")


def test_unexpected_error_exits_3(tireworld_files, monkeypatch, capsys):
    domain, problem = tireworld_files

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli.planner, "solve_strong_cyclic", boom)
    rc = cli.main(["plan", "--domain", domain, "--problem", problem])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "wires crossed" in err


def test_plan_exec_without_command_is_input_error(tireworld_files, capsys):
    domain, problem = tireworld_files
    rc = cli.main(["plan", "--domain", domain, "--problem", problem,
                   "--planner", "exec:"])
    assert rc == 1
    assert "--planner exec: needs a command" in capsys.readouterr().err


def example1_with(tmp_path, **fields):
    """Path of a copy of the example1 bundle with `fields` replaced."""
    bundle = json.loads(open(os.path.join(EXAMPLE1, "bundle.json")).read())
    for key in ("domain", "problem"):
        bundle[key] = os.path.normpath(os.path.join(EXAMPLE1, bundle[key]))
    bundle.update(fields)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    return str(path)


@pytest.mark.parametrize("field, value", [
    ("priors", ["x", 1]),
    ("real_goal_index", "a"),
    ("goals", "F(vAt_51)"),
    ("obs", [["(move 11 21)"]]),
    ("domain", "missing.pddl"),
    ("problem", "missing.pddl"),
    ("priors", [float("nan"), 1, 1]),
    ("priors", [float("inf"), 1, 1]),
])
def test_malformed_bundle_field_exits_1(tmp_path, capsys, field, value):
    rc = cli.main(["recognize", "--bundle",
                   example1_with(tmp_path, **{field: value})])
    assert rc == 1
    err = capsys.readouterr().err.replace(str(tmp_path), "")
    assert err.startswith("error:")
    assert field in err


@pytest.mark.parametrize("fields, message", [
    ({"goals": []}, "bundle has an empty goal list"),
    ({"priors": [10 ** 400, 1, 1]}, "priors must be finite numbers"),
    ({"priors": [1, True, 1]}, "priors must be a list of numbers"),
    ({"goals": ["F(vAt_51)", 5]}, "goals must be a list of formula strings"),
    ({"obs": "(move 11 21)"}, "obs must be a list of action strings"),
    ({"real_goal_index": True}, "real_goal_index must be an integer"),
    ({"real_goal_index": 1.0}, "real_goal_index must be an integer"),
    ({"real_goal_index": 3}, "real_goal_index 3 out of range"),
])
def test_bundle_field_messages_are_pinned(tmp_path, capsys, fields, message):
    rc = cli.main(["recognize", "--bundle", example1_with(tmp_path, **fields)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text", ["[]", '"bundle"', "null"])
def test_bundle_that_is_not_an_object_exits_1(tmp_path, capsys, text):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(text)
    rc = cli.main(["recognize", "--bundle", str(bundle)])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: bundle must be a JSON object\n")


NOT_UTF8 = b"\xff\xfe(define"


def bad_input_argv(case, tmp_path):
    """Arguments of a run whose input file cannot be read: bad JSON, or a
    file that is not UTF-8."""
    domain, problem = tmp_path / "domain.pddl", tmp_path / "p01.pddl"
    domain.write_text(TIREWORLD.domain_text)
    problem.write_text(TIREWORLD.problem_text)
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    config = tmp_path / "bench.json"
    if case == "bench-config-json":
        config.write_text('{"seed": }')
    elif case == "bench-config-deep":
        config.write_text("[" * 100_000)
    elif case == "bench-config-utf8":
        config.write_bytes(NOT_UTF8)
    else:
        config.write_text(json.dumps({"datasets": [
            {"name": "x", "domain": "bad", "problem": "p01.pddl"}]}))
    return {
        "bench-config-json": ["bench", "--config", str(config)],
        "bench-config-deep": ["bench", "--config", str(config)],
        "bench-config-utf8": ["bench", "--config", str(config)],
        "bench-dataset-utf8": ["bench", "--config", str(config)],
        "bundle-utf8": ["recognize", "--bundle", str(bad)],
        "bundle-domain-utf8": ["recognize", "--bundle",
                               example1_with(tmp_path, domain=str(bad))],
        "compile-utf8": ["compile", "--domain", str(bad), "--problem",
                         str(problem), "--goal", "F((vAt 22))"],
        "plan-utf8": ["plan", "--domain", str(domain), "--problem",
                      str(bad)],
    }[case]


@pytest.mark.parametrize("case, message", [
    ("bench-config-json", "bench config is not valid JSON"),
    ("bench-config-deep", "bench config is not valid JSON"),
    ("bench-config-utf8", "cannot read the bench config file"),
    ("bench-dataset-utf8", "cannot read the dataset x domain file"),
    ("bundle-utf8", "cannot read the bundle file"),
    ("bundle-domain-utf8", "cannot read the domain file"),
    ("compile-utf8", "cannot read the domain file"),
    ("plan-utf8", "cannot read the problem file"),
])
def test_unreadable_input_file_exits_1(case, message, tmp_path, capsys):
    rc = cli.main(bad_input_argv(case, tmp_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_bad_propositional_goal_is_dropped_per_goal(tmp_path, capsys):
    goals = ["F(vAt_51)", "F(vAt_33)", "F(vAt_15)", "(vAt 99)"]
    rc = cli.main(["recognize", "--bundle",
                   example1_with(tmp_path, goals=goals)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g["error"] for g in payload["per_goal"]] == [
        None, None, None, "goal atom (vAt 99): '99' is not a declared object"]
    assert payload["gstar"] == [1]


@pytest.mark.parametrize("goal, depth, rc", [
    ("bundle", 150, 1),
    ("bundle", 140, 0),
    ("pddl", 1000, 1),
])
def test_deeply_nested_goal_exits_1_not_3(tireworld_files, tmp_path, goal,
                                          depth, rc):
    # A fresh interpreter, so that the parsers start from the CLI's stack
    # depth, not the test runner's.
    if goal == "bundle":
        nested = "F(" * depth + "vAt_22" + ")" * depth
        argv = ["recognize", "--bundle",
                example1_with(tmp_path, goals=[nested, "F(vAt_51)"])]
    else:
        domain, _ = tireworld_files
        problem = tmp_path / "deep.pddl"
        problem.write_text(TIREWORLD.problem_text.replace(
            "(:goal (vAt 22))",
            "(:goal " + "(and " * depth + "(vAt 22)" + ")" * depth + ")"))
        argv = ["plan", "--domain", domain, "--problem", str(problem)]
    src = os.path.dirname(os.path.dirname(tgr.__file__))
    proc = subprocess.run([sys.executable, "-m", "tgr", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == rc, proc.stderr
    assert "Traceback" not in proc.stderr
    if rc:
        assert proc.stderr.startswith("error:")
        assert "nested too deeply" in proc.stderr


# Characters a fuzzed edit inserts or writes: PDDL and formula syntax,
# JSON syntax, digits, letters of the example's names, and a few that no
# parser expects.
FUZZ_CHARS = st.sampled_from(list(
    "()[]{}\",:;-_ ?!&|~XFGUWRSYOH0123456789aehtvAt\n\t\\\x00\u00e9"))
EDITS = st.lists(st.tuples(st.sampled_from(("insert", "delete", "replace")),
                           st.integers(min_value=0), FUZZ_CHARS),
                 min_size=1, max_size=4)


def edited(text, edits):
    """`text` after each (operation, position, character) edit in turn;
    positions wrap around the text's current length."""
    chars = list(text)
    for op, at, char in edits:
        if op == "insert":
            chars.insert(at % (len(chars) + 1), char)
        elif chars and op == "delete":
            del chars[at % len(chars)]
        elif chars:
            chars[at % len(chars)] = char
    return "".join(chars)


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(("bundle", "goal", "obs", "domain", "problem")),
       which=st.integers(min_value=0, max_value=2), edits=EDITS)
def test_mutated_recognize_input_never_exits_3(tmp_path_factory, target,
                                               which, edits):
    """A few character edits to example1's bundle JSON, one of its goal or
    observation strings, or the tireworld domain or problem text give an
    answer or an error, never an internal error."""
    bundle = json.loads(open(os.path.join(EXAMPLE1, "bundle.json")).read())
    bundle.update(domain="domain.pddl", problem="p01.pddl")
    texts = {"domain": TIREWORLD.domain_text,
             "problem": TIREWORLD.problem_text}
    if target in ("goal", "obs"):
        strings = bundle[target + "s" if target == "goal" else target]
        i = which % len(strings)
        strings[i] = edited(strings[i], edits)
    bundle_text = json.dumps(bundle)
    if target == "bundle":
        bundle_text = edited(bundle_text, edits)
    elif target in texts:
        texts[target] = edited(texts[target], edits)
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "domain.pddl").write_text(texts["domain"], encoding="utf-8")
    (folder / "p01.pddl").write_text(texts["problem"], encoding="utf-8")
    (folder / "bundle.json").write_text(bundle_text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["recognize", "--bundle", str(folder / "bundle.json"),
                       "--deadline", "10"])
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("domain, problem, error, message", PDDL_ERRORS)
def test_plan_rejects_bad_pddl_with_exit_1(domain, problem, error, message,
                                           tmp_path, capsys):
    (tmp_path / "domain.pddl").write_text(domain)
    (tmp_path / "problem.pddl").write_text(problem)
    assert cli.main(["plan", "--domain", str(tmp_path / "domain.pddl"),
                     "--problem", str(tmp_path / "problem.pddl")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
