"""Tests for benchmark configuration, generation, and aggregation."""

import json
import os
import random

import pytest

import tgr
from tgr import automata, bench, compilation, fond, logic, planner, recognizer
from tgr.errors import BundleError

TIREWORLD = bench.bundled_dataset("triangle-tireworld")
TIREWORLD_DOMAIN = os.path.join(os.path.dirname(tgr.__file__), "data",
                                "triangle-tireworld", "domain.pddl")


def tiny_config(**overrides):
    raw = {
        "datasets": ["triangle-tireworld"],
        "seed": 7,
        "levels": [50, 100],
        "goals_per_problem": 2,
        "problems_per_dataset": 2,
    }
    raw.update(overrides)
    return bench.config_from_dict(raw)


def test_default_config_matches_bundled_file():
    cfg = bench.load_config()
    assert [d.name for d in cfg.datasets] == list(bench.BUNDLED_DATASETS)
    assert cfg.seed == 0
    assert cfg.levels == bench.DEFAULT_LEVELS
    assert cfg.goals_per_problem == 4
    assert cfg.problems_per_dataset == 30
    assert cfg.timeout_s == 600.0


def test_config_rejects_bad_input():
    with pytest.raises(BundleError, match="unknown bench config keys"):
        bench.config_from_dict({"speed": 3})
    with pytest.raises(BundleError, match="non-empty list"):
        bench.config_from_dict({"levels": []})
    with pytest.raises(BundleError, match="1..100"):
        bench.config_from_dict({"levels": [0]})
    with pytest.raises(BundleError, match="1..100"):
        bench.config_from_dict({"levels": [50.0]})
    with pytest.raises(BundleError, match="positive integer"):
        bench.config_from_dict({"goals_per_problem": 0})
    with pytest.raises(BundleError, match="positive number"):
        bench.config_from_dict({"timeout_s": 0})
    with pytest.raises(BundleError, match="seed must be an integer"):
        bench.config_from_dict({"seed": "zero"})
    with pytest.raises(BundleError, match="must be a JSON object"):
        bench.config_from_dict([1, 2])
    with pytest.raises(BundleError, match="^dataset name must be a string$"):
        bench.config_from_dict({"datasets": [
            {"name": ["x"], "domain": "d.pddl", "problem": "p.pddl"}]})
    with pytest.raises(BundleError,
                       match="^dataset x domain must be a path string$"):
        bench.config_from_dict({"datasets": [
            {"name": "x", "domain": 5, "problem": "p.pddl"}]})
    with pytest.raises(BundleError,
                       match="^dataset x problem must be a path string$"):
        bench.config_from_dict({"datasets": [
            {"name": "x", "domain": TIREWORLD_DOMAIN, "problem": None}]})


@pytest.mark.parametrize("text, message", [
    ('{"timeout_s": NaN}', "timeout_s must be a finite positive number"),
    ('{"timeout_s": Infinity}', "timeout_s must be a finite positive number"),
    ('{"timeout_s": 1e999}', "timeout_s must be a finite positive number"),
    ('{"timeout_s": 1%s}' % ("0" * 400),
     "timeout_s must be a finite positive number"),
    ('{"timeout_s": true}', "timeout_s must be a finite positive number"),
    ('{"seed": true}', "seed must be an integer"),
    ('{"levels": [true]}', "level True is not an integer in 1..100"),
    ('{"goals_per_problem": true}',
     "goals_per_problem must be a positive integer"),
    ('{"problems_per_dataset": true}',
     "problems_per_dataset must be a positive integer"),
    ('{"state_cap": true}', "state_cap must be a positive integer"),
    ('{"execution_cap": true}', "execution_cap must be a positive integer"),
])
def test_config_rejects_booleans_and_non_finite_timeouts(text, message):
    # The rule load_bundle applies: a boolean is not a number here.
    with pytest.raises(BundleError) as err:
        bench.config_from_dict(json.loads(text))
    assert str(err.value) == message


@pytest.mark.parametrize("raw, message", [
    ({"datasets": []}, "datasets must be a non-empty list"),
    ({"datasets": "blocks-world"}, "datasets must be a non-empty list"),
    ({"levels": (10, 50)}, "levels must be a non-empty list of percentages"),
    ({"levels": "10"}, "levels must be a non-empty list of percentages"),
    ({"timeout_s": "600"}, "timeout_s must be a finite positive number"),
    ({"timeout_s": -1.5}, "timeout_s must be a finite positive number"),
    ({"seed": 1.0}, "seed must be an integer"),
    ({"state_cap": 2.0}, "state_cap must be a positive integer"),
])
def test_config_field_messages_are_pinned(raw, message):
    with pytest.raises(BundleError) as err:
        bench.config_from_dict(raw)
    assert str(err.value) == message


@pytest.mark.parametrize("raw, message", [
    ({"speed": 3, "levels": []}, "unknown bench config keys: speed"),
    ({"levels": [], "timeout_s": 0},
     "levels must be a non-empty list of percentages"),
    ({"levels": [10, 0, 200]}, "level 0 is not an integer in 1..100"),
    ({"timeout_s": 0, "datasets": []},
     "timeout_s must be a finite positive number"),
    ({"datasets": [], "seed": "x"}, "datasets must be a non-empty list"),
    ({"seed": "x", "goals_per_problem": 0}, "seed must be an integer"),
    ({"goals_per_problem": 0, "problems_per_dataset": 0},
     "goals_per_problem must be a positive integer"),
    ({"problems_per_dataset": 0, "state_cap": 0},
     "problems_per_dataset must be a positive integer"),
    ({"state_cap": 0, "execution_cap": 0},
     "state_cap must be a positive integer"),
])
def test_config_names_the_first_bad_field_in_a_fixed_order(raw, message):
    # Keys are checked in this order whatever order the file lists them.
    for ordered in (raw, dict(reversed(list(raw.items())))):
        with pytest.raises(BundleError) as err:
            bench.config_from_dict(ordered)
        assert str(err.value) == message


def test_config_levels_are_deduplicated_and_sorted():
    cfg = bench.config_from_dict({"levels": [100, 10, 10, 50]})
    assert cfg.levels == (10, 50, 100)


def test_dataset_entries():
    with pytest.raises(BundleError, match="unknown bundled dataset"):
        bench.bundled_dataset("freecell")
    with pytest.raises(BundleError, match="missing domain, problem"):
        bench.config_from_dict({"datasets": [{"name": "x"}]})
    with pytest.raises(BundleError, match="bundled names or"):
        bench.config_from_dict({"datasets": [17]})
    with pytest.raises(BundleError, match="unique"):
        bench.config_from_dict(
            {"datasets": ["blocks-world", "blocks-world"]})
    for name in bench.BUNDLED_DATASETS:
        spec = bench.bundled_dataset(name)
        fond.parse_domain(spec.domain_text)
        fond.parse_problem(spec.problem_text)


def test_config_file_paths_resolve_relative_to_config(tmp_path):
    (tmp_path / "d.pddl").write_text(TIREWORLD.domain_text)
    (tmp_path / "p.pddl").write_text(TIREWORLD.problem_text)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "datasets": [{"name": "local", "domain": "d.pddl",
                      "problem": "p.pddl"}],
    }))
    cfg = bench.load_config(str(cfg_path))
    assert cfg.datasets[0].name == "local"
    assert cfg.datasets[0].domain_text == TIREWORLD.domain_text


def test_goal_pool_contents():
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    pool = bench.goal_pool(dom, prob)
    names = {str(a) for a in pool}
    assert "(vAt 22)" in names
    assert "flat" in names  # zero-arity atoms render bare
    # initially true atoms and never-added (static) predicates are excluded
    assert "(vAt 11)" not in names
    assert not any(a.predicate in ("road", "spare") for a in pool)
    assert [str(a) for a in pool] == sorted(str(a) for a in pool)


def test_goal_templates_have_expected_shape():
    import random

    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    pool = bench.goal_pool(dom, prob)
    rng = random.Random(1)
    dialects = {
        "eventually": "LTLf", "conj": "LTLf", "ordered": "LTLf",
        "until": "LTLf", "once": "PLTLf", "since": "PLTLf",
    }
    for name in bench.TEMPLATES:
        f = bench._template(name, rng, pool)
        assert logic.dialect(f) == dialects[name]
    with pytest.raises(ValueError, match="unknown goal template"):
        bench._template("someday", rng, pool)


def test_generate_problem_is_deterministic():
    cfg = tiny_config()
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    a = bench.generate_problem(dom, prob, cfg, "triangle-tireworld", 0)
    b = bench.generate_problem(dom, prob, cfg, "triangle-tireworld", 0)
    assert a == b
    assert len(a.goals) == cfg.goals_per_problem
    assert len(set(a.goals)) == len(a.goals)
    assert 0 <= a.true_index < cfg.goals_per_problem
    for text in a.goals:
        logic.parse_formula(text)


def test_observations_are_subsequences_of_the_full_level():
    cfg = tiny_config(levels=[10, 50, 100])
    dom = fond.parse_domain(TIREWORLD.domain_text)
    prob = fond.parse_problem(TIREWORLD.problem_text)
    gen = bench.generate_problem(dom, prob, cfg, "triangle-tireworld", 1)
    full = gen.obs_by_level[100]
    assert full
    for level in (10, 50):
        obs = gen.obs_by_level[level]
        assert 1 <= len(obs) <= len(full)
        it = iter(enumerate(full))
        for o in obs:
            assert any(x == o for _, x in it)


def test_run_benchmark_records_and_summary():
    cfg = tiny_config()
    records, rows = bench.run_benchmark(cfg)
    assert len(records) == 2 * 2  # problems x levels
    for rec in records:
        assert rec["dataset"] == "triangle-tireworld"
        assert rec["level"] in (50, 100)
        assert rec["error"] is None
        assert len(rec["posteriors"]) == 2
        assert sum(rec["posteriors"]) == pytest.approx(1.0)
        assert rec["hit"] == (rec["true_goal"] in rec["gstar"])
        assert rec["planner_calls"] == 2
    keys = [(r["dataset"], r["problem"], r["level"]) for r in records]
    assert keys == sorted(keys)
    assert [r["level"] for r in rows] == [50, 100]
    for row in rows:
        assert row["goals"] == 2.0
        assert 0.0 <= row["tpr"] <= 1.0
        assert row["fnr"] == pytest.approx(1.0 - row["tpr"])


def test_evaluate_problem_matches_per_level_recognize():
    cfg = tiny_config()
    domain = fond.parse_domain(TIREWORLD.domain_text)
    problem = fond.parse_problem(TIREWORLD.problem_text)
    for index in range(cfg.problems_per_dataset):
        gen = bench.generate_problem(domain, problem, cfg,
                                     "triangle-tireworld", index)
        goals = tuple(logic.parse_formula(g) for g in gen.goals)
        records = bench.evaluate_problem(gen, cfg, canonical=True)
        assert [r["level"] for r in records] == list(cfg.levels)
        for rec in records:
            res = recognizer.recognize(
                recognizer.RecognitionProblem(
                    domain=domain, problem=problem, goals=goals,
                    obs=gen.obs_by_level[rec["level"]]),
                state_cap=cfg.state_cap, execution_cap=cfg.execution_cap)
            assert rec["error"] is None
            assert rec["gstar"] == list(res.gstar)
            assert rec["posteriors"] == [a.posterior for a in res.analyses]
            assert rec["hit"] == (gen.true_index in res.gstar)
            assert rec["planner_calls"] == res.planner_calls == len(goals)
            assert rec["time_s"] == 0.0


def fail(*args, **kwargs):
    raise AssertionError("evaluation grounded, built a DFA or planned")


def test_evaluate_problem_only_scores(monkeypatch):
    cfg = tiny_config()
    domain = fond.parse_domain(TIREWORLD.domain_text)
    problem = fond.parse_problem(TIREWORLD.problem_text)
    gen = bench.generate_problem(domain, problem, cfg, "triangle-tireworld", 0)
    want = bench.evaluate_problem(gen, cfg, canonical=True)
    for module, name in ((planner, "solve_strong_cyclic"), (fond, "ground"),
                         (compilation, "GoalProduct"),
                         (automata, "formula_to_dfa")):
        monkeypatch.setattr(module, name, fail)
    got = bench.evaluate_problem(gen, cfg, canonical=True)
    assert got == want
    assert [r["planner_calls"] for r in got] == [2, 2]


def test_each_problem_is_grounded_once(monkeypatch):
    grounds = []
    real_ground = fond.ground

    def counting(*args, **kwargs):
        grounds.append(args)
        return real_ground(*args, **kwargs)

    monkeypatch.setattr(fond, "ground", counting)
    cfg = tiny_config(datasets=["triangle-tireworld", "logistics"])
    bench.run_benchmark(cfg)
    # a dataset's problems pose one PDDL problem, grounded without a goal
    assert [(domain.name, problem.goal) for domain, problem in grounds] == \
        [("triangle-tireworld", None), ("logistics", None)]


def test_same_seed_runs_are_byte_identical():
    cfg = tiny_config()
    rec1, rows1 = bench.run_benchmark(cfg, canonical=True)
    rec2, rows2 = bench.run_benchmark(cfg, canonical=True)
    assert bench.records_json(cfg, rec1, canonical=True) == \
        bench.records_json(cfg, rec2, canonical=True)
    assert bench.summary_csv(rows1) == bench.summary_csv(rows2)


def test_parallel_run_matches_serial():
    cfg = tiny_config()
    serial, _ = bench.run_benchmark(cfg, canonical=True)
    parallel, _ = bench.run_benchmark(cfg, jobs=2, canonical=True)
    assert bench.records_json(cfg, serial, canonical=True) == \
        bench.records_json(cfg, parallel, canonical=True)


def test_parallel_run_reports_progress_in_problem_order():
    calls = {1: [], 2: []}
    for jobs, seen in calls.items():
        bench.run_benchmark(tiny_config(), jobs=jobs, canonical=True,
                            progress=lambda *args, seen=seen: seen.append(args))
    assert calls[2] == calls[1] == [("triangle-tireworld", 0),
                                    ("triangle-tireworld", 1)]


def test_timeout_counts_as_miss():
    cfg = tiny_config(timeout_s=1e-6, problems_per_dataset=1)
    records, rows = bench.run_benchmark(cfg)
    assert records
    for rec in records:
        assert rec["error"] is not None
        assert rec["hit"] is False
        assert rec["gstar"] == []
        assert rec["planner_calls"] == 0
    assert all(row["tpr"] == 0.0 for row in rows)


def test_summary_csv_format():
    rows = [{"dataset": "d", "level": 70, "goals": 4.0, "obs": 3.25,
             "time_s": 0.12345, "tpr": 1 / 3, "fpr": 0.0, "fnr": 2 / 3}]
    text = bench.summary_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "dataset,level,|G|,|Obs|,time_s,tpr,fpr,fnr"
    assert lines[1] == "d,70,4.0,3.2,0.123,0.3333,0.0000,0.6667"
    assert text.endswith("\n")


def test_summarize_groups_by_dataset_and_level():
    def rec(dataset, level, hit, fpr):
        return {"dataset": dataset, "level": level, "goals": ["a"] * 4,
                "observations": ["x"], "hit": hit, "fpr": fpr, "time_s": 0.0}

    rows = bench.summarize([
        rec("b", 10, True, 0.0), rec("b", 10, False, 1 / 3),
        rec("a", 10, True, 0.0),
    ])
    assert [(r["dataset"], r["level"]) for r in rows] == [("a", 10), ("b", 10)]
    assert rows[1]["tpr"] == pytest.approx(0.5)
    assert rows[1]["fnr"] == pytest.approx(0.5)
    assert rows[1]["fpr"] == pytest.approx(1 / 6)


def test_write_outputs_and_records_json(tmp_path):
    cfg = tiny_config(problems_per_dataset=1)
    records, rows = bench.run_benchmark(cfg, canonical=True)
    rec_path, sum_path = bench.write_outputs(
        str(tmp_path / "out"), cfg, records, rows, canonical=True)
    payload = json.loads(open(rec_path, encoding="utf-8").read())
    assert payload["canonical"] is True
    assert payload["config"]["seed"] == 7
    assert payload["records"] == records
    assert all(r["time_s"] == 0.0 for r in payload["records"])
    with open(sum_path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == bench.SUMMARY_HEADER


def one_shot_task(precondition):
    """A domain whose actions each add one of (p1) (p2) (p3) under
    `precondition` and delete (ready), and its problem, where only
    (ready) holds initially."""
    actions = " ".join(
        f"(:action mk{i} :parameters () :precondition {precondition} "
        f":effect (and (p{i}) (not (ready))))" for i in (1, 2, 3))
    domain = fond.parse_domain(
        "(define (domain once) (:requirements :strips) "
        f"(:predicates (p1) (p2) (p3) (ready) (q)) {actions})")
    problem = fond.parse_problem(
        "(define (problem once-p) (:domain once) (:init (ready)))")
    return domain, problem


def test_a_template_that_is_never_solved_falls_back_to_reachability():
    # The first action deletes (ready), which every action needs, so no
    # two atoms both come to hold: every `conj` draw fails, and the first
    # reachability goal over the shuffled pool is taken.
    domain, problem = one_shot_task("(ready)")
    pool = bench.goal_pool(domain, problem)
    assert [str(a) for a in pool] == ["p1", "p2", "p3"]
    model, _, execs = bench._draw_goal(
        fond.goal_free_grounding(domain, problem), bench.BenchConfig(),
        random.Random(3), pool, [], "conj", "once",
        want_executions=True)
    assert str(model.formula) == "F(p1)" and model.solvable
    assert [e.actions for e in execs] == [("(mk1)",)]
    # A goal already drawn is skipped: the next fallback atom is taken.
    model, _, execs = bench._draw_goal(
        fond.goal_free_grounding(domain, problem), bench.BenchConfig(),
        random.Random(3), pool, ["F(p1)"], "conj", "once",
        want_executions=True)
    assert str(model.formula) == "F(p3)" and model.solvable
    assert [e.actions for e in execs] == [("(mk3)",)]
    # A state cap that every solve hits leaves no candidate.
    with pytest.raises(BundleError) as err:
        bench._draw_goal(
            fond.goal_free_grounding(domain, problem),
            bench.BenchConfig(state_cap=1), random.Random(3), pool, [],
            "conj", "once", want_executions=True)
    assert str(err.value) == (
        "dataset once: could not generate a solvable goal (template "
        "'conj' and every fallback atom failed)")


def test_a_dataset_with_no_solvable_goal_is_a_bundle_error():
    # (q) never holds, so no action ever applies.
    domain, problem = one_shot_task("(q)")
    with pytest.raises(BundleError) as err:
        bench.generate_problem(domain, problem, tiny_config(), "once", 0)
    assert str(err.value) == (
        "dataset once: could not generate a solvable goal (template "
        "'eventually' and every fallback atom failed)")


def test_a_pool_of_two_atoms_is_a_bundle_error():
    domain = fond.parse_domain(
        "(define (domain two) (:predicates (p1) (p2)) "
        "(:action a :parameters () :precondition (and) "
        ":effect (and (p1) (p2))))")
    problem = fond.parse_problem("(define (problem two-p) (:domain two) "
                                 "(:init))")
    with pytest.raises(BundleError) as err:
        bench.generate_problem(domain, problem, tiny_config(), "two", 0)
    assert str(err.value) == ("dataset two: goal templates need at least 3 "
                              "candidate atoms, found 2")
