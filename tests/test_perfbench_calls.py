"""perfbench's call forms into `tgr`, checked without running the
benchmark.

perfbench (outside `tests/`) calls `recognizer.recognize` with the
`state_cap`, `execution_cap` and `deadline` keywords, and builds its
inputs through `bench`, `compilation`, `planner` and `executions`. A
signature change that breaks one of those calls would otherwise show up
only when the benchmark runs. Each workload's smallest input must build,
and its first recognition must give the stored reference answer, as
`perfbench/run.py` checks it. The two set-ups that solve compiled tasks
must also do so on the goal-free grounding's transition table, building
none for a compiled grounding.
"""

import json
import sys
from pathlib import Path

import pytest

from tgr import fond

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_first_smoke_recognition_gives_the_reference_answer(name):
    inputs = workloads.build(name, 5, smoke=True)
    item = inputs.items[0]
    res = workloads.recognize(inputs, item)
    reference = json.loads(
        (PERFBENCH / "references" / f"{name}.json").read_text())
    assert [item.inputs_digest(), *workloads.answer(res)] == \
        reference["answers"][item.key]


@pytest.mark.parametrize("name", ["blocks-scale", "logistics-stream"])
def test_set_up_solves_compiled_goals_without_numbering_them(name,
                                                             monkeypatch):
    # Set-up solves the true goals' compiled tasks, which the builtin
    # planner solves as goal products over the goal-free grounding: no
    # compiled grounding builds a transition table of its own.
    built = []

    def recording(model, table=fond.TransitionTable):
        built.append(model)
        return table(model)

    monkeypatch.setattr(fond, "TransitionTable", recording)
    test_first_smoke_recognition_gives_the_reference_answer(name)
    assert built and all(model.compiled_goal is None for model in built)
