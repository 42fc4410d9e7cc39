import pytest

from tgr import automata, compilation, fond


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with no memoized grounding, automaton or goal
    atom check, so that tests which count grounding, expansion, DFA
    construction or validation see the same work whatever ran before
    them."""
    fond._memo_ground.cache_clear()
    automata._memo_dfa.cache_clear()
    automata._memo_shape.cache_clear()
    compilation._memo_validate.cache_clear()
