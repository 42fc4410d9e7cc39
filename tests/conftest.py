import pytest

from tgr import automata, fond


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with no memoized grounding or automaton, so that
    tests which count grounding, expansion or DFA construction see the
    same work whatever ran before them."""
    fond._memo_ground.cache_clear()
    automata._memo_dfa.cache_clear()
    automata._memo_shape.cache_clear()
