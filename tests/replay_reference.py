"""Replay a choice word through the reducer, kept as a test reference.

`tropinf.lang.find_word` searches the choice tree for a run; this follows one
given word, so tests can check that every word a report names reaches its
target with its monomial, and that `enumerate_trajectories` agrees with it.
"""

from tropinf.lang import (
    Deterministic,
    NormalForm,
    Program,
    numeral_value,
    reduce_once,
    word_monomial,
)


def replay_word(program: Program, word: tuple, max_steps: int):
    """Follow a choice word through the reducer.

    Returns (normal_form, monomial, steps); normal_form is None when the word
    is inconsistent with the program or the step budget runs out.
    """
    term = program.term
    k = program.params
    steps = 0
    pos = 0
    while steps < max_steps:
        step = reduce_once(term)
        if isinstance(step, NormalForm):
            n = numeral_value(term)
            if n is None or pos != len(word):
                return None, word_monomial(word[:pos], k), steps
            return n, word_monomial(word, k), steps
        if isinstance(step, Deterministic):
            term = step.term
        else:
            if pos >= len(word) or word[pos][0] != step.param:
                return None, word_monomial(word[:pos], k), steps
            term = step.left if word[pos][1] == 0 else step.right
            pos += 1
        steps += 1
    return None, word_monomial(word[:pos], k), steps
