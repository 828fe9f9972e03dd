"""Choice words of single runs, kept as test references.

`tropinf.lang.find_words` searches the choice tree for the runs of several
weights at once.  `replay_word` follows one given word, so tests can check
that every word a report names reaches its target with its monomial, and that
`enumerate_trajectories` agrees with it.  `find_word` is `find_words` for one
weight, so tests can check the shared search against one search per weight.
"""

from tropinf.lang import (
    Deterministic,
    NormalForm,
    Program,
    find_words,
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


def find_word(program: Program, target: int, monomial: tuple, max_steps: int):
    """The smallest choice word of a run to `target` whose weight is exactly
    `monomial`, or None within the step budget of each path: `find_words`
    for one monomial."""
    return find_words(program, target, [monomial], max_steps).get(tuple(monomial))
