"""The word algebra against a reference copy of its earlier letter form.

A reference word is the tuple of its 0/1 letters, and each operation is
the plain loop over letters that `Word`, which stores runs, replaced.
Every 0/1 word up to length 12 is compared in both variants.
"""

from itertools import product

import pytest

from baxtertrees.monomial import (
    Word, beta_word, concat_words, normalize_word, render_word,
    word_bidegree, word_quotient,
)

WORDS = [bits for n in range(13) for bits in product((0, 1), repeat=n)]
SHORT = [bits for bits in WORDS if len(bits) <= 6]


# -- the letter-tuple reference ---------------------------------------------

def _collapsed(letters):
    out = []
    for b in letters:
        if not out or out[-1] != b:
            out.append(b)
    return tuple(out)


def _normalized(variant, letters):
    return letters if variant == "infinity" else _collapsed(letters)


def _render(letters):
    if not letters:
        return "1"
    parts = []
    k = 0
    while k < len(letters):
        j = k
        while j < len(letters) and letters[j] == letters[k]:
            j += 1
        base = f"x{letters[k]}"
        parts.append(base if j - k == 1 else f"{base}^{j - k}")
        k = j
    return " ".join(parts)


def _bidegree(letters):
    blocks = 0
    prev = 0
    for b in letters:
        if b == 1 and prev != 1:
            blocks += 1
        prev = b
    return (len(letters), blocks)


def _is_normal(variant, letters):
    return variant == "infinity" or all(a != b for a, b in zip(letters, letters[1:]))


def _sort_key(letters):
    return (-len(letters), -_bidegree(letters)[1], letters)


def _is(w, letters, variant):
    """``w`` is the word of ``letters`` in ``variant``, its runs merged."""
    runs = w.runs
    return (w.variant == variant and w.letters == letters
            and all(k >= 1 for _, k in runs)
            and all(a[0] != b[0] for a, b in zip(runs, runs[1:])))


# -- the comparisons ----------------------------------------------------------

@pytest.mark.parametrize("variant", ["infinity", "two"])
def test_each_word_matches_the_reference(variant):
    for bits in WORDS:
        w = Word(bits, variant)
        assert _is(w, bits, variant)
        assert render_word(w) == _render(bits)
        assert word_bidegree(w) == _bidegree(bits)
        assert w.is_normal == _is_normal(variant, bits)
        assert _is(word_quotient(w), _collapsed(bits), "two")
        assert _is(normalize_word(w), _normalized(variant, bits), variant)
        assert _is(beta_word(w), _normalized(variant, (1,) * len(bits)), variant)


@pytest.mark.parametrize("variant", ["infinity", "two"])
def test_display_order_matches_the_reference(variant):
    words = sorted((Word(bits, variant) for bits in WORDS), key=Word.sort_key)
    assert [w.letters for w in words] == sorted(WORDS, key=_sort_key)


@pytest.mark.parametrize("variant", ["infinity", "two"])
def test_concat_matches_the_reference(variant):
    for a in SHORT:
        wa = Word(a, variant)
        for b in SHORT:
            assert _is(concat_words(wa, Word(b, variant)),
                       _normalized(variant, a + b), variant)
