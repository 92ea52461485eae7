import random
from fractions import Fraction

import pytest

from synicl.gecscore import (
    Edit,
    LengthMismatch,
    MalformedBlock,
    extract_edits,
    f_beta,
    parse_m2,
    score_corpus,
)


def apply_edits(source_tokens, edits):
    """Apply non-overlapping span edits to the source token list."""
    out = []
    pos = 0
    for edit in sorted(edits):
        out.extend(source_tokens[pos : edit.start])
        if edit.replacement:
            out.extend(edit.replacement.split(" "))
        pos = edit.end
    out.extend(source_tokens[pos:])
    return out


def lev_oracle(a, b):
    """Plain quadratic Levenshtein distance, written independently."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[len(b)]


# ---------------------------------------------------------------------------
# M2 parsing
# ---------------------------------------------------------------------------

BASIC_M2 = """S This are a sentence .
A 1 2|||SVA|||is|||REQUIRED|||-NONE-|||0

S No smoking in the public places .
A 3 4|||ArtOrDet||||||REQUIRED|||-NONE-|||0
A 2 3|||Prep|||of|||REQUIRED|||-NONE-|||1

S Perfect sentence here .
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0
"""


def test_parse_basic_blocks():
    docs = parse_m2(BASIC_M2)
    assert len(docs) == 3
    assert docs[0].source_tokens == ["This", "are", "a", "sentence", "."]
    assert docs[0].annotations == {0: {Edit(1, 2, "is")}}
    assert docs[1].annotations[0] == {Edit(3, 4, "")}
    assert docs[1].annotations[1] == {Edit(2, 3, "of")}
    assert docs[2].annotations == {0: set()}


def test_parse_none_replacement_and_unk():
    docs = parse_m2("S a b c\nA 0 1|||UNK|||-NONE-|||REQUIRED|||-NONE-|||0\n")
    assert docs[0].annotations == {0: {Edit(0, 1, "")}}


def test_parse_block_without_edits():
    docs = parse_m2("S just a source line\n")
    assert docs[0].annotations == {0: set()}


def test_parse_splits_blocks_at_whitespace_only_lines():
    docs = parse_m2("S a b c\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n \nS d e\n")
    assert [doc.source_tokens for doc in docs] == [["a", "b", "c"], ["d", "e"]]
    assert [doc.annotations for doc in docs] == [{0: {Edit(0, 1, "x")}}, {0: set()}]
    # tabs, several separator lines in a row, CRLF line ends and trailing blank lines
    spaced = "\n\t \n\n".join(BASIC_M2.strip().split("\n\n")) + "\n \n\t\n"
    for text in (spaced, BASIC_M2.replace("\n", "\r\n")):
        assert parse_m2(text) == parse_m2(BASIC_M2)


def test_parse_errors():
    with pytest.raises(MalformedBlock):
        parse_m2("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n")  # no S line
    with pytest.raises(MalformedBlock):
        parse_m2("S a b\nA one two|||X|||y|||REQUIRED|||-NONE-|||0\n")
    with pytest.raises(MalformedBlock):
        parse_m2("S a b\nA 1 0|||X|||y|||REQUIRED|||-NONE-|||0\n")  # end < start
    with pytest.raises(MalformedBlock):
        parse_m2("S a b\nA 0 9|||X|||y|||REQUIRED|||-NONE-|||0\n")  # span past end
    with pytest.raises(MalformedBlock):
        parse_m2("S a b\nnot an A line\n")


# ---------------------------------------------------------------------------
# hypothesis edit extraction
# ---------------------------------------------------------------------------

def test_identical_tokens_no_edits():
    tokens = "a b c d".split()
    assert extract_edits(tokens, tokens) == set()


def test_single_deletion():
    src = "No smoking in the public places .".split()
    hyp = "No smoking in public places .".split()
    assert extract_edits(src, hyp) == {Edit(3, 4, "")}


def test_insertion_run_merged():
    assert extract_edits("a b".split(), "a x y b".split()) == {Edit(1, 1, "x y")}


def test_substitution():
    assert extract_edits("a b c".split(), "a X c".split()) == {Edit(1, 2, "X")}


def test_adjacent_ops_merge_into_one_span():
    src = "the quick brown fox".split()
    hyp = "the very fast fox".split()
    assert extract_edits(src, hyp) == {Edit(1, 3, "very fast")}


def test_empty_sides():
    assert extract_edits([], "a b".split()) == {Edit(0, 0, "a b")}
    assert extract_edits("a b".split(), []) == {Edit(0, 2, "")}
    assert extract_edits([], []) == set()


def test_apply_extract_roundtrip_random():
    rng = random.Random(17)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(2000):
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        edits = extract_edits(src, hyp)
        assert apply_edits(src, edits) == hyp


def test_alignment_cost_minimal_vs_oracle():
    rng = random.Random(18)
    vocab = ["a", "b", "c", "d"]
    for _ in range(500):
        src = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        edits = extract_edits(src, hyp)
        cost = sum(
            max(e.end - e.start, len(e.replacement.split(" ")) if e.replacement else 0)
            for e in edits
        )
        assert cost == lev_oracle(src, hyp)


# ---------------------------------------------------------------------------
# F-beta and corpus scoring
# ---------------------------------------------------------------------------

def test_f_beta_reproduces_reported_score():
    assert f_beta(0.601, 0.492, 0.5) == pytest.approx(0.5755, abs=0.0005)


def test_f_beta_equal_pr_is_identity():
    for x in (0.0, 0.25, 0.5, 0.9, 1.0):
        for beta in (0.5, 1.0, 2.0):
            assert f_beta(x, x, beta) == pytest.approx(x, abs=1e-12)


def test_f_beta_zero_cases():
    assert f_beta(0.0, 0.5, 0.5) == 0.0
    assert f_beta(0.5, 0.0, 0.5) == 0.0
    assert f_beta(0.0, 0.0, 0.5) == 0.0


def test_f_beta_closed_form_grid():
    beta = Fraction(1, 2)
    for pi in range(0, 11):
        for ri in range(0, 11):
            p, r = Fraction(pi, 10), Fraction(ri, 10)
            denom = beta * beta * p + r
            expected = float((1 + beta * beta) * p * r / denom) if denom else 0.0
            assert f_beta(pi / 10, ri / 10, 0.5) == pytest.approx(expected, abs=1e-12)


def apply_gold(doc, annotator=0):
    return " ".join(apply_edits(doc.source_tokens, doc.annotations[annotator]))


def test_perfect_hypotheses_score_one():
    docs = parse_m2(BASIC_M2)
    hyps = [apply_gold(doc) for doc in docs]
    report = score_corpus(hyps, docs)
    assert (report.precision, report.recall, report.f_half) == (1.0, 1.0, 1.0)


def test_unchanged_hypotheses_have_zero_recall():
    docs = parse_m2(BASIC_M2[: BASIC_M2.rindex("S Perfect")])  # drop the noop block
    hyps = [" ".join(doc.source_tokens) for doc in docs]
    report = score_corpus(hyps, docs)
    assert report.tp == 0 and report.fp == 0
    assert report.precision == 1.0
    assert report.recall == 0.0
    assert report.f_half == 0.0


def test_symmetric_counts_give_half():
    # one matched edit, one spurious, one missed, spread over two sentences
    m2 = (
        "S a b c\n"
        "A 0 1|||X|||A|||REQUIRED|||-NONE-|||0\n"
        "A 2 3|||X|||C|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S d e f\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    )
    docs = parse_m2(m2)
    hyps = ["A b c", "d e X"]  # hits (0,1,A); misses (2,3,C); adds (2,3,X)
    report = score_corpus(hyps, docs)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.precision == 0.5 and report.recall == 0.5
    assert report.f_half == pytest.approx(0.5, abs=1e-12)


def test_best_annotator_selected_per_sentence():
    m2 = (
        "S x y z\n"
        "A 0 1|||T|||P|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||T|||Q|||REQUIRED|||-NONE-|||1\n"
    )
    docs = parse_m2(m2)
    # hypothesis matches annotator 1 exactly
    report = score_corpus(["x Q z"], docs)
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)
    assert report.f_half == 1.0


def test_annotator_tie_prefers_lower_id():
    m2 = (
        "S x y\n"
        "A 0 1|||T|||P|||REQUIRED|||-NONE-|||1\n"
        "A 0 1|||T|||P|||REQUIRED|||-NONE-|||3\n"
    )
    docs = parse_m2(m2)
    report = score_corpus(["x y"], docs)  # unchanged: both annotators tie at F=0
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)


def test_score_corpus_length_mismatch():
    docs = parse_m2("S a\n")
    with pytest.raises(LengthMismatch):
        score_corpus(["a", "b"], docs)
