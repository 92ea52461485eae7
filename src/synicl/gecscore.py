"""Edit-based GEC evaluation: M2 gold parsing, hypothesis edits, P/R/F0.5.

Hypothesis edits are extracted with a token-level Levenshtein alignment
(runs of adjacent non-match operations merged into span edits) and matched
against gold edits by exact (start, end, replacement) equality. For each
sentence the annotator maximizing sentence-level F0.5 is chosen; tp/fp/fn
are accumulated corpus-wide. This is a comparable, self-contained metric,
not a byte-exact reimplementation of the official scorers.
M2 files are split into blocks by `treebank._blocks`, which reads CoNLL-U too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Set

from .treebank import InputError, LengthMismatch, _blocks


class MalformedBlock(InputError):
    pass


class Edit(NamedTuple):
    """Token-span edit on the source: replace tokens [start, end) by `replacement`.

    start == end is an insertion; an empty replacement with start < end is a
    deletion. `replacement` is a space-joined token string (possibly empty).
    """

    start: int
    end: int
    replacement: str


@dataclass
class M2Doc:
    source_tokens: List[str]
    annotations: Dict[int, Set[Edit]]  # annotator id -> edit set


def parse_m2(text: str) -> List[M2Doc]:
    """Parse M2 blocks: an 'S' source line plus 'A start end|||type|||repl|||...|||annotator' lines.

    Blocks are separated by blank lines, which may hold spaces or tabs.
    Edits of type "noop" (or with span -1 -1) register the annotator with an
    empty edit set; UNK-type edits are kept like any other.
    """
    docs = []
    for lines in _blocks(text):
        if not lines[0].startswith("S ") and not lines[0] == "S":
            raise MalformedBlock(f"block does not start with an S line: {lines[0]!r}")
        source_tokens = lines[0][2:].split()
        annotations: Dict[int, Set[Edit]] = {}
        for line in lines[1:]:
            if not line.startswith("A "):
                raise MalformedBlock(f"expected an A line, got: {line!r}")
            fields = line[2:].split("|||")
            if len(fields) < 4:
                raise MalformedBlock(f"A line has {len(fields)} fields, need at least 4: {line!r}")
            span = fields[0].split()
            if len(span) != 2:
                raise MalformedBlock(f"bad edit span {fields[0]!r} in: {line!r}")
            try:
                start, end = int(span[0]), int(span[1])
                annotator = int(fields[-1])
            except ValueError as exc:
                raise MalformedBlock(f"non-integer span/annotator in: {line!r}") from exc
            edit_type = fields[1]
            edits = annotations.setdefault(annotator, set())
            if edit_type == "noop" or (start, end) == (-1, -1):
                continue
            if start < 0 or end < start or end > len(source_tokens):
                raise MalformedBlock(f"edit span ({start},{end}) out of range in: {line!r}")
            replacement = fields[2].strip()
            if replacement == "-NONE-":
                replacement = ""
            edits.add(Edit(start, end, replacement))
        if not annotations:
            annotations[0] = set()
        docs.append(M2Doc(source_tokens=source_tokens, annotations=annotations))
    return docs


def extract_edits(source_tokens: Sequence[str], hypothesis_tokens: Sequence[str]) -> Set[Edit]:
    """Span edits from a minimal token-level Levenshtein alignment.

    Tie-broken preferring match > substitute > delete > insert; maximal runs
    of adjacent non-match operations are merged into single span edits.
    """
    n, m = len(source_tokens), len(hypothesis_tokens)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        src_tok = source_tokens[i - 1]
        row = dist[i]
        prev = dist[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (0 if src_tok == hypothesis_tokens[j - 1] else 1)
            row[j] = min(sub, prev[j] + 1, row[j - 1] + 1)

    ops: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and source_tokens[i - 1] == hypothesis_tokens[j - 1] and dist[i - 1][j - 1] == here:
            ops.append("match")
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i - 1][j - 1] + 1 == here:
            ops.append("sub")
            i, j = i - 1, j - 1
        elif i > 0 and dist[i - 1][j] + 1 == here:
            ops.append("del")
            i -= 1
        else:
            ops.append("ins")
            j -= 1
    ops.reverse()

    edits: Set[Edit] = set()
    si = hi = 0
    run_start = None
    run_tokens: List[str] = []
    for op in ops:
        if op == "match":
            if run_start is not None:
                edits.add(Edit(run_start, si, " ".join(run_tokens)))
                run_start, run_tokens = None, []
            si += 1
            hi += 1
        else:
            if run_start is None:
                run_start = si
                run_tokens = []
            if op == "sub":
                run_tokens.append(hypothesis_tokens[hi])
                si += 1
                hi += 1
            elif op == "del":
                si += 1
            else:  # ins
                run_tokens.append(hypothesis_tokens[hi])
                hi += 1
    if run_start is not None:
        edits.add(Edit(run_start, si, " ".join(run_tokens)))
    return edits


def f_beta(p: float, r: float, beta: float = 0.5) -> float:
    """F-beta of precision and recall; 0.0 when the denominator vanishes."""
    denom = beta * beta * p + r
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * p * r / denom


def _ratio(num: int, denom: int) -> float:
    # 0/0 counts as perfect (nothing proposed / nothing required)
    return num / denom if denom else 1.0


@dataclass
class ScoreReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_half: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "ScoreReport":
        p = _ratio(tp, tp + fp)
        r = _ratio(tp, tp + fn)
        return cls(tp=tp, fp=fp, fn=fn, precision=p, recall=r, f_half=f_beta(p, r, 0.5))


def score_corpus(hypotheses: Sequence[str], golds: Sequence[M2Doc]) -> ScoreReport:
    """Corpus-level P/R/F0.5 of hypothesis sentences against M2 gold docs.

    Hypotheses are whitespace-tokenized. Per sentence, the annotator whose
    gold set maximizes the sentence-level F0.5 is selected (ties: lower
    annotator id); the winning tp/fp/fn feed the corpus totals.
    """
    if len(hypotheses) != len(golds):
        raise LengthMismatch(f"{len(hypotheses)} hypotheses vs {len(golds)} gold documents")
    total_tp = total_fp = total_fn = 0
    for hyp, doc in zip(hypotheses, golds):
        hyp_edits = extract_edits(doc.source_tokens, hyp.split())
        best = None
        best_f = -1.0
        for annotator in sorted(doc.annotations):
            gold = doc.annotations[annotator]
            tp = len(hyp_edits & gold)
            fp = len(hyp_edits) - tp
            fn = len(gold) - tp
            f = f_beta(_ratio(tp, tp + fp), _ratio(tp, tp + fn), 0.5)
            if f > best_f:
                best_f = f
                best = (tp, fp, fn)
        assert best is not None
        total_tp += best[0]
        total_fp += best[1]
        total_fn += best[2]
    return ScoreReport.from_counts(total_tp, total_fp, total_fn)
