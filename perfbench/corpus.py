"""Seeded synthetic GEC corpora for the benchmark.

Sentences are Zipf-distributed words under random-attachment dependency
trees labelled with Universal Dependencies relations plus the error labels
S/R/M. About half of the targets carry one unambiguous edit (a deleted or an
inserted word that differs from its neighbours), so the token alignment of
source and target is unique and a hypothesis equal to the target scores
F0.5 = 1.0 against the gold M2 file written here. Optional embeddings are
the mean of per-word random vectors plus noise, so that dense retrieval
finds lexically related sentences as a real encoder would.

The same seed gives byte-identical files. Run as a script to write the
inputs of one workload:

    python3 perfbench/corpus.py --out DIR --seed N --train 5000 --test 500 \
        --min-tokens 3 --max-tokens 40 [--embedding-dim 384]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from synicl.treebank import Corpus, DepNode, DepTree, Example, LabelVocab, save_bundle  # noqa: E402

DEP_LABELS = [
    "punct", "case", "det", "nsubj", "advmod", "obj", "obl", "amod",
    "compound", "conj", "mark", "cc", "aux", "nmod", "cop", "xcomp", "ccomp",
    "advcl", "acl", "nummod", "expl", "appos", "fixed", "flat", "iobj",
    "csubj", "parataxis", "discourse", "vocative", "list", "orphan", "goeswith",
    "reparandum", "dep", "acl:relcl", "aux:pass", "nsubj:pass", "obl:tmod",
    "compound:prt", "det:predet", "nmod:poss", "S", "R", "M",
]
ROOT_LABEL = "Root"
N_WORDS = 6000
# words inserted by target edits come from the frequent head of the vocabulary
N_INSERT_WORDS = 200

TRAIN_DIR = "train"
TEST_DIR = "test"
GOLD_M2 = "gold.m2"
REPLIES = "replies.json"


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int
    n_test: int
    min_tokens: int
    max_tokens: int
    embedding_dim: int = 0


@dataclass
class Sentence:
    words: List[str]
    heads: List[int]  # 0 for the root, else 1-based head index
    labels: List[str]
    target: List[str]
    edit: Tuple[int, int, str] | None  # gold span edit on the source, if any
    embedding: np.ndarray | None


class Generator:
    """Draws sentences from one seeded stream (train first, then test)."""

    def __init__(self, seed: int, embedding_dim: int):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.words = [f"word{i}" for i in range(N_WORDS)]
        total = 0.0
        self.word_cum = []
        for rank in range(N_WORDS):
            total += 1.0 / (rank + 1.0)
            self.word_cum.append(total)
        # skew toward frequent relations; the error labels stay rare
        self.label_weights = [1.0 / (r + 2.0) for r in range(len(DEP_LABELS))]
        self.embedding_dim = embedding_dim
        self.word_vectors = (
            self.np_rng.normal(size=(N_WORDS, embedding_dim)) if embedding_dim else None
        )

    def sentence(self, min_tokens: int, max_tokens: int) -> Sentence:
        rng = self.rng
        n = rng.randint(min_tokens, max_tokens)
        idx = rng.choices(range(N_WORDS), cum_weights=self.word_cum, k=n)
        words = [self.words[i] for i in idx]
        heads = [0] + [rng.randrange(i) + 1 for i in range(1, n)]
        labels = [ROOT_LABEL] + rng.choices(DEP_LABELS, weights=self.label_weights, k=n - 1)
        target, edit = self._edit(words)
        embedding = None
        if self.word_vectors is not None:
            noise = self.np_rng.normal(scale=0.1, size=self.embedding_dim)
            # text-exported embeddings carry about six decimals
            embedding = np.round(self.word_vectors[idx].mean(axis=0) + noise, 6)
        return Sentence(words, heads, labels, target, edit, embedding)

    def _edit(self, words: List[str]) -> Tuple[List[str], Tuple[int, int, str] | None]:
        """One unambiguous word deletion or insertion, or no edit."""
        rng = self.rng
        n = len(words)
        roll = rng.random()
        if roll < 0.3 and n > 3:
            # deleting a word equal to a neighbour could be aligned to either copy
            spots = [
                i for i in range(n)
                if (i == 0 or words[i - 1] != words[i]) and (i == n - 1 or words[i + 1] != words[i])
            ]
            if spots:
                pos = rng.choice(spots)
                return words[:pos] + words[pos + 1:], (pos, pos + 1, "")
        elif roll < 0.5:
            pos = rng.randrange(n + 1)
            word = self.words[rng.randrange(N_INSERT_WORDS)]
            if (pos == 0 or words[pos - 1] != word) and (pos == n or words[pos] != word):
                return words[:pos] + [word] + words[pos:], (pos, pos, word)
        return list(words), None


def generate(spec: CorpusSpec, seed: int) -> Tuple[List[Sentence], List[Sentence]]:
    """Train and test sentences; test sources are unique (the mock LLM keys on them)."""
    gen = Generator(seed, spec.embedding_dim)
    train = [gen.sentence(spec.min_tokens, spec.max_tokens) for _ in range(spec.n_train)]
    test: List[Sentence] = []
    seen = set()
    while len(test) < spec.n_test:
        sent = gen.sentence(spec.min_tokens, spec.max_tokens)
        key = " ".join(sent.words)
        if key not in seen:
            seen.add(key)
            test.append(sent)
    return train, test


def to_corpus(sentences: List[Sentence], vocab: LabelVocab) -> Corpus:
    """In-memory synicl Corpus of `sentences` (labels interned into `vocab`)."""
    examples = []
    for ex_id, sent in enumerate(sentences):
        nodes = [
            DepNode(token_index=i + 1, form=w, label=vocab.add(lb))
            for i, (w, lb) in enumerate(zip(sent.words, sent.labels))
        ]
        for i, head in enumerate(sent.heads):
            if head:
                nodes[head - 1].children.append(nodes[i])
        tree = DepTree(root=nodes[0], n_tokens=len(nodes), sentence_id=ex_id)
        examples.append(
            Example(id=ex_id, source=" ".join(sent.words), target=" ".join(sent.target),
                    source_tokens=list(sent.words), tree=tree, embedding=sent.embedding)
        )
    dim = sentences[0].embedding.shape[0] if sentences and sentences[0].embedding is not None else None
    return Corpus(examples=examples, vocab=vocab, embedding_dim=dim)


def gold_m2(sentences: List[Sentence]) -> str:
    blocks = []
    for sent in sentences:
        lines = ["S " + " ".join(sent.words)]
        if sent.edit is None:
            lines.append("A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0")
        else:
            start, end, repl = sent.edit
            kind = "U" if not repl else "M"
            lines.append(f"A {start} {end}|||{kind}|||{repl or '-NONE-'}|||REQUIRED|||-NONE-|||0")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_inputs(spec: CorpusSpec, seed: int, out_dir: str) -> None:
    """Write train/test bundles (via synicl.treebank.save_bundle), gold M2 and replies."""
    train, test = generate(spec, seed)
    save_bundle(to_corpus(train, LabelVocab()), os.path.join(out_dir, TRAIN_DIR))
    save_bundle(to_corpus(test, LabelVocab()), os.path.join(out_dir, TEST_DIR))
    with open(os.path.join(out_dir, GOLD_M2), "w", encoding="utf-8") as f:
        f.write(gold_m2(test))
    replies: Dict[str, str] = {" ".join(s.words): " ".join(s.target) for s in test}
    with open(os.path.join(out_dir, REPLIES), "w", encoding="utf-8") as f:
        json.dump(replies, f, ensure_ascii=False)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--train", type=int, required=True)
    parser.add_argument("--test", type=int, required=True)
    parser.add_argument("--min-tokens", type=int, required=True)
    parser.add_argument("--max-tokens", type=int, required=True)
    parser.add_argument("--embedding-dim", type=int, default=0)
    args = parser.parse_args(argv)
    spec = CorpusSpec(args.train, args.test, args.min_tokens, args.max_tokens, args.embedding_dim)
    write_inputs(spec, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
