"""Example selection pipelines: single-stage or two-stage select-then-rank.

Stage I shrinks the training pool with a cheap lexical (BM25) or dense
(cosine) retriever; stage II re-ranks the candidate pool with a syntactic
similarity (tree kernel or polynomial distance) and keeps the top `shots`
examples. Either stage can be disabled (but not both). All rankings break
ties by lower example id, so results are deterministic and independent of
worker parallelism.

Whenever stage II can reach the tree kernel (`tree_kernel`, and the kernel
fallback of `poly` and `weighted_poly`), the `Selector` builds a
`treekernel.PoolForest` once, which reads the pool's forest in place (a
loaded bundle holds all its trees in one). Kernel re-ranking then scores
every stage-I candidate of a query in one level-by-level numpy pass, from
the root pairs down to the deepest matching node pairs. The pass is exact:
leaf matches and child-count products are integers below 2**53, a pair with
at most one nested score takes one correctly rounded IEEE operation per
step, and a pair with two or more sums them with `math.fsum`, so every
score has the bits of the per-pair `treekernel.tree_kernel_similarity`.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import lexical, treekernel, treepoly
from .treebank import Corpus, Example, InputError, read_lines

STAGE1_METHODS = ("none", "bm25", "dense")
STAGE2_METHODS = ("none", "tree_kernel", "poly", "weighted_poly", "random")


class InvalidConfig(InputError):
    pass


class MissingPrecomputation(InputError):
    pass


class MalformedSelection(InputError):
    """A selections record that is not what export_results writes, or one that
    names a query or example the loaded corpora do not hold."""


class BatchSelectionError(RuntimeError):
    """Raised by select_batch after the batch finishes with per-query failures."""

    def __init__(self, failures: List[Tuple[int, Exception]]):
        self.failures = failures
        summary = "; ".join(f"query {qid}: {exc}" for qid, exc in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} queries failed: {summary}{more}")


@dataclass
class SelectionConfig:
    stage1: str = "bm25"
    stage2: str = "tree_kernel"
    candidate_size: int = 1000
    shots: int = 4
    random_seed: int = 0
    error_weight: float = 2.0
    term_budget: Optional[int] = treepoly.DEFAULT_TERM_BUDGET

    def validate(self) -> None:
        if self.stage1 not in STAGE1_METHODS:
            raise InvalidConfig(f"stage1 must be one of {STAGE1_METHODS}, got {self.stage1!r}")
        if self.stage2 not in STAGE2_METHODS:
            raise InvalidConfig(f"stage2 must be one of {STAGE2_METHODS}, got {self.stage2!r}")
        if self.stage1 == "none" and self.stage2 == "none":
            raise InvalidConfig("stage1 and stage2 cannot both be 'none'")
        if self.shots < 1:
            raise InvalidConfig("shots must be >= 1")
        if self.candidate_size < self.shots:
            raise InvalidConfig("candidate_size must be >= shots")
        if not (math.isfinite(self.error_weight) and self.error_weight > 0):
            raise InvalidConfig(
                f"error_weight must be a finite number > 0, got {self.error_weight}")


@dataclass
class SelectionResult:
    """The examples chosen for one query. A chosen id is a position in the pool corpus,
    which is also its `Example.id` in a loaded corpus; `llmclient` indexes by it."""

    query_id: int
    chosen: List[Tuple[int, float]]  # (pool position, stage-II score, or stage-I when stage2=none)
    stage1_pool_size: int
    fallbacks: List[Dict[str, object]] = field(default_factory=list)

    def chosen_ids(self) -> List[int]:
        return [ex_id for ex_id, _ in self.chosen]


class Selector:
    """Holds the per-corpus indices and precomputations for repeated selects.

    When stage II uses polynomial distances, the training and query corpora
    must have been loaded with one shared label vocabulary before the
    Selector is built (term vectors need a common width).
    """

    def __init__(self, corpus: Corpus, config: SelectionConfig):
        config.validate()
        if len(corpus) == 0:
            raise InvalidConfig("cannot select from an empty corpus")
        self.corpus = corpus
        self.config = config
        self.d = len(corpus.vocab)

        self.bm25: Optional[lexical.Bm25Index] = None
        self.dense: Optional[lexical.DenseIndex] = None
        if config.stage1 == "bm25":
            self.bm25 = lexical.build_bm25(corpus)
        elif config.stage1 == "dense":
            if corpus.embeddings is None:
                raise MissingPrecomputation("dense stage I needs an embedding for every example")
            self.dense = lexical.build_dense(corpus)

        # stage II reaches the kernel for tree_kernel, and as the fallback of poly
        self.kernel_pool: Optional[treekernel.PoolForest] = None
        if config.stage2 in ("tree_kernel", "poly", "weighted_poly"):
            self.kernel_pool = treekernel.PoolForest([ex.tree for ex in corpus.examples])

        self.polynomials: Optional[List[Optional[treepoly.Polynomial]]] = None
        self.weights: Optional[treepoly.WeightProfile] = None
        if config.stage2 in ("poly", "weighted_poly"):
            self.polynomials = []
            for ex in corpus.examples:
                try:
                    self.polynomials.append(
                        treepoly.tree_to_polynomial(ex.tree, corpus.vocab, config.term_budget)
                    )
                except treepoly.TermBudgetExceeded:
                    self.polynomials.append(None)
            if config.stage2 == "weighted_poly":
                self.weights = treepoly.WeightProfile.error_weighted(
                    corpus.vocab, config.error_weight
                )

    # -- stage I ------------------------------------------------------------

    def _stage1_pool(self, query: Example) -> List[Tuple[int, float]]:
        cfg = self.config
        if cfg.stage1 == "none":
            return [(position, 0.0) for position in range(len(self.corpus))]
        if cfg.stage1 == "bm25":
            assert self.bm25 is not None
            return lexical.bm25_topk(self.bm25, query.source, cfg.candidate_size)
        assert self.dense is not None
        if query.embedding is None:
            raise MissingPrecomputation(f"query {query.id} has no embedding for dense stage I")
        return lexical.dense_topk(self.dense, query.embedding, cfg.candidate_size)

    # -- stage II -----------------------------------------------------------

    def _rank_tree_kernel(self, query: Example, pool: List[int]) -> List[Tuple[int, float]]:
        assert self.kernel_pool is not None
        ids = np.asarray(pool, dtype=np.intp)
        return lexical.top_k(self.kernel_pool.scores(query.tree, ids), self.config.shots, ids)

    def _rank_poly(
        self, query: Example, pool: List[int], fallbacks: List[Dict[str, object]]
    ) -> List[Tuple[int, float]]:
        assert self.polynomials is not None
        if len(self.corpus.vocab) != self.d or max(query.tree.labels) >= self.d:
            raise MissingPrecomputation(
                "the label vocabulary changed after the Selector was built, or the query's "
                "labels are not in it; load every corpus with one LabelVocab before building "
                "the Selector"
            )
        try:
            query_poly = treepoly.tree_to_polynomial(
                query.tree, self.corpus.vocab, self.config.term_budget
            )
        except treepoly.TermBudgetExceeded:
            fallbacks.append({"kind": "query_poly_budget", "query_id": query.id})
            return self._rank_tree_kernel(query, pool)

        candidates = [self.polynomials[ex_id] for ex_id in pool]
        pairs = len(query_poly) * sum(len(poly) for poly in candidates if poly is not None)
        if pairs > treepoly.QUERY_PAIRS_CAP:
            fallbacks.append({"kind": "query_pair_budget", "query_id": query.id})
            return self._rank_tree_kernel(query, pool)
        distances = []
        for ex_id, poly in zip(pool, candidates):
            if poly is None:
                fallbacks.append({"kind": "candidate_poly_budget", "example_id": ex_id})
                distances.append(math.inf)
                continue
            distances.append(treepoly.poly_distance(query_poly, poly, self.weights))
        return lexical.top_k(distances, self.config.shots, pool, smallest=True)

    # -- public API ----------------------------------------------------------

    def select(self, query: Example) -> SelectionResult:
        cfg = self.config
        fallbacks: List[Dict[str, object]] = []
        stage1 = self._stage1_pool(query)
        pool_ids = [ex_id for ex_id, _ in stage1]

        if cfg.stage2 == "none":
            chosen = stage1[: cfg.shots]
        elif cfg.stage2 == "tree_kernel":
            chosen = self._rank_tree_kernel(query, pool_ids)
        elif cfg.stage2 in ("poly", "weighted_poly"):
            chosen = self._rank_poly(query, pool_ids, fallbacks)
        else:  # random
            rng = random.Random(f"{cfg.random_seed}:{query.id}")
            sample = rng.sample(pool_ids, min(cfg.shots, len(pool_ids)))
            chosen = [(ex_id, 0.0) for ex_id in sample]

        return SelectionResult(
            query_id=query.id,
            chosen=chosen,
            stage1_pool_size=len(pool_ids),
            fallbacks=fallbacks,
        )

    def select_batch(self, queries: Sequence[Example], jobs: int = 1) -> List[SelectionResult]:
        """Element-wise equal to independent select() calls; order preserved."""

        def run(query: Example):
            try:
                return self.select(query), None
            except Exception as exc:  # noqa: BLE001 - aggregated below
                return None, (query.id, exc)

        if jobs <= 1:
            outcomes = [run(q) for q in queries]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(run, queries))
        failures = [fail for _, fail in outcomes if fail is not None]
        if failures:
            raise BatchSelectionError(failures)
        return [result for result, _ in outcomes]


def export_results(
    results: Sequence[SelectionResult], config: SelectionConfig, path: str
) -> None:
    """One JSON record per query: ids, scores, pool size, method tags, fallbacks."""
    with open(path, "w", encoding="utf-8") as f:
        for res in results:
            record = {
                "query_id": res.query_id,
                "chosen": [[ex_id, score] for ex_id, score in res.chosen],
                "stage1_pool_size": res.stage1_pool_size,
                "stage1": config.stage1,
                "stage2": config.stage2,
                "fallbacks": res.fallbacks,
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_results(path: str) -> List[SelectionResult]:
    """Read the records of export_results; a malformed line raises MalformedSelection."""
    results = []
    for number, line in enumerate(read_lines(path), 1):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise MalformedSelection(f"{path} line {number}: not JSON ({exc})") from exc
        if not (isinstance(record, dict) and _is_int(record.get("query_id"))
                and _is_int(record.get("stage1_pool_size"))
                and isinstance(record.get("chosen"), list)
                and all(isinstance(row, list) and len(row) == 2 and _is_int(row[0])
                        and (_is_int(row[1]) or isinstance(row[1], float))
                        for row in record["chosen"])):
            raise MalformedSelection(
                f"{path} line {number}: not a selection record (int query_id and "
                "stage1_pool_size, chosen as [[int id, score], ...])"
            )
        results.append(
            SelectionResult(
                query_id=record["query_id"],
                chosen=[(ex_id, float(score)) for ex_id, score in record["chosen"]],
                stage1_pool_size=record["stage1_pool_size"],
                fallbacks=record.get("fallbacks", []),
            )
        )
    return results
