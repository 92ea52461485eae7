"""Benchmark of synicl: select -> prompt -> endpoint -> score on seeded corpora.

Run from the repository root:

    python3 perfbench/run.py --workload select-tk --seed 1 --seconds 10 --trace 0

Each run generates its corpora from the seed in a separate process and
writes them as bundles with `treebank.save_bundle`, so the program only
sees files on disk. It then sets up (load both bundles under one
`LabelVocab`, build the `Selector`) SETUPS times and, after one warm-up
round, measures in rounds of one block of queries until the time is up.
Each set-up and each round runs pinned to one CPU, the CPUs taking turns.
A round is:

1. sequential `Selector.select` calls from one closed-loop client, each
   timed (latency percentiles);
2. untimed: `llmclient.run_batch` on a quarter of the block into a fresh
   journal, so the timed run below is a resume;
3. timed: `select_batch` with one worker (select_qps), then `run_batch`
   with two client threads against the mock endpoint process and
   `gecscore.parse_m2` + `score_corpus` (gec_qps over the three steps).

Latency percentiles are taken over every latency of the run and
throughputs over the summed time of all rounds.

Every round checks its outputs and counts each mismatch as a failed
operation: batch results equal the sequential ones, every correction
equals the gold target, F0.5 is exactly 1.0. Once per run `select_batch`
with two worker threads must reproduce the first queries of the first
block, the chosen ids of the workload's first `digest_queries` queries are
compared with the digest recorded in perfbench/expected.json (when the seed
has one), and a sample of the first block is re-ranked from scratch with the
public per-pair functions.

With --trace 1 the run measures the same blocks twice, untraced and then
with spans recorded around the program's module-level functions, prints
the per-layer metrics and the tracing overhead, and writes the spans to
perfbench/out/. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # run as a script: make this package and the program under src/ importable
    sys.path[0:0] = [ROOT, SRC]

import requests  # noqa: E402

from perfbench import corpus  # noqa: E402
from perfbench.endpoint import MockEndpoint  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from synicl import gecscore, lexical, llmclient, pipeline, treebank, treekernel, treepoly  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

JOBS = 2  # run_batch client threads, and select_batch workers in the thread-safety check
# The timed select_batch runs one worker: on the 2-vCPU VM the benchmark was written on,
# two CPU-bound threads lose about 30% of their throughput in spells of hypervisor CPU
# steal while one thread barely notices, which spread jobs=2 figures past any bound.
BATCH_JOBS = 1
SETUPS = 3  # set-ups per run; setup_s is their median
TRACE_SETUPS = 2  # untraced and traced set-ups each, with --trace 1
SERVICE_MS = 10.0  # modelled LLM service time per request
RESUME_EVERY = 4  # every 4th query of a block is journaled before the timed run
MIN_LATENCY_SAMPLES = 100
MIN_ROUNDS = 3
RECOMPUTE_SAMPLE = 3
THREADS_CHECK_QUERIES = 25  # first-block queries re-selected by select_batch(jobs=JOBS)
GENERATE_TIMEOUT_S = 170
STYLE = "chat"
# spans the benchmark opens around its own phases; every other span belongs to one
PHASES = ("bench.setup", "bench.sequential", "bench.pipeline")


# CPUs this process may run on. Each set-up and each round runs pinned to one of them,
# taking turns. On the shared 2-vCPU VM the benchmark was written on, each vCPU runs at
# one of two speeds about a third apart, in spells of up to a minute and independently
# of the other, presumably as neighbours load the host's cores. Unpinned, the busy
# thread stays on one vCPU, so a whole run read fast or slow: over five seeds the
# spread (interquartile range over median) of select-tk's select_p50_ms was 0.27
# unpinned and 0.10 taking turns, in runs interleaved on the same VM.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
TURN = max(len(CPUS), 1)  # a run measures whole turns: one round on each CPU


@contextmanager
def pinned(turn: int):
    """Run the block on CPU number `turn` (mod the CPU count), then unpin."""
    if len(CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: corpus.CorpusSpec
    config: Dict[str, object]
    block: int  # queries per round
    digest_queries: int  # first test queries whose chosen ids are checked against a digest


WORKLOADS = {
    w.name: w
    for w in [
        # CLI defaults (BM25 top-1000 -> tree kernel, 4 shots) on a pool shaped like the
        # test suite's corpus_35k: many cheap pairs, split between BM25 and the kernel.
        Workload(
            "select-tk",
            corpus.CorpusSpec(n_train=35_000, n_test=1_000, min_tokens=3, max_tokens=40),
            dict(stage1="bm25", stage2="tree_kernel", candidate_size=1000, shots=4),
            block=50,
            digest_queries=100,
        ),
        # Dense top-100 -> weighted polynomial distance: pool polynomials at set-up, a few
        # expensive pairs per query. Sentences stop at 16 tokens because poly_distance
        # cost grows exponentially with tree size (see perfbench/README.md).
        Workload(
            "select-dense-wpoly",
            corpus.CorpusSpec(n_train=10_000, n_test=1_000, min_tokens=3, max_tokens=16,
                              embedding_dim=384),
            dict(stage1="dense", stage2="weighted_poly", candidate_size=100, shots=4,
                 error_weight=2.0),
            block=25,
            digest_queries=50,
        ),
        # The paper's BM25 baseline (top-4, no stage II): selection is cheap, so prompt
        # building, the HTTP client, the journal and scoring do the work.
        Workload(
            "gec-endpoint",
            corpus.CorpusSpec(n_train=5_000, n_test=1_000, min_tokens=3, max_tokens=40),
            dict(stage1="bm25", stage2="none", candidate_size=4, shots=4),
            block=200,
            digest_queries=200,
        ),
    ]
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "select_qps": "queries/s",
    "select_p50_ms": "ms",
    "select_p90_ms": "ms",
    "gec_qps": "queries/s",
    "peak_rss_mb": "MB",
}


def percentile(values: List[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def chosen_digest(results: List[pipeline.SelectionResult]) -> str:
    ids = [[r.query_id, r.chosen_ids()] for r in results]
    return hashlib.sha256(json.dumps(ids).encode("utf-8")).hexdigest()


@dataclass
class Measured:
    latencies: List[float] = field(default_factory=list)  # every round's, pooled
    rounds: int = 0
    queries: int = 0  # queries through the timed pipeline, over all rounds
    select_s: float = 0.0  # time in select_batch, over all rounds
    pipeline_s: float = 0.0  # time in select_batch + run_batch + scoring, over all rounds
    fallbacks: int = 0
    journal_hits: int = 0
    run_batch_queries: int = 0
    retries: int = 0
    poly_pool_pairs: int = 0  # stage-I candidates handed to a polynomial stage II

    def end_to_end(self) -> Dict[str, float]:
        """Latency percentiles over every latency; throughputs over all rounds."""
        return {
            "select_qps": self.queries / self.select_s if self.select_s else 0.0,
            "select_p50_ms": percentile(self.latencies, 50) * 1000.0,
            "select_p90_ms": percentile(self.latencies, 90) * 1000.0,
            "gec_qps": self.queries / self.pipeline_s if self.pipeline_s else 0.0,
        }


class Bench:
    """One workload on one generated input set."""

    def __init__(self, workload: Workload, data_dir: str, work_dir: str, tracer: Tracer):
        self.workload = workload
        self.data_dir = data_dir
        self.work_dir = work_dir
        self.tracer = tracer
        self.config = pipeline.SelectionConfig(**workload.config)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.train: Optional[treebank.Corpus] = None
        self.test: Optional[treebank.Corpus] = None
        self.selector: Optional[pipeline.Selector] = None
        self.gold_path = os.path.join(data_dir, corpus.GOLD_M2)
        self.journal_records: set = set()  # ids of the records the last journal load returned
        self.first_block: Optional[tuple] = None
        self.digest_results: list = []  # sequential results of the first digest_queries queries
        self.setups = 0

    # -- outcome bookkeeping --------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        self.train = self.test = self.selector = None
        gc.collect()
        with pinned(self.setups), self.tracer.span("bench.setup"):
            start = time.perf_counter()
            vocab = treebank.LabelVocab()
            self.train = treebank.load_bundle(os.path.join(self.data_dir, corpus.TRAIN_DIR), vocab)
            self.test = treebank.load_bundle(os.path.join(self.data_dir, corpus.TEST_DIR), vocab)
            self.selector = pipeline.Selector(self.train, self.config)
            elapsed = time.perf_counter() - start
        self.setups += 1
        return elapsed

    # -- measurement -------------------------------------------------------------

    def block(self, index: int) -> List[treebank.Example]:
        queries = self.test.examples
        size = self.workload.block
        return [queries[(index * size + i) % len(queries)] for i in range(size)]

    def measure(self, endpoint: MockEndpoint, seconds: float, rounds: Optional[int] = None) -> Measured:
        """After a warm-up round, run turns of rounds while another turn fits in
        `seconds` (or exactly `rounds` rounds).

        The warm-up round runs the first block untraced; its outputs are
        checked but its figures dropped. At least MIN_ROUNDS rounds and
        MIN_LATENCY_SAMPLES latencies are taken either way.
        """
        out = Measured()
        start = time.perf_counter()
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            with pinned(0):
                self.round(endpoint, self.block(0), Measured())
        finally:
            self.tracer.enabled = enabled
        measuring = time.perf_counter()
        while True:
            with pinned(out.rounds):
                self.round(endpoint, self.block(out.rounds + 1), out)
            out.rounds += 1
            now = time.perf_counter()
            if (len(out.latencies) < MIN_LATENCY_SAMPLES or out.rounds < MIN_ROUNDS
                    or out.rounds % TURN):
                continue
            if rounds is not None:
                if out.rounds >= rounds:
                    break
            elif now - start + (now - measuring) * TURN / out.rounds > seconds:
                break
        return out

    def round(self, endpoint: MockEndpoint, block: List[treebank.Example], out: Measured) -> None:
        selector, tracer = self.selector, self.tracer
        sequential, latencies = [], []
        with tracer.span("bench.sequential"):
            for query in block:
                began = time.perf_counter()
                try:
                    result = selector.select(query)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    result = None
                    self.check(False, f"select query {query.id}: {exc!r}")
                else:
                    latencies.append(time.perf_counter() - began)
                    self.attempted += 1
                sequential.append(result)
        if self.first_block is None:
            self.first_block = (block, sequential)
            self.check_threads(block[:THREADS_CHECK_QUERIES], sequential)
        if len(self.digest_results) < self.workload.digest_queries:
            self.digest_results.extend(sequential)

        endpoint_config = llmclient.EndpointConfig(
            base_url=endpoint.base_url, model="mock-gec", timeout=30.0, jobs=JOBS
        )
        journal = os.path.join(self.work_dir, "journal.jsonl")
        if os.path.exists(journal):
            os.remove(journal)
        resumed = [r for r in sequential[::RESUME_EVERY] if r is not None]
        enabled, tracer.enabled = tracer.enabled, False
        try:
            llmclient.run_batch(endpoint_config, resumed, self.train, self.test, STYLE, journal,
                                jobs=JOBS)
        finally:
            tracer.enabled = enabled

        with open(self.gold_path, encoding="utf-8") as f:
            gold_text = f.read()
        with tracer.span("bench.pipeline"):
            began = time.perf_counter()
            try:
                batch = selector.select_batch(block, jobs=BATCH_JOBS)
            except pipeline.BatchSelectionError as exc:
                for qid, err in exc.failures:
                    self.check(False, f"select_batch query {qid}: {err!r}")
                return
            selected = time.perf_counter()
            records = llmclient.run_batch(endpoint_config, batch, self.train, self.test, STYLE,
                                          journal, jobs=JOBS)
            golds = gecscore.parse_m2(gold_text)
            report = gecscore.score_corpus(
                [r.correction for r in records], [golds[q.id] for q in block]
            )
            done = time.perf_counter()
        out.latencies.extend(latencies)
        out.queries += len(block)
        out.select_s += selected - began
        out.pipeline_s += done - began

        poly = self.config.stage2 in ("poly", "weighted_poly")
        for query, seq, res in zip(block, sequential, batch):
            self.check(seq is not None and res == seq, f"select_batch != select for query {query.id}")
            out.fallbacks += len(res.fallbacks)
            if poly:
                out.poly_pool_pairs += res.stage1_pool_size + (seq.stage1_pool_size if seq else 0)
        for query, record in zip(block, records):
            self.check(
                record.error is None and record.correction == query.target,
                f"query {query.id}: correction {record.correction!r} (error {record.error})",
            )
            if id(record) in self.journal_records:
                out.journal_hits += 1
            else:
                out.retries += record.retry_count
        out.run_batch_queries += len(records)
        self.check(report.f_half == 1.0, f"F0.5 {report.f_half} != 1.0")

    # -- one-off output checks ------------------------------------------------------

    def check_threads(self, block: List[treebank.Example], sequential: list) -> None:
        """select_batch with JOBS worker threads must equal the sequential results."""
        try:
            threaded = self.selector.select_batch(block, jobs=JOBS)
        except pipeline.BatchSelectionError as exc:
            for qid, err in exc.failures:
                self.check(False, f"select_batch(jobs={JOBS}) query {qid}: {err!r}")
            return
        for query, seq, res in zip(block, sequential, threaded):
            self.check(seq is not None and res == seq,
                       f"select_batch(jobs={JOBS}) != select for query {query.id}")

    def batch_speedup(self, rounds: int) -> float:
        """Throughput of select_batch with JOBS workers over that with BATCH_JOBS."""
        ratios = []
        for index in range(1, rounds + 1):  # the blocks measure() times
            block = self.block(index)
            qps = []
            for jobs in (BATCH_JOBS, JOBS):
                began = time.perf_counter()
                self.selector.select_batch(block, jobs=jobs)
                qps.append(len(block) / (time.perf_counter() - began))
            ratios.append(qps[1] / qps[0])
        return statistics.median(ratios)

    def check_digest(self, seed: int) -> str:
        """Compare the chosen ids of the first queries with the recorded digest, if any."""
        results = self.digest_results[:self.workload.digest_queries]
        digest = chosen_digest(results) if all(results) else "incomplete"
        with open(EXPECTED_PATH, encoding="utf-8") as f:
            expected = json.load(f).get(self.workload.name, {}).get(str(seed))
        if expected is None:
            return f"chosen-id digest {digest} (none recorded for this seed)"
        self.check(digest == expected, f"chosen-id digest {digest} != expected {expected}")
        return f"chosen-id digest {digest} ({'matches' if digest == expected else 'MISMATCH'})"

    def reference_ids(self, query: treebank.Example) -> List[int]:
        """Top-`shots` ids re-ranked from scratch with the public per-pair functions."""
        cfg, train, selector = self.config, self.train, self.selector
        if cfg.stage1 == "bm25":
            pool = lexical.bm25_topk(selector.bm25, query.source, cfg.candidate_size)
        else:
            pool = lexical.dense_topk(selector.dense, query.embedding, cfg.candidate_size)
        if cfg.stage2 == "none":
            ranked = pool
        elif cfg.stage2 == "tree_kernel":
            scored = [(i, treekernel.tree_kernel_similarity(query.tree, train[i].tree)) for i, _ in pool]
            ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
        else:
            vocab = train.vocab
            weights = (treepoly.WeightProfile.error_weighted(vocab, cfg.error_weight)
                       if cfg.stage2 == "weighted_poly" else None)
            query_poly = treepoly.tree_to_polynomial(query.tree, vocab, cfg.term_budget)
            scored = []
            for i, _ in pool:
                try:
                    poly = treepoly.tree_to_polynomial(train[i].tree, vocab, cfg.term_budget)
                except treepoly.TermBudgetExceeded:
                    scored.append((i, float("inf")))
                    continue
                scored.append((i, treepoly.poly_distance(query_poly, poly, weights)))
            ranked = sorted(scored, key=lambda item: (item[1], item[0]))
        return [i for i, _ in ranked[: cfg.shots]]

    def check_reference(self, seed: int) -> None:
        block, sequential = self.first_block
        for i in random.Random(seed).sample(range(len(block)), min(RECOMPUTE_SAMPLE, len(block))):
            got = sequential[i].chosen_ids() if sequential[i] is not None else None
            want = self.reference_ids(block[i])
            self.check(got == want, f"query {block[i].id}: chose {got}, reference ranking {want}")


# ---------------------------------------------------------------------------
# tracing: spans around the program's module-level functions
# ---------------------------------------------------------------------------

def install_tracing(tracer: Tracer, bench: Bench) -> List[int]:
    """Wrap every layer boundary the per-layer metrics need.

    Returns the list that collects the term counts of query polynomials.
    """
    query_terms: List[int] = []
    source_to_qid: Dict[str, int] = {}

    def count_query_terms(poly, qid):
        if qid is not None:  # built for a query inside select, not for the pool
            query_terms.append(len(poly))

    def remember_journal(records, qid):
        bench.journal_records = {id(rec) for rec in records.values()}

    def extract_qid(raw, test_source):
        if not source_to_qid:
            source_to_qid.update({ex.source: ex.id for ex in bench.test.examples})
        return source_to_qid.get(test_source)

    tracer.wrap(treebank, "load_bundle", "treebank.load_bundle")
    tracer.wrap(lexical, "build_bm25", "lexical.build_bm25")
    tracer.wrap(lexical, "bm25_topk", "lexical.bm25_topk")
    tracer.wrap(lexical, "build_dense", "lexical.build_dense")
    tracer.wrap(lexical, "dense_topk", "lexical.dense_topk")
    tracer.wrap(treekernel, "tree_kernel_similarity", "treekernel.tree_kernel_similarity")
    tracer.wrap(treepoly, "tree_to_polynomial", "treepoly.tree_to_polynomial",
                on_result=count_query_terms)
    tracer.wrap(treepoly, "poly_distance", "treepoly.poly_distance")
    tracer.wrap(pipeline.Selector, "select", "pipeline.select", qid_of=lambda self, q: q.id)
    tracer.wrap(pipeline.Selector, "select_batch", "pipeline.select_batch")
    tracer.wrap(llmclient, "run_batch", "llmclient.run_batch")
    tracer.wrap(llmclient, "load_journal", "llmclient.load_journal", on_result=remember_journal)
    tracer.wrap(llmclient, "build_prompt_for_selection", "prompt.build",
                qid_of=lambda result, *rest: result.query_id)
    tracer.wrap(llmclient, "extract_correction_flagged", "prompt.extract", qid_of=extract_qid)
    tracer.wrap(requests, "post", "llmclient.request")
    tracer.wrap(gecscore, "parse_m2", "gecscore.parse_m2")
    tracer.wrap(gecscore, "score_corpus", "gecscore.score_corpus")
    tracer.wrap(gecscore, "extract_edits", "gecscore.extract_edits")
    return query_terms


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values: List[float], p: int) -> float:
    return percentile(values, p) if len(values) > 1 else _median(values)


def layer_metrics(tracer: Tracer, query_terms: List[int], traced: Measured, untraced: Measured,
                  setup_untraced: List[float], setup_traced: List[float],
                  endpoint_delta: Dict[str, float], batch_speedup: float) -> Dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit); 0 where the workload skips the layer.

    Set-up layers are averaged per set-up. Per-query layers come from the
    sequential phase only, where no second client thread competes for the
    interpreter lock; the client-side LLM layers come from the timed pipeline.
    """
    phase: Dict[int, Optional[str]] = {0: None}
    by_phase: Dict[tuple, list] = {}
    for span in sorted(tracer.spans):  # a parent's id is lower than its children's
        sid, name, _, _, parent, _ = span
        phase[sid] = name if name in PHASES else phase.get(parent)
        by_phase.setdefault((name, phase[sid]), []).append(span)

    def spans(name: str, in_phase: str) -> list:
        return by_phase.get((name, in_phase), [])

    def durations(name: str, in_phase: str, scale: float = 1.0) -> List[float]:
        return [(s[3] - s[2]) * scale for s in spans(name, in_phase)]

    setups = len(spans("bench.setup", "bench.setup")) or 1
    select_spans = spans("pipeline.select", "bench.sequential")
    selects = len(select_spans) or 1
    kids = tracer.children()
    distance_us = durations("treepoly.poly_distance", "bench.sequential", 1e6)
    poly_pairs = sum(len(v) for (name, _), v in by_phase.items() if name == "treepoly.poly_distance")
    untraced_e2e, traced_e2e = untraced.end_to_end(), traced.end_to_end()
    requests_n, connections = endpoint_delta["requests"], endpoint_delta["connections"]
    setup, seq, timed = "bench.setup", "bench.sequential", "bench.pipeline"
    return {
        "treebank.load_bundle_s": (sum(durations("treebank.load_bundle", setup)) / setups, "s"),
        "lexical.build_bm25_s": (sum(durations("lexical.build_bm25", setup)) / setups, "s"),
        "lexical.bm25_topk_ms": (_median(durations("lexical.bm25_topk", seq, 1e3)), "ms"),
        "lexical.build_dense_s": (sum(durations("lexical.build_dense", setup)) / setups, "s"),
        "lexical.dense_topk_ms": (_median(durations("lexical.dense_topk", seq, 1e3)), "ms"),
        "treekernel.pairs": (len(spans("treekernel.tree_kernel_similarity", seq)) / selects, "count"),
        "treekernel.similarity_us": (
            _median(durations("treekernel.tree_kernel_similarity", seq, 1e6)), "us"),
        "treepoly.tree_to_polynomial_s": (
            sum(durations("treepoly.tree_to_polynomial", setup)) / setups, "s"),
        "treepoly.query_poly_ms": (
            _median(durations("treepoly.tree_to_polynomial", seq, 1e3)), "ms"),
        "treepoly.pairs": (len(spans("treepoly.poly_distance", seq)) / selects, "count"),
        "treepoly.distance_us_p50": (_pct(distance_us, 50), "us"),
        "treepoly.distance_us_p90": (_pct(distance_us, 90), "us"),
        "treepoly.terms_p50": (_pct(query_terms, 50), "count"),
        "treepoly.terms_p90": (_pct(query_terms, 90), "count"),
        "treepoly.terms_max": (max(query_terms, default=0), "count"),
        "treepoly.fallbacks": (traced.fallbacks, "count"),
        "treepoly.scored_share": (
            poly_pairs / traced.poly_pool_pairs if traced.poly_pool_pairs else 0.0, "ratio"),
        "treepoly.attempted_pairs": (traced.poly_pool_pairs, "count"),
        "pipeline.select_self_ms": (
            _median([tracer.self_time(span, kids) * 1e3 for span in select_spans]), "ms"),
        "pipeline.batch_speedup": (batch_speedup, "x"),
        "prompt.build_us": (_median(durations("prompt.build", timed, 1e6)), "us"),
        "prompt.extract_us": (_median(durations("prompt.extract", timed, 1e6)), "us"),
        "llmclient.run_batch_s": (_median(durations("llmclient.run_batch", timed)), "s"),
        "llmclient.load_journal_ms": (_median(durations("llmclient.load_journal", timed, 1e3)), "ms"),
        "llmclient.request_ms": (_median(durations("llmclient.request", timed, 1e3)), "ms"),
        "llmclient.journal_hits": (traced.journal_hits, "count"),
        "llmclient.run_batch_queries": (traced.run_batch_queries, "count"),
        "llmclient.retries": (traced.retries, "count"),
        "llmclient.requests_per_connection": (
            requests_n / connections if connections else 0.0, "requests/conn"),
        "endpoint.service_ms": (
            endpoint_delta["service_s"] * 1e3 / requests_n if requests_n else 0.0, "ms"),
        "gecscore.parse_m2_s": (_median(durations("gecscore.parse_m2", timed)), "s"),
        "gecscore.score_corpus_s": (_median(durations("gecscore.score_corpus", timed)), "s"),
        "gecscore.extract_edits_us": (_median(durations("gecscore.extract_edits", timed, 1e6)), "us"),
        "trace.setup_s_delta": (_median(setup_traced) - _median(setup_untraced), "s"),
        "trace.select_qps_delta": (
            traced_e2e["select_qps"] - untraced_e2e["select_qps"], "queries/s"),
        "trace.select_p50_ms_delta": (
            traced_e2e["select_p50_ms"] - untraced_e2e["select_p50_ms"], "ms"),
        "trace.gec_qps_delta": (traced_e2e["gec_qps"] - untraced_e2e["gec_qps"], "queries/s"),
    }


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def generate_inputs(workload: Workload, seed: int, data_dir: str) -> None:
    """Write the workload's bundles in a child process (its memory is not ours)."""
    spec = workload.corpus
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "corpus.py"), "--out", data_dir,
         "--seed", str(seed), "--train", str(spec.n_train), "--test", str(spec.n_test),
         "--min-tokens", str(spec.min_tokens), "--max-tokens", str(spec.max_tokens),
         "--embedding-dim", str(spec.embedding_dim)],
        check=True, timeout=GENERATE_TIMEOUT_S,
    )


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
                 spans_dir: str = OUT_DIR, corrupt_every: int = 0) -> dict:
    """Generate, set up, measure and check one workload; returns the result object.

    A traced run writes its spans to `spans_dir`. `corrupt_every` makes the
    mock endpoint answer every n-th request wrongly (to test the checks).
    """
    data_dir = os.path.join(work_dir, "data")
    generate_inputs(workload, seed, data_dir)
    tracer = Tracer()
    bench = Bench(workload, data_dir, work_dir, tracer)

    setup_untraced = [bench.setup() for _ in range(TRACE_SETUPS if trace else SETUPS)]
    with MockEndpoint(os.path.join(data_dir, corpus.REPLIES), SERVICE_MS,
                      corrupt_every) as endpoint:
        untraced = bench.measure(endpoint, seconds / 2 if trace else seconds)
        digest_note = bench.check_digest(seed)
        bench.check_reference(seed)
        if trace:
            speedup = bench.batch_speedup(untraced.rounds)
            # wrappers go in only now, so the untraced figures above pay nothing for them
            query_terms = install_tracing(tracer, bench)
            try:
                tracer.enabled = True
                setup_traced = [bench.setup() for _ in range(TRACE_SETUPS)]
                before = endpoint.stats()
                traced = bench.measure(endpoint, 0.0, rounds=untraced.rounds)
                endpoint_delta = _delta(endpoint.stats(), before)
            finally:
                tracer.enabled = False
                tracer.restore()

    if trace:
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"spans-{workload.name}-seed{seed}.tsv"))
        metrics = layer_metrics(tracer, query_terms, traced, untraced, setup_untraced,
                                setup_traced, endpoint_delta, speedup)
        samples = len(traced.latencies)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in untraced.end_to_end().items()}
        metrics["setup_s"] = (statistics.median(setup_untraced), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        samples = len(untraced.latencies)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "digest": digest_note,
        "failures": bench.failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="synicl benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    import synicl

    if not os.path.abspath(synicl.__file__).startswith(SRC + os.sep):
        print(f"error: synicl imported from {synicl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # the mock endpoint is local; never route it through a proxy
    for key in ("no_proxy", "NO_PROXY"):
        os.environ[key] = ",".join(filter(None, [os.environ.get(key), "127.0.0.1", "localhost"]))

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        # starting the endpoint with spawn also started multiprocessing's resource
        # tracker process; end it and wait for it rather than leave it behind
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        if hasattr(tracker, "_stop"):
            tracker._stop()

    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(f"latency samples {result['samples']}; {result['digest']}; failed "
          f"{result['failed']} of {result['attempted']} operations")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
