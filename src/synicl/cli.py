"""Command-line entry point: ingest / select / prompt / run / score.

Exit codes: 0 success, 1 validation or config error, 2 I/O error,
3 remote-endpoint failure.

`select`, `prompt` and `run` record in their manifest.json the content hash
of each bundle's examples.npz file. `prompt` and `run` first compare the
bundles they are given with the hashes in the manifest.json beside the
selections file, and exit 1 on a mismatch, before any prompt is built:
selections index examples by position, so another bundle would silently
give other examples. A selections file with no such manifest (written by
hand, moved away from it, or written before the hashes were recorded) is
used unchecked, after a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional

from . import __version__, gecscore, lexical, llmclient, pipeline, prompt, treebank

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_ENDPOINT = 3

_STAGE2_FLAG_TO_METHOD = {
    "none": "none",
    "tk": "tree_kernel",
    "poly": "poly",
    "wpoly": "weighted_poly",
    "random": "random",
}


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace, inputs: List[str],
                    bundle_hashes: Optional[Dict[str, str]] = None) -> None:
    manifest = {
        "tool": "synicl",
        "version": __version__,
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "input_hashes": {path: treebank.content_hash([path]) for path in inputs if os.path.isfile(path)},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if bundle_hashes is not None:
        manifest["bundle_hashes"] = bundle_hashes
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_bundles(train_dir: str, test_dir: str):
    # one shared vocab across both corpora so term-vector widths agree
    vocab = treebank.LabelVocab()
    train = treebank.load_bundle(train_dir, vocab)
    test = treebank.load_bundle(test_dir, vocab)
    return train, test


def _bundle_hashes(args: argparse.Namespace) -> Dict[str, str]:
    """Content hash of the bundle file of the train and the test bundle."""
    return {flag: treebank.content_hash([treebank.bundle_file(getattr(args, flag))])
            for flag in ("train_bundle", "test_bundle")}


def _check_selection_bundles(args: argparse.Namespace) -> Dict[str, str]:
    """The bundles' hashes, after checking them against the selections' manifest.

    Raises MalformedSelection when a bundle differs from the one the
    selections were made from; warns when no manifest records the hashes.
    """
    hashes = _bundle_hashes(args)
    path = os.path.join(os.path.dirname(os.path.abspath(args.selections)), "manifest.json")
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        manifest = {}
    except ValueError as exc:
        raise pipeline.MalformedSelection(f"{path}: not a JSON manifest ({exc})") from exc
    recorded = manifest.get("bundle_hashes") if isinstance(manifest, dict) else None
    if not isinstance(recorded, dict):
        print(f"warning: no bundle hashes in {path}; {args.selections} is not checked against "
              "the bundles", file=sys.stderr)
        return hashes
    for flag, digest in hashes.items():
        if recorded.get(flag) != digest:
            raise pipeline.MalformedSelection(
                f"{args.selections} was selected from another --{flag.replace('_', '-')} than "
                f"{getattr(args, flag)} (recorded hash {str(recorded.get(flag))[:12]}, "
                f"this bundle {digest[:12]})")
    return hashes


def _selection_config(args: argparse.Namespace) -> pipeline.SelectionConfig:
    config = pipeline.SelectionConfig(
        stage1=args.stage1,
        stage2=_STAGE2_FLAG_TO_METHOD[args.stage2],
        candidate_size=args.candidates,
        shots=args.shots,
        random_seed=args.seed,
        error_weight=args.error_weight,
    )
    config.validate()
    return config


def cmd_ingest(args: argparse.Namespace) -> int:
    for path in [args.src, args.tgt, args.trees] + ([args.embeddings] if args.embeddings else []):
        if not os.path.isfile(path):
            print(f"error: cannot read {path}", file=sys.stderr)
            return EXIT_IO
    corpus = treebank.load_corpus(args.src, args.tgt, args.trees, args.embeddings)
    treebank.save_bundle(corpus, args.out)
    inputs = [args.src, args.tgt, args.trees] + ([args.embeddings] if args.embeddings else [])
    _write_manifest(args.out, "ingest", args, inputs)
    print(f"ingested {len(corpus)} examples ({corpus.vocab.d} labels) into {args.out}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    train, test = _load_bundles(args.train_bundle, args.test_bundle)
    hashes = _bundle_hashes(args)
    config = _selection_config(args)
    selector = pipeline.Selector(train, config)
    queries = test.examples[: args.limit] if args.limit else test.examples
    results = selector.select_batch(queries, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "selections.jsonl")
    pipeline.export_results(results, config, out_path)
    _write_manifest(args.out, "select", args, [], hashes)
    fallbacks = sum(len(r.fallbacks) for r in results)
    print(f"selected examples for {len(results)} queries -> {out_path}"
          + (f" ({fallbacks} fallbacks)" if fallbacks else ""))
    return EXIT_OK


def cmd_prompt(args: argparse.Namespace) -> int:
    hashes = _check_selection_bundles(args)
    train, test = _load_bundles(args.train_bundle, args.test_bundle)
    selections = pipeline.load_results(args.selections)
    prompts = llmclient.selection_prompts(selections, train, test, args.style,
                                          args.most_similar_last)
    os.makedirs(args.out, exist_ok=True)
    if args.style == "completion":  # the flat text is the content of the one user message
        for query, (message,) in prompts:
            with open(os.path.join(args.out, f"prompt_{query.id:05d}.txt"), "w",
                      encoding="utf-8") as f:
                f.write(message["content"])
    else:
        with open(os.path.join(args.out, "prompts.jsonl"), "w", encoding="utf-8") as f:
            for query, messages in prompts:
                record = {"query_id": query.id, "messages": messages}
                f.write(json.dumps(record, ensure_ascii=False) + "\n")
    _write_manifest(args.out, "prompt", args, [args.selections], hashes)
    print(f"dumped {len(selections)} {args.style} prompts to {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    hashes = _check_selection_bundles(args)
    train, test = _load_bundles(args.train_bundle, args.test_bundle)
    selections = pipeline.load_results(args.selections)
    os.makedirs(args.out, exist_ok=True)
    journal_path = args.journal or os.path.join(args.out, "journal.jsonl")
    config = llmclient.EndpointConfig(
        base_url=args.base_url,
        model=args.model,
        api_key_env=args.api_key_env,
        timeout=args.timeout,
        max_retries=args.max_retries,
        jobs=args.jobs,
    )
    records = llmclient.run_batch(
        config, selections, train, test, args.style, journal_path,
        most_similar_last=args.most_similar_last,
    )
    hyp_path = os.path.join(args.out, "hypotheses.txt")
    with open(hyp_path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(record.correction.replace("\n", " ") + "\n")
    _write_manifest(args.out, "run", args, [args.selections], hashes)
    failed = [r for r in records if r.error is not None]
    print(f"ran {len(records)} queries ({len(failed)} failed) -> {hyp_path}")
    if failed:
        print(f"first failure: query {failed[0].query_id}: {failed[0].error}", file=sys.stderr)
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    with open(args.m2, encoding="utf-8") as f:
        golds = gecscore.parse_m2(f.read())
    with open(args.hyp, encoding="utf-8") as f:
        hypotheses = [line.rstrip("\n") for line in f]
    report = gecscore.score_corpus(hypotheses, golds)
    print(f"TP {report.tp}  FP {report.fp}  FN {report.fn}")
    print(f"P {report.precision:.3f} R {report.recall:.3f} F0.5 {report.f_half:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "tp": report.tp, "fp": report.fp, "fn": report.fn,
                    "precision": report.precision, "recall": report.recall,
                    "f_half": report.f_half,
                },
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synicl",
        description="Select in-context examples for grammatical error correction "
        "by ungrammatical-syntax similarity, build prompts, query a "
        "chat-completions endpoint, and score corrections.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("ingest", formatter_class=fmt,
                       help="validate a parallel corpus + trees into a bundle")
    p.add_argument("--src", required=True, help="source sentences, one per line")
    p.add_argument("--tgt", required=True, help="corrected sentences, one per line")
    p.add_argument("--trees", required=True, help="CoNLL-U / 4-column dependency parses")
    p.add_argument("--embeddings", default=None, help="optional sentence vectors, one per line")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.set_defaults(func=cmd_ingest)

    def add_selection_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--train-bundle", required=True, help="bundle used as the example pool")
        p.add_argument("--test-bundle", required=True, help="bundle holding the queries")
        p.add_argument("--stage1", default="bm25", choices=pipeline.STAGE1_METHODS,
                       help="fast first-stage retrieval method")
        p.add_argument("--stage2", default="tk", choices=sorted(_STAGE2_FLAG_TO_METHOD),
                       help="syntactic second-stage ranking method")
        p.add_argument("--candidates", type=int, default=1000,
                       help="stage-I candidate pool size")
        p.add_argument("--shots", type=int, default=4, help="in-context examples per query")
        p.add_argument("--seed", type=int, default=0, help="seed for stage2=random")
        p.add_argument("--error-weight", type=float, default=2.0,
                       help="weight of error-label entries for stage2=wpoly")

    p = sub.add_parser("select", formatter_class=fmt,
                       help="select in-context examples for every query")
    add_selection_flags(p)
    p.add_argument("--limit", type=int, default=0, help="only process the first N queries (0 = all)")
    p.add_argument("--jobs", type=int, default=1, help="parallel selection workers")
    p.add_argument("--out", required=True, help="output directory (selections.jsonl + manifest)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("prompt", formatter_class=fmt,
                       help="render prompts for existing selections (no endpoint calls)")
    p.add_argument("--train-bundle", required=True)
    p.add_argument("--test-bundle", required=True)
    p.add_argument("--selections", required=True,
                   help="selections.jsonl from `synicl select`; the bundles must be the ones "
                   "its manifest.json records")
    p.add_argument("--style", required=True, choices=["completion", "chat"])
    p.add_argument("--most-similar-last", action="store_true",
                   help="put the most similar example nearest the test input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("run", formatter_class=fmt,
                       help="query a chat-completions endpoint for every selection")
    p.add_argument("--train-bundle", required=True)
    p.add_argument("--test-bundle", required=True)
    p.add_argument("--selections", required=True,
                   help="selections.jsonl from `synicl select`; the bundles must be the ones "
                   "its manifest.json records")
    p.add_argument("--style", required=True, choices=["completion", "chat"])
    p.add_argument("--base-url", required=True, help="endpoint base URL")
    p.add_argument("--model", required=True, help="model name sent in requests")
    p.add_argument("--api-key-env", default="OPENAI_API_KEY",
                   help="environment variable holding the API key")
    p.add_argument("--timeout", type=float, default=60.0, help="per-request timeout (seconds)")
    p.add_argument("--max-retries", type=int, default=3, help="retries on 429/5xx/timeouts")
    p.add_argument("--jobs", type=int, default=4, help="maximum in-flight requests")
    p.add_argument("--most-similar-last", action="store_true")
    p.add_argument("--journal", default=None,
                   help="journal path (default: <out>/journal.jsonl); reruns resume from it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", formatter_class=fmt,
                       help="score hypothesis corrections against M2 gold edits")
    p.add_argument("--hyp", required=True, help="hypothesis sentences, one per line")
    p.add_argument("--m2", required=True, help="gold M2 file")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (treebank.TreebankError, pipeline.InvalidConfig, pipeline.MissingPrecomputation,
            pipeline.BatchSelectionError, pipeline.MalformedSelection, gecscore.MalformedBlock,
            gecscore.LengthMismatch, lexical.EmptyCorpus, lexical.DimensionMismatch,
            lexical.ZeroVector, prompt.TagCollision, llmclient.MalformedJournal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (llmclient.TransportError, llmclient.AuthFailure, llmclient.MalformedResponse) as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
