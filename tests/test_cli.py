import json
import os
import random

import numpy as np
import pytest

from synicl import treebank
from synicl.cli import main
from synicl.prompt import build_completion_prompt

from conftest import (forest_lists, make_synth_corpus, mock_endpoint,  # noqa: F401 (fixture)
                      tree_to_conllu)


def m2_from_pairs(pairs):
    """Gold M2 text derived from (source, target) pairs via edit extraction."""
    from synicl.gecscore import extract_edits

    blocks = []
    for source, target in pairs:
        lines = [f"S {source}"]
        edits = sorted(extract_edits(source.split(), target.split()))
        if not edits:
            lines.append("A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0")
        for e in edits:
            repl = e.replacement if e.replacement else "-NONE-"
            lines.append(f"A {e.start} {e.end}|||UNK|||{repl}|||REQUIRED|||-NONE-|||0")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def dump_corpus_files(corpus, prefix):
    src = f"{prefix}.src"
    tgt = f"{prefix}.tgt"
    trees = f"{prefix}.trees"
    with open(src, "w", encoding="utf-8") as f:
        f.write("\n".join(ex.source for ex in corpus.examples) + "\n")
    with open(tgt, "w", encoding="utf-8") as f:
        f.write("\n".join(ex.target for ex in corpus.examples) + "\n")
    with open(trees, "w", encoding="utf-8") as f:
        f.write("\n\n".join(tree_to_conllu(ex.tree, corpus.vocab) for ex in corpus.examples) + "\n")
    return src, tgt, trees


@pytest.fixture
def bundles(tmp_path):
    train = make_synth_corpus(12, seed=100, max_tokens=8)
    test = make_synth_corpus(3, seed=101, vocab=train.vocab, max_tokens=8)
    paths = {}
    for name, corpus in (("train", train), ("test", test)):
        src, tgt, trees = dump_corpus_files(corpus, str(tmp_path / name))
        out = str(tmp_path / f"{name}_bundle")
        assert main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees, "--out", out]) == 0
        paths[name] = out
    return {"train": paths["train"], "test": paths["test"],
            "train_corpus": train, "test_corpus": test, "tmp": tmp_path}


def test_ingest_creates_bundle_and_manifest(bundles):
    out = bundles["train"]
    assert os.path.isfile(os.path.join(out, "examples.npz"))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["command"] == "ingest"
    assert manifest["input_hashes"]


def test_ingest_misaligned_exits_1(tmp_path, capsys):
    corpus = make_synth_corpus(3, seed=5, max_tokens=6)
    src, tgt, trees = dump_corpus_files(corpus, str(tmp_path / "c"))
    with open(tgt, "w", encoding="utf-8") as f:
        f.write("only one line\n")
    code = main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "3" in err and "1" in err


def test_ingest_drops_a_byte_order_mark(tmp_path):
    corpus = make_synth_corpus(3, seed=5, max_tokens=6)
    src, tgt, trees = dump_corpus_files(corpus, str(tmp_path / "c"))
    bundles = {}
    for name, marked in (("plain", []), ("bom", [src, trees])):
        for path in marked:
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write("\ufeff".encode() + data)
        out = tmp_path / name
        assert main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees,
                     "--out", str(out)]) == 0
        bundles[name] = (out / treebank.BUNDLE_FILE).read_bytes()
    assert bundles["bom"] == bundles["plain"]


def test_text_ingest_gives_the_bundle_save_bundle_writes(tmp_path):
    # more sentences than one forest block, so the checks cross a block boundary
    corpus = make_synth_corpus(treebank._LOAD_BLOCK_TREES + 100, seed=23, max_tokens=12,
                               embedding_dim=3)
    rng = random.Random(23)
    blocks = []
    for ex in corpus.examples:
        lines = [f"{index}\t{word}\t_\t_\t_\t_\t{head}\t{corpus.vocab.labels[label]}\t_\t_"
                 for index, (word, head, label)
                 in enumerate(zip(ex.source.split(), ex.tree.heads, ex.tree.labels), 1)]
        if rng.random() < 0.3:
            rng.shuffle(lines)  # CoNLL-U lines need not come in token order
        blocks.append("\n".join(lines))
    src, tgt, _ = dump_corpus_files(corpus, str(tmp_path / "c"))
    trees, emb = tmp_path / "c.conllu", tmp_path / "c.emb"
    trees.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    emb.write_text("".join(" ".join(map(repr, ex.embedding.tolist())) + "\n"
                           for ex in corpus.examples), encoding="utf-8")
    saved, ingested = tmp_path / "saved", tmp_path / "ingested"
    treebank.save_bundle(corpus, str(saved))
    assert main(["ingest", "--src", src, "--tgt", tgt, "--trees", str(trees),
                 "--embeddings", str(emb), "--out", str(ingested)]) == 0
    assert ((ingested / treebank.BUNDLE_FILE).read_bytes()
            == (saved / treebank.BUNDLE_FILE).read_bytes())
    # both loaders give one corpus
    vocab = treebank.LabelVocab()
    loaded = treebank.load_bundle(str(saved), vocab)
    labels = list(vocab.labels)
    read = treebank.load_corpus(src, tgt, str(trees), str(emb), vocab)
    assert vocab.labels == labels
    assert len(read) == len(loaded) == len(corpus) and read.embedding_dim == 3
    assert forest_lists(read[0].tree.forest) == forest_lists(loaded[0].tree.forest)
    for a, b in zip(read.examples, loaded.examples):
        assert (a.id, a.source, a.target) == (b.id, b.source, b.target)
        assert (a.tree.index, a.tree.n_tokens) == (b.tree.index, b.tree.n_tokens)
        assert a.embedding.tobytes() == b.embedding.tobytes()


def test_ingest_unreadable_exits_2(tmp_path):
    code = main(["ingest", "--src", str(tmp_path / "nope.src"),
                 "--tgt", str(tmp_path / "nope.tgt"),
                 "--trees", str(tmp_path / "nope.trees"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_input_errors_share_one_base_class():
    from synicl import gecscore, lexical, llmclient, pipeline, prompt, treebank

    exit_1 = [treebank.TreebankError, pipeline.InvalidConfig, pipeline.MissingPrecomputation,
              pipeline.MalformedSelection, gecscore.MalformedBlock, gecscore.LengthMismatch,
              lexical.EmptyCorpus, lexical.DimensionMismatch, lexical.ZeroVector,
              prompt.TagCollision, llmclient.MalformedJournal]
    assert [cls for cls in exit_1 if not issubclass(cls, treebank.InputError)] == []
    assert lexical.DimensionMismatch is treebank.DimensionMismatch
    assert gecscore.LengthMismatch is treebank.LengthMismatch


@pytest.mark.parametrize("command, flag", [
    ("ingest", "--src"), ("ingest", "--tgt"), ("ingest", "--trees"), ("ingest", "--embeddings"),
    ("score", "--hyp"), ("score", "--m2"), ("prompt", "--selections"), ("run", "--selections"),
])
def test_undecodable_input_exits_1(bundles, mock_endpoint, capsys, command, flag):
    tmp = bundles["tmp"]
    if command == "ingest":
        src, tgt, trees = dump_corpus_files(make_synth_corpus(3, seed=5, max_tokens=6),
                                            str(tmp / "c"))
        emb = tmp / "c.emb"
        emb.write_text("0.1 0.2\n0.3 0.4\n0.5 0.6\n", encoding="utf-8")
        inputs = {"--src": src, "--tgt": tgt, "--trees": trees, "--embeddings": str(emb)}
        args = ["--out", str(tmp / "out")]
    elif command == "score":
        inputs = {"--hyp": str(tmp / "h.txt"), "--m2": str(tmp / "g.m2")}
        (tmp / "h.txt").write_text("a c\nx y\n", encoding="utf-8")
        (tmp / "g.m2").write_text(m2_from_pairs([("a b c", "a c"), ("x y", "x y")]),
                                  encoding="utf-8")
        args = []
    else:
        inputs = {"--selections": select_for_prompts(bundles, "sel_utf8")}
        args = ["--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                "--style", "chat", "--out", str(tmp / "out")]
    server = mock_endpoint(reply_fn=lambda body: "ok")
    if command == "run":
        args += ["--base-url", server.base_url, "--model", "mock"]
    path = inputs[flag]
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:5] + b"\xff" + data[6:])  # 0xff is never part of UTF-8
    capsys.readouterr()
    assert main([command, *(word for item in inputs.items() for word in item), *args]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 5)\n"
    assert server.requests == [] and not (tmp / "out").exists()


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "1000" in out
    assert "default: 4" in out
    assert "2.0" in out


def test_select_invalid_config_exits_1(bundles, capsys):
    code = main(["select", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"],
                 "--stage1", "none", "--stage2", "none",
                 "--out", str(bundles["tmp"] / "sel")])
    assert code == 1
    assert "none" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("select", "--limit"), ("run", "--max-retries")])
def test_negative_count_exits_1_before_loading(tmp_path, capsys, command, flag):
    # the bundles do not exist: a check made after loading them would exit 2
    args = [command, "--train-bundle", str(tmp_path / "train"),
            "--test-bundle", str(tmp_path / "test"), flag, "-1", "--out", str(tmp_path / "out")]
    if command == "run":
        args += ["--selections", str(tmp_path / "selections.jsonl"), "--style", "chat",
                 "--base-url", "http://127.0.0.1:9", "--model", "m"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be >= 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "run"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_1_before_loading(tmp_path, capsys, command, jobs):
    # fewer than one worker used to run one without a word
    args = [command, "--train-bundle", str(tmp_path / "train"),
            "--test-bundle", str(tmp_path / "test"), "--jobs", jobs, "--out", str(tmp_path / "out")]
    if command == "run":
        args += ["--selections", str(tmp_path / "selections.jsonl"), "--style", "chat",
                 "--base-url", "http://127.0.0.1:9", "--model", "m"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: --jobs must be >= 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
def test_run_bad_timeout_exits_1_before_loading(tmp_path, capsys, timeout):
    # the bundles do not exist: a check made after loading them would exit 2
    args = ["run", "--train-bundle", str(tmp_path / "train"), "--test-bundle",
            str(tmp_path / "test"), "--selections", str(tmp_path / "selections.jsonl"),
            "--style", "chat", "--base-url", "http://127.0.0.1:9", "--model", "m",
            "--timeout", timeout, "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: --timeout must be a finite number > 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "0"])
def test_bad_error_weight_exits_1_before_loading(tmp_path, capsys, weight):
    # the bundles do not exist: a check made after loading them would exit 2
    args = ["select", "--train-bundle", str(tmp_path / "train"), "--test-bundle",
            str(tmp_path / "test"), "--stage2", "wpoly", "--error-weight", weight,
            "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: error_weight must be a finite number > 0")
    assert not (tmp_path / "out").exists()


def test_select_truncated_bundle_exits_1(bundles, capsys):
    path = os.path.join(bundles["train"], "examples.npz")
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[: len(data) - 10])  # the write was cut short
    code = main(["select", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"], "--out", str(bundles["tmp"] / "sel")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: not a bundle file" in err


def test_ingest_non_finite_embedding_exits_1(tmp_path, capsys):
    corpus = make_synth_corpus(3, seed=5, max_tokens=6)
    src, tgt, trees = dump_corpus_files(corpus, str(tmp_path / "c"))
    emb = tmp_path / "c.emb"
    emb.write_text("0.1 0.2\n0.1 nan\n0.3 0.4\n", encoding="utf-8")
    code = main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees,
                 "--embeddings", str(emb), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"{emb} line 2: embedding values must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_select_dense_refuses_a_norm_that_overflows(tmp_path, capsys):
    # 1e200 is finite, so ingest takes it, but its squared norm overflows float64
    for name, seed, vectors in (("train", 5, ["0.1 0.2", "1e200 0.0", "0.3 0.4"]),
                                ("test", 6, ["0.1 0.2"])):
        src, tgt, trees = dump_corpus_files(
            make_synth_corpus(len(vectors), seed=seed, max_tokens=6), str(tmp_path / name))
        emb = tmp_path / f"{name}.emb"
        emb.write_text("\n".join(vectors) + "\n", encoding="utf-8")
        assert main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees,
                     "--embeddings", str(emb), "--out", str(tmp_path / f"{name}-bundle")]) == 0
    capsys.readouterr()
    code = main(["select", "--train-bundle", str(tmp_path / "train-bundle"),
                 "--test-bundle", str(tmp_path / "test-bundle"), "--stage1", "dense",
                 "--stage2", "none", "--candidates", "2", "--shots", "1",
                 "--out", str(tmp_path / "sel")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: embedding row 1 has float64 L2 norm inf")


@pytest.mark.parametrize("command", ["select", "prompt", "run"])
def test_old_bundle_layout_exits_1(bundles, mock_endpoint, capsys, command):
    selections = select_for_prompts(bundles, "sel_old")
    os.remove(os.path.join(bundles["train"], "examples.npz"))
    with open(os.path.join(bundles["train"], "examples.jsonl"), "w", encoding="utf-8") as f:
        f.write('{"id": 0, "source": "a", "target": "a", "tree": [[1, "a", 0, "Root"]]}\n')
    capsys.readouterr()
    args = [command, "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
            "--out", str(bundles["tmp"] / "out")]
    if command != "select":
        args += ["--selections", selections, "--style", "chat"]
    if command == "run":
        args += ["--base-url", mock_endpoint().base_url, "--model", "m"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "re-run `synicl ingest`" in err


def test_select_writes_selections(bundles):
    out = str(bundles["tmp"] / "sel")
    code = main(["select", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"],
                 "--stage1", "bm25", "--stage2", "tk",
                 "--candidates", "12", "--shots", "2", "--out", out])
    assert code == 0
    with open(os.path.join(out, "selections.jsonl"), encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 3
    for row in rows:
        assert len(row["chosen"]) == 2
        assert row["stage1"] == "bm25" and row["stage2"] == "tree_kernel"


def test_select_rerun_is_byte_identical(bundles):
    args = ["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
            "--stage1", "bm25", "--stage2", "poly", "--candidates", "12", "--shots", "3"]
    out1, out2 = str(bundles["tmp"] / "s1"), str(bundles["tmp"] / "s2")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    with open(os.path.join(out1, "selections.jsonl"), "rb") as f:
        first = f.read()
    with open(os.path.join(out2, "selections.jsonl"), "rb") as f:
        second = f.read()
    assert first == second


def test_bundle_with_a_forms_array_loads_and_selects_the_same(tmp_path):
    # bundles of earlier versions also hold each tree's token forms, joined by tabs,
    # in a `forms` array just before the embeddings; they load without a new ingest
    vocab = treebank.LabelVocab()
    corpora = {"train": make_synth_corpus(40, seed=102, max_tokens=8, embedding_dim=4, vocab=vocab),
               "test": make_synth_corpus(4, seed=103, max_tokens=8, embedding_dim=4, vocab=vocab)}
    for name, corpus in corpora.items():
        new, old = tmp_path / "new" / name, tmp_path / "old" / name
        treebank.save_bundle(corpus, str(new))
        with np.load(new / treebank.BUNDLE_FILE) as data:
            arrays = {key: data[key] for key in data.files}
        embeddings = arrays.pop("embeddings")
        forms = "".join("\t".join(ex.source.split()) + "\n" for ex in corpus.examples)
        arrays["forms"] = np.frombuffer(forms.encode("utf-8"), np.uint8)
        arrays["embeddings"] = embeddings
        old.mkdir(parents=True)
        np.savez(old / treebank.BUNDLE_FILE, **arrays)
        want, got = treebank.load_bundle(str(new)), treebank.load_bundle(str(old))
        assert got.vocab.labels == want.vocab.labels
        assert got.embedding_dim == want.embedding_dim == 4
        assert forest_lists(got[0].tree.forest) == forest_lists(want[0].tree.forest)
        for a, b in zip(got.examples, want.examples, strict=True):
            assert (a.id, a.source, a.target, a.tree.index, a.tree.n_tokens) == \
                (b.id, b.source, b.target, b.tree.index, b.tree.n_tokens)
            assert a.embedding.tobytes() == b.embedding.tobytes()
    selections = {}
    for side in ("new", "old"):
        out = tmp_path / f"sel_{side}"
        assert main(["select", "--train-bundle", str(tmp_path / side / "train"),
                     "--test-bundle", str(tmp_path / side / "test"), "--stage1", "dense",
                     "--stage2", "wpoly", "--candidates", "20", "--shots", "3",
                     "--out", str(out)]) == 0
        selections[side] = (out / "selections.jsonl").read_bytes()
    assert selections["old"] == selections["new"]


def test_shots_eight(bundles):
    out = str(bundles["tmp"] / "sel8")
    code = main(["select", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"],
                 "--stage1", "none", "--stage2", "wpoly", "--shots", "8",
                 "--candidates", "12", "--out", out])
    assert code == 0
    with open(os.path.join(out, "selections.jsonl"), encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert all(len(row["chosen"]) == 8 for row in rows)


def test_prompt_dump_matches_library_rendering(bundles):
    sel_dir = str(bundles["tmp"] / "sel_p")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "tk", "--candidates", "12", "--shots", "2",
          "--out", sel_dir])
    out = str(bundles["tmp"] / "prompts")
    code = main(["prompt", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "completion", "--out", out])
    assert code == 0
    with open(os.path.join(sel_dir, "selections.jsonl"), encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    train = bundles["train_corpus"]
    test = bundles["test_corpus"]
    for row in rows:
        with open(os.path.join(out, f"prompt_{row['query_id']:05d}.txt"), encoding="utf-8") as f:
            dumped = f.read()
        pairs = [(train[i].source, train[i].target) for i, _ in row["chosen"]]
        assert dumped == build_completion_prompt(pairs, test[row["query_id"]].source)


def test_prompt_chat_style_jsonl(bundles):
    sel_dir = str(bundles["tmp"] / "sel_c")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "none", "--candidates", "12", "--shots", "2",
          "--out", sel_dir])
    out = str(bundles["tmp"] / "chat_prompts")
    code = main(["prompt", "--train-bundle", bundles["train"],
                 "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "chat", "--out", out])
    assert code == 0
    with open(os.path.join(out, "prompts.jsonl"), encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 3
    for row in rows:
        assert row["messages"][0]["role"] == "system"
        assert row["messages"][-1]["role"] == "user"


def select_for_prompts(bundles, name, *flags):
    out = str(bundles["tmp"] / name)
    assert main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--stage1", "bm25", "--stage2", "tk", "--candidates", "12", "--shots", "2",
                 "--out", out, *flags]) == 0
    return os.path.join(out, "selections.jsonl")


def reversed_pairs(items):
    return [x for i in range(len(items) - 2, -1, -2) for x in items[i:i + 2]]


def test_prompt_dumps_what_run_sends(bundles, mock_endpoint):
    selections = select_for_prompts(bundles, "sel_same")
    with open(selections, encoding="utf-8") as f:
        query_ids = [json.loads(line)["query_id"] for line in f]
    sent = {}
    for style in ("chat", "completion"):
        for order in ([], ["--most-similar-last"]):
            common = ["--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                      "--selections", selections, "--style", style, *order]
            prompt_out = bundles["tmp"] / f"prompts_{style}{len(order)}"
            assert main(["prompt", *common, "--out", str(prompt_out)]) == 0
            server = mock_endpoint(reply_fn=lambda body: "ok")
            assert main(["run", *common, "--base-url", server.base_url, "--model", "mock",
                         "--jobs", "1", "--out", str(bundles["tmp"] / f"run_{style}{len(order)}")]) == 0
            bodies = [body["messages"] for body in server.requests]
            if style == "chat":
                with open(prompt_out / "prompts.jsonl", encoding="utf-8") as f:
                    rows = [json.loads(line) for line in f]
                assert [row["query_id"] for row in rows] == query_ids
                assert [row["messages"] for row in rows] == bodies
            else:
                assert sorted(os.listdir(prompt_out)) == sorted(
                    [f"prompt_{qid:05d}.txt" for qid in query_ids] + ["manifest.json"])
                for qid, messages in zip(query_ids, bodies):
                    text = (prompt_out / f"prompt_{qid:05d}.txt").read_text(encoding="utf-8")
                    assert messages == [{"role": "user", "content": text}]
            sent[style, bool(order)] = bodies
    for forward, backward in zip(sent["chat", False], sent["chat", True]):
        assert forward[0] == backward[0] and forward[-1] == backward[-1]
        assert forward[1:-1] == reversed_pairs(backward[1:-1]) != backward[1:-1]
    for forward, backward in zip(sent["completion", False], sent["completion", True]):
        forward, backward = forward[0]["content"].split("\n"), backward[0]["content"].split("\n")
        assert forward[1:-2] == reversed_pairs(backward[1:-2]) != backward[1:-2]


def truncate(text):
    return text[: len(text) - 10]


def edit_first_row(query_id=None, chosen_id=None):
    def apply(text):
        first, rest = text.split("\n", 1)
        row = json.loads(first)
        if query_id is not None:
            row["query_id"] = query_id
        if chosen_id is not None:
            row["chosen"][0][0] = chosen_id
        return json.dumps(row) + "\n" + rest
    return apply


BAD_SELECTIONS = {
    "truncated": (truncate, "line 3: not JSON"),
    "unknown-query": (edit_first_row(query_id=99), "unknown query id 99"),
    "negative-id": (edit_first_row(chosen_id=-1), "[-1]"),
    "id-past-end": (edit_first_row(chosen_id=999), "[999]"),
}


@pytest.mark.parametrize("case", sorted(BAD_SELECTIONS))
@pytest.mark.parametrize("command", ["prompt", "run"])
def test_bad_selections_exit_1(bundles, mock_endpoint, capsys, command, case):
    edit, message = BAD_SELECTIONS[case]
    selections = select_for_prompts(bundles, "sel_bad")
    with open(selections, encoding="utf-8") as f:
        text = f.read()
    with open(selections, "w", encoding="utf-8") as f:
        f.write(edit(text))
    capsys.readouterr()
    server = mock_endpoint(reply_fn=lambda body: "ok")
    args = [command, "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
            "--selections", selections, "--style", "chat", "--out", str(bundles["tmp"] / "out")]
    if command == "run":
        args += ["--base-url", server.base_url, "--model", "mock"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert server.requests == []


def other_bundle(bundles, name, corpus):
    src, tgt, trees = dump_corpus_files(corpus, str(bundles["tmp"] / name))
    out = str(bundles["tmp"] / f"{name}_bundle")
    assert main(["ingest", "--src", src, "--tgt", tgt, "--trees", trees, "--out", out]) == 0
    return out


@pytest.mark.parametrize("swapped", ["train", "test"])
@pytest.mark.parametrize("command", ["prompt", "run"])
def test_selections_need_their_own_bundles(bundles, mock_endpoint, capsys, command, swapped):
    selections = select_for_prompts(bundles, "sel_own")
    # as many or more examples from another seed: every chosen id is in range
    size = {"train": 16, "test": 3}[swapped]
    paths = {"train": bundles["train"], "test": bundles["test"]}
    paths[swapped] = other_bundle(bundles, "other", make_synth_corpus(size, seed=102, max_tokens=8))
    capsys.readouterr()
    server = mock_endpoint(reply_fn=lambda body: "ok")
    out = bundles["tmp"] / "out"
    args = [command, "--train-bundle", paths["train"], "--test-bundle", paths["test"],
            "--selections", selections, "--style", "chat", "--out", str(out)]
    if command == "run":
        args += ["--base-url", server.base_url, "--model", "mock"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"another --{swapped}-bundle" in err
    assert server.requests == [] and not out.exists()
    with open(os.path.join(os.path.dirname(selections), "manifest.json"), encoding="utf-8") as f:
        assert sorted(json.load(f)["bundle_hashes"]) == ["test_bundle", "train_bundle"]


def test_selections_without_manifest_run_unchecked(bundles, capsys):
    selections = select_for_prompts(bundles, "sel_bare")
    os.remove(os.path.join(os.path.dirname(selections), "manifest.json"))
    capsys.readouterr()
    out = bundles["tmp"] / "bare_prompts"
    assert main(["prompt", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", selections, "--style", "chat", "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith("warning: no bundle hashes")
    with open(out / "manifest.json", encoding="utf-8") as f:
        assert sorted(json.load(f)["bundle_hashes"]) == ["test_bundle", "train_bundle"]


def test_run_and_score_flow(bundles, mock_endpoint):
    sel_dir = str(bundles["tmp"] / "sel_r")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "tk", "--candidates", "12", "--shots", "2",
          "--out", sel_dir])

    from conftest import echo_target_reply
    test_corpus = bundles["test_corpus"]
    server = mock_endpoint(
        reply_fn=echo_target_reply([(ex.source, ex.target) for ex in test_corpus.examples]))
    run_out = str(bundles["tmp"] / "run")
    code = main(["run", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "completion", "--base-url", server.base_url,
                 "--model", "mock", "--out", run_out])
    assert code == 0
    hyp_path = os.path.join(run_out, "hypotheses.txt")
    with open(hyp_path, encoding="utf-8") as f:
        hyps = [line.rstrip("\n") for line in f]
    assert hyps == [ex.target for ex in test_corpus.examples]
    assert os.path.isfile(os.path.join(run_out, "journal.jsonl"))

    m2_path = str(bundles["tmp"] / "gold.m2")
    with open(m2_path, "w", encoding="utf-8") as f:
        f.write(m2_from_pairs([(ex.source, ex.target) for ex in test_corpus.examples]))
    code = main(["score", "--hyp", hyp_path, "--m2", m2_path,
                 "--out", str(bundles["tmp"] / "report.json")])
    assert code == 0
    with open(bundles["tmp"] / "report.json", encoding="utf-8") as f:
        report = json.load(f)
    assert report["precision"] == 1.0 and report["recall"] == 1.0 and report["f_half"] == 1.0


def test_run_writes_one_hypothesis_per_record(bundles, mock_endpoint):
    sel_dir = str(bundles["tmp"] / "sel_lines")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "none", "--candidates", "12", "--shots", "1",
          "--out", sel_dir])

    from conftest import echo_target_reply
    examples = bundles["test_corpus"].examples
    # each correction spans two lines, split by one of the line ends that `score` reads
    server = mock_endpoint(reply_fn=echo_target_reply(
        [(ex.source, ex.target.replace(" ", end, 1))
         for ex, end in zip(examples, ["\r\n", "\r", "\n"], strict=True)]))
    run_out = bundles["tmp"] / "run_lines"
    assert main(["run", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "chat", "--base-url", server.base_url, "--model", "mock",
                 "--out", str(run_out)]) == 0
    hyp_path = str(run_out / "hypotheses.txt")
    assert treebank.read_lines(hyp_path) == [ex.target for ex in examples]
    m2_path = str(bundles["tmp"] / "gold_lines.m2")
    with open(m2_path, "w", encoding="utf-8") as f:
        f.write(m2_from_pairs([(ex.source, ex.target) for ex in examples]))
    report = str(bundles["tmp"] / "report_lines.json")
    assert main(["score", "--hyp", hyp_path, "--m2", m2_path, "--out", report]) == 0
    with open(report, encoding="utf-8") as f:
        assert json.load(f)["f_half"] == 1.0


def test_score_prints_table(bundles, capsys, tmp_path):
    pairs = [("a b c", "a c"), ("x y", "x y")]
    m2_path = str(tmp_path / "g.m2")
    with open(m2_path, "w", encoding="utf-8") as f:
        f.write(m2_from_pairs(pairs))
    hyp_path = str(tmp_path / "h.txt")
    with open(hyp_path, "w", encoding="utf-8") as f:
        f.write("a c\nx y\n")
    assert main(["score", "--hyp", hyp_path, "--m2", m2_path]) == 0
    out = capsys.readouterr().out
    assert "P 1.000 R 1.000 F0.5 1.000" in out


def test_run_endpoint_failure_exits_3(bundles, mock_endpoint):
    sel_dir = str(bundles["tmp"] / "sel_f")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "none", "--candidates", "12", "--shots", "1",
          "--out", sel_dir])
    server = mock_endpoint(status_plan=[500] * 100)
    code = main(["run", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "chat", "--base-url", server.base_url,
                 "--model", "mock", "--max-retries", "1",
                 "--out", str(bundles["tmp"] / "run_f")])
    assert code == 3


def test_run_auth_failure_exits_3_after_one_request(bundles, mock_endpoint, capsys):
    sel_dir = str(bundles["tmp"] / "sel_a")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "none", "--candidates", "12", "--shots", "1",
          "--out", sel_dir])
    server = mock_endpoint(status_plan=[401] * 100)
    code = main(["run", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "chat", "--base-url", server.base_url, "--model", "mock",
                 "--jobs", "1", "--out", str(bundles["tmp"] / "run_a")])
    assert code == 3
    assert len(server.requests) == 1
    assert "HTTP 401" in capsys.readouterr().err


def test_run_bad_journal_line_exits_1(bundles, mock_endpoint, capsys):
    sel_dir = str(bundles["tmp"] / "sel_j")
    main(["select", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
          "--stage1", "bm25", "--stage2", "none", "--candidates", "12", "--shots", "1",
          "--out", sel_dir])
    journal = bundles["tmp"] / "journal.jsonl"
    journal.write_text("{torn\n{}\n", encoding="utf-8")
    server = mock_endpoint(reply_fn=lambda body: "ok")
    code = main(["run", "--train-bundle", bundles["train"], "--test-bundle", bundles["test"],
                 "--selections", os.path.join(sel_dir, "selections.jsonl"),
                 "--style", "chat", "--base-url", server.base_url, "--model", "mock",
                 "--journal", str(journal), "--out", str(bundles["tmp"] / "run_j")])
    assert code == 1
    assert "journal.jsonl line 1" in capsys.readouterr().err
    assert server.requests == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "synicl" in capsys.readouterr().out
