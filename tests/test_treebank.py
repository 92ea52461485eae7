import gc
import json
import random

import numpy as np
import pytest

from synicl import treebank
from synicl.treebank import (
    CyclicTree,
    DimensionMismatch,
    LabelVocab,
    LengthMismatch,
    MalformedLine,
    MissingToken,
    MultipleRoots,
    TreebankError,
    load_bundle,
    load_corpus,
    parse_conllu,
    save_bundle,
)

from conftest import build_tree, make_synth_corpus, random_tree_spec, tree_to_conllu


def iter_nodes(tree):
    """The tree's DepNodes in pre-order, children in token order."""
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))

# tree for "But there were no buyers ." with "were" as root
BUYERS_BLOCK = """\
1\tBut\t3\tcc
2\tthere\t3\texpl
3\twere\t0\tRoot
4\tno\t5\tdet
5\tbuyers\t3\tnsubj
6\t.\t3\tpunct
"""


def test_parse_basic_block():
    vocab = LabelVocab()
    trees = parse_conllu(BUYERS_BLOCK, vocab)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.n_tokens == 6
    root = tree.root
    assert root.form == "were"
    assert vocab.labels[root.label] == "Root"
    assert [c.form for c in root.children] == ["But", "there", "buyers", "."]
    assert [vocab.labels[c.label] for c in root.children] == ["cc", "expl", "nsubj", "punct"]
    buyers = root.children[2]
    assert [c.form for c in buyers.children] == ["no"]


def test_parse_single_token():
    vocab = LabelVocab()
    trees = parse_conllu("1\tHello\t0\tRoot\n", vocab)
    assert len(trees) == 1
    assert trees[0].n_tokens == 1
    assert trees[0].root.children == []


def write_bundle(bundle_dir, records):
    bundle_dir.mkdir(parents=True)
    (bundle_dir / "examples.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    return str(bundle_dir)


def tree_record(ex_id, rows, source=None):
    if source is None:
        source = " ".join(str(row[1]) for row in rows)
    return {"id": ex_id, "source": source, "target": source, "tree": rows}


def assert_both_readers_reject(tmp_path, rows, error):
    """The CoNLL-U text of `rows` and a bundle holding `rows` fail with the same error."""
    text = "\n".join("\t".join(map(str, row)) for row in rows) + "\n"
    with pytest.raises(error):
        parse_conllu(text, LabelVocab())
    with pytest.raises(error):
        load_bundle(write_bundle(tmp_path / "bundle", [tree_record(0, rows)]))


def test_parse_no_root_is_cyclic(tmp_path):
    rows = [[1, "a", 2, "dep"], [2, "b", 1, "dep"]]
    assert_both_readers_reject(tmp_path, rows, CyclicTree)


def test_parse_multiple_roots(tmp_path):
    rows = [[1, "a", 0, "Root"], [2, "b", 0, "Root"]]
    assert_both_readers_reject(tmp_path, rows, MultipleRoots)


def test_parse_cycle_below_root(tmp_path):
    rows = [[1, "a", 0, "Root"], [2, "b", 3, "dep"], [3, "c", 2, "dep"]]
    assert_both_readers_reject(tmp_path, rows, CyclicTree)


def test_parse_missing_token_index(tmp_path):
    rows = [[1, "a", 0, "Root"], [3, "c", 1, "dep"]]
    assert_both_readers_reject(tmp_path, rows, MissingToken)


def test_parse_malformed_lines(tmp_path):
    vocab = LabelVocab()
    with pytest.raises(MalformedLine):
        parse_conllu("1\ta\t0\tRoot\textra\n", vocab)  # 5 columns is neither layout
    with pytest.raises(MalformedLine):
        parse_conllu("1\ta\tX\tRoot\n", vocab)  # non-integer head
    duplicate = [[1, "a", 0, "Root"], [1, "b", 1, "dep"]]
    assert_both_readers_reject(tmp_path / "duplicate", duplicate, MalformedLine)
    out_of_range = [[1, "a", 5, "Root"]]
    assert_both_readers_reject(tmp_path / "out_of_range", out_of_range, MalformedLine)


@pytest.mark.parametrize("rows", [
    [[1, "a", 0]],  # 3-item row
    [[1, "a", "0", "Root"]],  # string head
    [[True, "a", 0, "Root"]],  # bool index
    [[1, "a", 0, 7]],  # non-string label
    [[1, "a", 0, "Root", "extra"]],  # 5-item row
    "1 a 0 Root",  # not a list of rows
], ids=["short-row", "string-head", "bool-index", "int-label", "long-row", "text-tree"])
def test_bundle_rejects_malformed_rows(tmp_path, rows):
    record = tree_record(0, [[1, "a", 0, "Root"]])
    record["tree"] = rows
    with pytest.raises(MalformedLine, match="examples.jsonl line 1"):
        load_bundle(write_bundle(tmp_path / "bundle", [record]))


def test_parse_ten_column_and_comments_and_mwt():
    vocab = LabelVocab()
    text = (
        "# sent_id = 1\n"
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\t_\t_\t_\t_\t0\tRoot\t_\t_\n"
        "2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    trees = parse_conllu(text, vocab)
    assert len(trees) == 1
    assert trees[0].n_tokens == 2
    assert trees[0].root.form == "do"


def test_parse_is_deterministic():
    text = BUYERS_BLOCK + "\n" + "1\tHi\t0\tRoot\n"
    vocab1, vocab2 = LabelVocab(), LabelVocab()
    one = parse_conllu(text, vocab1)
    two = parse_conllu(text, vocab2)
    assert vocab1.labels == vocab2.labels
    assert [tree_to_conllu(t, vocab1) for t in one] == [tree_to_conllu(t, vocab2) for t in two]


def test_roundtrip_random_trees():
    rng = random.Random(0)
    labels = ["Root", "a", "b", "c", "S"]
    for _ in range(200):
        vocab = LabelVocab()
        spec = random_tree_spec(rng, rng.randint(1, 12), labels)
        tree = build_tree(spec, vocab)
        text = tree_to_conllu(tree, vocab)
        vocab2 = LabelVocab()
        reparsed = parse_conllu(text, vocab2)[0]
        assert reparsed.n_tokens == tree.n_tokens
        for a, b in zip(iter_nodes(tree), iter_nodes(reparsed)):
            assert a.token_index == b.token_index
            assert vocab.labels[a.label] == vocab2.labels[b.label]
            assert [c.token_index for c in a.children] == [c.token_index for c in b.children]


def test_tree_from_graph_is_checked_like_parsed_rows():
    vocab = LabelVocab()
    tree = build_tree(random_tree_spec(random.Random(3), 9, ["Root", "a", "b"]), vocab)
    root = tree.root
    assert tree_to_conllu(treebank.DepTree(root, 9), vocab) == tree_to_conllu(tree, vocab)
    with pytest.raises(LengthMismatch):
        treebank.DepTree(root, 8)
    shared = treebank.DepNode(2, "b", 0)
    with pytest.raises(CyclicTree):
        treebank.DepTree(treebank.DepNode(1, "a", 0, [shared, shared]), 3)
    with pytest.raises(MissingToken):
        treebank.DepTree(treebank.DepNode(1, "a", 0, [treebank.DepNode(3, "c", 0)]), 2)


def test_loaded_bundle_tracks_a_few_objects_per_example(tmp_path):
    save_bundle(make_synth_corpus(2000, seed=4, min_tokens=10, max_tokens=30), str(tmp_path))
    gc.collect()
    before = len(gc.get_objects())
    corpus = load_bundle(str(tmp_path))
    gc.collect()
    added = len(gc.get_objects()) - before
    assert sum(ex.tree.n_tokens for ex in corpus.examples) > 15 * len(corpus)
    assert added < 2.5 * len(corpus)  # not one object or more per token


def test_child_count_sum_property():
    rng = random.Random(1)
    labels = ["Root", "x", "y"]
    for _ in range(100):
        vocab = LabelVocab()
        tree = build_tree(random_tree_spec(rng, rng.randint(1, 20), labels), vocab)
        total_children = sum(len(n.children) for n in iter_nodes(tree))
        assert total_children == tree.n_tokens - 1


def test_vocab_stable_ids_and_error_labels():
    vocab = LabelVocab()
    first = vocab.add("nsubj")
    assert vocab.add("nsubj") == first
    assert vocab.d == 1
    vocab.add("S")
    vocab.add("M")
    assert vocab.error_label_ids() == [vocab.index("S"), vocab.index("M")]


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def write_corpus_files(tmp_path, sources, targets, trees_text, embeddings=None):
    src = tmp_path / "corpus.src"
    tgt = tmp_path / "corpus.tgt"
    trees = tmp_path / "corpus.trees"
    src.write_text("\n".join(sources) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(targets) + "\n", encoding="utf-8")
    trees.write_text(trees_text, encoding="utf-8")
    emb = None
    if embeddings is not None:
        emb = tmp_path / "corpus.emb"
        emb.write_text("\n".join(" ".join(str(v) for v in row) for row in embeddings) + "\n",
                       encoding="utf-8")
    return str(src), str(tgt), str(trees), (str(emb) if emb else None)


THREE_TREES = (
    "1\ta\t0\tRoot\n\n"
    "1\tb\t2\tdep\n2\tc\t0\tRoot\n\n"
    "1\td\t0\tRoot\n2\te\t1\tdep\n3\tf\t1\tS\n"
)


def test_load_corpus_aligned(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    corpus = load_corpus(src, tgt, trees)
    assert [ex.id for ex in corpus.examples] == [0, 1, 2]
    assert corpus[1].source.split() == ["b", "c"]
    assert corpus[2].tree.n_tokens == 3
    assert corpus.embedding_dim is None


def test_load_corpus_length_mismatch(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C"], THREE_TREES)
    with pytest.raises(LengthMismatch):
        load_corpus(src, tgt, trees)


def test_load_corpus_empty_source_line_rejected(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "", "d e f"], ["A", "B", "C"], THREE_TREES)
    with pytest.raises(LengthMismatch):
        load_corpus(src, tgt, trees)


def test_load_corpus_token_count_mismatch(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a extra", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    with pytest.raises(LengthMismatch):
        load_corpus(src, tgt, trees)
    # the same pair stored in a bundle
    record = tree_record(0, [[1, "a", 0, "Root"]], source="a extra")
    with pytest.raises(LengthMismatch, match="examples.jsonl line 1"):
        load_bundle(write_bundle(tmp_path / "bundle", [record]))


def test_load_corpus_embedding_dim_mismatch(tmp_path):
    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4, 5], [1, 0, 0, 0]])
    with pytest.raises(DimensionMismatch):
        load_corpus(src, tgt, trees, emb)


def test_load_bundle_embedding_dim_mismatch(tmp_path):
    records = [tree_record(i, [[1, "a", 0, "Root"]]) for i in range(2)]
    records[0]["embedding"] = [0.1, 0.2]
    records[1]["embedding"] = [0.1, 0.2, 0.3]
    with pytest.raises(DimensionMismatch, match="examples.jsonl line 2"):
        load_bundle(write_bundle(tmp_path / "bundle", records))


def test_load_bundle_rejects_malformed_embeddings(tmp_path):
    bad = [5, "x", [], ["x"], [[1.0], [2.0]], [1.0, True], [1.0, None], [10**400],
           [float("nan")], [1.0, float("inf")], [-float("inf")], {"0": 1.0}]
    for i, embedding in enumerate(bad):
        record = tree_record(0, [[1, "a", 0, "Root"]])
        record["embedding"] = embedding
        with pytest.raises(MalformedLine, match=r"examples\.jsonl line 1: embedding"):
            load_bundle(write_bundle(tmp_path / f"bundle{i}", [record]))
    record = tree_record(0, [[1, "a", 0, "Root"]])
    record["embedding"] = [1, -2.5, 0]
    corpus = load_bundle(write_bundle(tmp_path / "good", [record]))
    assert corpus.embedding_dim == 3
    assert corpus[0].embedding.tolist() == [1.0, -2.5, 0.0]


def test_load_corpus_with_embeddings(tmp_path):
    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2], [0.5, -1.0], [1.0, 0.0]])
    corpus = load_corpus(src, tgt, trees, emb)
    assert corpus.embedding_dim == 2
    assert np.allclose(corpus[1].embedding, [0.5, -1.0])


def test_bundle_roundtrip(tmp_path):
    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2], [0.5, -1.0], [1.0, 0.0]])
    corpus = load_corpus(src, tgt, trees, emb)
    out = tmp_path / "bundle"
    save_bundle(corpus, str(out))
    loaded = load_bundle(str(out))
    assert len(loaded) == len(corpus)
    for orig, back in zip(corpus.examples, loaded.examples):
        assert orig.source == back.source
        assert orig.target == back.target
        assert tree_to_conllu(orig.tree, corpus.vocab) == tree_to_conllu(back.tree, loaded.vocab)
        assert np.allclose(orig.embedding, back.embedding)


def test_bundles_share_vocab(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    corpus = load_corpus(src, tgt, trees)
    out1 = tmp_path / "b1"
    out2 = tmp_path / "b2"
    save_bundle(corpus, str(out1))
    save_bundle(corpus, str(out2))
    shared = LabelVocab()
    one = load_bundle(str(out1), shared)
    two = load_bundle(str(out2), shared)
    assert one.vocab is two.vocab
    assert shared.d == corpus.vocab.d


def test_content_hash_changes_with_content(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("hello")
    b.write_text("hello")
    assert treebank.content_hash([str(a)]) == treebank.content_hash([str(b)])
    b.write_text("world")
    assert treebank.content_hash([str(a)]) != treebank.content_hash([str(b)])


def saved_bundle(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    out = tmp_path / "bundle"
    save_bundle(load_corpus(src, tgt, trees), str(out))
    return out


def test_bundle_ids_must_equal_positions(tmp_path):
    out = saved_bundle(tmp_path)
    path = out / "examples.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")  # every id is now its position + 1
    with pytest.raises(TreebankError, match=r"examples\.jsonl line 1: example id 1 != its position 0"):
        load_bundle(str(out))


def test_bundle_truncated_line_is_malformed(tmp_path):
    out = saved_bundle(tmp_path)
    path = out / "examples.jsonl"
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) - 20], encoding="utf-8")  # a write cut short
    with pytest.raises(MalformedLine, match=r"examples\.jsonl line 3"):
        load_bundle(str(out))
