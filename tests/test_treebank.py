import gc
import random

import numpy as np
import pytest

from synicl import treebank
from synicl.gecscore import parse_m2
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

from conftest import (build_tree, forest_lists, graph, make_synth_corpus, random_tree_spec,
                      reference_forest, tree_to_conllu)


def iter_nodes(tree):
    """The tree's DepNodes in pre-order, children in token order."""
    stack = [graph(tree)]
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
    root = graph(tree)
    assert root.token_index == 3  # "were"
    assert vocab.labels[root.label] == "Root"
    assert [c.token_index for c in root.children] == [1, 2, 5, 6]  # But there buyers .
    assert [vocab.labels[c.label] for c in root.children] == ["cc", "expl", "nsubj", "punct"]
    buyers = root.children[2]
    assert [c.token_index for c in buyers.children] == [4]  # no


def test_parse_single_token():
    vocab = LabelVocab()
    trees = parse_conllu("1\tHello\t0\tRoot\n", vocab)
    assert len(trees) == 1
    assert trees[0].n_tokens == 1
    assert graph(trees[0]).children == []


def bundle_arrays(trees, sources=None):
    """The arrays of a bundle file holding `trees`, lists of [index, form, head, label] rows."""
    names = list(dict.fromkeys(row[3] for rows in trees for row in rows))
    if sources is None:
        sources = [" ".join(str(row[1]) for row in rows) for rows in trees]
    return {
        "version": np.int64(treebank.BUNDLE_VERSION),
        "label_names": text_array(names),
        "labels": np.array([names.index(row[3]) for rows in trees for row in rows], np.int32),
        "heads": np.array([row[2] for rows in trees for row in rows], np.int32),
        "tree_start": np.cumsum([0] + [len(rows) for rows in trees], dtype=np.int64),
        "sources": text_array(sources),
        "targets": text_array(sources),
    }


def text_array(lines):
    return np.frombuffer("".join(line + "\n" for line in lines).encode("utf-8"), np.uint8)


def write_arrays(bundle_dir, arrays):
    """Write `arrays`, possibly malformed, as the bundle file of `bundle_dir`."""
    bundle_dir.mkdir(parents=True)
    np.savez(bundle_dir / treebank.BUNDLE_FILE, **arrays)
    return str(bundle_dir)


def assert_both_readers_reject(tmp_path, rows, error):
    """The CoNLL-U text of `rows` and a bundle holding `rows` fail with the same error."""
    text = "\n".join("\t".join(map(str, row)) for row in rows) + "\n"
    with pytest.raises(error):
        parse_conllu(text, LabelVocab())
    with pytest.raises(error, match=r"examples\.npz example 0"):
        load_bundle(write_arrays(tmp_path / "bundle", bundle_arrays([rows])))


def test_parse_no_root_is_cyclic(tmp_path):
    rows = [[1, "a", 2, "dep"], [2, "b", 1, "dep"]]
    assert_both_readers_reject(tmp_path, rows, CyclicTree)


def test_parse_multiple_roots(tmp_path):
    rows = [[1, "a", 0, "Root"], [2, "b", 0, "Root"]]
    assert_both_readers_reject(tmp_path, rows, MultipleRoots)


def test_parse_cycle_below_root(tmp_path):
    rows = [[1, "a", 0, "Root"], [2, "b", 3, "dep"], [3, "c", 2, "dep"]]
    assert_both_readers_reject(tmp_path, rows, CyclicTree)


def test_parse_missing_token_index():
    # a bundle stores no token indices: a token's index is its position
    with pytest.raises(MissingToken):
        parse_conllu("1\ta\t0\tRoot\n3\tc\t1\tdep\n", LabelVocab())


def test_parse_malformed_lines(tmp_path):
    vocab = LabelVocab()
    with pytest.raises(MalformedLine):
        parse_conllu("1\ta\t0\tRoot\textra\n", vocab)  # 5 columns is neither layout
    with pytest.raises(MalformedLine):
        parse_conllu("1\ta\tX\tRoot\n", vocab)  # non-integer head
    with pytest.raises(MalformedLine, match="head 9223372036854775807 of token 1 out of range"):
        parse_conllu("1\ta\t99999999999999999999\tRoot\n", vocab)  # past int64
    with pytest.raises(MalformedLine):
        parse_conllu("1\ta\t0\tRoot\n1\tb\t1\tdep\n", vocab)  # duplicate index
    out_of_range = [[1, "a", 5, "Root"]]
    assert_both_readers_reject(tmp_path / "out_of_range", out_of_range, MalformedLine)
    negative = [[1, "a", 0, "Root"], [2, "b", -1, "dep"]]
    assert_both_readers_reject(tmp_path / "negative", negative, MalformedLine)


@pytest.mark.parametrize("fault, error", [
    ("1\ta\t0\tRoot\n2\tb\t0\tRoot\n3\tc\t1\tdep", MultipleRoots),
    ("1\ta\t0\tRoot\n2\tb\t3\tdep\n3\tc\t2\tdep", CyclicTree),
    ("1\ta\t0\tRoot\n2\tb\t4\tdep\n3\tc\t1\tdep", MalformedLine),
    ("1\ta\t0\tRoot\n2\tb\t1\tdep\n2\tc\t1\tdep", MalformedLine),
], ids=["two-roots", "cycle-below-root", "head-out-of-range", "duplicate-index"])
def test_faults_past_the_first_block_name_their_sentence(fault, error):
    assert treebank._LOAD_BLOCK_TREES < 2050
    sentences = ["1\ta\t0\tRoot\n2\tb\t1\tdep\n3\tc\t1\tdep"] * 2100
    sentences[2050] = fault
    with pytest.raises(error, match=r"^sentence 2050: "):
        parse_conllu("\n\n".join(sentences) + "\n", LabelVocab())


def chain(n):
    """Rows of a tree of n tokens, each token the head of the next."""
    return [[i, "w", i - 1, "Root" if i == 1 else "dep"] for i in range(1, n + 1)]


def test_cycles_are_found_in_every_tree_of_a_block(tmp_path):
    good = chain(3)
    cycle = [[1, "a", 0, "Root"], [2, "b", 4, "dep"], [3, "c", 2, "dep"], [4, "d", 3, "dep"]]
    trees = [good] * 5 + [cycle] + [good] * 3
    with pytest.raises(CyclicTree, match=r"examples\.npz example 5: 3 tokens unreachable"):
        load_bundle(write_arrays(tmp_path / "bundle", bundle_arrays(trees)))
    # a chain is the deepest tree of its size, and the largest tree of a block
    # sets the number of pointer-jumping rounds
    for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18, 255, 256, 257, 258]:
        corpus = load_bundle(write_arrays(tmp_path / f"chain{n}", bundle_arrays([chain(n)])))
        assert corpus[0].tree.heads == list(range(n))


# each id names a fault of the old row-per-token layout; the port stores the
# same fault in the array it now lives in
@pytest.mark.parametrize("name, array", [
    ("labels", np.array([], np.int32)),  # a token without its label
    ("heads", np.array(["0"])),  # heads stored as text
    ("tree_start", np.array([False, True])),  # tree bounds stored as bools
    ("label_names", np.array([7], np.int32)),  # label names stored as ids
    ("heads", np.array([[0, 0]], np.int32)),  # a token with two heads
    ("heads", np.array(["1 a 0 Root"], dtype=object)),  # a pickled object, never loaded
], ids=["short-row", "string-head", "bool-index", "int-label", "long-row", "text-tree"])
def test_bundle_rejects_malformed_rows(tmp_path, name, array):
    arrays = bundle_arrays([[[1, "a", 0, "Root"]]])
    arrays[name] = array
    with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz"):
        load_bundle(write_arrays(tmp_path / "bundle", arrays))


@pytest.mark.parametrize("name, array", [
    ("version", np.int64(0)),
    ("tree_start", np.array([0, 2, 2], np.int64)),  # an empty tree
    ("tree_start", np.array([1, 2], np.int64)),
    ("tree_start", np.array([], np.int64)),
    ("targets", np.frombuffer(b"a b", np.uint8)),  # no newline at the end
    ("sources", np.frombuffer(b"\xff\n", np.uint8)),  # not UTF-8
    ("labels", np.array([0, 5], np.int32)),  # label id out of range
    ("labels", np.array([0, -1], np.int32)),
    ("sources", None),
], ids=["version", "empty-tree", "start-not-0", "no-start", "unterminated", "not-utf8",
        "label-too-large", "label-negative", "missing-array"])
def test_bundle_rejects_malformed_arrays(tmp_path, name, array):
    arrays = bundle_arrays([[[1, "a", 0, "Root"], [2, "b", 1, "dep"]]])
    if array is None:
        del arrays[name]
    else:
        arrays[name] = array
    with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz"):
        load_bundle(write_arrays(tmp_path / "bundle", arrays))


def test_bundle_string_counts_must_match_the_trees(tmp_path):
    trees = [[[1, "a", 0, "Root"]], [[1, "b", 0, "Root"], [2, "c", 1, "dep"]]]
    for i, (name, lines) in enumerate([("sources", ["a"]), ("targets", ["a", "b c", "d"])]):
        arrays = bundle_arrays(trees)
        arrays[name] = text_array(lines)
        with pytest.raises(LengthMismatch, match=rf"examples\.npz: \d lines of {name} for 2 trees"):
            load_bundle(write_arrays(tmp_path / f"bundle{i}", arrays))


def test_bundle_file_layout(tmp_path):
    rows = [[[1, "a", 0, "Root"]], [[1, "b", 2, "dep"], [2, "c", 0, "Root"]],
            [[1, "d", 0, "Root"], [2, "e", 1, "dep"], [3, "f", 1, "S"]]]
    vocab = LabelVocab(["unused", "S"])
    corpus = treebank.Corpus([], vocab)
    for i, tree in enumerate(parse_conllu(THREE_TREES, vocab)):
        source = " ".join(row[1] for row in rows[i])
        corpus.examples.append(treebank.Example(id=i, source=source, target=source, tree=tree))
    save_bundle(corpus, str(tmp_path))
    with np.load(tmp_path / treebank.BUNDLE_FILE) as data:
        saved = {name: data[name] for name in data.files}
    expected = bundle_arrays(rows)
    assert list(saved) == list(expected)
    for name, array in expected.items():
        assert saved[name].dtype == array.dtype and np.array_equal(saved[name], array), name


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
    assert trees[0].heads == [0, 1]


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
    root = graph(tree)
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


def test_load_bundle_leaves_the_collector_as_it_found_it(tmp_path):
    good = write_arrays(tmp_path / "good", bundle_arrays([[[1, "a", 0, "Root"]]]))
    cyclic = write_arrays(tmp_path / "cyclic",
                          bundle_arrays([[[1, "a", 2, "dep"], [2, "b", 1, "dep"]]]))
    assert gc.isenabled()
    load_bundle(good)
    assert gc.isenabled()
    with pytest.raises(CyclicTree):  # raised while the collector is paused
        load_bundle(cyclic)
    assert gc.isenabled()
    gc.disable()
    try:
        load_bundle(good)
        with pytest.raises(CyclicTree):
            load_bundle(cyclic)
        assert not gc.isenabled()
    finally:
        gc.enable()


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
    assert len(vocab) == 1
    vocab.add("S")
    vocab.add("M")
    assert vocab.error_label_ids() == [vocab.labels.index("S"), vocab.labels.index("M")]


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


@pytest.mark.parametrize("data", [
    b"", b"\n", b"a", b"a\n\nb", b"a\r\nb\rc\n\r\n",
    # line boundaries of str.splitlines that are not newlines in a file
    "f\x0cg\x0bh\x1ci\x85j\u2028k\u2029l\n".encode(), "\ufeffbom\n".encode(),
], ids=["empty", "newline", "no-last-newline", "blank-line", "crlf-cr", "splitlines", "bom"])
def test_read_lines_gives_the_lines_of_file_iteration(tmp_path, data):
    path = tmp_path / "text.txt"
    path.write_bytes(data)
    # utf-8-sig drops one leading byte-order mark, as read_text does
    with open(path, encoding="utf-8-sig") as f:
        assert treebank.read_text(str(path)) == f.read()
    with open(path, encoding="utf-8-sig") as f:
        assert treebank.read_lines(str(path)) == [line.rstrip("\n") for line in f]
    if data.startswith("\ufeff".encode()):
        assert treebank.read_lines(str(path)) == ["bom"]


def test_load_corpus_length_mismatch(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C"], THREE_TREES)
    with pytest.raises(LengthMismatch):
        load_corpus(src, tgt, trees)


def test_load_corpus_empty_source_line_rejected(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "", "d e f"], ["A", "B", "C"], THREE_TREES)
    with pytest.raises(LengthMismatch, match=r"corpus\.src line 2: tree has 2 tokens but 0 "):
        load_corpus(src, tgt, trees)


def test_load_corpus_refuses_trees_beside_an_empty_source_file(tmp_path):
    src, tgt, trees, _ = write_corpus_files(tmp_path, [], [], THREE_TREES)
    for path in (src, tgt):
        open(path, "w").close()
    with pytest.raises(LengthMismatch, match=r"has 3 tree blocks but .*corpus\.src has 0 lines"):
        load_corpus(src, tgt, trees)


def test_load_corpus_token_count_mismatch(tmp_path):
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a extra", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    with pytest.raises(LengthMismatch):
        load_corpus(src, tgt, trees)
    # the same pair stored in a bundle
    arrays = bundle_arrays([[[1, "a", 0, "Root"]]], sources=["a extra"])
    with pytest.raises(LengthMismatch, match=r"examples\.npz example 0: tree has 1 tokens but 2 "):
        load_bundle(write_arrays(tmp_path / "bundle", arrays))


def test_load_corpus_embedding_dim_mismatch(tmp_path):
    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4, 5], [1, 0, 0, 0]])
    with pytest.raises(DimensionMismatch,
                       match=r"corpus\.emb line 2: embedding has length 5, expected 4"):
        load_corpus(src, tgt, trees, emb)


def test_load_bundle_embedding_dim_mismatch(tmp_path):
    trees = [[[1, "a", 0, "Root"]]] * 2
    for i, shape in enumerate([(3, 2), (1, 2), (2, 0)]):  # rows must match the trees, width >= 1
        arrays = bundle_arrays(trees)
        arrays["embeddings"] = np.zeros(shape)
        with pytest.raises(DimensionMismatch, match=r"examples\.npz: embeddings have shape"):
            load_bundle(write_arrays(tmp_path / f"bundle{i}", arrays))


def test_load_bundle_rejects_malformed_embeddings(tmp_path):
    trees = [[[1, "a", 0, "Root"]]] * 2
    bad = [[[0.5, 1.0], [float("nan"), 0.0]], [[0.5, 1.0], [1.0, float("inf")]],
           [[0.5, 1.0], [-float("inf"), 0.0]]]
    for i, embeddings in enumerate(bad):
        arrays = bundle_arrays(trees)
        arrays["embeddings"] = np.array(embeddings)
        with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz example 1: embedding"):
            load_bundle(write_arrays(tmp_path / f"bundle{i}", arrays))
    for i, embeddings in enumerate([np.ones((2, 2), np.float32), np.ones((2, 2), np.int64),
                                    np.ones(2), np.ones((2, 2, 1))]):
        arrays = bundle_arrays(trees)
        arrays["embeddings"] = embeddings
        with pytest.raises(treebank.MalformedBundle, match=r"array 'embeddings'"):
            load_bundle(write_arrays(tmp_path / f"type{i}", arrays))
    arrays = bundle_arrays(trees)
    arrays["embeddings"] = np.array([[1, -2.5, 0], [0, 0, 1e-300]])
    corpus = load_bundle(write_arrays(tmp_path / "good", arrays))
    assert corpus.embedding_dim == 3
    assert corpus[0].embedding.tolist() == [1.0, -2.5, 0.0]
    assert corpus[1].embedding.tolist() == [0.0, 0.0, 1e-300]


@pytest.mark.parametrize("line", ["0.1 nan", "inf 0.2", "0.1 -1e999", "0.1 x"])
def test_load_corpus_rejects_non_finite_embeddings(tmp_path, line):
    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2], [line], [1.0, 0.0]])
    with pytest.raises(MalformedLine, match=r"corpus\.emb line 2: "):
        load_corpus(src, tgt, trees, emb)


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


def test_corpus_holds_one_read_only_embedding_matrix(tmp_path):
    from synicl.lexical import build_dense

    src, tgt, trees, emb = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES,
        embeddings=[[0.1, 0.2], [0.5, -1.0], [1.0, 0.0]])
    read = load_corpus(src, tgt, trees, emb)
    save_bundle(read, str(tmp_path / "bundle"))
    by_hand = make_synth_corpus(5, seed=4, embedding_dim=3)
    for corpus in (read, load_bundle(str(tmp_path / "bundle")), by_hand):
        matrix = corpus.embeddings
        assert matrix.dtype == np.float64 and matrix.shape == (len(corpus), corpus.embedding_dim)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0
        for row, ex in zip(matrix, corpus.examples):
            assert np.shares_memory(row, ex.embedding)
            assert row.tobytes() == ex.embedding.tobytes()
        assert np.shares_memory(build_dense(corpus).matrix, matrix)
    assert make_synth_corpus(2, seed=4).embeddings is None


def test_corpus_refuses_a_matrix_or_width_that_does_not_fit():
    corpus = make_synth_corpus(2, seed=4, embedding_dim=3)
    for dim in (2, 4):
        with pytest.raises(DimensionMismatch, match=f"embedding_dim is {dim}, but .* width 3"):
            treebank.Corpus(corpus.examples, corpus.vocab, embedding_dim=dim)
    with pytest.raises(DimensionMismatch, match="embedding_dim is 3, but .* width None"):
        treebank.Corpus(make_synth_corpus(2, seed=4).examples, corpus.vocab, embedding_dim=3)
    for shape in [(3, 3), (1, 3), (2, 0), (2,), (2, 3, 1)]:
        with pytest.raises(DimensionMismatch, match=r"embeddings have shape .* for 2 examples"):
            treebank.Corpus(corpus.examples, corpus.vocab, embeddings=np.ones(shape))
    given = np.arange(6.0).reshape(2, 3)
    assert treebank.Corpus(corpus.examples, corpus.vocab, embeddings=given)[1].embedding.tolist() \
        == [3.0, 4.0, 5.0]
    given[0, 0] = 1.0  # the caller's own matrix stays writable


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
    assert len(shared) == len(corpus.vocab)


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
    # a bundle stores no ids: an example's id is its position
    src, tgt, trees, _ = write_corpus_files(
        tmp_path, ["a", "b c", "d e f"], ["A", "B C", "D E F"], THREE_TREES)
    corpus = load_corpus(src, tgt, trees)
    corpus.examples = corpus.examples[1:]  # every id is now its position + 1
    with pytest.raises(TreebankError, match=r"example 0: id 1 is not the example's position"):
        save_bundle(corpus, str(tmp_path / "bundle"))
    assert not (tmp_path / "bundle").exists()


def test_bundle_truncated_line_is_malformed(tmp_path):
    out = saved_bundle(tmp_path)
    path = out / treebank.BUNDLE_FILE
    data = path.read_bytes()
    for i, cut in enumerate([20, len(data) // 2, len(data) - 1]):  # a write cut short
        path.write_bytes(data[:cut])
        with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz: not a bundle file"):
            load_bundle(str(out))
    path.write_bytes(b"")
    with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz: not a bundle file"):
        load_bundle(str(out))
    np.save(path.with_suffix(".npy"), np.zeros(3))
    path.with_suffix(".npy").rename(path)  # one array, not an archive
    with pytest.raises(treebank.MalformedBundle, match=r"examples\.npz: not a bundle file"):
        load_bundle(str(out))


def test_old_jsonl_bundle_asks_for_a_new_ingest(tmp_path):
    (tmp_path / "examples.jsonl").write_text('{"id": 0}\n', encoding="utf-8")
    with pytest.raises(TreebankError, match=r"examples\.jsonl bundle.*re-run `synicl ingest`"):
        load_bundle(str(tmp_path))
    with pytest.raises(FileNotFoundError):  # no bundle at all stays an I/O error
        load_bundle(str(tmp_path / "missing"))


def test_save_bundle_twice_gives_identical_bytes(tmp_path):
    corpus = make_synth_corpus(50, seed=2, embedding_dim=4)
    for name in ("one", "two"):
        save_bundle(corpus, str(tmp_path / name))
    one, two = (tmp_path / name / treebank.BUNDLE_FILE for name in ("one", "two"))
    assert one.read_bytes() == two.read_bytes()
    assert treebank.content_hash([str(one)]) == treebank.content_hash([str(two)])


def random_rows(rng, n):
    """[index, form, head, label] rows of a random tree of n tokens, in token order.

    Nodes hang off random earlier nodes, and token indices are shuffled, so
    a head may come before or after its dependents. Few labels, so that
    siblings often share one.
    """
    position = list(range(1, n + 1))
    rng.shuffle(position)
    heads = [0] + [position[rng.randrange(i)] for i in range(1, n)]
    labels = ["Root"] + [rng.choice(["dep", "amod", "S"]) for _ in range(1, n)]
    rows = sorted((position[i], f"w{position[i]}", heads[i], labels[i]) for i in range(n))
    return [list(row) for row in rows]


def test_loaded_forest_equals_parsed_forest(tmp_path):
    # more trees than one block, so the block offsets are checked too
    rng = random.Random(6)
    trees = [random_rows(rng, rng.choice([1, rng.randint(1, 14)]))  # half with one token
             for _ in range(treebank._LOAD_BLOCK_TREES + 300)]
    assert sum(len(rows) == 1 for rows in trees) > 100
    blocks = []
    for rows in trees:
        lines = ["\t".join(map(str, row)) for row in rows]
        if rng.random() < 0.2:
            rng.shuffle(lines)  # CoNLL-U rows need not come in token order
        blocks.append("\n".join(lines))
    vocab = LabelVocab()
    parsed = parse_conllu("\n\n".join(blocks) + "\n", vocab)
    loaded = load_bundle(write_arrays(tmp_path / "bundle", bundle_arrays(trees)))
    columns = [([row[3] for row in rows], [row[2] for row in rows]) for rows in trees]
    for forest, forest_vocab in ((parsed[0].forest, vocab), (loaded[0].tree.forest, loaded.vocab)):
        assert forest_lists(forest) == reference_forest(columns, forest_vocab)
    for t, (tree, ex) in enumerate(zip(parsed, loaded.examples)):
        assert (tree.index, tree.n_tokens, tree.sentence_id) == (t, len(trees[t]), t)
        assert (ex.tree.index, ex.tree.n_tokens, ex.tree.sentence_id, ex.id) == (t, len(trees[t]), t, t)
    # a hand-built graph goes through the same writer
    for rows, tree_columns in zip(trees[:50], columns):
        nodes = [treebank.DepNode(index, form, vocab.labels.index(label))
                 for index, form, _, label in rows]
        for node, (_, _, head, _) in zip(nodes, rows):
            if head:
                nodes[head - 1].children.append(node)
            else:
                root = node
        forest = treebank.DepTree(root, len(rows)).forest
        reference = reference_forest([tree_columns], vocab)
        assert forest_lists(forest) == reference


def one_token_corpus(n, **fields):
    """n one-token examples; `fields` maps a field name to a value per example."""
    vocab = LabelVocab()
    examples = []
    for i in range(n):
        tree = treebank.DepTree(treebank.DepNode(1, f"w{i}", vocab.add("Root")), 1, i)
        ex = treebank.Example(id=i, source=f"w{i}", target=f"w{i}", tree=tree)
        for name, values in fields.items():
            setattr(ex, name, values[i])
        examples.append(ex)
    return treebank.Corpus(examples, vocab)


@pytest.mark.parametrize("fields, error, where", [
    ({"embedding": [np.ones(2), None]}, DimensionMismatch, "example 1"),
    ({"embedding": [None, np.ones(2)]}, DimensionMismatch, "example 1"),
    ({"embedding": [np.ones(2), np.ones(3)]}, DimensionMismatch, "example 1"),
    ({"embedding": [np.ones((1, 2)), np.ones((1, 2))]}, DimensionMismatch, "example 0"),
    ({"embedding": [np.ones(0), np.ones(0)]}, DimensionMismatch, "example 0"),
    ({"embedding": [np.ones(2), np.array([1.0, np.nan])]}, TreebankError, "example 1"),
    ({"source": ["w0", "w1\nw2"]}, TreebankError, "example 1: the source"),
    ({"target": ["a\nb", "w1"]}, TreebankError, "example 0: the target"),
], ids=["missing", "extra", "ragged", "matrix", "empty", "nan", "source-newline",
        "target-newline"])
def test_save_bundle_refuses_what_it_cannot_round_trip(tmp_path, fields, error, where):
    with pytest.raises(error, match=where):
        save_bundle(one_token_corpus(2, **fields), str(tmp_path / "bundle"))
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("label", [-1, -7, treebank._LABEL_LIMIT, 10 ** 30])
def test_graph_labels_must_be_label_ids(label):
    # the tree kernel's level pass indexes its tables by (node, label id): a
    # negative id would silently land in another node's cell
    with pytest.raises(MalformedLine, match="sentence 4: label id .* out of range"):
        treebank.DepTree(treebank.DepNode(1, "a", label), 1, 4)
    child = treebank.DepNode(2, "b", label)
    with pytest.raises(MalformedLine, match="sentence 4: label id .* out of range"):
        treebank.DepTree(treebank.DepNode(1, "a", 0, [child]), 2, 4)


@pytest.mark.parametrize("first, counts", [
    ([], []),  # no ranges
    ([5], [3]),  # one range: the shortcut
    ([5], [0]),
    ([4, 0, 9, 9, 2, 7], [2, 0, 3, 0, 1, 0]),  # zero-length ranges among them
])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_ranges_and_segments_match_a_python_reference(first, counts, dtype):
    first, counts = np.array(first, dtype), np.array(counts, dtype)
    assert treebank._ranges(first, counts).tolist() == [
        start + i for start, count in zip(first.tolist(), counts.tolist()) for i in range(count)]
    assert treebank._segments(counts).tolist() == [
        segment for segment, count in enumerate(counts.tolist()) for _ in range(count)]


def test_ranges_address_a_forests_int32_segments():
    rng = random.Random(31)
    vocab = LabelVocab()
    trees = parse_conllu("\n\n".join(
        tree_to_conllu(build_tree(random_tree_spec(rng, rng.randint(1, 12), "abcd"), vocab), vocab)
        for _ in range(40)), vocab)
    f = trees[0].forest
    assert f.kid_start.dtype == f.tree_start.dtype == np.int32
    # every segment in order gives the whole array back
    assert np.array_equal(f.kids[treebank._ranges(f.kid_start[:-1], np.diff(f.kid_start))],
                          f.kids)
    t = np.array(rng.sample(range(len(trees)), 15))
    first, counts = f.tree_start[t], f.tree_start[t + 1] - f.tree_start[t]
    assert treebank._ranges(first, counts).tolist() == [
        v for tree in t.tolist() for v in range(f.tree_start[tree], f.tree_start[tree + 1])]
    assert np.array_equal(treebank._segments(counts), np.repeat(np.arange(len(t)), counts))


# sentences of distinct lengths, so that a wrong split shows in the sizes
BLOCK_SENTENCES = [["a"], ["b", "c"], ["d", "e", "f"], ["g", "h"]]


@pytest.mark.parametrize("lead, separator, end, newline, comment_block", [
    ("", "\n\n", "\n", "\n", False),
    ("", "\n \t\n", "\n", "\n", False),  # a separator line of spaces and a tab
    ("", "\n\n", "\n", "\r\n", False),
    ("", "\n\t\n \n", "\n\n", "\r\n", False),
    ("", "\n\n", "\n", "\n", True),
    ("\n \n\n", "\n\n", "\n", "\n", False),  # leading blank lines
    ("", "\n\n", "", "\n", False),  # no trailing newline
], ids=["blank", "whitespace", "crlf", "whitespace-crlf", "comment-block", "leading", "no-end"])
def test_m2_and_conllu_read_the_same_blocks(lead, separator, end, newline, comment_block):
    def text(blocks):
        return (lead + separator.join("\n".join(block) for block in blocks) + end).replace(
            "\n", newline)

    m2 = [[f"S {' '.join(words)}", "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0"]
          for words in BLOCK_SENTENCES]
    conllu = [[f"# text = {' '.join(words)}"]
              + [f"{i}\t{word}\t{i - 1}\t{'root' if i == 1 else 'dep'}"
                 for i, word in enumerate(words, 1)] for words in BLOCK_SENTENCES]
    if comment_block:  # M2 has no comment lines; CoNLL-U skips a block of them
        conllu.insert(2, ["# newdoc id = 2", "# a block of comments only"])
    assert [doc.source_tokens for doc in parse_m2(text(m2))] == BLOCK_SENTENCES
    vocab = LabelVocab()
    trees = parse_conllu(text(conllu), vocab)
    assert [(tree.n_tokens, tree.sentence_id) for tree in trees] == [
        (len(words), t) for t, words in enumerate(BLOCK_SENTENCES)]
    assert vocab.labels == ["root", "dep"]  # a line's trailing "\r" is cut
