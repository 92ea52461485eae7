"""Dependency treebank ingestion: CoNLL-U parsing, corpus loading and the forest.

Trees are read from parser output only; this package never runs a parser.
Node labels are the DEPREL strings (error-aware parsers encode error
information there, e.g. the "S"/"R"/"M" labels), interned into a shared
label vocabulary so that downstream similarity code works on small ints.

Every tree of a corpus lives in one `Forest`: a few flat lists of ints and
one string of forms per tree, with no Python object per token, so a loaded
pool of hundreds of thousands of tokens gives the cyclic garbage collector
and the allocator a few objects per sentence, not two per token. Per node
the forest keeps the label, the head, the child count and where its child
groups start; per child group (the children of one label, the groups of a
node in label order) the label, the number of leaves and the ids of the
internal children, which is the shape the tree kernel merge-joins over. A
`DepTree` is a view (forest, tree index, n_tokens, sentence_id).
`DepTree.forms` and `DepTree.root` rebuild per-token objects only when
asked, and `DepTree(root=DepNode…)` turns a hand-built graph into a
one-tree forest.

CoNLL-U text and DepNode graphs enter a forest through `_append_tree`,
which checks each tree (one root, no cycles, contiguous token indices, no
tab or newline in a form). A corpus bundle is one binary file,
`examples.npz`, written by `save_bundle`; `load_bundle` runs the same
structural checks on its arrays with numpy and fills the forest lists in
blocks of trees, giving lists equal to what `_append_tree` builds.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

ERROR_LABELS = ("S", "R", "M")


class TreebankError(ValueError):
    """Base class for treebank ingestion failures."""


class MalformedLine(TreebankError):
    pass


class CyclicTree(TreebankError):
    pass


class MultipleRoots(TreebankError):
    pass


class MissingToken(TreebankError):
    pass


class LengthMismatch(TreebankError):
    pass


class DimensionMismatch(TreebankError):
    pass


class MalformedBundle(TreebankError):
    """A bundle file that is not in the format `save_bundle` writes."""


class LabelVocab:
    """Ordered set of dependency label strings with stable integer ids."""

    def __init__(self, labels: Sequence[str] = ()):
        self.labels: List[str] = []
        self._index: dict[str, int] = {}
        for label in labels:
            self.add(label)

    def add(self, label: str) -> int:
        """Return the id of `label`, adding it to the vocab if unseen."""
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self.labels.append(label)
            self._index[label] = idx
        return idx

    def index(self, label: str) -> int:
        return self._index[label]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        """Number of distinct labels."""
        return len(self.labels)

    def error_label_ids(self) -> List[int]:
        """Ids of the error labels (S/R/M) present in this vocab."""
        return [self._index[lb] for lb in ERROR_LABELS if lb in self._index]

    def __repr__(self) -> str:
        return f"LabelVocab({len(self.labels)} labels)"


@dataclass
class DepNode:
    """One token of a dependency tree; children kept in token order.

    Trees are stored in a `Forest`; DepNodes are built only when a
    `DepTree.root` is asked for, or by hand to make a `DepTree`.
    """

    token_index: int
    form: str
    label: int
    children: List["DepNode"] = field(default_factory=list)


class Forest:
    """Every tree of a corpus in flat lists, with no object per token.

    Node ids are positions in the per-node lists; the nodes of tree t are
    `tree_start[t]` to `tree_start[t + 1] - 1`, in token order, and its root
    is `roots[t]`. `forms[t]` holds the forms of tree t's tokens joined by
    tabs (so a form holds no tab). Per node: `labels`, `heads` (the head's
    token index, 0 at the root), `n_children`, and the groups
    `group_start[v]` to `group_start[v + 1] - 1` of its children. A group
    holds the children of one label, the groups of a node in label order:
    `group_label`, `group_leaves` (how many of them are leaves) and the node
    ids of the others, `kids[kid_start[g]:kid_start[g + 1]]`.
    """

    __slots__ = ("labels", "heads", "forms", "n_children", "group_start", "group_label",
                 "group_leaves", "kid_start", "kids", "tree_start", "roots")

    def __init__(self) -> None:
        self.labels: List[int] = []
        self.heads: List[int] = []
        self.forms: List[str] = []  # one per tree
        self.n_children: List[int] = []
        self.group_start: List[int] = [0]
        self.group_label: List[int] = []
        self.group_leaves: List[int] = []
        self.kid_start: List[int] = [0]
        self.kids: List[int] = []
        self.tree_start: List[int] = [0]
        self.roots: List[int] = []


class DepTree:
    """A view of one tree of a `Forest`: (forest, tree index, n_tokens, sentence_id).

    `DepTree(root=DepNode, n_tokens, sentence_id)` checks a hand-built graph
    like any parsed tree and stores it as a one-tree forest.
    """

    __slots__ = ("forest", "index", "n_tokens", "sentence_id")

    def __init__(self, root: DepNode, n_tokens: int, sentence_id: int = -1):
        tree = _append_tree(Forest(), _graph_rows(root, sentence_id), None, sentence_id)
        if tree.n_tokens != n_tokens:
            raise LengthMismatch(
                f"sentence {sentence_id}: graph has {tree.n_tokens} nodes, not {n_tokens}")
        self.forest, self.index = tree.forest, 0
        self.n_tokens, self.sentence_id = n_tokens, sentence_id

    @classmethod
    def _view(cls, forest: Forest, index: int, n_tokens: int, sentence_id: int) -> "DepTree":
        tree = object.__new__(cls)
        tree.forest, tree.index = forest, index
        tree.n_tokens, tree.sentence_id = n_tokens, sentence_id
        return tree

    def __repr__(self) -> str:
        return f"DepTree({self.n_tokens} tokens, sentence {self.sentence_id})"

    def _column(self, values: list) -> list:
        base = self.forest.tree_start[self.index]
        return values[base: base + self.n_tokens]

    @property
    def labels(self) -> List[int]:
        """Label ids, in token order."""
        return self._column(self.forest.labels)

    @property
    def heads(self) -> List[int]:
        """Head token indices (0 at the root), in token order."""
        return self._column(self.forest.heads)

    @property
    def forms(self) -> List[str]:
        """Token forms, in token order."""
        return self.forest.forms[self.index].split("\t")

    @property
    def root(self) -> DepNode:
        """The tree as freshly built DepNodes, children in token order."""
        nodes = [DepNode(i, form, label)
                 for i, form, label in zip(range(1, self.n_tokens + 1), self.forms, self.labels)]
        root = nodes[0]
        for node, head in zip(nodes, self.heads):
            if head:
                nodes[head - 1].children.append(node)
            else:
                root = node
        return root


@dataclass
class Example:
    """A parallel (erroneous, corrected) sentence pair with its source tree.

    `source_tokens` is accepted for callers that still pass it and is never
    read here: the tree's forms are the source's tokens.
    """

    id: int
    source: str
    target: str
    tree: DepTree
    embedding: Optional[np.ndarray] = None
    source_tokens: Optional[List[str]] = None


@dataclass
class Corpus:
    examples: List[Example]
    vocab: LabelVocab
    embedding_dim: Optional[int] = None

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, idx: int) -> Example:
        return self.examples[idx]


def _split_columns(line: str) -> List[str]:
    # CoNLL-U is tab separated; fall back to whitespace for hand-written
    # fixtures that use spaces.
    if "\t" in line:
        return line.split("\t")
    return line.split()


def _block_rows(lines: List[str], sentence_id: int) -> List[Tuple[int, str, int, str]]:
    """Split the token lines of one block into (token index, form, head, label) rows."""
    rows = []
    for line in lines:
        cols = _split_columns(line)
        if len(cols) == 4:
            id_col, form, head_col, deprel = cols
        elif len(cols) >= 10:
            id_col, form, head_col, deprel = cols[0], cols[1], cols[6], cols[7]
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: expected 4 or 10 columns, got {len(cols)}: {line!r}"
            )
        if "-" in id_col or "." in id_col:
            # multiword token / empty node lines carry no tree structure
            continue
        try:
            rows.append((int(id_col), form, int(head_col), deprel))
        except ValueError as exc:
            raise MalformedLine(f"sentence {sentence_id}: non-integer ID/HEAD: {line!r}") from exc
    return rows


def _index_error(indices: List[int], sentence_id: int) -> TreebankError:
    """The error for sorted token indices that are not 1..n."""
    if indices[0] < 1:
        return MalformedLine(f"sentence {sentence_id}: token index {indices[0]} < 1")
    for prev, index in zip(indices, indices[1:]):
        if prev == index:
            return MalformedLine(f"sentence {sentence_id}: duplicate token index {index}")
    present = set(indices)
    missing = next(i for i in range(1, len(indices) + 1) if i not in present)
    return MissingToken(
        f"sentence {sentence_id}: token index {missing} missing (have 1..{indices[-1]})")


def _append_tree(
    forest: Forest, rows: Sequence[Sequence], vocab: Optional[LabelVocab], sentence_id: int
) -> DepTree:
    """Check that (token index, form, head, label) rows form one tree, then add it to `forest`.

    The rows must be non-empty with indices 1..n (any order, no duplicates),
    exactly one head 0, every other head among the indices and no cycle, and
    no form may hold a tab or a newline. Labels are strings interned into
    `vocab` in row order, or label ids already when `vocab` is None. Returns
    the view of the new tree.
    """
    if not rows:
        raise MalformedLine(f"sentence {sentence_id}: empty block")
    n = len(rows)
    expected = list(range(1, n + 1))
    if [row[0] for row in rows] == expected:
        ordered = rows
    else:
        ordered = sorted(rows, key=lambda row: row[0])
        indices = [row[0] for row in ordered]
        if indices != expected:
            raise _index_error(indices, sentence_id)

    forms = "\t".join([row[1] for row in ordered])
    if forms.count("\t") != n - 1 or "\n" in forms:
        raise MalformedLine(f"sentence {sentence_id}: a form contains a tab or a newline")

    if vocab is None:
        labels = [row[3] for row in ordered]
    else:
        label_ids = vocab._index
        try:
            labels = [label_ids[row[3]] for row in ordered]
        except KeyError:
            for row in rows:
                vocab.add(row[3])
            labels = [label_ids[row[3]] for row in ordered]
    heads = [row[2] for row in ordered]

    children: List[List[int]] = [[] for _ in range(n)]
    root = -1
    for i, head in enumerate(heads):
        if head == 0:
            if root >= 0:
                raise MultipleRoots(f"sentence {sentence_id}: more than one node with head 0")
            root = i
        elif 0 < head <= n:
            children[head - 1].append(i)
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: head {head} of token {i + 1} out of range")
    if root < 0:
        # every node has a parent among the tokens, so the graph contains a cycle
        raise CyclicTree(f"sentence {sentence_id}: no root node (head 0) found")
    reached = 0
    stack = [root]
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != n:
        raise CyclicTree(f"sentence {sentence_id}: {n - reached} tokens unreachable from root")

    # each node's children grouped by label (stable sort: token order within a
    # label), leaves counted and internal children listed by node id
    f = forest
    base = len(f.labels)
    group_label, group_leaves, kids = f.group_label, f.group_leaves, f.kids
    group_start, kid_start = f.group_start, f.kid_start
    for node_children in children:
        if not node_children:
            group_start.append(group_start[-1])
            continue
        if len(node_children) > 1:
            node_children.sort(key=labels.__getitem__)
        prev = None
        for child in node_children:
            label = labels[child]
            if label != prev:
                if prev is not None:
                    kid_start.append(len(kids))
                group_label.append(label)
                group_leaves.append(0)
                prev = label
            if children[child]:
                kids.append(base + child)
            else:
                group_leaves[-1] += 1
        kid_start.append(len(kids))
        group_start.append(len(group_label))
    f.n_children += map(len, children)
    f.labels += labels
    f.heads += heads
    f.forms.append(forms)
    f.tree_start.append(base + n)
    f.roots.append(base + root)
    return DepTree._view(f, len(f.roots) - 1, n, sentence_id)


def _graph_rows(root: DepNode, sentence_id: int) -> List[Tuple[int, str, int, int]]:
    """(token index, form, head, label id) rows of the DepNode graph under `root`."""
    rows = [(root.token_index, root.form, 0, root.label)]
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if id(child) in seen:
                raise CyclicTree(f"sentence {sentence_id}: node {child.token_index} reached twice")
            seen.add(id(child))
            rows.append((child.token_index, child.form, node.token_index, child.label))
            stack.append(child)
    return rows


def parse_conllu(text: str, vocab: LabelVocab) -> List[DepTree]:
    """Parse blank-line separated dependency blocks into trees.

    Accepts strict 10-column CoNLL-U (ID FORM ... HEAD DEPREL ...) or a
    minimal 4-column ID/FORM/HEAD/DEPREL layout. Comment lines start with
    '#'; multiword ("1-2") and empty-node ("1.1") ids are skipped. `vocab`
    is extended in place with unseen labels. The trees share one new forest.
    """
    forest = Forest()
    trees = []
    current: List[str] = []
    sentence_id = 0
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line.strip() == "":
            if current:
                rows = _block_rows(current, sentence_id)
                trees.append(_append_tree(forest, rows, vocab, sentence_id))
                sentence_id += 1
                current = []
            continue
        if line.lstrip().startswith("#"):
            continue
        current.append(line)
    if current:
        trees.append(_append_tree(forest, _block_rows(current, sentence_id), vocab, sentence_id))
    return trees


def _read_lines(path: str) -> List[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").rstrip("\r") for line in f]


def _parse_embeddings(path: str) -> List[np.ndarray]:
    """One vector of finite floats per line of `path`."""
    vectors = []
    for i, line in enumerate(_read_lines(path)):
        try:
            vector = np.array([float(v) for v in line.split()], dtype=np.float64)
        except ValueError as exc:
            raise MalformedLine(f"{path} line {i + 1}: not a list of numbers ({exc})") from exc
        if not np.isfinite(vector).all():
            raise MalformedLine(f"{path} line {i + 1}: embedding values must be finite numbers")
        vectors.append(vector)
    if not vectors or vectors[0].shape[0] == 0:
        raise DimensionMismatch(f"{path}: no embedding values found")
    return vectors


def _make_example(
    position: int,
    source: str,
    target: str,
    tree: DepTree,
    embedding: Optional[np.ndarray],
    dim: Optional[int],
    where: str,
) -> Example:
    """An Example of a loaded corpus, after its counts are checked; `where` names it in errors."""
    n_words = len(source.split())
    if tree.n_tokens != n_words:
        raise LengthMismatch(f"{where}: tree has {tree.n_tokens} tokens but the source has {n_words}")
    if embedding is not None and embedding.shape[0] != dim:
        raise DimensionMismatch(f"{where}: embedding has length {embedding.shape[0]}, expected {dim}")
    return Example(id=position, source=source, target=target, tree=tree, embedding=embedding)


def load_corpus(
    source_path: str,
    target_path: str,
    trees_path: str,
    embeddings_path: Optional[str] = None,
    vocab: Optional[LabelVocab] = None,
) -> Corpus:
    """Load a line-aligned parallel corpus plus one tree block per source line."""
    vocab = vocab if vocab is not None else LabelVocab()
    sources = _read_lines(source_path)
    targets = _read_lines(target_path)
    if len(sources) != len(targets):
        raise LengthMismatch(
            f"{source_path} has {len(sources)} lines but {target_path} has {len(targets)}"
        )
    for i, line in enumerate(sources):
        if line.strip() == "":
            raise LengthMismatch(f"{source_path}: line {i + 1} is empty")

    with open(trees_path, encoding="utf-8") as f:
        trees = parse_conllu(f.read(), vocab)
    if len(trees) != len(sources):
        raise LengthMismatch(
            f"{trees_path} has {len(trees)} tree blocks but {source_path} has {len(sources)} lines"
        )

    embeddings: List[Optional[np.ndarray]] = [None] * len(sources)
    dim: Optional[int] = None
    if embeddings_path is not None:
        embeddings = _parse_embeddings(embeddings_path)
        dim = embeddings[0].shape[0]
        if len(embeddings) != len(sources):
            raise LengthMismatch(
                f"{embeddings_path} has {len(embeddings)} vectors but "
                f"{source_path} has {len(sources)} lines"
            )

    examples = [
        _make_example(i, source, target, tree, embedding, dim, f"{source_path} line {i + 1}")
        for i, (source, target, tree, embedding) in enumerate(
            zip(sources, targets, trees, embeddings))
    ]
    return Corpus(examples=examples, vocab=vocab, embedding_dim=dim)


# ---------------------------------------------------------------------------
# Corpus bundles: the validated on-disk form that `synicl ingest` writes.
#
# One uncompressed `np.savez` file, examples.npz, of plain arrays (nothing
# pickled). For T examples of N tokens in all:
#   version      int64 scalar, BUNDLE_VERSION
#   label_names  uint8 UTF-8 text, one label per line, in order of first use
#   labels       int32 (N,), per token an index into label_names
#   heads        int32 (N,), per token its head's token index, 0 at the root
#   tree_start   int64 (T + 1,), example t has tokens tree_start[t] to
#                tree_start[t + 1] - 1
#   sources, targets
#                uint8 UTF-8 text, one line per example
#   forms        uint8 UTF-8 text, one line per example, its forms joined by tabs
#   embeddings   float64 (T, dim), only when the examples carry embeddings
# Labels are stored by name so that bundles written separately load under
# one shared vocabulary. Example ids are positions, because selection and
# prompt assembly index examples by position. One corpus always gives the
# same bytes, and so the same `content_hash`.
# ---------------------------------------------------------------------------

BUNDLE_FILE = "examples.npz"
BUNDLE_VERSION = 1
_OLD_BUNDLE_FILE = "examples.jsonl"
_BUNDLE_ARRAYS = {  # name: (dtype, number of dimensions); embeddings are optional
    "version": (np.int64, 0), "label_names": (np.uint8, 1), "labels": (np.int32, 1),
    "heads": (np.int32, 1), "tree_start": (np.int64, 1), "sources": (np.uint8, 1),
    "targets": (np.uint8, 1), "forms": (np.uint8, 1), "embeddings": (np.float64, 2),
}
# Trees per block when a loaded bundle fills its forest. Small blocks keep
# numpy's temporaries small, so a load's peak memory stays near what the
# forest takes: loading a 35k-tree pool in one block peaked ~50 MB higher.
_LOAD_BLOCK_TREES = 2048


def _text(lines: Sequence[str]) -> np.ndarray:
    """`lines` as UTF-8 text, each ending in a newline, in a uint8 array."""
    return np.frombuffer("".join([line + "\n" for line in lines]).encode("utf-8"), dtype=np.uint8)


def save_bundle(corpus: Corpus, out_dir: str) -> None:
    """Write `corpus` to out_dir/examples.npz, the file `load_bundle` reads.

    Refuses, before it writes anything, a corpus the file cannot give back:
    an id that is not the example's position, a newline in a source, target
    or label, a tab or newline in a form, and embeddings that are on some
    examples only, of differing lengths or not finite.
    """
    examples = corpus.examples
    with_embeddings = bool(examples) and examples[0].embedding is not None
    dim = np.size(examples[0].embedding) if with_embeddings else 0
    labels: List[int] = []
    heads: List[int] = []
    forms: List[str] = []
    tree_start = [0]
    vectors = []
    for position, ex in enumerate(examples):
        where = f"example {position}"
        if ex.id != position:
            raise MalformedBundle(f"{where}: id {ex.id} is not the example's position")
        for name, text in (("source", ex.source), ("target", ex.target)):
            if "\n" in text:
                raise MalformedBundle(f"{where}: the {name} contains a newline")
        tree = ex.tree
        line = tree.forest.forms[tree.index]
        if line.count("\t") != tree.n_tokens - 1 or "\n" in line:
            raise MalformedBundle(f"{where}: a form contains a tab or a newline")
        if (ex.embedding is not None) != with_embeddings:
            raise DimensionMismatch(f"{where}: embeddings must be on every example or on none")
        if with_embeddings:
            vector = np.asarray(ex.embedding, dtype=np.float64)
            if vector.shape != (dim,) or not dim:
                raise DimensionMismatch(
                    f"{where}: embedding has shape {vector.shape}; embeddings must be non-empty "
                    f"vectors of one length ({dim} on example 0)")
            if not np.isfinite(vector).all():
                raise MalformedBundle(f"{where}: embedding values must be finite numbers")
            vectors.append(vector)
        labels += tree.labels
        heads += tree.heads
        forms.append(line)
        tree_start.append(len(labels))
    first_use = dict.fromkeys(labels)  # the corpus's label ids in order of first use
    names = [corpus.vocab.labels[label] for label in first_use]
    for name in names:
        if "\n" in name:
            raise MalformedBundle(f"label {name!r} contains a newline")
    index = {label: i for i, label in enumerate(first_use)}
    arrays = {
        "version": np.int64(BUNDLE_VERSION),
        "label_names": _text(names),
        "labels": np.fromiter(map(index.__getitem__, labels), np.int32, len(labels)),
        "heads": np.array(heads, dtype=np.int32),
        "tree_start": np.array(tree_start, dtype=np.int64),
        "sources": _text([ex.source for ex in examples]),
        "targets": _text([ex.target for ex in examples]),
        "forms": _text(forms),
    }
    if vectors:
        arrays["embeddings"] = np.stack(vectors)
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, BUNDLE_FILE), **arrays)


def bundle_file(bundle_dir: str) -> str:
    """The path of the bundle file in `bundle_dir`.

    Raises MalformedBundle when the directory holds only the examples.jsonl
    that older versions wrote.
    """
    path = os.path.join(bundle_dir, BUNDLE_FILE)
    if not os.path.exists(path) and os.path.exists(os.path.join(bundle_dir, _OLD_BUNDLE_FILE)):
        raise MalformedBundle(
            f"{bundle_dir} holds an {_OLD_BUNDLE_FILE} bundle, a format this version no longer "
            f"reads; re-run `synicl ingest` to write {BUNDLE_FILE}")
    return path


def _read_bundle(path: str) -> dict:
    """The arrays of the bundle file `path`, checked for name, dtype and dimensions."""
    try:
        # opened here, not by np.load, which leaves the file open when it is no zip archive
        with open(path, "rb") as f:
            data = np.load(f, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("one array, not an archive of arrays")
            with data:
                arrays = {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise MalformedBundle(f"{path}: not a bundle file ({exc})") from exc
    for name, (dtype, ndim) in _BUNDLE_ARRAYS.items():
        array = arrays.get(name)
        if array is None and name == "embeddings":
            continue
        if array is None or array.dtype != dtype or array.ndim != ndim:
            raise MalformedBundle(f"{path}: no {ndim}-D {np.dtype(dtype).name} array {name!r}")
    if int(arrays["version"]) != BUNDLE_VERSION:
        raise MalformedBundle(
            f"{path}: format version {int(arrays['version'])}, not {BUNDLE_VERSION}; "
            "re-run `synicl ingest` to rebuild it")
    return arrays


def _lines(arrays: dict, name: str, path: str) -> List[str]:
    """The lines of the text array `name`, each of which ends in a newline."""
    try:
        lines = arrays[name].tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedBundle(f"{path}: {name} is not UTF-8 text ({exc})") from exc
    if lines.pop():
        raise MalformedBundle(f"{path}: {name} does not end with a newline")
    return lines


def _append_trees(forest: Forest, labels: np.ndarray, n_labels: int, heads: np.ndarray,
                  starts: np.ndarray, where: str, first: int) -> None:
    """Check the trees of one block of a bundle with array operations, then add them to `forest`.

    `labels` (vocab ids, below `n_labels`) and `heads` cover the block's
    nodes; tree t of the block has nodes starts[t] to starts[t + 1] - 1 and
    is example `first + t` in errors. The checks and the lists equal
    `_append_tree`'s.
    """
    n = len(labels)
    sizes = np.diff(starts)
    tree = np.repeat(np.arange(len(sizes)), sizes)
    base = starts[:-1][tree]  # the block position of each node's tree's first node
    bad = np.flatnonzero((heads < 0) | (heads > sizes[tree]))
    if bad.size:
        i = bad[0]
        raise MalformedLine(f"{where} example {first + tree[i]}: head {heads[i]} of token "
                            f"{i - base[i] + 1} out of range")
    is_root = heads == 0
    n_roots = np.bincount(tree[is_root], minlength=len(sizes))
    if (n_roots != 1).any():
        t = np.flatnonzero(n_roots != 1)[0]
        if n_roots[t]:
            raise MultipleRoots(f"{where} example {first + t}: more than one node with head 0")
        raise CyclicTree(f"{where} example {first + t}: no root node (head 0) found")
    node = np.arange(n)
    parent = np.where(is_root, node, base + heads - 1)
    # pointer jumping: after k rounds each node points 2**k steps up, or at its
    # root, so nodes that do not reach a root after log2(size) rounds lie on a cycle
    up = parent
    for _ in range(int(sizes.max()).bit_length()):
        up = up[up]
    unreached = np.bincount(tree[~is_root[up]], minlength=len(sizes))
    if unreached.any():
        t = np.flatnonzero(unreached)[0]
        raise CyclicTree(
            f"{where} example {first + t}: {unreached[t]} tokens unreachable from root")

    # children grouped by (head, label, token): each node's groups in label
    # order, a group's children in token order (a stable sort of the tokens)
    child = node[~is_root]
    child = child[np.argsort(parent[child] * n_labels + labels[child], kind="stable")]
    head, label = parent[child], labels[child]
    new_group = np.ones(len(child), dtype=bool)
    new_group[1:] = (head[1:] != head[:-1]) | (label[1:] != label[:-1])
    group = np.cumsum(new_group) - 1
    n_groups = len(group) and int(group[-1]) + 1
    n_children = np.bincount(head, minlength=n)
    internal = n_children[child] > 0
    f = forest
    node0, group0, kid0 = len(f.labels), len(f.group_label), len(f.kids)
    f.labels += labels.tolist()
    f.heads += heads.tolist()
    f.n_children += n_children.tolist()
    f.group_start += _shared_run_list(group0 + np.cumsum(np.bincount(head[new_group], minlength=n)))
    f.group_label += label[new_group].tolist()
    f.group_leaves += np.bincount(group[~internal], minlength=n_groups).tolist()
    f.kids += (node0 + child[internal]).tolist()
    f.kid_start += (kid0 + np.cumsum(np.bincount(group[internal], minlength=n_groups))).tolist()
    f.tree_start += (node0 + starts[1:]).tolist()
    f.roots += (node0 + node[is_root]).tolist()


def _shared_run_list(values: np.ndarray) -> List[int]:
    """`values.tolist()`, with one int object for each run of equal values.

    `_append_tree` repeats the previous `group_start` entry for a node
    without children. Sharing those objects here as well halves the int
    objects of that list, which saves memory and the cache lines the tree
    kernel reads.
    """
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    objects = np.empty(int(first.sum()), dtype=object)
    objects[:] = values[first].tolist()
    return objects[np.cumsum(first) - 1].tolist()


def load_bundle(bundle_dir: str, vocab: Optional[LabelVocab] = None) -> Corpus:
    """Load a bundle written by save_bundle, extending `vocab` (shared across bundles).

    Every tree passes the structural checks of parsed CoNLL-U, each source
    must have as many words as its tree has tokens, and embeddings must be
    finite. Failures raise a TreebankError that names the file and example.
    """
    vocab = vocab if vocab is not None else LabelVocab()
    path = bundle_file(bundle_dir)
    arrays = _read_bundle(path)
    label_names = _lines(arrays, "label_names", path)
    sources, targets, forms = (_lines(arrays, name, path) for name in ("sources", "targets", "forms"))
    labels, heads, tree_start = arrays["labels"], arrays["heads"], arrays["tree_start"]
    n_trees = len(tree_start) - 1
    if (n_trees < 0 or tree_start[0] != 0 or tree_start[-1] != len(labels)
            or len(heads) != len(labels)):
        raise MalformedBundle(f"{path}: tree_start does not split the {len(labels)} labels "
                              f"and {len(heads)} heads into trees")
    sizes = np.diff(tree_start)
    if (sizes < 1).any():
        raise MalformedBundle(f"{path} example {np.flatnonzero(sizes < 1)[0]}: empty tree")
    for name, lines in (("sources", sources), ("targets", targets), ("forms", forms)):
        if len(lines) != n_trees:
            raise LengthMismatch(f"{path}: {len(lines)} lines of {name} for {n_trees} trees")
    for what, counts in (
        ("forms", [line.count("\t") + 1 for line in forms]),
        ("source words", [len(source.split()) for source in sources]),
    ):
        bad = np.flatnonzero(np.array(counts, dtype=np.int64) != sizes)
        if bad.size:
            t = bad[0]
            raise LengthMismatch(
                f"{path} example {t}: tree has {sizes[t]} tokens but {counts[t]} {what}")
    bad = np.flatnonzero((labels < 0) | (labels >= len(label_names)))
    if bad.size:
        t = np.searchsorted(tree_start, bad[0], side="right") - 1
        raise MalformedBundle(f"{path} example {t}: label id {labels[bad[0]]} out of range "
                              f"({len(label_names)} labels)")
    embeddings = arrays.get("embeddings")
    if embeddings is not None:
        if embeddings.shape[0] != n_trees or embeddings.shape[1] == 0:
            raise DimensionMismatch(
                f"{path}: embeddings have shape {embeddings.shape}, for {n_trees} examples")
        finite = np.isfinite(embeddings).all(axis=1)
        if not finite.all():
            raise MalformedBundle(f"{path} example {np.flatnonzero(~finite)[0]}: "
                                  "embedding values must be finite numbers")

    vocab_ids = np.array([vocab.add(name) for name in label_names], dtype=np.int64)
    forest = Forest()
    forest.forms = forms
    for t0 in range(0, n_trees, _LOAD_BLOCK_TREES):
        t1 = min(t0 + _LOAD_BLOCK_TREES, n_trees)
        a, b = tree_start[t0], tree_start[t1]
        _append_trees(forest, vocab_ids[labels[a:b]], len(vocab), heads[a:b].astype(np.int64),
                      tree_start[t0:t1 + 1] - a, path, t0)
    examples = [
        Example(id=t, source=source, target=target, tree=DepTree._view(forest, t, n, t),
                embedding=None if embeddings is None else embeddings[t])
        for t, (source, target, n) in enumerate(zip(sources, targets, sizes.tolist()))
    ]
    return Corpus(examples=examples, vocab=vocab,
                  embedding_dim=None if embeddings is None else embeddings.shape[1])


def content_hash(paths: Sequence[str]) -> str:
    """SHA-256 over the concatenated bytes of `paths` (manifest/corpus identity)."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            while True:
                chunk = f.read(1 << 20)
                if not chunk:
                    break
                h.update(chunk)
    return h.hexdigest()
