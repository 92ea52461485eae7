"""Dependency treebank ingestion: CoNLL-U parsing, corpus loading and the forest.

Trees are read from parser output only; this package never runs a parser.
Node labels are the DEPREL strings (error-aware parsers encode error
information there, e.g. the "S"/"R"/"M" labels), interned into a shared
label vocabulary so that downstream similarity code works on small ints.

A tree is what selection reads of it: its labels and heads, and the child
groups derived from them. A token's form is not kept: an example's words
are its `source`. Every tree of a corpus lives in one `Forest` of flat int32
arrays, with no Python object per token, so a loaded pool of hundreds of
thousands of tokens gives the cyclic garbage collector and the allocator a
few objects per sentence, not two per token. Per node the forest keeps the
label, the head, the child count and where its child groups start; per
child group (the children of one label, the groups of a node in label
order) the label, the number of leaves and the ids of the internal
children, which is the shape the tree kernel merge-joins over. A `DepTree`
is a view (forest, tree index, n_tokens, sentence_id), and
`DepTree(root=DepNode…)` turns a hand-built graph into a one-tree forest.

CoNLL-U text, DepNode graphs and corpus bundles reach their forest through
one block loop, `_forest`, whose `_block_forest` checks each block of trees
with numpy (one root, no cycles, heads and label ids in range) and is the
only writer of child groups. Text and graphs first give their flat (token
index, head, label id) rows to `_rows_forest`, which sorts every tree into
token order at once and checks that its indices are 1..n. A bundle is one
binary file, `examples.npz`, written by `save_bundle`. Both loaders,
`load_corpus` of text files and `load_bundle` of a bundle, end in
`_corpus`, the one example check: each source has as many words as its
tree has tokens. CoNLL-U text and `gecscore`'s M2 files are split into
blocks by one reader, `_blocks`. Every module addresses segments laid end to
end, such as a forest's, with `_segments` and `_ranges`.
The embeddings of a corpus are one read-only float64 matrix,
`Corpus.embeddings`, which the dense index reads in place.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ERROR_LABELS = ("S", "R", "M")


class InputError(ValueError):
    """Bad input (a file, a bundle, a setting): the CLI prints `error: …` and exits 1."""


class TreebankError(InputError):
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
    """Inputs that must align line for line, or token for token, do not."""


class DimensionMismatch(TreebankError):
    """An embedding has the wrong shape."""


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

    def __len__(self) -> int:
        return len(self.labels)

    def error_label_ids(self) -> List[int]:
        """Ids of the error labels (S/R/M) present in this vocab."""
        return [self._index[lb] for lb in ERROR_LABELS if lb in self._index]

    def __repr__(self) -> str:
        return f"LabelVocab({len(self.labels)} labels)"


@dataclass
class DepNode:
    """One token of a hand-built dependency graph; children kept in token order.

    DepNodes are built by hand to make a `DepTree`, which stores only their
    token indices, labels and structure. `form` is accepted for callers that
    still pass it and is never stored in the forest, like
    `Example.source_tokens`.
    """

    token_index: int
    form: str
    label: int
    children: List["DepNode"] = field(default_factory=list)


# The int32 arrays of a Forest: name -> (the ids it holds, which `join_forests`
# shifts: 0 node, 1 group, 2 kid ids, None for plain values; whether it is an
# offset array, with one entry more than the items it splits).
_FOREST_ARRAYS = {
    "labels": (None, False), "heads": (None, False), "n_children": (None, False),
    "group_start": (1, True), "group_label": (None, False), "group_leaves": (None, False),
    "kid_start": (2, True), "kids": (0, False), "tree_start": (0, True), "roots": (0, False),
}


class Forest:
    """Every tree of a corpus in flat int32 arrays, with no object per token.

    Node ids are positions in the per-node arrays; the nodes of tree t are
    `tree_start[t]` to `tree_start[t + 1] - 1`, in token order, and its root
    is `roots[t]`. Per node: `labels`, `heads` (the head's token index, 0 at
    the root), `n_children`, and the groups `group_start[v]` to
    `group_start[v + 1] - 1` of its children. A group holds the children of
    one label, the groups of a node in label order: `group_label`,
    `group_leaves` (how many of them are leaves) and the node ids of the
    others, `kids[kid_start[g]:kid_start[g + 1]]`. A new Forest holds no
    tree.
    """

    __slots__ = tuple(_FOREST_ARRAYS)

    def __init__(self) -> None:
        for name, (_, offsets) in _FOREST_ARRAYS.items():
            setattr(self, name, np.zeros(int(offsets), dtype=np.int32))


def _segments(counts: np.ndarray) -> np.ndarray:
    """For segments of `counts` items laid end to end, each item's segment."""
    return np.repeat(np.arange(len(counts)), counts)


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges `first[i]` to `first[i] + counts[i] - 1`, laid end to end."""
    if len(counts) == 1:  # a block of one query: spare `select` the general form's calls
        return np.arange(first[0], first[0] + counts[0])
    ends = np.cumsum(counts)  # its last entry is the total: no second pass to sum the counts
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - ends + counts, counts)


def join_forests(forests: Sequence[Forest]) -> Forest:
    """One forest of the trees of `forests` in order, their ids shifted past the forests before.

    A single forest is returned as it is, not copied.
    """
    forests = list(forests) or [Forest()]
    if len(forests) == 1:
        return forests[0]
    sizes = [[0, 0, 0]] + [[len(f.labels), len(f.group_label), len(f.kids)] for f in forests]
    starts = np.cumsum(sizes, axis=0)  # where each forest's node, group and kid ids start
    if starts[-1, 0] >= 2 ** 31:
        raise TreebankError(f"{starts[-1, 0]} nodes are too many for one forest's int32 ids")
    joined = Forest()
    for name, (by, offsets) in _FOREST_ARRAYS.items():
        # an offset array drops each forest's last entry and ends with the total instead
        parts = [getattr(f, name)[:len(getattr(f, name)) - offsets] for f in forests]
        if by is not None:
            parts = [part + start for part, start in zip(parts, starts[:, by].tolist())]
        if offsets:
            parts.append(starts[-1:, by])
        setattr(joined, name, np.concatenate(parts).astype(np.int32))
    return joined


class DepTree:
    """A view of one tree of a `Forest`: (forest, tree index, n_tokens, sentence_id).

    `DepTree(root=DepNode, n_tokens, sentence_id)` checks a hand-built graph
    like any parsed tree and stores it as a one-tree forest: its labels and
    heads, with no node's `form`.
    """

    __slots__ = ("forest", "index", "n_tokens", "sentence_id")

    def __init__(self, root: DepNode, n_tokens: int, sentence_id: int = -1):
        indices, heads, labels = zip(*_graph_rows(root, sentence_id))
        forest = _rows_forest(indices, heads, labels, [0, len(heads)], _LABEL_LIMIT, sentence_id)
        if len(forest.labels) != n_tokens:
            raise LengthMismatch(
                f"sentence {sentence_id}: graph has {len(forest.labels)} nodes, not {n_tokens}")
        self.forest, self.index = forest, 0
        self.n_tokens, self.sentence_id = n_tokens, sentence_id

    @classmethod
    def _view(cls, forest: Forest, index: int, n_tokens: int, sentence_id: int) -> "DepTree":
        tree = object.__new__(cls)
        tree.forest, tree.index = forest, index
        tree.n_tokens, tree.sentence_id = n_tokens, sentence_id
        return tree

    def __repr__(self) -> str:
        return f"DepTree({self.n_tokens} tokens, sentence {self.sentence_id})"

    def _column(self, values: np.ndarray) -> List[int]:
        base = self.forest.tree_start[self.index]
        return values[base: base + self.n_tokens].tolist()

    @property
    def labels(self) -> List[int]:
        """Label ids, in token order."""
        return self._column(self.forest.labels)

    @property
    def heads(self) -> List[int]:
        """Head token indices (0 at the root), in token order."""
        return self._column(self.forest.heads)


def in_one_forest(trees: Sequence[DepTree]) -> List[DepTree]:
    """`trees` in order, as views of one forest.

    Trees that already share one forest (a loaded bundle, one `parse_conllu`
    result) come back as they are, their forest shared and not copied; trees
    from several forests become views of a new forest that joins theirs.
    """
    forests: Dict[int, Forest] = {}  # id -> forest, in order of first use
    for tree in trees:
        forests.setdefault(id(tree.forest), tree.forest)
    if len(forests) <= 1:
        return list(trees)
    # where each forest's trees start in the joined forest
    first = np.cumsum([0] + [len(f.roots) for f in forests.values()]).tolist()
    shift = dict(zip(forests, first))
    joined = join_forests(forests.values())
    return [DepTree._view(joined, shift[id(tree.forest)] + tree.index, tree.n_tokens,
                          tree.sentence_id) for tree in trees]


@dataclass
class Example:
    """A parallel (erroneous, corrected) sentence pair with its source tree.

    `source_tokens` is accepted for callers that still pass it and is never
    read or stored in a bundle: the source's words are its tokens.
    """

    id: int
    source: str
    target: str
    tree: DepTree
    embedding: Optional[np.ndarray] = None
    source_tokens: Optional[List[str]] = None


@dataclass
class Corpus:
    """Examples, their label vocab, and their vectors as one matrix.

    `embeddings` is a read-only float64 `(len(examples), dim)` matrix, or
    None, and each example's `embedding` is a view of its row. A loader
    passes the matrix it read and checked; otherwise the examples' vectors,
    on every example or on none, non-empty, 1-D and of one length, are
    stacked once. `embedding_dim` is the matrix's width; a value passed in
    must agree with it.
    """

    examples: List[Example]
    vocab: LabelVocab
    embedding_dim: Optional[int] = None
    embeddings: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        matrix = _stack_embeddings(self.examples) if self.embeddings is None else self.embeddings
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=np.float64).view()
            if matrix.ndim != 2 or len(matrix) != len(self.examples) or not matrix.shape[1]:
                raise DimensionMismatch(
                    f"embeddings have shape {matrix.shape}, for {len(self.examples)} examples")
        dim = None if matrix is None else matrix.shape[1]
        if self.embedding_dim is not None and self.embedding_dim != dim:
            raise DimensionMismatch(
                f"embedding_dim is {self.embedding_dim}, but the embeddings have width {dim}")
        if matrix is not None:
            matrix.flags.writeable = False
            for ex, row in zip(self.examples, matrix):
                ex.embedding = row
        self.embeddings, self.embedding_dim = matrix, dim

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, idx: int) -> Example:
        return self.examples[idx]


def _stack_embeddings(examples: Sequence[Example]) -> Optional[np.ndarray]:
    """The examples' vectors as one float64 matrix, or None if they have none."""
    first = examples[0].embedding if examples else None
    dim = 0 if first is None else np.size(first)
    for position, ex in enumerate(examples):
        if (ex.embedding is None) != (first is None):
            raise DimensionMismatch(
                f"example {position}: embeddings must be on every example or on none")
        if first is not None and (np.shape(ex.embedding) != (dim,) or not dim):
            raise DimensionMismatch(
                f"example {position}: embedding has shape {np.shape(ex.embedding)}; embeddings "
                f"must be non-empty vectors of one length ({dim} on example 0)")
    return None if first is None else np.array([ex.embedding for ex in examples], np.float64)


def _split_columns(line: str) -> List[str]:
    # CoNLL-U is tab separated; fall back to whitespace for hand-written
    # fixtures that use spaces.
    if "\t" in line:
        return line.split("\t")
    return line.split()


def _block_rows(lines: List[str], sentence_id: int, vocab: LabelVocab, indices: List[int],
                heads: List[int], label_ids: List[int]) -> None:
    """Append the token index, head and label id of each token line of one block.

    Labels are interned into `vocab` in line order.
    """
    for line in lines:
        cols = _split_columns(line)
        if len(cols) == 4:
            id_col, _, head_col, deprel = cols
        elif len(cols) >= 10:
            id_col, head_col, deprel = cols[0], cols[6], cols[7]
        else:
            raise MalformedLine(
                f"sentence {sentence_id}: expected 4 or 10 columns, got {len(cols)}: {line!r}"
            )
        if "-" in id_col or "." in id_col:
            # multiword token / empty node lines carry no tree structure
            continue
        try:
            index, head = int(id_col), int(head_col)
        except ValueError as exc:
            raise MalformedLine(f"sentence {sentence_id}: non-integer ID/HEAD: {line!r}") from exc
        indices.append(index)
        heads.append(head)
        label_ids.append(vocab.add(deprel))


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


def _int64(columns: Sequence[Sequence[int]]) -> np.ndarray:
    """`columns` as the rows of an int64 array; values past int64 (out of range anyway) clamped."""
    try:
        return np.array(columns, dtype=np.int64)
    except OverflowError:
        return np.array([[min(max(v, -2 ** 63), 2 ** 63 - 1) for v in column]
                         for column in columns], dtype=np.int64)


def _rows_forest(indices: Sequence[int], heads: Sequence[int], label_ids: Sequence[int],
                 starts: List[int], n_labels: int, first: int) -> Forest:
    """The forest of trees given as flat (token index, head, label id) rows.

    Tree t has rows starts[t] to starts[t + 1] - 1, in any order, and is
    sentence `first + t` in errors. Each tree must be non-empty with indices
    1..n; it is put in token order, and `_forest` checks the rest, with
    label ids below `n_labels`.
    """
    start = np.array(starts, dtype=np.int64)
    sizes = start[1:] - start[:-1]
    tree = _segments(sizes)
    rows = _int64([indices, heads, label_ids])
    rows = rows[:, np.lexsort((rows[0], tree))]  # by tree, then by token index
    wrong = rows[0] != _ranges(np.ones_like(sizes), sizes)  # not 1..n in its tree
    # count_nonzero, not any/all: a one-tree graph pays every call's overhead
    if np.count_nonzero(wrong) or np.count_nonzero(sizes) < len(sizes):
        bad = sizes < 1
        bad[tree[wrong]] = True
        t = int(np.flatnonzero(bad)[0])
        if not sizes[t]:
            raise MalformedLine(f"sentence {first + t}: empty block")
        raise _index_error(sorted(indices[starts[t]:starts[t + 1]]), first + t)
    return _forest(rows[2], n_labels, rows[1], start, "sentence ", first)


def _graph_rows(root: DepNode, sentence_id: int) -> List[Tuple[int, int, int]]:
    """(token index, head, label id) rows of the DepNode graph under `root`."""
    rows = [(root.token_index, 0, root.label)]
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if id(child) in seen:
                raise CyclicTree(f"sentence {sentence_id}: node {child.token_index} reached twice")
            seen.add(id(child))
            rows.append((child.token_index, node.token_index, child.label))
            stack.append(child)
    return rows


def _blocks(text: str) -> Iterator[List[str]]:
    """The lines of each block of `text`: runs of lines split at lines whose strip() is empty.

    The one blank-line block reader, of CoNLL-U text and of M2 files. The
    text is cut at its empty lines first, so that only one chunk's lines are
    alive at a time: splitting every line of the text at once raised
    perfbench's gec-endpoint `peak_rss_mb` by about 1 MB (69.5 to 70.4).
    """
    for chunk in text.split("\n\n"):
        lines: List[str] = []
        for line in chunk.split("\n"):
            if line.strip():
                lines.append(line)
            elif lines:
                yield lines
                lines = []
        if lines:
            yield lines


def _conllu_forest(text: str, vocab: LabelVocab) -> Forest:
    """The forest of the dependency blocks of `text`, as `parse_conllu` reads them."""
    indices: List[int] = []
    heads: List[int] = []
    label_ids: List[int] = []
    starts = [0]
    for block in _blocks(text):
        lines = [line.rstrip("\r") for line in block if not line.lstrip().startswith("#")]
        if lines:  # a block of comments only holds no sentence
            _block_rows(lines, len(starts) - 1, vocab, indices, heads, label_ids)
            starts.append(len(indices))
    return _rows_forest(indices, heads, label_ids, starts, len(vocab), 0)


def parse_conllu(text: str, vocab: LabelVocab) -> List[DepTree]:
    """Parse blank-line separated dependency blocks into trees.

    Accepts strict 10-column CoNLL-U (ID FORM ... HEAD DEPREL ...) or a
    minimal 4-column ID/FORM/HEAD/DEPREL layout. Comment lines start with
    '#'; multiword ("1-2") and empty-node ("1.1") ids are skipped. `vocab`
    is extended in place with unseen labels. The trees share one new forest.

    Faults are looked for in three passes: every line (column count, integer
    ID and HEAD), then every sentence's token indices, then each block of
    sentences' structure. So a line fault anywhere in the text is reported
    before any index or structure fault, and a structure fault may come from
    a later sentence of its block than the first fault.
    """
    forest = _conllu_forest(text, vocab)
    sizes = np.diff(forest.tree_start).tolist()
    return [DepTree._view(forest, t, n, t) for t, n in enumerate(sizes)]


def read_text(path: str) -> str:
    """The text of the UTF-8 file `path`, with universal newlines; InputError if not UTF-8.

    One leading byte-order mark (U+FEFF), which some editors write, is dropped.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return text.removeprefix("\ufeff")


def read_lines(path: str) -> List[str]:
    """The lines of `read_text(path)` without newlines, split on "\n" only, as a file iterates."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _parse_embeddings(path: str) -> np.ndarray:
    """A float64 matrix of one row of finite numbers per line of `path`, all as long as line 1."""
    lines = read_lines(path)
    dim = len(lines[0].split()) if lines else 0
    if not dim:
        raise DimensionMismatch(f"{path}: no embedding values found")
    matrix = np.empty((len(lines), dim), dtype=np.float64)
    for number, line in enumerate(lines, 1):
        values = line.split()
        if len(values) != dim:
            raise DimensionMismatch(
                f"{path} line {number}: embedding has length {len(values)}, expected {dim}")
        try:
            matrix[number - 1] = [float(v) for v in values]
        except ValueError as exc:
            raise MalformedLine(f"{path} line {number}: not a list of numbers ({exc})") from exc
    _check_finite(matrix, MalformedLine, f"{path} line ", 1)
    return matrix


def _check_finite(matrix: np.ndarray, error: type, where: str, first: int) -> None:
    """Raise `error` naming row t of `matrix` as `{where}{first + t}` if it is not all finite."""
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise error(f"{where}{first + bad[0]}: embedding values must be finite numbers")


def _corpus(forest: Forest, vocab: LabelVocab, sources: List[str], targets: List[str],
            embeddings: Optional[np.ndarray], where: str, first: int) -> Corpus:
    """The corpus of the trees of `forest`, one per source and target line.

    Each source must have as many words as its tree has tokens; example t is
    `{where}{first + t}` in errors. `embeddings`, if given, holds one row per
    example and becomes the corpus's matrix.
    """
    sizes = np.diff(forest.tree_start)
    n_words = np.array([len(source.split()) for source in sources], dtype=np.int64)
    bad = np.flatnonzero(n_words != sizes)
    if bad.size:
        t = bad[0]
        raise LengthMismatch(
            f"{where}{first + t}: tree has {sizes[t]} tokens but {n_words[t]} source words")
    examples = [
        Example(id=t, source=source, target=target, tree=DepTree._view(forest, t, n, t))
        for t, (source, target, n) in enumerate(zip(sources, targets, sizes.tolist()))
    ]
    return Corpus(examples=examples, vocab=vocab, embeddings=embeddings)


def load_corpus(
    source_path: str,
    target_path: str,
    trees_path: str,
    embeddings_path: Optional[str] = None,
    vocab: Optional[LabelVocab] = None,
) -> Corpus:
    """Load a line-aligned parallel corpus plus one tree block per source line."""
    vocab = vocab if vocab is not None else LabelVocab()
    sources = read_lines(source_path)
    targets = read_lines(target_path)
    if len(sources) != len(targets):
        raise LengthMismatch(
            f"{source_path} has {len(sources)} lines but {target_path} has {len(targets)}"
        )
    forest = _conllu_forest(read_text(trees_path), vocab)
    n_trees = len(forest.tree_start) - 1
    if n_trees != len(sources):
        raise LengthMismatch(
            f"{trees_path} has {n_trees} tree blocks but {source_path} has {len(sources)} lines"
        )
    embeddings = None
    if embeddings_path is not None:
        embeddings = _parse_embeddings(embeddings_path)
        if len(embeddings) != len(sources):
            raise LengthMismatch(
                f"{embeddings_path} has {len(embeddings)} vectors but "
                f"{source_path} has {len(sources)} lines"
            )
    return _corpus(forest, vocab, sources, targets, embeddings, f"{source_path} line ", 1)


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
#   embeddings   float64 (T, dim), `Corpus.embeddings`, only when it is not None
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
    "targets": (np.uint8, 1), "embeddings": (np.float64, 2),
}
# Trees per block when a forest is filled. Small blocks keep numpy's
# temporaries small, so peak memory stays near what the forest takes:
# loading a 35k-tree pool in one block peaked ~50 MB higher.
_LOAD_BLOCK_TREES = 2048
# The bound on the label ids of a DepNode graph, which comes without its
# vocab: a bundle stores label ids as int32.
_LABEL_LIMIT = 2 ** 31


def _text(lines: Sequence[str]) -> np.ndarray:
    """`lines` as UTF-8 text, each ending in a newline, in a uint8 array."""
    return np.frombuffer("".join([line + "\n" for line in lines]).encode("utf-8"), dtype=np.uint8)


def save_bundle(corpus: Corpus, out_dir: str) -> None:
    """Write `corpus` to out_dir/examples.npz, the file `load_bundle` reads.

    Refuses, before it writes anything, a corpus the file cannot give back:
    an id that is not the example's position, a newline in a source, target
    or label, and embeddings that are not finite. (`Corpus` itself refuses
    embeddings on some examples only or of differing lengths.)
    """
    examples, embeddings = corpus.examples, corpus.embeddings
    if embeddings is not None:
        _check_finite(embeddings, MalformedBundle, "example ", 0)
    # each tree's labels and heads, sliced from its forest's int32 arrays
    label_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    head_parts: List[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    for position, ex in enumerate(examples):
        where = f"example {position}"
        if ex.id != position:
            raise MalformedBundle(f"{where}: id {ex.id} is not the example's position")
        for name, text in (("source", ex.source), ("target", ex.target)):
            if "\n" in text:
                raise MalformedBundle(f"{where}: the {name} contains a newline")
        tree, forest = ex.tree, ex.tree.forest
        start = forest.tree_start.item(tree.index)
        label_parts.append(forest.labels[start:start + tree.n_tokens])
        head_parts.append(forest.heads[start:start + tree.n_tokens])
    labels = np.concatenate(label_parts)
    # the corpus's label ids in order of first use, and the rank of each id in that order
    first = np.full(int(labels.max(initial=-1)) + 1, len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))
    used = np.flatnonzero(first < len(labels))
    used = used[np.argsort(first[used])]
    rank = np.zeros(len(first), dtype=np.int32)
    rank[used] = np.arange(len(used))
    names = [corpus.vocab.labels[label] for label in used.tolist()]
    for name in names:
        if "\n" in name:
            raise MalformedBundle(f"label {name!r} contains a newline")
    arrays = {
        "version": np.int64(BUNDLE_VERSION),
        "label_names": _text(names),
        "labels": rank[labels],
        "heads": np.concatenate(head_parts),
        "tree_start": _offsets(np.array([ex.tree.n_tokens for ex in examples], dtype=np.int64)),
        "sources": _text([ex.source for ex in examples]),
        "targets": _text([ex.target for ex in examples]),
    }
    if embeddings is not None:
        arrays["embeddings"] = embeddings
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
    """The arrays of the bundle file `path`, checked for name, dtype and dimensions.

    Only the arrays that `_BUNDLE_ARRAYS` names are read. Any other, such as
    the array of token-form text that older bundles hold, is left unread.
    """
    try:
        # opened here, not by np.load, which leaves the file open when it is no zip archive
        with open(path, "rb") as f:
            data = np.load(f, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("one array, not an archive of arrays")
            with data:
                arrays = {name: data[name] for name in _BUNDLE_ARRAYS if name in data.files}
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
    """The lines of the text array `name`, taken out of `arrays`; each ends in a newline."""
    try:
        lines = arrays.pop(name).tobytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedBundle(f"{path}: {name} is not UTF-8 text ({exc})") from exc
    if lines.pop():
        raise MalformedBundle(f"{path}: {name} does not end with a newline")
    return lines


def _block_forest(labels: np.ndarray, n_labels: int, heads: np.ndarray,
                  starts: np.ndarray, where: str, first: int,
                  label_ids: Optional[np.ndarray] = None,
                  label_error: type = MalformedLine) -> Forest:
    """Check one block of trees with array operations, and return it as a forest.

    `labels` and `heads` cover the block's nodes; tree t has nodes starts[t]
    to starts[t + 1] - 1 and is `{where}{first + t}` in errors. Labels must
    lie in 0..n_labels - 1 (else `label_error`); they are vocab ids, or
    indices into `label_ids`, the vocab id of each. Heads are token indices
    within the tree, 0 at the root. This is the one writer of a forest's
    child groups.
    """
    n = len(labels)
    sizes = starts[1:] - starts[:-1]
    tree = _segments(sizes)
    bad = np.flatnonzero((labels < 0) | (labels >= n_labels))
    if bad.size:
        i = bad[0]
        raise label_error(f"{where}{first + tree[i]}: label id {labels[i]} out of range "
                          f"({n_labels} labels)")
    if label_ids is not None:
        labels = label_ids[labels]
    base = starts[:-1][tree]  # the block position of each node's tree's first node
    bad = np.flatnonzero((heads < 0) | (heads > sizes[tree]))
    if bad.size:
        i = bad[0]
        raise MalformedLine(f"{where}{first + tree[i]}: head {heads[i]} of token "
                            f"{i - base[i] + 1} out of range")
    is_root = heads == 0
    n_roots = np.bincount(tree[is_root], minlength=len(sizes))
    if (n_roots != 1).any():
        t = np.flatnonzero(n_roots != 1)[0]
        if n_roots[t]:
            raise MultipleRoots(f"{where}{first + t}: more than one node with head 0")
        raise CyclicTree(f"{where}{first + t}: no root node (head 0) found")
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
        raise CyclicTree(f"{where}{first + t}: {unreached[t]} tokens unreachable from root")

    # children grouped by (head, label, token): each node's groups in label
    # order, a group's children in token order (a stable sort of the tokens)
    child = node[~is_root]
    child = child[np.argsort(parent[child] * (int(labels.max()) + 1) + labels[child],
                             kind="stable")]
    head, label = parent[child], labels[child]
    new_group = np.ones(len(child), dtype=bool)
    new_group[1:] = (head[1:] != head[:-1]) | (label[1:] != label[:-1])
    group = np.cumsum(new_group) - 1
    n_groups = len(group) and int(group[-1]) + 1
    n_children = np.bincount(head, minlength=n)
    internal = n_children[child] > 0
    block = Forest()
    for name, values in (
        ("labels", labels), ("heads", heads), ("n_children", n_children),
        ("group_start", _offsets(np.bincount(head[new_group], minlength=n))),
        ("group_label", label[new_group]),
        ("group_leaves", np.bincount(group[~internal], minlength=n_groups)),
        ("kid_start", _offsets(np.bincount(group[internal], minlength=n_groups))),
        ("kids", child[internal]), ("tree_start", starts), ("roots", node[is_root]),
    ):
        setattr(block, name, values.astype(np.int32))
    return block


def _forest(labels: np.ndarray, n_labels: int, heads: np.ndarray, starts: np.ndarray,
            where: str, first: int, label_ids: Optional[np.ndarray] = None,
            label_error: type = MalformedLine) -> Forest:
    """The forest of trees given as flat arrays, checked and built by `_block_forest`.

    The arguments are those of `_block_forest`, for all trees. Each block
    takes its heads as int64 of its own, and the blocks are joined once.
    """
    n_trees = len(starts) - 1
    blocks = []
    for t0 in range(0, n_trees, _LOAD_BLOCK_TREES):
        t1 = min(t0 + _LOAD_BLOCK_TREES, n_trees)
        a, b = starts[t0], starts[t1]
        block_heads = heads[a:b].astype(np.int64, copy=False)
        blocks.append(_block_forest(labels[a:b], n_labels, block_heads, starts[t0:t1 + 1] - a,
                                    where, first + t0, label_ids, label_error))
    return join_forests(blocks)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of the segments of `counts` items laid end to end starts, and the total."""
    return np.concatenate(([0], counts.cumsum()))


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
    sources, targets = (_lines(arrays, name, path) for name in ("sources", "targets"))
    labels, heads, tree_start = arrays["labels"], arrays["heads"], arrays["tree_start"]
    embeddings = arrays.get("embeddings")
    del arrays  # the raw text is decoded, and the tree arrays go once the forest is built
    n_trees = len(tree_start) - 1
    if (n_trees < 0 or tree_start[0] != 0 or tree_start[-1] != len(labels)
            or len(heads) != len(labels)):
        raise MalformedBundle(f"{path}: tree_start does not split the {len(labels)} labels "
                              f"and {len(heads)} heads into trees")
    sizes = np.diff(tree_start)
    if (sizes < 1).any():
        raise MalformedBundle(f"{path} example {np.flatnonzero(sizes < 1)[0]}: empty tree")
    for name, lines in (("sources", sources), ("targets", targets)):
        if len(lines) != n_trees:
            raise LengthMismatch(f"{path}: {len(lines)} lines of {name} for {n_trees} trees")
    if embeddings is not None:
        if embeddings.shape[0] != n_trees or embeddings.shape[1] == 0:
            raise DimensionMismatch(
                f"{path}: embeddings have shape {embeddings.shape}, for {n_trees} examples")
        _check_finite(embeddings, MalformedBundle, f"{path} example ", 0)

    vocab_ids = np.array([vocab.add(name) for name in label_names], dtype=np.int64)
    forest = _forest(labels, len(label_names), heads, tree_start, f"{path} example ", 0,
                     vocab_ids, MalformedBundle)
    del labels, heads, tree_start, sizes
    return _corpus(forest, vocab, sources, targets, embeddings, f"{path} example ", 0)


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
