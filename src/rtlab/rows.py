"""Explicit rows of the rainbow hypergraph and their co-degrees, in numpy.

A row is one hyperedge, a rainbow K4 copy, as six increasing hypergraph
vertex ids, id = edge_id * r + (color - 1).  Rows are made K4 by K4 by
one vectorised distinct-colour enumerator, either all at once under a
row cap (`--materialize-cap` on the command line) or a block of whole
K4s at a time, and their largest co-degrees are counted by sorting
sub-row keys.  `containers` picks between these rows and its closed
forms; `cli` imports this module for the default row cap.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import CapExceeded

# graphs and templates are imported inside the functions that call them;
# the annotation `Template` is templates.Template, never evaluated.

DEFAULT_MATERIALIZE_CAP = 10 ** 7
# Rows are counted in blocks of whole K4s of at least this many rows: a
# block's numpy calls cost about a millisecond in all, a few percent of
# counting this many rows, and its working set stays a few MB.
_BLOCK_ROWS = 2 ** 15


def _selection_rows(masks, offsets) -> np.ndarray:
    """Every distinct-colour selection from six colour lists, as rows of
    ids offsets[i] + (0-based colour from list i), in `offsets`' dtype.  The
    lists are expanded smallest first (ties by index): each partial row
    carries a word of the colours it has used, in the narrowest unsigned
    type with a bit per colour, and is repeated once per candidate colour
    whose bit is clear, picked by a boolean mask.  Rows come out in
    lexicographic order of the colours in expansion order."""
    order = sorted(range(6), key=lambda i: masks[i].bit_count())  # stable: ties by index
    word = np.min_scalar_type(max(masks)).type  # as many bits as the highest colour
    out = offsets[None]
    used = np.zeros(1, dtype=word)
    for i in order:
        colors = np.array(
            [c for c in range(masks[i].bit_length()) if masks[i] >> c & 1], dtype=np.uint8
        )
        bits = word(1) << colors
        free = (used[:, None] & bits) == 0
        counts = np.count_nonzero(free, axis=1)
        picked = np.broadcast_to(colors, free.shape)[free]
        if i != order[-1]:  # the last list's colours are never tested
            used = np.repeat(used, counts) | word(1) << picked
        free = None  # before the rows are repeated
        out = np.repeat(out, counts, axis=0)  # a new array, so `offsets` stays as it is
        out[:, i] += picked
    return out


def _id_dtype(t: Template):
    """The row dtype: the narrowest of uint8, uint16 and int64 that holds
    every id, all below edge_count * r."""
    top = t.graph.edge_count * t.r
    return np.uint8 if top <= 256 else np.uint16 if top <= 65536 else np.int64


def _k4_rows(t: Template):
    """The rows of each host K4 in turn, in `cliques(g, 4)` order."""
    from .graphs import clique_edge_ids

    r, dtype = t.r, _id_dtype(t)
    for eids in clique_edge_ids(t.graph, 4):
        yield _selection_rows([t.masks[e] for e in eids], np.array(eids, dtype) * r)


def _k4_blocks(parts):
    """The row arrays of consecutive K4s, joined until a block holds
    _BLOCK_ROWS rows (the last block may hold fewer), so every K4's rows
    lie in one block; a K4 of _BLOCK_ROWS rows or more is its own block,
    not copied."""
    held, count = [], 0
    for rows in parts:
        held.append(rows)
        count += len(rows)
        rows = None  # before the next K4's rows are made
        if count >= _BLOCK_ROWS:
            yield held[0] if len(held) == 1 else np.concatenate(held)
            held, count = [], 0
    if count:
        yield np.concatenate(held)


def materialize_rows(t: Template, cap: int = DEFAULT_MATERIALIZE_CAP) -> np.ndarray:
    """Explicit hyperedges as rows of six hypergraph-vertex ids,
    id = edge_id * r + (color - 1), K4 by K4 in lexicographic vertex order.
    A K4's edge ids ab, ac, ..., cd of its sorted vertices ascend and every
    colour is below r, so each row is increasing as written."""
    from .templates import count_rainbow_copies

    total = count_rainbow_copies(t)
    if total > cap:
        raise CapExceeded(
            f"{total} hyperedges exceeds materialization cap {cap}",
            estimate=total,
            cap=cap,
        )
    out = np.empty((total, 6), dtype=_id_dtype(t))
    at = 0
    for rows in _k4_rows(t):
        out[at : at + len(rows)] = rows
        at += len(rows)
        del rows  # before the next K4's rows are made
    return out


def _subrow_keys(cols, combo, radix: int, held: list) -> list:
    """Positional base-`radix` keys of the sub-rows at the sorted column
    positions `combo`, as word arrays, most significant first: one int32
    word while radix**len(combo) fits one, since those sort about twice as
    fast, else int64 words of as many digits as fit.  The first word is
    written over the buffer held[0]; unless it has that dtype and one item
    per row, it is let go first and replaced."""
    j = len(combo)
    dtype = np.int32 if radix ** j < 2 ** 31 else np.int64
    if held[0].dtype != dtype or held[0].shape != cols[0].shape:
        held[0] = None
        held[0] = np.empty_like(cols[0], dtype)
    per = 1
    while per < j and radix ** (per + 1) <= 2 ** 63:
        per += 1
    words = []
    for at in range(0, j, per):
        w = np.empty_like(held[0]) if words else held[0]
        np.copyto(w, cols[combo[at]])
        for c in combo[at + 1 : at + per]:
            w *= radix
            w += cols[c]
        words.append(w)
    return words


def _key_counts(words, weights=None):
    """(distinct keys as word arrays, summed weight of each key); without
    weights the sums are the keys' multiplicities.  A one-word key array
    without weights is sorted in place."""
    if len(words) == 1 and weights is None:
        words[0].sort()
    else:
        order = np.lexsort(words[::-1])
        words = [w[order] for w in words]
        if weights is not None:
            weights = weights[order]
    new = np.empty(len(words[0]), dtype=bool)  # True where a run of equal keys starts
    new[0] = True
    np.not_equal(words[0][1:], words[0][:-1], out=new[1:])
    for w in words[1:]:
        new[1:] |= w[1:] != w[:-1]
    starts = np.flatnonzero(new)
    sums = np.diff(starts, append=len(new)) if weights is None else np.add.reduceat(weights, starts)
    return [w[starts] for w in words], sums


def _largest_multiplicity(words, least: int) -> int:
    """The larger of `least` and the largest multiplicity of any key.  Keys
    of one word are sorted in place; a key then occurs more than m times
    exactly when it equals the key m places on, one comparison pass with
    no index array.  m = max(least, 1) is tested first, so a block that
    cannot raise `least` costs one pass; one that can is bisected up to its
    row count.  Keys of several words are counted by `_key_counts`."""
    if len(words) > 1:
        return max(least, int(_key_counts(words)[1].max()))
    keys = words[0]
    keys.sort()
    low = m = max(least, 1)
    high = len(keys)
    while low < high:
        low, high = (m + 1, high) if (keys[m:] == keys[:-m]).any() else (low, m)
        m = (low + high) // 2
    return low


# A row's columns are the edges ab, ac, ad, bc, bd, cd of a K4 a < b < c < d.
_K4_EDGES = tuple(itertools.combinations(range(4), 2))
_COMBOS = [c for j in range(2, 7) for c in itertools.combinations(range(6), j)]
# The column combinations whose edges meet only three of the K4's vertices
# (the 12 pairs of edges sharing a vertex and the 4 triangles), and all the
# others.
_ON_THREE_VERTICES = [c for c in _COMBOS if len({v for i in c for v in _K4_EDGES[i]}) == 3]
_ON_FOUR_VERTICES = [c for c in _COMBOS if c not in _ON_THREE_VERTICES]


def max_codegrees_from_rows(rows, base: int) -> tuple:
    """Delta_2..Delta_6 by direct subset counting over explicit rows.

    `rows` holds one hyperedge per row as six increasing ids below `base`,
    id = edge_id * r + (color - 1), as `materialize_rows` writes them: one
    K4's six distinct edges per row.  It is one (m, 6) integer array, or an
    iterator of such arrays, blocks, with all the rows on any one K4 in one
    block.  Rows outside that layout (say, two colours of one edge in a
    row) pass the checks but may get their co-degrees undercounted.

    Each block is checked one column pair at a time, and its columns are
    copied once, in the narrowest dtype that holds its largest id; the block
    and its copy are let go before the next block is made, and the key
    buffer is reused while blocks keep their length.  Every j-subset of a
    row sits at some sorted column combination and is keyed positionally
    there.  Two or three edges on three vertices lie on every K4 through
    that triangle, at columns that depend on where the fourth vertex sorts,
    so those subsets are keyed first, in base `base` on the ids as given,
    counted per combination and block, and the counts merged once at the
    end.  A j-set whose edges span four vertices (always so for j >= 4) lies
    on exactly one K4, so every row holding it is in one block, at the same
    columns: its co-degree is the multiplicity of its key at that
    combination of that block.  Those are keyed after each column has its
    minimum subtracted in place, in radix R = the block's largest column
    span, at most `base`: a lone K4 at r colours has R <= r, so at r <= 35
    every key is one int32."""
    base = int(base)
    best = [0] * 5  # Delta_2..Delta_6 so far
    shared = ([], [])  # j = 2, 3: (key words, multiplicities) on three vertices
    held = [np.empty(0)]  # the key buffer
    for block in rows if isinstance(rows, Iterator) else [rows]:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != 6 or not np.issubdtype(block.dtype, np.integer):
            raise ValueError(
                f"rows must be integers of shape (m, 6), not {block.dtype} {block.shape}"
            )
        if len(block) == 0:
            continue
        top = int(block.max())
        if block.min() < 0 or base <= top or top >= 2 ** 63:
            raise ValueError(f"ids {block.min()}..{top} do not lie in 0..{min(base, 2 ** 63) - 1}")
        for c in range(5):
            if (block[:, c + 1] <= block[:, c]).any():
                raise ValueError("every row must hold six increasing ids")
        # uint64 would not cast into int64 keys unchecked; ids past uint32 need those
        narrow = np.min_scalar_type(top) if top < 2 ** 32 else np.int64
        cols = block.T.astype(narrow, order="C")  # a copy even of one row
        # each key is used up before the next one is written over the buffer
        for combo in _ON_THREE_VERTICES:
            shared[len(combo) - 2].append(_key_counts(_subrow_keys(cols, combo, base, held)))
        cols -= cols.min(axis=1, keepdims=True)
        radix = int(cols.max()) + 1
        for combo in _ON_FOUR_VERTICES:
            j = len(combo) - 2
            best[j] = _largest_multiplicity(_subrow_keys(cols, combo, radix, held), best[j])
        block = cols = None  # before the next block is made
    held = None  # before the merge
    for j, parts in enumerate(shared):
        if parts:
            merged = [np.concatenate(w) for w in zip(*(p[0] for p in parts))]
            counts = _key_counts(merged, np.concatenate([p[1] for p in parts]))[1]
            best[j] = max(best[j], int(counts.max()))
    return tuple(best)


def codegree_from_rows(rows: np.ndarray, vids) -> int:
    """Number of explicit rows containing every given hypergraph vertex;
    each id is tested column by column, only on the rows that hold all the
    ids before it."""
    for v in vids:
        hit = rows[:, 0] == v
        for i in range(1, rows.shape[1]):
            hit |= rows[:, i] == v
        rows = rows[hit]
    return len(rows)
