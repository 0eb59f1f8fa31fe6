"""Column-sharded phi: lazy word-major shard views for out-of-core serving.

PR 4's schema-v2 artifact externalized ``phi`` as one uncompressed
word-major ``phi_word_major.npy`` so serving workers could map a single
shared copy.  That stops scaling once ``V * T * 8`` bytes outgrow one
node: mapping the member still reserves address space for the whole
matrix and faulting a query batch's working set drags the rest of the
file through the page cache.  Schema v3 (:mod:`repro.serving.artifacts`)
splits the same word-major matrix along the **vocabulary axis** into
contiguous ``phi_shard_<k>.npy`` members, and this module provides the
serving-side view over them:

:class:`ShardedPhi`
    A lazy word-major ``(V, T)`` view.  Shards are mapped read-only on
    first touch — a fold-in batch that references words from two shards
    maps exactly two files.  It exposes the gather surface the fold-in
    runtime already uses (``phi[word]`` rows, :meth:`ShardedPhi.take`
    for ``np.take(..., axis=0, out=...)``), so
    :class:`~repro.serving.foldin.FoldInEngine` samples on top of it
    unchanged, plus an explicit :meth:`ShardedPhi.touch` prefetch that
    maps exactly the shards a batch needs.
:class:`TransposedShardedPhi`
    The canonical ``(T, V)`` face of the same view (``sharded.T``), so a
    reloaded :class:`~repro.models.base.FittedTopicModel` keeps its
    documented ``phi`` orientation without materializing anything.
    Whole-matrix consumers (``np.asarray``, the perplexity metrics)
    still work — they materialize, mapping every shard.

Bit-identity contract: sharding must never change served theta.  Every
per-word quantity the fold-in lanes consume is **row-independent** in
the word-major layout — the gathered ``phi[word]`` rows are the same
bytes, the static prior masses are per-row sums (``alpha * sum_t
phi[t, w]``), and :func:`repro.sampling.alias.build_alias_rows` replays
the identical per-row pop/push sequence whether it sees one shard or
the whole matrix.  So per-shard tables are bit-identical to
whole-matrix tables row for row, and the draws that consume them are
bit-identical too (pinned by ``tests/test_sharded_serving.py``).

Lifecycle: :meth:`ShardedPhi.close` drops the block cache and closes
every mapped file now (best-effort — a map whose buffer is still
exported by a live row view is left to the garbage collector).  The
view stays usable afterwards: a later gather lazily re-maps, which is
what lets a registry evict a model out from under a session without
breaking it.  A view that mapped shards and was never closed warns
``ResourceWarning`` on collection.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from bisect import bisect_right
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["ShardedPhi", "TransposedShardedPhi", "plan_shard_starts"]


def plan_shard_starts(vocab_size: int, shard_words: int) -> tuple[int, ...]:
    """Contiguous shard start offsets: ``shard_words`` words per shard
    (the last shard takes the remainder)."""
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if shard_words < 1:
        raise ValueError(f"shard_words must be >= 1, got {shard_words}")
    return tuple(range(0, vocab_size, shard_words))


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ShardedPhi:
    """Lazy word-major ``(V, T)`` phi over contiguous vocabulary shards.

    Parameters
    ----------
    paths:
        One ``.npy`` member per shard, each holding the word-major rows
        ``[starts[k], stops[k])`` as a contiguous float64 block.
    starts:
        Ascending shard start offsets; ``starts[0]`` must be 0 and the
        implied ranges tile ``[0, vocab_size)``.
    vocab_size / num_topics:
        The full matrix shape ``(V, T)``; every block is shape-checked
        against it when first mapped.
    masses:
        Optional per-shard total probability mass (``block.sum()``)
        from the artifact manifest — lets the fold-in engine sanity
        check stochasticity (``sum(masses) ~= T``) without mapping.
    checksums:
        Optional per-shard SHA-256 hex digests of the member files, for
        :meth:`verify_checksums`.
    """

    #: Duck marker: tells array-coercing plumbing (e.g.
    #: ``FittedTopicModel.__post_init__``) to pass this through instead
    #: of materializing it.
    is_lazy = True

    def __init__(self, paths: Sequence[str | Path],
                 starts: Sequence[int],
                 vocab_size: int, num_topics: int,
                 masses: Sequence[float] | None = None,
                 checksums: Sequence[str] | None = None) -> None:
        if len(paths) != len(starts) or not paths:
            raise ValueError(
                f"need one path per shard start, got {len(paths)} paths "
                f"for {len(starts)} starts")
        starts = tuple(int(s) for s in starts)
        if starts[0] != 0 or list(starts) != sorted(set(starts)) \
                or starts[-1] >= vocab_size:
            raise ValueError(
                f"shard starts must ascend from 0 and stay inside the "
                f"vocabulary (size {vocab_size}), got {starts}")
        if num_topics < 1:
            raise ValueError(f"num_topics must be >= 1, got {num_topics}")
        for option, name in ((masses, "masses"), (checksums, "checksums")):
            if option is not None and len(option) != len(starts):
                raise ValueError(
                    f"{name} must have one entry per shard, got "
                    f"{len(option)} for {len(starts)} shards")
        self._paths = tuple(str(p) for p in paths)
        self._starts = starts
        self._starts_arr = np.asarray(starts, dtype=np.int64)
        self._stops = starts[1:] + (int(vocab_size),)
        self._vocab_size = int(vocab_size)
        self._num_topics = int(num_topics)
        self._masses = (tuple(float(m) for m in masses)
                        if masses is not None else None)
        self._checksums = (tuple(str(c) for c in checksums)
                           if checksums is not None else None)
        self._blocks: list[np.ndarray | None] = [None] * len(starts)
        # The mmap handle behind each mapped block, kept out of the
        # block itself: blocks are served as *plain* ndarray views
        # (the np.memmap subclass costs an __array_finalize__ per row
        # slice — measurable in the per-token fold-in loop).
        self._maps: list[object | None] = [None] * len(starts)
        self._lock = threading.Lock()
        # True after close() until the next lazy (re-)map; gates the
        # leaked-map ResourceWarning on collection.
        self._released = True

    # ------------------------------------------------------------- shape
    @property
    def shape(self) -> tuple[int, int]:
        return (self._vocab_size, self._num_topics)

    ndim = 2
    dtype = np.dtype(np.float64)

    def __len__(self) -> int:
        return self._vocab_size

    @property
    def nbytes(self) -> int:
        """Full-matrix bytes (mapped or not) — the denominator of any
        out-of-core memory claim."""
        return self._vocab_size * self._num_topics * self.dtype.itemsize

    @property
    def num_shards(self) -> int:
        return len(self._starts)

    @property
    def shard_ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-shard ``(start, stop)`` word ranges, in shard order."""
        return tuple(zip(self._starts, self._stops))

    @property
    def shard_paths(self) -> tuple[str, ...]:
        return self._paths

    @property
    def shard_masses(self) -> tuple[float, ...] | None:
        """Per-shard total probability mass from the manifest, if known."""
        return self._masses

    # ----------------------------------------------------------- mapping
    def shard_of(self, word_ids: np.ndarray) -> np.ndarray:
        """The shard index of each word id (no shards are mapped)."""
        return np.searchsorted(self._starts_arr,
                               np.asarray(word_ids, dtype=np.int64),
                               side="right") - 1

    def locate(self, word: int) -> tuple[int, int]:
        """``(shard index, row within shard)`` of one word id — the
        scalar hot-path complement of :meth:`shard_of` (no mapping)."""
        shard = bisect_right(self._starts, word) - 1
        return shard, word - self._starts[shard]

    def block(self, shard: int) -> np.ndarray:
        """Shard ``shard``'s word-major rows, mapped on first use."""
        blocks = self._blocks
        block = blocks[shard]
        if block is None:
            block = self._load_block(shard)
        return block

    def _load_block(self, shard: int) -> np.ndarray:
        with self._lock:
            block = self._blocks[shard]
            if block is not None:
                return block
            path = self._paths[shard]
            raw = np.load(path, mmap_mode="r")
            expected = (self._stops[shard] - self._starts[shard],
                        self._num_topics)
            if raw.shape != expected or raw.dtype != self.dtype:
                raise ValueError(
                    f"phi shard {shard} at {path} has shape "
                    f"{raw.shape} / dtype {raw.dtype}, expected "
                    f"{expected} float64")
            # Serve a plain-ndarray view of the mapped pages (the raw
            # np.memmap stays alive through .base); keep the OS handle
            # separately so close() can release it.
            block = raw.view(np.ndarray)
            self._maps[shard] = raw._mmap
            self._blocks[shard] = block
            self._released = False
            return block

    def touch(self, word_ids: np.ndarray) -> tuple[int, ...]:
        """Prefetch: map exactly the shards ``word_ids`` touch.

        Returns the touched shard indices (sorted, unique).  This is
        the out-of-core contract made explicit — a batch's working set
        is the union of its documents' shards, nothing more.
        """
        ids = np.asarray(word_ids, dtype=np.int64).ravel()
        if ids.size == 0:
            return ()
        if int(ids.min()) < 0 or int(ids.max()) >= self._vocab_size:
            raise IndexError(
                f"word ids outside the vocabulary (size "
                f"{self._vocab_size})")
        shards = tuple(int(k) for k in np.unique(self.shard_of(ids)))
        for k in shards:
            self.block(k)
        return shards

    @property
    def mapped_shards(self) -> tuple[int, ...]:
        """Indices of the shards currently mapped."""
        return tuple(k for k, b in enumerate(self._blocks)
                     if b is not None)

    @property
    def mapped_bytes(self) -> int:
        """Bytes of phi currently mapped (the out-of-core footprint —
        what a whole-matrix map would charge ``nbytes`` for)."""
        return sum(b.nbytes for b in self._blocks if b is not None)

    # ----------------------------------------------------------- gathers
    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            word = int(key)
            if word < 0:
                word += self._vocab_size
            if not 0 <= word < self._vocab_size:
                raise IndexError(
                    f"word id {key} outside the vocabulary (size "
                    f"{self._vocab_size})")
            shard = bisect_right(self._starts, word) - 1
            return self.block(shard)[word - self._starts[shard]]
        if isinstance(key, slice):
            return self.take(np.arange(*key.indices(self._vocab_size)))
        if isinstance(key, (list, np.ndarray)):
            return self.take(np.asarray(key))
        raise TypeError(
            f"ShardedPhi supports word-id rows, slices and 1-d gathers; "
            f"materialize with np.asarray(...) for {type(key).__name__} "
            f"indexing")

    def take(self, indices, axis=None, out=None, mode="raise"):
        """Row gather along the word axis; the duck method behind
        ``np.take(sharded, word_ids, axis=0, out=...)``.

        Writes the same bytes a whole-matrix ``np.take`` would — the
        exact fold-in lane gathers through here without knowing phi is
        sharded.  Only the shards the indices touch get mapped.
        """
        if axis not in (0, None):
            raise ValueError(
                f"ShardedPhi gathers along the word axis (axis=0), got "
                f"axis={axis}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim == 0:
            return self[int(idx)].copy()
        flat = idx.ravel()
        if out is not None:
            result = out
        else:
            result = np.empty(idx.shape + (self._num_topics,))
        if flat.size == 0:
            return result
        if int(flat.min()) < 0 or int(flat.max()) >= self._vocab_size:
            raise IndexError(
                f"word ids outside the vocabulary (size "
                f"{self._vocab_size})")
        target = result.reshape(flat.shape[0], self._num_topics)
        if len(self._starts) == 1:
            np.take(self.block(0), flat, axis=0, out=target)
            return result
        shard_ids = self.shard_of(flat)
        for k in np.unique(shard_ids):
            k = int(k)
            sel = np.flatnonzero(shard_ids == k)
            target[sel] = self.block(k) \
                .take(flat[sel] - self._starts[k], axis=0)
        return result

    def materialize(self) -> np.ndarray:
        """The full word-major ``(V, T)`` matrix (maps every shard)."""
        full = np.empty(self.shape)
        for k, (start, stop) in enumerate(self.shard_ranges):
            full[start:stop] = self.block(k)
        return full

    def __array__(self, dtype=None, copy=None):
        full = self.materialize()
        return full if dtype is None else full.astype(dtype, copy=False)

    @property
    def T(self) -> "TransposedShardedPhi":
        """The canonical ``(T, V)`` face of this view (still lazy)."""
        return TransposedShardedPhi(self)

    # --------------------------------------------------------- lifecycle
    def verify_checksums(self) -> "ShardedPhi":
        """Recompute every member's SHA-256 against the manifest record.

        Raises ``ValueError`` on a mismatch (or when the artifact
        carried no checksums); reads files, maps nothing.
        """
        if self._checksums is None:
            raise ValueError(
                "this sharded phi carries no checksums to verify")
        for path, expected in zip(self._paths, self._checksums):
            actual = _sha256_file(Path(path))
            if actual != expected:
                raise ValueError(
                    f"phi shard {path} is corrupt: sha256 {actual} != "
                    f"manifest {expected}")
        return self

    def close(self) -> None:
        """Drop the block cache and close every mapped file now.

        Best-effort: a map whose buffer is still exported (a caller
        holds a row view) raises ``BufferError`` inside ``mmap.close``
        and is left to the garbage collector instead.  The view stays
        usable — later gathers lazily re-map — so a registry can evict
        a model without breaking a session still serving it.
        """
        with self._lock:
            self._blocks = [None] * len(self._paths)
            maps, self._maps = self._maps, [None] * len(self._paths)
            self._released = True
        for mm in maps:
            if mm is not None:
                try:
                    mm.close()
                except BufferError:
                    pass

    def __del__(self) -> None:
        try:
            if not self._released:
                warnings.warn(  # repro: noqa[RPR002] finalizer: no caller frame; source= names the allocation site
                    f"unclosed ShardedPhi "
                    f"({len(self.mapped_shards)} shard(s) still mapped "
                    f"under {Path(self._paths[0]).parent}); call "
                    f"close() (or LoadedModel.close())",
                    ResourceWarning, source=self)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ---------------------------------------------------------- plumbing
    def __reduce__(self):
        # Ships the *map*, never the blocks: a worker process unpickles
        # a fresh unmapped view and lazily maps only the shards its own
        # documents touch.
        return (ShardedPhi, (self._paths, self._starts, self._vocab_size,
                             self._num_topics, self._masses,
                             self._checksums))

    def __repr__(self) -> str:
        return (f"ShardedPhi(shape={self.shape}, "
                f"shards={self.num_shards}, "
                f"mapped={len(self.mapped_shards)})")


class TransposedShardedPhi:
    """The ``(T, V)`` face of a :class:`ShardedPhi` — the orientation
    :class:`~repro.models.base.FittedTopicModel` documents for ``phi``.

    Stays lazy: ``.T`` returns the underlying word-major view (what the
    fold-in engine gathers from), ``phi[topic]`` gathers one topic row
    across all shards (mapping them), and ``np.asarray`` materializes
    the whole matrix for legacy whole-matrix consumers.
    """

    is_lazy = True
    ndim = 2

    def __init__(self, sharded: ShardedPhi) -> None:
        self._sharded = sharded

    @property
    def shape(self) -> tuple[int, int]:
        vocab, topics = self._sharded.shape
        return (topics, vocab)

    @property
    def dtype(self) -> np.dtype:
        return self._sharded.dtype

    @property
    def T(self) -> ShardedPhi:
        return self._sharded

    @property
    def num_shards(self) -> int:
        return self._sharded.num_shards

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            topic = int(key)
            topics = self.shape[0]
            if topic < 0:
                topic += topics
            if not 0 <= topic < topics:
                raise IndexError(
                    f"topic {key} out of range for {topics} topics")
            row = np.empty(self.shape[1])
            for k, (start, stop) in enumerate(self._sharded.shard_ranges):
                row[start:stop] = self._sharded.block(k)[:, topic]
            return row
        raise TypeError(
            f"TransposedShardedPhi supports integer topic rows; "
            f"materialize with np.asarray(...) for "
            f"{type(key).__name__} indexing")

    def __array__(self, dtype=None, copy=None):
        full = np.ascontiguousarray(self._sharded.materialize().T)
        return full if dtype is None else full.astype(dtype, copy=False)

    def __reduce__(self):
        return (TransposedShardedPhi, (self._sharded,))

    def __repr__(self) -> str:
        return (f"TransposedShardedPhi(shape={self.shape}, "
                f"shards={self._sharded.num_shards})")
