"""Mapping array sections to cache blocks; the ``shmem_limits`` subsetting.

The multi-word-block problem (paper Section 3): a block can straddle array
elements with different owners or outside the analyzed section, so the
compiler may only take a block under explicit control when the section
*fully covers* it.  Given section ``a(m:n)``, ``shmem_limits`` selects the
subset ``a(m_l:n_l)`` whose endpoints "fall within closest fitting block
boundaries"; the leftover boundary blocks stay with the default protocol.
For 2-D sections the subsetting happens per column ("we have to do this
subsetting by iterating over the higher dimension").

This module turns concrete :class:`~repro.core.sections.Section` objects
into sorted block-id arrays against a :class:`GlobalArray`'s geometry:

``section_byte_runs``  maximal contiguous byte runs of a section
``section_blocks``     all blocks touched (what accesses actually hit)
``shmem_limits``       (controllable, boundary) block split
``union_blocks``       sorted union of sorted block-id pieces
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.sections import Section
from repro.tempest.memory import GlobalArray

__all__ = ["section_blocks", "section_byte_runs", "shmem_limits", "union_blocks"]


def section_byte_runs(arr: GlobalArray, sec: Section) -> list[tuple[int, int]]:
    """Maximal contiguous global byte ranges ``[lo, hi)`` of a section.

    Exploits Fortran layout: a run is a full prefix of inner dimensions ×
    a contiguous range in the first partial dimension; outer partial
    dimensions and strided columns are enumerated.  Whole-column sections
    over consecutive columns merge into a single run.
    """
    if sec.is_empty:
        return []
    if sec.rank != len(arr.shape):
        raise ValueError(
            f"section rank {sec.rank} vs array {arr.name} rank {len(arr.shape)}"
        )
    item = arr.itemsize
    inner_shape = arr.shape[:-1]

    # Find how many leading dims the section covers fully.
    head = 0
    for (lo, hi), extent in zip(sec.inner, inner_shape):
        if lo == 0 and hi == extent - 1:
            head += 1
        else:
            break

    # Elements in one contiguous run and its offset within a column.
    head_elems = 1
    for extent in inner_shape[:head]:
        head_elems *= extent
    if head < len(inner_shape):
        p_lo, p_hi = sec.inner[head]
        run_elems = head_elems * (p_hi - p_lo + 1)
        run_off = head_elems * p_lo
        tail_dims = sec.inner[head + 1 :]
        tail_extents = inner_shape[head + 1 :]
    else:
        run_elems = head_elems
        run_off = 0
        tail_dims = ()
        tail_extents = ()

    col_elems = arr._col_elems
    cols = list(sec.last)

    # Fast path: full columns, unit stride => one run for all columns.
    full_column = run_elems == col_elems and not tail_dims
    if full_column and sec.last.step == 1 and cols:
        lo_byte = arr.base + cols[0] * col_elems * item
        hi_byte = arr.base + (cols[-1] + 1) * col_elems * item
        return [(lo_byte, hi_byte)]

    # Strides (in elements) of the tail dims within a column.
    tail_strides = []
    stride = head_elems if head == len(inner_shape) else head_elems * inner_shape[head]
    for extent in tail_extents:
        tail_strides.append(stride)
        stride *= extent

    runs: list[tuple[int, int]] = []
    tail_ranges = [range(lo, hi + 1) for lo, hi in tail_dims]
    for j in cols:
        col_base = arr.base + j * col_elems * item
        for combo in itertools.product(*reversed(tail_ranges)) if tail_ranges else [()]:
            off = run_off
            for idx, s in zip(reversed(combo), tail_strides):
                off += idx * s
            lo_byte = col_base + off * item
            runs.append((lo_byte, lo_byte + run_elems * item))
    return runs


def union_blocks(pieces: list[np.ndarray]) -> np.ndarray:
    """Sorted unique union of pieces that are each sorted and unique.

    Block ids come in ascending runs (one per byte run, in address order),
    so their concatenation is usually already non-decreasing: dropping
    adjacent duplicates is then one linear pass.  ``np.unique`` — which
    hashes on NumPy 2.x — only handles pieces that arrive out of order.
    """
    if len(pieces) == 1:
        return pieces[0]
    if not pieces:
        return np.empty(0, dtype=np.int64)
    ids = np.concatenate(pieces)
    step = np.diff(ids)
    if (step < 0).any():
        return np.unique(ids)
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = step != 0
    return ids[keep]


def section_blocks(arr: GlobalArray, sec: Section) -> np.ndarray:
    """Sorted unique ids of every block the section touches."""
    runs = section_byte_runs(arr, sec)
    if not runs:
        return np.empty(0, dtype=np.int64)
    bs = arr.config.block_size
    return union_blocks(
        [np.arange(lo // bs, (hi - 1) // bs + 1, dtype=np.int64) for lo, hi in runs]
    )


def shmem_limits(arr: GlobalArray, sec: Section) -> tuple[np.ndarray, np.ndarray]:
    """Split a section's blocks into (compiler-controllable, boundary).

    A block is controllable when one contiguous run fully covers it (the
    paper's per-run subsetting); every other touched block is a boundary
    block left to the default protocol.
    """
    runs = section_byte_runs(arr, sec)
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    bs = arr.config.block_size
    inner_pieces = []
    all_pieces = []
    for lo, hi in runs:
        all_pieces.append(np.arange(lo // bs, (hi - 1) // bs + 1, dtype=np.int64))
        first = -(-lo // bs)          # ceil
        last = hi // bs               # exclusive
        if last > first:
            inner_pieces.append(np.arange(first, last, dtype=np.int64))
    touched = union_blocks(all_pieces)
    inner = union_blocks(inner_pieces)
    boundary = np.setdiff1d(touched, inner, assume_unique=True)
    return inner, boundary
