"""Cross-shot batched greedy decoding: buckets, arenas, flattened sorts.

PR 2 made sampling and syndrome extraction word-wise; the per-shot
decode loop — rebuild an ``(n, n)`` distance matrix, sort candidates,
run a Python acceptance scan, for every shot — became the Monte-Carlo
bottleneck.  This module decodes a whole chunk of shots at once into
north-cut parities, certified *bit-identical* to
:func:`repro.decoding.greedy.greedy_cut_parity` on every input it
accepts (anything else falls back to the per-shot core, shot by shot):

* **Zero-clique compaction** — with a ``w_ano = 0`` region, the
  zero-distance cliques of the per-shot core are exactly the nodes
  *inside* the box (``to_box == 0``).  They pair off at weight 0 and
  never cross the north cut, so they are dropped before anything else
  runs; an odd shot keeps its last in-box node.

* **Level-1 pass** — every distance-1 candidate comes from lattice
  adjacency (a cell grid of node ids) and the box geometry (a shot's
  leftover in-box node with the nodes one step from its box), with no
  ``(S, n, n)`` tensor.  One acceptance settles that level, and only
  the still-unmatched nodes — a small fraction at Fig. 8 densities — go
  on to the bucketed dense build for distances >= 2.

* **Bucketed distance builds** — the survivors are grouped by
  active-node count ``n`` (padded up to a multiple of
  :data:`BUCKET_STEP`, pad slots masked out) and gathered into
  ``(3, S, n)`` coordinate
  planes; pairwise and boundary distances for the whole bucket come out
  of a handful of broadcast ufunc passes (the ``int16`` fast path of
  :meth:`DistanceModel.pairwise_int` generalized to the batch axis,
  dropping to ``int8`` when the coordinate spans allow).  Each bucket
  appends its kept candidates (node ids offset per shot) to per-level
  lists.  Candidates of different shots never interact, so only the
  *within-shot* order matters, which the level split preserves exactly.

* **Vectorized acceptance** — the sequential distance-ordered scan is
  replaced by its round-based fixpoint, the parallel greedy matching of
  Blelloch, Fineman & Shun (https://arxiv.org/abs/1202.3205): per
  distance level, accept every candidate that is the earliest remaining
  candidate of *all* its endpoints, drop candidates touching matched
  nodes, and repeat until none is left.  Each round's "earliest
  incident candidate" map is three reversed scatters (boundaries, pair
  lows, pair highs), exact by the order invariant :func:`_accept`
  states; the result is the
  sequential greedy matching (the earliest remaining candidate always
  wins in both formulations), with no per-shot NumPy calls and no
  Python acceptance loop.

* **Scratch arenas** — every bucket-shaped temporary (coordinate planes,
  distance/keep tensors, the endpoint maps, the level-1 cell grid)
  comes from a grow-only :class:`ScratchArena` keyed on buffer role, so
  steady-state chunks allocate nothing.

Every phase keeps the per-shot core's candidate order (pairs in
row-major order before boundaries, per distance level): dropping
matched nodes leaves the rest in their relative order, and open-window
box tops stay each shot's ``t_max`` over its full node set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.decoding.greedy import _greedy_fast_core, _upper_mask
from repro.decoding.weights import (DistanceModel, MultiRegionDistanceModel,
                                    region_signature)

#: Per-bucket element budget of the float fallback tier's ``(S, n, n)``
#: tensors (``pairwise_batch`` materializes a 3-component diff on top).
_FLOAT_BUCKET_BUDGET = 1 << 18

#: Coordinate bound of the integer fast path (shared with
#: :meth:`DistanceModel.pairwise_int`).
INT_LIMIT = 2000

#: Per-bucket element budget for the ``(S, n, n)`` tensors: buckets are
#: split so the distance/keep scratch stays cache-resident.
BUCKET_ELEMENT_BUDGET = 1 << 21

#: Step of the bucket ladder: survivor counts pad up to a multiple of
#: it, trading a few masked tensor elements for far fewer buckets.
BUCKET_STEP = 8


class ScratchArena:
    """Grow-only scratch buffers, reused across chunks.

    Buffers are keyed by ``(role, dtype)`` and handed out as 1-D views
    of the requested size; a request larger than the current buffer
    reallocates (doubling), anything smaller is a free slice.  One arena
    per worker removes every steady-state allocation of the bucketed
    decode loop.
    """

    def __init__(self):
        self._bufs: dict = {}

    def take(self, role: str, size: int, dtype) -> np.ndarray:
        """A 1-D scratch view of ``size`` elements (contents arbitrary)."""
        key = (role, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            cap = max(size, 0 if buf is None else 2 * buf.size, 1)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
        return buf[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (observability/tests)."""
        return sum(b.nbytes for b in self._bufs.values())

    def __len__(self) -> int:
        return len(self._bufs)


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _coords_eligible(distance: int, allc: np.ndarray) -> bool:
    """Whether a chunk's concatenated coordinates fit the integer engine.

    Integer nodes, nonnegative coordinates bounded by ``INT_LIMIT``,
    rows on the lattice (``i <= d - 2``, which keeps every boundary
    distance >= 1 — the invariant the zero-clique and level logic lean
    on), and a moderate code distance.
    """
    if distance > INT_LIMIT:
        return False
    if not np.issubdtype(allc.dtype, np.integer):
        return False
    if not len(allc):
        return True
    if int(allc.min()) < 0 or int(allc.max()) > INT_LIMIT:
        return False
    if int(allc[:, 1].max()) > distance - 2:
        return False
    return True


def _region_ok(distance: int, region) -> bool:
    """Whether one region's geometry fits the integer engine."""
    return region.row_lo <= distance and region.t_lo <= INT_LIMIT


def _chunk_eligible(model: DistanceModel, allc: np.ndarray) -> bool:
    """Whether the integer bucketed engine covers this model + node set.

    Mirrors (and slightly extends) the :meth:`pairwise_int` envelope:
    :func:`_coords_eligible` coordinates plus a region (only with zero
    weight) whose row origin sits on the lattice.  Anything outside
    decodes through the per-shot reference core (or, for weighted
    regions, the float bucketed tier) instead.

    Multi-region models (``model.regions``, e.g.
    :class:`~repro.decoding.weights.MultiRegionDistanceModel`) always
    decline: their ``region`` is ``None`` by design, and routing them
    into the uniform integer engine would silently drop every box.
    They take the certified per-shot float core (the envelope extension
    is follow-on work).
    """
    if getattr(model, "regions", None):
        return False
    reg = model.region
    if reg is not None:
        if model.w_ano != 0.0:
            return False
        if not _region_ok(model.distance, reg):
            return False
    return _coords_eligible(model.distance, allc)


# ----------------------------------------------------------------------
# The bucketed engine
# ----------------------------------------------------------------------
def _region_bounds(reg, d: int, cmax: int) -> tuple:
    """One region's integer clip bounds, folded into the data range.

    ``min(max(t, lo), hi)`` never exceeds ``max(cmax, lo)``, so capping
    ``hi`` there is inert, and a lower bound above the capped upper
    bound clips to it — both reductions are value-exact and keep the
    bounds (and every to-box distance) inside the engine dtype even for
    explicit far-future ``t_hi`` boxes.  Returns ``(lo1, hi1, rlo, hi2,
    clo, tlo, thi, open_window)``; with an open window the box top is
    each *shot's* own t_max (matters when t_lo exceeds it — the box
    collapses onto the shot's last layer), applied per bucket.
    """
    lo1 = reg.row_lo
    hi1 = min(reg.row_hi - 1, d - 2)
    hi2 = min(reg.col_hi - 1, d - 1)
    if reg.t_hi is not None:
        thi = min(reg.t_hi - 1, max(cmax, reg.t_lo))
        tlo = min(reg.t_lo, thi)
        open_window = False
    else:
        thi = 0  # unused: the shot's own t_max is the box top
        tlo = min(reg.t_lo, cmax + 1)
        open_window = True
    return (lo1, hi1, min(lo1, hi1), hi2, min(reg.col_lo, hi2), tlo, thi,
            open_window)


def _parity_prepass(d: int, allc: np.ndarray, ns: np.ndarray,
                    offs: np.ndarray, has: np.ndarray, bounds: np.ndarray,
                    open_w: np.ndarray, tmax_shot, parities: np.ndarray,
                    arena: ScratchArena) -> tuple:
    """Settle what the engine can without dense tensors.

    Zero-clique compaction first: with w_ano = 0 the in-box nodes pair
    off at distance zero — weight 0, node-node, no boundary — so the
    north-cut parity never sees them, and an odd shot's last in-box
    node stays free, exactly as the per-shot core's clique pairing
    leaves it.  Afterwards a shot holds at most one in-box node.  Then
    :func:`_settle_level_one` accepts distance 1.  Both drop nodes and
    keep the rest in their relative order, which preserves the per-shot
    core's candidate order among the survivors.

    Returns ``(nodes, ns)``: the still-unmatched nodes, shot-major, and
    their per-shot counts.
    """
    S_all = len(ns)
    shot_of = np.repeat(np.arange(S_all), ns)
    t, i, j = (allc[:, c].astype(np.int64) for c in range(3))
    lo1, hi1, rlo, hi2, clo, tlo, thi = bounds
    to_box = None
    if has.any():
        thi_f = (np.where(open_w, tmax_shot, thi)
                 if tmax_shot is not None else thi)[shot_of]
        to_box = (np.abs(t - np.minimum(np.maximum(t, tlo[shot_of]), thi_f))
                  + np.abs(i - np.minimum(np.maximum(i, rlo[shot_of]),
                                          hi1[shot_of]))
                  + np.abs(j - np.minimum(np.maximum(j, clo[shot_of]),
                                          hi2[shot_of])))
        # Region-free shots sit beyond every box and boundary detour.
        to_box[~has[shot_of]] = 4 * INT_LIMIT
        inbox = to_box == 0
        if inbox.any():
            keep = ~inbox
            odd = np.flatnonzero(np.bincount(shot_of[inbox],
                                             minlength=S_all) & 1)
            if len(odd):
                idx = np.where(inbox, np.arange(len(inbox)), -1)
                keep[np.maximum.reduceat(idx, offs[:-1])[odd]] = True
            keep = np.flatnonzero(keep)
            allc, shot_of, t, i, j, to_box = (
                x[keep] for x in (allc, shot_of, t, i, j, to_box))
    keep = _settle_level_one(d, shot_of, t, i, j, to_box, lo1, hi1, S_all,
                             parities, arena)
    if keep is not None:
        allc, shot_of = allc[keep], shot_of[keep]
    return allc, np.bincount(shot_of, minlength=S_all)


def _settle_level_one(d: int, shot_of: np.ndarray, t: np.ndarray,
                      i: np.ndarray, j: np.ndarray, to_box, lo1: np.ndarray,
                      hi1: np.ndarray, S_all: int, parities: np.ndarray,
                      arena: ScratchArena):
    """Accept every distance-1 candidate from lattice adjacency.

    After zero-clique compaction a shot holds at most one in-box node,
    so, without duplicated coordinates, no candidate sits at distance 0
    and level 1 opens the per-shot core's candidate order.  Its pairs
    need no distance tensor: lattice neighbours, plus, on boxed shots,
    the leftover in-box node with every node one step from its box.
    Every such pair passes ``dist <= min(bdist_a, bdist_b)`` because
    boundary distances are >= 1 in the engine envelope.  Pairs in local
    ``(a, b)`` order, then boundary candidates at distance 1 in node
    order, are exactly the level-1 slice of the per-shot core's stable
    distance sort; :func:`_accept` takes them as one level, and its
    north accepts flip ``parities``.

    Neighbours come from a cell grid of node ids, filled group by group
    of shots so it stays within :data:`BUCKET_ELEMENT_BUDGET` cells.
    Returns the indices of the nodes left unmatched, or ``None`` when a
    shot repeats a coordinate (distance-0 pairs) or alone overflows the
    budget: the dense path then keeps the whole chunk.
    """
    N = len(t)
    if not N:
        return None
    # Key strides from the chunk's own maxima + 2: a forward step never
    # carries into the next coordinate, even off the lattice (j >= d).
    T, I, J = (int(x.max()) + 2 for x in (t, i, j))
    per_shot = T * I * J
    if per_shot > BUCKET_ELEMENT_BUDGET:
        return None
    group = min(S_all, BUCKET_ELEMENT_BUDGET // per_shot)
    key = ((shot_of % group * T + t) * I + i) * J + j
    starts = np.searchsorted(shot_of, np.arange(0, S_all + group, group))
    ids = np.arange(N, dtype=np.int32)
    nbr = arena.take("nbr", 3 * N, np.int32).reshape(N, 3)
    for g0, g1 in zip(starts[:-1].tolist(), starts[1:].tolist(),
                      strict=True):
        k = key[g0:g1]
        cells = arena.take("cells", group * per_shot, np.int32)
        cells[:] = -1
        cells[k] = ids[g0:g1]
        if (cells[k] != ids[g0:g1]).any():
            return None
        # Forward neighbours (t, i, j+1), (t, i+1, j), (t+1, i, j).
        for c, step in enumerate((1, J, I * J)):
            np.take(cells, k + step, out=nbr[g0:g1, c])
    nbr = nbr.ravel()
    hit = np.flatnonzero(nbr >= 0)
    a = hit // 3
    b = nbr[hit]
    north = i + 1
    south = d - 1 - i
    if to_box is not None:
        np.minimum(north, to_box + (lo1[shot_of] + 1), out=north)
        np.minimum(south, to_box + (d - 1 - hi1[shot_of]), out=south)
        x = np.flatnonzero(to_box == 0)
        if len(x):
            # Via-box pairs: each odd shot's leftover in-box node with
            # the nodes at to_box == 1, less its direct neighbours
            # (already listed above).
            x_of = np.full(S_all, -1)
            x_of[shot_of[x]] = x
            y = np.flatnonzero(to_box == 1)
            xy = x_of[shot_of[y]]
            y, xy = y[xy >= 0], xy[xy >= 0]
            far = (np.abs(t[y] - t[xy]) + np.abs(i[y] - i[xy])
                   + np.abs(j[y] - j[xy])) != 1
            a = np.concatenate([a, xy[far]])
            b = np.concatenate([b, y[far]])
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    order = np.argsort(lo * N + hi, kind="stable")
    bnd = np.flatnonzero(np.minimum(north, south) == 1)
    matched = arena.take("matched", N, bool)
    matched[:] = False
    north_ids = _accept(
        [(lo[order].astype(np.int32), hi[order].astype(np.int32),
          bnd.astype(np.int32), north[bnd] <= south[bnd])],
        matched, arena)
    parities ^= (np.bincount(shot_of[north_ids], minlength=S_all)
                 & 1).astype(np.int8)
    return np.flatnonzero(~matched)


def _decode_engine(model: DistanceModel, nodes_list: list, arena: ScratchArena,
                   allc: np.ndarray, regions=None) -> np.ndarray:
    """Bucketed decode of pre-screened (eligible, nonempty) shots.

    ``regions`` optionally carries one region (or ``None``) per shot —
    the region-aware path of the end-to-end kernels, where every shot's
    strike landed somewhere else.  When omitted, every shot shares
    ``model.region``.  :func:`_parity_prepass` settles distances 0 and
    1; the nodes it leaves unmatched are bucketed by (has-region,
    active-node count), and all region geometry — box clips, via folds,
    boundary detours — is evaluated from per-shot bound vectors
    broadcast over the bucket tensors, so mixed-region chunks batch as
    well as shared-region ones.

    Returns the ``(S,)`` int8 north-cut parities.
    """
    S_all = len(nodes_list)
    parities = np.zeros(S_all, dtype=np.int8)
    ns = np.fromiter((len(x) for x in nodes_list), dtype=np.int64,
                     count=S_all)
    if not len(allc):
        return parities

    d = model.distance
    cmax = int(allc.max(initial=0))  # allc: callers' eligibility concat
    offs = np.zeros(S_all + 1, dtype=np.int64)
    np.cumsum(ns, out=offs[1:])

    # Per-shot region bounds (int64 staging; cast to the engine dtype
    # per bucket).  The shared-region path broadcasts one bounds tuple;
    # the Python attribute walk only runs when regions truly differ.
    has = np.zeros(S_all, dtype=bool)
    bounds = np.zeros((7, S_all), dtype=np.int64)
    lo1, hi1, rlo, hi2, clo, tlo, thi = bounds
    open_w = np.zeros(S_all, dtype=bool)
    if regions is None:
        if model.region is not None:
            has[:] = True
            *vals, opn = _region_bounds(model.region, d, cmax)
            bounds[:] = np.array(vals)[:, None]
            open_w[:] = opn
    else:
        for s, reg in enumerate(regions):
            if reg is None:
                continue
            has[s] = True
            *vals, opn = _region_bounds(reg, d, cmax)
            bounds[:, s] = vals
            open_w[s] = opn

    # Per-shot t_max over the *full* node set (open-window box tops must
    # not move when the prepass below drops nodes).
    tmax_shot = None
    if open_w.any():
        tmax_shot = np.maximum.reduceat(
            allc[:, 0].astype(np.int64), offs[:-1])
        tmax_shot[ns == 0] = 0  # reduceat reads across empty shots

    rest, ns = _parity_prepass(d, allc, ns, offs, has, bounds, open_w,
                               tmax_shot, parities, arena)
    if not len(rest):
        return parities
    np.cumsum(ns, out=offs[1:])
    # Counts pad up the bucket ladder: a call walks a few wide buckets,
    # pad slots after a shot's real nodes masked out of every candidate.
    width = -(-ns // BUCKET_STEP) * BUCKET_STEP
    nmax = int(width.max())

    mag = max(cmax, d)
    if has.any():
        mag = max(mag, int(lo1.max()), int(tlo.max()), int(thi.max()))

    # Every value the engine materializes — direct distances, via sums,
    # boundary vias — is bounded by 6 * mag + a small constant; pick
    # the narrowest integer dtype that holds them.
    dd = np.int8 if 6 * mag + 8 <= 126 else np.int16
    # Coordinate rows the bucket tensors gather from.
    coords = np.ascontiguousarray(rest.T, dtype=dd)

    # has-region shots sort after region-free ones, so every bucket is
    # homogeneous in "carries a box" and the region math never touches
    # a direct-distance shot.
    order = np.lexsort((width, has))
    matched = arena.take("matched", S_all * nmax, bool)
    matched[:] = False

    # Candidates accumulate bucket by bucket, then split into distance
    # levels in generation order: pair lo, hi, dist; bnd, north, dist.
    found: tuple = ([], [], [], [], [], [])

    k = 0
    while k < S_all:
        n = int(width[order[k]])
        boxed = bool(has[order[k]])
        k2 = k
        while (k2 < S_all and width[order[k2]] == n
               and has[order[k2]] == boxed):
            k2 += 1
        if n == 0:
            k = k2
            continue
        smax = max(1, BUCKET_ELEMENT_BUDGET // (n * n))
        for blo in range(k, k2, smax):
            ids = order[blo:min(k2, blo + smax)]
            S = len(ids)
            nn = n * n
            sz = S * nn
            # Contiguous (3, S, n) coordinate planes: broadcasting from
            # the stride-3 column views runs ~3x slower than from
            # contiguous rows, and every dense pass reads these.  Pad
            # slots read clipped (real, in-range) coordinates.
            planes = arena.take("planes", 3 * S * n, dd).reshape(3, S, n)
            np.take(coords, offs[ids, None] + np.arange(n), axis=1,
                    out=planes, mode="clip")
            real = np.arange(n) < ns[ids][:, None]
            t = planes[0]
            i = planes[1]
            j = planes[2]

            dist = arena.take("dist", sz, dd).reshape(S, n, n)
            tmp = arena.take("tmp", sz, dd).reshape(S, n, n)
            np.subtract(t[:, :, None], t[:, None, :], out=dist)
            np.abs(dist, out=dist)
            np.subtract(i[:, :, None], i[:, None, :], out=tmp)
            np.abs(tmp, out=tmp)
            dist += tmp
            np.subtract(j[:, :, None], j[:, None, :], out=tmp)
            np.abs(tmp, out=tmp)
            dist += tmp

            base = ids.astype(np.int32) * np.int32(nmax)
            north = i + dd(1)
            south = dd(d - 1) - i
            if boxed:
                # Per-shot bound columns, broadcast over the bucket.
                # ``min(max(x, lo), hi)`` is exactly np.clip's order, so
                # a lower bound above its capped upper bound clips to
                # the cap — shot for shot, as in the scalar-region path.
                tlo_b = tlo[ids].astype(dd)[:, None]
                rlo_b = rlo[ids].astype(dd)[:, None]
                rhi_b = hi1[ids].astype(dd)[:, None]
                clo_b = clo[ids].astype(dd)[:, None]
                chi_b = hi2[ids].astype(dd)[:, None]
                lo1_b = lo1[ids].astype(dd)[:, None]
                opn = open_w[ids]
                if opn.all():
                    thi_b = tmax_shot[ids].astype(dd)[:, None]
                elif opn.any():
                    thi_b = np.where(opn[:, None],
                                     tmax_shot[ids].astype(dd)[:, None],
                                     thi[ids].astype(dd)[:, None])
                else:
                    thi_b = thi[ids].astype(dd)[:, None]
                ct = np.minimum(np.maximum(t, tlo_b), thi_b)
                to_box = (np.abs(t - ct)
                          + np.abs(i - np.minimum(np.maximum(i, rlo_b),
                                                  rhi_b))
                          + np.abs(j - np.minimum(np.maximum(j, clo_b),
                                                  chi_b)))
                np.add(to_box[:, :, None], to_box[:, None, :], out=tmp)
                np.minimum(dist, tmp, out=dist)
                np.minimum(north, to_box + (lo1_b + dd(1)), out=north)
                np.minimum(south, to_box + (dd(d - 1) - rhi_b), out=south)
            bdist = np.minimum(north, south)

            sz8 = -8 * (-sz // 8)
            keep_flat = arena.take("keep", sz8, bool)
            keep_flat[sz:] = False
            keep = keep_flat[:sz].reshape(S, n, n)
            np.minimum(bdist[:, :, None], bdist[:, None, :], out=tmp)
            np.less_equal(dist, tmp, out=keep)
            keep &= _upper_mask(n)
            keep &= real[:, None, :]  # pad slots: never a pair's high end
            # Two-stage sparse scan: find nonzero 8-byte words first,
            # then bits inside them — the index-extraction pass visits
            # a few-percent-dense mask at word granularity.
            words = np.flatnonzero(keep_flat.view(np.int64))
            if len(words):
                block = keep_flat.reshape(-1, 8)[words]
                sub = np.flatnonzero(block.ravel())
                flat = (words[sub >> 3].astype(np.int32) * np.int32(8)
                        + (sub & 7).astype(np.int32))
            else:
                flat = np.zeros(0, dtype=np.int32)
            q = flat // np.int32(nn)
            rem = flat - q * np.int32(nn)
            pi = rem // np.int32(n)
            pj = rem - pi * np.int32(n)
            gbase = base[q]
            bga = (base[:, None] + np.arange(n, dtype=np.int32)).ravel()
            bdv = bdist.ravel()
            bnf = (north <= south).ravel()
            real = real.ravel()
            bga, bdv, bnf = bga[real], bdv[real], bnf[real]
            for got, x in zip(found, (gbase + pi, gbase + pj,
                                      dist.ravel()[flat], bga, bnf, bdv),
                              strict=True):
                got.append(x)
        k = k2

    lo, hi, pdv, bnd, nof, bdv = (np.concatenate(x) for x in found)
    levels = []
    for lv in range(int(bdv.max()) + 1):
        ps, bs = np.flatnonzero(pdv == lv), np.flatnonzero(bdv == lv)
        levels.append((lo[ps], hi[ps], bnd[bs], nof[bs]))

    north_ids = _accept(levels, matched, arena)
    parities ^= (np.bincount(north_ids // np.int32(nmax), minlength=S_all)
                 & 1).astype(np.int8)
    return parities


def _accept(levels, matched, arena) -> np.ndarray:
    """Level-wise round-based acceptance over flattened candidates.

    ``levels`` holds ``(pair_lo, pair_hi, bnd, bnd_north)`` tuples
    ascending in distance; within a level pairs precede boundaries and
    both keep generation (row-major) order — exactly the stable distance
    sort of the per-shot core.  Node ids index ``matched``, which marks
    every accepted endpoint.  Each level runs rounds until no candidate
    is left; every round accepts at least the level's earliest remaining
    candidate.  Returns the ids of the nodes accepted onto the north
    boundary.

    The scatters rely on an order invariant: ``pair_lo < pair_hi``, and
    a node's pairs as the higher endpoint all precede its pairs as the
    lower one (row-major order gives both), with boundaries last.
    """
    first = arena.take("first", len(matched), np.int32)
    first[:] = -1
    stamp = 0  # monotone position base: stale scatters never re-match
    north_gids: list = []

    for lo, hi, bnd, nof in levels:
        # Candidates whose endpoints matched at an earlier level are
        # dead on arrival (the bulk, at high levels).
        alive = ~matched[lo]
        alive &= ~matched[hi]
        lo, hi = lo[alive], hi[alive]
        alive = ~matched[bnd]
        bnd, nof = bnd[alive], nof[alive]
        while len(lo) or len(bnd):
            mp, m = len(lo), len(lo) + len(bnd)
            if stamp > 2**31 - 2 - m:  # stamp wrap: hard reset
                first[:] = -1
                stamp = 0
            pos = np.arange(stamp, stamp + m, dtype=np.int32)
            stamp += m
            pos_p, pos_b = pos[:mp], pos[mp:]
            # Reversed scatters, latest candidates first, so the
            # earliest position touching a node is written last.  By
            # the order invariant that is boundaries, then pair lows,
            # then pair highs.  Stamps from earlier rounds are strictly
            # smaller than this round's range, so no reset pass is
            # needed.
            first[bnd[::-1]] = pos_b[::-1]
            first[lo[::-1]] = pos_p[::-1]
            first[hi[::-1]] = pos_p[::-1]
            acc = first[lo] == pos_p
            acc &= first[hi] == pos_p
            acc_b = first[bnd] == pos_b
            matched[lo[acc]] = True
            matched[hi[acc]] = True
            matched[bnd[acc_b]] = True
            acc_b &= nof
            if acc_b.any():
                north_gids.append(bnd[acc_b])
            alive = ~matched[lo]
            alive &= ~matched[hi]
            lo, hi = lo[alive], hi[alive]
            alive = ~matched[bnd]
            bnd, nof = bnd[alive], nof[alive]

    return (np.concatenate(north_gids) if north_gids
            else np.zeros(0, np.int32))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def batched_cut_parities(model: DistanceModel, nodes_list: list,
                         arena: Optional[ScratchArena] = None) -> np.ndarray:
    """North-cut parities of the greedy matching for a chunk of shots.

    Equals ``[greedy_cut_parity(model, nodes) for nodes in nodes_list]``
    bit for bit; shots outside the integer engine's envelope (float
    weights, negative/huge coordinates) run through the per-shot
    reference core.
    """
    out = np.zeros(len(nodes_list), dtype=np.int8)
    slots = [s for s, nodes in enumerate(nodes_list) if len(nodes)]
    if not slots:
        return out
    if arena is None:
        arena = ScratchArena()
    sub_nodes = [nodes_list[s] for s in slots]

    allc = np.concatenate(sub_nodes)
    if (_chunk_eligible(model, allc)
            and len(sub_nodes) * max(map(len, sub_nodes)) < 2**31):
        parities = _decode_engine(model, sub_nodes, arena, allc)
    elif model.region is not None and model.w_ano != 0.0:
        # Weighted region: the per-shot core always takes the float
        # pairwise/boundary path here, so batching those builds through
        # the (bit-equal) batch primitives changes nothing but speed.
        parities = _float_bucket_parities(model, sub_nodes)
    else:
        parities = np.fromiter(
            ((_greedy_fast_core(model, nodes, False)[1] & 1)
             for nodes in sub_nodes), dtype=np.int8, count=len(sub_nodes))
    out[slots] = parities
    return out


def _float_bucket_parities(model: DistanceModel,
                           nodes_list: list) -> np.ndarray:
    """Per-shot acceptance over bucket-wide float distance tensors.

    For a weighted region (``w_ano != 0``) the integer engine declines
    and the per-shot core computes float :meth:`DistanceModel.pairwise`
    / :meth:`boundary` matrices shot by shot.  Here same-size shots are
    stacked and the whole bucket's distances come out of
    :meth:`DistanceModel.pairwise_batch` / :meth:`boundary_batch` —
    bit-equal, row for row, to the per-shot methods — while the
    acceptance scan stays the certified per-shot loop, fed the
    precomputed slices.  Outcomes are therefore bit-identical to
    ``[greedy_cut_parity(model, nodes) for nodes in nodes_list]``.
    """
    S_all = len(nodes_list)
    parities = np.zeros(S_all, dtype=np.int8)
    ns = np.fromiter((len(x) for x in nodes_list), dtype=np.int64,
                     count=S_all)
    order = np.argsort(ns, kind="stable")
    k = 0
    while k < S_all:
        n = int(ns[order[k]])
        k2 = k
        while k2 < S_all and ns[order[k2]] == n:
            k2 += 1
        if n == 0:
            k = k2
            continue
        smax = max(1, _FLOAT_BUCKET_BUDGET // (n * n))
        for blo in range(k, k2, smax):
            ids = order[blo:min(k2, blo + smax)]
            stacked = np.stack([np.asarray(nodes_list[s], dtype=float)
                                for s in ids])
            dist = model.pairwise_batch(stacked)
            bdist, bside = model.boundary_batch(stacked)
            for q, s in enumerate(ids.tolist()):
                _, north, _ = _greedy_fast_core(
                    model, np.asarray(nodes_list[s]), False,
                    dist=dist[q], bdist=bdist[q], bside=bside[q])
                parities[s] = north & 1
        k = k2
    return parities


def batched_region_cut_parities(distance: int, regions: list,
                                nodes_list: list, w_ano: float = 0.0,
                                arena: Optional[ScratchArena] = None
                                ) -> np.ndarray:
    """North-cut parities for a chunk where every shot has its own regions.

    ``regions`` holds one tuple of :class:`AnomalousRegion` per shot:
    ``()`` for the uniform model, one region, or several (a multi-event
    scenario shot).  The end-to-end campaign's oracle and detected
    decodes hand each shot different boxes (the true strikes, or the
    detection unit's estimate — whose onset varies shot to shot).
    A shot with at most one region equals, bit for bit,
    ``greedy_cut_parity(DistanceModel(distance, regs[0], w_ano), nodes)``
    (``DistanceModel(distance)`` for ``()``).  With ``w_ano == 0`` and
    in-envelope coordinates those run through the integer engine,
    which folds the per-shot region boxes into its bucket tensors — no
    per-region grouping needed.  Outside that envelope shots group by
    :func:`region_signature` and each group decodes through
    :func:`batched_cut_parities` (integer engine, float bucketed tier,
    or per-shot core — whatever its model admits).  Shots with two or
    more regions decode through the certified per-shot core under a
    :class:`~repro.decoding.weights.MultiRegionDistanceModel` — the
    fallback-first tier the scenario subsystem contracts (extending the
    integer envelope to multi-box shots is follow-on work).
    """
    S = len(nodes_list)
    if len(regions) != S:
        raise ValueError("need exactly one tuple of regions per shot")
    out = np.zeros(S, dtype=np.int8)
    if S == 0:
        return out
    if arena is None:
        arena = ScratchArena()

    sub_nodes: list = []
    sub_regs: list = []
    sub_idx: list = []
    multi: list = []
    for s, nodes in enumerate(nodes_list):
        nodes = np.asarray(nodes)
        if not len(nodes):
            continue
        regs = regions[s]
        if len(regs) > 1:
            multi.append((s, regs, nodes))
            continue
        sub_nodes.append(nodes)
        sub_regs.append(regs[0] if regs else None)
        sub_idx.append(s)

    for s, regs, nodes in multi:
        model = MultiRegionDistanceModel(distance, regs, w_ano)
        out[s] = _greedy_fast_core(model, nodes, False)[1] & 1

    if not sub_nodes:
        return out

    allc = np.concatenate(sub_nodes)
    if (w_ano == 0.0 and _coords_eligible(distance, allc)
            and all(r is None or _region_ok(distance, r)
                    for r in sub_regs)
            and len(sub_nodes) * max(map(len, sub_nodes)) < 2**31):
        out[sub_idx] = _decode_engine(DistanceModel(distance), sub_nodes,
                                      arena, allc, regions=sub_regs)
        return out

    groups: dict = {}
    for pos, reg in enumerate(sub_regs):
        groups.setdefault(region_signature(reg), []).append(pos)
    for positions in groups.values():
        reg = sub_regs[positions[0]]
        model = (DistanceModel(distance, reg, w_ano) if reg is not None
                 else DistanceModel(distance))
        par = batched_cut_parities(model, [sub_nodes[p] for p in positions],
                                   arena=arena)
        for p, v in zip(positions, par.tolist(), strict=True):
            out[sub_idx[p]] = v
    return out
