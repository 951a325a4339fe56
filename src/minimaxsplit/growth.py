"""Level-synchronous tree growth: the one grower, behind `tree.grow`,
`tree.grow_trees` (a forest's trees) and `tree.best_splits`.

A `Growth` grows a group of trees through one shared level loop: each level
resolves every frontier node of every tree at once, so a forest costs about
the numpy calls of one tree per level, not one tree's calls per tree
(SPRINT's breadth-first growth, applied across the trees of a random
forest). `best_splits` is the same choice step run once, on a frontier of
many roots. Each tree's splits and node records are exactly those of the
node-at-a-time grower kept as the test reference in
`tests/pernode_grower.py`, run on that tree's sample alone: every prefix
curve, argmin and node mean is computed from the same floats in the same
order. A group of large samples sorts its roots by the dataset's dense
ranks instead of by float values (SLIQ's presort, done once
for all the group's trees, not once per tree; a forest of several groups
ranks the dataset once for all of them): 16-bit rank keys take numpy's radix
sort. The block scan itself (row padding, block grouping, the prefix kernels
and the mirrored read-back of the right curve) lives in `splitting`, shared
with `martingale`; a block gathers its rows through one array of flat
offsets per source (`splitting._flat`), not through 2-D fancy indexing. A
level's per-row work is kept to what its choice needs: a scan row returns
the sorted values on either side of its cut, and only the rows `choose`
keeps get a threshold (one `midpoints` call per level); the new nodes' means
come from one gather of all their targets and one row-wise sum per distinct
node size. With m_try, a level draws every open node's feature subset with
one bounded-integer call per tree (`draw_subsets`), which consumes each
tree's `features` stream exactly as one `Generator.choice` per node, in
breadth-first order, would.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

import numpy as np

from .dataset import CLASSIFICATION, Dataset, check_scale, index_array
from .errors import ConfigError
from .splitting import (_MODE_CRITERIA, _child_curves, _flat, _padded_width,
                        _prefix_entropy_risk, _prefix_sse, _row_blocks, midpoints,
                        node_risk)

if TYPE_CHECKING:
    from .tree import GrowConfig

_REASONS = (None, "depth", "constant_target", "constant_features", "n_min", "no_valid_split")
_DEPTH, _CONSTANT_TARGET, _CONSTANT_FEATURES, _N_MIN, _NO_VALID_SPLIT = range(1, 6)
# The feature values (features times samples) from which a group's roots
# sort by the dataset's dense ranks instead of by float values (`presort`):
# below it, ranking the dataset costs more than the float sorts it replaces.
_RANK_ENTRIES = 1 << 13
# The feature values `presort` sorts in one call: equal-size blocks sort
# together up to this many, which bounds the call's temporaries.
_SORT_ENTRIES = 1 << 18


class Growth:
    """Level-synchronous growth of a group of trees (the attribute lists of
    SLIQ and SPRINT). `run` returns, per tree, the node arrays and risk trace
    of a TreeModel.

    Tree b grows on samples[b], a non-empty array of sample indices into
    `data` (repeats allowed), and draws from its own streams features_rngs[b]
    (needed with m_try) and splits_rngs[b] (needed by the random criteria).
    The constructor is the one place that checks these arguments against
    the config and the data, for `grow`, `grow_trees` and `best_splits`
    alike, regression targets included (`dataset.check_scale`: a sum runs
    over one sample at most). `ranks`, if given, are
    `dense_ranks(data.features)`, which a caller growing several groups
    computes once for all of them. The samples are the blocks, one after
    another, of a shared index space: `X` and `y` hold the gathered
    samples, and a position in them names one sample of one tree.

    The frontier, the nodes still to resolve, is a run of contiguous segments
    in `lists`, a (d + 1, N) matrix of positions: row j < d holds each node's
    positions ordered by feature j (value, then position: `presort` sorts
    each sample block once, stably, by the dataset's dense ranks or by
    value), row d holds them in position order. Those are the orders a
    per-node search sorts into, so every prefix curve, argmin and node mean
    sees the same floats in the same order. The frontier is tree-major, each
    tree's nodes in breadth-first order, so each tree draws from its streams
    in its own breadth-first node order. After a level, a stable partition
    regroups every row by child, in place, so a Growth grows its trees once.
    Node ids count creation across the group; `run` numbers each tree's
    nodes from 0.
    """

    def __init__(self, data: Dataset, config: GrowConfig, samples: Sequence[np.ndarray],
                 features_rngs: Sequence[Optional[np.random.Generator]],
                 splits_rngs: Sequence[Optional[np.random.Generator]],
                 ranks: Optional[np.ndarray] = None):
        crit, d, n = config.criterion, data.n_features, data.n_samples
        m_try, fixed = config.m_try, config.fixed_features
        if crit.task() != data.task:
            raise ConfigError(f"criterion {crit.tag!r} requires a {crit.task()} dataset")
        if fixed is not None and any(not 0 <= j < d for j in fixed):
            raise ConfigError(f"fixed_features outside [0, {d})")
        if m_try is not None:
            if not 1 <= m_try <= d:
                raise ConfigError(f"m_try must be in [1, {d}], got {m_try}")
            if crit.is_cyclic:
                raise ConfigError("cyclic criteria fix the feature per level; "
                                  "feature subsampling contradicts that")
            if any(r is None for r in features_rngs):
                raise ConfigError("m_try requires a features stream for every tree")
        if crit.is_random and any(r is None for r in splits_rngs):
            raise ConfigError(f"{crit.tag} requires a splits stream for every tree")
        samples = [index_array(s, n, "each sample") for s in samples]
        self.data = data
        self.config = config
        self.crit = crit
        # a subset of all d features is no subset: nothing is drawn for it
        self.m_try = None if m_try == d else m_try
        self.features_rngs = list(features_rngs)
        self.splits_rngs = list(splits_rngs)
        self.d = d
        self.sizes = np.array([s.size for s in samples], dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        # the row of `data` at each position
        rows = np.concatenate(samples)
        self.X, self.y = data.features.take(rows, axis=1), data.targets[rows]
        if data.task != CLASSIFICATION:
            check_scale("the samples' targets", self.y, int(self.sizes.max()))
        self.lists = presort(data, self.X, rows, self.offsets, self.sizes, ranks)
        self.prefix = (_prefix_entropy_risk if data.task == CLASSIFICATION
                       else _prefix_sse)
        # the unsplittable screen looks at the features a node could ever
        # use: the fixed subset if one is set, otherwise all of them (cyclic
        # rules and per-node draws range over all features)
        self.screen = list(fixed) if (fixed is not None and not crit.is_cyclic) \
            else list(range(d))
        # node records, kept per level: created holds (tree, depth, count,
        # risk, value, log_odds) of the nodes each level creates, in id
        # order; splits and leaves hold what each level resolved
        self.n_nodes = 0
        self.created: List[tuple] = []
        self.splits: List[tuple] = []
        self.leaves: List[tuple] = []

    def root(self, risks: Optional[np.ndarray] = None) -> _Frontier:
        """The frontier of every tree's root, ids 0, 1, ...: each holds its
        tree's whole sample, in the constructor's `presort` order. The level
        loop regroups these lists in place, so a Growth grows its trees once."""
        t = self.sizes.size
        return _Frontier(np.arange(t), np.zeros(t) if risks is None else risks,
                         self.offsets, self.sizes, self.lists, np.arange(t))

    def run(self) -> List[dict]:
        config, task = self.config, self.data.task
        sizes = self.sizes.tolist()
        totals = [node_risk(self.y[start:start + size], task)
                  for start, size in zip(self.offsets.tolist(), sizes)]
        front = self.root(np.array(totals))
        self._add(0, front.lists[-1], front.starts, front.sizes, front.risks, front.trees)
        traces = [[total / n] for total, n in zip(totals, sizes)]
        for level in range(config.max_depth):
            front, trees, gains = self._level(level, front)
            # one at a time in each tree's frontier order: the float sum
            # depends on it
            for b, gain in zip(trees, gains):
                totals[b] -= gain
            for trace, total, n in zip(traces, totals, sizes):
                trace.append(total / n)
            if front.ids.size == 0:
                break
        self.leaves.append((front.ids, _DEPTH))
        for trace in traces:
            trace.extend(trace[-1:] * (config.max_depth + 1 - len(trace)))

        k = self.n_nodes
        tree, depth, count, risk, value, log_odds = (np.concatenate(f) for f in zip(*self.created))
        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.full(k, math.nan)
        left = np.full(k, -1, dtype=np.int64)
        right = np.full(k, -1, dtype=np.int64)
        split_level = np.full(k, -1, dtype=np.int64)
        for parents, feats, thr, lefts, rights, level in self.splits:
            feature[parents] = feats
            threshold[parents] = thr
            left[parents] = lefts
            right[parents] = rights
            split_level[parents] = level
        reason = np.zeros(k, dtype=np.int8)
        for at, code in self.leaves:
            reason[at] = code
        # a tree's nodes in creation order are its ids 0, 1, ...
        order = np.argsort(tree, kind="stable")
        per_tree = np.bincount(tree, minlength=len(sizes))
        own_id = np.empty(k, dtype=np.int64)
        own_id[order] = np.arange(k) - np.repeat(np.cumsum(per_tree) - per_tree, per_tree)
        left = np.where(left >= 0, own_id[left], -1)
        right = np.where(right >= 0, own_id[right], -1)
        out = []
        for at, trace in zip(np.split(order, np.cumsum(per_tree)[:-1]), traces):
            out.append({
                "depth": depth[at],
                "count": count[at],
                "risk": risk[at],
                "value": value[at],
                "log_odds": log_odds[at],
                "feature": feature[at],
                "threshold": threshold[at],
                "left": left[at],
                "right": right[at],
                "split_level": split_level[at],
                "leaf_reason": [_REASONS[r] for r in reason[at].tolist()],
                "risk_trace": trace,
            })
        return out

    def _add(self, depth: int, by_index: np.ndarray, starts: np.ndarray,
             sizes: np.ndarray, risks: np.ndarray, trees: np.ndarray) -> np.ndarray:
        """Record new nodes of the given trees, one per segment of `by_index`
        (positions in ascending order); returns their ids. A regression
        node's value is the mean of its targets in position order, the float
        the reference grower's per-node mean gives; all nodes' targets come
        from one gather, and each distinct size costs one row-wise sum."""
        ids = np.arange(self.n_nodes, self.n_nodes + sizes.size)
        self.n_nodes += sizes.size
        if self.data.task == CLASSIFICATION:
            positives = np.concatenate([[0], np.cumsum(self.y[by_index] == 1.0)])
            pos = positives[starts + sizes] - positives[starts]
            value = pos / sizes
            log_odds = np.array([math.log((p + 0.5) / (m - p + 0.5))
                                 for p, m in zip(pos.tolist(), sizes.tolist())])
        else:
            # one gather of every node's targets, the nodes ordered by size,
            # each in its ascending position order. The nodes of one size are
            # then the rows of one contiguous block, and a row's sum divided
            # by its size is the float a mean of that row alone gives: the
            # same pairwise sum of the same floats, then one division
            order = np.argsort(sizes, kind="stable")
            by_size = sizes[order]
            ends = np.cumsum(by_size)
            at = np.repeat(starts[order] - (ends - by_size), by_size)
            at += np.arange(at.size)
            y = self.y.take(by_index.take(at))
            value = np.empty(sizes.size)
            log_odds = np.full(sizes.size, math.nan)
            first = np.flatnonzero(np.diff(by_size, prepend=-1)).tolist()
            for lo, hi in zip(first, first[1:] + [sizes.size]):
                m = int(by_size[lo])
                block = y[ends[lo] - m:ends[hi - 1]].reshape(hi - lo, m)
                value[order[lo:hi]] = np.add.reduce(block, axis=1) / m
        self.created.append((trees, np.full(sizes.size, depth, dtype=np.int64), sizes,
                             np.asarray(risks, dtype=np.float64), value, log_odds))
        return ids

    def _level(self, level: int, front: _Frontier):
        """Resolve every frontier node once: retire it to a leaf, split it,
        or (cyclic rules) carry it to the next level. Returns the next
        frontier, and the tree and risk reduction of each split in frontier
        order."""
        ids, risks, starts, sizes, lists, trees = front
        d = self.d
        spread = self.spread(front)
        y = self.y[lists[d]]
        constant_target = np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)
        reason = np.select(
            [constant_target, ~spread[self.screen].any(axis=0), sizes <= self.config.n_min],
            [_CONSTANT_TARGET, _CONSTANT_FEATURES, _N_MIN], 0)
        nodes, feats, scan, threshold = self.choose(level, front, np.flatnonzero(reason == 0),
                                                    spread)

        split = np.zeros(ids.size, dtype=bool)
        split[nodes] = True
        stuck = (reason == 0) & ~split
        carry = stuck & self.crit.is_cyclic
        reason[stuck & ~carry] = _NO_VALID_SPLIT
        self.leaves.append((ids, reason))

        # route each sample of a splitting node; x < t goes left
        seg = np.repeat(np.arange(ids.size), sizes)
        # each sample's flat offset in X is its node's feature row plus its
        # own column
        node_row = np.zeros(ids.size, dtype=np.int64)
        node_row[nodes] = feats * self.X.shape[1]
        node_threshold = np.zeros(ids.size)
        node_threshold[nodes] = threshold
        samples = lists[d]
        goes_right = ~(self.X.reshape(-1).take(node_row.take(seg) + samples)
                       < node_threshold[seg]) & split[seg]
        n_left = np.zeros(ids.size, dtype=np.int64)
        n_left[nodes] = scan.left_count

        # next frontier: each carried node in place, each split node's left
        # then right child, in frontier order
        width = 2 * split + carry
        base = np.cumsum(width) - width
        new_sizes = np.zeros(int(width.sum()), dtype=np.int64)
        new_sizes[base[carry]] = sizes[carry]
        new_sizes[base[nodes]] = n_left[nodes]
        new_sizes[base[nodes] + 1] = sizes[nodes] - n_left[nodes]
        new_starts = np.cumsum(new_sizes) - new_sizes
        going_on = width > 0
        side = np.full(self.y.size, 2, dtype=np.int8)
        side[samples] = np.where(going_on[seg], goes_right, 2)
        # free the level's per-sample arrays before the children's lists and
        # targets are gathered (`_regroup`, `_add`): they set the fit's peak
        del y, seg, goes_right
        new_lists = _regroup(lists, side, np.where(split, n_left, sizes)[going_on],
                             np.where(split, sizes - n_left, 0)[going_on])

        child_slots = np.stack([base[nodes], base[nodes] + 1], axis=1).ravel()
        child_risks = np.stack([scan.left_risk, scan.right_risk], axis=1).ravel()
        child_trees = np.repeat(trees[nodes], 2)
        children = self._add(level + 1, new_lists[d], new_starts[child_slots],
                             new_sizes[child_slots], child_risks, child_trees)
        parents = ids[nodes]
        self.splits.append((parents, feats, threshold, children[0::2], children[1::2], level))

        new_ids = np.empty(new_sizes.size, dtype=np.int64)
        new_ids[base[carry]] = ids[carry]
        new_ids[child_slots] = children
        new_risks = np.empty(new_sizes.size)
        new_risks[base[carry]] = risks[carry]
        new_risks[child_slots] = child_risks
        new_trees = np.empty(new_sizes.size, dtype=np.int64)
        new_trees[base[carry]] = trees[carry]
        new_trees[child_slots] = child_trees
        # children risks come from the scan's prefix curves, the parent's
        # from its own creation; clamp so float noise in a zero-reduction
        # split can never tick the trace upward
        gains = risks[nodes] - scan.left_risk - scan.right_risk
        gains = np.where(gains > 0.0, gains, 0.0).tolist()
        return (_Frontier(new_ids, new_risks, new_starts, new_sizes, new_lists, new_trees),
                trees[nodes].tolist(), gains)

    def spread(self, front: _Frontier) -> np.ndarray:
        """(d, K): whether each feature is non-constant on each frontier
        node, that is, whether its sorted segment ends above where it starts."""
        rows = np.arange(self.d)[:, None]
        first = self.X[rows, front.lists[:-1, front.starts]]
        last = self.X[rows, front.lists[:-1, front.starts + front.sizes - 1]]
        return last > first

    def choose(self, level: int, front: _Frontier, open_nodes: np.ndarray,
               spread: np.ndarray):
        """The split of each open frontier node at `level`: the nodes that
        have one (a subset of `open_nodes`, in frontier order), their
        features, their scan results and their thresholds. A node with no
        allowed non-constant feature gets none. Only the chosen rows get a
        threshold: the midpoint of their scan's `low` and `high`, or
        (random_uniform) the drawn one."""
        if self.crit.is_random:
            nodes, feats, picks, uniform_t = self._random_rows(front, open_nodes, spread)
            scan = self._scan(front, nodes, feats, picks)
            if uniform_t is not None:
                return nodes, feats, scan, uniform_t
        else:
            nodes, feats = self._allowed(level, front, open_nodes, spread)
            scan = self._scan(front, nodes, feats)
            # per node the least criterion, the lower feature on ties: a
            # stable sort keeps each node's rows in feature order
            order = np.lexsort((scan.criterion, nodes))
            head = np.ones(order.size, dtype=bool)
            head[1:] = nodes[order[1:]] != nodes[order[:-1]]
            best = order[head]
            nodes, feats, scan = nodes[best], feats[best], _Scan(*(a[best] for a in scan))
        return nodes, feats, scan, midpoints(scan.low, scan.high)

    def _allowed(self, level: int, front: _Frontier, open_nodes: np.ndarray,
                 spread: np.ndarray):
        """(node, feature) rows to scan for the deterministic criteria, by
        node then feature: the features a node may use that are non-constant
        on it. m_try < d draws one subset per open node, in frontier order,
        from the node's tree's `features` stream (`draw_subsets`)."""
        d, config = self.d, self.config
        if self.m_try is not None:
            allow = draw_subsets(self.features_rngs, front.trees[open_nodes], d, self.m_try)
        else:
            allow = np.zeros((open_nodes.size, d), dtype=bool)
            if self.crit.is_cyclic:
                allow[:, level % d] = True
            elif config.fixed_features is not None:
                allow[:, list(config.fixed_features)] = True
            else:
                allow[:] = True
        allow &= spread[:, open_nodes].T
        rows, feats = np.nonzero(allow)
        return open_nodes[rows], feats

    def _random_rows(self, front: _Frontier, open_nodes: np.ndarray, spread: np.ndarray):
        """Draw the random baselines' splits node by node, in frontier order,
        as the reference grower in `tests/pernode_grower.py` consumes each
        tree's streams: the feature uniformly among the allowed non-constant ones
        (in the order given, repeats counted), then the threshold. With
        m_try, the level's subsets come first, all at once (`draw_subsets`):
        they are the `features` stream's draws, which the node loop does
        not touch, so no stream sees another order. Returns the rows to
        scan, each row's candidate, and (random_uniform) the drawn
        thresholds."""
        config, X = self.config, self.X
        starts, sizes, lists, trees = front.starts, front.sizes, front.lists, front.trees
        uniform = self.crit.tag == "random_uniform"
        fixed = config.fixed_features
        if self.m_try is not None:
            subsets = draw_subsets(self.features_rngs, trees[open_nodes], self.d, self.m_try)
        nodes, feats, picks, drawn = [], [], [], []
        for i, k in enumerate(open_nodes.tolist()):
            rng = self.splits_rngs[int(trees[k])]
            if self.m_try is not None:
                allowed = np.flatnonzero(subsets[i]).tolist()
            else:
                allowed = fixed if fixed is not None else range(self.d)
            eligible = [j for j in allowed if spread[j, k]]
            if not eligible:
                continue
            j = int(eligible[int(rng.integers(len(eligible)))])
            v = X[j, lists[j, starts[k]:starts[k] + sizes[k]]]
            gaps = np.flatnonzero(v[1:] > v[:-1])  # candidate c cuts between v[c], v[c+1]
            if uniform:
                vmin, vmax = float(v[0]), float(v[-1])
                t = vmin
                for _ in range(64):
                    t = vmin + float(rng.uniform()) * (vmax - vmin)
                    if t > vmin:  # guarantees a nonempty left child; right holds vmax
                        break
                else:  # pathological range; take the smallest valid midpoint
                    t = float(midpoints(v[gaps[0]], v[gaps[0] + 1]))
                # the first candidate at or after the left count #{v < t}
                left_count = int(np.searchsorted(v, t, side="left"))
                c = int(gaps[np.searchsorted(gaps + 1, left_count)])
                drawn.append(t)
            else:
                c = int(gaps[int(rng.integers(gaps.size))])
            nodes.append(k)
            feats.append(j)
            picks.append(c)
        nodes, feats, picks = (np.array(a, dtype=np.int64) for a in (nodes, feats, picks))
        return nodes, feats, picks, np.array(drawn, dtype=np.float64) if uniform else None

    def _scan(self, front: _Frontier, nodes: np.ndarray, feats: np.ndarray,
              picks: Optional[np.ndarray] = None) -> _Scan:
        """Prefix-curve scan of each (frontier node, feature) row. Candidate
        c cuts the node's sorted segment between positions c and c + 1, so
        c + 1 samples go left; the row's result is at `picks[row]` if given,
        else at the first argmin of the criterion, which is the smallest
        threshold among ties (and for 'max', exactly where the bisection of
        `tests/pernode_scan.py` lands).

        Rows are scanned in the padded blocks of `splitting._row_blocks`.
        Each row gets its own sequential cumsum, so its curves are those of
        the single-node scan in `tests/pernode_scan.py` and of the reference
        grower bit for bit; a global cumsum minus segment offsets would not
        be. A row's threshold is left to `choose`, which takes the midpoint
        for the rows it keeps only."""
        out = _Scan(*(np.empty(nodes.size, dtype=np.int64 if name == "left_count" else None)
                      for name in _Scan._fields))
        # flat views (see `splitting._flat`), made once for every block
        lists, (step, _) = _flat(front.lists)
        X = self.X.reshape(-1)
        for rows in _row_blocks(_padded_width(front.sizes[nodes])):
            block = self._scan_block(front, lists, step, X, nodes[rows], feats[rows],
                                     None if picks is None else picks[rows])
            for field, values in zip(out, block):
                field[rows] = values
        return out

    def _scan_block(self, front: _Frontier, lists: np.ndarray, step: int, X: np.ndarray,
                    nodes: np.ndarray, feats: np.ndarray,
                    picks: Optional[np.ndarray]) -> _Scan:
        m = front.sizes[nodes]
        width = int(m.max())
        # flat offsets of each row's segment in the row of `lists` (row step
        # `step`) of its feature; padding repeats the row's last sample
        sample = lists.take(np.minimum(np.arange(width), m[:, None] - 1)
                            + (feats * step + front.starts[nodes])[:, None])
        v = X.take(sample + (feats * self.X.shape[1])[:, None])
        left, right = _child_curves(self.prefix, (self.y.take(sample),), m)
        crit = _MODE_CRITERIA["sum" if self.crit.is_random else self.crit.scan_mode](left, right)
        if picks is None:
            # padding repeats a value, so it never shows a strict rise
            crit = np.where(v[:, 1:] > v[:, :-1], crit, np.inf)
            picks = np.argmin(crit, axis=1)
        # each row's entry at its pick: through flat offsets where the array
        # is C-contiguous (v's rows are `width` apart, those of crit and right
        # `width - 1`); left is a view of the prefix curves
        rows = np.arange(nodes.size)
        cut = rows * (width - 1) + picks
        v, v_at = v.reshape(-1), rows * width + picks
        return _Scan(crit.reshape(-1).take(cut), v.take(v_at), v.take(v_at + 1),
                     left[rows, picks], right.reshape(-1).take(cut), picks + 1)


def draw_subsets(rngs: Sequence[np.random.Generator], trees: np.ndarray, d: int,
                 m: int) -> np.ndarray:
    """(K, d) bool: row k marks the m of the d features drawn for the k-th
    open node from its tree's stream rngs[trees[k]], 0 < m < d. Each tree's
    nodes draw in the order they come in `trees`, through one `integers`
    call per tree, and each gets exactly the subset that
    `rngs[b].choice(d, m, replace=False)` would give it, leaving the stream
    in the same state. On numpy 2.x that `choice` is Floyd's sampling
    (Bentley and Floyd, CACM 1987): for j = d - m, ..., d - 1 a bounded
    draw in [0, j], which becomes j if it is already taken; then a shuffle
    of the m picks, whose draws (in [0, i] for i = m - 1, ..., 1) change
    only their order. Above 10 000 features with m > d // 50 it is instead
    a partial Fisher-Yates shuffle of range(d) that draws in [0, i] for
    i = d - 1, ..., d - m and keeps the last m entries.
    `tests/test_growth_draws.py` pins this against `choice`."""
    tail = d > 10_000 and m > d // 50
    if tail:
        highs = np.arange(d, d - m, -1)
    else:
        highs = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
    draws = np.empty((trees.size, highs.size), dtype=np.int64)
    for b in np.flatnonzero(np.bincount(trees)).tolist():
        at = np.flatnonzero(trees == b)
        draws[at] = rngs[b].integers(0, np.tile(highs, at.size)).reshape(at.size, -1)
    allow = np.zeros((trees.size, d), dtype=bool)
    if tail:
        for row, swaps in zip(allow, draws.tolist()):
            perm = np.arange(d)
            for i, j in zip(range(d - 1, d - m - 1, -1), swaps):
                perm[i], perm[j] = perm[j], perm[i]
            row[perm[d - m:]] = True
        return allow
    flat = allow.reshape(-1)
    base = np.arange(0, allow.size, d)
    for j, picked in zip(range(d - m, d), draws.T):
        at = base + picked
        flat[np.where(flat[at], base + j, at)] = True
    return allow


def presort(data: Dataset, X: np.ndarray, rows: np.ndarray, offsets: np.ndarray,
            sizes: np.ndarray, ranks: Optional[np.ndarray] = None) -> np.ndarray:
    """The root index matrix of `Growth`: the blocks (offsets, sizes) of
    positions into X = data.features[:, rows], each sorted stably by every
    feature (rows 0..d-1), then position order (row d). A group for which
    `ranks_pay` sorts each block by its rows' dense ranks (`rank_order`),
    those given or, if none are, the dataset's ranked here (`dense_ranks`);
    any other group sorts each block's floats. Ties keep position order
    either way, so both give the same order. Consecutive blocks of one size
    sort together, up to `_SORT_ENTRIES` feature values per call, so a
    study's replicates cost a few sort calls, not one per block."""
    d, total = X.shape
    lists = np.empty((d + 1, total), dtype=np.int32)
    if not ranks_pay(data, sizes):
        ranks = None
    elif ranks is None:
        ranks = dense_ranks(data.features)
    # a run of consecutive blocks of one size is one slice of positions,
    # sorted as a (d, blocks, size) array
    starts = offsets.tolist()
    for size, run in groupby(range(len(starts)), sizes.tolist().__getitem__):
        run = list(run)
        per_call = max(1, _SORT_ENTRIES // (d * size))
        for lo in range(0, len(run), per_call):
            start = starts[run[lo]]
            stop = start + size * min(per_call, len(run) - lo)
            keys = X[:, start:stop] if ranks is None else ranks.take(rows[start:stop], axis=1)
            keys = keys.reshape(d, -1, size)
            order = (np.argsort(keys, axis=-1, kind="stable") if ranks is None
                     else rank_order(keys))
            order += np.arange(start, stop, size)[:, None]
            lists[:-1, start:stop] = order.reshape(d, -1)
    lists[-1] = np.arange(total)
    return lists


def ranks_pay(data: Dataset, sizes) -> bool:
    """Whether a group of sample blocks of these sizes (an int is one block)
    sorts its roots by the dataset's dense ranks: it holds `_RANK_ENTRIES`
    feature values or more, and its blocks' float sorts (s log s for s
    samples) cost at least ranking the dataset's n samples (n log n), as
    trees on dataset-size samples do and a study's stacked replicates not."""
    s = np.atleast_1d(np.asarray(sizes, dtype=np.float64))
    n = np.float64(data.n_samples)
    return bool(data.n_features * s.sum() >= _RANK_ENTRIES
                and np.sum(s * np.log2(np.maximum(s, 1.0))) >= n * np.log2(n))


def dense_ranks(features: np.ndarray) -> np.ndarray:
    """(d, n) dense ranks of each feature row of `features`: 0 for its least
    value, one more for each greater distinct value, so equal values (-0.0
    and 0.0 among them, as `<` has it) share a rank. uint16 while every rank
    fits, int32 beyond. Features are finite, so no NaN needs a rank. One
    feature at a time, so the temporaries stay one row long."""
    ranks = np.empty(features.shape, dtype=np.int32)
    for x, rank in zip(features, ranks):
        order = np.argsort(x)
        ascending = x.take(order)
        rank[order[0]] = 0
        rank[order[1:]] = np.cumsum(ascending[1:] != ascending[:-1], dtype=np.int32)
    return ranks.astype(np.uint16) if int(ranks.max()) <= 0xFFFF else ranks


def rank_order(ranks: np.ndarray) -> np.ndarray:
    """np.argsort(ranks, axis=-1, kind="stable"), through 16-bit keys, for
    which numpy's stable sort is a radix sort: one pass for uint16 ranks;
    for int32 ones an LSD radix sort of two stable passes, the low halves
    and then the high halves (Knuth, TAOCP Vol. 3, 5.2.5)."""
    if ranks.dtype == np.uint16:
        return np.argsort(ranks, axis=-1, kind="stable")
    order = np.argsort((ranks & 0xFFFF).astype(np.uint16), axis=-1, kind="stable")
    high = np.take_along_axis(ranks >> 16, order, axis=-1).astype(np.uint16)
    return np.take_along_axis(order, np.argsort(high, axis=-1, kind="stable"), axis=-1)


class _Frontier(NamedTuple):
    """The nodes a level resolves, tree by tree in breadth-first order: their
    ids and risks, their segments (starts, sizes) of the index matrix
    `lists`, and their trees."""

    ids: np.ndarray
    risks: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    lists: np.ndarray
    trees: np.ndarray


class _Scan(NamedTuple):
    """Per-row result of `Growth._scan`: the criterion at the row's cut,
    the sorted feature values on either side of it (`low` is the last that
    goes left, `high` the first that goes right; `Growth.choose` turns a
    chosen row's pair into its threshold), the two child risks and the
    left count."""

    criterion: np.ndarray
    low: np.ndarray
    high: np.ndarray
    left_risk: np.ndarray
    right_risk: np.ndarray
    left_count: np.ndarray  # samples below the threshold


def _regroup(lists: np.ndarray, side: np.ndarray, n_left: np.ndarray,
             n_right: np.ndarray) -> np.ndarray:
    """Stable partition, in place, of every row of `lists` into the next
    frontier's segments; returns the leading columns that hold them. side[s]
    is 0 for a sample that goes left (or stays, in a carried node), 1 for
    one that goes right and 2 for one that leaves the frontier; each segment
    that goes on becomes its left samples, then its right ones, both in row
    order. Every row holds the same samples per segment, so the n_left and
    n_right counts of those segments, and with them the target columns, are
    shared by all rows."""
    left_at = np.arange(n_left.sum()) + np.repeat(np.cumsum(n_right) - n_right, n_left)
    right_at = np.arange(n_right.sum()) + np.repeat(np.cumsum(n_left), n_right)
    n_next = left_at.size + right_at.size
    moved = np.empty(n_next, dtype=lists.dtype)
    for row in lists:
        code = side[row]
        # (flatnonzero then take is several times faster than a boolean mask)
        moved[left_at] = row[np.flatnonzero(code == 0)]
        moved[right_at] = row[np.flatnonzero(code == 1)]
        row[:n_next] = moved
    return lists[:, :n_next]
