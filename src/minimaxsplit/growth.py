"""Level-synchronous tree growth: the one grower, behind `tree.grow`,
`tree.grow_trees` (a forest's trees) and `tree.best_split`.

A `Growth` grows a group of trees through one shared level loop: each level
resolves every frontier node of every tree at once, so a forest costs about
the numpy calls of one tree per level, not one tree's calls per tree (SPRINT's
breadth-first growth, applied across the trees of a random forest).
`best_split` is the same choice step run on a frontier of one node. Each
tree's splits and node records are exactly those of the node-at-a-time
grower kept as the test reference in `tests/pernode_grower.py`, run on that
tree's sample alone: every prefix curve, argmin and node mean is computed
from the same floats in the same order. The block scan itself (row padding,
block grouping, the prefix kernels and the mirrored read-back of the right
curve) lives in `splitting`, shared with `martingale`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

import numpy as np

from .dataset import CLASSIFICATION, Dataset
from .errors import ConfigError, DataError
from .splitting import (_MODE_CRITERIA, NodeStats, _child_curves, _padded_width,
                        _prefix_entropy_risk, _prefix_sse, _row_blocks, midpoints)

if TYPE_CHECKING:
    from .tree import GrowConfig

_REASONS = (None, "depth", "constant_target", "constant_features", "n_min", "no_valid_split")
_DEPTH, _CONSTANT_TARGET, _CONSTANT_FEATURES, _N_MIN, _NO_VALID_SPLIT = range(1, 6)


class Growth:
    """Level-synchronous growth of a group of trees (the attribute lists of
    SLIQ and SPRINT). `run` returns, per tree, the node arrays and risk trace
    of a TreeModel.

    Tree b grows on samples[b], a non-empty array of sample indices into
    `data` (repeats allowed), and draws from its own streams features_rngs[b]
    (needed with m_try) and splits_rngs[b] (needed by the random criteria).
    The constructor is the one place that checks these arguments against
    the config and the data, for `grow`, `grow_trees` and `best_split`
    alike. The samples are the blocks, one after another, of a shared index
    space: `X` and `y` hold the gathered samples, and a position in them
    names one sample of one tree.

    The frontier, the nodes still to resolve, is a run of contiguous segments
    in `lists`, a (d + 1, N) matrix of positions: row j < d holds each node's
    positions ordered by feature j (value, then position: `root` sorts each
    sample block once, stably, as SPRINT presorts), row d holds them in
    position order. Those are the orders a per-node search sorts into, so
    every prefix curve, argmin and node mean sees the same floats in the same
    order. The frontier is tree-major, each tree's nodes in breadth-first
    order, so each tree draws from its streams in its own breadth-first node
    order. After a level, a stable partition regroups every row by child.
    Node ids count creation across the group; `run` numbers each tree's
    nodes from 0.
    """

    def __init__(self, data: Dataset, config: GrowConfig, samples: Sequence[np.ndarray],
                 features_rngs: Sequence[Optional[np.random.Generator]],
                 splits_rngs: Sequence[Optional[np.random.Generator]]):
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
        samples = [np.asarray(s) for s in samples]
        for s in samples:
            if not (s.ndim == 1 and s.size and s.dtype.kind in "iu" and 0 <= s.min()
                    and s.max() < n):
                raise DataError(f"each sample must be a non-empty 1-D index array in [0, {n})")
        self.data = data
        self.config = config
        self.crit = crit
        self.features_rngs = list(features_rngs)
        self.splits_rngs = list(splits_rngs)
        self.d = d
        self.sizes = np.array([s.size for s in samples], dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        take = np.concatenate(samples)
        self.X, self.y = data.features.take(take, axis=1), data.targets[take]
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
        tree's whole sample."""
        t = self.sizes.size
        lists = np.empty((self.d + 1, self.y.size), dtype=np.int32)
        for start, size in zip(self.offsets.tolist(), self.sizes.tolist()):
            block = lists[:-1, start:start + size]
            block[:] = np.argsort(self.X[:, start:start + size], axis=1, kind="stable")
            block += start
        lists[-1] = np.arange(self.y.size)
        return _Frontier(np.arange(t), np.zeros(t) if risks is None else risks,
                         self.offsets, self.sizes, lists, np.arange(t))

    def run(self) -> List[dict]:
        config, task = self.config, self.data.task
        sizes = self.sizes.tolist()
        totals = [NodeStats.from_targets(self.y[start:start + size], task).risk
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
        (positions in ascending order); returns their ids."""
        ids = np.arange(self.n_nodes, self.n_nodes + sizes.size)
        self.n_nodes += sizes.size
        if self.data.task == CLASSIFICATION:
            positives = np.concatenate([[0], np.cumsum(self.y[by_index] == 1.0)])
            pos = positives[starts + sizes] - positives[starts]
            value = pos / sizes
            log_odds = np.array([math.log((p + 0.5) / (m - p + 0.5))
                                 for p, m in zip(pos.tolist(), sizes.tolist())])
        else:
            # nodes of one size are averaged as the rows of one block: a
            # row's mean is the same pairwise sum np.mean makes of the row
            value = np.empty(sizes.size)
            log_odds = np.full(sizes.size, math.nan)
            for sel in _row_blocks(sizes):
                m = int(sizes[sel[0]])
                value[sel] = np.mean(self.y[by_index[starts[sel, None] + np.arange(m)]], axis=1)
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
        nodes, feats, scan = self.choose(level, front, np.flatnonzero(reason == 0), spread)

        split = np.zeros(ids.size, dtype=bool)
        split[nodes] = True
        stuck = (reason == 0) & ~split
        carry = stuck & self.crit.is_cyclic
        reason[stuck & ~carry] = _NO_VALID_SPLIT
        self.leaves.append((ids, reason))

        # route each sample of a splitting node; x < t goes left
        seg = np.repeat(np.arange(ids.size), sizes)
        node_feature = np.zeros(ids.size, dtype=np.int64)
        node_feature[nodes] = feats
        node_threshold = np.zeros(ids.size)
        node_threshold[nodes] = scan.threshold
        samples = lists[d]
        goes_right = ~(self.X[node_feature[seg], samples] < node_threshold[seg]) & split[seg]
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
        new_lists = _regroup(lists, side, np.where(split, n_left, sizes)[going_on],
                             np.where(split, sizes - n_left, 0)[going_on])

        child_slots = np.stack([base[nodes], base[nodes] + 1], axis=1).ravel()
        child_risks = np.stack([scan.left_risk, scan.right_risk], axis=1).ravel()
        child_trees = np.repeat(trees[nodes], 2)
        children = self._add(level + 1, new_lists[d], new_starts[child_slots],
                             new_sizes[child_slots], child_risks, child_trees)
        parents = ids[nodes]
        self.splits.append((parents, feats, scan.threshold, children[0::2], children[1::2], level))

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
        features and their scan results. A node with no allowed non-constant
        feature gets none."""
        if self.crit.is_random:
            nodes, feats, picks, uniform_t = self._random_rows(front, open_nodes, spread)
            scan = self._scan(front, nodes, feats, picks)
            if uniform_t is not None:
                scan = scan._replace(threshold=uniform_t)
            return nodes, feats, scan
        nodes, feats = self._allowed(level, front, open_nodes, spread)
        scan = self._scan(front, nodes, feats)
        # per node the least criterion, the lower feature on ties: a stable
        # sort keeps each node's rows in feature order
        order = np.lexsort((scan.criterion, nodes))
        head = np.ones(order.size, dtype=bool)
        head[1:] = nodes[order[1:]] != nodes[order[:-1]]
        best = order[head]
        return nodes[best], feats[best], _Scan(*(a[best] for a in scan))

    def _allowed(self, level: int, front: _Frontier, open_nodes: np.ndarray,
                 spread: np.ndarray):
        """(node, feature) rows to scan for the deterministic criteria, by
        node then feature: the features a node may use that are non-constant
        on it. m_try draws one subset per open node, in frontier order, from
        the node's tree's `features` stream."""
        d, config = self.d, self.config
        allow = np.zeros((open_nodes.size, d), dtype=bool)
        if self.crit.is_cyclic:
            allow[:, level % d] = True
        elif config.m_try is not None:
            rngs = self.features_rngs
            for row, b in zip(allow, front.trees[open_nodes].tolist()):
                row[rngs[b].choice(d, size=config.m_try, replace=False)] = True
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
        (in the order given, repeats counted), then the threshold. Returns
        the rows to scan, each row's candidate, and (random_uniform) the
        drawn thresholds."""
        config, X = self.config, self.X
        starts, sizes, lists, trees = front.starts, front.sizes, front.lists, front.trees
        uniform = self.crit.tag == "random_uniform"
        fixed = config.fixed_features
        nodes, feats, picks, drawn = [], [], [], []
        for k in open_nodes.tolist():
            b = int(trees[k])
            rng = self.splits_rngs[b]
            if config.m_try is not None:
                allowed = np.sort(self.features_rngs[b].choice(
                    self.d, size=config.m_try, replace=False)).tolist()
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
        threshold among ties (and for 'max', exactly where `minimax_search`
        lands).

        Rows are scanned in the padded blocks of `splitting._row_blocks`.
        Each row gets its own sequential cumsum, so its curves are those of
        `splitting.scan_feature` and of the reference grower bit for bit; a
        global cumsum minus segment offsets would not be."""
        out = _Scan(*(np.empty(nodes.size, dtype=np.int64 if name == "left_count" else None)
                      for name in _Scan._fields))
        for rows in _row_blocks(_padded_width(front.sizes[nodes])):
            block = self._scan_block(front, nodes[rows], feats[rows],
                                     None if picks is None else picks[rows])
            for field, values in zip(out, block):
                field[rows] = values
        return out

    def _scan_block(self, front: _Frontier, nodes: np.ndarray, feats: np.ndarray,
                    picks: Optional[np.ndarray]) -> _Scan:
        m = front.sizes[nodes]
        cols = np.arange(int(m.max()))
        f = feats[:, None]
        # padding repeats a row's last sample
        sample = front.lists[f, front.starts[nodes, None] + np.minimum(cols, m[:, None] - 1)]
        v = self.X[f, sample]
        left, right = _child_curves(self.prefix, (self.y[sample],), m)
        crit = _MODE_CRITERIA["sum" if self.crit.is_random else self.crit.scan_mode](left, right)
        if picks is None:
            # padding repeats a value, so it never shows a strict rise
            crit = np.where(v[:, 1:] > v[:, :-1], crit, np.inf)
            picks = np.argmin(crit, axis=1)
        r = np.arange(nodes.size)
        return _Scan(crit[r, picks], midpoints(v[r, picks], v[r, picks + 1]),
                     left[r, picks], right[r, picks], picks + 1)


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
    """Per-row result of `Growth._scan`."""

    criterion: np.ndarray
    threshold: np.ndarray
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
