"""Level-synchronous tree growth: the array passes behind `tree.grow`.

Each level resolves every frontier node at once. The split each node gets
is the one `splitting.best_split` returns for it, the node records are the
ones a node-at-a-time grower writes, and both are exact: every prefix curve,
argmin and node mean is computed from the same floats in the same order, so
the tree serializes byte for byte as before. The block scan itself (row
padding, block grouping, the prefix kernels and the mirrored read-back of
the right curve) lives in `splitting`, shared with `martingale`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, NamedTuple, Optional

import numpy as np

from .dataset import CLASSIFICATION, Dataset
from .splitting import (_MODE_CRITERIA, NodeStats, _child_curves, _padded_width,
                        _prefix_entropy_risk, _prefix_sse, _row_blocks, midpoints)

if TYPE_CHECKING:
    from .tree import GrowConfig

_REASONS = (None, "depth", "constant_target", "constant_features", "n_min", "no_valid_split")
_DEPTH, _CONSTANT_TARGET, _CONSTANT_FEATURES, _N_MIN, _NO_VALID_SPLIT = range(1, 6)


class Growth:
    """One tree's level-synchronous growth (the attribute lists of SLIQ and
    SPRINT). `run` returns the node arrays and risk trace of a TreeModel.

    The frontier, the nodes still to resolve in breadth-first order, is a run
    of contiguous segments in `lists`, a (d + 1, N) matrix of sample indices:
    row j < d holds each node's samples ordered by feature j (value, then
    sample index, the order of `Dataset.sort_index`), row d holds them by
    sample index. Those are the orders a per-node search sorts into, so every
    prefix curve, argmin and node mean sees the same floats in the same order.
    After a level, a stable partition regroups every row by child.
    """

    def __init__(self, data: Dataset, config: GrowConfig,
                 features_rng: Optional[np.random.Generator],
                 splits_rng: Optional[np.random.Generator]):
        self.data = data
        self.config = config
        self.crit = config.criterion
        self.features_rng = features_rng
        self.splits_rng = splits_rng
        self.X = data.features
        self.y = data.targets
        self.d = data.n_features
        self.prefix = (_prefix_entropy_risk if data.task == CLASSIFICATION
                       else _prefix_sse)
        # the unsplittable screen looks at the features a node could ever
        # use: the fixed subset if one is set, otherwise all of them (cyclic
        # rules and per-node draws range over all features)
        fixed = config.fixed_features
        self.screen = list(fixed) if (fixed is not None and not self.crit.is_cyclic) \
            else list(range(self.d))
        # node records, kept per level: created holds (depth, count, risk,
        # value, log_odds) of the nodes each level creates, in id order;
        # splits and leaves hold what each level resolved
        self.n_nodes = 0
        self.created: List[tuple] = []
        self.splits: List[tuple] = []
        self.leaves: List[tuple] = []

    def run(self) -> dict:
        data, config = self.data, self.config
        n = data.n_samples
        lists = np.empty((self.d + 1, n), dtype=np.int32)
        lists[:-1] = data.sort_index
        lists[-1] = np.arange(n)
        starts = np.zeros(1, dtype=np.int64)
        sizes = np.full(1, n, dtype=np.int64)
        root_risk = NodeStats.from_targets(data.targets, data.task).risk
        risks = np.array([root_risk])
        front = _Frontier(self._add(0, lists[-1], starts, sizes, risks), risks, starts,
                          sizes, lists)
        total = root_risk
        trace = [total / n]
        for level in range(config.max_depth):
            front, gains = self._level(level, front)
            for gain in gains:  # one at a time in frontier order: the float sum depends on it
                total -= gain
            trace.append(total / n)
            if front.ids.size == 0:
                break
        self.leaves.append((front.ids, _DEPTH))
        while len(trace) < config.max_depth + 1:
            trace.append(trace[-1])

        k = self.n_nodes
        depth, count, risk, value, log_odds = (np.concatenate(f) for f in zip(*self.created))
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
        return {
            "depth": depth,
            "count": count,
            "risk": risk,
            "value": value,
            "log_odds": log_odds,
            "feature": feature,
            "threshold": threshold,
            "left": left,
            "right": right,
            "split_level": split_level,
            "leaf_reason": [_REASONS[r] for r in reason.tolist()],
            "risk_trace": trace,
        }

    def _add(self, depth: int, by_index: np.ndarray, starts: np.ndarray,
             sizes: np.ndarray, risks: np.ndarray) -> np.ndarray:
        """Record new nodes, one per segment of `by_index` (sample indices in
        ascending order); returns their ids."""
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
        self.created.append((np.full(sizes.size, depth, dtype=np.int64), sizes,
                             np.asarray(risks, dtype=np.float64), value, log_odds))
        return ids

    def _level(self, level: int, front: _Frontier):
        """Resolve every frontier node once: retire it to a leaf, split it,
        or (cyclic rules) carry it to the next level. Returns the next
        frontier and the per-split risk reductions in frontier order."""
        ids, risks, starts, sizes, lists = front
        d, n_min = self.d, self.config.n_min
        # a feature is non-constant on a node when its sorted segment ends
        # above where it starts
        first = self.X[np.arange(d)[:, None], lists[:d, starts]]
        last = self.X[np.arange(d)[:, None], lists[:d, starts + sizes - 1]]
        spread = last > first  # (d, K)
        y = self.y[lists[d]]
        constant_target = np.minimum.reduceat(y, starts) == np.maximum.reduceat(y, starts)
        reason = np.select(
            [constant_target, ~spread[self.screen].any(axis=0), sizes <= n_min],
            [_CONSTANT_TARGET, _CONSTANT_FEATURES, _N_MIN], 0)
        open_nodes = np.flatnonzero(reason == 0)

        if self.crit.is_random:
            nodes, feats, picks, uniform_t = self._random_rows(front, open_nodes, spread)
            scan = self._scan(front, nodes, feats, picks)
            thr = scan.threshold if uniform_t is None else uniform_t
        else:
            nodes, feats = self._allowed(level, open_nodes, spread)
            scan = self._scan(front, nodes, feats)
            # per node the least criterion, the lower feature on ties: a
            # stable sort keeps each node's rows in feature order
            order = np.lexsort((scan.criterion, nodes))
            head = np.ones(order.size, dtype=bool)
            head[1:] = nodes[order[1:]] != nodes[order[:-1]]
            best = order[head]
            nodes, feats = nodes[best], feats[best]
            scan = _Scan(*(a[best] for a in scan))
            thr = scan.threshold

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
        node_threshold[nodes] = thr
        samples = lists[d]
        goes_right = ~(self.X[node_feature[seg], samples] < node_threshold[seg]) & split[seg]
        n_left = np.bincount(seg[~goes_right & split[seg]], minlength=ids.size)

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
        side = np.full(self.data.n_samples, 2, dtype=np.int8)
        side[samples] = np.where(going_on[seg], goes_right, 2)
        new_lists = _regroup(lists, side, np.where(split, n_left, sizes)[going_on],
                             np.where(split, sizes - n_left, 0)[going_on])

        child_slots = np.stack([base[nodes], base[nodes] + 1], axis=1).ravel()
        child_risks = np.stack([scan.left_risk, scan.right_risk], axis=1).ravel()
        children = self._add(level + 1, new_lists[d], new_starts[child_slots],
                             new_sizes[child_slots], child_risks)
        parents = ids[nodes]
        self.splits.append((parents, feats, thr, children[0::2], children[1::2], level))

        new_ids = np.empty(new_sizes.size, dtype=np.int64)
        new_ids[base[carry]] = ids[carry]
        new_ids[child_slots] = children
        new_risks = np.empty(new_sizes.size)
        new_risks[base[carry]] = risks[carry]
        new_risks[child_slots] = child_risks
        # children risks come from the scan's prefix curves, the parent's
        # from its own creation; clamp so float noise in a zero-reduction
        # split can never tick the trace upward
        gains = risks[nodes] - scan.left_risk - scan.right_risk
        gains = np.where(gains > 0.0, gains, 0.0).tolist()
        return _Frontier(new_ids, new_risks, new_starts, new_sizes, new_lists), gains

    def _allowed(self, level: int, open_nodes: np.ndarray, spread: np.ndarray):
        """(node, feature) rows to scan for the deterministic criteria, by
        node then feature: the features a node may use that are non-constant
        on it. m_try draws one subset per open node, in frontier order."""
        d, config = self.d, self.config
        allow = np.zeros((open_nodes.size, d), dtype=bool)
        if self.crit.is_cyclic:
            allow[:, level % d] = True
        elif config.m_try is not None:
            for row in allow:
                row[self.features_rng.choice(d, size=config.m_try, replace=False)] = True
        elif config.fixed_features is not None:
            allow[:, list(config.fixed_features)] = True
        else:
            allow[:] = True
        allow &= spread[:, open_nodes].T
        rows, feats = np.nonzero(allow)
        return open_nodes[rows], feats

    def _random_rows(self, front: _Frontier, open_nodes: np.ndarray, spread: np.ndarray):
        """Draw the random baselines' splits node by node, in frontier order,
        exactly as `best_split` consumes the streams: the feature uniformly
        among the allowed non-constant ones, then the threshold. Returns the
        rows to scan, each row's candidate, and (random_uniform) the drawn
        thresholds."""
        config, rng, X = self.config, self.splits_rng, self.X
        starts, sizes, lists = front.starts, front.sizes, front.lists
        uniform = self.crit.tag == "random_uniform"
        fixed = config.fixed_features
        nodes, feats, picks, drawn = [], [], [], []
        for k in open_nodes.tolist():
            if config.m_try is not None:
                allowed = np.sort(self.features_rng.choice(
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
        c cuts the node's sorted segment between positions c and c + 1; the
        row's result is at `picks[row]` if given, else at the first argmin
        of the criterion, which is the smallest threshold among ties (and
        for 'max', exactly where `minimax_search` lands).

        Rows are scanned in the padded blocks of `splitting._row_blocks`.
        Each row gets its own sequential cumsum, so its curves are the
        per-node curves bit for bit; a global cumsum minus segment offsets
        would not be."""
        out = _Scan(*(np.empty(nodes.size) for _ in _Scan._fields))
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
                     left[r, picks], right[r, picks])


class _Frontier(NamedTuple):
    """The nodes a level resolves, in breadth-first order: their ids and
    risks, and their segments (starts, sizes) of the index matrix `lists`."""

    ids: np.ndarray
    risks: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    lists: np.ndarray


class _Scan(NamedTuple):
    """Per-row result of `Growth._scan`."""

    criterion: np.ndarray
    threshold: np.ndarray
    left_risk: np.ndarray
    right_risk: np.ndarray


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
