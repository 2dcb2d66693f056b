"""Tree sampling, downward spin broadcasting, and upward belief recursion.

Trees are stored breadth first: node 0 is the root, nodes of equal depth are
contiguous, and the children of node v are the contiguous index range
``child_ptr[v]:child_ptr[v+1]``.  Every node strictly above the boundary
depth has at least one child, so the leaves are exactly the last level.

Several trees can share one layout as a forest: level 0 then holds S roots,
and the trees' nodes interleave level by level.  Broadcasting and the upward
recursion treat every root alike, so S trees cost one pass.  One sampler
grows every tree or forest, regular or Galton-Watson, level by level, and
checks each tree's size against the node budget before it allocates the
level.

Monte Carlo estimates split the samples into chunks of ``_chunk_size``
samples, a size fixed by the tree's (expected) node count alone, and chunk c
draws all its randomness from one stream seeded by ``(seed, c)``.  A fixed
tree draws an (S, n) block of uniforms for its S broadcasts; an annealed run
draws the chunk's S Galton-Watson trees as one forest, level by level, then
the forest's uniforms.  Sample i's random numbers thus depend on the chunk
rule but not on the thread count, which only decides how many chunks run at
once, so estimates are bit-reproducible across thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .channels import Channel, _normalize_exact, _readonly, as_belief
from .entropy import pairwise_sum, symmetrized_entropy_rows
from .errors import NumericalUnderflow, TreeError, TreeTooLarge

DEFAULT_MAX_NODES = 1_000_000
PMF_SUM_ATOL = 1e-12
# A Monte Carlo chunk holds at most _CHUNK samples and about _CHUNK_NODES
# nodes, which bounds the memory of its (samples, nodes, q) arrays.
_CHUNK = 4096
_CHUNK_NODES = 2 ** 20


@dataclass(frozen=True)
class TreeSpec:
    """Recipe for a rooted tree of fixed depth.

    kind "regular" grows exactly ``degree`` children per node; kind "gw"
    draws offspring counts i.i.d. from ``pmf``, where ``pmf[k]`` is the
    probability of k+1 children.  Zero offspring is not representable: the
    boundary must sit at full depth.
    """

    kind: str
    depth: int
    degree: int | None = None
    pmf: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("regular", "gw"):
            raise TreeError(f"unknown tree kind {self.kind!r}")
        if not isinstance(self.depth, int) or self.depth < 1:
            raise TreeError(f"depth must be an integer >= 1, got {self.depth!r}")
        if self.kind == "regular":
            if not isinstance(self.degree, int) or self.degree < 1:
                raise TreeError(f"degree must be an integer >= 1, got {self.degree!r}")
            if self.pmf is not None:
                raise TreeError("regular trees take no offspring pmf")
        else:
            if self.degree is not None:
                raise TreeError("offspring-pmf trees take no degree")
            p = np.asarray(self.pmf, dtype=float)
            if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)):
                raise TreeError("offspring pmf must be a non-empty finite vector")
            if np.any(p < 0):
                raise TreeError("offspring pmf entries must be >= 0")
            if abs(p.sum() - 1.0) > PMF_SUM_ATOL:
                raise TreeError(f"offspring pmf must sum to 1, got {float(p.sum())!r}")
            object.__setattr__(self, "pmf", tuple(float(x) for x in _normalize_exact(p)))

    @classmethod
    def regular(cls, degree: int, depth: int) -> "TreeSpec":
        return cls(kind="regular", depth=depth, degree=degree)

    @classmethod
    def galton_watson(cls, pmf, depth: int) -> "TreeSpec":
        """pmf may be a sequence over offspring counts 1,2,... or a mapping
        count -> probability.  Mass at count 0 is rejected."""
        if isinstance(pmf, Mapping):
            counts = sorted(pmf)
            for k in counts:
                if not isinstance(k, int) or k < 0:
                    raise TreeError(f"offspring count {k!r} is not a nonnegative integer")
                if k == 0 and pmf[k] != 0:
                    raise TreeError("offspring count 0 is not allowed: every node "
                                    "above the boundary needs a child")
            kmax = max(counts)
            vec = [0.0] * kmax
            for k in counts:
                if k >= 1:
                    vec[k - 1] = float(pmf[k])
            pmf = vec
        return cls(kind="gw", depth=depth, pmf=tuple(float(x) for x in pmf))

    @property
    def mean_offspring(self) -> float:
        if self.kind == "regular":
            return float(self.degree)
        return float(sum((k + 1) * p for k, p in enumerate(self.pmf)))


@dataclass(frozen=True)
class SampledTree:
    """One finite tree realization in breadth-first layout."""

    depth: int
    parent: np.ndarray
    node_depth: np.ndarray
    level_ptr: np.ndarray
    child_ptr: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.level_ptr[-1])

    @property
    def leaves(self) -> np.ndarray:
        return np.arange(self.level_ptr[self.depth], self.level_ptr[self.depth + 1])

    @property
    def n_leaves(self) -> int:
        return int(self.level_ptr[self.depth + 1] - self.level_ptr[self.depth])

    def children(self, v: int) -> range:
        return range(int(self.child_ptr[v]), int(self.child_ptr[v + 1]))


def tree_from_level_counts(counts_by_level: Sequence[Sequence[int]]) -> SampledTree:
    """Build a tree from explicit per-node offspring counts, level by level.

    ``counts_by_level[k][i]`` is the number of children of the i-th node at
    depth k; the last listed level's children form the leaves.
    """
    depth = len(counts_by_level)
    if depth < 1:
        raise TreeError("need at least one level of offspring counts")
    return _assemble([np.asarray(c, dtype=np.int64) for c in counts_by_level], depth)


def _assemble(counts_by_level: list[np.ndarray], depth: int,
              roots: int = 1) -> SampledTree:
    """Lay out a forest of ``roots`` trees breadth first from per-node
    offspring counts, level by level; level 0 holds the roots."""
    sizes = [roots]
    for k, c in enumerate(counts_by_level):
        if c.ndim != 1 or c.size != sizes[k]:
            raise TreeError(f"level {k} lists {c.size} counts for {sizes[k]} nodes")
        if np.any(c < 1):
            raise TreeError("every node above the boundary needs at least one child")
        sizes.append(int(c.sum()))
    level_ptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    n = int(level_ptr[-1])
    node_depth = np.repeat(np.arange(depth + 1, dtype=np.int64), sizes)
    all_counts = np.concatenate(counts_by_level + [np.zeros(sizes[-1], dtype=np.int64)])
    child_ptr = np.concatenate(([0], np.cumsum(all_counts, dtype=np.int64))) + roots
    parent = np.full(n, -1, dtype=np.int64)
    for k in range(1, depth + 1):
        lo, hi = int(level_ptr[k - 1]), int(level_ptr[k])
        parent[level_ptr[k]:level_ptr[k + 1]] = np.repeat(
            np.arange(lo, hi, dtype=np.int64), counts_by_level[k - 1])
    return SampledTree(
        depth=depth,
        parent=_readonly(parent, dtype=np.int64),
        node_depth=_readonly(node_depth, dtype=np.int64),
        level_ptr=_readonly(level_ptr, dtype=np.int64),
        child_ptr=_readonly(child_ptr, dtype=np.int64),
    )


def _sample_forest(spec: TreeSpec, rng: np.random.Generator, max_nodes: int,
                   roots: int = 1) -> SampledTree:
    """Grow ``roots`` i.i.d. trees as one forest, level by level: a regular
    spec draws nothing, a Galton-Watson spec draws every count.  Each tree on
    its own must stay within max_nodes, checked before a level is allocated."""
    if spec.kind == "gw":
        cum = np.cumsum(np.asarray(spec.pmf))
        cum[-1] = 1.0
    counts_by_level = []
    owner = np.arange(roots)  # the tree of each node at the current level
    sizes = np.ones(roots)
    for _ in range(spec.depth):
        if spec.kind == "regular":
            # max_nodes children already break the budget, and the cap keeps
            # a huge degree inside int64
            counts = np.full(owner.size, min(spec.degree, max_nodes), dtype=np.int64)
        else:
            u = rng.random(owner.size)
            counts = np.searchsorted(cum, u, side="right").astype(np.int64) + 1
        sizes += np.bincount(owner, weights=counts, minlength=roots)
        if float(sizes.max()) > max_nodes:
            raise TreeTooLarge(f"{spec.kind} tree of depth {spec.depth} exceeds "
                               f"{max_nodes} nodes")
        owner = np.repeat(owner, counts)
        counts_by_level.append(counts)
    return _assemble(counts_by_level, spec.depth, roots)


def sample_tree(spec: TreeSpec, seed=None, *, rng: np.random.Generator | None = None,
                max_nodes: int = DEFAULT_MAX_NODES) -> SampledTree:
    """Draw one tree; regular specs are deterministic and consume no randomness."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return _sample_forest(spec, rng, max_nodes)


def _broadcast_from_uniforms(tree: SampledTree, channel: Channel,
                             u: np.ndarray) -> np.ndarray:
    """Inverse-CDF broadcast for a batch of uniform draws of shape (S, n):
    every root from the stationary law, every other node from its parent's
    row."""
    n_samples, n = u.shape
    if n != tree.n_nodes:
        raise TreeError(f"need {tree.n_nodes} uniforms per sample, got {n}")
    lv = tree.level_ptr
    spins = np.empty((n_samples, n), dtype=np.int64)
    # A node's spin is the number of its parent row's partial sums that do
    # not exceed its uniform; the last, 1 up to rounding, is left out as
    # u < 1.  Row q is alpha, the virtual parent row of the roots (parent -1).
    rows = np.vstack([channel.matrix, channel.stationary])
    cum_cols = np.cumsum(rows, axis=1).T[:-1].copy()
    for k in range(tree.depth + 1):
        lo, hi = int(lv[k]), int(lv[k + 1])
        parent_spins = spins[:, tree.parent[lo:hi]] if k else -1
        level_u = u[:, lo:hi]
        idx = spins[:, lo:hi]
        idx[...] = cum_cols[0][parent_spins] <= level_u
        for col in cum_cols[1:]:
            idx += col[parent_spins] <= level_u
    return spins


def broadcast(tree: SampledTree, channel: Channel, seed=None, *,
              rng: np.random.Generator | None = None) -> np.ndarray:
    """Sample one spin configuration: root from the stationary law, each child
    from its parent's transition row.  Returns spins in 0..q-1 per node."""
    if rng is None:
        rng = np.random.default_rng(seed)
    u = rng.random(tree.n_nodes)
    return _broadcast_from_uniforms(tree, channel, u[None, :])[0]


def leaf_beliefs(tree: SampledTree, config: np.ndarray, q: int) -> dict:
    """Point-mass belief at each leaf's observed spin."""
    config = np.asarray(config)
    if config.shape != (tree.n_nodes,):
        raise TreeError(f"configuration must assign a spin to each of "
                        f"{tree.n_nodes} nodes")
    if np.any(config < 0) or np.any(config >= q):
        raise TreeError(f"spins must lie in 0..{q - 1}")
    rows = _readonly(_one_hot(config[tree.leaves].astype(np.int64), q))
    return {int(v): row for v, row in zip(tree.leaves, rows)}


def _one_hot(spins: np.ndarray, q: int) -> np.ndarray:
    out = np.zeros(spins.shape + (q,))
    np.put_along_axis(out, spins[..., None], 1.0, axis=-1)
    return out


def _upward(tree: SampledTree, channel: Channel, leaf_block: np.ndarray,
            keep_all: bool = False) -> np.ndarray:
    """Run the belief recursion bottom-up on a batch of boundary conditions.

    leaf_block has shape (S, n_leaves, q), one belief row per leaf in node
    order.  Returns the beliefs of every root, shape (S * roots, q) with the
    roots of one batch entry adjacent (so (S, q) for a single tree), or the
    full (S, n_nodes, q) belief array when keep_all is set.

    Messages are kept in linear space but rescaled by their maximum before
    the per-node product, which bounds every factor by 1 and keeps the
    zero-correlation channel exact (all messages are then exactly 1).
    """
    alpha = channel.stationary
    ratio_t = np.ascontiguousarray((channel.matrix / alpha[None, :]).T)
    lv = tree.level_ptr
    depth = tree.depth
    beliefs = leaf_block
    if keep_all:
        full = np.empty(leaf_block.shape[:1] + (tree.n_nodes, channel.q))
        full[:, lv[depth]:lv[depth + 1]] = leaf_block
    for k in range(depth - 1, -1, -1):
        msgs = beliefs @ ratio_t
        peak = msgs[..., 0].copy()  # column by column: max(axis=-1) is slow at small q
        for j in range(1, channel.q):
            np.maximum(peak, msgs[..., j], out=peak)
        if not np.all(np.isfinite(peak)) or np.any(peak <= 0.0):
            raise NumericalUnderflow("child message underflowed to zero")
        msgs /= peak[..., None]
        starts = tree.child_ptr[lv[k]:lv[k + 1]] - lv[k + 1]
        prods = np.multiply.reduceat(msgs, starts, axis=1)
        prods = prods * alpha
        total = pairwise_sum(np.moveaxis(prods, -1, 0))  # = prods.sum(axis=-1)
        if not np.all(np.isfinite(total)) or np.any(total <= 0.0):
            raise NumericalUnderflow("belief product underflowed to zero")
        beliefs = prods / total[..., None]
        if keep_all:
            full[:, lv[k]:lv[k + 1]] = beliefs
    return full if keep_all else beliefs.reshape(-1, channel.q)


def belief_recursion(tree: SampledTree, channel: Channel,
                     boundary: Mapping[int, np.ndarray]) -> dict:
    """Beliefs at every node given belief rows on all leaves.

    At each internal node v the belief is proportional to
    alpha(j) * prod over children w of sum_i M(j,i) pi_w(i) / alpha(i).
    """
    leaves = tree.leaves
    given = set(int(k) for k in boundary)
    needed = set(int(v) for v in leaves)
    if given != needed:
        missing = sorted(needed - given)
        extra = sorted(given - needed)
        parts = []
        if missing:
            parts.append(f"missing beliefs for leaves {missing}")
        if extra:
            parts.append(f"beliefs given for non-leaf nodes {extra}")
        raise TreeError("; ".join(parts))
    rows = np.stack([as_belief(boundary[int(v)], channel.q) for v in leaves])
    full = _upward(tree, channel, rows[None, :, :], keep_all=True)[0]
    return {int(v): _readonly(full[v].copy()) for v in range(tree.n_nodes)}


def _root_entropy_values(tree: SampledTree, channel: Channel,
                         u: np.ndarray) -> np.ndarray:
    spins = _broadcast_from_uniforms(tree, channel, u)
    lv = tree.level_ptr
    leaf_spins = spins[:, lv[tree.depth]:lv[tree.depth + 1]]
    roots = _upward(tree, channel, _one_hot(leaf_spins, channel.q))
    return symmetrized_entropy_rows(roots, channel.stationary)


@dataclass(frozen=True)
class RootEntropyEstimate:
    mean: float
    stderr: float
    samples: int
    depth: int
    mode: str
    seed: int


def _chunk_size(nodes_per_sample: float) -> int:
    return min(_CHUNK, max(1, int(_CHUNK_NODES // nodes_per_sample)))


def _run_chunks(values_of, samples: int, seed: int, nodes_per_sample: float,
                threads: int) -> tuple[float, float]:
    """Mean and standard error of the values that values_of(rng, count)
    returns for count samples, chunk by chunk; chunk c draws from the stream
    seeded by (seed, c).  threads = 0 runs one worker per CPU."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    values = np.empty(samples)
    size = _chunk_size(nodes_per_sample)

    def work(c: int) -> None:
        lo, hi = c * size, min((c + 1) * size, samples)
        values[lo:hi] = values_of(np.random.default_rng([seed, c]), hi - lo)

    n_chunks = -(-samples // size)
    n_workers = threads or os.cpu_count() or 1
    if n_workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(work, range(n_chunks)))
    else:
        for c in range(n_chunks):
            work(c)
    if not np.all(np.isfinite(values)):
        raise NumericalUnderflow("a root belief entry underflowed to exact zero, "
                                 "making its entropy infinite")
    n = values.size
    mean = float(np.mean(values))
    stderr = 0.0 if n < 2 else float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, stderr


def mc_root_entropy(spec: TreeSpec, channel: Channel, samples: int, seed: int = 0,
                    *, mode: str = "annealed", threads: int = 1,
                    max_nodes: int = DEFAULT_MAX_NODES) -> RootEntropyEstimate:
    """Monte Carlo mean and standard error of the root's symmetrized entropy
    under random boundary conditions at the given depth.

    mode "annealed" redraws the tree for every sample; "quenched" fixes one
    tree (drawn from the seed) and varies only the broadcast.  The two modes
    coincide for regular trees.
    """
    samples = int(samples)
    if mode not in ("annealed", "quenched"):
        raise ValueError(f"mode must be 'annealed' or 'quenched', got {mode!r}")
    seed = int(seed)
    if spec.kind == "regular" or mode == "quenched":
        tree = sample_tree(spec, rng=np.random.default_rng([seed]),
                           max_nodes=max_nodes)
        est = mc_root_entropy_fixed_tree(tree, channel, samples, seed,
                                         threads=threads)
        return replace(est, mode=mode)

    def values_of(rng: np.random.Generator, count: int) -> np.ndarray:
        forest = _sample_forest(spec, rng, max_nodes, roots=count)
        return _root_entropy_values(forest, channel, rng.random((1, forest.n_nodes)))

    expected_nodes = width = 1.0
    for _ in range(spec.depth):  # float products overflow to inf, never raise
        width *= spec.mean_offspring
        expected_nodes += width
    mean, stderr = _run_chunks(values_of, samples, seed, expected_nodes, threads)
    return RootEntropyEstimate(mean, stderr, samples, spec.depth, mode, seed)


def mc_root_entropy_fixed_tree(tree: SampledTree, channel: Channel, samples: int,
                               seed: int = 0, *, threads: int = 1
                               ) -> RootEntropyEstimate:
    """Monte Carlo estimate on an explicitly given tree realization."""
    samples = int(samples)
    seed = int(seed)
    n = tree.n_nodes

    def values_of(rng: np.random.Generator, count: int) -> np.ndarray:
        return _root_entropy_values(tree, channel, rng.random((count, n)))

    mean, stderr = _run_chunks(values_of, samples, seed, n, threads)
    return RootEntropyEstimate(mean, stderr, samples, tree.depth, "fixed-tree", seed)


def depth_sweep(spec: TreeSpec, channel: Channel, depths: Sequence[int],
                samples: int, seed: int = 0, *, mode: str = "annealed",
                threads: int = 1,
                max_nodes: int = DEFAULT_MAX_NODES) -> list[RootEntropyEstimate]:
    """mc_root_entropy at each depth, same seed and sample budget."""
    return [
        mc_root_entropy(replace(spec, depth=int(d)), channel, samples, seed,
                        mode=mode, threads=threads, max_nodes=max_nodes)
        for d in depths
    ]
