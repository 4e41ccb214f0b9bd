"""Random-model generation and the block-sparse observation matrix.

Ground truth assigns each node a cluster label and a Haar-random orthogonal
transform. The observation matrix holds, for a random subset of node pairs,
either the true relative transform (within clusters, probability p) or a
Haar-uniform impostor block (across clusters, probability q). An additive
variant perturbs every pair with Gaussian noise. A small binary container
format round-trips both structures to disk. The matrix multiplies through
batched GEMMs over tiles of destination nodes, O(d^2) work per stored block
and column.

All randomness is rooted in a single integer seed through named Philox
streams: each consumer owns a stream and reads it in the canonical
lexicographic pair order, so a run is bit-reproducible from its seed alone
and never depends on iteration order or scheduling.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ParseError, ValidationError
from .linalg import haar_from_normals

# Named stream keys. Each consumer of randomness owns one key so streams
# stay independent no matter which consumers actually run.
_STREAM_TRANSFORMS = 0
_STREAM_PRESENCE = 1
_STREAM_CROSS = 2
_STREAM_NOISE = 3

# Block elements gathered per matvec tile (8192 padded slots at d=2): large
# enough that per-tile numpy overhead is small against the arithmetic, small
# enough that the gathered blocks and operand rows stay cache-sized.
_MATVEC_TILE_ELEMS = 1 << 15

_MAGIC = b"JSYN"
_FORMAT_VERSION = 1
_KIND_MATRIX = 0
_KIND_GROUND_TRUTH = 1


class RandomSource:
    """Named, seedable, splittable counter-based randomness.

    Streams are addressed by small integer keys; each stream is an
    independent Philox generator derived from (seed, key). Child runs get
    replayable integer sub-seeds through the same mechanism.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def stream(self, *key):
        """Return the Philox generator for the given stream key."""
        ss = np.random.SeedSequence(self.seed, spawn_key=tuple(int(k) for k in key))
        return np.random.Generator(np.random.Philox(ss))

    def subseed(self, *key):
        """Derive a replayable integer seed for a child run."""
        ss = np.random.SeedSequence(self.seed, spawn_key=tuple(int(k) for k in key))
        return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the random block model.

    sizes defaults to an equal split of n over K clusters (larger clusters
    first when K does not divide n). sigma is the additive Gaussian noise
    level; 0 means the base model.
    """

    n: int
    K: int
    d: int
    p: float
    q: float
    sizes: tuple = None
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.K < 1:
            raise ValidationError("K must be at least 1")
        if self.d < 1:
            raise ValidationError("d must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError("p must lie in [0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValidationError("q must lie in [0, 1]")
        if self.sigma < 0.0:
            raise ValidationError("sigma must be non-negative")
        if self.sizes is None:
            base, extra = divmod(self.n, self.K)
            if base == 0:
                raise ValidationError("n must be at least K so every cluster is non-empty")
            sizes = tuple(base + (1 if k < extra else 0) for k in range(self.K))
            object.__setattr__(self, "sizes", sizes)
        else:
            sizes = tuple(int(s) for s in self.sizes)
            object.__setattr__(self, "sizes", sizes)
            if len(sizes) != self.K:
                raise ValidationError("sizes must list exactly K cluster sizes")
            if any(s < 1 for s in sizes):
                raise ValidationError("every cluster size must be at least 1")
            if sum(sizes) != self.n:
                raise ValidationError("cluster sizes must sum to n")


@dataclass(frozen=True)
class GroundTruth:
    """True cluster labels (1-based) and per-node orthogonal transforms."""

    n: int
    K: int
    d: int
    labels: np.ndarray
    transforms: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        transforms = np.asarray(self.transforms, dtype=np.float64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        if labels.shape != (self.n,):
            raise ValidationError("labels must have one entry per node")
        if labels.min() < 1 or labels.max() > self.K:
            raise ValidationError("labels must lie in 1..K")
        if transforms.shape != (self.n, self.d, self.d):
            raise ValidationError("transforms must be an (n, d, d) stack")
        counts = np.bincount(labels, minlength=self.K + 1)[1:]
        if (counts == 0).any():
            raise ValidationError("every cluster index in 1..K must appear at least once")
        if sizes.shape != (self.K,) or (counts != sizes).any():
            raise ValidationError("sizes must equal the per-cluster label counts")
        for arr in (labels, transforms, sizes):
            arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transforms", transforms)
        object.__setattr__(self, "sizes", sizes)

    def cluster_nodes(self, k):
        """Node indices of cluster k (1-based k), ascending."""
        return np.flatnonzero(self.labels == k)


class SparseBlockMatrix:
    """Symmetric n x n matrix of d x d blocks, sparse by block.

    Only blocks (i, j) with i < j are stored, as matching rows of pairs and
    data; block (j, i) is the transpose and diagonal blocks are zero. The
    backing arrays are marked read-only at construction, so instances are
    safe to share.
    """

    def __init__(self, n, d, pairs, data):
        self.n = int(n)
        self.d = int(d)
        if self.n < 1 or self.d < 1:
            raise ValidationError("n and d must be at least 1")
        pairs = np.asarray(pairs, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if pairs.size % 2:
            raise ValidationError("pairs must hold (i, j) index pairs")
        pairs = pairs.reshape(-1, 2)
        if data.size != pairs.shape[0] * self.d * self.d:
            raise ValidationError("data must hold one d x d block per pair")
        data = data.reshape(-1, self.d, self.d)
        if not np.isfinite(data).all():
            raise NonFiniteError("block data contains NaN or Inf entries")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= self.n:
                raise ValidationError("pair indices must lie in 0..n-1")
            if (pairs[:, 0] >= pairs[:, 1]).any():
                raise ValidationError("every stored pair must satisfy i < j")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = np.ascontiguousarray(pairs[order])
        data = np.ascontiguousarray(data[order])
        if pairs.shape[0] > 1:
            same = (np.diff(pairs[:, 0]) == 0) & (np.diff(pairs[:, 1]) == 0)
            if same.any():
                raise ValidationError("duplicate block pair")
        pairs.flags.writeable = False
        data.flags.writeable = False
        self.pairs = pairs
        self.data = data
        self._matvec_cache = None

    @property
    def nd(self):
        return self.n * self.d

    @property
    def pair_count(self):
        return self.pairs.shape[0]

    def _matvec_tiles(self):
        # Slots grouped by destination node, in both directions: stored
        # (i, j) blocks feed i (applied as stored, the pairs being sorted by
        # i already) and their transposes feed j (through one stable sort
        # by j). Consecutive destinations are cut into tiles; within a tile
        # every node gets as many slots per direction as the fullest node,
        # and padded slots read row n, the zero row appended to the operand.
        # A tile is [lo, hi, transposed slots, as-stored slots], each slot
        # set being (width, source nodes, block indices). Building tile by
        # tile with int32 indices keeps the plan and its temporaries small:
        # whole-array int64 builds left enough heap behind at n=6400 to
        # raise the next instance's peak memory by ~9%.
        if self._matvec_cache is None:
            n, m, d = self.n, self.pair_count, self.d
            index_type = np.int32 if max(n, m) < 2**31 else np.int64
            i_arr, j_arr = self.pairs.astype(index_type).T
            jorder = np.argsort(j_arr, kind="stable").astype(index_type)
            directions = (
                (np.bincount(j_arr, minlength=n), i_arr[jorder], jorder),
                (np.bincount(i_arr, minlength=n), j_arr, np.arange(m, dtype=index_type)),
            )
            starts = [np.cumsum(deg) - deg for deg, _, _ in directions]
            budget = max(1, _MATVEC_TILE_ELEMS // (d * d))
            tiles = []
            lo = 0
            while lo < n:
                width = sum(np.maximum.accumulate(deg[lo : lo + budget])
                            for deg, _, _ in directions)
                cost = width * np.arange(1, width.size + 1)
                hi = lo + max(1, int(np.searchsorted(cost, budget, side="right")))
                tile = [lo, hi]
                for (deg, src, blk), start in zip(directions, starts):
                    slot = np.arange(int(deg[lo:hi].max()))
                    live = slot < deg[lo:hi, None]
                    pos = np.where(live, start[lo:hi, None] + slot, 0)
                    tile.append((slot.size, np.where(live, src[pos], n).ravel(),
                                 np.where(live, blk[pos], 0).ravel()))
                tiles.append(tile)
                lo = hi
            self._matvec_cache = tiles
        return self._matvec_cache

    def matvec(self, x):
        """Multiply by a vector or a tall matrix of shape (n*d, ...).

        Cost O(d^2 * pair_count) per column. Per tile of destination nodes
        and per direction, two gathers (blocks and operand rows) feed one
        batched GEMM whose inner dimension is degree * d, so numpy's
        per-call overhead is paid once per tile of about 2^15 block
        elements rather than once per block. The full square matrix is
        never formed.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.shape[0] != self.nd:
            raise ValidationError(f"operand must have {self.nd} rows")
        n, d, c = self.n, self.d, x.shape[1]
        xb = np.empty((n + 1, d, c))
        xb[:n] = x.reshape(n, d, c)
        xb[n] = 0.0
        y = np.zeros((n, d, c))
        if self.pair_count:
            for lo, hi, *directions in self._matvec_tiles():
                for transposed, (width, src, blk) in zip((True, False), directions):
                    if not width:
                        continue
                    # Slot s applies block^T (transposed direction) or
                    # block; stacking the transposes of those operators
                    # per node makes each node's (d, width*d) panel a
                    # transposed view rather than a copy.
                    blocks = np.take(self.data, blk, axis=0)
                    if not transposed:
                        blocks = blocks.transpose(0, 2, 1)
                    panel = blocks.reshape(hi - lo, width * d, d).transpose(0, 2, 1)
                    rows = np.take(xb, src, axis=0).reshape(hi - lo, width * d, c)
                    y[lo:hi] += np.matmul(panel, rows)
        out = y.reshape(self.nd, c)
        return out[:, 0] if single else out

    def restrict(self, nodes):
        """Principal block submatrix on the given nodes, re-indexed 0..len-1.

        Nodes are taken in ascending order, so relative order (and the i < j
        orientation of stored blocks) is preserved.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0:
            raise ValidationError("nodes must be non-empty")
        if nodes.min() < 0 or nodes.max() >= self.n:
            raise ValidationError("nodes out of range")
        lookup = np.full(self.n, -1, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size)
        if self.pair_count:
            mapped = lookup[self.pairs]
            keep = (mapped >= 0).all(axis=1)
            return SparseBlockMatrix(nodes.size, self.d, mapped[keep], self.data[keep])
        return SparseBlockMatrix(
            nodes.size, self.d, np.empty((0, 2), np.int64), np.empty((0, self.d, self.d))
        )

    def to_dense(self):
        """Materialize the full (n*d, n*d) array. Test and oracle use only."""
        out = np.zeros((self.nd, self.nd))
        d = self.d
        for r, (i, j) in enumerate(self.pairs):
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = self.data[r]
            out[j * d : (j + 1) * d, i * d : (i + 1) * d] = self.data[r].T
        return out


def generate_ground_truth(params, source=None):
    """Draw ground truth: contiguous cluster labels and Haar transforms.

    The first sizes[0] nodes form cluster 1, the next sizes[1] cluster 2,
    and so on. Transforms are i.i.d. Haar orthogonal. Deterministic given
    params.seed (or the explicit source).

    Args:
        params: validated ModelParams.
        source: RandomSource; defaults to RandomSource(params.seed).

    Returns:
        GroundTruth.
    """
    if source is None:
        source = RandomSource(params.seed)
    labels = np.repeat(np.arange(1, params.K + 1), params.sizes)
    z = source.stream(_STREAM_TRANSFORMS).standard_normal((params.n, params.d, params.d))
    transforms = haar_from_normals(z)
    return GroundTruth(
        n=params.n,
        K=params.K,
        d=params.d,
        labels=labels,
        transforms=transforms,
        sizes=np.asarray(params.sizes, dtype=np.int64),
    )


def _pair_grid(n):
    """All unordered pairs i < j in lexicographic order."""
    return np.triu_indices(n, k=1)


def generate_observation(gt, p, q, source):
    """Draw the random block observation matrix.

    Independently for each unordered pair i < j: a same-cluster pair carries
    the exact relative transform O_i O_j^T with probability p; a cross-pair
    carries a Haar-uniform block with probability q; otherwise the pair is
    absent. Setting p=1, q=0 gives the noiseless matrix, which stores
    exactly the same-cluster pairs.

    Args:
        gt: GroundTruth.
        p: within-cluster block probability in [0, 1].
        q: cross-cluster block probability in [0, 1].
        source: RandomSource rooting the presence and impostor draws.

    Returns:
        SparseBlockMatrix.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    n, d = gt.n, gt.d
    i_arr, j_arr = _pair_grid(n)
    same = gt.labels[i_arr] == gt.labels[j_arr]
    u = source.stream(_STREAM_PRESENCE).random(i_arr.size)
    present = np.where(same, u < p, u < q)
    within = present & same

    pairs = np.column_stack((i_arr[present], j_arr[present]))
    data = np.empty((int(present.sum()), d, d))
    within_in_present = same[present]
    if within.any():
        oi = gt.transforms[i_arr[within]]
        oj = gt.transforms[j_arr[within]]
        data[within_in_present] = np.matmul(oi, oj.transpose(0, 2, 1))
    cross_count = int(present.sum()) - int(within.sum())
    if cross_count:
        z = source.stream(_STREAM_CROSS).standard_normal((cross_count, d, d))
        data[~within_in_present] = haar_from_normals(z)
    return SparseBlockMatrix(n, d, pairs, data)


def generate_instance(params, source=None):
    """Draw a full instance: ground truth plus its observation matrix.

    Noise is applied when params.sigma > 0. Deterministic given params.seed
    (or the explicit source).

    Returns:
        (GroundTruth, SparseBlockMatrix).
    """
    if source is None:
        source = RandomSource(params.seed)
    gt = generate_ground_truth(params, source)
    a = generate_observation(gt, params.p, params.q, source)
    if params.sigma > 0:
        a = add_gaussian_noise(a, params.sigma, source)
    return gt, a


def add_gaussian_noise(a, sigma, source):
    """Perturb every pair i < j with an i.i.d. N(0, sigma^2) block.

    Noise lands on all pairs, including absent ones, so the result stores a
    block for every pair (dense by block). Symmetry is preserved because
    only the i < j direction is stored; diagonal blocks stay zero. sigma=0
    returns the input unchanged.

    Args:
        a: SparseBlockMatrix.
        sigma: noise level, >= 0.
        source: RandomSource rooting the noise draws.

    Returns:
        SparseBlockMatrix.
    """
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    if sigma == 0:
        return a
    n, d = a.n, a.d
    i_arr, j_arr = _pair_grid(n)
    data = source.stream(_STREAM_NOISE).standard_normal((i_arr.size, d, d))
    data *= sigma
    if a.pair_count:
        # Canonical position of each stored pair among all pairs.
        i0, j0 = a.pairs[:, 0], a.pairs[:, 1]
        slots = i0 * (2 * n - i0 - 1) // 2 + (j0 - i0 - 1)
        data[slots] += a.data
    pairs = np.column_stack((i_arr, j_arr))
    return SparseBlockMatrix(n, d, pairs, data)


def _write_header(fh, n, K, d, kind, count):
    fh.write(_MAGIC)
    fh.write(struct.pack("<6I", _FORMAT_VERSION, n, K, d, kind, count))


def _read_header(fh, path):
    head = fh.read(4 + 6 * 4)
    if len(head) != 4 + 6 * 4:
        raise ParseError(f"{path}: truncated header")
    if head[:4] != _MAGIC:
        raise ParseError(f"{path}: bad magic {head[:4]!r}")
    version, n, K, d, kind, count = struct.unpack("<6I", head[4:])
    if version != _FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    if kind not in (_KIND_MATRIX, _KIND_GROUND_TRUTH):
        raise ParseError(f"{path}: unknown record kind {kind}")
    if n < 1 or d < 1:
        raise ParseError(f"{path}: invalid dimensions n={n} d={d}")
    return n, K, d, kind, count


def _triplet_dtype(d):
    return np.dtype([("i", "<u4"), ("j", "<u4"), ("block", "<f8", (d * d,))])


def save_matrix(path, a, K):
    """Write a SparseBlockMatrix to the binary container.

    Layout, little-endian: magic "JSYN", version u32, n u32, K u32, d u32,
    kind u32 (0 for a matrix), count u32, then count triplets of
    (i u32, j u32, d*d f64 row-major). K travels in the header so a solver
    run can be reproduced from the file alone.
    """
    trip = np.empty(a.pair_count, dtype=_triplet_dtype(a.d))
    trip["i"] = a.pairs[:, 0]
    trip["j"] = a.pairs[:, 1]
    trip["block"] = a.data.reshape(a.pair_count, -1)
    with open(path, "wb") as fh:
        _write_header(fh, a.n, int(K), a.d, _KIND_MATRIX, a.pair_count)
        trip.tofile(fh)


def load_matrix(path):
    """Read a matrix container; returns (SparseBlockMatrix, K)."""
    with open(path, "rb") as fh:
        n, K, d, kind, count = _read_header(fh, path)
        if kind != _KIND_MATRIX:
            raise ParseError(f"{path}: expected a matrix record")
        trip = np.fromfile(fh, dtype=_triplet_dtype(d), count=count)
        if trip.size != count:
            raise ParseError(f"{path}: truncated block data")
    pairs = np.column_stack((trip["i"].astype(np.int64), trip["j"].astype(np.int64)))
    data = trip["block"].reshape(count, d, d)
    return SparseBlockMatrix(n, d, pairs, data), K


def save_labeling(path, K, labels, transforms):
    """Write a (labels, transforms) pair to the binary container.

    Same header as matrices with kind 1, followed by n u32 labels, then one
    (i, i, O_i) triplet per node carrying the transforms. Unlike GroundTruth
    this tolerates empty clusters, so recovered estimates can be stored too.
    """
    labels = np.asarray(labels, dtype=np.int64)
    transforms = np.asarray(transforms, dtype=np.float64)
    if labels.ndim != 1:
        raise ValidationError("labels must be a 1-d array")
    n = labels.shape[0]
    d = transforms.shape[-1] if transforms.ndim else 0
    if transforms.shape != (n, d, d):
        raise ValidationError("transforms must be an (n, d, d) stack")
    if n and (labels.min() < 1 or labels.max() > K):
        raise ValidationError("labels must lie in 1..K")
    trip = np.empty(n, dtype=_triplet_dtype(d))
    trip["i"] = np.arange(n)
    trip["j"] = np.arange(n)
    trip["block"] = transforms.reshape(n, -1)
    with open(path, "wb") as fh:
        _write_header(fh, n, int(K), d, _KIND_GROUND_TRUTH, n)
        labels.astype("<u4").tofile(fh)
        trip.tofile(fh)


def load_labeling(path):
    """Read a labeling container; returns (labels, transforms, K)."""
    with open(path, "rb") as fh:
        n, K, d, kind, count = _read_header(fh, path)
        if kind != _KIND_GROUND_TRUTH:
            raise ParseError(f"{path}: expected a labeling record")
        if count != n:
            raise ParseError(f"{path}: labelings must store one block per node")
        labels = np.fromfile(fh, dtype="<u4", count=n)
        if labels.size != n:
            raise ParseError(f"{path}: truncated labels")
        trip = np.fromfile(fh, dtype=_triplet_dtype(d), count=count)
        if trip.size != count:
            raise ParseError(f"{path}: truncated block data")
    labels = labels.astype(np.int64)
    if labels.min() < 1 or labels.max() > K:
        raise ParseError(f"{path}: stored labels leave 1..K")
    return labels, trip["block"].reshape(n, d, d), K


def save_ground_truth(path, gt):
    """Write a GroundTruth to the binary container (kind 1)."""
    save_labeling(path, gt.K, gt.labels, gt.transforms)


def load_ground_truth(path):
    """Read a labeling container back into a validated GroundTruth."""
    labels, transforms, K = load_labeling(path)
    sizes = np.bincount(labels, minlength=K + 1)[1:]
    try:
        return GroundTruth(n=labels.shape[0], K=K, d=transforms.shape[1],
                           labels=labels, transforms=transforms, sizes=sizes)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None
