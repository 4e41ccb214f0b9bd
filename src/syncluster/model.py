"""Random-model generation and the block-sparse observation matrix.

Ground truth assigns each node a cluster label and a Haar-random orthogonal
transform. The observation matrix holds, for a random subset of node pairs,
either the true relative transform (within clusters, probability p) or a
Haar-uniform impostor block (across clusters, probability q). An additive
variant perturbs every pair with Gaussian noise. A small binary container
format round-trips both structures to disk. The matrix multiplies through
batched GEMMs over tiles of destination nodes, O(d^2) work per stored block
and column. Tiles hold nodes of similar degree, so they carry almost no
padding, and a node's blocks or operand rows that lie in one contiguous run
(as every node's source rows do when every pair is stored) are read in
place rather than copied.

All randomness is rooted in a single integer seed through named Philox
streams, each owned by one consumer and read in a fixed order, so a run is
bit-reproducible from its seed alone and never depends on scheduling. The
presence stream is read block by block, one (cluster a, cluster b) block of
the pair triangle at a time with a <= b; the impostor and noise streams are
read in the lexicographic order of the pairs they fill. Generation costs
O(m) time and memory for m stored blocks, and fills the blocks over slices
of the pair range, so no whole-length gather or draw sits beside them;
sigma > 0 stores every pair and is bounded by a memory budget instead.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError, ParseError, ValidationError, as_floats, as_index, as_indices, as_real,
    as_values,
)
from .linalg import haar_from_normals

# Named stream keys. Each consumer of randomness owns one key so streams
# stay independent no matter which consumers actually run.
_STREAM_TRANSFORMS = 0
_STREAM_PRESENCE = 1
_STREAM_CROSS = 2
_STREAM_NOISE = 3
_STREAM_SOLVER = 4  # the eigensolver's starting basis

# Block elements per matvec tile, each tile serving one direction (4096
# slots at d=2, nearly all of them real): large enough that per-tile numpy
# overhead is small against the arithmetic, small enough that gathered
# blocks and operand rows stay cache-sized. A node wider than this gets a
# tile of its own.
_MATVEC_TILE_ELEMS = 1 << 14

# Block elements per slice of the pair range that generate_observation
# fills at a time (1 MiB of blocks): its gathered transforms, normal draws
# and Haar factors are then bounded by the slice, not by the stored blocks.
_GENERATE_SLICE_ELEMS = 1 << 17

# Largest noise-block payload (n(n-1)/2 * d^2 float64s) that sigma > 0 may
# draw. The noise path peaks at about 1.4 times the bytes it stores (the
# noise blocks and the pairs, which SparseBlockMatrix keeps without
# copying, plus the index grid and the constructor's checks), so a size
# over this fails with ValidationError before anything is allocated, not
# with an out-of-memory kill partway through.
_DENSE_NOISE_BUDGET_BYTES = 1 << 30

# Largest n whose pair keys i*n + j < n**2 fit int64: isqrt(2**63 - 1).
_MAX_NODES = 3_037_000_499

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
        self.seed = as_index(seed, "seed")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def stream(self, *key):
        """Return the Philox generator for the given stream key."""
        ss = np.random.SeedSequence(self.seed, spawn_key=tuple(as_index(k, "key") for k in key))
        return np.random.Generator(np.random.Philox(ss))

    def subseed(self, *key):
        """Derive a replayable integer seed for a child run."""
        ss = np.random.SeedSequence(self.seed, spawn_key=tuple(as_index(k, "key") for k in key))
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
        for name in ("n", "K", "d", "seed"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.K < 1:
            raise ValidationError("K must be at least 1")
        if self.d < 1:
            raise ValidationError("d must be at least 1")
        if not 0.0 <= as_real(self.p, "p") <= 1.0:
            raise ValidationError("p must lie in [0, 1]")
        if not 0.0 <= as_real(self.q, "q") <= 1.0:
            raise ValidationError("q must lie in [0, 1]")
        if not 0.0 <= as_real(self.sigma, "sigma") < np.inf:
            raise ValidationError("sigma must be finite and non-negative")
        if self.sigma > 0:
            _check_dense_noise_budget(self.n, self.d)
        if self.sizes is None:
            base, extra = divmod(self.n, self.K)
            if base == 0:
                raise ValidationError("n must be at least K so every cluster is non-empty")
            sizes = tuple(base + (1 if k < extra else 0) for k in range(self.K))
            object.__setattr__(self, "sizes", sizes)
        else:
            sizes = tuple(as_index(s, "sizes") for s in as_values(self.sizes, "sizes"))
            object.__setattr__(self, "sizes", sizes)
            if len(sizes) != self.K:
                raise ValidationError("sizes must list exactly K cluster sizes")
            if any(s < 1 for s in sizes):
                raise ValidationError("every cluster size must be at least 1")
            if sum(sizes) != self.n:
                raise ValidationError("cluster sizes must sum to n")


@dataclass(frozen=True)
class GroundTruth:
    """True cluster labels (1-based) and per-node orthogonal transforms.

    The rest follows from these two: n and d from the (n, d, d) transforms,
    K = labels.max(), and sizes the per-cluster label counts. Every
    cluster 1..K must appear.
    """

    labels: np.ndarray
    transforms: np.ndarray
    n: int = field(init=False)
    K: int = field(init=False)
    d: int = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = as_indices(self.labels, "labels")
        transforms = as_floats(self.transforms, "transforms")
        if labels.ndim != 1 or labels.size == 0:
            raise ValidationError("labels must be a non-empty 1-d array")
        n = labels.shape[0]
        d = transforms.shape[-1] if transforms.ndim else 0
        if transforms.shape != (n, d, d):
            raise ValidationError("transforms must be an (n, d, d) stack")
        # Clusters 1..K all appear only if every label lies in 1..n; checked
        # first, this also bounds the bincount.
        if labels.min() < 1 or labels.max() > n:
            raise ValidationError("labels must lie in 1..n")
        sizes = np.bincount(labels)[1:]
        if (sizes == 0).any():
            raise ValidationError("every cluster index in 1..K must appear at least once")
        for arr in (labels, transforms, sizes):
            arr.flags.writeable = False
        for name, value in (("labels", labels), ("transforms", transforms), ("n", n),
                            ("K", int(labels.max())), ("d", d), ("sizes", sizes)):
            object.__setattr__(self, name, value)

    def cluster_nodes(self, k):
        """Node indices of cluster k (1-based k), ascending."""
        return np.flatnonzero(self.labels == k)


class SparseBlockMatrix:
    """Symmetric n x n matrix of d x d blocks, sparse by block.

    Only blocks (i, j) with i < j are stored, as matching rows of pairs and
    data sorted by the key i*n + j (n <= isqrt(2**63 - 1): keys fit int64);
    block (j, i) is the transpose and diagonal blocks are zero. The backing
    arrays are read-only, so instances are safe to share. Input whose keys
    strictly increase is not re-sorted; copy=False then keeps the caller's
    arrays (when C-contiguous and of the right dtype) instead of copying
    them, for callers that hold no other reference to them.
    """

    def __init__(self, n, d, pairs, data, *, copy=True):
        self.n = as_index(n, "n")
        self.d = as_index(d, "d")
        if self.n < 1 or self.d < 1:
            raise ValidationError("n and d must be at least 1")
        if self.n > _MAX_NODES:
            raise ValidationError(f"n must be at most {_MAX_NODES}, so that pair keys fit int64")
        pairs = as_indices(pairs, "pair indices")
        data = np.ascontiguousarray(as_floats(data, "data"))
        if pairs.size % 2 or (pairs.ndim > 1 and pairs.shape[-1] != 2):
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
        # Strictly increasing keys are sorted and distinct already; anything
        # else is sorted here, and only then can it hold duplicates.
        key = pairs[:, 0] * self.n + pairs[:, 1]
        if not (np.diff(key) > 0).all():
            order = np.argsort(key)
            if (np.diff(key[order]) == 0).any():
                raise ValidationError("duplicate block pair")
            pairs, data = pairs[order], data[order]
        elif copy:
            pairs, data = pairs.copy(), data.copy()
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
        # Slots grouped by destination node, one direction at a time: the
        # transposes of stored (i, j) blocks feed j, then the blocks as
        # stored feed i (the pairs being sorted by i already). The j-order
        # sorts the distinct keys j*n + i, so it is the stable order by j of
        # pairs stored by key i*n + j, whatever the sort kind. Per
        # direction, the nodes of nonzero degree are taken in ascending
        # order of degree (stable) and cut into tiles of at most the budget
        # in slots; a tile's width is its last node's degree, so padding is
        # rare. Padded slots read row n, the zero row appended to the
        # operand. A tile is (transposed, nodes, width, source nodes, block
        # indices); an index array that is an ascending contiguous run is
        # stored as a slice, which the matvec reads as a view. Building tile
        # by tile with int32 indices keeps the plan and its temporaries
        # small: whole-array int64 builds left enough heap behind at n=6400
        # to raise the next instance's peak memory by ~9%. The sort key is
        # int32 too while n*n fits, and is freed before the tiles are built.
        if self._matvec_cache is None:
            n, m, d = self.n, self.pair_count, self.d
            index_type = np.int32 if max(n, m) < 2**31 else np.int64
            i_arr, j_arr = self.pairs.astype(index_type).T
            key = j_arr.astype(np.int32 if n * n < 2**31 else np.int64)
            key *= n
            key += i_arr
            jorder = np.argsort(key).astype(index_type)
            del key
            budget = max(1, _MATVEC_TILE_ELEMS // (d * d))
            tiles = []
            for transposed, deg, src, blk in (
                (True, np.bincount(j_arr, minlength=n), i_arr[jorder], jorder),
                (False, np.bincount(i_arr, minlength=n), j_arr,
                 np.arange(m, dtype=index_type)),
            ):
                start = np.cumsum(deg) - deg
                order = np.argsort(deg, kind="stable").astype(index_type)
                order = order[deg[order] > 0]
                sorted_deg = deg[order]
                lo = 0
                while lo < order.size:
                    head = sorted_deg[lo : lo + budget]
                    cost = head * np.arange(1, head.size + 1)
                    hi = lo + max(1, int(np.searchsorted(cost, budget, side="right")))
                    nodes = order[lo:hi]
                    width = int(sorted_deg[hi - 1])
                    slot = np.arange(width)
                    live = slot < deg[nodes, None]
                    pos = np.where(live, start[nodes, None] + slot, 0)
                    tiles.append((transposed, _as_run(nodes), width,
                                  _as_run(np.where(live, src[pos], n).ravel()),
                                  _as_run(np.where(live, blk[pos], 0).ravel())))
                    lo = hi
            self._matvec_cache = tiles
        return self._matvec_cache

    def matvec(self, x):
        """Multiply by a vector or a tall matrix of shape (n*d, ...).

        Cost O(d^2 * pair_count) per column. Per tile of destination nodes
        and per direction, the blocks and operand rows feed one batched
        GEMM whose inner dimension is degree * d, so numpy's per-call
        overhead is paid once per tile of about 2^14 block elements rather
        than once per block. Rows and blocks that sit in one contiguous run
        are read in place; only scattered ones are gathered, through
        np.take. The full square matrix is never formed.
        """
        x = as_floats(x, "operand")
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.nd:
            raise ValidationError(f"operand must be a vector or matrix with {self.nd} rows")
        n, d, c = self.n, self.d, x.shape[1]
        xb = np.empty((n + 1, d, c))
        xb[:n] = x.reshape(n, d, c)
        xb[n] = 0.0
        y = np.zeros((n, d, c))
        for transposed, nodes, width, src, blk in self._matvec_tiles():
            # Slot s applies block^T (transposed direction) or block;
            # stacking the transposes of those operators per node makes each
            # node's (d, width*d) panel a transposed view rather than a copy.
            blocks = _read(self.data, blk)
            if not transposed:
                blocks = blocks.transpose(0, 2, 1)
            panel = blocks.reshape(-1, width * d, d).transpose(0, 2, 1)
            rows = _read(xb, src).reshape(-1, width * d, c)
            y[nodes] += np.matmul(panel, rows)
        out = y.reshape(self.nd, c)
        return out[:, 0] if single else out


def _as_run(idx):
    """idx as a slice when it is an ascending contiguous run, else idx."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _read(arr, idx):
    """Rows idx of arr: a view for a slice, an np.take gather otherwise."""
    return arr[idx] if isinstance(idx, slice) else np.take(arr, idx, axis=0)


def generate_ground_truth(params):
    """Draw ground truth: contiguous cluster labels and Haar transforms.

    The first sizes[0] nodes form cluster 1, the next sizes[1] cluster 2,
    and so on. Transforms are i.i.d. Haar orthogonal. Deterministic given
    params.seed.

    Args:
        params: validated ModelParams.

    Returns:
        GroundTruth.
    """
    labels = np.repeat(np.arange(1, params.K + 1), params.sizes)
    rng = RandomSource(params.seed).stream(_STREAM_TRANSFORMS)
    transforms = haar_from_normals(rng.standard_normal((params.n, params.d, params.d)))
    return GroundTruth(labels=labels, transforms=transforms)


def _check_dense_noise_budget(n, d):
    """Reject a noisy size whose every-pair noise blocks exceed the budget."""
    need = n * (n - 1) // 2 * d * d * 8
    if need > _DENSE_NOISE_BUDGET_BYTES:
        raise ValidationError(
            f"sigma > 0 stores a block for every pair: n={n}, d={d} needs "
            f"{need / 2**30:.2f} GiB of noise blocks, over the "
            f"{_DENSE_NOISE_BUDGET_BYTES / 2**30:g} GiB budget"
        )


def _unrank_triangle(ranks, s):
    """Pairs (i, j) with i < j < s at the given lexicographic ranks.

    Row i starts at rank i(2s - i - 1)/2, so the row of rank r is the
    smaller root of that quadratic, taken in float64 and then corrected by
    at most one in either direction with exact integer arithmetic.

    Returns:
        (i, j) int64 arrays shaped like ranks.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    b = 2 * s - 1
    i = np.floor((b - np.sqrt(float(b) * b - 8.0 * ranks)) / 2).astype(np.int64)
    i -= i * (b - i) // 2 > ranks
    i += (i + 1) * (b - i - 1) // 2 <= ranks
    return i, ranks - i * (b - i) // 2 + i + 1


def _sample_pairs(gt, p, q, rng):
    """The stored pairs of generate_observation, an (m, 2) int64 array in key order.

    Its per-block arrays are freed on return, before the caller allocates
    the blocks.
    """
    n, sizes = gt.n, gt.sizes.tolist()
    members = np.split(np.argsort(gt.labels, kind="stable"), np.cumsum(sizes)[:-1])
    keys = []
    for a in range(gt.K):
        for b in range(a, gt.K):
            total = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            count = rng.binomial(total, p if a == b else q)
            ranks = rng.choice(total, count, replace=False)
            if a == b:
                x, y = _unrank_triangle(ranks, sizes[a])
            else:
                x, y = np.divmod(ranks, sizes[b])
            u, v = members[a][x], members[b][y]
            keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    keys = np.concatenate(keys)
    keys.sort()
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def generate_observation(gt, p, q, source):
    """Draw the random block observation matrix in O(m) time and memory.

    Independently for each unordered pair i < j: a same-cluster pair carries
    the exact relative transform O_i O_j^T with probability p; a cross-pair
    carries a Haar-uniform block with probability q; otherwise the pair is
    absent. Setting p=1, q=0 gives the noiseless matrix, which stores
    exactly the same-cluster pairs.

    Only the m stored pairs are ever drawn. For each (cluster a, cluster b)
    block of the pair triangle, a <= b in order, the presence stream gives
    a Binomial(total, p or q) count and then that many distinct ranks among
    the block's total pairs, unranked to (i, j) by divmod (a < b) or the
    triangle inverse (a == b); one in-place sort of their keys i*n + j
    orders them. The blocks are then written over fixed-size slices of the
    sorted pairs, each slice taking its impostor blocks from the cross
    stream in the order of its cross pairs, so the stream is read in the
    sorted order of all cross pairs and the gathers and draws beside the
    stored blocks are bounded by one slice.

    Args:
        gt: GroundTruth.
        p: within-cluster block probability in [0, 1].
        q: cross-cluster block probability in [0, 1].
        source: RandomSource rooting the presence and impostor draws.

    Returns:
        SparseBlockMatrix.
    """
    if not 0.0 <= as_real(p, "p") <= 1.0:
        raise ValidationError("p must lie in [0, 1]")
    if not 0.0 <= as_real(q, "q") <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    d = gt.d
    pairs = _sample_pairs(gt, p, q, source.stream(_STREAM_PRESENCE))

    # Reading the cross stream in pieces, in pair order, gives the same
    # draws as reading it at once.
    data = np.empty((pairs.shape[0], d, d))
    cross = source.stream(_STREAM_CROSS)
    step = max(1, _GENERATE_SLICE_ELEMS // (d * d))
    for lo in range(0, pairs.shape[0], step):
        i_arr, j_arr = pairs[lo : lo + step].T
        out = data[lo : lo + step]
        within = gt.labels[i_arr] == gt.labels[j_arr]
        out[within] = np.matmul(gt.transforms[i_arr[within]],
                                gt.transforms[j_arr[within]].transpose(0, 2, 1))
        cross_count = within.size - np.count_nonzero(within)
        if cross_count:
            out[~within] = haar_from_normals(cross.standard_normal((cross_count, d, d)))
    return SparseBlockMatrix(gt.n, d, pairs, data, copy=False)


def generate_instance(params):
    """Draw a full instance: ground truth plus its observation matrix.

    Noise is applied when params.sigma > 0. Deterministic given params.seed.

    Returns:
        (GroundTruth, SparseBlockMatrix).
    """
    source = RandomSource(params.seed)
    gt = generate_ground_truth(params)
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
        sigma: noise level, finite and >= 0.
        source: RandomSource rooting the noise draws.

    Returns:
        SparseBlockMatrix.

    Raises:
        ValidationError: sigma > 0 and the n(n-1)/2 noise blocks would
            exceed the dense-noise memory budget (1 GiB).
    """
    if not 0.0 <= as_real(sigma, "sigma") < np.inf:
        raise ValidationError("sigma must be finite and non-negative")
    if sigma == 0:
        return a
    n, d = a.n, a.d
    _check_dense_noise_budget(n, d)
    pairs = np.column_stack(np.triu_indices(n, k=1))
    data = source.stream(_STREAM_NOISE).standard_normal((pairs.shape[0], d, d))
    data *= sigma
    if a.pair_count:
        # Canonical position of each stored pair among all pairs.
        i0, j0 = a.pairs[:, 0], a.pairs[:, 1]
        slots = i0 * (2 * n - i0 - 1) // 2 + (j0 - i0 - 1)
        # In place; data[slots] += a.data would first gather a copy of them.
        np.add.at(data, slots, a.data)
    return SparseBlockMatrix(n, d, pairs, data, copy=False)


def _header_k(K):
    """K as an int the header's u32 holds, for the writers to check first."""
    K = as_index(K, "K")
    if not 1 <= K <= 2**32 - 1:
        raise ValidationError("K must lie in 1..2**32 - 1, the header's u32 range")
    return K


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
    K = _header_k(K)
    trip = np.empty(a.pair_count, dtype=_triplet_dtype(a.d))
    trip["i"] = a.pairs[:, 0]
    trip["j"] = a.pairs[:, 1]
    trip["block"] = a.data.reshape(a.pair_count, -1)
    with open(path, "wb") as fh:
        _write_header(fh, a.n, K, a.d, _KIND_MATRIX, a.pair_count)
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
    return SparseBlockMatrix(n, d, pairs, data, copy=False), K


def save_labeling(path, K, labels, transforms):
    """Write a (labels, transforms) pair to the binary container.

    Same header as matrices with kind 1, followed by n u32 labels, then one
    (i, i, O_i) triplet per node carrying the transforms. Unlike GroundTruth
    this tolerates empty clusters, so recovered estimates can be stored too.
    """
    K = _header_k(K)
    labels = as_indices(labels, "labels")
    transforms = as_floats(transforms, "transforms")
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
        _write_header(fh, n, K, d, _KIND_GROUND_TRUTH, n)
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
    try:
        gt = GroundTruth(labels=labels, transforms=transforms)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if gt.K != K:
        raise ParseError(f"{path}: every cluster index in 1..{K} must appear at least once")
    return gt
