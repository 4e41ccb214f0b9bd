"""Random-model generation and the block-sparse observation matrix.

Ground truth assigns each node a cluster label and a Haar-random orthogonal
transform. The observation matrix holds, for a random subset of node pairs,
either the true relative transform (within clusters, probability p) or a
Haar-uniform impostor block (across clusters, probability q). An additive
variant perturbs every pair with Gaussian noise. Both structures round-trip
to disk as numpy .npz archives. The matrix multiplies through batched GEMMs
over tiles of destination nodes, O(d^2) work per stored block and column.
Tiles hold nodes of similar degree, so they carry almost no padding, and a
node's blocks or operand rows that lie in one contiguous run (as every
node's source rows do when every pair is stored) are read in place rather
than copied.

All randomness is rooted in a single integer seed through named Philox
streams, each owned by one consumer and read in a fixed order, so a run is
bit-reproducible from its seed alone and never depends on scheduling. The
presence stream is read block by block, one (cluster a, cluster b) block of
the pair triangle at a time with a <= b; the impostor and noise streams are
read in the lexicographic order of the pairs they fill. Generation costs
O(m) time and memory for m stored blocks, and fills the blocks over slices
of the pair range, so no whole-length gather or draw sits beside them;
sigma > 0 stores every pair, each slice taking its noise and then the
signal of its sampled pairs in the same pass. ModelParams bounds the
blocks and true transforms either model holds by one memory budget.
"""

from contextlib import contextmanager
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

# Block elements per slice of the pair range that _generate_observation
# fills, and that SparseBlockMatrix checks, at a time (1 MiB of blocks): the
# gathered transforms, normal draws and Haar factors, and the checks'
# masks and keys, are then bounded by the slice, not by the stored blocks.
_SLICE_ELEMS = 1 << 17

# Largest expected payload of d^2 float64s, per stored pair and per node's
# true transform, an instance may hold: every pair when sigma > 0, and p or
# q of each cluster block's pairs otherwise. Generation peaks at about 1.06
# (sigma > 0) to 1.3 (sparse) times the bytes it stores, so a size over
# this fails with ValidationError in ModelParams, before anything is
# allocated, not with an out-of-memory kill partway through.
_STORED_BYTES_BUDGET = 1 << 30

# Largest n whose pair keys i*n + j < n**2 fit int64: isqrt(2**63 - 1).
_MAX_NODES = 3_037_000_499


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

    def _sequence(self, key):
        """The SeedSequence of (seed, key); every key part a non-negative integer."""
        key = tuple(as_index(k, "key") for k in key)
        if any(k < 0 for k in key):
            raise ValidationError("key must be non-negative")
        return np.random.SeedSequence(self.seed, spawn_key=key)

    def stream(self, *key):
        """Return the Philox generator for the given stream key."""
        return np.random.Generator(np.random.Philox(self._sequence(key)))

    def subseed(self, *key):
        """Derive a replayable integer seed for a child run."""
        return int(self._sequence(key).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the random block model.

    sizes defaults to an equal split of n over K clusters (larger clusters
    first when K does not divide n). sigma is the additive Gaussian noise
    level; 0 means the base model. The blocks an instance is expected to
    store and its transforms must fit the 1 GiB _STORED_BYTES_BUDGET.
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
        n, d = self.n, self.d
        pairs = n * (n - 1) // 2
        if self.sigma == 0:
            within = sum(s * (s - 1) // 2 for s in sizes)
            pairs = self.p * within + self.q * (pairs - within)
        need = (pairs + n) * d * d * 8  # the n true transforms are d x d too
        if need > _STORED_BYTES_BUDGET:
            raise ValidationError(
                f"n={n}, d={d}, sigma={self.sigma:g} expects {need / 2**30:.2f} GiB of stored "
                f"blocks and transforms, over the {_STORED_BYTES_BUDGET / 2**30:g} GiB budget"
            )


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
        # The checks run over slices of the pairs, so their temporaries are
        # bounded by a slice rather than sized like the stored arrays.
        step = max(1, _SLICE_ELEMS // (self.d * self.d))
        starts = range(0, pairs.shape[0], step)
        if not all(np.isfinite(data[lo : lo + step]).all() for lo in starts):
            raise NonFiniteError("block data contains NaN or Inf entries")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n):
            raise ValidationError("pair indices must lie in 0..n-1")
        if any((pairs[lo : lo + step, 0] >= pairs[lo : lo + step, 1]).any() for lo in starts):
            raise ValidationError("every stored pair must satisfy i < j")
        # Strictly increasing keys are sorted and distinct already; anything
        # else is sorted here, and only then can it hold duplicates.
        if not _keys_increase(pairs, self.n, step):
            key = pairs[:, 0] * self.n + pairs[:, 1]
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


def _keys_increase(pairs, n, step):
    """Whether the keys i*n + j of pairs strictly increase, step pairs at a time.

    Each slice's first key is checked against the last key before it.
    """
    last = -1
    for lo in range(0, pairs.shape[0], step):
        key = pairs[lo : lo + step, 0] * n
        key += pairs[lo : lo + step, 1]
        if key[0] <= last or not (key[1:] > key[:-1]).all():
            return False
        last = key[-1]
    return True


def _as_run(idx):
    """idx as a slice when it is an ascending contiguous run, else idx."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _read(arr, idx):
    """Rows idx of arr: a view for a slice, an np.take gather otherwise."""
    return arr[idx] if isinstance(idx, slice) else np.take(arr, idx, axis=0)


def _generate_ground_truth(params):
    """Contiguous cluster labels and i.i.d. Haar transforms for params.

    The first sizes[0] nodes form cluster 1, the next sizes[1] cluster 2,
    and so on.
    """
    labels = np.repeat(np.arange(1, params.K + 1), params.sizes)
    rng = RandomSource(params.seed).stream(_STREAM_TRANSFORMS)
    transforms = haar_from_normals(rng.standard_normal((params.n, params.d, params.d)))
    return GroundTruth(labels=labels, transforms=transforms)


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
    """The stored pairs of _generate_observation, an (m, 2) int64 array in key order.

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


def _generate_observation(gt, p, q, sigma, source):
    """Draw the random block observation matrix in one pass, O(m) time and memory.

    Independently for each unordered pair i < j: a same-cluster pair carries
    the exact relative transform O_i O_j^T with probability p; a cross-pair
    carries a Haar-uniform block with probability q; otherwise the pair is
    absent (p=1, q=0 stores exactly the same-cluster pairs). sigma > 0 adds
    an i.i.d. N(0, sigma^2) block to every pair i < j, so all are stored.

    Only the sampled pairs are drawn: for each (cluster a, cluster b) block
    of the pair triangle, a <= b in order, the presence stream gives a
    Binomial(total, p or q) count and that many distinct ranks, unranked to
    (i, j) by divmod (a < b) or the triangle inverse (a == b) and sorted by
    key i*n + j. Fixed-size slices of the stored pairs then take scaled
    noise plus the signal of the sampled pairs in them (sigma > 0), or the
    signal alone. Read in pieces, in the order of the pairs it fills, each
    stream gives the draws of one whole read, and the draws and gathers
    beside the blocks stay bounded by one slice. p, q and sigma come from a
    validated ModelParams.
    """
    n, d = gt.n, gt.d
    pairs = _sample_pairs(gt, p, q, source.stream(_STREAM_PRESENCE))
    if sigma > 0:
        # The sampled pairs' ranks among all pairs, ascending like their keys.
        slots = pairs[:, 0] * (2 * n - pairs[:, 0] - 1) // 2 + (pairs[:, 1] - pairs[:, 0] - 1)
        pairs = np.column_stack(np.triu_indices(n, k=1))
        noise = source.stream(_STREAM_NOISE)
    data = np.empty((pairs.shape[0], d, d))
    cross = source.stream(_STREAM_CROSS)
    step = max(1, _SLICE_ELEMS // (d * d))
    for lo in range(0, pairs.shape[0], step):
        out = data[lo : lo + step]
        if sigma > 0:
            noise.standard_normal(out=out)
            out *= sigma
            # The slots are distinct, so this adds each signal block once.
            a, b = np.searchsorted(slots, (lo, lo + len(out)))
            out[slots[a:b] - lo] += _signal(gt, pairs[slots[a:b]], cross, np.empty((b - a, d, d)))
        else:
            _signal(gt, pairs[lo : lo + step], cross, out)
    return SparseBlockMatrix(n, d, pairs, data, copy=False)


def _signal(gt, pairs, cross, out):
    """out, filled with the signal blocks of pairs; impostors come from the cross stream."""
    i, j = pairs.T
    within = gt.labels[i] == gt.labels[j]
    out[within] = np.matmul(gt.transforms[i[within]], gt.transforms[j[within]].transpose(0, 2, 1))
    out[~within] = haar_from_normals(cross.standard_normal((np.count_nonzero(~within), gt.d, gt.d)))
    return out


def generate_instance(params):
    """Draw a full instance: ground truth plus its observation matrix.

    Noise is applied when params.sigma > 0. Deterministic given params.seed.

    Returns:
        (GroundTruth, SparseBlockMatrix).
    """
    gt = _generate_ground_truth(params)
    return gt, _generate_observation(gt, params.p, params.q, params.sigma,
                                     RandomSource(params.seed))


def _cluster_count(K):
    """K as an int, checked to be at least 1 (a ValidationError otherwise)."""
    K = as_index(K, "K")
    if K < 1:
        raise ValidationError("K must be at least 1")
    return K


@contextmanager
def _parse_errors(path):
    """Re-raise a ValidationError of stored values as a ParseError; NonFiniteError stays."""
    try:
        yield
    except NonFiniteError:
        raise
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_record(path, kind, names):
    """The arrays of the .npz archive at path, in the order of names.

    The set of arrays an archive holds is its record kind. A file that
    cannot be opened raises OSError; one that is no readable archive
    (empty, truncated, pickled), or of another kind, raises ParseError.
    """
    import zipfile  # for BadZipFile; only the loaders need it

    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ParseError(f"{path}: not an .npz archive")
            with archive:
                if sorted(archive.files) != sorted(names):
                    raise ParseError(f"{path}: expected a {kind} record")
                return [archive[name] for name in names]
        except (EOFError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not a readable .npz archive ({exc})") from None


def save_matrix(path, a, K):
    """Write a SparseBlockMatrix to an uncompressed .npz archive at path.

    The archive holds n, K, pairs (m, 2) and data (m, d, d). K travels with
    the blocks so a solver run can be reproduced from the file alone. The
    path is used as given: no .npz suffix is added.
    """
    K = _cluster_count(K)
    with open(path, "wb") as fh:
        np.savez(fh, n=a.n, K=K, pairs=a.pairs, data=a.data)


def load_matrix(path):
    """Read a matrix archive; returns (SparseBlockMatrix, K)."""
    n, K, pairs, data = _read_record(path, "matrix", ("n", "K", "pairs", "data"))
    with _parse_errors(path):
        if data.ndim != 3:
            raise ValidationError("data must be an (m, d, d) stack")
        return SparseBlockMatrix(n, data.shape[-1], pairs, data, copy=False), _cluster_count(K)


def _labeling(K, labels, transforms):
    """(K, labels, transforms) checked as one labeling; ValidationError otherwise."""
    K = _cluster_count(K)
    labels = as_indices(labels, "labels")
    transforms = as_floats(transforms, "transforms")
    if labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels must be a non-empty 1-d array")
    d = transforms.shape[-1] if transforms.ndim else 0
    if d < 1 or transforms.shape != (labels.size, d, d):
        raise ValidationError("transforms must be an (n, d, d) stack with d >= 1")
    if labels.min() < 1 or labels.max() > K:
        raise ValidationError("labels must lie in 1..K")
    return K, labels, transforms


def save_labeling(path, K, labels, transforms):
    """Write a (labels, transforms) pair to an uncompressed .npz archive at path.

    The archive holds K, labels (n,) and transforms (n, d, d); the path is
    used as given. Unlike GroundTruth this tolerates empty clusters, so
    recovered estimates can be stored too.
    """
    K, labels, transforms = _labeling(K, labels, transforms)
    with open(path, "wb") as fh:
        np.savez(fh, K=K, labels=labels, transforms=transforms)


def load_labeling(path):
    """Read a labeling archive; returns (labels, transforms, K)."""
    K, labels, transforms = _read_record(path, "labeling", ("K", "labels", "transforms"))
    with _parse_errors(path):
        K, labels, transforms = _labeling(K, labels, transforms)
    return labels, transforms, K


def save_ground_truth(path, gt):
    """Write a GroundTruth as a labeling archive."""
    save_labeling(path, gt.K, gt.labels, gt.transforms)


def load_ground_truth(path):
    """Read a labeling archive back into a validated GroundTruth."""
    labels, transforms, K = load_labeling(path)
    with _parse_errors(path):
        gt = GroundTruth(labels=labels, transforms=transforms)
    if gt.K != K:
        raise ParseError(f"{path}: every cluster index in 1..{K} must appear at least once")
    return gt
