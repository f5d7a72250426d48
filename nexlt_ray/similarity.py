"""Similarity search over an embedding column (`list<float>`).

  * brute-force cosine top-k — numpy matmul per batch against a broadcast
    query matrix (`ray.put` once, read in every task), partial top-k per
    batch, merged with a tiny per-query groupby. Exact; SQL-checkable via
    DuckDB list_cosine_similarity.
  * LSH-bucketed ANN (random hyperplane signs) — the scale path: probe only
    buckets matching the query signature (multi-probe over nearby codes).
  * embedding-cosine near-dup — all pairs with cosine >= tau via the same
    bucket structure.

All kernels compute in float64 (embeddings upcast) and return the raw
float64 cosine, correct to within float64 dot-product rounding but not
bit-identical across evaluation orders (BLAS rounds by operand shape and
DuckDB sums in its own order); ties break on vec_id ascending. The pipeline
entries round sim to 6 decimals (`sim_e6`), and the DuckDB oracle compares
that rounded value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _matrix_of(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = np.asarray(arr.values, dtype=np.float64)
    dim = len(arr[0])
    return flat.reshape(len(batch), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class BruteForceScorer:
    """Actor-pool batch fn: cosine of every row against the query matrix,
    emitting each batch's per-query top-k partials (the combiner)."""

    def __init__(self, queries_ref, k: int = 10, rank_scale: float | None = None):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = _normalize(np.asarray(q, dtype=np.float64))  # (nq, dim)
        self.k = k
        self.rank_scale = rank_scale

    def _rank_key(self, s: np.ndarray) -> np.ndarray:
        # integer-scaled ranking (round(sim*scale)) makes ordering robust to
        # last-bit float noise and matches the SQL oracle's ORDER BY exactly
        return np.round(s * self.rank_scale) if self.rank_scale else s

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_matrix_of(batch))
        sims = m @ self.q.T  # (nrows, nq)
        vec_ids = np.asarray(batch["vec_id"])
        k = min(self.k, m.shape[0])
        qids_out, vids_out, sims_out = [], [], []
        for qi in range(self.q.shape[0]):
            s = sims[:, qi]
            # partial top-k with (sim desc, vec_id asc) tie-break
            order = np.lexsort((vec_ids, -self._rank_key(s)))[:k]
            qids_out.append(np.full(order.size, qi, dtype=np.int64))
            vids_out.append(vec_ids[order])
            sims_out.append(s[order])
        return pa.table(
            {
                "qid": pa.array(np.concatenate(qids_out)),
                "vec_id": pa.array(np.concatenate(vids_out)),
                "sim": pa.array(np.concatenate(sims_out), pa.float64()),
            }
        )


def brute_force_topk(
    ds, queries: np.ndarray, k: int = 10, concurrency: int = 4,
    rank_scale: float | None = None,
):
    """Exact cosine top-k per query row. Returns Dataset (qid, vec_id, sim).

    The query matrix is put in the object store ONCE and read per actor in
    __init__ — not re-shipped per batch."""
    import ray

    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partials = ds.map_batches(
        BruteForceScorer,
        fn_constructor_args=(qref, k, rank_scale),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )

    def final_topk(g: pa.Table) -> pa.Table:
        s = np.asarray(g["sim"])
        v = np.asarray(g["vec_id"])
        key = np.round(s * rank_scale) if rank_scale else s
        order = np.lexsort((v, -key))[:k]
        return pa.table(
            {
                "qid": pa.array(np.repeat(np.asarray(g["qid"])[0], order.size)),
                "vec_id": pa.array(v[order]),
                "sim": pa.array(s[order], pa.float64()),
            }
        )

    return partials.groupby("qid").map_groups(final_topk, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (random hyperplanes) — the 100 TB path
# ---------------------------------------------------------------------------


def hyperplanes(dim: int, nbits: int = 12, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nbits, dim))


def lsh_code(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-pattern bucket code per row (int64)."""
    bits = (m @ planes.T) > 0
    return (bits.astype(np.int64) << np.arange(planes.shape[0])[None, :]).sum(axis=1)


def add_lsh_code(batch: pa.Table, planes: np.ndarray) -> pa.Table:
    m = _normalize(_matrix_of(batch))
    return batch.append_column("lsh_code", pa.array(lsh_code(m, planes)))


def lsh_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    nbits: int = 12,
    multiprobe_bits: int = 1,
    concurrency: int = 4,
):
    """Approximate top-k: score only rows whose LSH code is within
    `multiprobe_bits` bit-flips of a query's code. Same output schema as
    brute_force_topk; recall measured in tests (not exact by design).

    Scale shape: the code column partitions the corpus; a query touches
    1 + nbits*multiprobe buckets instead of every row."""
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    planes = hyperplanes(q.shape[1], nbits)
    qcodes = lsh_code(q, planes)
    probe: set[int] = set()
    for c in qcodes.tolist():
        probe.add(c)
        if multiprobe_bits >= 1:
            for b in range(nbits):
                probe.add(c ^ (1 << b))
        if multiprobe_bits >= 2:
            for b1 in range(nbits):
                for b2 in range(b1 + 1, nbits):
                    probe.add(c ^ (1 << b1) ^ (1 << b2))
    probe_arr = pa.array(sorted(probe), pa.int64())

    coded = ds.map_batches(
        lambda b: add_lsh_code(b, planes), batch_format="pyarrow"
    )
    import pyarrow.compute as pc

    cand = coded.map_batches(
        lambda b: b.filter(pc.is_in(b["lsh_code"], value_set=probe_arr)),
        batch_format="pyarrow",
    )
    return brute_force_topk(cand, queries, k=k, concurrency=concurrency)


def cosine_near_dup_pairs(ds, tau: float = 0.95, nbits: int = 8, concurrency: int = 4):
    """Embedding near-dup: bucket by LSH code, emit in-bucket pairs with
    cosine >= tau (approximate — pairs split across buckets are missed;
    raise multiprobe/lower nbits for recall)."""
    planes_holder: dict[str, np.ndarray] = {}

    def add_code(batch: pa.Table) -> pa.Table:
        if "p" not in planes_holder:
            dim = len(batch["embedding"][0])
            planes_holder["p"] = hyperplanes(dim, nbits)
        return add_lsh_code(batch, planes_holder["p"])

    coded = ds.map_batches(add_code, batch_format="pyarrow")

    def pairs_of_bucket(g: pa.Table) -> pa.Table:
        m = _normalize(_matrix_of(g))
        ids = np.asarray(g["vec_id"])
        order = np.argsort(ids)
        m, ids = m[order], ids[order]
        sims = m @ m.T
        a, b = np.triu_indices(ids.size, k=1)
        keep = sims[a, b] >= tau
        return pa.table(
            {
                "vec_a": pa.array(ids[a[keep]], pa.int64()),
                "vec_b": pa.array(ids[b[keep]], pa.int64()),
                "sim": pa.array(sims[a[keep], b[keep]], pa.float64()),
            }
        )

    return coded.groupby("lsh_code").map_groups(pairs_of_bucket, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact cosine similarity join — blocked all-pairs matmul
# ---------------------------------------------------------------------------


def _normalize_block(batch: pa.Table) -> pa.Table:
    """vec_id + unit-normalized embedding as list<double> (float64 so the
    downstream dot products are DuckDB's double cosine to within float64
    dot-product rounding, not bit-for-bit)."""
    m = _normalize(_matrix_of(batch))
    n, dim = m.shape
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32) * dim),
        pa.array(m.reshape(-1), pa.float64()),
    )
    return pa.table(
        {"vec_id": pa.array(np.asarray(batch["vec_id"], dtype=np.int64)), "nemb": emb}
    )


def exact_cosine_pairs(ds, tau: float, target_chunk_rows: int = 8192):
    """EXACT embedding similarity join: every pair with cosine >= tau.

    The cross-product of row chunks (every chunk meets every other chunk
    exactly once) is the one shape the Dataset API cannot express, so this
    drops to raw Ray tasks over the normalized chunks: each chunk's blocks
    sit in the object store once and each of the B*(B+1)/2 (i, j) tasks
    reads exactly two chunks — no per-pair reshipping, no driver data path
    (the driver holds only object refs; results come back as a Dataset via
    from_arrow_refs). Work per task is a bounded
    target_chunk_rows x target_chunk_rows float64 matmul; at cluster scale
    the quadratic task set spreads across nodes and the object store
    spills cold chunks. Unlike cosine_near_dup_pairs (LSH-bucketed, misses
    cross-bucket pairs) this is exact — it backs the DuckDB-oracled
    cosine_dup_pairs query."""
    import ray
    import ray.data as ray_data

    mat = ds.map_batches(_normalize_block, batch_format="pyarrow").materialize()
    chunks: list[list] = []
    cur: list = []
    cur_rows = 0
    for bundle in mat.iter_internal_ref_bundles():
        cur.extend(bundle.block_refs)
        cur_rows += bundle.num_rows() or 0
        if cur_rows >= target_chunk_rows:
            chunks.append(cur)
            cur, cur_rows = [], 0
    if cur:
        chunks.append(cur)
    if not chunks:
        return ray_data.from_arrow(
            pa.table(
                {
                    "vec_a": pa.array([], pa.int64()),
                    "vec_b": pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        )

    @ray.remote
    def chunk_pairs(tau: float, refs_a: list, refs_b: list | None) -> pa.Table:
        ta = pa.concat_tables(ray.get(list(refs_a)))
        ma = _matrix_of(ta, "nemb")
        ia = np.asarray(ta["vec_id"], dtype=np.int64)
        if refs_b is None:  # within-chunk
            sims = ma @ ma.T
            ib = ia
        else:
            tb = pa.concat_tables(ray.get(list(refs_b)))
            mb = _matrix_of(tb, "nemb")
            ib = np.asarray(tb["vec_id"], dtype=np.int64)
            sims = ma @ mb.T
        # nonzero on the (sparse) hit mask — never materializes the dense
        # pair-index arrays, only the matches
        a, b = np.nonzero(sims >= tau)
        if refs_b is None:
            upper = a < b  # each unordered pair once, no self-pairs
            a, b = a[upper], b[upper]
        s = sims[a, b]
        va, vb = ia[a], ib[b]
        lo, hi = np.minimum(va, vb), np.maximum(va, vb)
        return pa.table(
            {
                "vec_a": pa.array(lo, pa.int64()),
                "vec_b": pa.array(hi, pa.int64()),
                "sim": pa.array(s, pa.float64()),
            }
        )

    refs = []
    for i in range(len(chunks)):
        refs.append(chunk_pairs.remote(tau, chunks[i], None))
        for j in range(i + 1, len(chunks)):
            refs.append(chunk_pairs.remote(tau, chunks[i], chunks[j]))
    return ray_data.from_arrow_refs(refs)


# ---------------------------------------------------------------------------
# IVF-bucketed ANN (k-means coarse quantizer) — the classic scale path
# ---------------------------------------------------------------------------


def train_centroids(
    sample: np.ndarray, n_centroids: int = 64, n_iter: int = 10, seed: int = 17
) -> np.ndarray:
    """Spherical k-means on a driver-side SAMPLE (public IVF/Faiss-style
    coarse quantizer; the sample is small — training cost is independent of
    corpus size). Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    s = _normalize(np.asarray(sample, dtype=np.float64))
    n = s.shape[0]
    n_centroids = min(n_centroids, n)
    cent = s[rng.choice(n, size=n_centroids, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(s @ cent.T, axis=1)
        for c in range(n_centroids):
            sel = assign == c
            if sel.any():
                cent[c] = s[sel].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    n_centroids: int = 64,
    n_probe: int = 8,
    train_sample: int = 4096,
    concurrency: int = 4,
):
    """Approximate top-k via an IVF coarse quantizer: rows are assigned to
    their nearest centroid; a query scores only rows in its `n_probe`
    closest centroid cells. Same output schema as brute_force_topk; recall
    measured in tests (not exact by design).

    Scale shape: centroids are broadcast once (`ray.put`); assignment and
    the probe filter are one matmul per batch; scored candidates are ~
    n_probe/n_centroids of the corpus. At 100 TB the cell assignment is a
    one-off indexed column and queries prune at the read."""
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    sample = ds.limit(train_sample).to_pandas()
    smat = np.asarray(
        np.stack(sample["embedding"].to_numpy()), dtype=np.float64
    )
    cent = train_centroids(smat, n_centroids=n_centroids)
    # per query: the n_probe nearest cells
    order = np.argsort(-(q @ cent.T), axis=1)[:, :n_probe]
    probe_cells = np.unique(order)
    cent_ref = ray.put(cent)
    cells_ref = ray.put(np.sort(probe_cells))

    def probe_filter(batch: pa.Table) -> pa.Table:
        cent_l = ray.get(cent_ref)
        cells = ray.get(cells_ref)
        m = _normalize(_matrix_of(batch))
        assign = np.argmax(m @ cent_l.T, axis=1)
        idx = np.searchsorted(cells, assign)
        hit = (idx < cells.size) & (cells[np.minimum(idx, cells.size - 1)] == assign)
        return batch.filter(pa.array(hit))

    cand = ds.map_batches(probe_filter, batch_format="pyarrow")
    return brute_force_topk(cand, queries, k=k, concurrency=concurrency)


def pca_whiten(ds, col: str = "embedding", eps: float = 1e-6):
    """PCA whitening of an embedding column (the standard pre-ANN /
    pre-clustering transform: decorrelate + unit-variance so euclidean
    structure matches Mahalanobis). Distributed moment accumulation: each
    batch emits ONE partial row (sum vector, X^T X matrix, count) -- d and
    d^2 floats regardless of batch size -- then the d x d eigendecomposition
    runs on the driver (d is tiny; the DATA never leaves the workers) and
    the projection broadcasts into a pure map. Returns (Dataset of vec_id +
    whitened embedding, eigvals desc). Float sums are partial-order
    dependent at ~1e-12 relative -- accuracy is pytest-verified against a
    single-matrix numpy reference, not hash-compared."""
    import ray
    import ray.data  # noqa: F401

    def moments(batch: pa.Table) -> pa.Table:
        X = _matrix_of(batch, col).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([len(X)], pa.int64()),
                "s": pa.array([X.sum(axis=0).tobytes()], pa.binary()),
                "xx": pa.array([(X.T @ X).ravel().tobytes()], pa.binary()),
                "d": pa.array([X.shape[1]], pa.int64()),
            }
        )

    rows = ds.map_batches(moments, batch_format="pyarrow").take_all()
    d = int(rows[0]["d"])
    n = sum(int(r["n"]) for r in rows)
    s = np.zeros(d, np.float64)
    xx = np.zeros((d, d), np.float64)
    for r in rows:
        s += np.frombuffer(r["s"], np.float64)
        xx += np.frombuffer(r["xx"], np.float64).reshape(d, d)
    mu = s / n
    cov = xx / n - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    W = evecs / np.sqrt(np.maximum(evals, 0.0) + eps)  # d x d whitener
    w_ref = ray.put((mu, W))

    class Project:
        def __init__(self):
            self.mu, self.W = ray.get(w_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            X = _matrix_of(batch, col).astype(np.float64)
            Y = (X - self.mu) @ self.W
            return pa.table(
                {
                    "vec_id": batch["vec_id"],
                    "embedding": pa.array(
                        list(Y.astype(np.float32)),
                        pa.list_(pa.float32()),
                    ),
                }
            )

    out = ds.map_batches(Project, batch_format="pyarrow", concurrency=(1, 8))
    return out, evals
