"""Unit/integration tests for the training-data operator suite:
normalization, text analytics, dedup family, similarity search, multimodal
plumbing (SURVEY.md §2.3 M-ops + graft extensions)."""

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nexlt_ray import dedup as D
from nexlt_ray import normalize as N
from nexlt_ray import textstats as T
from nexlt_ray import similarity as S


# ---------------------------------------------------------------------------
# normalize (M-ops)
# ---------------------------------------------------------------------------
def test_strip_inline_tags():
    col = pa.array(["a\x02tag\x03b", "plain"])
    assert N.strip_inline_tags(col).to_pylist() == ["ab", "plain"]


def test_normalize_entities():
    # reference order (parseJSON.pl:308-312): &amp; -> & first, then the
    # accelerator rule eats the resulting &x -> x
    col = pa.array(["&amp;x  y\t z ", "&File  new", "a & b"])
    assert N.normalize_entities(col).to_pylist() == ["x y z", "File new", "a & b"]


def test_scrub_newlines_and_dict_replace():
    assert N.scrub_newlines(pa.array(["a\nb\rc"])).to_pylist() == ["a b c"]
    out = N.dict_replace(pa.array(["esn", "enu", "xxx"]), N.LANG_FIXES)
    assert out.to_pylist() == ["esp", "eng", "xxx"]


def test_resource_basename():
    col = pa.array([r"C:\dir\sub\file.dll", "nopath.rc"])
    assert N.resource_basename(col).to_pylist() == ["file.dll", "nopath.rc"]


def test_length_cap_and_srclc():
    col = pa.array(["x" * 5001, "ok"])
    assert N.length_ok_mask(col).to_pylist() == [False, True]
    assert N.lowercase_sort_key(pa.array(["AbC"])).to_pylist() == ["abc"]


def test_compose_ids_deterministic():
    a = N.compose_ids(["s1"], ["src"], ["res"], ["Dialog"], ["ACD"])
    b = N.compose_ids(["s1"], ["src"], ["res"], ["Dialog"], ["ACD"])
    assert a == b and a[0].endswith("Software") and len(a[0]) == 32 + len("Software")


def test_state_filter_mask():
    batch = pa.table(
        {
            "src": ["ok", "", "ok", "ok"],
            "trn": ["ok", "ok", "ok", "ok"],
            "string_id": ["1", "2", "3", "4"],
            "state_review": [False, False, True, False],
            "state_readonly": [False, False, False, False],
            "state_translated": [True, True, False, False],
            "state_pretranslated": [False, False, False, False],
        }
    )
    assert N.state_filter_mask(batch).to_pylist() == [True, False, False, False]


def test_normalize_segment_batch():
    batch = pa.table(
        {"src": ["A\x02t\x03&amp;B  C"], "trn": ["x"], "lang": ["deu"]}
    )
    out = N.normalize_segment_batch(batch)
    # \x02t\x03 tag span dropped; &amp; -> & -> accelerator &B -> B
    assert out["src"].to_pylist() == ["AB C"]
    assert out["srclc"].to_pylist() == ["ab c"]


# ---------------------------------------------------------------------------
# textstats
# ---------------------------------------------------------------------------
def test_quality_stats_counts():
    batch = pa.table({"doc_id": [0, 1], "text": ["The cat, the hat!", ""]})
    out = T.quality_stats_batch(batch)
    assert out["n_tokens"].to_pylist() == [4, 0]
    assert out["n_stopwords"].to_pylist() == [2, 0]  # 'the' twice
    assert out["n_punct"].to_pylist() == [2, 0]


def test_langid():
    batch = pa.table(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "the cat is on the mat and it is flat",
                "der hund und die katze sind nicht im haus",
                "zzz qqq",
            ],
        }
    )
    out = T.langid_batch(batch)
    assert out["lang_pred"].to_pylist() == ["en", "de", "und"]


def test_fingerprints_deterministic_and_shift_invariant():
    t1 = pa.table({"doc_id": [0], "text": ["the quick brown fox jumps over it"]})
    a = T.fingerprint_batch(t1)
    b = T.fingerprint_batch(t1)
    assert a.equals(b)
    assert a["n_fingerprints"][0].as_py() > 0


# ---------------------------------------------------------------------------
# dedup primitives
# ---------------------------------------------------------------------------
def test_simhash_similar_docs_close():
    batch = pa.table(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "alpha beta gamma delta epsilon zeta eta theta",
                "alpha beta gamma delta epsilon zeta eta iota",  # 1 token differs
                "one two three four five six seven eight",
            ],
        }
    )
    out = D.simhash_batch(batch)
    h = np.asarray(out["simhash"])
    d01 = D.hamming_distance(h[0:1], h[1:2])[0]
    d02 = D.hamming_distance(h[0:1], h[2:3])[0]
    assert d01 < d02
    assert D.hamming_distance(h[0:1], h[0:1])[0] == 0


def test_minhash_signature_jaccard_estimate():
    mh = D.MinHasher(num_perm=128, num_bands=32, shingle=1)
    a = [f"tok{i}" for i in range(100)]
    b = a[:80] + [f"other{i}" for i in range(20)]  # true J = 80/120 = 0.667
    sa, sb = mh.signature(a), mh.signature(b)
    est = float((sa == sb).mean())
    assert abs(est - 0.667) < 0.15
    assert (mh.signature(a) == sa).all()  # deterministic


def test_exact_dedup_pipeline(ray_session):
    import ray.data

    t = pa.table(
        {"doc_id": [5, 1, 2, 3], "text": ["dup", "dup", "uniq", "dup"]}
    )
    out = D.exact_dedup(ray.data.from_arrow(t)).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_copies"].tolist() == [3, 1]


def test_decontaminate_flat_pass_boundaries(ray_session):
    """The flat rolling-hash pass must drop exactly the docs containing an
    eval min_len-gram: a gram SPLIT across two adjacent docs in the batch
    buffer must NOT drop either doc, and prefixes/suffixes shorter than
    min_len must not match."""
    import ray.data

    ev = "0123456789abcdef"  # min_len = 16 -> exactly one gram
    docs = [
        "xx" + ev + "yy",          # contains the gram -> dropped
        "clean document one",       # clean
        "zz" + ev[:8],              # first half only -> kept...
        ev[8:] + " tail words",     # ...second half only -> kept (the full
                                    # gram spans the doc boundary in the
                                    # flat buffer and must be rejected)
        ev,                         # the gram exactly -> dropped
    ]
    t = pa.table({"doc_id": pa.array(list(range(len(docs))), pa.int64()),
                  "text": docs})
    out = (
        D.decontaminate(ray.data.from_arrow(t), [ev], min_len=16)
        .to_pandas()["doc_id"].tolist()
    )
    assert sorted(out) == [1, 2, 3]


def test_jaccard_pairs_pipeline(ray_session):
    import ray.data

    t = pa.table(
        {
            "doc_id": [0, 1, 2],
            "text": ["a b c d", "a b c e", "x y z w"],
        }
    )
    # J(0,1) = 3/5 = 0.6
    out = D.jaccard_pairs(
        ray.data.from_arrow(t), tau_num=1, tau_den=2
    ).to_pandas()
    assert out[["doc_a", "doc_b"]].values.tolist() == [[0, 1]]
    assert out["inter"].tolist() == [3] and out["union_"].tolist() == [5]


def test_distinct_doc_terms_digit_leading_tokens():
    # regression: a '\x00'-separated string key collapsed (doc 1, '2foo')
    # and (doc 12, 'foo') into the same key (numpy U dtype strips trailing
    # NULs), silently dropping a (doc, term) row
    batch = pa.table(
        {"doc_id": pa.array([1, 12], pa.int64()), "text": ["2foo x", "foo x"]}
    )
    out = D.distinct_doc_terms(batch)
    rows = sorted(zip(out["doc_id"].to_pylist(), out["term"].to_pylist()))
    assert rows == [(1, "2foo"), (1, "x"), (12, "foo"), (12, "x")]


def test_verify_pairs_exact_ds_distributed_regime(ray_session):
    """verify_pairs_exact_ds above the broadcast cap takes the
    fully-distributed join plan (no driver pair table); its output must be
    identical to the broadcast regime's on the same candidates."""
    import ray.data

    n = 60
    texts = [f"tok{i} tok{i+1} tok{i+2} common alpha beta" for i in range(n)]
    texts[50] = texts[7]  # exact dup
    texts[51] = texts[7] + " extra"  # near dup
    t = pa.table({"doc_id": pa.array(list(range(n)), pa.int64()), "text": texts})
    ds = ray.data.from_arrow(t)
    a, b = np.triu_indices(n, k=1)
    cand = ray.data.from_arrow(
        pa.table({"doc_a": pa.array(a.astype(np.int64)),
                  "doc_b": pa.array(b.astype(np.int64))})
    )

    def run(cap):
        return (
            D.verify_pairs_exact_ds(ds, cand, 1, 2, broadcast_pairs_cap=cap)
            .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        )

    import pandas as pd

    big = run(10**9)   # broadcast regime
    small = run(0)     # distributed join regime
    assert len(big) > 0
    pd.testing.assert_frame_equal(big, small, check_dtype=False)


def test_minhash_lsh_finds_exact_dups(ray_session):
    import ray.data

    texts = [f"unique doc number {i} with words {i*7} {i*13}" for i in range(50)]
    texts[40] = texts[3]  # exact dup pair (3, 40)
    t = pa.table({"doc_id": list(range(50)), "text": texts})
    pairs = D.minhash_lsh_pairs(ray.data.from_arrow(t), concurrency=2).to_pandas()
    assert [3, 40] in pairs[["doc_a", "doc_b"]].values.tolist()


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------
def _rand_embeddings(n=200, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                [r.astype(np.float32).tolist() for r in m], pa.list_(pa.float32())
            ),
        }
    ), m


def test_brute_force_topk_exact(ray_session):
    import ray.data

    t, m = _rand_embeddings()
    q = m[:3]
    out = S.brute_force_topk(ray.data.from_arrow(t), q, k=5, concurrency=2).to_pandas()
    # numpy reference
    mf = m.astype(np.float64) / np.linalg.norm(m, axis=1, keepdims=True)
    qf = q.astype(np.float64) / np.linalg.norm(q, axis=1, keepdims=True)
    # embeddings stored as float32 -> upcast like the pipeline does
    m32 = np.asarray(t["embedding"].combine_chunks().values, dtype=np.float64).reshape(200, -1)
    m32 /= np.linalg.norm(m32, axis=1, keepdims=True)
    sims = m32 @ qf.T
    for qi in range(3):
        exp = np.lexsort((np.arange(200), -sims[:, qi]))[:5]
        got = out[out["qid"] == qi].sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        )["vec_id"].tolist()
        assert got == exp.tolist()


def test_lsh_topk_recall(ray_session):
    import ray.data

    t, m = _rand_embeddings(500, 16)
    q = m[:5]
    exact = S.brute_force_topk(ray.data.from_arrow(t), q, k=10, concurrency=2).to_pandas()
    approx = S.lsh_topk(
        ray.data.from_arrow(t), q, k=10, nbits=8, multiprobe_bits=2, concurrency=2
    ).to_pandas()
    recalls = []
    for qi in range(5):
        e = set(exact[exact["qid"] == qi]["vec_id"])
        a = set(approx[approx["qid"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls


def test_cosine_near_dup(ray_session):
    import ray.data

    t, m = _rand_embeddings(100, 16)
    # add a near-duplicate of row 7
    dup = (m[7] + 0.001).astype(np.float32)
    t2 = pa.table(
        {
            "vec_id": pa.array(list(range(100)) + [100], pa.int64()),
            "embedding": pa.array(
                [r.astype(np.float32).tolist() for r in m] + [dup.tolist()],
                pa.list_(pa.float32()),
            ),
        }
    )
    pairs = S.cosine_near_dup_pairs(
        ray.data.from_arrow(t2), tau=0.999, nbits=6
    ).to_pandas()
    assert [7, 100] in pairs[["vec_a", "vec_b"]].values.tolist()


def _exact_dot(x, y):
    """Exact rational value of the dot product of two float64 vectors."""
    return sum(Fraction(p) * Fraction(q) for p, q in zip(x, y))


def _gamma(d):
    """gamma_d = d*u / (1 - d*u) with u = 2**-53, exactly."""
    return Fraction(d, 2**53 - d)


def _dot_error_bound(x, y):
    """Forward error bound of a float64 dot product in any summation order,
    FMA included: gamma_d * sum|x_i||y_i| (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 3.1, eq. (3.5))."""
    return _gamma(len(x)) * sum(abs(Fraction(p) * Fraction(q)) for p, q in zip(x, y))


def test_exact_cosine_pairs_multichunk(ray_session):
    """exact_cosine_pairs == brute-force numpy pair set, including pairs that
    span chunks (tiny target_chunk_rows forces the cross-chunk task path),
    and every sim is the float64 cosine of the two stored unit vectors.

    The program's chunk matmuls and this test's 150x150 matmul are
    different BLAS calls whose rounding depends on operand shape, so sims
    are checked against the exact rational dot product within the float64
    dot-product error bound, not against one BLAS call's last bit."""
    import ray.data

    t, m = _rand_embeddings(150, 16)
    # the table stores float32; expected values go through the same roundtrip
    n = m.astype(np.float32).astype(np.float64)
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    sims = n @ n.T
    # the pair set is well-defined only if no pair sits at tau within
    # rounding: |sims - exact| <= bound <= gamma_d * (1 + eps) for unit
    # rows, so a pair with |sims - 0.5| > 4 * gamma_d is > 2 * bound away
    # from tau = 0.5 exactly; the rest are checked exactly
    near = np.abs(sims - 0.5) <= 4 * float(_gamma(n.shape[1]))
    for x, y in zip(*np.nonzero(near)):
        if x < y:
            assert abs(_exact_dot(n[x], n[y]) - Fraction(0.5)) > 2 * (
                _dot_error_bound(n[x], n[y])
            ), ("fixture pair at tau within rounding", x, y)
    a, b = np.nonzero(sims >= 0.5)
    expect = sorted((int(x), int(y)) for x, y in zip(a, b) if x < y)
    assert expect, "fixture must contain at least one qualifying pair"
    got = S.exact_cosine_pairs(
        ray.data.from_arrow(t).repartition(8), tau=0.5, target_chunk_rows=20
    ).to_pandas()
    got_pairs = sorted(map(tuple, got[["vec_a", "vec_b"]].values.tolist()))
    assert got_pairs == expect
    # values are the float64 cosine within dot-product rounding
    for (va, vb), s in zip(got_pairs, got.sort_values(["vec_a", "vec_b"])["sim"]):
        err = abs(Fraction(s) - _exact_dot(n[va], n[vb]))
        assert err <= _dot_error_bound(n[va], n[vb]), (va, vb, s)


# ---------------------------------------------------------------------------
# multimodal plumbing
# ---------------------------------------------------------------------------
def test_multimodal_feature_stage(ray_session):
    import ray.data

    from nexlt_ray.multimodal import (
        DecodeBackend,
        FakeDecodeBackend,
        ImageFeatureExtractor,
        synthetic_media_table,
    )

    t = synthetic_media_table(20)
    out = ray.data.from_arrow(t).map_batches(
        ImageFeatureExtractor, batch_format="pyarrow", batch_size=8,
        concurrency=2, num_cpus=1,
    ).to_pandas()
    assert len(out) == 20
    assert len(out["feature"][0]) == 6  # 3 means + 3 stds
    # deterministic: same payload -> same feature
    fe = ImageFeatureExtractor()
    a = fe(t.slice(0, 1))
    b = fe(t.slice(0, 1))
    assert a.equals(b)
    # the real backend raises (decode stubbed in this environment)
    with pytest.raises(NotImplementedError):
        DecodeBackend().decode_image(b"x")
    assert FakeDecodeBackend().decode_image(b"x").shape == (16, 16, 3)


def test_frame_sampler_layout(ray_session):
    """FrameSampler REALLY decodes Y4M payloads: stride sampling layout +
    per-frame shas match a direct single-process decode."""
    import hashlib

    import ray.data

    from nexlt_ray.multimodal import (
        FrameSampler,
        StdlibDecodeBackend,
        synthetic_video_table,
    )

    tbl = synthetic_video_table(10)  # 8 frames each
    out = ray.data.from_arrow(tbl).map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=8, concurrency=2, num_cpus=1
    ).to_pandas().sort_values(["item_id", "frame_no"]).reset_index(drop=True)
    assert set(out["frame_no"]) == {0, 4}
    assert len(out) == 20  # 10 items x 2 sampled frames
    be = StdlibDecodeBackend()
    for i in (0, 7):
        frames = be.decode_video(tbl["payload"][i].as_py())
        assert frames.shape == (8, 16, 16, 3)
        for fi in (0, 4):
            row = out[(out.item_id == i) & (out.frame_no == fi)].iloc[0]
            assert row.frame_sha256 == hashlib.sha256(
                frames[fi].tobytes()
            ).hexdigest()


def test_y4m_roundtrip_and_conversion():
    """Y4M encode->decode is bit-exact on the YUV planes for every
    supported colorspace; YUV->RGB matches a scalar BT.601 reference."""
    from nexlt_ray.multimodal import (
        _yuv_to_rgb,
        decode_y4m_planes,
        encode_y4m_planes,
        rgb_to_yuv_planes,
    )

    rng = np.random.default_rng(3)
    for cs, (w, h) in [
        ("C420jpeg", (8, 6)), ("C420", (8, 6)), ("C422", (8, 6)),
        ("C444", (7, 5)), ("Cmono", (7, 5)),
    ]:
        frames = []
        for _ in range(3):
            rgb = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            frames.append(rgb_to_yuv_planes(rgb, cs))
        payload = encode_y4m_planes(frames, cs)
        dec, dw, dh, dcs = decode_y4m_planes(payload)
        assert (dw, dh, dcs) == (w, h, cs) and len(dec) == 3
        for (y0, u0, v0), (y1, u1, v1) in zip(frames, dec):
            assert np.array_equal(y0, y1)
            if u0 is None:
                assert u1 is None
            else:
                assert np.array_equal(u0, u1) and np.array_equal(v0, v1)
    # scalar BT.601 reference check on one C444 frame
    y = rng.integers(16, 236, size=(4, 4), dtype=np.uint8)
    u = rng.integers(16, 241, size=(4, 4), dtype=np.uint8)
    v = rng.integers(16, 241, size=(4, 4), dtype=np.uint8)
    got = _yuv_to_rgb(y, u, v)
    for i in range(4):
        for j in range(4):
            yf = (float(y[i, j]) - 16.0) * 1.1643836
            uf, vf = float(u[i, j]) - 128.0, float(v[i, j]) - 128.0
            exp = [
                yf + 1.5960268 * vf,
                yf - 0.3917623 * uf - 0.8129676 * vf,
                yf + 2.0172321 * uf,
            ]
            exp = [min(255, max(0, round(e))) for e in exp]
            assert list(got[i, j]) == exp
    # C420 chroma upsampling: each 2x2 luma block shares one chroma sample
    y2 = np.full((4, 4), 128, np.uint8)
    u2 = np.array([[100, 200], [50, 150]], np.uint8)
    v2 = np.full((2, 2), 128, np.uint8)
    rgb = _yuv_to_rgb(y2, u2, v2)
    assert np.array_equal(rgb[0, 0], rgb[1, 1]) and np.array_equal(
        rgb[0, 2], rgb[1, 3]
    )
    # default-colorspace header (no C tag) parses as C420jpeg
    raw = b"YUV4MPEG2 W2 H2 F25:1\nFRAME\n" + bytes(4) + bytes(1) + bytes(1)
    dec, w, h, cs = decode_y4m_planes(raw)
    assert (w, h, cs) == (2, 2, "C420jpeg") and dec[0][1].shape == (1, 1)


def test_minhash_pairs_corpus_finds_exact_dups(ray_session):
    """The sf-corpus MinHash pipeline must recover the injected exact
    duplicates (inter == union_ pairs)."""
    from nexlt_ray.pipelines import minhash_pairs_corpus

    out = minhash_pairs_corpus("/root/testdata/sf0.001").to_pandas()
    assert len(out) >= 25  # ~30 injected dups at n=1000 (some may collide)
    exact = out[out["inter"] == out["union_"]]
    assert len(exact) >= 25


def test_simhash_pairs_exact_vs_bruteforce(ray_session):
    """simhash_pairs is EXACT for its distance budget (pigeonhole chunks
    guarantee completeness): must equal all-pairs Hamming <= 3."""
    import ray.data

    texts = []
    for i in range(60):
        base = f"document number {i} with content words alpha beta gamma {i*3}"
        texts.append(base)
    texts[40] = texts[7]                      # exact dup -> hamming 0
    texts[41] = texts[7] + " extra"           # near dup -> small hamming
    t = pa.table({"doc_id": list(range(60)), "text": texts})
    got = (
        D.simhash_pairs(ray.data.from_arrow(t), max_hamming=3)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    # brute force
    sk = D.simhash_batch(t)
    h = np.asarray(sk["simhash"])
    i, j = np.triu_indices(60, k=1)
    dist = D.hamming_distance(h[i], h[j])
    hit = dist <= 3
    exp = sorted(zip(i[hit].tolist(), j[hit].tolist(), dist[hit].tolist()))
    assert list(map(tuple, got[["doc_a", "doc_b", "hamming"]].values)) == exp
    assert (7, 40, 0) in exp  # the exact dup surfaced
    # the naive d+1-chunk split is the num_blocks=d+1 special case of the
    # block-permutation scheme — same exact pair set either way
    got_naive = (
        D.simhash_pairs(ray.data.from_arrow(t), max_hamming=3, num_blocks=4)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert got_naive.equals(got)


def test_simhash_block_keys_bounded_buckets():
    """Regression (r4 verdict): at 10^6 random sketches the naive
    d+1-chunk scheme's 16-bit bucket keys collide RANDOMLY (~N/65k docs
    per bucket -> the in-group all-pairs check goes quadratic with zero
    true dups); the default block-permutation scheme's ~32-bit keys keep
    buckets tiny. Also proves completeness of the wider keys directly:
    every pair within the Hamming budget shares a bucket in some table."""
    from nexlt_ray.dedup import _simhash_block_keys, _simhash_num_tables

    rng = np.random.default_rng(42)
    n, d = 1_000_000, 3
    h = rng.integers(0, 1 << 63, size=n, dtype=np.int64).view(np.uint64)

    def pair_work(tid, keys):
        # sum over (table, key) buckets of C(size, 2) == candidates checked
        _, counts = np.unique(
            np.stack([tid.astype(np.uint64), keys]), axis=1, return_counts=True
        )
        c = counts.astype(np.int64)
        return int((c * (c - 1) // 2).sum()), int(c.max())

    tid_old, keys_old = _simhash_block_keys(h, d, d + 1)     # 16-bit keys
    tid_new, keys_new = _simhash_block_keys(h, d, d + 3)     # ~32-bit keys
    work_old, max_old = pair_work(tid_old, keys_old)
    work_new, max_new = pair_work(tid_new, keys_new)
    assert max_old > 5          # 16-bit buckets demonstrably collide at 1M
    assert work_old > 100_000   # quadratic blow-up with no true dups
    assert max_new <= 4         # wide keys: buckets stay tiny
    assert work_new < n // 100  # total candidate work bounded << N

    # completeness: flip <= d random bits, must share a (table, key) bucket
    base = rng.integers(0, 1 << 63, size=500, dtype=np.int64).view(np.uint64)
    pert = base.copy()
    for i in range(500):
        for b in rng.choice(64, size=rng.integers(0, d + 1), replace=False):
            pert[i] ^= np.uint64(1) << np.uint64(b)
    t_a, k_a = _simhash_block_keys(base, d, d + 3)
    t_b, k_b = _simhash_block_keys(pert, d, d + 3)
    nt = _simhash_num_tables(d, d + 3)
    k_a = k_a.reshape(nt, 500)
    k_b = k_b.reshape(nt, 500)
    assert (k_a == k_b).any(axis=0).all()


def test_ivf_topk_recall(ray_session):
    """IVF ANN: recall@10 vs brute force must be high on clustered data."""
    import ray.data

    from nexlt_ray import similarity as S2

    rng = np.random.default_rng(9)
    centers = rng.standard_normal((8, 16)) * 3
    pts = np.concatenate(
        [c + rng.standard_normal((50, 16)) * 0.4 for c in centers]
    )
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
            "embedding": pa.array(
                [r.astype(np.float32).tolist() for r in pts], pa.list_(pa.float32())
            ),
        }
    )
    q = pts[:4]
    ds = ray.data.from_arrow(t).repartition(4)
    exact = S2.brute_force_topk(ds, q, k=10, concurrency=2).to_pandas()
    approx = S2.ivf_topk(
        ray.data.from_arrow(t).repartition(4), q, k=10, n_centroids=16,
        n_probe=4, concurrency=2,
    ).to_pandas()
    recalls = []
    for qi in range(4):
        e = set(exact[exact["qid"] == qi]["vec_id"])
        a = set(approx[approx["qid"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.8, recalls


def test_dedup_pipelines_with_no_duplicates(ray_session):
    """Regression: an EMPTY Ray dataset loses its schema through to_pandas();
    the pair pipelines must return typed empty results, not KeyError."""
    import ray.data

    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"],
        }
    )
    out = D.jaccard_pairs(ray.data.from_arrow(t), tau_num=9, tau_den=10).to_pandas()
    assert len(out) == 0
    out2 = D.simhash_pairs(ray.data.from_arrow(t), max_hamming=0).to_pandas()
    assert len(out2) == 0


def test_asof_join_edges(ray_session):
    """Backward as-of: exact-ts match included, later-only right rows
    excluded, per-key isolation, deterministic tiebreak on equal (key, ts)."""
    import ray.data

    from nexlt_ray.joins import asof_join

    left = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "k": pa.array([10, 10, 20, 30], pa.int64()),
            "t": pa.array([100, 50, 100, 100], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([7, 8, 9, 11, 12], pa.int64()),
            "k": pa.array([10, 10, 20, 20, 20], pa.int64()),
            "t": pa.array([60, 100, 200, 90, 90], pa.int64()),
        }
    )
    out = (
        asof_join(
            ray.data.from_arrow(left).repartition(2),
            ray.data.from_arrow(right).repartition(2),
            by="k", on="t", tiebreak="rid", num_buckets=4,
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    got = {int(r["id"]): int(r["r_rid"]) for _, r in out.iterrows()}
    # id1: k10 t100 -> rid8 (t=100 inclusive); id2: k10 t50 -> no match;
    # id3: k20 t100 -> ties at t90 -> greatest tiebreak rid12; id4: k30 none
    assert got == {1: 8, 3: 12}


def test_range_join_band_edges(ray_session):
    """Banded range join: boundary-inclusive, band-crossing pairs found
    exactly once, per-key isolation."""
    import ray.data

    from nexlt_ray.joins import range_join

    W = 100
    left = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.int64()),
            "k": pa.array([5, 5, 6], pa.int64()),
            "t": pa.array([100, 350, 100], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([7, 8, 9, 11], pa.int64()),
            "k": pa.array([5, 5, 5, 6], pa.int64()),
            "t": pa.array([199, 201, 250, 500], pa.int64()),
        }
    )
    out = (
        range_join(
            ray.data.from_arrow(left).repartition(2),
            ray.data.from_arrow(right).repartition(2),
            by="k", on="t", window=W, num_buckets=4,
        )
        .to_pandas()
        .sort_values(["id", "r_rid"])
        .reset_index(drop=True)
    )
    pairs = sorted((int(r["id"]), int(r["r_rid"])) for _, r in out.iterrows())
    # id1 t100: rid7 (dt 99, band-crossing), rid8 (dt 101 > W? 201-100=101 NO)
    # -> only rid7... wait |100-199|=99 ok; |100-201|=101 excluded; |100-250|=150 excluded
    # id2 t350: rid9 (|350-250|=100 inclusive), rid8 (|350-201|=149 excluded)
    # id3 k6 t100: rid11 t500 excluded
    assert pairs == [(1, 7), (2, 9)]
    # no duplicates from banding replication
    assert len(pairs) == len(set(pairs))


def test_sessionize_skewed_bot_user(ray_session):
    """Skew guard (VERDICT r2 item 8): a bot whose event history spans many
    time chunks must sessionize identically to a straightforward per-user
    oracle, via the chunked phase-1 + boundary-merge phase-2 path (no group
    ever holds the bot's whole history — phase 1 keys on (user, chunk))."""
    import ray

    from nexlt_ray.pipelines import (
        SESSION_CHUNK_US,
        SESSION_GAP_US,
        sessionize,
    )

    rng = np.random.default_rng(7)
    rows_ts, rows_uid = [], []
    # bot: an event every ~5 min for 3 days (one long session spanning
    # ~18 chunk boundaries), plus a few clean gaps
    t0 = 1_700_000_000_000_000
    bot = t0 + np.cumsum(
        rng.integers(1, SESSION_GAP_US, size=900).astype(np.int64)
    )
    bot[300:] += 2 * SESSION_GAP_US  # one gap -> second session
    bot[600:] += 3 * SESSION_GAP_US  # another
    rows_ts.append(bot)
    rows_uid.append(np.full(bot.size, 1, dtype=np.int64))
    # sparse users: events right at chunk boundaries (merge edge cases)
    for uid in range(2, 12):
        base = t0 + uid * SESSION_CHUNK_US
        ts = np.array(
            [
                base - 1,
                base,  # adjacent across a chunk boundary -> same session
                base + SESSION_GAP_US,  # exactly gap -> still same session
                base + 3 * SESSION_GAP_US,  # new session
            ],
            dtype=np.int64,
        )
        rows_ts.append(ts)
        rows_uid.append(np.full(ts.size, uid, dtype=np.int64))
    ts_all = np.concatenate(rows_ts)
    uid_all = np.concatenate(rows_uid)
    perm = rng.permutation(ts_all.size)
    t = pa.table(
        {
            "ts": pa.array(ts_all[perm]).cast(pa.timestamp("us")),
            "user_id": pa.array(uid_all[perm], pa.int64()),
        }
    )
    got = (
        sessionize(ray.data.from_arrow(t).repartition(4))
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )

    # straightforward oracle
    exp_rows = []
    for uid in np.unique(uid_all):
        tt = np.sort(ts_all[uid_all == uid])
        new = np.concatenate(([True], np.diff(tt) > SESSION_GAP_US))
        sid = np.cumsum(new) - 1
        for s in range(int(sid[-1]) + 1):
            seg = tt[sid == s]
            exp_rows.append((int(uid), s, seg.size, int(seg[-1] - seg[0])))
    exp = pd.DataFrame(
        exp_rows, columns=["user_id", "session_id", "n_events", "duration_us"]
    )
    pd.testing.assert_frame_equal(
        got.astype(np.int64), exp.astype(np.int64)
    )


def test_semi_anti_join_string_keys_and_nulls(ray_session):
    """broadcast_semi_anti_join key-typing contract (ADVICE r2): string key
    sets broadcast at their natural type; null batch keys are dropped by
    semi and KEPT by anti."""
    import ray

    from nexlt_ray.joins import broadcast_semi_anti_join

    t = pa.table(
        {
            "k": pa.array(["a", "b", None, "c", "a"]),
            "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    semi = broadcast_semi_anti_join(ds, "k", {"a", "c"}).to_pandas()
    assert sorted(semi["v"].tolist()) == [1, 4, 5]
    anti = broadcast_semi_anti_join(
        ray.data.from_arrow(t), "k", {"a", "c"}, anti=True
    ).to_pandas()
    assert sorted(anti["v"].tolist()) == [2, 3]


def test_winnow_guarantee_and_substring_pairs(ray_session):
    """Winnowing completeness: any two docs sharing an exact run of
    >= window + k - 1 bytes share a selected fingerprint value; docs
    shorter than the run length emit nothing; substring_dup_pairs is
    exact end to end (verified pairs only)."""
    import pyarrow as pa
    import ray

    from nexlt_ray.dedup import substring_dup_pairs
    from nexlt_ray.textstats import winnow_doc_fps

    run = "SHARED-RUN-0123456789-abcdefghij-SHARED!"  # 40 chars
    assert len(run) == 40
    rng = __import__("random").Random(7)

    def filler(n):
        return "".join(rng.choice("xyzuvw .,") for _ in range(n))

    docs = [
        (0, filler(30) + run + filler(50)),       # shares run with 1, 3
        (1, filler(80) + run),                    # run at the very end
        (2, filler(120)),                         # no shared run
        (3, run + filler(10)),                    # run at the start
        (4, "short"),                             # < min_len: emits nothing
        # 5/6 share only a 39-char run (distinct sentinel chars on both
        # sides so no accidental 40th) -> NOT a pair at min_len=40
        (5, filler(40) + "A" + run[:39] + "B" + filler(40)),
        (6, filler(25) + "C" + run[:39] + "D" + filler(60)),
    ]
    t = pa.table(
        {"doc_id": pa.array([d for d, _ in docs], pa.int64()),
         "text": pa.array([x for _, x in docs])}
    )
    k, min_len = 16, 40
    fp = winnow_doc_fps(t, k=k, window=min_len - k + 1)
    by_doc = {}
    for d, v in zip(fp["doc_id"].to_pylist(), fp["fp"].to_pylist()):
        by_doc.setdefault(d, set()).add(v)
    assert 4 not in by_doc  # too short to ever contain a 40-byte run
    # the guarantee: every doc pair sharing the 40-char run shares a value
    for a, b in [(0, 1), (0, 3), (1, 3)]:
        assert by_doc[a] & by_doc[b], (a, b)

    ds = ray.data.from_arrow(t)
    got = substring_dup_pairs(ds, min_len=min_len, k=k).to_pandas()
    pairs = set(map(tuple, got[["doc_a", "doc_b"]].values.tolist()))
    assert pairs == {(0, 1), (0, 3), (1, 3)}


def test_sampling_deterministic_across_partitioning(ray_session):
    """Sample membership is a pure function of the id — identical output
    for any block layout; take_n returns exactly min(n, stratum size)."""
    import pyarrow as pa
    import ray

    from nexlt_ray.sampling import stratified_sample, stratified_take_n

    n = 1000
    langs = ["en", "de", "fr"]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "lang": pa.array([langs[i % 3] for i in range(n)]),
        }
    )
    rates = {"en": 250, "de": 900}  # fr absent -> dropped entirely

    def run_sample(blocks):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = stratified_sample(ds, rates, id_col="doc_id").to_pandas()
        return sorted(map(tuple, out[["doc_id", "lang"]].values.tolist()))

    a, b = run_sample(1), run_sample(7)
    assert a == b and len(a) > 0
    assert not any(l == "fr" for _, l in a)
    # en downsampled harder than de
    n_en = sum(l == "en" for _, l in a)
    n_de = sum(l == "de" for _, l in a)
    assert n_en < n_de

    def run_take(blocks):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = stratified_take_n(ds, 25, id_col="doc_id").to_pandas()
        return sorted(map(tuple, out[["doc_id", "lang"]].values.tolist()))

    x, y = run_take(1), run_take(5)
    assert x == y
    assert sum(1 for _, l in x if l == "en") == 25
    assert len(x) == 75
    # tiny stratum: returns all of it, not an error
    small = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "lang": pa.array(["xx", "xx"])}
    )
    out = stratified_take_n(ray.data.from_arrow(small), 25).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1, 2]


def test_hash_join_string_keys(ray_session):
    """String-keyed partitioned hash_join: equality on the actual values
    (bucket hash is placement only), inner-join null-key semantics, result
    identical to a pandas merge reference."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from nexlt_ray.joins import hash_join

    rng = __import__("random").Random(11)
    keys = [f"term_{rng.randrange(50)}" for _ in range(300)]
    left = pa.table(
        {"term": pa.array(keys + [None, None]),
         "v": pa.array(list(range(300)) + [900, 901], pa.int64())}
    )
    rkeys = [f"term_{i}" for i in range(0, 50, 2)]
    right = pa.table(
        {"term": pa.array(rkeys + [None]),
         "w": pa.array([i * 10 for i in range(len(rkeys))] + [999], pa.int64())}
    )
    got = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "term", "term", num_buckets=8,
    ).to_pandas().sort_values(["term", "v"]).reset_index(drop=True)
    exp = (
        left.to_pandas().dropna(subset=["term"])
        .merge(right.to_pandas().dropna(subset=["term"]), on="term")
        .sort_values(["term", "v"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["term", "v", "w"]], exp[["term", "v", "w"]], check_dtype=False
    )


def test_pack_sequences_partitioning_invariant(ray_session):
    """The packed layout is a pure function of (id, n_tokens): identical
    across block layouts and bucket_shift choices; offsets are a gapless
    exact prefix sum."""
    import pyarrow as pa
    import ray

    from nexlt_ray.packing import pack_sequences

    n = 500
    texts = [" ".join(f"w{j}" for j in range((i * 7) % 23)) for i in range(n)]
    t = pa.table({"doc_id": pa.array(list(range(n)), pa.int64()),
                  "text": pa.array(texts)})

    def run(blocks, shift):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = pack_sequences(ds, block_tokens=64, bucket_shift=shift)
        return out.to_pandas().sort_values("doc_id").reset_index(drop=True)

    a = run(1, 4)
    b = run(9, 7)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)
    # exact gapless scan in doc_id order
    nt = a["n_tokens"].to_numpy()
    st = a["start_token"].to_numpy()
    assert st[0] == 0
    assert (st[1:] == st[:-1] + nt[:-1]).all()
    assert (a["block_id"].to_numpy() == st // 64).all()
    assert (a["block_offset"].to_numpy() == st % 64).all()


def test_dup_clusters_transitive_chain(ray_session):
    """Connected components must close transitive chains: a~b and b~c put
    all three in cluster min(a,b,c) even though (a,c) is not a pair."""
    import ray.data

    pairs = pa.table(
        {"doc_a": pa.array([10, 20, 50], pa.int64()),
         "doc_b": pa.array([20, 30, 60], pa.int64())}
    )
    out = (
        D.dup_clusters(ray.data.from_arrow(pairs))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {10: 10, 20: 10, 30: 10, 50: 50, 60: 50}


def test_dup_clusters_fast_and_distributed_paths_agree(ray_session):
    """The single-task fast path and the distributed label-propagation path
    must resolve identical components — checked on a graph with a long
    chain (exercises >1 propagation round in both) plus random clusters."""
    import ray.data

    rng = np.random.default_rng(7)
    # 8-node chain (diameter 7: >1 propagation round) + 30 random edges
    chain_a = np.arange(7, dtype=np.int64) * 10
    chain_b = chain_a + 10
    base = rng.integers(1000, 1100, size=30).astype(np.int64)
    off = rng.integers(1, 5, size=30).astype(np.int64)
    pairs = pa.table(
        {"doc_a": pa.array(np.concatenate((chain_a, base * 100))),
         "doc_b": pa.array(np.concatenate((chain_b, base * 100 + off)))}
    )

    def run(fast_max):
        return (
            D.dup_clusters(ray.data.from_arrow(pairs),
                           fast_path_max_edges=fast_max)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )

    fast, dist = run(10**6), run(0)
    pd.testing.assert_frame_equal(fast, dist)
    # the chain must fully resolve to its min label
    chain_rows = fast[fast["doc_id"] <= 70]
    assert (chain_rows["cluster_id"] == 0).all()


def test_unigram_lm_scores_oov_and_empty(ray_session):
    """Vocab cap: with vocab_size=2 only the two most frequent terms (count
    desc, term asc tie-break) are in-vocab; OOV counts are exact; a doc with
    no in-vocab token gets a null lm_logprob; scores are mean ln(cnt/total)
    over in-vocab tokens, rounded to 4."""
    import ray.data

    docs = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         # corpus counts: aa=3, bb=3, cc=1, dd=1 (total 8)
         # vocab_size=2 -> {aa, bb} (tie at 3 broken by term asc over cc/dd irrelevant)
         "text": pa.array(["aa bb aa", "bb aa bb cc", "dd"], pa.string())}
    )
    out = (
        T.unigram_lm_scores(ray.data.from_arrow(docs), vocab_size=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["n_tokens"].tolist() == [3, 4, 1]
    assert out["n_oov"].tolist() == [0, 1, 1]
    lp = np.log(3 / 8)  # p(aa) == p(bb) == 3/8
    assert out["lm_logprob"][0] == round(lp, 4)
    assert out["lm_logprob"][1] == round(lp, 4)
    assert pd.isna(out["lm_logprob"][2])


def test_png_roundtrip_all_filters_and_colortypes():
    """encode_png -> StdlibDecodeBackend: bit-exact for every scanline
    filter (0-4) and color type (gray/RGB/RGBA)."""
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_png

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(3)
    for ft in range(5):
        gray = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        rgb = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        rgba = rng.integers(0, 256, size=(9, 7, 4), dtype=np.uint8)
        assert np.array_equal(
            be.decode_image(encode_png(gray, ft)), np.repeat(gray[:, :, None], 3, 2)
        ), f"gray filter {ft}"
        assert np.array_equal(be.decode_image(encode_png(rgb, ft)), rgb), ft
        assert np.array_equal(
            be.decode_image(encode_png(rgba, ft)), rgba[:, :, :3]
        ), f"rgba filter {ft}"


def test_ppm_decode():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    payload = b"P6\n# a comment\n6 4\n255\n" + img.tobytes()
    assert np.array_equal(StdlibDecodeBackend().decode_image(payload), img)


def test_wav_roundtrip():
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_wav

    t = np.arange(2048) / 16000.0
    sig = 0.7 * np.sin(2 * np.pi * 440.0 * t)
    dec = StdlibDecodeBackend().decode_audio(encode_wav(sig))
    assert dec.dtype == np.float32 and dec.shape == (2048,)
    assert np.allclose(dec, sig, atol=2.0 / 32768)


def test_media_features_real_decode():
    """The default media pipeline path decodes REAL PNGs: features equal
    the mean/std of the bit-exact decoded pixels."""
    from nexlt_ray.multimodal import (
        ImageFeatureExtractor,
        StdlibDecodeBackend,
        synthetic_media_table,
    )

    tbl = synthetic_media_table(10)
    out = ImageFeatureExtractor()(tbl)
    be = StdlibDecodeBackend()
    for i in range(10):
        img = be.decode_image(tbl["payload"][i].as_py())
        exp = np.concatenate(
            [img.mean(axis=(0, 1)), img.std(axis=(0, 1))]
        ).astype(np.float32)
        assert np.allclose(np.asarray(out["feature"][i].as_py()), exp)


def test_audio_features_pipeline(ray_session):
    from nexlt_ray.pipelines import audio_features

    out = audio_features("unused").to_pandas()
    assert len(out) == 200
    assert (out["n_samples"] == 1024).all()
    assert (out["rms"] > 0).all() and (out["peak"] <= 1.0).all()


def test_hll_accuracy_large_cardinality():
    from nexlt_ray.joins import _mix64
    from nexlt_ray.textstats import hll_estimate, hll_registers

    for n in (1_000, 50_000, 1_000_000):
        h = _mix64(np.arange(n, dtype=np.uint64))
        est = hll_estimate(hll_registers(h))
        assert abs(est - n) / n < 0.05, (n, est)
    # mergeability: union of two halves == whole
    h = _mix64(np.arange(100_000, dtype=np.uint64))
    a, b = hll_registers(h[:60_000]), hll_registers(h[40_000:])
    assert hll_estimate(np.maximum(a, b)) == hll_estimate(hll_registers(h))


def test_approx_vocab_matches_exact(ray_session):
    from nexlt_ray.pipelines import approx_vocab_by_lang, vocab_stats_by_lang

    sf_dir = "/root/testdata/sf0.001"
    approx = approx_vocab_by_lang(sf_dir).to_pandas().set_index("lang")
    exact = vocab_stats_by_lang(sf_dir)
    if hasattr(exact, "to_pandas"):
        exact = exact.to_pandas()
    exact = exact.set_index("lang")
    for lg in exact.index:
        e = int(exact.loc[lg, "n_distinct_terms"])
        a = int(approx.loc[lg, "approx_distinct_terms"])
        assert abs(a - e) <= max(2, 0.05 * e), (lg, a, e)


def test_mg_truncate_invariants():
    # exact table smaller than k passes through untouched
    terms = pa.array([f"t{i}" for i in range(5)])
    cnts = np.array([10, 9, 8, 7, 6], dtype=np.int64)
    t2, c2, d = T.mg_truncate(terms, cnts, 8)
    assert d == 0 and list(c2) == list(cnts)
    # truncation: survivors decremented by the (k+1)-th largest; every
    # surviving count remains a lower bound; <= k survive
    cnts = np.arange(1, 21, dtype=np.int64)  # 1..20
    terms = pa.array([f"t{i:02d}" for i in range(20)])
    t2, c2, d = T.mg_truncate(terms, cnts, 4)
    assert d == 16  # 5th largest of 1..20
    assert len(c2) <= 4 and (c2 > 0).all()
    kept = dict(zip(t2.to_pylist(), c2))
    for name, lb in kept.items():
        assert lb <= cnts[int(name[1:])]


def test_heavy_hitters_exact_under_forced_decrements(ray_session):
    # vocabulary (600 terms) far exceeds sketch_k=32 per-batch counters and
    # the corpus spreads over many small batches -> decrements fire, yet
    # the recount pass must return the EXACT top-k
    import ray.data
    from collections import Counter

    rng = np.random.default_rng(7)
    vocab = [f"w{i:03d}" for i in range(600)]
    # Zipf-ish: term i has weight 1/(i+1)
    w = 1.0 / (np.arange(600) + 1.0)
    w /= w.sum()
    docs, exact = [], Counter()
    for d in range(400):
        toks = rng.choice(vocab, size=40, p=w)
        exact.update(toks)
        docs.append({"doc_id": d, "text": " ".join(toks)})
    ds = ray.data.from_items(docs).repartition(16)
    got = T.heavy_hitters_exact_topk(ds, k_out=10, sketch_k=32)
    want = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["term"].to_pylist(), got["cf"].to_pylist())) == [
        (t, c) for t, c in want
    ]


def test_chunk_spans_edges(ray_session):
    import ray.data
    from nexlt_ray.packing import chunk_spans

    docs = ray.data.from_items(
        [
            {"doc_id": 0, "text": ""},              # 0 tokens -> no chunks
            {"doc_id": 1, "text": "a b c"},          # n < window -> 1 chunk
            {"doc_id": 2, "text": " ".join(["x"] * 32)},  # n == window -> 1
            {"doc_id": 3, "text": " ".join(["x"] * 33)},  # n = W+1 -> 2
            {"doc_id": 4, "text": " ".join(["x"] * 80)},  # 1+ceil(48/24)=3
        ]
    )
    out = chunk_spans(docs, window=32, stride=24).to_pandas()
    per = out.groupby("doc_id").size().to_dict()
    assert per == {1: 1, 2: 1, 3: 2, 4: 3}
    d4 = out[out.doc_id == 4].sort_values("chunk_idx")
    assert list(d4.start_tok) == [0, 24, 48]
    assert list(d4.end_tok) == [32, 56, 80]
    assert (d4.n_chunk_tokens == d4.end_tok - d4.start_tok).all()
    d3 = out[out.doc_id == 3].sort_values("chunk_idx")
    assert list(d3.end_tok) == [32, 33]


def test_textrank_fast_and_distributed_paths_agree(ray_session):
    from nexlt_ray import pipelines as P

    sf = "/root/testdata/sf0.001"
    fast = P.textrank_keywords(sf).to_pandas()
    dist = P.textrank_keywords(sf, fast_path_max_edges=0).to_pandas()
    assert fast.equals(dist)
    # scores are positive fixed-point ints, strictly ranked desc
    assert (fast["score"] > 0).all()
    assert list(fast["score"]) == sorted(fast["score"], reverse=True)


def test_ddsketch_relative_error_and_merge_invariance():
    rng = np.random.default_rng(11)
    # heavy-tailed positive domain spanning 7 orders of magnitude
    vals = np.exp(rng.normal(0, 3, size=200_000)).astype(np.float64)
    alpha = 0.01
    idx, cnt, nz = T.dd_bucket_counts(vals, alpha)
    assert nz == 0
    for q in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999):
        est = T.dd_quantile(idx, cnt, nz, q, alpha)
        true = np.quantile(vals, q, method="lower")
        assert abs(est - true) <= alpha * true * 1.0001, (q, est, true)
    # merge invariance: any split of the input yields the SAME merged
    # bucket table (histogram counts just add)
    parts = np.array_split(rng.permutation(vals), 7)
    acc = {}
    for p in parts:
        i2, c2, z2 = T.dd_bucket_counts(p, alpha)
        assert z2 == 0
        for i, c in zip(i2, c2):
            acc[int(i)] = acc.get(int(i), 0) + int(c)
    whole = dict(zip(idx.astype(int), cnt.astype(int)))
    assert acc == whole


def test_approx_value_percentiles_vs_exact(ray_session):
    from nexlt_ray import pipelines as P
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    got = P.approx_value_percentiles(sf).to_pandas().set_index("event_type")
    ev = pq.read_table(
        f"{sf}/events.parquet", columns=["event_type", "value"]
    ).to_pandas()
    assert set(got.index) == set(ev["event_type"])
    for t, grp in ev.groupby("event_type"):
        vals = grp["value"].to_numpy()
        for col, q in (("p50_e6", 0.5), ("p90_e6", 0.9), ("p99_e6", 0.99)):
            est = got.loc[t, col] / 1e6
            # same rank convention as dd_quantile: floor(q * (n-1))
            true = float(np.quantile(vals, q, method="lower"))
            assert abs(est - true) <= 0.0101 * true, (t, col, est, true)


def test_hash_join_semi_anti_modes(ray_session):
    import ray.data
    from nexlt_ray.joins import hash_join

    rng = np.random.default_rng(3)
    lkeys = rng.integers(0, 50, size=300)
    rkeys = rng.integers(25, 75, size=120)
    left = ray.data.from_items(
        [{"k": int(k), "v": i} for i, k in enumerate(lkeys)]
    ).repartition(5)
    right = ray.data.from_items(
        [{"k": int(k), "extra": "x"} for k in rkeys]
    ).repartition(3)
    rset = set(rkeys.tolist())

    semi = hash_join(left, right, "k", "k", num_buckets=8, how="left semi")
    anti = hash_join(left, right, "k", "k", num_buckets=8, how="left anti")
    sdf = semi.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    adf = anti.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    # only left columns; each left row at most once (no multiplication by
    # duplicate right keys)
    assert list(sdf.columns) == ["k", "v"] and list(adf.columns) == ["k", "v"]
    assert len(sdf) + len(adf) == 300
    assert set(sdf["k"]).issubset(rset)
    assert set(adf["k"]).isdisjoint(rset)
    exp_semi = sorted(
        (int(k), i) for i, k in enumerate(lkeys) if int(k) in rset
    )
    assert list(map(tuple, sdf[["k", "v"]].to_numpy())) == exp_semi


def test_hash_join_full_outer_vs_duckdb(ray_session):
    import duckdb
    import ray.data
    from nexlt_ray.joins import hash_join

    rng = np.random.default_rng(5)
    ldf = pd.DataFrame(
        {"k": rng.integers(0, 40, size=150), "v": np.arange(150)}
    )
    rdf = pd.DataFrame(
        {"rk": rng.integers(20, 60, size=90), "w": np.arange(90) * 10}
    )
    left = ray.data.from_pandas(ldf).repartition(4)
    right = ray.data.from_pandas(rdf).repartition(3)
    got = (
        hash_join(left, right, "k", "rk", num_buckets=8, how="full outer")
        .to_pandas()
    )
    con = duckdb.connect()
    con.register("l", ldf)
    con.register("r", rdf)
    exp = con.sql(
        "SELECT coalesce(l.k, r.rk) AS k, l.v, r.w "
        "FROM l FULL OUTER JOIN r ON l.k = r.rk"
    ).df()

    def canon(df):
        df = df[["k", "v", "w"]].astype("float64")
        return df.sort_values(["k", "v", "w"], na_position="last").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(canon(got), canon(exp))
    # keys never null after coalescing
    assert got["k"].notna().all()


def test_bloom_semi_anti_join_exact_and_no_false_negatives(ray_session):
    import ray.data
    from nexlt_ray.joins import (
        bloom_build, bloom_might_contain, bloom_semi_anti_join, hash_join,
    )

    rng = np.random.default_rng(9)
    lk = rng.integers(0, 10_000, size=2000)
    rk = rng.integers(5_000, 15_000, size=800)
    left = ray.data.from_items(
        [{"k": int(k), "v": i} for i, k in enumerate(lk)]
    ).repartition(6)
    right = ray.data.from_items(
        [{"rk": int(k)} for k in rk]
    ).repartition(4)

    m_bits = 1 << 16
    bloom = bloom_build(right, "rk", m_bits=m_bits)
    # no false negatives: every true member must probe positive
    members = pa.array(sorted(set(rk.tolist())), pa.int64())
    assert bloom_might_contain(bloom, members, m_bits).all()

    for anti in (True, False):
        got = bloom_semi_anti_join(
            left, right, "k", "rk", anti=anti, m_bits=m_bits, num_buckets=8
        ).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        exp = hash_join(
            left, right, "k", "rk", num_buckets=8,
            how="left anti" if anti else "left semi",
        ).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)

    # the pre-filter actually prunes: definite non-members bypass the join
    mask = bloom_might_contain(
        bloom, pa.array(lk.tolist(), pa.int64()), m_bits
    )
    rset = set(rk.tolist())
    true_members = np.array([k in rset for k in lk])
    fp_rate = (mask & ~true_members).sum() / max((~true_members).sum(), 1)
    assert fp_rate < 0.05, fp_rate


@pytest.mark.parametrize("how", ["inner", "left outer", "full outer",
                                 "left semi", "left anti"])
def test_hash_join_all_modes_randomized_vs_duckdb(ray_session, how):
    """Property check across the whole join matrix: random int keys with
    heavy duplication, nulls on both sides (dropped at the tag -- the
    documented semantics, mirrored in the SQL via IS NOT NULL), uneven
    partitioning."""
    import duckdb
    import ray.data
    from nexlt_ray.joins import hash_join

    rng = np.random.default_rng(hash(how) % 2**31)
    n_l, n_r = 400, 250
    lk = rng.integers(0, 60, size=n_l).astype(float)
    rk = rng.integers(30, 90, size=n_r).astype(float)
    lk[rng.random(n_l) < 0.05] = np.nan
    rk[rng.random(n_r) < 0.05] = np.nan
    lt = pa.table({
        "k": pa.array([None if np.isnan(x) else int(x) for x in lk],
                      pa.int64()),
        "v": pa.array(np.arange(n_l, dtype=np.int64)),
    })
    rt = pa.table({
        "rk": pa.array([None if np.isnan(x) else int(x) for x in rk],
                       pa.int64()),
        "w": pa.array(np.arange(n_r, dtype=np.int64) * 7),
    })
    ldf, rdf = lt.to_pandas(), rt.to_pandas()
    left = ray.data.from_arrow(lt).repartition(5)
    right = ray.data.from_arrow(rt).repartition(2)
    got = hash_join(left, right, "k", "rk", num_buckets=8, how=how).to_pandas()

    con = duckdb.connect()
    con.register("l", ldf)
    con.register("r", rdf)
    sql = {
        "inner": "SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.rk",
        "left outer": """SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.rk
                         WHERE l.k IS NOT NULL""",
        "full outer": """SELECT coalesce(l.k, r.rk) AS k, l.v, r.w
                         FROM (SELECT * FROM l WHERE k IS NOT NULL) l
                         FULL OUTER JOIN
                              (SELECT * FROM r WHERE rk IS NOT NULL) r
                         ON l.k = r.rk""",
        "left semi": """SELECT k, v FROM l WHERE k IN
                        (SELECT rk FROM r WHERE rk IS NOT NULL)""",
        "left anti": """SELECT k, v FROM l WHERE k IS NOT NULL AND k NOT IN
                        (SELECT rk FROM r WHERE rk IS NOT NULL)""",
    }[how]
    exp = con.sql(sql).df()

    def canon(df):
        df = df[sorted(df.columns)].astype("float64")
        return df.sort_values(list(df.columns), na_position="last").reset_index(
            drop=True
        )

    pd.testing.assert_frame_equal(canon(got), canon(exp))


def test_heavy_hitters_by_group_exact_under_decrements(ray_session):
    import ray.data
    from collections import Counter

    rng = np.random.default_rng(13)
    vocab = [f"w{i:03d}" for i in range(300)]
    w = 1.0 / (np.arange(300) + 1.0)
    w /= w.sum()
    docs, exact = [], {"a": Counter(), "b": Counter()}
    for d in range(300):
        g = "a" if d % 2 == 0 else "b"
        # disjoint stratum vocabularies: stratum b reverses the Zipf order
        toks = rng.choice(vocab, size=30, p=(w if g == "a" else w[::-1]))
        exact[g].update(toks)
        docs.append({"doc_id": d, "lang": g, "text": " ".join(toks)})
    ds = ray.data.from_items(docs).repartition(12)
    got = T.heavy_hitters_by_group_exact_topk(
        ds, group_col="lang", k_out=8, sketch_k=24
    )
    gl = got["lang"].to_pylist()
    gt = got["term"].to_pylist()
    gc = got["cf"].to_pylist()
    for g in ("a", "b"):
        want = sorted(exact[g].items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        have = [(t, c) for lg, t, c in zip(gl, gt, gc) if lg == g]
        assert have == [(t, c) for t, c in want], g


def test_pca_whiten_matches_numpy_and_whitens(ray_session):
    import ray.data

    rng = np.random.default_rng(17)
    d = 8
    # anisotropic gaussian with strong correlations
    A = rng.standard_normal((d, d))
    X = rng.standard_normal((3000, d)) @ A
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": row.astype(np.float32).tolist()}
         for i, row in enumerate(X)]
    ).repartition(7)
    out, evals = S.pca_whiten(ds)
    # eigenvalues match a single-matrix reference
    Xf = X.astype(np.float32).astype(np.float64)
    cov = np.cov(Xf, rowvar=False, bias=True)
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(evals, ref, rtol=1e-6, atol=1e-9)
    # the whitened output has ~identity covariance
    df = out.to_pandas().sort_values("vec_id")
    Y = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    covY = np.cov(Y, rowvar=False, bias=True)
    assert np.allclose(covY, np.eye(d), atol=5e-3)


def test_approx_window_distinct_matches_exact(ray_session):
    from nexlt_ray import pipelines as P

    sf = "/root/testdata/sf0.001"
    exact = P.window_distinct_users(sf).to_pandas().set_index("window_id")
    approx = (
        P.approx_window_distinct_users(sf).to_pandas().set_index("window_id")
    )
    assert set(exact.index) == set(approx.index)
    for w in exact.index:
        e = int(exact.loc[w, "n_users"])
        a = int(approx.loc[w, "approx_users"])
        assert abs(a - e) <= max(2, 0.05 * e), (w, a, e)


def test_compression_ratio_flags_repetition(ray_session):
    rep = "spam ham " * 200                  # highly repetitive
    normal = " ".join(f"w{i}x{i * 7 % 97}" for i in range(400))
    batch = pa.table({"doc_id": [0, 1, 2], "text": [rep, normal, ""]})
    out = T.compression_ratio_batch(batch)
    r = dict(zip(out["doc_id"].to_pylist(), out["ratio_e4"].to_pylist()))
    assert r[0] < r[1]          # repetition compresses far better
    assert r[2] == 0            # empty doc
    assert out.equals(T.compression_ratio_batch(batch))  # deterministic


def test_bpe_learn_matches_textbook_reference(ray_session):
    import ray.data
    from collections import Counter
    from nexlt_ray.bpe import bpe_learn

    rng = np.random.default_rng(23)
    base = ["lower", "lowest", "newer", "newest", "wider", "low", "new",
            "slower", "slowest", "widest"]
    docs = [
        {"doc_id": i, "text": " ".join(rng.choice(base, size=12))}
        for i in range(120)
    ]
    got = bpe_learn(ray.data.from_items(docs).repartition(6), n_merges=12)

    # independent textbook BPE (Sennrich et al. 2016, alg. 1) on the same
    # word histogram, symbols = utf-8 bytes + 256 end marker, fresh ids
    # from 257, ties (count DESC, left ASC, right ASC), greedy L-to-R
    hist = Counter()
    for d in docs:
        hist.update(d["text"].split())
    vocab = {
        w: [int(x) for x in w.encode()] + [256] for w in hist
    }
    rules = []
    next_id = 257
    for r in range(12):
        pc_ = Counter()
        for w, syms in vocab.items():
            for i in range(len(syms) - 1):
                pc_[(syms[i], syms[i + 1])] += hist[w]
        if not pc_:
            break
        (a, b), cnt = min(
            pc_.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        for w, syms in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(next_id)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
        rules.append((r, a, b, next_id, cnt))
        next_id += 1

    have = list(zip(got["rank"].to_pylist(), got["left_id"].to_pylist(),
                    got["right_id"].to_pylist(), got["new_id"].to_pylist(),
                    got["pair_count"].to_pylist()))
    assert have == rules

    # encode (the apply stage): vocab now holds each word's final symbol
    # sequence under the learned rules — bpe_token_counts must reproduce
    # per-doc sums of those lengths exactly
    from nexlt_ray.bpe import bpe_token_counts

    cnts = (
        bpe_token_counts(ray.data.from_items(docs).repartition(5), got)
        .to_pandas()
        .set_index("doc_id")["n_bpe_tokens"]
    )
    for d in docs:
        exp = sum(len(vocab[w]) for w in d["text"].split())
        assert cnts[d["doc_id"]] == exp, d["doc_id"]

    # full sequence emission: token_ids is each word's final symbol
    # sequence concatenated in document order
    from nexlt_ray.bpe import bpe_encode_docs

    enc = (
        bpe_encode_docs(ray.data.from_items(docs).repartition(5), got)
        .to_pandas()
        .set_index("doc_id")
    )
    for d in docs:
        exp_seq = " ".join(
            str(s) for w in d["text"].split() for s in vocab[w]
        )
        assert enc.loc[d["doc_id"], "token_ids"] == exp_seq, d["doc_id"]
        assert enc.loc[d["doc_id"], "n_bpe_tokens"] == cnts[d["doc_id"]]


def test_bpe_learn_sharded_equals_single_node(ray_session):
    """VERDICT r4 #5: the sharded merge loop (map_batches pair partials +
    pair groupby per iteration) is bit-identical to the single-node path
    on a histogram with >= 10^5 distinct words — the regime the sharding
    exists for."""
    import ray.data

    from nexlt_ray.bpe import bpe_learn

    rng = np.random.default_rng(7)
    alphabet = np.array(list("abcdef"))
    # ~120k distinct words: random 4-8 char strings over a 6-letter
    # alphabet (6^4 = 1296 ... 6^8 = 1.7M shapes; dups fine, distinct
    # count checked below)
    n_words = 200_000
    lens = rng.integers(4, 9, size=n_words)
    words = ["".join(rng.choice(alphabet, size=int(l))) for l in lens]
    assert len(set(words)) >= 100_000
    docs = [
        {"doc_id": i, "text": " ".join(words[i * 50:(i + 1) * 50])}
        for i in range(n_words // 50)
    ]
    ds1 = ray.data.from_items(docs).repartition(8)
    ds2 = ray.data.from_items(docs).repartition(8)
    single = bpe_learn(ds1, n_merges=8)
    sharded = bpe_learn(ds2, n_merges=8, shards=16)
    assert single.equals(sharded)
    assert single.num_rows == 8


# ---------------------------------------------------------------------------
# hypothesis property tests (pure kernels — no ray session needed)
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 500),
    window=st.integers(1, 64),
    data=st.data(),
)
def test_chunk_count_formula_invariants(n, window, data):
    # chunk_spans enforces stride <= window (overlap semantics; stride >
    # window skips tokens and emits an empty trailing span)
    stride = data.draw(st.integers(1, window))
    # the shared chunk-count formula (packing.chunk_spans / its SQL oracle):
    # starts every `stride`, each span clipped to n, last span must reach n
    k = 0 if n == 0 else 1 + (max(n - window, 0) + stride - 1) // stride
    starts = [i * stride for i in range(k)]
    ends = [min(s + window, n) for s in starts]
    if n == 0:
        assert k == 0
        return
    assert ends[-1] == n                       # coverage reaches the end
    assert all(e > s for s, e in zip(starts, ends))  # no empty chunk
    if k > 1:
        # the second-to-last chunk does NOT already reach n (k is minimal)
        assert ends[-2] < n


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(1, 10_000), min_size=1, max_size=300),
    k=st.integers(1, 50),
)
def test_mg_truncate_bounds_property(counts, k):
    cnts = np.asarray(counts, dtype=np.int64)
    terms = pa.array([f"t{i:04d}" for i in range(len(cnts))])
    t2, c2, d = T.mg_truncate(terms, cnts, k)
    assert len(c2) <= k
    kept = dict(zip(t2.to_pylist(), (int(x) for x in c2)))
    for name, lb in kept.items():
        true = int(cnts[int(name[1:])])
        assert 0 < lb <= true           # lower bound, strictly positive
        assert true - lb <= d           # under-estimate bounded by d
    # every dropped term's true count is <= d
    for i, true in enumerate(cnts):
        if f"t{i:04d}" not in kept:
            assert true <= d


@settings(max_examples=100, deadline=None)
@given(
    vals=st.lists(
        st.floats(1e-6, 1e9, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=500,
    ),
    q=st.floats(0.0, 1.0),
)
def test_ddsketch_relative_error_property(vals, q):
    v = np.asarray(vals, dtype=np.float64)
    alpha = 0.02
    idx, cnt, nz = T.dd_bucket_counts(v, alpha)
    est = T.dd_quantile(idx, cnt, nz, q, alpha)
    true = float(np.quantile(v, q, method="lower"))
    assert abs(est - true) <= alpha * true * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_words=st.integers(1, 12),
    n_merges=st.integers(0, 10),
)
def test_bpe_encode_distinct_words_property(data, n_words, n_merges):
    """encode_distinct_words == per-word sequential replay of the SAME
    rules in rank order (greedy left-to-right), for rules learned from a
    random tiny corpus — rule application must be corpus-independent."""
    from nexlt_ray.bpe import (_apply_merge, _encode_words, _pair_counts,
                               encode_distinct_words)

    alpha = "abc"
    learn_words = [
        data.draw(st.text(alphabet=alpha, min_size=1, max_size=6))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    # learn rules on the tiny corpus via the library's own single-node loop
    lw = sorted(set(learn_words))
    flat, offs = _encode_words(lw)
    wc = np.ones(len(lw), dtype=np.int64)
    rules, next_id = [], 257
    for r in range(n_merges):
        keys, cnts = _pair_counts(flat, offs, wc)
        if keys.size == 0:
            break
        best = int(cnts.max())
        key = int(keys[cnts == best].min())
        a, b = key >> 32, key & 0xFFFFFFFF
        flat, offs, _ = _apply_merge(flat, offs, a, b, next_id)
        rules.append((r, a, b, next_id, best))
        next_id += 1
    rules_t = pa.table(
        {
            "rank": pa.array([x[0] for x in rules], pa.int64()),
            "left_id": pa.array([x[1] for x in rules], pa.int64()),
            "right_id": pa.array([x[2] for x in rules], pa.int64()),
            "new_id": pa.array([x[3] for x in rules], pa.int64()),
            "pair_count": pa.array([x[4] for x in rules], pa.int64()),
        }
    )
    # encode UNRELATED words under those rules
    enc_words = [
        data.draw(st.text(alphabet=alpha, min_size=0, max_size=8))
        for _ in range(n_words)
    ]
    got_flat, got_offs = encode_distinct_words(enc_words, rules_t)

    def replay(w):
        syms = list(w.encode()) + [256]
        for _, a, b, nid, _c in rules:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(nid)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return syms

    exp = [replay(w) for w in enc_words]
    assert got_flat.tolist() == [s for w in exp for s in w]
    assert np.diff(got_offs).tolist() == [len(w) for w in exp]


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        min_size=1, max_size=8,
    ),
    a=st.integers(0, 3),
    b=st.integers(0, 3),
)
def test_bpe_apply_merge_matches_sequential_greedy(words, a, b):
    from nexlt_ray.bpe import _apply_merge

    lens = np.array([len(w) for w in words], dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(lens)])
    flat = np.array([s for w in words for s in w], dtype=np.int32)
    got_flat, got_offs, n_merged = _apply_merge(flat, offs, a, b, 99)

    exp = []
    total = 0
    for w in words:
        out, i = [], 0
        while i < len(w):
            if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                out.append(99)
                i += 2
                total += 1
            else:
                out.append(w[i])
                i += 1
        exp.append(out)
    exp_flat = [s for w in exp for s in w]
    exp_offs = np.concatenate(
        [[0], np.cumsum([len(w) for w in exp])]
    )
    assert got_flat.tolist() == exp_flat
    assert got_offs.tolist() == exp_offs.tolist()
    assert n_merged == total


def test_triangles_fast_and_join_paths_agree(ray_session):
    from nexlt_ray import pipelines as P

    sf = "/root/testdata/sf0.001"
    fast = P.cooccur_triangles(sf).to_pandas()
    dist = P.cooccur_triangles(sf, fast_path_max_edges=0).to_pandas()
    key = ["t1", "t2", "t3"]
    f = fast[key].sort_values(key).reset_index(drop=True)
    d = dist[key].sort_values(key).reset_index(drop=True)
    assert f.equals(d) and len(f) > 0
    # ordering invariant: every triangle enumerated once, t1 < t2 < t3
    assert ((f.t1 < f.t2) & (f.t2 < f.t3)).all()


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(1, 4),
    wh=st.integers(1, 6),
    hh=st.integers(1, 6),
    cs=st.sampled_from(["C420jpeg", "C420mpeg2", "C422", "C444", "Cmono"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_y4m_roundtrip_property(n_frames, wh, hh, cs, seed):
    """Y4M encode->decode round-trips bit-exactly for ARBITRARY plane
    content (not just the BT.601-quantized range) across all supported
    colorspaces, frame counts, and dimensions."""
    from nexlt_ray.multimodal import (
        _y4m_chroma_divs,
        decode_y4m_planes,
        encode_y4m_planes,
    )

    divs = _y4m_chroma_divs(cs)
    w, h = wh, hh
    if divs is not None:
        w, h = wh * divs[0], hh * divs[1]  # dims must divide evenly
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n_frames):
        y = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        if divs is None:
            frames.append((y, None, None))
        else:
            cw, chh = w // divs[0], h // divs[1]
            frames.append((
                y,
                rng.integers(0, 256, size=(chh, cw), dtype=np.uint8),
                rng.integers(0, 256, size=(chh, cw), dtype=np.uint8),
            ))
    dec, dw, dh, dcs = decode_y4m_planes(encode_y4m_planes(frames, cs))
    assert (dw, dh, dcs) == (w, h, cs) and len(dec) == n_frames
    for (y0, u0, v0), (y1, u1, v1) in zip(frames, dec):
        assert np.array_equal(y0, y1)
        if u0 is None:
            assert u1 is None and v1 is None
        else:
            assert np.array_equal(u0, u1) and np.array_equal(v0, v1)


def test_media_on_error_mark_isolates_bad_payloads():
    """Per-record error isolation: at corpus scale a corrupt payload must
    not kill the batch task. on_error='mark' keeps the row, nulls the
    feature, and records the message; default 'raise' is unchanged."""
    import pyarrow as pa
    import pytest

    from nexlt_ray.multimodal import (
        AudioFeatureExtractor,
        FrameSampler,
        ImageFeatureExtractor,
        encode_wav,
        synthetic_media_table,
    )

    tbl = synthetic_media_table(6)
    bad = tbl["payload"][0].as_py()[:20]  # truncated PNG
    payloads = [bad] + [tbl["payload"][i].as_py() for i in range(1, 6)]
    mixed = pa.table(
        {
            "item_id": pa.array(range(6), pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    with pytest.raises(Exception):
        ImageFeatureExtractor()(mixed)
    out = ImageFeatureExtractor(on_error="mark")(mixed)
    assert out.num_rows == 6
    assert out["feature"][0].as_py() is None
    assert out["decode_error"][0].as_py()  # message recorded
    assert all(
        out["feature"][i].as_py() is not None
        and out["decode_error"][i].as_py() is None
        for i in range(1, 6)
    )

    # audio: NaN/-1 marker row
    wav = encode_wav(np.sin(np.linspace(0, 20, 500)).astype(np.float32))
    audio = pa.table(
        {
            "item_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array([b"not a wav", wav], pa.binary()),
        }
    )
    with pytest.raises(Exception):
        AudioFeatureExtractor()(audio)
    aout = AudioFeatureExtractor(on_error="mark")(audio)
    assert aout["n_samples"].to_pylist() == [-1, 500]
    assert np.isnan(aout["rms"][0].as_py()) and aout["rms"][1].as_py() > 0

    # video: frame_no=-1 marker row, good payloads still sampled
    from nexlt_ray.multimodal import synthetic_video_table

    vt = synthetic_video_table(2, n_frames=4)
    vids = pa.table(
        {
            "item_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array(
                [b"YUV4MPEG2 garbage", vt["payload"][1].as_py()], pa.binary()
            ),
        }
    )
    with pytest.raises(Exception):
        FrameSampler(stride=2)(vids)
    vout = FrameSampler(stride=2, on_error="mark")(vids)
    marker = vout.filter(pa.compute.equal(vout["frame_no"], -1))
    assert marker.num_rows == 1 and marker["item_id"][0].as_py() == 0
    assert vout.filter(pa.compute.equal(vout["item_id"], 1)).num_rows == 2


# ---------------------------------------------------------------------------
# inter-document line-level boilerplate removal
# ---------------------------------------------------------------------------
def test_line_dedup_semantics(ray_session):
    """Hand-computable case: df counts DISTINCT docs (a line repeated
    inside one doc counts once toward df but every occurrence is removed);
    fully-boilerplate docs keep their row with empty text; order of
    surviving lines is preserved."""
    import ray.data

    docs = [
        (0, "keep one\nBOILER\nkeep two"),
        (1, "BOILER\nunique a"),
        (2, "unique b\nBOILER"),
        (3, "BOILER"),
        (4, "solo doc line\nanother"),
        (5, "BOILER\nBOILER\nx"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    # BOILER df = 5 distinct docs (doc 5's repeat counts once) >= 4
    out = (
        D.line_dedup(ray.data.from_arrow(t), min_docs=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["clean_text"].tolist() == [
        "keep one\nkeep two", "unique a", "unique b", "", 
        "solo doc line\nanother", "x",
    ]
    assert out["n_lines"].tolist() == [3, 2, 2, 1, 2, 3]
    assert out["n_removed"].tolist() == [1, 1, 1, 1, 0, 2]
    # threshold just above the df: nothing is removed, texts round-trip
    out2 = (
        D.line_dedup(ray.data.from_arrow(t), min_docs=6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out2["clean_text"].tolist() == [s for _, s in docs]
    assert int(out2["n_removed"].sum()) == 0


def test_line_dedup_partitioning_invariant(ray_session):
    """Same result at any block count (the df partial-sum argument relies
    on doc atomicity within a batch, never on block layout)."""
    import ray.data

    rng = np.random.default_rng(7)
    texts = []
    for i in range(60):
        body = [
            " ".join(
                str(x) for x in rng.integers(0, 9, size=4)
            )
            for _ in range(rng.integers(1, 5))
        ]
        if i % 2 == 0:
            body.insert(0, "shared header line")
        texts.append("\n".join(body))
    t = pa.table(
        {"doc_id": pa.array(range(60), pa.int64()), "text": pa.array(texts)}
    )

    def run(nb):
        ds = ray.data.from_arrow(t).repartition(nb)
        return (
            D.line_dedup(ds, min_docs=10)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    a, b = run(1), run(13)
    pd.testing.assert_frame_equal(a, b)
    assert not a[a.doc_id % 2 == 0]["clean_text"].str.contains(
        "shared header line"
    ).any()


# ---------------------------------------------------------------------------
# DSIR importance weights
# ---------------------------------------------------------------------------
def test_dsir_weights_matches_single_machine_reference(ray_session):
    """Distributed DSIR log-ratio weights equal an independent
    single-machine numpy replay exactly (int64 fixed point), and rank
    target-like docs above off-target docs."""
    import ray.data

    from nexlt_ray.sampling import dsir_logratio_weights
    from nexlt_ray.tokenize import tokenize_query

    rng = np.random.default_rng(3)
    tgt_vocab = ["alpha", "beta", "gamma", "delta"]
    raw_vocab = ["uno", "dos", "tres", "quatro"]
    texts, flags = [], []
    for i in range(120):
        is_t = i % 3 == 0
        v = tgt_vocab if is_t else raw_vocab
        texts.append(" ".join(rng.choice(v, size=rng.integers(3, 15))))
        flags.append(is_t)
    t = pa.table(
        {
            "doc_id": pa.array(range(120), pa.int64()),
            "text": pa.array(texts),
            "is_t": pa.array(flags),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)
    out = (
        dsir_logratio_weights(
            ds, lambda b: np.asarray(b["is_t"].to_numpy(zero_copy_only=False))
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # independent reference: plain dict counting over the same tokenizer
    from collections import Counter

    c_r, c_t = Counter(), Counter()
    doc_toks = []
    for txt, is_t in zip(texts, flags):
        toks = tokenize_query(txt, profile="simple")
        doc_toks.append(toks)
        c_r.update(toks)
        if is_t:
            c_t.update(toks)
    n_r, n_t, v = sum(c_r.values()), sum(c_t.values()), len(c_r)
    lam = {
        w: int(
            np.floor(
                np.log(
                    float((c_t.get(w, 0) + 1) * (n_r + v))
                    / float((c_r[w] + 1) * (n_t + v))
                )
                * 10_000
                + 0.5
            )
        )
        for w in c_r
    }
    exp = [sum(lam[w] for w in toks) for toks in doc_toks]
    assert out["logw_e4"].tolist() == exp
    assert out["n_tokens"].tolist() == [len(tk) for tk in doc_toks]
    # separation: every target doc outranks every off-target doc
    lw = out["logw_e4"].to_numpy()
    f = np.array(flags)
    assert lw[f].min() > lw[~f].max()


# ---------------------------------------------------------------------------
# incremental MinHash-LSH maintenance
# ---------------------------------------------------------------------------
def test_minhash_incremental_equals_full_lsh(ray_session, tmp_path):
    """Incremental candidates (new shard vs persisted signature table,
    plus new-vs-new) equal the full LSH run over old+new minus the
    old-vs-old pairs — byte-for-byte the same (doc_a, doc_b) set; and
    after extend_signature_table a SECOND increment treats the first
    shard as existing corpus."""
    import ray.data

    rng = np.random.default_rng(11)
    vocab = np.array([f"w{i}" for i in range(40)], dtype=object)

    def mk(n, start):
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(8, 20)))
            for _ in range(n)
        ]
        # plant near-dups: every 5th doc copies the previous with a tweak
        for i in range(4, n, 5):
            texts[i] = texts[i - 1] + " w0"
        return pa.table(
            {
                "doc_id": pa.array(range(start, start + n), pa.int64()),
                "text": pa.array(texts),
            }
        )

    old_t, new_t = mk(150, 0), mk(50, 1000)
    # cross dups: some new docs copy old docs exactly
    txts = new_t["text"].to_pylist()
    for j, src in enumerate(range(0, 30, 7)):
        txts[j] = old_t["text"][src].as_py()
    new_t = pa.table({"doc_id": new_t["doc_id"], "text": pa.array(txts)})

    old_ds = ray.data.from_arrow(old_t).repartition(4)
    new_ds = ray.data.from_arrow(new_t).repartition(3)

    def pairset(ds_pairs):
        df = ds_pairs.to_pandas()
        return set(zip(df["doc_a"].tolist(), df["doc_b"].tolist()))

    sig = D.minhash_signature_table(old_ds, str(tmp_path / "sig"), concurrency=2)
    inc = pairset(D.minhash_incremental_pairs(new_ds, sig, concurrency=2))

    union = ray.data.from_arrow(pa.concat_tables([old_t, new_t])).repartition(5)
    full = pairset(D.minhash_lsh_pairs(union, concurrency=2))
    full_not_old_old = {
        (a, b) for a, b in full if not (a < 1000 and b < 1000)
    }
    assert inc == full_not_old_old
    assert any(a < 1000 <= b for a, b in inc)   # found cross dups
    assert any(a >= 1000 for a, b in inc)       # found new-new dups

    # second increment: shard 2 vs (old + shard 1)
    D.extend_signature_table(new_ds, sig, concurrency=2)
    new2 = mk(30, 2000)
    t2 = new2["text"].to_pylist()
    t2[0] = new_t["text"][5].as_py()   # dup of a shard-1 doc
    t2[1] = old_t["text"][50].as_py()  # dup of an old doc
    new2 = pa.table({"doc_id": new2["doc_id"], "text": pa.array(t2)})
    new2_ds = ray.data.from_arrow(new2).repartition(2)
    inc2 = pairset(D.minhash_incremental_pairs(new2_ds, sig, concurrency=2))
    union2 = ray.data.from_arrow(
        pa.concat_tables([old_t, new_t, new2])
    ).repartition(6)
    full2 = pairset(D.minhash_lsh_pairs(union2, concurrency=2))
    expected2 = {(a, b) for a, b in full2 if b >= 2000}
    assert inc2 == expected2
    assert (5 + 1000, 2000) in inc2 or (1000 + 5, 2000) in inc2
    assert (50, 2001) in inc2


def test_line_dedup_group_scoped(ray_session):
    """group_col scopes the frequency: a line reaching min_docs within one
    group is removed THERE only; a line spread thin across groups survives
    even when its global df exceeds the threshold."""
    import ray.data

    rows = []
    did = 0
    # group g0: banner in 4 docs (>= 3) -> removed in g0
    for _ in range(4):
        rows.append((did, "g0", "navbar g0\nbody %d" % did)); did += 1
    # groups g1..g4: the same global line once each (global df 5 >= 3,
    # per-group df 1) -> kept everywhere
    for g in range(1, 5):
        rows.append((did, f"g{g}", "global promo\nbody %d" % did)); did += 1
    rows.append((did, "g1", "plain body")); did += 1
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "source": pa.array([r[1] for r in rows]),
            "text": pa.array([r[2] for r in rows]),
        }
    )
    out = (
        D.line_dedup(
            ray.data.from_arrow(t).repartition(3),
            min_docs=3,
            group_col="source",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert not out["clean_text"].str.contains("navbar g0").any()
    assert (out["clean_text"].str.contains("global promo")).sum() == 4
    assert out["n_removed"].tolist() == [1, 1, 1, 1, 0, 0, 0, 0, 0]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 400),
    nb=st.integers(1, 8),
    buckets=st.integers(1, 16),
    mode=st.sampled_from(["first", "count", "min"]),
    data=st.data(),
)
def test_pair_reduce_matches_pandas(ray_session, n, nb, buckets, mode, data):
    """pair_reduce == pandas groupby reference for all three modes, under
    any block layout and bucket count (the bucketed reduce replaced Ray's
    composite-key aggregate for a ~100x win — semantics must be identical)."""
    import pandas as pd
    import ray.data

    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    a = rng.integers(0, 12, size=n).astype(np.int64)
    b = rng.integers(0, 12, size=n).astype(np.int64)
    v = rng.integers(-5, 100, size=n).astype(np.int64)
    t = pa.table(
        {"doc_a": pa.array(a), "doc_b": pa.array(b), "h_p": pa.array(v)}
    )
    ds = ray.data.from_arrow(t).repartition(nb)
    kw = dict(num_buckets=buckets)
    if mode == "first":
        got = D.pair_reduce(ds, "first", **kw).to_pandas()
        exp = (
            pd.DataFrame({"doc_a": a, "doc_b": b})
            .drop_duplicates()
            .reset_index(drop=True)
        )
        got = got[["doc_a", "doc_b"]]
    elif mode == "count":
        got = D.pair_reduce(ds, "count", out_col="c", **kw).to_pandas()
        exp = (
            pd.DataFrame({"doc_a": a, "doc_b": b})
            .groupby(["doc_a", "doc_b"], as_index=False)
            .size()
            .rename(columns={"size": "c"})
        )
    else:
        got = D.pair_reduce(ds, "min", value_col="h_p", out_col="m", **kw).to_pandas()
        exp = (
            pd.DataFrame({"doc_a": a, "doc_b": b, "m": v})
            .groupby(["doc_a", "doc_b"], as_index=False)["m"]
            .min()
        )
    key = ["doc_a", "doc_b"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True).astype(np.int64)
    pd.testing.assert_frame_equal(got.astype(np.int64), exp)


def test_doc_bucket_spread():
    """Regression (r4 advice): the Fibonacci bucket mix must run in uint64.
    The old int64-array * out-of-range-Python-int expression promoted to
    float64 on numpy 1.x, where every product is a multiple of 2048 and
    `% num_buckets` sent EVERY doc id to bucket 0 — one reassembly group,
    single-task OOM at scale."""
    import numpy as np

    ids = np.arange(10_000, dtype=np.int64)
    b = D._doc_bucket(ids, 32)
    assert b.dtype == np.int64
    counts = np.bincount(b, minlength=32)
    assert (counts > 0).all()                      # all buckets used
    assert counts.max() < 3 * ids.size / 32        # roughly balanced
    # also exercises huge ids (sign-bit territory)
    big = np.array([2**62, 2**63 - 1, 0, -1], dtype=np.int64)
    bb = D._doc_bucket(big, 8)
    assert ((0 <= bb) & (bb < 8)).all()


def test_line_dedup_int_group_col(ray_session):
    """A non-string group column (int domain id) works: the declared join
    schemas derive the group type from the input schema instead of
    hardcoding string."""
    import ray.data

    rows = []
    did = 0
    for _ in range(4):
        rows.append((did, 7, "navbar\nbody %d" % did)); did += 1
    for g in range(1, 5):
        rows.append((did, g, "global promo\nbody %d" % did)); did += 1
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "domain_id": pa.array([r[1] for r in rows], pa.int64()),
            "text": pa.array([r[2] for r in rows]),
        }
    )
    out = (
        D.line_dedup(
            ray.data.from_arrow(t).repartition(3),
            min_docs=3,
            group_col="domain_id",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert not out["clean_text"].str.contains("navbar").any()
    assert (out["clean_text"].str.contains("global promo")).sum() == 4
    assert out["n_removed"].tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
