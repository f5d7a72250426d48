"""Baseline JPEG (nexlt_ray.jpeg) and GIF/LZW (nexlt_ray.gif) codec tests.

Strategy (same as the PNG/Y4M codecs): every piece with an independent
mathematical definition is checked against a brute-force reference
computed differently — the matrix IDCT vs the T.81 A.3.3 quadruple loop,
zigzag vs a hand walk, canonical Huffman codes vs first-principles
properties — and whole-stream behavior is checked by encode->decode
round-trips (bit-exact for lossless GIF; PSNR / hand-computed DC
reconstruction bounds for lossy JPEG). No Ray needed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nexlt_ray.gif import decode_gif, decode_gif_frames, encode_gif
from nexlt_ray.jpeg import (
    AC_LUMA_BITS,
    AC_LUMA_VALS,
    DC_LUMA_BITS,
    DC_LUMA_VALS,
    DCT_M,
    ZZ_RASTER,
    decode_jpeg,
    encode_jpeg,
    encode_jpeg_progressive,
    huffman_codes,
    idct2d_reference,
)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 99.0 if mse == 0 else 10 * np.log10(255.0**2 / mse)


# --------------------------------------------------------------------------
# components vs brute force
# --------------------------------------------------------------------------

def test_idct_matches_t81_quadruple_loop():
    rng = np.random.default_rng(3)
    for _ in range(5):
        coef = rng.integers(-1000, 1000, (8, 8)).astype(np.float64)
        fast = DCT_M.T @ coef @ DCT_M
        assert np.abs(fast - idct2d_reference(coef)).max() < 1e-9


def test_dct_roundtrip_identity():
    rng = np.random.default_rng(4)
    b = rng.random((8, 8)) * 255
    f = DCT_M @ b @ DCT_M.T
    assert np.abs(DCT_M.T @ f @ DCT_M - b).max() < 1e-9


def test_zigzag_order():
    # T.81 Figure 5's first and last entries, hand-walked
    assert list(ZZ_RASTER[:10]) == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]
    # ... and the canonical table's final row ends 47, 55, 62, 63
    assert list(ZZ_RASTER[-4:]) == [47, 55, 62, 63]
    # a permutation of 0..63
    assert sorted(ZZ_RASTER.tolist()) == list(range(64))


def test_huffman_canonical_codes():
    """C.2 canonical expansion: lengths follow BITS, codes of one length
    are consecutive, and the whole table is prefix-free."""
    codes = huffman_codes(AC_LUMA_BITS, AC_LUMA_VALS)
    assert len(codes) == sum(AC_LUMA_BITS) == 162
    by_len: dict[int, list[int]] = {}
    for sym, (code, ln) in codes.items():
        by_len.setdefault(ln, []).append(code)
    for ln, cs in by_len.items():
        assert len(cs) == AC_LUMA_BITS[ln - 1]
        assert sorted(cs) == list(range(min(cs), min(cs) + len(cs)))
    # prefix-free: no code is a prefix of a longer one
    as_bits = sorted(
        (format(c, f"0{ln}b") for c, ln in codes.values()), key=len
    )
    for i, a in enumerate(as_bits):
        for b in as_bits[i + 1 :]:
            assert not b.startswith(a), (a, b)
    # DC luma: 12 symbols, shortest code is 2 bits (BITS starts 0,1,5,...)
    dc = huffman_codes(DC_LUMA_BITS, DC_LUMA_VALS)
    assert len(dc) == 12 and min(ln for _, ln in dc.values()) == 2


# --------------------------------------------------------------------------
# JPEG whole-stream
# --------------------------------------------------------------------------

def test_jpeg_constant_image_roundtrip_exact():
    for v in (0, 57, 130, 255):
        img = np.full((24, 40, 3), v, np.uint8)
        dec = decode_jpeg(encode_jpeg(img, quality=90))
        assert dec.shape == (24, 40, 3)
        assert int(np.abs(dec.astype(int) - v).max()) <= 1


def test_jpeg_single_block_dc_reconstruction_hand_computed():
    """Grayscale constant block: the only nonzero coefficient is DC, so the
    decoded value is predictable by hand from the quantization table the
    encoder embeds: round(round((v-128)*8/q) * q / 8) + 128."""
    from nexlt_ray.jpeg import QUANT_LUMA, _quality_scale

    v = 77
    q = int(_quality_scale(QUANT_LUMA.reshape(8, 8), 85)[0, 0])
    dc = np.rint((v - 128) * 8.0 / q)
    expected = int(np.clip(np.rint(dc * q / 8.0) + 128, 0, 255))
    dec = decode_jpeg(encode_jpeg(np.full((8, 8), v, np.uint8), quality=85))
    assert (dec == expected).all()


@pytest.mark.parametrize("subsampling,min_psnr", [("444", 40), ("420", 35)])
def test_jpeg_gradient_psnr(subsampling, min_psnr):
    x = np.linspace(0, 255, 75)
    y = np.linspace(0, 255, 53)
    grad = np.clip(
        np.stack(
            [
                np.add.outer(y, x) / 2,
                np.add.outer(0 * y, x),
                np.add.outer(y, 0 * x),
            ],
            axis=2,
        ),
        0,
        255,
    ).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(grad, quality=95, subsampling=subsampling))
    assert dec.shape == grad.shape
    assert psnr(grad, dec) > min_psnr


def test_jpeg_restart_markers_do_not_change_pixels():
    """DRI/RSTn only reset DC predictors; the quantized coefficients are
    identical, so the decoded image must be bit-identical."""
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (40, 56, 3), np.uint8)
    plain = decode_jpeg(encode_jpeg(img, quality=80))
    with_rst = decode_jpeg(encode_jpeg(img, quality=80, restart_interval=2))
    assert np.array_equal(plain, with_rst)


def test_jpeg_grayscale_and_odd_sizes():
    rng = np.random.default_rng(10)
    for h, w in [(1, 1), (8, 8), (9, 17), (16, 15), (31, 2)]:
        g = rng.integers(0, 256, (h, w), np.uint8)
        dec = decode_jpeg(encode_jpeg(g, quality=92))
        assert dec.shape == (h, w, 3)
        # grayscale replicates into 3 identical channels
        assert np.array_equal(dec[:, :, 0], dec[:, :, 1])
        rgb = rng.integers(0, 256, (h, w, 3), np.uint8)
        for sub in ("444", "420"):
            assert decode_jpeg(encode_jpeg(rgb, subsampling=sub)).shape == (
                h,
                w,
                3,
            )


def test_jpeg_noise_error_bounded():
    rng = np.random.default_rng(11)
    noise = rng.integers(0, 256, (32, 48, 3), np.uint8)
    dec = decode_jpeg(encode_jpeg(noise, quality=90))
    err = np.abs(dec.astype(int) - noise.astype(int))
    assert float(err.mean()) < 12.0  # measured ~6.2; noise is the worst case
    dec100 = decode_jpeg(encode_jpeg(noise, quality=100))
    assert psnr(noise, dec100) > 45  # q100: quant table is nearly all ones


def test_jpeg_rejects_lossless_and_garbage():
    import struct

    sof3 = (  # lossless sequential — still out of scope
        b"\xFF\xD8"
        + b"\xFF\xC3"
        + struct.pack(">HBHHB", 11, 8, 8, 8, 1)
        + b"\x01\x11\x00"
    )
    with pytest.raises(ValueError, match="unsupported JPEG process"):
        decode_jpeg(sof3)
    # progressive frame header with no scan data at all
    sof2 = (
        b"\xFF\xD8"
        + b"\xFF\xC2"
        + struct.pack(">HBHHB", 11, 8, 8, 8, 1)
        + b"\x01\x11\x00"
        + b"\xFF\xD9"
    )
    with pytest.raises(ValueError, match="no scan data"):
        decode_jpeg(sof2)
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"\x00\x01\x02")


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    quality=st.integers(60, 98),
    seed=st.integers(0, 2**31),
)
def test_jpeg_roundtrip_property(h, w, quality, seed):
    """Any size/quality: decode(encode(img)) has the right shape/dtype and
    bounded error (worst case is full-range noise; per-pixel error is
    bounded by the sum of quantization steps, far under 128)."""
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=quality))
    assert dec.shape == (h, w, 3) and dec.dtype == np.uint8
    # tiny images of full-range noise at low quality reach a mean error in
    # the mid-40s (single block, coarse chroma quant steps up to 99);
    # 64 still cleanly separates "lossy but correct" from "garbage"
    assert float(np.mean(np.abs(dec.astype(int) - img.astype(int)))) < 64.0


# --------------------------------------------------------------------------
# GIF whole-stream (lossless: bit-exact round trips)
# --------------------------------------------------------------------------

def test_gif_roundtrip_exact_basic():
    rng = np.random.default_rng(12)
    for shape, ncol in [((13, 17), 5), ((64, 64), 250), ((7, 300), 2), ((1, 1), 1)]:
        pal = rng.integers(0, 256, (ncol, 3), np.uint8)
        img = pal[rng.integers(0, ncol, shape)]
        assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_gif_width_boundary_and_table_churn():
    """Images that push the LZW code width across 2^n boundaries and (at
    200x100, 256 colors) churn the dictionary — the off-by-one trap in the
    width-bump discipline shows up here as garbage pixels."""
    rng = np.random.default_rng(13)
    pal = rng.integers(0, 256, (256, 3), np.uint8)
    noise = pal[rng.integers(0, 256, (100, 200))]
    assert np.array_equal(decode_gif(encode_gif(noise)), noise)
    runs = pal[(np.add.outer(np.arange(90), np.arange(310)) // 7) % 3]
    assert np.array_equal(decode_gif(encode_gif(runs)), runs)


def test_gif_interlaced_decode():
    """Hand-assemble an interlaced GIF (spec row passes 8/8, 8/8+4, 4/4+2,
    2/2+1) and check the decoder reorders rows back."""
    import struct

    from nexlt_ray.gif import _lzw_encode

    rng = np.random.default_rng(14)
    h, w = 19, 11
    pal = rng.integers(0, 256, (8, 3), np.uint8)
    idx = rng.integers(0, 8, (h, w)).astype(np.uint8)
    order = (
        list(range(0, h, 8))
        + list(range(4, h, 8))
        + list(range(2, h, 4))
        + list(range(1, h, 2))
    )
    rows_on_wire = idx[order]  # what an interlaced encoder transmits
    out = bytearray(b"GIF87a")
    out += struct.pack("<HHBBB", w, h, 0x80 | 2, 0, 0)  # 8-entry GCT
    out += pal.tobytes()
    out += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0x40)  # interlace
    out.append(3)  # min code size for 8 colors
    lzw = _lzw_encode(rows_on_wire.ravel(), 3)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3B"
    dec = decode_gif(bytes(out))
    assert np.array_equal(dec, pal[idx])


def test_gif_89a_extensions_skipped():
    """Splice a Graphic Control Extension between the screen descriptor and
    the image block; the decoder must skip it."""
    rng = np.random.default_rng(15)
    pal = rng.integers(0, 256, (4, 3), np.uint8)
    img = pal[rng.integers(0, 4, (9, 9))]
    data = bytearray(encode_gif(img))
    # header(6) + LSD(7) + GCT(2 entries? no: bits for 4 colors -> 4) ...
    # find the image separator and insert the extension right before it
    sep = data.index(0x2C, 13)
    gce = b"\x21\xF9\x04\x00\x00\x00\x00\x00"
    patched = bytes(data[:sep]) + gce + bytes(data[sep:])
    assert np.array_equal(decode_gif(patched), img)
    assert bytes(data[:6]) in (b"GIF87a", b"GIF89a")


def test_gif_multi_frame_enumeration():
    """Two image blocks in one stream, the second carrying a LOCAL color
    table (its palette ordering differs from the global one):
    decode_gif_frames yields both, each through its own table."""
    rng = np.random.default_rng(16)
    pal = rng.integers(0, 256, (16, 3), np.uint8)
    a = pal[rng.integers(0, 16, (6, 6))]
    b = pal[rng.integers(0, 16, (6, 6))]
    ga, gb = encode_gif(a), encode_gif(b)
    # lift b's global color table into a local one on its image descriptor
    bits_b = (gb[10] & 7) + 1
    n_b = 1 << bits_b
    gct_b = gb[13 : 13 + 3 * n_b]
    sep_b = 13 + 3 * n_b
    assert gb[sep_b] == 0x2C
    desc = bytearray(gb[sep_b : sep_b + 10])
    desc[9] |= 0x80 | (bits_b - 1)  # local color table flag + size
    stream = ga[:-1] + bytes(desc) + gct_b + gb[sep_b + 10 :]
    frames = list(decode_gif_frames(stream))
    assert len(frames) == 2
    assert np.array_equal(frames[0], a) and np.array_equal(frames[1], b)


def test_gif_too_many_colors_rejected():
    rng = np.random.default_rng(17)
    img = rng.integers(0, 256, (32, 32, 3), np.uint8)  # ~1024 distinct
    with pytest.raises(ValueError, match="<=256"):
        encode_gif(img)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    ncol=st.integers(1, 256),
    seed=st.integers(0, 2**31),
)
def test_gif_roundtrip_property(h, w, ncol, seed):
    """Lossless: encode->decode is the identity for ANY palette/size."""
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, (ncol, 3), np.uint8)
    img = pal[rng.integers(0, ncol, (h, w))]
    assert np.array_equal(decode_gif(encode_gif(img)), img)


# --------------------------------------------------------------------------
# backend dispatch + pipeline integration
# --------------------------------------------------------------------------

def test_backend_dispatches_jpeg_and_gif():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(18)
    img = rng.integers(0, 256, (16, 16, 3), np.uint8)
    dec = be.decode_image(encode_jpeg(img, quality=95))
    assert dec.shape == (16, 16, 3)
    assert psnr(img, dec) > 25
    quant = (img // 64) * 64
    assert np.array_equal(be.decode_image(encode_gif(quant)), quant)


def test_media_table_mixes_all_image_codecs():
    """synthetic_media_table rotates PNG/JPEG(3 variants)/GIF; the feature
    extractor must handle a mixed batch, and features must equal the
    mean/std of each payload's own decode."""
    from nexlt_ray.multimodal import (
        ImageFeatureExtractor,
        StdlibDecodeBackend,
        synthetic_media_table,
    )

    tbl = synthetic_media_table(22)
    assert set(tbl["media_type"].to_pylist()) == {
        "image/png",
        "image/jpeg",
        "image/webp",
        "image/gif",
    }
    out = ImageFeatureExtractor()(tbl)
    be = StdlibDecodeBackend()
    for i in range(22):
        img = be.decode_image(tbl["payload"][i].as_py())
        exp = np.concatenate(
            [img.mean(axis=(0, 1)), img.std(axis=(0, 1))]
        ).astype(np.float32)
        assert np.allclose(np.asarray(out["feature"][i].as_py()), exp)


# --------------------------------------------------------------------------
# external real-world files (vendored from CPython's Lib/test/imghdrdata,
# PSF license): the same 16x16 logo rendered by external tools in four
# formats — cross-format agreement validates the decoders against streams
# our own encoders never produced.
# --------------------------------------------------------------------------

import os

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _load(name: str) -> bytes:
    with open(os.path.join(_DATA, name), "rb") as f:
        return f.read()


def test_external_palette_png_matches_ppm_exactly():
    """python.png is a PALETTE (color type 3) PNG; python.ppm is the same
    pixels uncompressed. Two fully independent decode paths, bit-equal."""
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    png = be.decode_image(_load("python.png"))
    ppm = be.decode_image(_load("python.ppm"))
    assert png.shape == ppm.shape == (16, 16, 3)
    assert np.array_equal(png, ppm)


def test_external_libjpeg_file_decodes_aligned():
    """python.jpg was produced by a real external JPEG encoder. Decoding it
    must land pixel-aligned on the lossless PPM (shift-(0,0) correlation
    is the alignment test: a chroma-upsample or MCU-layout bug shows up as
    an off-by-one shift scoring higher than (0,0))."""
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    jpg = decode_jpeg(_load("python.jpg"))
    ppm = be.decode_image(_load("python.ppm"))
    assert jpg.shape == (16, 16, 3)
    assert psnr(ppm, jpg) > 20  # sharp-edged logo: real loss, bounded
    base = np.corrcoef(jpg[:, :, 0].ravel(), ppm[:, :, 0].ravel())[0, 1]
    assert base > 0.99
    for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
        shifted = np.roll(np.roll(jpg[:, :, 0], dy, 0), dx, 1).ravel()
        assert np.corrcoef(shifted, ppm[:, :, 0].ravel())[0, 1] < base


def test_external_gif_file_decodes():
    """python.gif is an 89a file from ImageMagick with an application
    extension, a graphic-control extension (transparency on index 63) and
    a 64-color quantized palette. Non-transparent pixels must agree with
    the PPM up to the file's own palette quantization (<=4/channel)."""
    from nexlt_ray.multimodal import StdlibDecodeBackend

    raw = _load("python.gif")
    assert raw[:6] == b"GIF89a"
    gif = decode_gif(raw)
    ppm = StdlibDecodeBackend().decode_image(_load("python.ppm"))
    assert gif.shape == (16, 16, 3)
    # transparent background pixels decode as the palette's index-63 color
    # (black here); exclude them, bound the rest by quantization error
    opaque = np.any(gif != 0, axis=2)
    err = np.abs(gif.astype(int) - ppm.astype(int))[opaque]
    assert err.max() <= 4
    assert opaque.sum() > 100  # the logo body is opaque


# --------------------------------------------------------------------------
# progressive (SOF2): every coding mode must reconstruct the exact same
# quantized coefficients as the baseline stream, so decoded pixels are
# bit-identical to the baseline encoding at the same (quality, subsampling)
# --------------------------------------------------------------------------

def _prog_equals_baseline(img, prog_kwargs):
    base_kwargs = {
        k: v for k, v in prog_kwargs.items()
        if k in ("quality", "subsampling", "restart_interval")
    }
    base = decode_jpeg(encode_jpeg(img, **base_kwargs))
    prog = decode_jpeg(encode_jpeg_progressive(img, **prog_kwargs))
    assert np.array_equal(base, prog)


def test_progressive_matches_baseline_exactly():
    rng = np.random.default_rng(11)
    _prog_equals_baseline(
        rng.integers(0, 256, (37, 29, 3), np.uint8), dict(quality=80)
    )
    # spectral selection only (no successive approximation)
    _prog_equals_baseline(
        rng.integers(0, 256, (24, 24, 3), np.uint8),
        dict(quality=85, dc_shift=0, ac_shift=0),
    )
    # deep successive approximation + restarts + chroma subsampling
    _prog_equals_baseline(
        rng.integers(0, 256, (64, 48, 3), np.uint8),
        dict(quality=60, subsampling="420", restart_interval=3,
             dc_shift=2, ac_shift=2),
    )
    # grayscale, odd size, fine-grained bands
    _prog_equals_baseline(
        rng.integers(0, 256, (33, 41), np.uint8),
        dict(quality=70, bands=((1, 1), (2, 9), (10, 63))),
    )


def test_progressive_sparse_blocks_exercise_eob_runs():
    # constant image: every AC band is empty -> multi-block EOBn runs
    img = np.full((48, 40, 3), 77, np.uint8)
    _prog_equals_baseline(img, dict(quality=85))
    # near-constant: isolated nonzero blocks between long EOB runs, which
    # in refinement scans carry correction bits behind the EOBn symbol
    img2 = img.copy()
    img2[13, 21] = [255, 0, 128]
    img2[40, 5] = [0, 255, 3]
    _prog_equals_baseline(img2, dict(quality=85, ac_shift=2))


@settings(max_examples=20, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    quality=st.integers(30, 98),
    seed=st.integers(0, 2**31),
    sub=st.sampled_from(["444", "420"]),
    dc_shift=st.integers(0, 2),
    ac_shift=st.integers(0, 2),
    ri=st.sampled_from([0, 0, 2, 5]),
)
def test_progressive_roundtrip_property(h, w, quality, seed, sub, dc_shift,
                                        ac_shift, ri):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), np.uint8)
    _prog_equals_baseline(
        img,
        dict(quality=quality, subsampling=sub, restart_interval=ri,
             dc_shift=dc_shift, ac_shift=ac_shift),
    )


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(0, 4000), flip=st.integers(0, 2**31),
       seed=st.integers(0, 5))
def test_progressive_malformed_streams_raise_valueerror(cut, flip, seed):
    rng = np.random.default_rng(seed)
    payload = encode_jpeg_progressive(
        rng.integers(0, 256, (24, 24, 3), np.uint8), quality=85
    )
    trunc = payload[: cut % (len(payload) + 1)]
    for stream in (trunc, _flip(payload, flip)):
        try:
            out = decode_jpeg(stream)
            assert out.dtype == np.uint8 and out.ndim == 3
        except ValueError:
            pass  # the contract: ValueError or a valid (partial) image


# --------------------------------------------------------------------------
# malformed-stream contract: ValueError or success, never hangs / never
# leaks parser internals — the guarantee on_error='mark' isolation needs
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, 2000), flip=st.integers(0, 2**31), seed=st.integers(0, 5))
def test_jpeg_malformed_streams_raise_valueerror(cut, flip, seed):
    rng = np.random.default_rng(seed)
    payload = encode_jpeg(rng.integers(0, 256, (24, 24, 3), np.uint8), quality=85)
    trunc = payload[: cut % (len(payload) + 1)]
    for stream in (trunc, _flip(payload, flip)):
        try:
            out = decode_jpeg(stream)
            assert out.dtype == np.uint8 and out.ndim == 3
        except ValueError:
            pass  # the whole contract: ValueError or a valid image


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, 2000), flip=st.integers(0, 2**31), seed=st.integers(0, 5))
def test_gif_malformed_streams_raise_valueerror(cut, flip, seed):
    rng = np.random.default_rng(seed)
    img = (rng.integers(0, 256, (24, 24, 3), np.uint8) // 64) * 64
    payload = encode_gif(img)
    trunc = payload[: cut % (len(payload) + 1)]
    for stream in (trunc, _flip(payload, flip)):
        try:
            out = decode_gif(stream)
            assert out.dtype == np.uint8 and out.ndim == 3
        except ValueError:
            pass


def _flip(payload: bytes, token: int) -> bytes:
    b = bytearray(payload)
    b[2 + token % (len(b) - 2)] ^= 1 + (token >> 8) % 255
    return bytes(b)


def test_decompression_bomb_guard():
    """A corrupt SOF/LSD declaring 65535x65535 must be rejected before any
    allocation, not OOM the worker."""
    import struct

    bomb = (
        b"\xFF\xD8\xFF\xC0"
        + struct.pack(">HBHHB", 11, 8, 65535, 65535, 1)
        + b"\x01\x11\x00"
    )
    with pytest.raises(ValueError, match="implausible"):
        decode_jpeg(bomb)
    gbomb = b"GIF87a" + struct.pack("<HHBBB", 9, 9, 0, 0, 0) + b"\x2C" + struct.pack(
        "<HHHHB", 0, 0, 65535, 65535, 0
    )
    with pytest.raises(ValueError, match="implausible|corrupt"):
        decode_gif(gbomb)


# --------------------------------------------------------------------------
# AIFF / Sun AU audio decode (multimodal.decode_audio dispatch)
# --------------------------------------------------------------------------

def test_aiff_roundtrip():
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_aiff

    sig = np.sin(np.linspace(0, 50, 800)).astype(np.float32) * 0.7
    dec = StdlibDecodeBackend().decode_audio(encode_aiff(sig))
    assert dec.shape == (800,) and dec.dtype == np.float32
    assert np.abs(dec - sig).max() < 1e-3  # 16-bit quantization


def test_au_pcm16_roundtrip():
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_au

    sig = np.sin(np.linspace(0, 30, 500)).astype(np.float32) * 0.5
    dec = StdlibDecodeBackend().decode_audio(encode_au(sig, encoding=3))
    assert np.abs(dec - sig).max() < 1e-3


def test_mulaw_table_matches_g711_reference():
    """The vectorized decode LUT vs an independent per-byte loop writing
    out the ITU-T G.711 expansion step by step."""
    from nexlt_ray.multimodal import _MULAW

    for byte in range(256):
        u = ~byte & 0xFF
        exponent = (u >> 4) & 0x07
        mantissa = u & 0x0F
        magnitude = (((mantissa << 3) + 0x84) << exponent) - 0x84
        expected = -magnitude if u & 0x80 else magnitude
        assert int(_MULAW[byte]) == expected, byte


def test_au_mulaw_roundtrip_snr():
    """mu-law compress->expand: quantization-limited, so the error bound
    is relative (~ -40 dB SNR on a full-scale sine, far tighter than any
    implementation bug would leave it)."""
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_au

    sig = np.sin(np.linspace(0, 80, 2000)).astype(np.float32) * 0.9
    dec = StdlibDecodeBackend().decode_audio(encode_au(sig, encoding=1))
    err = dec - sig
    snr_db = 10 * np.log10(np.mean(sig**2) / np.mean(err**2))
    assert snr_db > 30, snr_db
    # zero maps to exactly zero in G.711 (bias trick)
    z = StdlibDecodeBackend().decode_audio(
        encode_au(np.zeros(16, np.float32), encoding=1)
    )
    assert np.all(z == 0)


def test_aifc_compressed_rejected():
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_aiff

    raw = bytearray(encode_aiff(np.zeros(8, np.float32)))
    raw[8:12] = b"AIFC"
    # COMM chunk body starts at 20 (FORM(12) + 'COMM'(4) + len(4));
    # compressionType sits 18 bytes into the body
    comm_body = 20
    raw = raw[: comm_body + 18] + b"ima4" + raw[comm_body + 18 :]
    import struct as _s

    raw[16:20] = _s.pack(">I", 18 + 4)  # grow COMM length
    import pytest as _pt

    with _pt.raises(ValueError, match="library backend"):
        StdlibDecodeBackend().decode_audio(bytes(raw))


# --------------------------------------------------------------------------
# BMP / Netpbm P4/P5 decode
# --------------------------------------------------------------------------

def _mk_bmp(img: np.ndarray, bpp: int = 24, top_down: bool = False) -> bytes:
    """Hand-assembled BITMAPINFOHEADER BMP (the test's independent writer)."""
    import struct

    h, w = img.shape[:2]
    ch = bpp // 8
    stride = (w * ch + 3) & ~3
    rows = []
    order = range(h) if top_down else range(h - 1, -1, -1)
    for y in order:
        row = bytearray()
        for x in range(w):
            r, g, b = (int(v) for v in img[y, x])
            row += bytes([b, g, r] + ([0] if ch == 4 else []))
        row += b"\x00" * (stride - len(row))
        rows.append(bytes(row))
    px = b"".join(rows)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, w, -h if top_down else h, 1, bpp, 0,
        len(px), 2835, 2835, 0, 0,
    )
    off = 14 + len(dib)
    hdr = b"BM" + struct.pack("<IHHI", off + len(px), 0, 0, off)
    return hdr + dib + px


def test_bmp_synthetic_roundtrip():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(21)
    img = rng.integers(0, 256, (5, 3, 3), np.uint8)  # stride padding kicks in
    assert np.array_equal(be.decode_image(_mk_bmp(img, 24)), img)
    assert np.array_equal(be.decode_image(_mk_bmp(img, 24, top_down=True)), img)
    assert np.array_equal(be.decode_image(_mk_bmp(img, 32)), img)


def test_external_bmp_matches_ppm_exactly():
    """python.bmp (a V5-header BMP from an external tool) vs the lossless
    PPM: bit-identical through two independent decode paths."""
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    bmp = be.decode_image(_load("python.bmp"))
    ppm = be.decode_image(_load("python.ppm"))
    assert np.array_equal(bmp, ppm)


def test_external_pgm_pbm_decode():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    ppm = be.decode_image(_load("python.ppm"))
    luma = ppm.astype(np.float64) @ [0.299, 0.587, 0.114]
    pgm = be.decode_image(_load("python.pgm"))
    assert pgm.shape == (16, 16, 3)
    assert np.array_equal(pgm[:, :, 0], pgm[:, :, 1])
    # external converter used (some) luma weights; stay within rounding+
    # weight-choice slack
    assert float(np.abs(pgm[:, :, 0] - luma).mean()) < 4.0
    pbm = be.decode_image(_load("python.pbm"))
    assert set(np.unique(pbm)) <= {0, 255}  # 1-bit: strictly black/white
    corr = np.corrcoef(pbm[:, :, 0].ravel().astype(float), luma.ravel())[0, 1]
    assert corr > 0.5  # thresholded rendering still tracks brightness


def test_pnm_p5_p4_synthetic():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(22)
    g = rng.integers(0, 256, (7, 11), np.uint8)
    p5 = b"P5\n# comment\n11 7\n255\n" + g.tobytes()
    dec = be.decode_image(p5)
    assert np.array_equal(dec[:, :, 0], g) and np.array_equal(dec[:, :, 1], g)
    bits = rng.integers(0, 2, (5, 10), np.uint8)
    packed = np.packbits(bits, axis=1)  # row-padded to bytes, MSB first
    p4 = b"P4\n10 5\n" + packed.tobytes()
    dec4 = be.decode_image(p4)
    assert np.array_equal(dec4[:, :, 0], np.where(bits == 1, 0, 255))


# --------------------------------------------------------------------------
# uncompressed TIFF decode
# --------------------------------------------------------------------------

def _mk_tiff(img: np.ndarray, big_endian: bool = False, photo: int = 2,
             n_strips: int = 1) -> bytes:
    """Hand-assembled baseline TIFF (test's independent writer): chunky
    RGB (photo=2) or gray (photo=0/1), split into n_strips."""
    import struct

    bo = ">" if big_endian else "<"
    h, w = img.shape[:2]
    spp = 3 if photo == 2 else 1
    raw = img.tobytes()
    rows_per = -(-h // n_strips)
    strips = [
        raw[y * w * spp : min(y + rows_per, h) * w * spp]
        for y in range(0, h, rows_per)
    ]

    entries = []  # (tag, typ, cnt, value-bytes or deferred data)
    deferred = []

    def ent(tag, typ, vals):
        fmt = {3: "H", 4: "I"}[typ]
        raw_v = struct.pack(bo + fmt * len(vals), *vals)
        if len(raw_v) <= 4:
            entries.append((tag, typ, len(vals), raw_v.ljust(4, b"\x00")))
        else:
            entries.append((tag, typ, len(vals), None))
            deferred.append((len(entries) - 1, raw_v))

    ent(256, 3, [w]); ent(257, 3, [h])
    ent(258, 3, [8] * spp)
    ent(259, 3, [1]); ent(262, 3, [photo])
    ent(277, 3, [spp]); ent(278, 3, [rows_per])
    strip_off_idx = len(entries)
    ent(273, 4, [0] * len(strips))   # patched below
    # drop the placeholder from deferred bookkeeping (re-laid out below)
    deferred = [dv for dv in deferred if dv[0] != strip_off_idx]
    ent(279, 4, [len(s) for s in strips])
    ent(284, 3, [1])

    header = struct.pack(bo + "2sHI", b"MM" if big_endian else b"II", 42, 8)
    ifd_size = 2 + 12 * len(entries) + 4
    pos = 8 + ifd_size
    # lay out deferred arrays then strips
    deferred_off = {}
    for idx, raw_v in deferred:
        deferred_off[idx] = pos
        pos += len(raw_v)
    strip_offs = []
    for s in strips:
        strip_offs.append(pos)
        pos += len(s)
    # patch strip offsets entry; if it doesn't fit inline, its array goes
    # AFTER the strip data (matching `pos`, which already passed the strips)
    fmt = "I" * len(strips)
    raw_v = struct.pack(bo + fmt, *strip_offs)
    tail = b""
    if len(raw_v) <= 4:
        entries[strip_off_idx] = (273, 4, len(strips), raw_v.ljust(4, b"\x00"))
    else:
        deferred_off[strip_off_idx] = pos
        entries[strip_off_idx] = (273, 4, len(strips), None)
        tail = raw_v

    out = bytearray(header)
    out += struct.pack(bo + "H", len(entries))
    for i, (tag, typ, cnt, val) in enumerate(entries):
        out += struct.pack(bo + "HHI", tag, typ, cnt)
        out += val if val is not None else struct.pack(bo + "I", deferred_off[i])
    out += b"\x00\x00\x00\x00"  # no next IFD
    for idx, raw_v in deferred:
        assert len(out) == deferred_off[idx], (len(out), deferred_off[idx])
        out += raw_v
    for s in strips:
        out += s
    out += tail
    return bytes(out)


def test_tiff_synthetic_roundtrip():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(23)
    img = rng.integers(0, 256, (11, 7, 3), np.uint8)
    assert np.array_equal(be.decode_image(_mk_tiff(img)), img)
    assert np.array_equal(be.decode_image(_mk_tiff(img, big_endian=True)), img)
    assert np.array_equal(be.decode_image(_mk_tiff(img, n_strips=4)), img)
    g = rng.integers(0, 256, (9, 5), np.uint8)
    dec = be.decode_image(_mk_tiff(g[:, :, None], photo=1))
    assert np.array_equal(dec[:, :, 0], g)
    inv = be.decode_image(_mk_tiff(g[:, :, None], photo=0))  # white-is-zero
    assert np.array_equal(inv[:, :, 0], 255 - g)


def test_external_tiff_matches_ppm_exactly():
    """python.tiff (external tool, RGBA chunky, single strip) vs the PPM:
    bit-identical through independent decode paths."""
    from nexlt_ray.multimodal import StdlibDecodeBackend

    be = StdlibDecodeBackend()
    assert np.array_equal(
        be.decode_image(_load("python.tiff")), be.decode_image(_load("python.ppm"))
    )


def test_tiff_unknown_compression_rejected():
    from nexlt_ray.multimodal import StdlibDecodeBackend

    rng = np.random.default_rng(24)
    raw = bytearray(_mk_tiff(rng.integers(0, 256, (4, 4, 3), np.uint8)))
    # compression tag (259) is entry 3; its value bytes start at
    # 8 (header) + 2 (count) + 12*3 + 8
    off = 8 + 2 + 12 * 3 + 8
    raw[off] = 6  # old-style JPEG-in-TIFF (deprecated since TIFF TN2)
    with pytest.raises(ValueError, match="library backend"):
        StdlibDecodeBackend().decode_image(bytes(raw))


def test_tiff_compression_matrix():
    """none/LZW/Deflate/PackBits x predictor x strip layout x gray/RGB:
    every combination decodes back to the exact source pixels."""
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_tiff

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(31)
    for comp in ("none", "lzw", "deflate", "packbits"):
        for pred in (1, 2):
            for shape in ((16, 16, 3), (15, 17), (5, 33, 3)):
                for rps in (0, 4):
                    img = rng.integers(0, 256, shape, np.uint8)
                    t = encode_tiff(img, compression=comp, predictor=pred,
                                    rows_per_strip=rps)
                    exp = (img if img.ndim == 3
                           else np.repeat(img[:, :, None], 3, axis=2))
                    assert np.array_equal(be.decode_image(t), exp), (
                        comp, pred, shape, rps)


def test_tiff_lzw_early_change_boundary_hand_packed():
    """Pin the TIFF LZW width discipline (spec 13's 'early change') with
    an independently hand-packed stream: 300 literal codes after Clear.
    The decoder's table hits 511 entries after reading literal #254
    (next-free = 257 + j), so codes 255.. must be read at 10 bits."""
    from nexlt_ray.multimodal import _tiff_lzw_decode

    bits = ""

    def put(code, width):
        nonlocal bits
        bits += format(code, f"0{width}b")

    put(256, 9)  # Clear
    for j in range(1, 301):
        put((j - 1) % 256, 9 if j <= 254 else 10)
    put(257, 10)  # EOI
    bits += "0" * (-len(bits) % 8)
    data = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
    out = _tiff_lzw_decode(data, 300)
    assert out == bytes((j - 1) % 256 for j in range(1, 301))


def test_tiff_lzw_roundtrip_stress():
    """Random + repetitive byte streams through encode->decode, crossing
    the 511/1023/2047 width boundaries and table-full Clear resets."""
    from nexlt_ray.multimodal import _tiff_lzw_decode, _tiff_lzw_encode

    for seed in range(4):
        r = np.random.default_rng(seed)
        data = r.integers(0, 256, int(r.integers(1, 30000)), np.uint8).tobytes()
        assert _tiff_lzw_decode(_tiff_lzw_encode(data), len(data)) == data
    rep = (b"abcabd" * 4000) + bytes(range(256)) * 40
    assert _tiff_lzw_decode(_tiff_lzw_encode(rep), len(rep)) == rep


def test_packbits_spec_example():
    """The worked example from the PackBits spec (TIFF 6.0 section 9 /
    Apple TN1023): the canonical 24-byte unpacked stream."""
    from nexlt_ray.multimodal import _packbits_decode, _packbits_encode

    packed = bytes.fromhex("FEAA0280002AFDAA0380002A22F7AA")
    unpacked = bytes.fromhex("AAAAAA80002AAAAAAAAA80002A22" + "AA" * 10)
    assert _packbits_decode(packed) == unpacked
    # our encoder need not byte-match the spec's packing, but must round-trip
    assert _packbits_decode(_packbits_encode(unpacked)) == unpacked


def test_tiff_jpeg_compression_roundtrip():
    """New-style JPEG-in-TIFF (compression 7): per-strip JPEG streams,
    with and without the shared JPEGTables (tag 347) abbreviated
    layout — decoded pixels bit-match decoding each strip's JPEG
    standalone."""
    from nexlt_ray.jpeg import decode_jpeg, encode_jpeg
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_tiff

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, (37, 29, 3), np.uint8)
    for rps in (0, 16):
        for shared in (False, True):
            t = encode_tiff(img, compression="jpeg", rows_per_strip=rps,
                            shared_jpeg_tables=shared)
            rp = rps or 37
            exp = np.concatenate(
                [decode_jpeg(encode_jpeg(img[y : y + rp], quality=92))
                 for y in range(0, 37, rp)], axis=0)
            assert np.array_equal(be.decode_image(t), exp), (rps, shared)
    g = rng.integers(0, 256, (20, 15), np.uint8)
    t = encode_tiff(g, compression="jpeg", shared_jpeg_tables=True)
    assert np.array_equal(
        be.decode_image(t), decode_jpeg(encode_jpeg(g, quality=92))
    )


def test_tiff_malformed_compressed_streams_raise_valueerror():
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_tiff

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (12, 9, 3), np.uint8)
    for comp in ("lzw", "deflate", "packbits", "jpeg"):
        payload = encode_tiff(img, compression=comp)
        for cut in (len(payload) - 3, len(payload) // 2):
            try:
                out = be.decode_image(payload[:cut])
                assert out.dtype == np.uint8
            except ValueError:
                pass


@settings(max_examples=40, deadline=None)
@given(cut=st.integers(0, 4000), flip=st.integers(0, 2**31),
       comp=st.sampled_from(["none", "lzw", "deflate", "packbits", "jpeg"]),
       seed=st.integers(0, 3))
# flips the high byte of the predictor tag's count: ~1.2e9 entries
@example(cut=0, flip=19073, comp="lzw", seed=0)
def test_backend_malformed_images_raise_valueerror(cut, flip, comp, seed):
    """The backend-wide contract: decode_image is ValueError-only on any
    malformed stream, across every TIFF compression (and transitively
    the PNG/JPEG/GIF/WebP dispatch)."""
    from nexlt_ray.multimodal import StdlibDecodeBackend, encode_tiff

    be = StdlibDecodeBackend()
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (12, 9, 3), np.uint8)
    payload = encode_tiff(img, compression=comp,
                          predictor=2 if comp in ("lzw", "deflate") else 1)
    trunc = payload[: cut % (len(payload) + 1)]
    b = bytearray(payload)
    b[flip % len(b)] ^= 1 + (flip >> 8) % 255
    for stream in (trunc, bytes(b)):
        try:
            out = be.decode_image(stream)
            assert out.dtype == np.uint8
        except ValueError:
            pass
