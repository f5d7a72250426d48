"""Multimodal column handling: image/audio/video as opaque binary columns
with typed metadata.

Decoding: `StdlibDecodeBackend` (the default) REALLY decodes PNG
(incl. palette), Netpbm P4/P5/P6, baseline AND progressive JPEG, GIF,
and BMP images, PCM WAV / AIFF / Sun AU audio (incl. G.711 mu-law),
and Y4M (YUV4MPEG2) video using only the stdlib (zlib, wave, struct) +
numpy, from the public format specs (PNG: RFC 2083 — IHDR/IDAT/IEND
chunks, all five scanline filters; JPEG: ITU-T T.81 sequential +
progressive DCT — see nexlt_ray.jpeg; GIF: the 89a spec's variable-width LZW — see
nexlt_ray.gif; WAV: RIFF PCM; Y4M: the mjpegtools YUV4MPEG2 stream
format — textual `YUV4MPEG2 W.. H.. F..` header, per-frame `FRAME`
markers, raw planar YUV in C420/C422/C444/Cmono). No codec *libraries*
ship in this environment; these implementations come straight from the
specs. COMPRESSED video (H.264 etc.) and perceptual audio (MP3/AAC)
still need a library backend — a real deployment plugs
PIL/torchaudio/ffmpeg by subclassing `DecodeBackend`; `FakeDecodeBackend`
remains as the documented test stand-in for such formats. The Ray-side
plumbing — schemas, actor-pool stages, batch sizing for large binary
payloads, output layout — is real and tested (tests/test_operators.py).

Scale notes: binary payloads dominate block size; stages here run with small
`batch_size` and `batch_format="pyarrow"` (binary columns round-trip
zero-copy through Arrow; pandas would object-box them).
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib

import numpy as np
import pyarrow as pa

IMAGE_SCHEMA = pa.schema(
    [
        ("item_id", pa.int64()),
        ("payload", pa.binary()),          # opaque encoded bytes
        ("media_type", pa.string()),       # "image/png", "audio/wav", ...
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)


class DecodeBackend:
    """Interface for real decoders; raise by default."""

    def decode_image(self, payload: bytes) -> np.ndarray:  # (h, w, 3) uint8
        raise NotImplementedError(
            "subclass provides the codec: StdlibDecodeBackend covers "
            "PNG/Netpbm/JPEG/GIF/BMP; WebP etc. need a library backend "
            "(PIL/opencv)"
        )

    def decode_audio(self, payload: bytes) -> np.ndarray:  # (n,) float32
        raise NotImplementedError(
            "subclass provides the codec: StdlibDecodeBackend covers PCM "
            "WAV, AIFF, and Sun AU (incl. G.711 mu-law); MP3/FLAC etc. "
            "need a library backend (soundfile)"
        )

    def decode_video(self, payload: bytes) -> np.ndarray:  # (n, h, w, 3) uint8
        raise NotImplementedError(
            "subclass provides the codec: StdlibDecodeBackend covers Y4M "
            "(uncompressed YUV4MPEG2); H.264 etc. need a library backend "
            "(ffmpeg/PyAV)"
        )


def _unfilter_scanlines(raw: bytes, w: int, h: int, ch: int) -> np.ndarray:
    """PNG scanline de-filtering (RFC 2083 §6). Filters None/Sub/Up are
    vectorized (Sub is a per-lane modular cumsum — addition mod 256 is
    associative, so cumsum in a wide dtype & 0xFF is exact); Average/Paeth
    have a true per-pixel recurrence and fall back to a byte loop."""
    stride = w * ch
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    pos = 0
    for y in range(h):
        f = raw[pos]
        row = np.frombuffer(raw, np.uint8, stride, pos + 1).copy()
        pos += stride + 1
        if f == 0:
            pass
        elif f == 1:  # Sub
            for lane in range(ch):
                row[lane::ch] = (
                    np.cumsum(row[lane::ch], dtype=np.uint64) & 0xFF
                ).astype(np.uint8)
        elif f == 2:  # Up
            row = (row.astype(np.uint16) + prev) .astype(np.uint8)
        elif f == 3:  # Average (plain-int list loop: ~5x over np scalar ops)
            r = row.tolist()
            pv = prev.tolist()
            for x in range(stride):
                a = r[x - ch] if x >= ch else 0
                r[x] = (r[x] + ((a + pv[x]) >> 1)) & 0xFF
            row = np.asarray(r, dtype=np.uint8)
        elif f == 4:  # Paeth
            r = row.tolist()
            pv = prev.tolist()
            for x in range(stride):
                a = r[x - ch] if x >= ch else 0
                b = pv[x]
                c = pv[x - ch] if x >= ch else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
                r[x] = (r[x] + pred) & 0xFF
            row = np.asarray(r, dtype=np.uint8)
        else:
            raise ValueError(f"unknown PNG filter {f}")
        out[y] = row
        prev = out[y]
    return out


class StdlibDecodeBackend(DecodeBackend):
    """Real decoders from the public specs, stdlib-only (zlib/wave/struct):
    PNG (8-bit gray/RGB/RGBA/palette, non-interlaced, all five filters),
    Netpbm P4/P5/P6, baseline JPEG (ITU-T T.81 — see nexlt_ray.jpeg),
    GIF87a/89a incl. interlace (see nexlt_ray.gif), BMP (8/24/32-bit),
    PCM WAV (8/16/32-bit, any channel count, averaged to mono), AIFF, and
    Sun AU incl. G.711 mu-law."""

    def decode_image(self, payload: bytes) -> np.ndarray:
        """Contract for pipeline error isolation (on_error='mark'): any
        malformed/truncated stream raises ValueError — never leaks parser
        internals (IndexError/KeyError/struct.error/zlib.error)."""
        try:
            return self._decode_image(payload)
        except ValueError:
            raise
        except (IndexError, KeyError, AttributeError, OverflowError,
                TypeError, struct.error, zlib.error, EOFError) as e:
            raise ValueError(
                f"corrupt image stream: {type(e).__name__}: {e}"
            ) from e

    def _decode_image(self, payload: bytes) -> np.ndarray:
        if payload[:8] == b"\x89PNG\r\n\x1a\n":
            return self._decode_png(payload)
        if payload[:1] == b"P" and payload[1:2] in b"456":
            return self._decode_pnm(payload)
        if payload[:2] == b"\xFF\xD8":
            from .jpeg import decode_jpeg

            return decode_jpeg(payload)
        if payload[:4] == b"GIF8":
            from .gif import decode_gif

            return decode_gif(payload)
        if payload[:2] == b"BM":
            return self._decode_bmp(payload)
        if payload[:4] in (b"II*\x00", b"MM\x00*"):
            return self._decode_tiff(payload)
        if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
            from .webp import decode_webp

            return decode_webp(payload)
        raise ValueError(
            "unsupported image format (expect PNG, Netpbm P4/P5/P6, "
            "JPEG, GIF, BMP, TIFF, or lossless WebP)"
        )

    @staticmethod
    def _decode_png(data: bytes) -> np.ndarray:
        pos, idat, plte = 8, b"", None
        w = h = depth = color = interlace = None
        while pos + 8 <= len(data):
            (ln,), typ = struct.unpack(">I", data[pos : pos + 4]), data[pos + 4 : pos + 8]
            pos += 8
            chunk = data[pos : pos + ln]
            pos += ln + 4  # skip CRC (payloads here are trusted/own-encoded)
            if typ == b"IHDR":
                w, h, depth, color, _, _, interlace = struct.unpack(
                    ">IIBBBBB", chunk
                )
            elif typ == b"PLTE":
                plte = np.frombuffer(chunk, np.uint8).reshape(-1, 3)
            elif typ == b"IDAT":
                idat += chunk
            elif typ == b"IEND":
                break
        if depth != 8 or interlace != 0 or color not in (0, 2, 3, 6):
            raise ValueError(
                f"unsupported PNG variant (depth={depth}, color={color}, "
                f"interlace={interlace}); this decoder covers 8-bit "
                "gray/RGB/RGBA/palette non-interlaced"
            )
        ch = {0: 1, 2: 3, 3: 1, 6: 4}[color]
        px = _unfilter_scanlines(zlib.decompress(idat), w, h, ch).reshape(h, w, ch)
        if color == 3:  # palette: indices through PLTE
            if plte is None:
                raise ValueError("palette PNG without a PLTE chunk")
            return plte[px[:, :, 0]]
        if ch == 1:
            return np.repeat(px, 3, axis=2)
        return px[:, :, :3]  # RGBA: alpha dropped, (h, w, 3) contract

    @staticmethod
    def _decode_pnm(data: bytes) -> np.ndarray:
        # Netpbm raw formats: P4 (1-bit, 1=black), P5 (gray), P6 (RGB);
        # header tokens <w> <h> [<maxval>], '#' comments allowed
        kind = data[1:2]
        want = 2 if kind == b"4" else 3  # P4 has no maxval token
        toks: list[bytes] = []
        i = 2
        while len(toks) < want:
            while i < len(data) and data[i : i + 1].isspace():
                i += 1
            if data[i : i + 1] == b"#":
                while data[i : i + 1] not in (b"\n", b""):
                    i += 1
                continue
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            toks.append(data[i:j])
            i = j
        i += 1  # single whitespace ends the header
        w, h = int(toks[0]), int(toks[1])
        if kind == b"4":
            stride = (w + 7) // 8
            rows = np.frombuffer(data, np.uint8, stride * h, i).reshape(h, stride)
            bits = np.unpackbits(rows, axis=1)[:, :w]
            g = np.where(bits == 1, 0, 255).astype(np.uint8)  # 1 = black
            return np.repeat(g[:, :, None], 3, axis=2)
        if int(toks[2]) != 255:
            raise ValueError("Netpbm maxval != 255 unsupported")
        if kind == b"5":
            g = np.frombuffer(data, np.uint8, w * h, i).reshape(h, w)
            return np.repeat(g[:, :, None], 3, axis=2).copy()
        return np.frombuffer(data, np.uint8, w * h * 3, i).reshape(h, w, 3).copy()

    @staticmethod
    def _decode_bmp(data: bytes) -> np.ndarray:
        """Windows BMP (BITMAPINFOHEADER or later, e.g. V4/V5: the DIB
        fields we need sit at fixed offsets): bottom-up BGR(A) rows padded
        to 4 bytes; 8-bit palettized, 24- and 32-bit uncompressed."""
        (off,) = struct.unpack("<I", data[10:14])
        (hdr_size,) = struct.unpack("<I", data[14:18])
        w, h = struct.unpack("<ii", data[18:26])
        bpp, comp = struct.unpack("<HI", data[28:34])
        top_down = h < 0
        h = abs(h)
        if comp not in (0, 3) or bpp not in (8, 24, 32):
            raise ValueError(
                f"unsupported BMP variant (bpp={bpp}, compression={comp})"
            )
        if w * h > 100_000_000 or w <= 0 or h == 0:
            raise ValueError(f"implausible BMP dimensions {w}x{h}")
        stride = (w * bpp // 8 + 3) & ~3
        px = np.frombuffer(data, np.uint8, stride * h, off).reshape(h, stride)
        if not top_down:
            px = px[::-1]
        if bpp == 8:
            # palette (BGRA quads) sits between the DIB header and the
            # pixel offset; short palettes are zero-padded to 256
            n_pal = min(256, max(0, (off - 14 - hdr_size) // 4))
            pal = np.zeros((256, 4), np.uint8)
            pal[:n_pal] = np.frombuffer(
                data, np.uint8, 4 * n_pal, 14 + hdr_size
            ).reshape(n_pal, 4)
            return pal[:, [2, 1, 0]][px[:, :w]].copy()
        ch = bpp // 8
        bgr = px[:, : w * ch].reshape(h, w, ch)
        return bgr[:, :, [2, 1, 0]].copy()  # BGR(A) -> RGB, alpha dropped

    @staticmethod
    def _decode_tiff(data: bytes) -> np.ndarray:
        """TIFF 6.0: first IFD, strip-organized, chunky planar;
        photometric gray (incl. white-is-zero), RGB(A), palette;
        compression none / LZW (early-change width discipline, §13) /
        Deflate (8 and legacy 32946) / PackBits (32773), with the
        horizontal-differencing predictor (tag 317). JPEG-in-TIFF needs
        a library backend."""
        bo = "<" if data[:2] == b"II" else ">"
        (ifd,) = struct.unpack(bo + "I", data[4:8])
        (n,) = struct.unpack(bo + "H", data[ifd : ifd + 2])
        if ifd + 2 + 12 * n > len(data):
            raise ValueError(f"TIFF IFD of {n} entries runs past end of data")
        tags: dict[int, list[int]] = {}
        type_size = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 7: 1}
        type_fmt = {1: "B", 3: "H", 4: "I", 7: "B"}
        for k in range(n):
            tag, typ, cnt = struct.unpack(
                bo + "HHI", data[ifd + 2 + 12 * k : ifd + 10 + 12 * k]
            )
            if typ not in type_fmt:
                continue  # RATIONAL/ASCII metadata — not needed
            nbytes = type_size[typ] * cnt
            if nbytes <= 4:
                raw = data[ifd + 10 + 12 * k : ifd + 10 + 12 * k + nbytes]
            else:
                (voff,) = struct.unpack(
                    bo + "I", data[ifd + 10 + 12 * k : ifd + 14 + 12 * k]
                )
                # bound the count by the data before struct.unpack sizes
                # its format (a corrupt count would otherwise ask for GBs)
                if voff + nbytes > len(data):
                    raise ValueError(
                        f"TIFF tag {tag} value ({cnt} items at {voff}) "
                        "runs past end of data"
                    )
                raw = data[voff : voff + nbytes]
            tags[tag] = list(struct.unpack(bo + type_fmt[typ] * cnt, raw))
        w, h = tags[256][0], tags[257][0]
        if w * h > 100_000_000 or w == 0 or h == 0:
            raise ValueError(f"implausible TIFF dimensions {w}x{h}")
        comp = tags.get(259, [1])[0]
        photo = tags.get(262, [1])[0]
        spp = tags.get(277, [1])[0]
        if any(b != 8 for b in tags.get(258, [8])):
            raise ValueError("only 8-bit TIFF samples supported")
        if tags.get(284, [1])[0] != 1:
            raise ValueError("planar TIFF unsupported (chunky only)")
        rps = tags.get(278, [h])[0] or h
        strips = [data[o : o + c] for o, c in zip(tags[273], tags[279])]
        row_bytes = w * spp
        if comp == 7:  # new-style JPEG-in-TIFF: each strip a JPEG stream
            from .jpeg import decode_jpeg

            jt = tags.get(347)  # JPEGTables: abbreviated tables stream
            prefix = b""
            if jt is not None:
                tbl_bytes = bytes(jt)
                # strip the tables stream's SOI/EOI, keep the segments
                if tbl_bytes[:2] == b"\xFF\xD8":
                    tbl_bytes = tbl_bytes[2:]
                if tbl_bytes[-2:] == b"\xFF\xD9":
                    tbl_bytes = tbl_bytes[:-2]
                prefix = tbl_bytes
            rows = []
            for s in strips:
                if s[:2] != b"\xFF\xD8":
                    raise ValueError("JPEG-in-TIFF strip missing SOI")
                rows.append(decode_jpeg(b"\xFF\xD8" + prefix + s[2:]))
            full = np.concatenate(rows, axis=0)[:h, :w]
            if photo == 1 and spp == 1:
                return full  # decode_jpeg already replicated gray
            return full
        if comp == 1:
            raw = b"".join(strips)
        elif comp == 5:
            raw = b"".join(
                _tiff_lzw_decode(s, min(rps, h - i * rps) * row_bytes)
                for i, s in enumerate(strips)
            )
        elif comp in (8, 32946):  # Adobe Deflate / legacy Deflate
            import zlib

            try:
                raw = b"".join(zlib.decompress(s) for s in strips)
            except zlib.error as e:
                raise ValueError(f"corrupt TIFF Deflate strip: {e}") from e
        elif comp == 32773:
            raw = b"".join(_packbits_decode(s) for s in strips)
        else:
            raise ValueError(
                f"TIFF compression {comp} needs a library backend"
            )
        if len(raw) < w * h * spp:
            raise ValueError("TIFF strip data shorter than declared size")
        px = np.frombuffer(raw, np.uint8, w * h * spp).reshape(h, w, spp)
        if tags.get(317, [1])[0] == 2:  # horizontal differencing predictor
            px = (
                np.cumsum(px.astype(np.int32), axis=1) & 0xFF
            ).astype(np.uint8)
        if photo == 3:  # palette: 16-bit colormap, R then G then B planes
            cm = np.asarray(tags[320], np.uint32).reshape(3, -1)
            return (cm >> 8).astype(np.uint8).T[px[:, :, 0]]
        if photo in (0, 1):  # gray; 0 = white-is-zero
            g = px[:, :, 0]
            if photo == 0:
                g = 255 - g
            return np.repeat(g[:, :, None], 3, axis=2).copy()
        if photo == 2:
            return px[:, :, :3].copy()  # RGB(A): alpha dropped
        raise ValueError(f"unsupported TIFF photometric {photo}")

    def decode_audio(self, payload: bytes) -> np.ndarray:
        import wave

        try:
            return self._decode_audio(payload)
        except ValueError:
            raise
        except (IndexError, KeyError, AttributeError, OverflowError,
                TypeError, struct.error, EOFError, wave.Error) as e:
            raise ValueError(
                f"corrupt audio stream: {type(e).__name__}: {e}"
            ) from e

    def _decode_audio(self, payload: bytes) -> np.ndarray:
        if payload[:4] == b"FORM" and payload[8:12] in (b"AIFF", b"AIFC"):
            return _decode_aiff(payload)
        if payload[:4] == b".snd":
            return _decode_au(payload)
        import wave

        with wave.open(io.BytesIO(payload)) as wv:
            ch, sw, n = wv.getnchannels(), wv.getsampwidth(), wv.getnframes()
            raw = wv.readframes(n)
        if sw == 2:
            a = np.frombuffer(raw, "<i2").astype(np.float32) / 32768.0
        elif sw == 4:
            a = np.frombuffer(raw, "<i4").astype(np.float32) / 2147483648.0
        elif sw == 1:
            a = (np.frombuffer(raw, np.uint8).astype(np.float32) - 128.0) / 128.0
        else:
            raise ValueError(f"unsupported WAV sample width {sw}")
        return a.reshape(-1, ch).mean(axis=1).astype(np.float32)

    def decode_video(self, payload: bytes) -> np.ndarray:
        """Y4M (YUV4MPEG2) → (n_frames, h, w, 3) uint8 RGB (BT.601)."""
        try:
            planes, w, h, _ = decode_y4m_planes(payload)
            return np.stack([_yuv_to_rgb(y, u, v) for y, u, v in planes])
        except ValueError:
            raise
        except (IndexError, KeyError, AttributeError, OverflowError,
                TypeError, struct.error, EOFError) as e:
            raise ValueError(
                f"corrupt video stream: {type(e).__name__}: {e}"
            ) from e


# ---------------------------------------------------------------------------
# TIFF strip codecs (TIFF 6.0 spec §13 LZW, §9 PackBits — public spec).
#
# TIFF LZW: MSB-first bit packing, 9->12 bit variable width, Clear=256,
# EOI=257, first dynamic entry 258. The width bump is the spec's famous
# "early change": the DECODER switches one code earlier than GIF-style
# LZW would — when its next-free entry id reaches 2^width - 1 (511,
# 1023, 2047). The encoder mirrors the decoder's table size (which lags
# the encoder's own inserts by one code) so both switch at the same
# stream position; tests pin the 511 boundary with a hand-packed stream.
# ---------------------------------------------------------------------------

def _tiff_lzw_decode(data: bytes, max_out: int) -> bytes:
    out = bytearray()
    table: list[bytes] = []
    width = 9
    next_code = 258
    prev: bytes | None = None
    acc = nacc = ptr = 0
    n = len(data)
    while True:
        while nacc < width:
            if ptr >= n:
                raise ValueError("TIFF LZW strip ended without EOI")
            acc = (acc << 8) | data[ptr]
            ptr += 1
            nacc += 8
        code = (acc >> (nacc - width)) & ((1 << width) - 1)
        nacc -= width
        acc &= (1 << nacc) - 1
        if code == 257:  # EOI
            break
        if code == 256:  # Clear
            table = [bytes([i]) for i in range(256)] + [b"", b""]
            width = 9
            next_code = 258
            prev = None
            continue
        if prev is None:
            if code > 255 or not table:
                raise ValueError("TIFF LZW code before Clear/literal")
            entry = table[code]
        elif code < next_code:
            entry = table[code]
        elif code == next_code:
            entry = prev + prev[:1]  # the KwKwK case
        else:
            raise ValueError("corrupt TIFF LZW stream (code beyond table)")
        if prev is not None and next_code < 4096:
            table.append(prev + entry[:1])
            next_code += 1
            if next_code == (1 << width) - 1 and width < 12:
                width += 1  # early change
        out += entry
        prev = entry
        if len(out) > max_out:
            raise ValueError("TIFF LZW output exceeds strip size")
    return bytes(out)


def _tiff_lzw_encode(raw: bytes) -> bytes:
    """Fixture encoder, kept in lock-step with the decoder: the width /
    clear decisions run on the DECODER's table size (one behind this
    encoder's own inserts)."""
    out = bytearray()
    acc = nacc = 0

    def put(code: int, w: int):
        nonlocal acc, nacc
        acc = (acc << w) | code
        nacc += w
        while nacc >= 8:
            out.append((acc >> (nacc - 8)) & 0xFF)
            nacc -= 8
            acc &= (1 << nacc) - 1

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    n_codes = 0  # data codes since the last Clear
    dec_size = 258  # decoder's next-free entry id at this stream point
    put(256, width)

    def after_emit():
        # the decoder inserts one entry per data code read except the
        # first after a Clear; mirror its width bumps exactly
        nonlocal n_codes, dec_size, width
        n_codes += 1
        if n_codes >= 2 and dec_size < 4096:
            dec_size += 1
            if dec_size == (1 << width) - 1 and width < 12:
                width += 1

    w_str = b""
    for i in range(len(raw)):
        k = raw[i : i + 1]
        if w_str + k in table:
            w_str += k
            continue
        put(table[w_str], width)
        after_emit()
        table[w_str + k] = next_code
        next_code += 1
        w_str = k
        if dec_size >= 4093:  # leave headroom, per §13
            put(256, width)
            table = {bytes([i]): i for i in range(256)}
            next_code = 258
            width = 9
            n_codes = 0
            dec_size = 258
    if w_str:
        put(table[w_str], width)
        after_emit()
    put(257, width)
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _packbits_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        i += 1
        if b < 128:  # literal run of b+1 bytes
            if i + b + 1 > n:
                raise ValueError("truncated PackBits literal run")
            out += data[i : i + b + 1]
            i += b + 1
        elif b > 128:  # repeat next byte 257-b times
            if i >= n:
                raise ValueError("truncated PackBits repeat run")
            out += data[i : i + 1] * (257 - b)
            i += 1
        # b == 128: no-op per spec
    return bytes(out)


def _packbits_encode(row: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(row)
    while i < n:
        run = 1
        while i + run < n and run < 128 and row[i + run] == row[i]:
            run += 1
        if run >= 2:
            out.append(257 - run)
            out.append(row[i])
            i += run
            continue
        lit = i
        while (
            i < n
            and i - lit < 128
            and not (i + 2 < n and row[i] == row[i + 1] == row[i + 2])
        ):
            i += 1
        out.append(i - lit - 1)
        out += row[lit:i]
    return bytes(out)


def _split_jpeg_tables(stream: bytes) -> tuple[bytes, bytes]:
    """Split a JPEG stream into (table segments, stream without them) —
    the TIFF JPEGTables (tag 347) abbreviated-stream layout."""
    tables = bytearray()
    rest = bytearray(stream[:2])  # SOI
    pos = 2
    while pos + 4 <= len(stream):
        if stream[pos] != 0xFF:
            break
        marker = stream[pos + 1]
        if marker == 0xDA:  # SOS: entropy data to EOI stays in the strip
            rest += stream[pos:]
            break
        (seg_len,) = struct.unpack(">H", stream[pos + 2 : pos + 4])
        seg = stream[pos : pos + 2 + seg_len]
        if marker in (0xDB, 0xC4):  # DQT / DHT
            tables += seg
        else:
            rest += seg
        pos += 2 + seg_len
    return bytes(tables), bytes(rest)


def encode_tiff(
    img: np.ndarray,
    compression: str = "none",
    predictor: int = 1,
    rows_per_strip: int = 0,
    shared_jpeg_tables: bool = False,
) -> bytes:
    """Little-endian TIFF 6.0 writer (fixture/test generator): gray or
    RGB 8-bit chunky, strip-organized, compression none/lzw/deflate/
    packbits/jpeg (new-style, optionally with the shared JPEGTables
    tag), optional horizontal-differencing predictor."""
    img = np.asarray(img, np.uint8)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    spp = 1 if gray else img.shape[2]
    px = img.reshape(h, w, spp)
    if predictor == 2:
        px = np.empty_like(img.reshape(h, w, spp))
        px[:, 0] = img.reshape(h, w, spp)[:, 0]
        px[:, 1:] = (
            img.reshape(h, w, spp)[:, 1:].astype(np.int32)
            - img.reshape(h, w, spp)[:, :-1].astype(np.int32)
        ).astype(np.uint8)
    elif predictor != 1:
        raise ValueError("predictor must be 1 or 2")
    rps = rows_per_strip or h
    comp_id = {"none": 1, "lzw": 5, "deflate": 8, "packbits": 32773,
               "jpeg": 7}[compression]
    if compression == "jpeg" and predictor != 1:
        raise ValueError("predictor does not apply to JPEG-in-TIFF")
    jpeg_tables = None
    strips = []
    for y0 in range(0, h, rps):
        if compression == "jpeg":
            from .jpeg import encode_jpeg

            band = img.reshape(h, w, spp)[y0 : y0 + rps]
            stream = encode_jpeg(band[:, :, 0] if gray else band, quality=92)
            if shared_jpeg_tables:
                tables, stripped = _split_jpeg_tables(stream)
                if jpeg_tables is None:
                    jpeg_tables = b"\xFF\xD8" + tables + b"\xFF\xD9"
                strips.append(stripped)
            else:
                strips.append(stream)
            continue
        chunk = px[y0 : y0 + rps].tobytes()
        if compression == "none":
            strips.append(chunk)
        elif compression == "lzw":
            strips.append(_tiff_lzw_encode(chunk))
        elif compression == "deflate":
            import zlib

            strips.append(zlib.compress(chunk))
        else:
            strips.append(
                b"".join(
                    _packbits_encode(chunk[r : r + w * spp])
                    for r in range(0, len(chunk), w * spp)
                )
            )
    # layout: header(8) | IFD | tag value arrays | strip data
    entries = [
        (256, 3, 1, w),  # ImageWidth
        (257, 3, 1, h),  # ImageLength
        (258, 3, spp, [8] * spp),  # BitsPerSample
        (259, 3, 1, comp_id),
        (262, 3, 1, 1 if gray else 2),  # photometric
        (273, 4, len(strips), None),  # StripOffsets (patched below)
        (277, 3, 1, spp),
        (278, 3, 1, rps),
        (279, 4, len(strips), [len(s) for s in strips]),
        (284, 3, 1, 1),
        (317, 3, 1, predictor),
    ]
    if jpeg_tables is not None:
        entries.append((347, 7, len(jpeg_tables), list(jpeg_tables)))
    ifd_off = 8
    ifd_size = 2 + 12 * len(entries) + 4
    extra = bytearray()
    extra_base = ifd_off + ifd_size
    type_size = {3: 2, 4: 4, 7: 1}
    type_fmt = {3: "H", 4: "I", 7: "B"}

    def value_bytes(typ, cnt, vals):
        return struct.pack("<" + type_fmt[typ] * cnt, *vals)

    # first pass: sizes of out-of-line arrays to find strip data offset
    for tag, typ, cnt, vals in entries:
        if cnt * type_size[typ] > 4 and tag != 273:
            extra += value_bytes(typ, cnt, vals if isinstance(vals, list) else [vals])
    strip_area = extra_base + len(extra) + (
        4 * len(strips) if len(strips) > 1 else 0
    )
    offs = []
    o = strip_area
    for s in strips:
        offs.append(o)
        o += len(s)
    out = bytearray(b"II*\x00" + struct.pack("<I", ifd_off))
    out += struct.pack("<H", len(entries))
    extra = bytearray()
    epos = extra_base
    for tag, typ, cnt, vals in entries:
        if tag == 273:
            vals = offs
        if not isinstance(vals, list):
            vals = [vals]
        vb = value_bytes(typ, cnt, vals)
        if len(vb) <= 4:
            out += struct.pack("<HHI", tag, typ, cnt) + vb.ljust(4, b"\0")
        else:
            out += struct.pack("<HHII", tag, typ, cnt, epos)
            extra += vb
            epos += len(vb)
    out += struct.pack("<I", 0)  # next IFD
    out += extra
    for s in strips:
        out += s
    return bytes(out)


# ---------------------------------------------------------------------------
# Y4M (YUV4MPEG2) — the mjpegtools uncompressed-video stream format.
# Public spec (mjpegtools yuv4mpeg(5) man page): an ASCII stream header
# "YUV4MPEG2 W<w> H<h> F<num>:<den> [I..] [A..] [C<colorspace>] [X..]\n",
# then per frame an ASCII "FRAME[ <params>]\n" marker followed by raw
# planar YUV bytes (Y then Cb then Cr). Chroma geometry per colorspace:
# C420* = (w/2, h/2), C422 = (w/2, h), C444 = (w, h), Cmono = no chroma.
# ---------------------------------------------------------------------------
_Y4M_CHROMA = {
    "420": (2, 2),  # C420 / C420jpeg / C420mpeg2 / C420paldv: same geometry,
    "422": (2, 1),  # different chroma *siting*, which nearest upsampling folds
    "444": (1, 1),
    "mono": None,
}


def _y4m_chroma_divs(colorspace: str):
    key = colorspace[1:] if colorspace.startswith("C") else colorspace
    if key.startswith("420"):
        key = "420"
    if key not in _Y4M_CHROMA:
        raise ValueError(f"unsupported Y4M colorspace {colorspace!r}")
    return _Y4M_CHROMA[key]


def decode_y4m_planes(payload: bytes):
    """Parse a Y4M stream → (frames, w, h, colorspace) where frames is a
    list of (Y, U, V) uint8 plane arrays (U=V=None for Cmono). Exact: the
    planes are the stream's raw bytes, no colorspace math."""
    nl = payload.index(b"\n")
    header = payload[:nl].decode("ascii")
    if not header.startswith("YUV4MPEG2"):
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    colorspace = "C420jpeg"  # spec default when no C tag is present
    for tok in header.split(" ")[1:]:
        if not tok:
            continue
        tag, val = tok[0], tok[1:]
        if tag == "W":
            w = int(val)
        elif tag == "H":
            h = int(val)
        elif tag == "C":
            colorspace = tok
        # F (rate), I (interlacing), A (aspect), X (extension): irrelevant
        # to raw plane extraction; progressive assumed, documented.
    if w is None or h is None:
        raise ValueError("Y4M header missing W or H")
    divs = _y4m_chroma_divs(colorspace)
    if divs is not None and (w % divs[0] or h % divs[1]):
        raise ValueError(f"{colorspace} requires dims divisible by {divs}")
    y_sz = w * h
    c_sz = 0 if divs is None else (w // divs[0]) * (h // divs[1])
    frames = []
    pos = nl + 1
    while pos < len(payload):
        fnl = payload.index(b"\n", pos)
        if payload[pos : pos + 5] != b"FRAME":
            raise ValueError("expected FRAME marker")
        pos = fnl + 1
        y = np.frombuffer(payload, np.uint8, y_sz, pos).reshape(h, w)
        pos += y_sz
        if divs is None:
            frames.append((y, None, None))
            continue
        cw, chh = w // divs[0], h // divs[1]
        u = np.frombuffer(payload, np.uint8, c_sz, pos).reshape(chh, cw)
        pos += c_sz
        v = np.frombuffer(payload, np.uint8, c_sz, pos).reshape(chh, cw)
        pos += c_sz
        frames.append((y, u, v))
    return frames, w, h, colorspace


def encode_y4m_planes(frames, colorspace: str = "C444", rate=(25, 1)) -> bytes:
    """Serialize (Y, U, V) uint8 plane tuples as a Y4M stream. The planes
    are written verbatim — decode_y4m_planes round-trips bit-exactly."""
    y0 = frames[0][0]
    h, w = y0.shape
    parts = [
        f"YUV4MPEG2 W{w} H{h} F{rate[0]}:{rate[1]} Ip A1:1 {colorspace}\n".encode()
    ]
    for y, u, v in frames:
        parts.append(b"FRAME\n")
        parts.append(np.ascontiguousarray(y, np.uint8).tobytes())
        if u is not None:
            parts.append(np.ascontiguousarray(u, np.uint8).tobytes())
            parts.append(np.ascontiguousarray(v, np.uint8).tobytes())
    return b"".join(parts)


def _yuv_to_rgb(y: np.ndarray, u, v) -> np.ndarray:
    """BT.601 limited-range YCbCr → RGB uint8; chroma nearest-upsampled to
    the luma grid (folds the C420 siting variants together, documented)."""
    h, w = y.shape
    yf = (y.astype(np.float32) - 16.0) * 1.1643836
    if u is None:  # Cmono
        g = np.clip(np.rint(yf), 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=2)
    uf = u.astype(np.float32) - 128.0
    vf = v.astype(np.float32) - 128.0
    if u.shape != y.shape:
        uf = np.repeat(np.repeat(uf, h // u.shape[0], 0), w // u.shape[1], 1)
        vf = np.repeat(np.repeat(vf, h // v.shape[0], 0), w // v.shape[1], 1)
    r = yf + 1.5960268 * vf
    g = yf - 0.3917623 * uf - 0.8129676 * vf
    b = yf + 2.0172321 * uf
    return np.clip(np.rint(np.stack([r, g, b], axis=2)), 0, 255).astype(np.uint8)


def rgb_to_yuv_planes(frame: np.ndarray, colorspace: str = "C444"):
    """BT.601 limited-range RGB → (Y, U, V) planes; chroma subsampled by
    box mean for C420/C422 (encoder side of the Y4M pair)."""
    r = frame[:, :, 0].astype(np.float32)
    g = frame[:, :, 1].astype(np.float32)
    b = frame[:, :, 2].astype(np.float32)
    y = 16.0 + 0.2568370 * r + 0.5041294 * g + 0.0979473 * b
    u = 128.0 - 0.1482229 * r - 0.2909928 * g + 0.4392157 * b
    v = 128.0 + 0.4392157 * r - 0.3677883 * g - 0.0714274 * b
    yq = np.clip(np.rint(y), 16, 235).astype(np.uint8)
    divs = _y4m_chroma_divs(colorspace)
    if divs is None:
        return yq, None, None
    dw, dh = divs
    h, w = frame.shape[:2]
    uq = np.clip(
        np.rint(u.reshape(h // dh, dh, w // dw, dw).mean(axis=(1, 3))), 16, 240
    ).astype(np.uint8)
    vq = np.clip(
        np.rint(v.reshape(h // dh, dh, w // dw, dw).mean(axis=(1, 3))), 16, 240
    ).astype(np.uint8)
    return yq, uq, vq


def encode_png(img: np.ndarray, filter_type: int = 0) -> bytes:
    """Minimal PNG encoder (own-output test/corpus generation): 8-bit
    gray (h,w) / RGB (h,w,3) / RGBA (h,w,4), one filter type for all rows
    (any of 0-4 — exercising every decoder filter path)."""
    if img.ndim == 2:
        color, ch = 0, 1
        px = img[:, :, None]
    elif img.shape[2] == 3:
        color, ch = 2, 3
        px = img
    else:
        color, ch = 6, 4
        px = img
    h, w = px.shape[:2]
    flat = px.reshape(h, w * ch).astype(np.int32)
    prev = np.zeros(w * ch, dtype=np.int32)
    lines = []
    for y in range(h):
        row = flat[y]
        left = np.concatenate([np.zeros(ch, np.int32), row[:-ch]])
        upleft = np.concatenate([np.zeros(ch, np.int32), prev[:-ch]])
        if filter_type == 0:
            enc = row
        elif filter_type == 1:
            enc = row - left
        elif filter_type == 2:
            enc = row - prev
        elif filter_type == 3:
            enc = row - ((left + prev) >> 1)
        else:  # Paeth
            p = left + prev - upleft
            pa_, pb, pc_ = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
            pred = np.where(
                (pa_ <= pb) & (pa_ <= pc_), left, np.where(pb <= pc_, prev, upleft)
            )
            enc = row - pred
        lines.append(bytes([filter_type]) + (enc & 0xFF).astype(np.uint8).tobytes())
        prev = row

    def chunk(typ: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + typ
            + body
            + struct.pack(">I", zlib.crc32(typ + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(b"".join(lines)))
        + chunk(b"IEND", b"")
    )


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """Minimal mono 16-bit PCM WAV encoder (stdlib wave)."""
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as wv:
        wv.setnchannels(1)
        wv.setsampwidth(2)
        wv.setframerate(rate)
        wv.writeframes(
            np.clip(np.asarray(samples) * 32767.0, -32768, 32767)
            .astype("<i2")
            .tobytes()
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# AIFF (Apple/EA IFF-85 audio, big-endian PCM) and Sun AU (.snd) — both from
# the public specs; AU covers ITU-T G.711 mu-law, the telephony encoding.
# ---------------------------------------------------------------------------

def _mulaw_table() -> np.ndarray:
    """G.711 mu-law byte -> linear int16 (the standard decode expansion:
    complement, then ((mantissa<<3)+0x84)<<exponent - 0x84, signed)."""
    b = ~np.arange(256, dtype=np.int32) & 0xFF
    exp = (b >> 4) & 7
    mant = b & 0x0F
    mag = (((mant << 3) + 0x84) << exp) - 0x84
    return np.where(b & 0x80, -mag, mag).astype(np.int16)


_MULAW = _mulaw_table()


def _decode_aiff(data: bytes) -> np.ndarray:
    """AIFF/AIFC chunks: COMM (channels, frames, sampleSize) + SSND
    (offset, blockSize, PCM big-endian signed). AIFC accepted only with
    compressionType NONE."""
    is_aifc = data[8:12] == b"AIFC"
    pos = 12
    ch = size = None
    raw = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (ln,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + ln]
        pos += 8 + ln + (ln & 1)  # chunks are word-aligned
        if cid == b"COMM":
            ch, _nframes, size = struct.unpack(">HIH", body[:8])
            if is_aifc and body[18:22] not in (b"NONE", b"sowt"):
                raise ValueError(
                    "compressed AIFC needs a library backend "
                    f"(compressionType={body[18:22]!r})"
                )
        elif cid == b"SSND":
            (off, _blk) = struct.unpack(">II", body[:8])
            raw = body[8 + off :]
    if ch is None or raw is None:
        raise ValueError("AIFF missing COMM or SSND chunk")
    if size == 16:
        a = np.frombuffer(raw, ">i2").astype(np.float32) / 32768.0
    elif size == 8:
        a = np.frombuffer(raw, np.int8).astype(np.float32) / 128.0
    elif size == 32:
        a = np.frombuffer(raw, ">i4").astype(np.float32) / 2147483648.0
    else:
        raise ValueError(f"unsupported AIFF sample size {size}")
    n = (a.size // ch) * ch
    return a[:n].reshape(-1, ch).mean(axis=1).astype(np.float32)


def _decode_au(data: bytes) -> np.ndarray:
    """Sun .au/.snd: 24-byte big-endian header, then samples. Encodings:
    1 = G.711 mu-law, 2/3/5 = signed PCM 8/16/32, 6 = float32."""
    _, off, _size, enc, _rate, ch = struct.unpack(">4sIIIII", data[:24])
    raw = data[off:]
    if enc == 1:
        a = _MULAW[np.frombuffer(raw, np.uint8)].astype(np.float32) / 32768.0
    elif enc == 2:
        a = np.frombuffer(raw, np.int8).astype(np.float32) / 128.0
    elif enc == 3:
        a = np.frombuffer(raw, ">i2").astype(np.float32) / 32768.0
    elif enc == 5:
        a = np.frombuffer(raw, ">i4").astype(np.float32) / 2147483648.0
    elif enc == 6:
        a = np.frombuffer(raw, ">f4").astype(np.float32)
    else:
        raise ValueError(f"unsupported AU encoding {enc}")
    n = (a.size // ch) * ch
    return a[:n].reshape(-1, ch).mean(axis=1).astype(np.float32)


def encode_aiff(samples: np.ndarray, rate: int = 16000) -> bytes:
    """Minimal mono 16-bit AIFF writer (for round-trip tests)."""
    pcm = (
        np.clip(np.asarray(samples) * 32767.0, -32768, 32767)
        .astype(">i2")
        .tobytes()
    )
    # 80-bit extended-float sample rate: exponent 16383+(bits-1), mantissa
    # left-justified to 64 bits
    ext = struct.pack(">H", 16383 + rate.bit_length() - 1) + struct.pack(
        ">Q", rate << (64 - rate.bit_length())
    )
    comm = struct.pack(">HIH", 1, len(pcm) // 2, 16) + ext
    ssnd = struct.pack(">II", 0, 0) + pcm
    body = (
        b"AIFF"
        + b"COMM" + struct.pack(">I", len(comm)) + comm
        + b"SSND" + struct.pack(">I", len(ssnd)) + ssnd
    )
    return b"FORM" + struct.pack(">I", len(body)) + body


def encode_au(samples: np.ndarray, encoding: int = 3, rate: int = 8000) -> bytes:
    """Minimal mono AU writer: encoding 3 (PCM16) or 1 (mu-law)."""
    s = np.asarray(samples)
    if encoding == 3:
        raw = np.clip(s * 32767.0, -32768, 32767).astype(">i2").tobytes()
    elif encoding == 1:
        raw = _linear_to_mulaw(
            np.clip(s * 32767.0, -32768, 32767).astype(np.int16)
        ).tobytes()
    else:
        raise ValueError("encode_au supports encodings 1 and 3")
    return struct.pack(">4sIIIII", b".snd", 24, len(raw), encoding, rate, 1) + raw


def _linear_to_mulaw(pcm: np.ndarray) -> np.ndarray:
    """G.711 mu-law compression (the inverse of _mulaw_table), vectorized."""
    x = pcm.astype(np.int32)
    sign = np.where(x < 0, 0x80, 0)
    mag = np.minimum(np.abs(x) + 0x84, 0x7FFF)
    exp = (np.floor(np.log2(mag)) - 7).astype(np.int32)
    mant = (mag >> (exp + 3)) & 0x0F
    return (~(sign | (exp << 4) | mant) & 0xFF).astype(np.uint8)


class FakeDecodeBackend(DecodeBackend):
    """Deterministic fake: 'pixels' are a seeded function of the payload
    hash. Lets the full pipeline (schema, batching, feature extraction,
    output layout) run and be tested without codecs."""

    def decode_image(self, payload: bytes) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)

    def decode_audio(self, payload: bytes) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(1024).astype(np.float32)


class ImageFeatureExtractor:
    """Actor-pool stage: decode + per-channel mean/std features.

    `__init__` constructs the backend once per actor (model-load analog);
    `__call__` is per batch. Use with:
        ds.map_batches(ImageFeatureExtractor, batch_size=64, concurrency=N)
    — small batch_size because payloads are large binaries.

    `on_error`: at corpus scale corrupt payloads are a statistical
    certainty, and one must not kill a whole batch task (the reference's
    indexers die on the first bad record — parseJSON.pl:107; we do
    better). "raise" (default) propagates; "mark" keeps the row with a
    null `feature` and the message in `decode_error`, so downstream can
    count/quarantine bad records with a plain filter."""

    def __init__(
        self, backend: DecodeBackend | None = None, on_error: str = "raise"
    ):
        if on_error not in ("raise", "mark"):
            raise ValueError("on_error must be 'raise' or 'mark'")
        self.backend = backend or StdlibDecodeBackend()
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats: list[list[float] | None] = []
        errors: list[str | None] = []
        for payload in batch["payload"].to_pylist():
            try:
                img = self.backend.decode_image(payload)
                feats.append(
                    np.concatenate(
                        [img.mean(axis=(0, 1)), img.std(axis=(0, 1))]
                    )
                    .astype(np.float32)
                    .tolist()
                )
                errors.append(None)
            except Exception as e:  # noqa: BLE001 — per-record isolation
                if self.on_error == "raise":
                    raise
                feats.append(None)
                errors.append(f"{type(e).__name__}: {e}")
        cols = {
            "item_id": batch["item_id"],
            "feature": pa.array(feats, pa.list_(pa.float32())),
            "payload_sha256": pa.array(
                [
                    hashlib.sha256(p).hexdigest()
                    for p in batch["payload"].to_pylist()
                ],
                pa.string(),
            ),
        }
        if self.on_error == "mark":
            cols["decode_error"] = pa.array(errors, pa.string())
        return pa.table(cols)


class FrameSampler:
    """Actor-pool stage: REALLY decode a Y4M video payload and keep every
    `stride`-th frame — the 1->N flat-map output layout for frame
    extraction. Emits (item_id, frame_no, frame_sha256, mean_luma) per
    sampled frame; sha is over the decoded RGB bytes so downstream frame
    dedup composes with the exact-dedup operators."""

    def __init__(
        self,
        stride: int = 4,
        backend: DecodeBackend | None = None,
        on_error: str = "raise",
    ):
        if on_error not in ("raise", "mark"):
            raise ValueError("on_error must be 'raise' or 'mark'")
        self.stride = stride
        self.backend = backend or StdlibDecodeBackend()
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        item_ids, frame_nos, shas, lumas = [], [], [], []
        for iid, payload in zip(
            batch["item_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            try:
                frames = self.backend.decode_video(payload)
            except Exception as e:  # noqa: BLE001 — per-record isolation
                if self.on_error == "raise":
                    raise
                # one marker row per bad payload: frame_no=-1, sha carries
                # the error message so the quarantine row is greppable
                item_ids.append(iid)
                frame_nos.append(-1)
                shas.append(f"decode_error:{type(e).__name__}: {e}")
                lumas.append(float("nan"))
                continue
            for fi in range(0, len(frames), self.stride):
                rgb = frames[fi]
                item_ids.append(iid)
                frame_nos.append(fi)
                shas.append(hashlib.sha256(rgb.tobytes()).hexdigest())
                # BT.601 luma of the decoded RGB (not the Y plane: measures
                # what downstream vision stages would actually see)
                lumas.append(
                    float(rgb.astype(np.float32).mean(axis=(0, 1)) @
                          np.array([0.299, 0.587, 0.114], np.float32))
                )
        return pa.table(
            {
                "item_id": pa.array(item_ids, pa.int64()),
                "frame_no": pa.array(frame_nos, pa.int32()),
                "frame_sha256": pa.array(shas, pa.string()),
                "mean_luma": pa.array(lumas, pa.float64()),
            }
        )


class AudioFeatureExtractor:
    """Actor-pool stage: WAV decode + duration/RMS/peak features.
    `on_error="mark"` keeps bad rows with n_samples=-1 / NaN stats (see
    ImageFeatureExtractor)."""

    def __init__(
        self, backend: DecodeBackend | None = None, on_error: str = "raise"
    ):
        if on_error not in ("raise", "mark"):
            raise ValueError("on_error must be 'raise' or 'mark'")
        self.backend = backend or StdlibDecodeBackend()
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_s, rms, peak = [], [], []
        for payload in batch["payload"].to_pylist():
            try:
                a = self.backend.decode_audio(payload)
            except Exception as e:  # noqa: BLE001 — per-record isolation
                if self.on_error == "raise":
                    raise
                n_s.append(-1)
                rms.append(float("nan"))
                peak.append(float("nan"))
                continue
            n_s.append(a.size)
            rms.append(float(np.sqrt(np.mean(a.astype(np.float64) ** 2))))
            peak.append(float(np.abs(a).max(initial=0.0)))
        return pa.table(
            {
                "item_id": batch["item_id"],
                "n_samples": pa.array(n_s, pa.int64()),
                "rms": pa.array(rms, pa.float64()),
                "peak": pa.array(peak, pa.float64()),
            }
        )


def synthetic_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic media corpus in IMAGE_SCHEMA shape: REAL 16x16
    payloads rotating over every stdlib decoder path — PNG (all five
    scanline filters), JPEG (4:4:4, 4:2:0, grayscale, progressive;
    nexlt_ray.jpeg), lossless WebP (nexlt_ray.webp), and GIF87a LZW
    (nexlt_ray.gif)."""
    from .gif import encode_gif
    from .jpeg import encode_jpeg, encode_jpeg_progressive
    from .webp import encode_webp

    rng = np.random.default_rng(seed)
    payloads, types = [], []
    for i in range(n):
        img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        v = i % 11
        if v < 5:
            payloads.append(encode_png(img, filter_type=v))
            types.append("image/png")
        elif v == 5:
            payloads.append(encode_jpeg(img, quality=90, subsampling="444"))
            types.append("image/jpeg")
        elif v == 6:
            payloads.append(encode_jpeg(img, quality=90, subsampling="420"))
            types.append("image/jpeg")
        elif v == 7:
            payloads.append(encode_jpeg(img[:, :, 0], quality=90))
            types.append("image/jpeg")
        elif v == 8:
            payloads.append(encode_jpeg_progressive(img, quality=90))
            types.append("image/jpeg")
        elif v == 9:
            payloads.append(
                encode_webp(img, subtract_green=True, predictor=7,
                            cache_bits=4)
            )
            types.append("image/webp")
        else:
            # GIF needs <=256 distinct colors: quantize to a 27-color cube
            payloads.append(encode_gif((img // 86) * 86))
            types.append("image/gif")
    return pa.table(
        {
            "item_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(types, pa.string()),
            "width": pa.array(np.full(n, 16, dtype=np.int32)),
            "height": pa.array(np.full(n, 16, dtype=np.int32)),
        }
    )


def synthetic_video_table(
    n: int, n_frames: int = 8, seed: int = 11, colorspace: str = "C420jpeg"
) -> pa.Table:
    """Deterministic video corpus: REAL Y4M payloads (16x16, `n_frames`
    frames of seeded moving-gradient RGB, BT.601-encoded planar YUV)."""
    rng = np.random.default_rng(seed)
    xx, yy = np.meshgrid(np.arange(16), np.arange(16))
    payloads = []
    for _ in range(n):
        phase = float(rng.uniform(0, 16))
        speed = float(rng.uniform(0.5, 3.0))
        base = rng.integers(0, 256, size=3)
        frames = []
        for fi in range(n_frames):
            shift = (xx + yy + phase + speed * fi) % 16
            rgb = np.stack(
                [((shift * 16 + base[c]) % 256).astype(np.uint8) for c in range(3)],
                axis=2,
            )
            frames.append(rgb_to_yuv_planes(rgb, colorspace))
        payloads.append(encode_y4m_planes(frames, colorspace))
    return pa.table(
        {
            "item_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["video/x-yuv4mpeg"] * n, pa.string()),
            "width": pa.array(np.full(n, 16, dtype=np.int32)),
            "height": pa.array(np.full(n, 16, dtype=np.int32)),
        }
    )


def synthetic_audio_table(n: int, seed: int = 7) -> pa.Table:
    """Deterministic audio corpus: REAL mono 16-bit PCM WAV payloads
    (seeded sine + noise mixtures, 1024 samples)."""
    rng = np.random.default_rng(seed)
    t = np.arange(1024) / 16000.0
    payloads = []
    for _ in range(n):
        f = float(rng.uniform(100, 2000))
        amp = float(rng.uniform(0.1, 0.9))
        sig = amp * np.sin(2 * np.pi * f * t) + 0.01 * rng.standard_normal(t.size)
        payloads.append(encode_wav(sig))
    return pa.table(
        {
            "item_id": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(payloads, pa.binary()),
            "media_type": pa.array(["audio/wav"] * n, pa.string()),
            "width": pa.array(np.zeros(n, dtype=np.int32)),
            "height": pa.array(np.zeros(n, dtype=np.int32)),
        }
    )
