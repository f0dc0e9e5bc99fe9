"""Multimodal (image/audio/video) column plumbing.

Media are opaque ``binary`` columns with typed metadata travelling next to
them (media_type, width/height or sample_rate, byte length). The Ray-side
plumbing — schema, small batches for large payloads, output layout — is
real and tested; the actual codec work is STUBBED (the package depends on
no PIL/ffmpeg): a stage called without its codec fn raises
``NotImplementedError`` at the call unless ``fake=True`` installs the
deterministic fake (byte-histogram "features", byte resample, byte
slicing), which is what the tests and ``q_media_features`` exercise.

Every stage is one stateless ``map_batches`` function closing over the
codec fn, in SMALL batches (``*_BATCH_ROWS``: payload × batch must fit a
worker's heap), zero-copy Arrow in/out. A codec that is expensive to
load should cache itself per worker process (module-level memo).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["MEDIA_SCHEMA", "featurize_media", "resize_media",
           "sample_frames", "fake_media_table"]

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),       # "image" | "audio" | "video"
    ("payload", pa.binary()),
    ("meta_width", pa.int32()),
    ("meta_height", pa.int32()),
    ("meta_sample_rate", pa.int32()),
    ("n_bytes", pa.int64()),
])

N_FEATURES = 16

# rows per batch: featurize and resize batches carry the raw payload bytes
# (resize holds old and new payload at once); frame sampling fans each
# video out to n_frames payload rows, so it runs smaller batches still
FEATURIZE_BATCH_ROWS = 64
RESIZE_BATCH_ROWS = 64
FRAMES_BATCH_ROWS = 16


def _codec(fn, fake: bool, fake_fn, arg: str):
    """The caller's codec fn, else the fake one, else raise at the call."""
    if fn is not None:
        return fn
    if fake:
        return fake_fn
    raise NotImplementedError(
        f"no media codec is bundled: pass {arg} or fake=True "
        "(deterministic stand-in)")


def _fake_decode(payloads: list[bytes | None]) -> np.ndarray:
    """Deterministic stand-in for decode+featurize: 16-bin byte histogram,
    L1-normalized. Replaced by a real codec stage outside this sandbox."""
    out = np.zeros((len(payloads), N_FEATURES), dtype=np.float32)
    for i, p in enumerate(payloads):
        if p:
            counts = np.bincount(np.frombuffer(p, np.uint8) >> 4,
                                 minlength=N_FEATURES)
            out[i] = counts / max(counts.sum(), 1)
    return out


def featurize_media(ds, *, decode_fn=None, fake: bool = False):
    """Dataset[MEDIA_SCHEMA] -> + media_features fixed_size_list<float32>.

    ``decode_fn(payloads) -> (n, d) array`` decodes and feature-extracts
    one batch; ``fake=True`` uses the deterministic byte-histogram fake."""
    decode = _codec(decode_fn, fake, _fake_decode, "decode_fn")

    def featurize(t: pa.Table) -> pa.Table:
        feats = np.asarray(decode(t["payload"].to_pylist()), np.float32)
        flat = pa.array(feats.reshape(-1), pa.float32())
        col = pa.FixedSizeListArray.from_arrays(flat, feats.shape[1])
        return t.append_column("media_features", col)

    return ds.map_batches(featurize, batch_size=FEATURIZE_BATCH_ROWS,
                          batch_format="pyarrow")


def _fake_resize(payloads, w: int, h: int):
    """Even-stride byte subsample / zero-pad to w*h bytes."""
    tgt = w * h
    out = []
    for p in payloads:
        b = np.frombuffer(p or b"", np.uint8)
        if len(b) >= tgt:
            idx = np.linspace(0, len(b) - 1, tgt).astype(np.int64)
            out.append(b[idx].tobytes())
        else:
            out.append(b.tobytes() + b"\x00" * (tgt - len(b)))
    return out


def resize_media(ds, *, target_width: int = 64, target_height: int = 64,
                 resize_fn=None, fake: bool = False):
    """Dataset[MEDIA_SCHEMA] -> same schema, payload resized + metadata
    rewritten. ``resize_fn(payloads, w, h) -> list[bytes]`` does the codec
    work; ``fake=True`` installs the deterministic stand-in (even-stride
    byte subsample / zero-pad to w*h bytes) so the plumbing — metadata
    rewrite, payload replacement, small batches — runs end-to-end without
    PIL."""
    resize = _codec(resize_fn, fake, _fake_resize, "resize_fn")
    w, h = int(target_width), int(target_height)

    def rewrite(t: pa.Table) -> pa.Table:
        new_payloads = resize(t["payload"].to_pylist(), w, h)
        n = len(t)
        t = t.set_column(t.schema.get_field_index("payload"), "payload",
                         pa.array(new_payloads, pa.binary()))
        t = t.set_column(t.schema.get_field_index("meta_width"),
                         "meta_width", pa.array([w] * n, pa.int32()))
        t = t.set_column(t.schema.get_field_index("meta_height"),
                         "meta_height", pa.array([h] * n, pa.int32()))
        return t.set_column(
            t.schema.get_field_index("n_bytes"), "n_bytes",
            pa.array([len(p) for p in new_payloads], pa.int64()))

    return ds.map_batches(rewrite, batch_size=RESIZE_BATCH_ROWS,
                          batch_format="pyarrow")


FRAME_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("frame_idx", pa.int32()),
    ("media_type", pa.string()),       # frames come out as "image"
    ("payload", pa.binary()),
    ("meta_width", pa.int32()),
    ("meta_height", pa.int32()),
    ("n_bytes", pa.int64()),
])


def _fake_frames(payload: bytes, n: int):
    """Slice the payload into ``n`` even byte chunks."""
    b = payload or b""
    bounds = np.linspace(0, len(b), n + 1).astype(np.int64)
    return [b[bounds[i]:bounds[i + 1]] for i in range(n)]


def sample_frames(ds, *, n_frames: int = 4, frames_fn=None,
                  fake: bool = False):
    """Dataset[MEDIA_SCHEMA] (video rows) -> Dataset[FRAME_SCHEMA], one row
    per sampled frame (a flat-map). ``frames_fn(payload, n) ->
    list[bytes]`` does the codec work; ``fake=True`` slices the payload
    into ``n`` even byte chunks. Non-video rows are dropped (sampling
    frames from an image makes no sense; filter upstream to keep them)."""
    frames = _codec(frames_fn, fake, _fake_frames, "frames_fn")
    n_frames = int(n_frames)

    def fan_out(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t["media_type"], "video"))
        ids, fidx, payloads, ws, hs = [], [], [], [], []
        for mid, p, w, h in zip(keep["media_id"].to_pylist(),
                                keep["payload"].to_pylist(),
                                keep["meta_width"].to_pylist(),
                                keep["meta_height"].to_pylist()):
            for j, fb in enumerate(frames(p, n_frames)):
                ids.append(mid); fidx.append(j); payloads.append(fb)
                ws.append(w); hs.append(h)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(fidx, pa.int32()),
            "media_type": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta_width": pa.array(ws, pa.int32()),
            "meta_height": pa.array(hs, pa.int32()),
            "n_bytes": pa.array([len(p or b"") for p in payloads],
                                pa.int64()),
        }, schema=FRAME_SCHEMA)

    return ds.map_batches(fan_out, batch_size=FRAMES_BATCH_ROWS,
                          batch_format="pyarrow")


def fake_media_table(n: int = 64, seed: int = 3,
                     with_video: bool = False) -> pa.Table:
    """Deterministic synthetic media table (tests/bench fixtures).
    ``with_video=True`` makes every 5th row a "video" (for frame-sampling
    tests) without disturbing the default fixture's layout."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(rng.integers(64, 2048)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    types = ["image" if i % 3 else "audio" for i in range(n)]
    if with_video:
        types = ["video" if i % 5 == 0 else t for i, t in enumerate(types)]
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "media_type": pa.array(types, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta_width": pa.array([64] * n, pa.int32()),
        "meta_height": pa.array([64] * n, pa.int32()),
        "meta_sample_rate": pa.array([16000] * n, pa.int32()),
        "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
    }, schema=MEDIA_SCHEMA)
