"""Binary model persistence.

Layout (all multi-byte values little-endian, floats IEEE 754 binary64):

    magic            8 bytes  b"PACGIBBS"
    version          u32      currently 1
    backend_kind     u8       0 = gmm, 1 = hmm
    scoring flag     u8       always 1: votes score unit-normalized features;
                              other values are rejected
    C, delta         2 x f64
    dim              u32
    u0, u            2 x f64[dim]
    model (positive) backend-specific block, see below
    model (negative) backend-specific block
    gmm trailer      u8 has_standardize; if 1: u32 d, f64[d] mean, f64[d] std
    hmm trailer      u32 alphabet byte length, utf-8 alphabet

GMM block: u32 K, u32 d, f64[K] weights, f64[K*d] means, f64[K*d] variances.
HMM block: u32 M, u32 K_out, f64[M] initial, f64[M*M] transition,
f64[M*K_out] emission.

Writing the same trained task twice produces byte-identical files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .gmm import GmmBackend, GmmParams, VARIANCE_FLOOR_SCALE
from .hmm import HmmBackend, HmmParams
from .trainer import TrainedTask

MAGIC = b"PACGIBBS"
VERSION = 1
SCORING_FLAG = 1
_KINDS = {"gmm": 0, "hmm": 1}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}


@dataclass
class LoadedModel:
    task: TrainedTask
    backend_kind: str
    feat_mean: np.ndarray | None = None
    feat_std: np.ndarray | None = None
    alphabet: str | None = None


def _f64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _gmm_block(params: GmmParams) -> bytes:
    k, d = params.n_components, params.dim
    return (
        struct.pack("<II", k, d)
        + _f64(params.weights)
        + _f64(params.means)
        + _f64(params.variances)
    )


def _hmm_block(params: HmmParams) -> bytes:
    m, k = params.n_states, params.n_symbols
    return (
        struct.pack("<II", m, k)
        + _f64(params.initial)
        + _f64(params.transition)
        + _f64(params.emission)
    )


def save_model(
    path: str,
    task: TrainedTask,
    backend_kind: str,
    feat_mean: np.ndarray | None = None,
    feat_std: np.ndarray | None = None,
    alphabet: str | None = None,
) -> None:
    if backend_kind not in _KINDS:
        raise DataFormatError(f"unknown backend kind {backend_kind!r}")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IBB", VERSION, _KINDS[backend_kind], SCORING_FLAG)
    out += struct.pack("<dd", task.C, task.delta)
    out += struct.pack("<I", task.u.shape[0])
    out += _f64(task.u0)
    out += _f64(task.u)
    if backend_kind == "gmm":
        out += _gmm_block(task.backend_plus.params)
        out += _gmm_block(task.backend_minus.params)
        if feat_mean is not None:
            out += struct.pack("<BI", 1, feat_mean.shape[0])
            out += _f64(feat_mean) + _f64(feat_std)
        else:
            out += struct.pack("<B", 0)
    else:
        out += _hmm_block(task.backend_plus.params)
        out += _hmm_block(task.backend_minus.params)
        encoded = (alphabet or "").encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.off = 0

    def _take(self, size: int) -> int:
        """Start offset of the next ``size`` bytes; the file must hold them."""
        remaining = len(self.blob) - self.off
        if size > remaining:
            raise DataFormatError(
                f"{self.path} is truncated: {size} bytes needed at offset {self.off}, "
                f"{remaining} left"
            )
        start = self.off
        self.off += size
        return start

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.blob, self._take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        start = self._take(8 * count)
        return np.frombuffer(self.blob, dtype="<f8", count=count, offset=start).copy()

    def raw(self, count: int) -> bytes:
        start = self._take(count)
        return self.blob[start : start + count]


def _read_gmm(r: _Reader) -> GmmBackend:
    k, d = r.unpack("<II")
    params = GmmParams(
        weights=r.floats(k),
        means=r.floats(k * d).reshape(k, d),
        variances=r.floats(k * d).reshape(k, d),
    )
    # Any positive floor works for a loaded model (no further m-steps here).
    floor = np.maximum(VARIANCE_FLOOR_SCALE * params.variances.min(axis=0), 1e-12)
    return GmmBackend(params, variance_floor=floor)


def _read_hmm(r: _Reader) -> HmmBackend:
    m, k = r.unpack("<II")
    params = HmmParams(
        initial=r.floats(m),
        transition=r.floats(m * m).reshape(m, m),
        emission=r.floats(m * k).reshape(m, k),
    )
    return HmmBackend(params)


def load_model(path: str) -> LoadedModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.raw(8) != MAGIC:
        raise DataFormatError(f"{path} is not a pacgibbs model file")
    version, kind_code, flag = r.unpack("<IBB")
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported model format version {version}")
    if kind_code not in _KIND_NAMES:
        raise DataFormatError(f"{path}: unknown backend code {kind_code}")
    if flag != SCORING_FLAG:
        raise DataFormatError(
            f"{path}: unsupported scoring flag {flag} (byte 13); "
            f"only unit-normalized scoring ({SCORING_FLAG}) is supported"
        )
    kind = _KIND_NAMES[kind_code]
    C, delta = r.unpack("<dd")
    (dim,) = r.unpack("<I")
    u0 = r.floats(dim)
    u = r.floats(dim)
    if kind == "gmm":
        bp, bm = _read_gmm(r), _read_gmm(r)
        (has_std,) = r.unpack("<B")
        feat_mean = feat_std = None
        if has_std:
            (d,) = r.unpack("<I")
            feat_mean = r.floats(d)
            feat_std = r.floats(d)
        alphabet = None
    else:
        bp, bm = _read_hmm(r), _read_hmm(r)
        (alpha_len,) = r.unpack("<I")
        alphabet = r.raw(alpha_len).decode("utf-8")
        feat_mean = feat_std = None
    expected_dim = bp.block_dim() + bm.block_dim() + 1
    if dim != expected_dim:
        raise DataFormatError(
            f"{path}: model dimension mismatch: u has {dim}, backends give {expected_dim}"
        )
    task = TrainedTask(
        u0=u0,
        u=u,
        C=C,
        backend_plus=bp,
        backend_minus=bm,
        history=[],
        flags={},
        delta=delta,
    )
    return LoadedModel(
        task=task, backend_kind=kind, feat_mean=feat_mean, feat_std=feat_std, alphabet=alphabet
    )
