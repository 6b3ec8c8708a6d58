"""Signal ingestion and canonicalization.

Loads 1-D signals from WAV or CSV files, subsamples them to a common length
and breaks value ties deterministically so that every sample gets a unique
height, as required by the sublevel-set filtration downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import SignalError

DEFAULT_TARGET_LEN = 10000


@dataclass(frozen=True)
class Signal:
    """An ordered sequence of finite real amplitudes, in [-1, 1] from the audio loaders."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)  # a copy: the caller's array stays writable
        if samples.ndim != 1 or samples.size == 0:
            raise SignalError("signal must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise SignalError("signal contains NaN or Inf amplitudes")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class CanonicalSignal:
    """A signal together with a strict total order on its samples.

    ``key`` holds distinct int64 values that order like (value, index), so
    equal amplitudes are distinguished by their index (symbolic
    perturbation). ``key[i] % n == i``.
    """

    samples: np.ndarray
    key: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("samples", "key"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.samples.size


def _subsample_indices(n: int, target_len: int) -> np.ndarray:
    """round_half_up(k*(n-1)/(target_len-1)) for k = 0..target_len-1."""
    if target_len < 2:
        raise SignalError("target_len must be at least 2")
    if target_len > n:
        raise SignalError(f"cannot upsample: target_len {target_len} > signal length {n}")
    k = np.arange(target_len, dtype=np.float64)
    return (k * (n - 1) / (target_len - 1) + 0.5).astype(np.intp)  # >= 0.5: truncation floors


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# A WAVE_FORMAT_EXTENSIBLE sub-format GUID {XXXXXXXX-0000-0010-8000-00AA00389B71}
# holds a plain format tag in its first 4 bytes (RFC 2361). Its last 12 bytes,
# by the file's byte order, which its first three fields follow:
_GUID_TAIL = {"<": bytes.fromhex("00001000800000aa00389b71"),
              ">": bytes.fromhex("00000010800000aa00389b71")}


def _wav_format(raw: bytes, pos: int, size: int, end: str, path) -> tuple[int, np.dtype]:
    """Channels and sample dtype of the fmt chunk at ``pos``.

    24-bit PCM gets the 3-byte dtype V3, which the caller widens.
    """
    if size < 16:
        raise SignalError(f"fmt chunk too short in {path}")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(end + "HHIIHH", raw, pos)
    if (tag == _EXTENSIBLE and size >= 40 and struct.unpack_from(end + "H", raw, pos + 16)[0] >= 22
            and raw[pos + 28:pos + 40] == _GUID_TAIL[end]):
        tag = struct.unpack_from(end + "I", raw, pos + 24)[0]
    width = block_align // channels if channels else 0
    if tag == _PCM and byte_rate != rate * block_align:
        raise SignalError(f"WAV header is invalid (byte rate != sample rate * block align): {path}")
    if width * channels != block_align or width == 0:
        raise SignalError(f"WAV block align {block_align} does not fit {channels} channels: {path}")
    if tag == _PCM and bits <= 8 and width == 1:
        return channels, np.dtype(np.uint8)
    if tag == _PCM and bits > 8 and width in (2, 3, 4):
        return channels, np.dtype("V3" if width == 3 else f"{end}i{width}")
    if tag == _IEEE_FLOAT and bits in (32, 64) and width in (4, 8):
        return channels, np.dtype(f"{end}f{width}")
    raise SignalError(f"unsupported WAV sample format (tag {tag:#x}, {bits} bits in "
                      f"{width} bytes) in {path}")


def _read_wav(path, target_len: int | None) -> np.ndarray:
    """The frames of a WAV file, as native integers or floats.

    Reads RIFF and RF64 (little-endian) and RIFX (big-endian) WAVE files of
    PCM or IEEE-float samples, from a plain or WAVE_FORMAT_EXTENSIBLE fmt
    chunk; other chunks are skipped. A data chunk cut short keeps its whole
    frames. Frames are (n,) for one channel and (n, channels) for more. 8-bit
    PCM is unsigned, and 24-bit PCM is widened to int32 as x * 256. With
    ``target_len`` < n, only the frames ``subsample`` keeps are converted.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SignalError(f"cannot read WAV file {path}: {exc}")
    form = raw[:4]
    if form not in (b"RIFF", b"RIFX", b"RF64") or raw[8:12] != b"WAVE":
        raise SignalError(f"not a RIFF, RIFX or RF64 WAVE file: {path}")
    end = ">" if form == b"RIFX" else "<"
    fmt = rf64_size = None
    pos = 12
    try:
        while pos + 8 <= len(raw):
            chunk, (size,) = raw[pos:pos + 4], struct.unpack_from(end + "I", raw, pos + 4)
            pos += 8
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                fmt = _wav_format(raw, pos, size, end, path)
            elif chunk == b"ds64" and form == b"RF64":
                rf64_size = struct.unpack_from("<Q", raw, pos + 8)[0]
            pos += size + (size & 1)
        else:
            raise SignalError(f"no data chunk in {path}")
    except struct.error:
        raise SignalError(f"corrupt WAV header in {path}")
    if fmt is None:
        raise SignalError(f"no fmt chunk before the data chunk in {path}")
    if form == b"RF64":
        if rf64_size is None:
            raise SignalError(f"RF64 file without a ds64 chunk: {path}")
        size = rf64_size
    channels, dtype = fmt
    n = min(size, len(raw) - pos) // (channels * dtype.itemsize)
    if n == 0:
        raise SignalError(f"zero-length audio: {path}")
    # A view of the file's bytes: only the kept frames are ever copied.
    frames = np.frombuffer(raw, dtype=dtype, count=n * channels, offset=pos)
    if channels > 1:
        frames = frames.reshape(n, channels)
    if dtype.kind == "f" and np.isnan(frames).any():
        raise SignalError(f"NaN amplitude in {path}")
    if target_len is not None and target_len < n:
        frames = frames[_subsample_indices(n, target_len)]
    if dtype.kind == "V":
        wide = np.zeros(frames.shape + (4,), dtype=np.uint8)
        wide[..., slice(1, 4) if end == "<" else slice(0, 3)] = (
            frames.view(np.uint8).reshape(frames.shape + (3,)))
        return wide.view(end + "i4")[..., 0].astype(np.int32, copy=False)
    return frames.astype(dtype.newbyteorder("="), copy=False)


def load_wav(path, target_len: int | None = None) -> Signal:
    """Load a PCM or IEEE-float WAV file as a mono Signal in [-1, 1].

    With ``target_len``, only the frames that ``subsample`` keeps are
    converted: the result equals ``subsample(load_wav(path), min(target_len,
    n))`` for a file of n frames. A float file with NaN in any frame is
    rejected.
    """
    data = _read_wav(path, target_len)
    # Multi-channel input is averaged per frame before renormalizing, so a
    # stereo frame (1000, 3000) at 16 bit becomes 2000/32768.
    samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if data.dtype == np.uint8:  # 8-bit WAV is unsigned
        samples = (samples - 128.0) / 128.0
    elif data.dtype.kind == "i":
        # 24-bit PCM is widened into int32, so one divisor covers both.
        # Divided in place: a second full-length temporary per file costs page
        # faults whenever the allocator hands its memory back between files.
        samples /= 32768.0 if data.dtype == np.int16 else 2147483648.0
    else:
        samples = np.clip(samples, -1.0, 1.0)
    return Signal(samples=samples)


def load_csv_signal(path) -> Signal:
    """Load a signal from a text file with one decimal value per line.

    Each non-blank line is one Python ``float`` literal; blank lines and a
    leading UTF-8 byte order mark are skipped. The values are parsed in one
    pass and checked for finiteness at once; only a file that fails is read
    again line by line, to name the first bad line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            # The lines iterating fh gives; str.splitlines would also split
            # at form feeds, \x1c-\x1e, \x85 and \u2028/9.
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SignalError(f"cannot read signal file {path}: {exc}")
    texts = list(filter(None, map(str.strip, lines)))
    try:
        samples = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        samples = None
    if samples is None or not np.isfinite(samples).all():
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise SignalError(f"{path}: non-numeric value at line {lineno}: {text!r}")
            if not np.isfinite(value):
                raise SignalError(f"{path}: non-finite value at line {lineno}")
    if not texts:
        raise SignalError(f"empty file: {path}")
    return Signal(samples=samples)


def subsample(s: Signal, target_len: int) -> Signal:
    """Pick ``target_len`` evenly spaced samples, keeping the endpoints.

    Indices are round_half_up(k*(n-1)/(target_len-1)) for k = 0..target_len-1,
    which preserves the first and last sample and is deterministic.
    Upsampling is refused.
    """
    if target_len == len(s):
        return s  # the indices are 0..n-1; a one-sample signal has no others
    return Signal(samples=s.samples[_subsample_indices(len(s), target_len)])


def canonicalize(s: Signal) -> CanonicalSignal:
    """Give each sample the order key class * n + index, ordered by (value, index).

    The class orders like the value and is equal for equal values. If every
    sample is a multiple of 2**-15 in [-1, 1), as mono 8- and 16-bit PCM is,
    the samples times 32768 (exact: a power of two) are int16 levels, and the
    level is the class: no sort. Otherwise one quicksort groups equal values
    and the class is the value's dense rank. int64 holds the keys for
    n < 3e9, and a negative one still gives key % n == i (NumPy's remainder).
    """
    samples = s.samples
    n = samples.size
    # The range comes first: 1e308 * 32768 overflows, and 1e30 has no int16 cast.
    pcm = samples.min() >= -1.0 and samples.max() < 1.0
    if pcm:
        scaled = samples * 32768.0
        levels = scaled.astype(np.int16)
        pcm = (levels == scaled).all()
    if pcm:
        key = levels.astype(np.int64)  # widened first: level * n overflows int16
    else:
        order = samples.argsort()
        ascending = samples[order]
        key = np.empty(n, dtype=np.int64)
        key[order[0]] = 0
        key[order[1:]] = np.cumsum(ascending[1:] != ascending[:-1])
    key *= n
    key += np.arange(n)
    return CanonicalSignal(samples=samples, key=key)
