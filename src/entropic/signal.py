"""Signal ingestion and canonicalization.

Loads 1-D signals from WAV or CSV files, subsamples them to a common length
and breaks value ties deterministically so that every sample gets a unique
height, as required by the sublevel-set filtration downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SignalError

DEFAULT_TARGET_LEN = 10000


@dataclass(frozen=True)
class Signal:
    """An ordered sequence of finite real amplitudes.

    ``sample_rate`` is samples/second; 0 is allowed for rate-less CSV input.
    Audio loaders normalize amplitudes to [-1, 1].
    """

    samples: np.ndarray
    sample_rate: float = 0.0
    source_id: str = ""

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
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

    ``tie_rank[i]`` is the position of sample i when samples are ordered by
    (value, index); ranks form a bijection onto 0..n-1, so equal amplitudes
    are distinguished by their index (symbolic perturbation).
    """

    samples: np.ndarray
    tie_rank: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("samples", "tie_rank"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.samples.size


def _normalize_int(frames: np.ndarray, max_magnitude: float) -> np.ndarray:
    # Multi-channel input is averaged per frame before renormalizing, so a
    # stereo frame (1000, 3000) at 16 bit becomes 2000/32768.
    frames = frames.astype(np.float64)
    if frames.ndim == 2:
        frames = frames.mean(axis=1)
    return frames / max_magnitude


def load_wav(path) -> Signal:
    """Load a PCM or IEEE-float WAV file as a mono Signal in [-1, 1]."""
    # Imported here: scipy.io pulls in scipy.sparse and the MATLAB readers,
    # about 0.25 s that commands reading no WAV should not pay.
    from scipy.io import wavfile

    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise SignalError(f"cannot read WAV file: {path}")
    except Exception as exc:  # scipy raises ValueError for compressed WAV
        raise SignalError(f"unsupported or corrupt WAV file {path}: {exc}")
    if data.size == 0:
        raise SignalError(f"zero-length audio: {path}")

    if data.dtype == np.uint8:  # 8-bit WAV is unsigned
        frames = data.astype(np.float64)
        if frames.ndim == 2:
            frames = frames.mean(axis=1)
        samples = (frames - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = _normalize_int(data, 32768.0)
    elif data.dtype == np.int32:
        # scipy widens 24-bit PCM into int32, so one divisor covers both.
        samples = _normalize_int(data, 2147483648.0)
    elif data.dtype in (np.float32, np.float64):
        frames = data.astype(np.float64)
        if frames.ndim == 2:
            frames = frames.mean(axis=1)
        samples = np.clip(frames, -1.0, 1.0)
    else:
        raise SignalError(f"unsupported WAV sample format {data.dtype} in {path}")

    return Signal(samples=samples, sample_rate=float(rate), source_id=str(path))


def load_csv_signal(path) -> Signal:
    """Load a signal from a text file with one decimal value per line."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise SignalError(f"{path}: non-numeric value at line {lineno}: {text!r}")
                if not np.isfinite(value):
                    raise SignalError(f"{path}: non-finite value at line {lineno}")
                values.append(value)
    except OSError as exc:
        raise SignalError(f"cannot read signal file {path}: {exc}")
    if not values:
        raise SignalError(f"empty file: {path}")
    return Signal(samples=np.array(values), sample_rate=0.0, source_id=str(path))


def subsample(s: Signal, target_len: int) -> Signal:
    """Pick ``target_len`` evenly spaced samples, keeping the endpoints.

    Indices are round_half_up(k*(n-1)/(target_len-1)) for k = 0..target_len-1,
    which preserves the first and last sample and is deterministic.
    Upsampling is refused.
    """
    n = len(s)
    if target_len < 2:
        raise SignalError("target_len must be at least 2")
    if target_len > n:
        raise SignalError(f"cannot upsample: target_len {target_len} > signal length {n}")
    k = np.arange(target_len, dtype=np.float64)
    idx = np.floor(k * (n - 1) / (target_len - 1) + 0.5).astype(np.intp)
    return Signal(samples=s.samples[idx], sample_rate=s.sample_rate, source_id=s.source_id)


def canonicalize(s: Signal) -> CanonicalSignal:
    """Assign each sample a unique rank, ordered by (value, index)."""
    samples = s.samples
    order = np.argsort(samples, kind="stable")
    rank = np.empty(samples.size, dtype=np.intp)
    rank[order] = np.arange(samples.size)
    return CanonicalSignal(samples=samples, tie_rank=rank)
