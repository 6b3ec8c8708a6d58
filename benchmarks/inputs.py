"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the same
bytes. Inputs are written below a cache directory keyed by workload and seed,
so a repeated seed reuses them; older seeds of the same workload are evicted
so the cache holds at most one corpus on disk.
"""

from __future__ import annotations

import shutil
import wave
from pathlib import Path

import numpy as np

EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fearful", "disgust", "surprised")
N_ACTORS = 24
RATE = 48_000

# Per-emotion fundamental (Hz, male voice) and noise level relative to the tone.
_PITCH = {"neutral": 120, "calm": 110, "happy": 190, "sad": 100,
          "angry": 210, "fearful": 240, "disgust": 140, "surprised": 230}
_NOISE = {"neutral": 0.30, "calm": 0.25, "happy": 0.45, "sad": 0.20,
          "angry": 0.60, "fearful": 0.50, "disgust": 0.35, "surprised": 0.55}


def audio_layout() -> list[tuple[int, int, int, int]]:
    """The 60 (emotion code, intensity code, statement, repetition) cells per actor."""
    cells = []
    for code in range(1, 9):
        for intensity in ((1,) if code == 1 else (1, 2)):
            for statement in (1, 2):
                for repetition in (1, 2):
                    cells.append((code, intensity, statement, repetition))
    return cells


def _column_key(code: int, intensity: int, statement: int, repetition: int) -> str:
    return f"{EMOTIONS[code - 1]}-{('normal', 'strong')[intensity - 1]}-{statement}-{repetition}"


def _fresh_dir(cache: Path, workload: str, seed: int) -> tuple[Path, bool]:
    """Return the seed's directory and whether it is already complete."""
    target = cache / f"{workload}-{seed}"
    if (target / ".complete").exists():
        return target, True
    cache.mkdir(parents=True, exist_ok=True)
    for old in cache.glob(f"{workload}-*"):
        shutil.rmtree(old)
    target.mkdir()
    return target, False


def _write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(samples.astype("<i2").tobytes())


def corpus_wav(cache: Path, seed: int) -> Path:
    """1440 RAVDESS-named 16-bit mono WAVs, 24 actors x 60 recordings.

    Each recording is a two-harmonic tone under a half-sine envelope plus
    uniform noise; pitch and noise level depend on the emotion and intensity,
    pitch also on the actor's voice. Lengths are 3.2-3.8 s in 0.1 s steps.
    """
    root, done = _fresh_dir(cache, "corpus_wav", seed)
    if done:
        return root
    rng = np.random.default_rng([seed, 1])
    lengths = [RATE * d // 10 for d in range(32, 39)]
    envelopes = {n: np.sqrt(np.abs(np.sin(np.pi * np.arange(n) / n))).astype(np.float32) for n in lengths}
    t = np.arange(max(lengths) + RATE // 10, dtype=np.float32) / np.float32(RATE)
    for actor in range(1, N_ACTORS + 1):
        actor_dir = root / f"Actor_{actor:02d}"
        actor_dir.mkdir()
        voice = (1.0 if actor % 2 else 1.6) * rng.uniform(0.9, 1.1)
        tones = {}
        for code, intensity, statement, repetition in audio_layout():
            emotion = EMOTIONS[code - 1]
            if (code, intensity) not in tones:
                phase = np.float32(2 * np.pi * _PITCH[emotion] * voice * (1.15 if intensity == 2 else 1.0)) * t
                tones[code, intensity] = np.sin(phase) + np.float32(0.4) * np.sin(2 * phase)
            n = lengths[rng.integers(len(lengths))]
            start = rng.integers(RATE // 10)
            level = _NOISE[emotion] * rng.uniform(0.8, 1.2)
            noise = rng.random(n, dtype=np.float32) - np.float32(0.5)
            x = np.float32(9000.0) * (envelopes[n] * tones[code, intensity][start:start + n]
                                      + np.float32(2 * level) * noise)
            samples = np.clip(np.rint(x), -32768, 32767)
            name = f"03-01-{code:02d}-{intensity:02d}-{statement:02d}-{repetition:02d}-{actor:02d}.wav"
            _write_wav(actor_dir / name, samples)
    (root / ".complete").touch()
    return root


SIGNAL_SHAPES = ("alternating", "quantized", "random_walk", "white_noise")


def _signal(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "alternating":
        # The adversarial input: x[2k] = -2k, x[2k+1] = 1e9.
        x = np.full(n, 1e9)
        x[0::2] = -2.0 * np.arange((n + 1) // 2)
        return x
    if shape == "quantized":
        return np.round(rng.standard_normal(n).cumsum() / 4.0) + rng.integers(-2, 3, n)
    if shape == "random_walk":
        return rng.standard_normal(n).cumsum()
    return rng.standard_normal(n)


def signals_long(cache: Path, seed: int) -> Path:
    """CSV signals, one value per line: two of each shape at n = 1e5, one at n = 1e4."""
    root, done = _fresh_dir(cache, "signals_long", seed)
    if done:
        return root
    rng = np.random.default_rng([seed, 2])
    for shape in SIGNAL_SHAPES:
        for name, n in ((f"{shape}_long_a", 100_000), (f"{shape}_long_b", 100_000), (f"{shape}_short", 10_000)):
            x = _signal(shape, n, rng)
            (root / f"{name}.csv").write_text("\n".join(map(repr, x.tolist())) + "\n")
    (root / ".complete").touch()
    return root


TABLE_ACTORS = 24
HEAD_ACTORS = 12


def table_svm(cache: Path, seed: int) -> Path:
    """A weak-signal entropy table (24 actors x 60) and the same table cut to its first 12 actors.

    Emotion means are 0.04 apart while the within-class spread is 0.1, so
    classes overlap and some fits do not converge. The grid search runs on
    the whole table: its thousands of small fits take nearly the same time
    whatever the seed. Experiments 3 and 1, whose few large fits grow steeply
    in cost with the number of actors, run on the cut table.
    """
    root, done = _fresh_dir(cache, "table_svm", seed)
    if done:
        return root
    rng = np.random.default_rng([seed, 3])
    cells = audio_layout()
    lines = ["actor_id,sex," + ",".join(_column_key(*c) for c in cells)]
    for actor in range(1, TABLE_ACTORS + 1):
        actor_shift = rng.normal(0.0, 0.03)
        row = [8.0 + actor_shift + 0.04 * (code - 1) + rng.normal(0.0, 0.1) for code, *_ in cells]
        sex = "male" if actor % 2 else "female"
        lines.append(f"{actor},{sex}," + ",".join(repr(float(v)) for v in row))
    (root / "table.csv").write_text("\n".join(lines) + "\n")
    (root / "table_head.csv").write_text("\n".join(lines[:HEAD_ACTORS + 1]) + "\n")
    (root / ".complete").touch()
    return root
