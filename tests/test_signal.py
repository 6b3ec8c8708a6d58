import struct
import wave

import numpy as np
import pytest
from scipy.io import wavfile

from entropic.errors import SignalError
from entropic.signal import Signal, canonicalize, load_csv_signal, load_wav, subsample


def write_wav(path, frames, sampwidth=2, channels=1, rate=8000):
    fmt = {1: "b", 2: "h", 4: "i"}[sampwidth]
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        flat = [v for frame in frames for v in (frame if isinstance(frame, tuple) else (frame,))]
        wf.writeframes(struct.pack(f"<{len(flat)}{fmt}", *flat))


class TestSignal:
    def test_rejects_empty(self):
        with pytest.raises(SignalError):
            Signal(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(SignalError):
            Signal(np.array([1.0, np.nan]))

    def test_samples_read_only(self):
        s = Signal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.samples[0] = 5.0


class TestLoadWav:
    def test_16bit_mono_normalization(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_wav(path, [0, 16384, -32768])
        s = load_wav(path)
        assert np.allclose(s.samples, [0.0, 0.5, -1.0])
        assert s.sample_rate == 8000

    def test_stereo_averaged_per_frame(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_wav(path, [(1000, 3000)], channels=2)
        s = load_wav(path)
        assert np.allclose(s.samples, [2000 / 32768])

    def test_zero_length_audio(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, [])
        with pytest.raises(SignalError, match="zero-length"):
            load_wav(path)

    def test_float32_clipped(self, tmp_path):
        path = tmp_path / "f32.wav"
        wavfile.write(path, 8000, np.array([0.5, -1.5, 2.0], dtype=np.float32))
        s = load_wav(path)
        assert np.allclose(s.samples, [0.5, -1.0, 1.0])

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"not a RIFF file at all")
        with pytest.raises(SignalError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SignalError):
            load_wav(tmp_path / "nope.wav")


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.5\n-3.0\n")
        s = load_csv_signal(path)
        assert np.allclose(s.samples, [1.0, 2.5, -3.0])
        assert s.sample_rate == 0.0

    def test_non_numeric_line_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nabc\n")
        with pytest.raises(SignalError, match="line 2"):
            load_csv_signal(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n1.0\n\n2.0\n")
        assert np.allclose(load_csv_signal(path).samples, [1.0, 2.0])

    def test_only_blank_lines_is_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n\n")
        with pytest.raises(SignalError, match="empty"):
            load_csv_signal(path)


class TestSubsample:
    def test_round_half_up_indices(self):
        s = Signal(np.array([10.0, 20, 30, 40, 50, 60]))
        assert np.allclose(subsample(s, 3).samples, [10, 40, 60])

    def test_identity_at_full_length(self):
        s = Signal(np.arange(17, dtype=float))
        assert np.array_equal(subsample(s, 17).samples, s.samples)

    def test_paper_sized_run_keeps_endpoints(self):
        rng = np.random.default_rng(0)
        s = Signal(rng.normal(size=196997))
        out = subsample(s, 10000)
        assert len(out) == 10000
        assert out.samples[0] == s.samples[0]
        assert out.samples[-1] == s.samples[-1]

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        s = Signal(rng.normal(size=503))
        once = subsample(s, 97)
        twice = subsample(once, 97)
        assert np.array_equal(once.samples, twice.samples)

    def test_refuses_upsampling(self):
        s = Signal(np.array([1.0, 2.0]))
        with pytest.raises(SignalError):
            subsample(s, 3)

    def test_refuses_target_below_two(self):
        s = Signal(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SignalError):
            subsample(s, 1)


class TestCanonicalize:
    def test_ties_broken_by_index(self):
        c = canonicalize(Signal(np.array([1.0, 1.0, 2.0])))
        assert list(c.tie_rank) == [0, 1, 2]

    def test_value_order(self):
        c = canonicalize(Signal(np.array([3.0, 1.0, 2.0])))
        assert list(c.tie_rank) == [2, 0, 1]

    def test_increasing_gives_identity(self):
        c = canonicalize(Signal(np.array([1.0, 2.0, 5.0, 9.0])))
        assert list(c.tie_rank) == [0, 1, 2, 3]

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(2)
        inputs = [rng.permutation(rng.normal(size=50)) for _ in range(20)]
        inputs += [rng.integers(0, k, size=int(rng.integers(1, 300))).astype(float)
                   for k in (1, 2, 3, 5, 8) for _ in range(6)]  # tie-heavy; k=1 is all-equal
        inputs += [np.zeros(1), np.full(1000, -3.5), np.array([0.0, -0.0, 1.0, -0.0, 0.0])]
        for vals in inputs:
            c = canonicalize(Signal(vals))
            oracle = np.argsort(np.argsort(vals, kind="stable"))
            assert np.array_equal(c.tie_rank, oracle)

    def test_ranks_are_a_bijection(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 5, size=40).astype(float)
        c = canonicalize(Signal(vals))
        assert sorted(c.tie_rank) == list(range(40))

    def test_jitter_agrees_with_symbolic_order(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 4, size=60).astype(float)
        s = Signal(vals)
        symbolic = canonicalize(s)
        # A literal perturbation eps*(i+1)/n, far below the value spacing,
        # must give the same order as the symbolic (value, index) tie-break.
        n = vals.size
        eps = 1e-9 * float(vals.max() - vals.min())
        jittered = canonicalize(Signal(vals + eps * (np.arange(n) + 1.0) / n))
        assert np.array_equal(symbolic.tie_rank, jittered.tie_rank)
        assert not np.array_equal(jittered.samples, s.samples)
