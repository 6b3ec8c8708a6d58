import struct

import numpy as np
import pytest
from scipy.io import wavfile

from entropic.errors import SignalError
from entropic.signal import CanonicalSignal, Signal, canonicalize, load_csv_signal, load_wav, subsample


def _reference_normalize_int(frames, max_magnitude):
    frames = frames.astype(np.float64)
    if frames.ndim == 2:
        frames = frames.mean(axis=1)
    frames /= max_magnitude
    return frames


def reference_load_wav(path) -> Signal:
    """The scipy-based load_wav that the built-in WAV reader replaced, kept
    as it was: the reader must give the same samples, bit for bit."""
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
        samples = _reference_normalize_int(data, 32768.0)
    elif data.dtype == np.int32:
        samples = _reference_normalize_int(data, 2147483648.0)
    elif data.dtype in (np.float32, np.float64):
        frames = data.astype(np.float64)
        if frames.ndim == 2:
            frames = frames.mean(axis=1)
        samples = np.clip(frames, -1.0, 1.0)
    else:
        raise SignalError(f"unsupported WAV sample format {data.dtype} in {path}")

    return Signal(samples=samples)


_GUID_TAIL = {"<": bytes.fromhex("00001000800000aa00389b71"),
              ">": bytes.fromhex("00000010800000aa00389b71")}


def build_wav(path, frames, *, bits=None, big_endian=False, extensible=False, rf64=False,
              before=(), after=(), cut=0, rate=8000, fmt_fields=None):
    """Write a WAV file byte by byte.

    ``frames`` is (n, channels) in the sample dtype (uint8, int16, int32,
    float32, float64); with bits=24 it holds int32 values in [-2**23, 2**23).
    ``before``/``after`` are extra (id, body) chunks around the data chunk,
    ``cut`` drops that many bytes from the end of the file, and
    ``fmt_fields`` overrides (tag, channels, rate, byte rate, block align, bits).
    """
    end = ">" if big_endian else "<"
    n, channels = frames.shape
    if bits == 24:
        b = frames.astype(end + "i4").view(np.uint8).reshape(n, channels, 4)
        payload, width = (b[..., 1:] if big_endian else b[..., :3]).tobytes(), 3
    else:
        payload = frames.astype(frames.dtype.newbyteorder(end)).tobytes()
        width = frames.dtype.itemsize
    bits = bits or 8 * width
    tag = 3 if frames.dtype.kind == "f" else 1
    block = width * channels
    fields = fmt_fields or (tag, channels, rate, rate * block, block, bits)
    fmt = struct.pack(end + "HHIIHH", 0xFFFE if extensible else fields[0], *fields[1:])
    if extensible:
        fmt += struct.pack(end + "HHII", 22, bits, 0, fields[0]) + _GUID_TAIL[end]

    def chunk(cid, body, size=None):
        size = len(body) if size is None else size
        return cid + struct.pack(end + "I", size) + body + b"\0" * (len(body) % 2)

    data = chunk(b"data", payload, 0xFFFFFFFF if rf64 else None)
    body = b"".join(chunk(c, b) for c, b in before) + chunk(b"fmt ", fmt) + data
    body += b"".join(chunk(c, b) for c, b in after)
    if rf64:
        ds64 = chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(body), len(payload), n, 0))
        raw = b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + body
    else:
        raw = (b"RIFX" if big_endian else b"RIFF") + struct.pack(end + "I", 4 + len(body)) + b"WAVE" + body
    path.write_bytes(raw[:len(raw) - cut])
    return path


def sample_frames(kind, n, channels, seed=0):
    """Random frames of one sample kind, covering its full range and some ties."""
    rng = np.random.default_rng(seed)
    if kind == "u8":
        return rng.integers(0, 256, (n, channels)).astype(np.uint8)
    if kind == "i16":
        return rng.integers(-32768, 32768, (n, channels)).astype(np.int16)
    if kind == "i24":
        return rng.integers(-2**23, 2**23, (n, channels)).astype(np.int32)
    if kind == "i32":
        return rng.integers(-2**31, 2**31, (n, channels)).astype(np.int32)
    dtype = np.float32 if kind == "f32" else np.float64
    return (rng.uniform(-1.3, 1.3, (n, channels)) * rng.integers(0, 2, (n, 1))).astype(dtype)


KINDS = ("u8", "i16", "i24", "i32", "f32", "f64")


def stable_sort_oracle(vals):
    """The (value, index) order, from one stable sort."""
    return np.argsort(vals, kind="stable")


def key_order(c):
    """The order of c's samples by key; the keys must be distinct int64 values."""
    assert c.key.dtype == np.int64
    assert np.unique(c.key).size == c.key.size
    return np.argsort(c.key, kind="stable")


def assert_same_signal(got: Signal, want: Signal):
    assert got.samples.tobytes() == want.samples.tobytes()


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

    def test_caller_array_stays_writable_and_apart(self):
        a = np.zeros(5)
        s = Signal(a)
        assert a.flags.writeable
        a[0] = 7.0
        assert s.samples[0] == 0.0


class TestLoadWav:
    def test_16bit_mono_normalization(self, tmp_path):
        path = tmp_path / "mono.wav"
        build_wav(path, np.array([[0], [16384], [-32768]], dtype=np.int16))
        s = load_wav(path)
        assert np.allclose(s.samples, [0.0, 0.5, -1.0])

    def test_stereo_averaged_per_frame(self, tmp_path):
        path = tmp_path / "stereo.wav"
        build_wav(path, np.array([[1000, 3000]], dtype=np.int16))
        s = load_wav(path)
        assert np.allclose(s.samples, [2000 / 32768])

    def test_zero_length_audio(self, tmp_path):
        path = tmp_path / "empty.wav"
        build_wav(path, np.zeros((0, 1), dtype=np.int16))
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


class TestWavDecoder:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("big_endian", [False, True])
    @pytest.mark.parametrize("extensible", [False, True])
    def test_same_samples_as_reference(self, tmp_path, kind, channels, big_endian, extensible):
        frames = sample_frames(kind, 101, channels, seed=channels)
        bits = 24 if kind == "i24" else None
        options = dict(bits=bits, extensible=extensible)
        path = build_wav(tmp_path / "x.wav", frames, big_endian=big_endian, **options)
        # The reference rejects big-endian samples wider than a byte, so a
        # RIFX file is held to the reference on its RIFF twin.
        twin = build_wav(tmp_path / "twin.wav", frames, **options)
        want = reference_load_wav(twin)
        assert_same_signal(load_wav(path), want)
        for target_len in (2, 37, 100):
            assert_same_signal(load_wav(path, target_len), subsample(want, target_len))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", ["list_chunks", "odd_pad", "truncated", "rf64"])
    def test_chunk_layouts_match_reference(self, tmp_path, kind, layout):
        bits = 24 if kind == "i24" else None
        frames = sample_frames(kind, 99, 2 if layout == "truncated" else 1, seed=7)
        width = 3 if bits else frames.dtype.itemsize
        options = {
            "list_chunks": dict(before=[(b"LIST", b"INFOISFT\x06\0\0\0abcdef")],
                                after=[(b"LIST", b"INFO")]),
            "odd_pad": dict(before=[(b"JUNK", b"x" * 5), (b"bext", b"abc")], after=[(b"LIST", b"odd")]),
            "truncated": dict(cut=2 * width * 10),  # 10 whole stereo frames missing
            "rf64": dict(rf64=True),
        }[layout]
        path = build_wav(tmp_path / "x.wav", frames, bits=bits, **options)
        want = reference_load_wav(path)
        assert len(want) == (89 if layout == "truncated" else 99)
        assert_same_signal(load_wav(path), want)
        assert_same_signal(load_wav(path, 50), subsample(want, 50))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_truncated_mid_sample(self, tmp_path):
        path = build_wav(tmp_path / "x.wav", sample_frames("i16", 40, 1), cut=3)
        want = reference_load_wav(path)
        assert len(want) == 38
        assert_same_signal(load_wav(path), want)

    @pytest.mark.parametrize("kind", ["u8", "i16", "i24", "f32"])
    def test_kept_frames_equal_subsample(self, tmp_path, kind):
        n = 257
        for channels in (1, 2):
            frames = sample_frames(kind, n, channels, seed=3)
            path = build_wav(tmp_path / f"{channels}.wav", frames, bits=24 if kind == "i24" else None)
            full = load_wav(path)
            for target_len in (2, 3, n - 1, n, n + 1):
                kept = load_wav(path, target_len)
                want = subsample(full, min(target_len, n))
                assert_same_signal(kept, want)

    @pytest.mark.parametrize("target_len", [None, 2])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_nan_in_any_frame_fails(self, tmp_path, target_len, channels):
        frames = sample_frames("f32", 9, channels)
        frames[4, channels - 1] = np.nan  # a frame that target_len 2 does not keep
        path = build_wav(tmp_path / "nan.wav", frames)
        with pytest.raises(SignalError, match="NaN"):
            load_wav(path, target_len)

    def test_infinity_is_clipped_as_before(self, tmp_path):
        frames = np.array([[np.inf], [0.25], [-np.inf]], dtype=np.float32)
        path = build_wav(tmp_path / "inf.wav", frames)
        assert_same_signal(load_wav(path), reference_load_wav(path))

    @pytest.mark.parametrize("mutation", [
        "empty_file", "bad_magic", "not_wave", "no_fmt", "no_data", "short_fmt", "cut_in_fmt",
        "adpcm", "unknown_guid", "bad_byte_rate", "zero_channels", "odd_block_align",
        "float16", "pcm_64bit", "rf64_without_ds64", "zero_frames",
    ])
    def test_malformed_header_is_a_signal_error(self, tmp_path, mutation):
        frames = sample_frames("i16", 8, 1)
        path = tmp_path / "bad.wav"
        good = build_wav(tmp_path / "good.wav", frames).read_bytes()
        fmt_at = good.index(b"fmt ")
        if mutation == "empty_file":
            path.write_bytes(b"")
        elif mutation == "bad_magic":
            path.write_bytes(b"RIFS" + good[4:])
        elif mutation == "not_wave":
            path.write_bytes(good[:8] + b"AVI " + good[12:])
        elif mutation == "no_fmt":
            path.write_bytes(good[:fmt_at] + b"fmx " + good[fmt_at + 4:])
        elif mutation == "no_data":
            path.write_bytes(good.replace(b"data", b"date"))
        elif mutation == "short_fmt":
            build_wav(path, frames, before=[(b"fmt ", b"\1\0\1\0")])
        elif mutation == "cut_in_fmt":
            path.write_bytes(good[:fmt_at + 14])
        elif mutation == "adpcm":
            build_wav(path, frames, fmt_fields=(2, 1, 8000, 16000, 2, 16))
        elif mutation == "unknown_guid":
            raw = build_wav(path, frames, extensible=True).read_bytes()
            path.write_bytes(raw.replace(_GUID_TAIL["<"], b"\x01" * 12))
        elif mutation == "bad_byte_rate":
            build_wav(path, frames, fmt_fields=(1, 1, 8000, 8001, 2, 16))
        elif mutation == "zero_channels":
            build_wav(path, frames, fmt_fields=(1, 0, 8000, 16000, 2, 16))
        elif mutation == "odd_block_align":
            build_wav(path, sample_frames("i16", 8, 2), fmt_fields=(1, 2, 8000, 40000, 5, 16))
        elif mutation == "float16":
            build_wav(path, frames, fmt_fields=(3, 1, 8000, 16000, 2, 16))
        elif mutation == "pcm_64bit":
            build_wav(path, frames.astype(np.int64))
        elif mutation == "rf64_without_ds64":
            raw = build_wav(path, frames, rf64=True).read_bytes()
            path.write_bytes(raw.replace(b"ds64", b"JUNK"))
        elif mutation == "zero_frames":
            build_wav(path, frames[:0])
        with pytest.raises(SignalError):
            load_wav(path)


def reference_load_csv_signal(path) -> Signal:
    """The line-by-line load_csv_signal that the one-pass parser replaced,
    kept as it was: the same samples, bit for bit, and the same errors."""
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
    return Signal(samples=np.array(values))


GOOD_CSV_TOKENS = ["1_000", "-0", "-0.0", "+.5", "5.", "1e-5", "-2E+3", "1e-320", "1.7976931348623157e308",
                   "\u0661\u0662", "", "  ", "\t", "\x0c", "\u2028", "\xa0"]
BAD_CSV_TOKENS = ["abc", "0x10", "1__0", "1,5", "inf", "-Infinity", "nan", "1e999", "1\x0c2", "1\x852"]


def random_csv_text(rng, bad: bool) -> str:
    """Lines of random floats and the special tokens above, padded with blanks
    and joined by a random mix of line endings; one bad token if asked."""
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        if rng.uniform() < 0.4:
            token = GOOD_CSV_TOKENS[rng.integers(len(GOOD_CSV_TOKENS))]
        else:
            token = repr(float(rng.normal(0.0, 10.0 ** rng.integers(-5, 6))))
        pad = ["", " ", "\t", "  \t "]
        lines.append(pad[rng.integers(4)] + token + pad[rng.integers(4)])
    if bad:
        lines.insert(int(rng.integers(len(lines) + 1)), BAD_CSV_TOKENS[rng.integers(len(BAD_CSV_TOKENS))])
    endings = ["\n", "\r\n", "\r"]
    return "".join(line + endings[rng.integers(3)] for line in lines)


def load_or_error(loader, path):
    try:
        return loader(path).samples.view(np.int64).tolist()
    except SignalError as exc:
        return str(exc)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.5\n-3.0\n")
        s = load_csv_signal(path)
        assert np.allclose(s.samples, [1.0, 2.5, -3.0])

    def test_non_numeric_line_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\nabc\n")
        with pytest.raises(SignalError, match="line 2"):
            load_csv_signal(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n1.0\n\n2.0\n")
        assert np.allclose(load_csv_signal(path).samples, [1.0, 2.0])

    def test_undecodable_file_is_a_signal_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n")
        with pytest.raises(SignalError, match="cannot read signal file .*utf-8"):
            load_csv_signal(path)

    def test_only_blank_lines_is_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("\n\n")
        with pytest.raises(SignalError, match="empty"):
            load_csv_signal(path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0\n5.0\n2.0\n")  # as a "CSV UTF-8" export starts
        assert load_csv_signal(path).samples.tolist() == [1.0, 5.0, 2.0]
        path.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(SignalError) as got:
            load_csv_signal(path)
        assert str(got.value) == f"empty file: {path}"


    @pytest.mark.parametrize("bad", [False, True])
    def test_same_samples_and_errors_as_reference(self, tmp_path, bad):
        rng = np.random.default_rng([bad, 7])
        for case in range(300):
            path = tmp_path / f"s{case}.csv"
            path.write_bytes(random_csv_text(rng, bad).encode("utf-8"))
            want = load_or_error(reference_load_csv_signal, path)
            assert load_or_error(load_csv_signal, path) == want
            assert isinstance(want, str) == bad or want == f"empty file: {path}"

    @pytest.mark.parametrize("text,message", [
        ("1\n\n x \n2\n", "non-numeric value at line 3: 'x'"),
        ("1\r\n2\r\nnan\r\nabc\r\n", "non-finite value at line 3"),
        ("1\r2\r\n\n1e999\n", "non-finite value at line 4"),
        ("1\x0c2\n", "non-numeric value at line 1: '1\\x0c2'"),
        ("1\n2\u20283\n", "non-numeric value at line 2: '2\\u20283'"),
    ])
    def test_error_names_the_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(SignalError) as got:
            load_csv_signal(path)
        assert str(got.value) == f"{path}: {message}"
        assert load_or_error(reference_load_csv_signal, path) == str(got.value)


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

    def test_one_sample_signal_is_kept_whole(self):
        s = Signal(np.array([0.5]))
        assert subsample(s, 1) is s


class TestCanonicalize:
    def test_caller_arrays_stay_writable_and_apart(self):
        samples, key = np.array([2.0, 1.0]), np.array([2, 1])
        c = CanonicalSignal(samples=samples, key=key)
        assert samples.flags.writeable and key.flags.writeable
        samples[0], key[0] = 9.0, 9
        assert (c.samples[0], c.key[0]) == (2.0, 2)
        with pytest.raises(ValueError):
            c.key[0] = 9

    def test_ties_broken_by_index(self):
        c = canonicalize(Signal(np.array([1.0, 1.0, 2.0])))
        assert list(key_order(c)) == [0, 1, 2]

    def test_value_order(self):
        c = canonicalize(Signal(np.array([3.0, 1.0, 2.0])))
        assert list(key_order(c)) == [1, 2, 0]

    def test_increasing_gives_identity(self):
        c = canonicalize(Signal(np.array([1.0, 2.0, 5.0, 9.0])))
        assert list(key_order(c)) == [0, 1, 2, 3]

    def test_matches_stable_sort_oracle(self):
        rng = np.random.default_rng(2)
        inputs = [rng.permutation(rng.normal(size=50)) for _ in range(20)]
        inputs += [rng.integers(0, k, size=int(rng.integers(1, 300))).astype(float)
                   for k in (1, 2, 3, 5, 8) for _ in range(6)]  # tie-heavy; k=1 is all-equal
        inputs += [np.zeros(1), np.full(1000, -3.5), np.array([0.0, -0.0, 1.0, -0.0, 0.0])]
        for vals in inputs:
            assert np.array_equal(key_order(canonicalize(Signal(vals))), stable_sort_oracle(vals))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_levels_rank_like_the_samples(self, tmp_path, dtype):
        # Mono 8- and 16-bit PCM is keyed by its int16 level. Stereo frames
        # average to multiples of 2**-16, and an odd one means the float path.
        rng = np.random.default_rng(5)
        info = np.iinfo(dtype)
        for channels in (1, 2):
            for span in (1, 2, 3, 7, 100, None):  # tie-heavy to full range
                low = info.min if span is None else int(rng.integers(info.min, info.max - span))
                high = info.max + 1 if span is None else low + span
                frames = rng.integers(low, high, (int(rng.integers(2, 3000)), channels)).astype(dtype)
                s = load_wav(build_wav(tmp_path / "x.wav", frames))
                for kept in (s, subsample(s, max(2, len(s) // 3))):
                    assert np.array_equal(key_order(canonicalize(kept)), stable_sort_oracle(kept.samples))

    @pytest.mark.parametrize("samples", [
        [0.0, 1.0, -1.0, 0.0],  # 1.0 is 32768, one past int16
        [0.5, 40000 / 32768, 0.0],  # an int16 cast wraps 40000 to -25536
        [0.5, -32769 / 32768, 0.0],
        [0.0, -0.0, 0.5, -0.0, 0.0, -1.0],  # -0.0 ties with 0.0
        [2.0**-16, 0.0, 2.0**-15, -(2.0**-16)],  # not multiples of 2**-15
        [1e308, 0.5, 0.0],  # scaling this would overflow
        [-1e30, 0.5, 0.0],  # no int16 cast
        [-1.0, 32767 / 32768, -1.0, 0.0],  # both ends of int16
    ])
    def test_edges_of_the_int16_key(self, samples):
        vals = np.array(samples)
        assert np.array_equal(key_order(canonicalize(Signal(vals))), stable_sort_oracle(vals))

    def test_keys_are_distinct_int64(self):
        # Tied floats, and tied int16 levels long enough that class * n
        # passes 2**31: the barcode reads sample i at key % n.
        rng = np.random.default_rng(3)
        for vals in (rng.integers(0, 5, size=40).astype(float),
                     rng.integers(-32768, 32768, size=70000) / 32768.0):
            c = canonicalize(Signal(vals))
            assert np.array_equal(key_order(c), stable_sort_oracle(vals))
            assert np.array_equal(c.key % vals.size, np.arange(vals.size))

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
        assert np.array_equal(key_order(symbolic), key_order(jittered))
        assert not np.array_equal(jittered.samples, s.samples)
