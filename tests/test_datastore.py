import dataclasses
import json
import re
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from handemg import cli, datastore as ds
from handemg.emg_dsp import EmgWindow
from handemg.errors import DataFormatError, InvalidInputError
from handemg.occlusion import PinholeCamera


def test_gesture_vocabulary():
    assert len(ds.GESTURE_VOCABULARY) == 60
    assert len(set(ds.GESTURE_VOCABULARY)) == 60
    for name in ("Rest", "ASL1", "ASL9", "Prayer", "raw", "nocontact_free",
                 "FingerPullLeft", "PinchWring"):
        assert name in ds.GESTURE_VOCABULARY


def test_synth_episode_reproducible():
    a = ds.synth_episode(seed=4, duration_s=5.0)
    b = ds.synth_episode(seed=4, duration_s=5.0)
    assert np.array_equal(a.emg.samples, b.emg.samples)
    assert np.array_equal(a.pose_left, b.pose_left)
    c = ds.synth_episode(seed=5, duration_s=5.0)
    assert not np.array_equal(a.emg.samples, c.emg.samples)


def test_synth_episode_structure():
    ep = ds.synth_episode(seed=0, duration_s=6.0, gesture_label="Typing",
                          participant_id=7)
    assert ep.gesture_label == "Typing"
    assert ep.participant_id == 7
    assert ep.emg.n_samples == 12000
    assert len(ep.pose_timestamps_ms) == int(6.0 * ds.POSE_RATE_HZ)
    assert np.all(np.diff(ep.emg_timestamps_ms) > 0)
    # synthetic EMG carries a 50 Hz mains component that filtering removes
    from handemg.emg_dsp import filter_emg
    spec_raw = np.abs(np.fft.rfft(ep.emg.samples[:, 0]))
    spec_f = np.abs(np.fft.rfft(filter_emg(ep.emg).samples[:, 0]))
    freqs = np.fft.rfftfreq(ep.emg.n_samples, 1.0 / 2000.0)
    band = np.abs(freqs - 50.0) < 0.5
    # >26 dB drop at the line; the floor is truncation leakage, not the tone
    assert spec_f[band].max() < 0.05 * spec_raw[band].max()


def test_blocks_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(7, 3)), "b": rng.integers(0, 9, size=11),
              "c": rng.normal(size=(2, 2, 2))}
    path = tmp_path / "blob.egl"
    ds.write_blocks(path, {"type": "misc", "note": "x"}, arrays)
    meta, back = ds.read_blocks(path)
    assert meta["note"] == "x"
    for name, arr in arrays.items():
        assert np.array_equal(back[name], arr)
    assert back["b"].dtype == np.dtype("<i8")


def _egl1_image(meta, arrays):
    """The EGL1 bytes of docs/FORMAT.md, built block by block."""
    blocks, payload = [], b""
    for name, arr in arrays.items():
        code = "<i8" if arr.dtype.kind in "iu" else "<f8"
        raw = arr.astype(code).tobytes()
        blocks.append({"name": name, "kind": "array", "dtype": code,
                       "shape": list(arr.shape), "offset": len(payload),
                       "crc32": zlib.crc32(raw)})
        payload += raw
    manifest = json.dumps({"format": "EGL1", "version": 1, "meta": meta,
                           "blocks": blocks}).encode()
    return b"EGL1" + struct.pack("<I", len(manifest)) + manifest + payload


def test_write_blocks_matches_hand_built_image(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"strided": rng.normal(size=(6, 8))[:, ::3],
              "transposed": rng.normal(size=(4, 5)).T,
              "big_endian": rng.normal(size=(3, 2)).astype(">f8"),
              "int32": rng.integers(-9, 9, size=(2, 3)).astype(np.int32),
              "bool": rng.normal(size=7) > 0,
              "empty": np.zeros((0, 3))}
    assert not arrays["strided"].flags.c_contiguous
    path = tmp_path / "blob.egl"
    ds.write_blocks(path, {"type": "misc"}, arrays)
    assert path.read_bytes() == _egl1_image({"type": "misc"}, arrays)
    _, back = ds.read_blocks(path)
    for name, arr in arrays.items():
        assert np.array_equal(back[name], arr)
        assert not back[name].flags.writeable


def test_episode_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(10):
        ep = ds.synth_episode(seed=i, duration_s=4.0,
                              gesture_label=ds.GESTURE_VOCABULARY[i])
        if i % 2:
            m_t = ep.pose_timestamps_ms[:30]
            ep = dataclasses.replace(
                ep, markers=rng.normal(size=(30, 21, 3)),
                marker_timestamps_ms=m_t)
        path = tmp_path / f"ep{i}.egl"
        ds.write_episode(ep, path)
        back = ds.read_episode(path)
        assert back.participant_id == ep.participant_id
        assert back.gesture_label == ep.gesture_label
        assert np.array_equal(back.emg.samples, ep.emg.samples)
        assert np.array_equal(back.pose_left, ep.pose_left)
        assert np.array_equal(back.pose_right, ep.pose_right)
        if ep.markers is None:
            assert back.markers is None
        else:
            assert np.array_equal(back.markers, ep.markers)


def test_corrupt_files_raise(tmp_path):
    ep = ds.synth_episode(seed=0, duration_s=4.0)
    path = tmp_path / "ep.egl"
    ds.write_episode(ep, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.egl"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(DataFormatError) as err:
        ds.read_blocks(bad)
    assert err.value.kind == "bad-magic"

    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataFormatError) as err:
        ds.read_blocks(bad)
    assert err.value.kind == "truncated"

    flipped = bytearray(raw)
    flipped[-9] ^= 0xFF   # corrupt payload without touching the manifest
    bad.write_bytes(bytes(flipped))
    with pytest.raises(DataFormatError) as err:
        ds.read_blocks(bad)
    assert err.value.kind == "checksum"

    (manifest_len,) = struct.unpack("<I", raw[4:8])
    garbled = raw[:8] + b"{" * manifest_len + raw[8 + manifest_len:]
    bad.write_bytes(garbled)
    with pytest.raises(DataFormatError) as err:
        ds.read_blocks(bad)
    assert err.value.kind == "bad-manifest"

    # shapes numpy cannot make, with the sizes and checksums of their payloads
    payload = np.arange(1.0).tobytes()
    for shape, data in (([1] * 65, payload), ([0, 10**20], b"")):
        manifest = json.dumps({"format": "EGL1", "version": 1, "meta": {}, "blocks": [
            {"name": "x", "kind": "array", "dtype": "<f8", "shape": shape, "offset": 0,
             "crc32": zlib.crc32(data)}]}).encode()
        bad.write_bytes(b"EGL1" + struct.pack("<I", len(manifest)) + manifest + data)
        with pytest.raises(DataFormatError) as err:
            ds.read_blocks(bad)
        assert err.value.kind == "bad-manifest"


def test_unknown_block_kind_skipped(tmp_path):
    import json
    import zlib
    payload = np.arange(4.0).tobytes()
    manifest = json.dumps({"format": "EGL1", "version": 1, "meta": {},
                           "blocks": [
        {"name": "x", "kind": "array", "dtype": "<f8", "shape": [4],
         "offset": 0, "crc32": zlib.crc32(payload)},
        {"name": "y", "kind": "sparse-coo", "dtype": "<f8", "shape": [4],
         "offset": 0, "crc32": zlib.crc32(payload)}]}).encode()
    path = tmp_path / "mixed.egl"
    path.write_bytes(b"EGL1" + struct.pack("<I", len(manifest)) + manifest
                     + payload)
    with pytest.warns(UserWarning):
        _, arrays = ds.read_blocks(path)
    assert "x" in arrays and "y" not in arrays


def test_extract_windows_layout():
    ep = ds.synth_episode(seed=2, duration_s=8.0)   # 16000 samples
    windows = ds.extract_windows(ep)
    assert len(windows) == 2
    assert [w.offset for w in windows] == [0, 7790]
    w = windows[0]
    assert w.emg.samples.shape == (7790, 16)
    assert w.pose_frames_left.shape == (146, 22)
    # feature frame timestamps sit at the receptive-field centers
    idx = ds.feature_frame_indices(7790)
    assert np.array_equal(w.frame_timestamps_ms, ep.emg_timestamps_ms[idx])
    assert idx[0] == 255 and idx[1] - idx[0] == 50


def _windows_per_hand(episode, length):
    """extract_windows by one resample per hand and per target set."""
    idx = ds.feature_frame_indices(length)
    pose_t = episode.pose_timestamps_ms
    out = []
    for offset in range(0, episode.emg.n_samples - length + 1, length):
        times = episode.emg_timestamps_ms[offset + idx]
        out.append((times,
                    ds.resample_to_timeline(pose_t, episode.pose_left, times),
                    ds.resample_to_timeline(pose_t, episode.pose_right, times)))
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_extract_windows_match_per_hand_resampling(seed):
    ep = ds.synth_episode(seed=seed, duration_s=6.0 + seed)
    windows = ds.extract_windows(ep)
    expect = _windows_per_hand(ep, ds.WINDOW_SAMPLES)
    assert len(windows) == len(expect) > 0
    for w, (times, left, right) in zip(windows, expect):
        assert np.array_equal(w.frame_timestamps_ms, times)
        assert np.array_equal(w.pose_frames_left, left)
        assert np.array_equal(w.pose_frames_right, right)


def test_extract_windows_too_short_warns():
    ep = ds.synth_episode(seed=3, duration_s=4.0)
    ep = dataclasses.replace(
        ep, emg=dataclasses.replace(ep.emg, samples=ep.emg.samples[:4000]),
        emg_timestamps_ms=ep.emg_timestamps_ms[:4000])
    with pytest.warns(UserWarning):
        assert ds.extract_windows(ep) == []


@pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan, 3.99])
def test_synth_duration_must_be_finite_and_at_least_4_s(duration):
    with pytest.raises(InvalidInputError, match="finite number of at least 4 s"):
        ds.synth_episode(seed=0, duration_s=duration)


def test_resample_extrapolation_rejected():
    t = np.arange(10.0)
    v = np.arange(10.0)[:, None]
    out = ds.resample_to_timeline(t, v, np.array([2.5, 7.5]))
    assert np.abs(out.ravel() - [2.5, 7.5]).max() < 1e-12
    with pytest.raises(InvalidInputError):
        ds.resample_to_timeline(t, v, np.array([-0.5]))
    with pytest.raises(InvalidInputError):
        ds.resample_to_timeline(t, v, np.array([9.5]))


def test_generate_splits_full_roster():
    users = list(range(41))
    gestures = list(ds.GESTURE_VOCABULARY)
    split = ds.generate_splits(users, gestures, seed=0)
    assert len(split.held_out_gestures) == 10
    assert len(split.held_out_users) == 6
    assert set(split.val_gestures) | set(split.test_gestures) == \
        set(split.held_out_gestures)
    assert not set(split.val_users) & set(split.test_users)
    n_train = sum(split.tag(u, g) == "train" for u in users for g in gestures)
    assert n_train == (41 - 6) * (60 - 10)
    # no held-out user or gesture ever appears in train
    for u in users:
        for g in gestures:
            tag = split.tag(u, g)
            if tag == "train":
                assert u not in split.held_out_users
                assert g not in split.held_out_gestures


def test_generate_splits_deterministic_and_seed_sensitive():
    users, gestures = list(range(12)), list(ds.GESTURE_VOCABULARY[:20])
    a = ds.generate_splits(users, gestures, seed=3)
    b = ds.generate_splits(users, gestures, seed=3)
    assert a == b
    c = ds.generate_splits(users, gestures, seed=4)
    assert a.held_out_gestures != c.held_out_gestures or \
        a.held_out_users != c.held_out_users


def test_generate_splits_minimum_rosters():
    with pytest.raises(InvalidInputError):
        ds.generate_splits(list(range(6)), list(ds.GESTURE_VOCABULARY), seed=0)
    with pytest.raises(InvalidInputError):
        ds.generate_splits(list(range(10)), list(ds.GESTURE_VOCABULARY[:10]),
                           seed=0)
    small = ds.generate_splits(list(range(7)), list(ds.GESTURE_VOCABULARY[:11]),
                               seed=0)
    assert len(small.held_out_users) >= 1
    assert len(small.held_out_gestures) >= 1
    assert len(small.val_users) >= 1 and len(small.val_gestures) >= 1


def test_episode_validation():
    ep = ds.synth_episode(seed=0, duration_s=4.0)
    with pytest.raises(InvalidInputError):
        dataclasses.replace(ep, gesture_label="NotAGesture")
    bad_t = ep.emg_timestamps_ms.copy()
    bad_t[5] = bad_t[4]
    with pytest.raises(InvalidInputError):
        dataclasses.replace(ep, emg_timestamps_ms=bad_t)
    with pytest.raises(InvalidInputError):
        dataclasses.replace(ep, pose_left=ep.pose_left[:, :21])


def _calibrated_episode_file(path, resolution=(64, 48), fx=500.0):
    """An episode file whose calibration meta and block are written as given."""
    camera = PinholeCamera(intrinsics=[[500.0, 0, 32], [0, 500.0, 24], [0, 0, 1]],
                           rotation=np.eye(3), translation=np.zeros(3),
                           width=64, height=48)
    ds.write_episode(dataclasses.replace(ds.synth_episode(seed=0, duration_s=4.0),
                                         calibration=camera), path)
    meta, arrays = ds.read_blocks(path)
    arrays = {name: np.array(arr) for name, arr in arrays.items()}
    arrays["calibration"][0] = fx
    ds.write_blocks(path, {**meta, "calibration_resolution": list(resolution)}, arrays)
    return path


def test_calibration_roundtrip(tmp_path):
    back = ds.read_episode(_calibrated_episode_file(tmp_path / "ep.egl"))
    assert (back.calibration.width, back.calibration.height) == (64, 48)
    assert back.calibration.intrinsics[0, 0] == 500.0


@pytest.mark.parametrize("edit", [{"resolution": (64.7, 48.9)}, {"resolution": (64,)},
                                  {"fx": np.nan}],
                         ids=["resolution-float", "resolution-one-value", "fx-nan"])
def test_bad_calibration_is_bad_manifest(capsys, tmp_path, edit):
    path = _calibrated_episode_file(tmp_path / "ep.egl", **edit)
    with pytest.raises(DataFormatError) as err:
        ds.read_episode(path)
    assert err.value.kind == "bad-manifest"
    code = cli.run(["featurize", str(path), "--out", str(tmp_path / "f.egl")])
    err = capsys.readouterr().err
    assert code == 2 and err.splitlines()[-1].startswith("error: bad-manifest:")


def _invalid_pose_left(meta, arrays):
    arrays["pose_left"] = arrays["pose_left"][:, :21]


def _unknown_gesture(meta, arrays):
    meta["gesture_label"] = "Nope"


def _meta_field(key, value):
    def edit(meta, arrays):
        meta[key] = value
    return edit


@pytest.mark.parametrize("edit", [_invalid_pose_left, _unknown_gesture,
                                  _meta_field("sample_rate", float("nan")),
                                  _meta_field("sample_rate", float("inf")),
                                  _meta_field("sample_rate", True),
                                  _meta_field("sample_rate", "2000"),
                                  _meta_field("participant_id", 1.5),
                                  _meta_field("participant_id", True)],
                         ids=["pose_left-21-columns", "gesture-Nope", "sample_rate-nan",
                              "sample_rate-inf", "sample_rate-bool", "sample_rate-string",
                              "participant_id-float",
                              "participant_id-bool"])
def test_invalid_episode_is_bad_manifest(capsys, tmp_path, edit):
    """A valid EGL1 file whose blocks and meta do not form a valid Episode."""
    path = tmp_path / "ep.egl"
    ds.write_episode(ds.synth_episode(seed=0, duration_s=4.0), path)
    meta, arrays = ds.read_blocks(path)
    arrays = dict(arrays)
    edit(meta, arrays)
    ds.write_blocks(path, meta, arrays)
    with pytest.raises(DataFormatError) as err:
        ds.read_episode(path)
    assert err.value.kind == "bad-manifest"
    code = cli.run(["featurize", str(path), "--out", str(tmp_path / "f.egl")])
    err = capsys.readouterr().err
    assert code == 2 and err.splitlines()[-1].startswith("error: bad-manifest:")


def test_overlapping_blocks_are_bad_manifest(tmp_path):
    """Block b starts inside block a; both CRCs hold."""
    payload = np.arange(5, dtype="<f8").tobytes()
    blocks = [{"name": name, "kind": "array", "dtype": "<f8", "shape": [3],
               "offset": offset, "crc32": zlib.crc32(payload[offset:offset + 24])}
              for name, offset in (("a", 0), ("b", 16))]
    manifest = json.dumps({"format": "EGL1", "version": 1, "meta": {},
                           "blocks": blocks}).encode()
    path = tmp_path / "overlap.egl"
    path.write_bytes(b"EGL1" + struct.pack("<I", len(manifest)) + manifest + payload)
    with pytest.raises(DataFormatError) as err:
        ds.read_blocks(path)
    assert err.value.kind == "bad-manifest"
    assert "overlap" in err.value.detail


def test_empty_blocks_overlap_nothing(tmp_path):
    """write_blocks gives a zero-length block the offset of the next block;
    such files read back."""
    arrays = {"first": np.zeros((0, 3)), "a": np.arange(4.0), "mid": np.zeros(0),
              "mid2": np.zeros((2, 0)), "b": np.arange(3), "last": np.zeros(0)}
    path = tmp_path / "empty.egl"
    ds.write_blocks(path, {}, arrays)
    _, back = ds.read_blocks(path)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape and np.array_equal(back[name], arr)


def _documented_error_kinds():
    """The `kind` values of the error taxonomy table in docs/FORMAT.md."""
    doc = (Path(__file__).parents[1] / "docs" / "FORMAT.md").read_text()
    section = doc.split("## Error taxonomy", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z-]+)`", section, flags=re.M))


def _egl1_mutations(raw, rng, n_flips=128, n_substitutions=960):
    """Seeded corruptions of an EGL1 file: truncation at every byte through the
    end of the manifest, payload byte flips, manifest character substitutions."""
    (length,) = struct.unpack("<I", raw[4:8])
    manifest_end = 8 + length
    for n in range(manifest_end + 1):
        yield raw[:n]
    for pos in rng.integers(manifest_end, len(raw), n_flips):
        data = bytearray(raw)
        data[pos] ^= int(rng.integers(1, 256))
        yield bytes(data)
    alphabet = b'0123456789-+.eE"{}[]:, abcxyzAZ_\\'
    for pos in rng.integers(8, manifest_end, n_substitutions):
        data = bytearray(raw)
        data[pos] = alphabet[rng.integers(len(alphabet))]
        yield bytes(data)


def test_egl1_mutations_read_or_fail_with_documented_kind(capsys, tmp_path):
    """Every corrupted episode file reads as an episode or raises a
    DataFormatError of a documented kind, and `handemg info` exits 0 or 2."""
    source = _calibrated_episode_file(tmp_path / "source.egl")
    meta, arrays = ds.read_blocks(source)
    short = {name: arr[:40] for name, arr in arrays.items()
             if name in ("emg_samples", "emg_timestamps_ms")}
    short.update({name: arr[:3] for name, arr in arrays.items() if name.startswith("pose")})
    ds.write_blocks(source, meta, {**arrays, **short})
    ds.read_episode(source)     # the unmutated file is a valid episode
    kinds = _documented_error_kinds()
    assert {"bad-magic", "truncated", "bad-manifest", "checksum"} <= kinds
    path, seen = tmp_path / "mutant.egl", set()
    rng = np.random.default_rng(2026)
    for data in _egl1_mutations(source.read_bytes(), rng):
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # unknown block kinds warn
            try:
                ds.read_episode(path)
                seen.add("valid")
            except DataFormatError as exc:
                assert exc.kind in kinds, (exc.kind, exc.detail)
                seen.add(exc.kind)
            code = cli.run(["info", str(path)])
        capsys.readouterr()
        assert code in (0, 2)
    assert seen == kinds | {"valid"}
