"""Command-line entry point.

Subcommands: synth | filter | augment-emg | augment-markers | fk | wrist |
ik | occlude | graph-pe | featurize | split | eval | info. Every run prints
its resolved configuration to stderr for reproducibility. All randomness
flows from --seed, taken only by synth, augment-emg, augment-markers,
featurize and split; only the two augment-* subcommands take --config.
Exit codes: 0 success, 1 usage error, 2 data error; failures print
``error: <kind>: <detail>`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np
import yaml

from . import __version__, FORMAT_VERSION
from . import augment, datastore, emg_dsp, evalkit, graph_features, ik
from . import model_core, occlusion, wrist_geometry
from .errors import DataFormatError, HandEmgError
from .hand_model import JointAngles22, default_skeleton, forward_kinematics


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_config(path):
    if path is None:
        return {}
    with open(path) as f:
        cfg = yaml.safe_load(f) or {}
    if not isinstance(cfg, dict):
        raise DataFormatError("bad-config", f"{path} must hold a mapping")
    return cfg


def _dataclass_from_config(cls, overrides):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(overrides) - names
    if unknown:
        raise DataFormatError("bad-config", f"unknown fields {sorted(unknown)}")
    fixed = {k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()}
    return cls(**fixed)


def _echo_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(resolved, default=str)}", file=sys.stderr)


def _read_csv_matrix(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    episode = datastore.synth_episode(seed=args.seed, duration_s=args.duration,
                                      gesture_label=args.gesture,
                                      participant_id=args.participant)
    datastore.write_episode(episode, args.out)
    print(f"wrote {args.out}: {episode.emg.n_samples} EMG samples, "
          f"{len(episode.pose_timestamps_ms)} pose frames")


def _cmd_filter(args):
    episode = datastore.read_episode(args.input)
    filtered = emg_dsp.filter_emg(episode.emg)
    datastore.write_episode(dataclasses.replace(episode, emg=filtered), args.out)
    print(f"wrote {args.out}")
    if args.response:
        n_fft = emg_dsp.filter_fft_length(episode.emg.n_samples)
        mask = emg_dsp.build_filter_mask(n_fft, episode.emg.sample_rate)
        with open(args.response, "w") as f:
            f.write("frequency_hz,gain\n")
            for freq, gain in zip(mask.frequencies_hz, mask.gains):
                f.write(f"{freq:.6f},{gain:.9f}\n")
        print(f"wrote {args.response}")


def _cmd_augment_emg(args):
    episode = datastore.read_episode(args.input)
    config = _dataclass_from_config(augment.EmgAugConfig, _load_config(args.config))
    out = augment.augment_emg(episode.emg, args.seed, config)
    datastore.write_episode(dataclasses.replace(episode, emg=out), args.out)
    print(f"wrote {args.out}")


def _cmd_augment_markers(args):
    episode = datastore.read_episode(args.input)
    if episode.markers is None:
        raise DataFormatError("bad-manifest", "episode has no marker stream")
    config = _dataclass_from_config(augment.MarkerAugConfig, _load_config(args.config))
    graph = graph_features.default_marker_graph()
    frames, op_names = [], []
    for i, frame in enumerate(episode.markers):
        out, ops = augment.augment_markers(
            augment.MarkerSet(frame), graph, args.hand_scale, args.seed + i, config)
        frames.append(out.points)
        op_names += [op["op"] for op in ops]
    episode = dataclasses.replace(episode, markers=np.stack(frames))
    datastore.write_episode(episode, args.out)
    applied = {name: op_names.count(name) for name in sorted(set(op_names))}
    print(f"wrote {args.out}; applied ops over {len(frames)} frames: {applied}")


def _cmd_fk(args):
    angles = _read_csv_matrix(args.angles)
    skeleton = default_skeleton()
    points = np.stack([
        forward_kinematics(skeleton, JointAngles22(row, handedness=args.handedness)).points
        for row in angles])
    datastore.write_blocks(args.out, {"type": "landmarks"}, {"landmarks": points})
    print(f"wrote {args.out}: {points.shape[0]} frames x 20 landmarks")


def _cmd_wrist(args):
    points = _read_csv_matrix(args.points)
    if points.shape != (5, 3):
        raise DataFormatError("bad-input", "expected 5 rows (a, b, c, wrist, "
                              "middle MCP) of x,y,z")
    frame = wrist_geometry.forearm_frame(*points[:3], handedness=args.handedness)
    result = wrist_geometry.wrist_angles(frame, points[3], points[4])
    print(f"theta_fe_deg,{result.theta_fe:.9f}")
    print(f"theta_ru_deg,{result.theta_ru:.9f}")
    if result.ru_degenerate:
        print("warning: deviation undefined (hand parallel to frame normal)",
              file=sys.stderr)


def _cmd_ik(args):
    _, arrays = datastore.read_blocks(args.landmarks)
    if "landmarks" not in arrays:
        raise DataFormatError("bad-manifest", "missing landmarks block")
    skeleton = default_skeleton()
    from .hand_model import LandmarkSet
    results = ik.fit_batch([LandmarkSet(f) for f in arrays["landmarks"]], skeleton,
                           handedness=args.handedness)
    angles = np.stack([r.angles.values for r in results])
    rms = np.sqrt(np.array([r.residual_mse for r in results]))
    datastore.write_blocks(args.out, {"type": "angles"},
                           {"angles": angles, "residual_rms_mm": rms})
    print(f"wrote {args.out}: {len(results)} frames, "
          f"mean RMS {rms.mean():.4f} mm, worst {rms.max():.4f} mm")


def _read_mesh(path):
    vertices, faces = [], []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "v" and len(parts) == 4:
                    vertices.append([float(x) for x in parts[1:]])
                elif parts[0] == "f" and len(parts) == 4:
                    faces.append([int(x) for x in parts[1:]])   # 0-based indices
                else:
                    raise ValueError
            except ValueError:
                raise DataFormatError("bad-mesh", f"{path}:{line_no}: "
                                      f"expected 'v x y z' or 'f i j k'") from None
    try:
        return occlusion.TriangleMesh(np.array(vertices), np.array(faces))
    except (ValueError, OverflowError) as exc:
        raise DataFormatError("bad-mesh", f"{path}: {exc}") from exc


def _read_camera(path):
    cfg = _load_config(path)
    try:
        k = np.array([[cfg["fx"], 0.0, cfg["cx"]],
                      [0.0, cfg["fy"], cfg["cy"]],
                      [0.0, 0.0, 1.0]], dtype=float)
        rotation = np.asarray(cfg.get("rotation", np.eye(3).tolist()), float)
        translation = np.asarray(cfg.get("translation", [0.0, 0.0, 0.0]), float)
        return occlusion.PinholeCamera(
            intrinsics=k, rotation=rotation.reshape(3, 3),
            translation=translation, width=cfg["width"], height=cfg["height"])
    except KeyError as exc:
        raise DataFormatError("bad-camera", f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError("bad-camera", f"{path}: {exc}") from exc


def _cmd_occlude(args):
    mesh = _read_mesh(args.mesh)
    camera = _read_camera(args.camera)
    report = occlusion.self_occlusion_score(mesh, camera)
    print(f"s_occ,{report.s_occ:.9f}")
    print("visible," + ",".join("1" if v else "0"
                                for v in report.visible_vertex_flags))
    if args.depth:
        buffer = report.depth_buffer
        np.where(np.isfinite(buffer), buffer, 0.0).astype("<f4").tofile(args.depth)
        print(f"wrote {args.depth} ({camera.height}x{camera.width} float32)")


def _cmd_graph_pe(args):
    graph = graph_features.default_marker_graph()
    pe = graph_features.laplacian_eigenvectors(graph, k=args.k,
                                               normalized=args.normalized)
    spd = graph_features.shortest_path_distances(graph)
    print("eigenvalues," + ",".join(f"{v:.9f}" for v in pe.eigenvalues))
    for row in pe.eigenvectors:
        print("eigenvector_row," + ",".join(f"{v:.9f}" for v in row))
    for row in spd:
        print("spd_row," + ",".join(str(v) for v in row))


def _cmd_featurize(args):
    episode = datastore.read_episode(args.input)
    windows = datastore.extract_windows(episode)
    if not windows:
        raise DataFormatError("bad-input", "episode too short for one window")
    weights = model_core.init_featurizer_weights(args.seed)
    features = np.stack([model_core.tds_featurize(w.emg, weights).data
                         for w in windows])
    datastore.write_blocks(args.out, {"type": "features", "seed": args.seed},
                           {"features": features})
    print(f"wrote {args.out}: {features.shape[0]} windows x "
          f"{features.shape[1]} x {features.shape[2]}")


def _cmd_split(args):
    participants = list(range(args.participants))
    gestures = list(datastore.GESTURE_VOCABULARY[:args.gestures])
    assignment = datastore.generate_splits(participants, gestures, args.seed)
    counts = {}
    for user in participants:
        for gesture in gestures:
            tag = assignment.tag(user, gesture)
            counts[tag] = counts.get(tag, 0) + 1
    total = sum(counts.values())
    print(f"held_out_gestures,{','.join(assignment.held_out_gestures)}")
    print(f"held_out_users,{','.join(str(u) for u in assignment.held_out_users)}")
    for tag in sorted(counts):
        print(f"{tag},{counts[tag]},{counts[tag] / total:.4f}")


def _cmd_eval(args):
    _, pred = datastore.read_blocks(args.pred)
    _, gt = datastore.read_blocks(args.gt)
    if "angles" not in pred or "angles" not in gt:
        raise DataFormatError("bad-manifest", "both files need an angles block")
    overall = evalkit.mae(pred["angles"], gt["angles"])
    errors = np.abs(pred["angles"] - gt["angles"])
    rows = [("overall", overall)]
    for grouping in (evalkit.FINGER_GROUPS, evalkit.PHALANX_GROUPS):
        rows += evalkit.group_mae(errors, grouping).items()
    print(f"mae_deg,{overall:.9f}")
    for name, value in rows[1:]:
        print(f"group,{name},{value:.9f}")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("group,mae_deg\n")
            for name, value in rows:
                f.write(f"{name},{value:.9f}\n")
        print(f"wrote {args.csv}")


def _cmd_info(args):
    meta, arrays = datastore.read_blocks(args.input)
    print(f"type,{meta.get('type', 'unknown')}")
    for key, value in sorted(meta.items()):
        if key != "type":
            print(f"meta,{key},{value}")
    for name, arr in arrays.items():
        print(f"block,{name},{'x'.join(str(s) for s in arr.shape)},{arr.dtype}")


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _ArgumentParser:
    """The one parser of the process; each parse_args gives a fresh Namespace."""
    parser = _ArgumentParser(prog="handemg")
    parser.add_argument("--version", action="version",
                        version=f"handemg {__version__} (format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=8.0, help="seconds")
    p.add_argument("--gesture", default="Rest")
    p.add_argument("--participant", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("filter")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--response", default=None, help="write mask CSV here")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("augment-emg")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="YAML config file")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment_emg)

    p = sub.add_parser("augment-markers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="YAML config file")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--hand-scale", type=float, default=180.0, help="mm")
    p.set_defaults(func=_cmd_augment_markers)

    handedness_help = ("labels the poses only: the skeleton is a right hand, and "
                       "the output file is the same for left and right")
    p = sub.add_parser("fk")
    p.add_argument("--angles", required=True, help="CSV, one 22-angle row per frame")
    p.add_argument("--handedness", choices=("left", "right"), default="right",
                   help=handedness_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("wrist")
    p.add_argument("--points", required=True,
                   help="CSV: rows a, b, c, wrist, middle-MCP as x,y,z")
    p.add_argument("--handedness", choices=("left", "right"), default="right")
    p.set_defaults(func=_cmd_wrist)

    p = sub.add_parser("ik")
    p.add_argument("--landmarks", required=True)
    p.add_argument("--handedness", choices=("left", "right"), default="right",
                   help=handedness_help)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("occlude")
    p.add_argument("--mesh", required=True, help="text mesh: v x y z / f i j k")
    p.add_argument("--camera", required=True, help="YAML camera file")
    p.add_argument("--depth", default=None, help="dump raw float32 depth here")
    p.set_defaults(func=_cmd_occlude)

    p = sub.add_parser("graph-pe")
    p.add_argument("--k", type=int, default=graph_features.DEFAULT_K)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=_cmd_graph_pe)

    p = sub.add_parser("featurize")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--participants", type=int, default=41)
    p.add_argument("--gestures", type=int, default=60)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("eval")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("info")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    try:
        _echo_config(args)
        args.func(args)
        return 0
    except DataFormatError as exc:
        print(f"error: {exc.kind}: {exc.detail}", file=sys.stderr)
        return 2
    except (HandEmgError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
