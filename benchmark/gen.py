"""Seeded input generator: writes every input file of one workload.

    python3 benchmark/gen.py --workload pose_ik --seed 3 --out DIR

The same (workload, seed) always gives byte-identical files. Each job
belongs to a stratum (an episode-length band, a mesh detail and camera
setting), and the strata follow a fixed order, so the seed varies the inputs
(poses, meshes, episode lengths) but not the mix of work among the first N
jobs, and runs with different seeds measure comparable work.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SKELETON_ASSET = ROOT / "src" / "handemg" / "assets" / "default_hand.skel"

WORKLOADS = ("emg_pipeline", "pose_ik", "occlusion")

# emg_pipeline: episode durations by band. Bands A and C give 1 window of
# 7790 samples, B gives 2 and E gives 3; the FFT lengths at 2 kHz are 16384
# (A, B), 8192 (C) and 32768 (E). Job times cluster by window count, so order
# statistics are steady only inside one cluster: 1-window jobs make 80% of
# the fixed order, so for any job count from 11 to about 50 both the median
# and the tail percentile (10 jobs beyond it) fall inside the 1-window
# cluster rather than on the edge between two.
EMG_BANDS_S = {"A": (4.20, 4.40), "B": (7.85, 8.15), "C": (4.00, 4.09),
               "E": (11.80, 15.50)}
EMG_ORDER = "AAAABAAAAEAACAAAABAE"
GESTURES = ("Rest", "Clap", "Typing", "ILY", "Rock", "Thumb", "PalmRoll", "Kiss")
# transformer S (3 layers, d 256, 4 heads, FFN 512) and the 22-angle pose head
TRANSFORMER_S = (3, 256, 4, 512)

# pose_ik: each job is one hand; smooth segments joined at hard cuts
IK_JOBS = 40
IK_FRAMES = 24
IK_SEGMENTS = 2
IK_FRAME_RATE_HZ = 30.0

# occlusion: every (detail, distance, resolution) stratum once per block
MESH_DETAIL = ((6, 2), (8, 3), (10, 4))          # ring vertices, rings per tube
CAMERA_DISTANCE_MM = ((280.0, 360.0), (1100.0, 1500.0))
RESOLUTIONS = ((160, 120), (640, 480))
OCC_BLOCKS = 8


def _fan_in(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def gen_emg(rng, out: Path) -> list:
    jobs = []
    for band in EMG_ORDER:
        lo, hi = EMG_BANDS_S[band]
        jobs.append({"synth_seed": int(rng.integers(2**31)),
                     "duration_s": round(float(rng.uniform(lo, hi)), 3),
                     "gesture": str(rng.choice(GESTURES)),
                     "participant": int(rng.integers(41)),
                     "aug_seed": int(rng.integers(2**31)),
                     "feat_seed": int(rng.integers(1000)),
                     "check_pick": int(rng.integers(2**31))})
    n_layers, d, _, f = TRANSFORMER_S
    arrays = {"pose_w": _fan_in(rng, (22, d), d),
              "pose_b": rng.uniform(-20.0, 20.0, 22)}
    for i in range(n_layers):
        for name, shape, fan in (("wq", (d, d), d), ("wk", (d, d), d), ("wv", (d, d), d),
                                 ("wo", (d, d), d), ("ffn1_w", (f, d), d),
                                 ("ffn2_w", (d, f), f)):
            arrays[f"l{i}_{name}"] = _fan_in(rng, shape, fan)
    np.savez(out / "model.npz", **arrays)
    return jobs


def _smooth_segment(rng, limits, n_frames):
    """Pose trajectory well inside the limits: a random centre plus slow sines."""
    lo, hi = limits[:, 0], limits[:, 1]
    span = hi - lo
    centre = lo + span * rng.uniform(0.25, 0.75, len(lo))
    amp = span * 0.05
    freq = rng.uniform(0.4, 0.8, len(lo))
    phase = rng.uniform(0.0, 2 * np.pi, len(lo))
    t = np.arange(n_frames)[:, None] / IK_FRAME_RATE_HZ
    return centre + amp * np.sin(2 * np.pi * freq * t + phase)


def gen_pose_ik(rng, out: Path) -> list:
    skel = ref.Skeleton(SKELETON_ASSET)
    jobs = []
    for j in range(IK_JOBS):
        cuts = [0] + sorted(int(c) for c in rng.choice(
            np.arange(6, IK_FRAMES - 5), IK_SEGMENTS - 1, replace=False))
        bounds = cuts + [IK_FRAMES]
        angles = np.concatenate([_smooth_segment(rng, skel.limits, b - a)
                                 for a, b in zip(bounds, bounds[1:])])
        np.savetxt(out / f"angles_{j}.csv", angles, delimiter=",", fmt="%.10f")
        ref.write_egl(out / f"truth_{j}.egl", {"type": "angles"}, {"angles": angles})
        jobs.append({"angles": f"angles_{j}.csv", "truth": f"truth_{j}.egl",
                     "handedness": "right" if j % 2 == 0 else "left",
                     "frames": IK_FRAMES, "cuts": cuts})
    return jobs


def _tube(p0, p1, r0, r1, n_around, n_rings):
    axis = (p1 - p0) / np.linalg.norm(p1 - p0)
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    phi = 2 * np.pi * np.arange(n_around) / n_around
    verts, faces = [], []
    for r in range(n_rings):
        s = r / (n_rings - 1)
        centre = p0 + s * (p1 - p0)
        radius = r0 + s * (r1 - r0)
        verts += list(centre + radius * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2))
    for r in range(n_rings - 1):
        for a in range(n_around):
            i0, i1 = r * n_around + a, r * n_around + (a + 1) % n_around
            faces += [(i0, i1, i0 + n_around), (i1, i1 + n_around, i0 + n_around)]
    return np.array(verts), np.array(faces)


def hand_mesh(landmarks, n_around, n_rings):
    """Tubes from the wrist to each finger base and along every phalanx."""
    verts, faces = [], []
    wrist = np.zeros(3)
    for finger in range(5):
        chain = [wrist] + [landmarks[4 * finger + k] for k in range(4)]
        radii = [9.0, 8.0, 7.0, 6.0, 5.0]
        for k in range(4):
            v, f = _tube(chain[k], chain[k + 1], radii[k], radii[k + 1], n_around, n_rings)
            faces.append(f + sum(len(x) for x in verts))
            verts.append(v)
    return np.concatenate(verts), np.concatenate(faces)


def _look_at(eye, target):
    z = (target - eye) / np.linalg.norm(target - eye)
    x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x /= np.linalg.norm(x)
    rot = np.stack([x, np.cross(z, x), z])
    return rot, -rot @ eye


def gen_occlusion(rng, out: Path) -> list:
    skel = ref.Skeleton(SKELETON_ASSET)
    lo, hi = skel.limits[:, 0], skel.limits[:, 1]
    strata = [(d, c, r) for d in range(len(MESH_DETAIL))
              for c in range(len(CAMERA_DISTANCE_MM)) for r in range(len(RESOLUTIONS))]
    jobs = []
    for _ in range(OCC_BLOCKS):
        for detail, dist, res in strata:
            j = len(jobs)
            pose = lo + (hi - lo) * rng.uniform(0.15, 0.85, len(lo))
            verts, faces = hand_mesh(ref.fk(skel, pose), *MESH_DETAIL[detail])
            with open(out / f"mesh_{j}.txt", "w") as f:
                f.write("".join(f"v {x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in verts))
                f.write("".join(f"f {a} {b} {c}\n" for a, b, c in faces))
            centre = verts.mean(axis=0)
            direction = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                  rng.choice([-1.0, 1.0])])
            distance = rng.uniform(*CAMERA_DISTANCE_MM[dist])
            eye = centre + distance * direction / np.linalg.norm(direction)
            rot, trans = _look_at(eye, centre)
            width, height = RESOLUTIONS[res]
            cam = {"fx": 0.9 * width, "fy": 0.9 * width, "cx": width / 2, "cy": height / 2,
                   "width": width, "height": height,
                   "rotation": [[float(x) for x in row] for row in rot],
                   "translation": [float(x) for x in trans]}
            with open(out / f"cam_{j}.yaml", "w") as f:
                json.dump(cam, f)        # JSON is valid YAML
            jobs.append({"mesh": f"mesh_{j}.txt", "camera": f"cam_{j}.yaml",
                         "triangles": len(faces), "vertices": len(verts)})
    return jobs


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = {"emg_pipeline": gen_emg, "pose_ik": gen_pose_ik,
            "occlusion": gen_occlusion}[workload](rng, out)
    with open(out / "jobs.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, f, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
