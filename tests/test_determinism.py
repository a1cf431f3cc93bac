"""Every subcommand's bytes depend on neither the BLAS thread count nor `-O`.

One fixed script runs each `handemg` subcommand on small inputs inside a
child interpreter. Three children run it: with one BLAS thread, with two, and
under `python -O` with one. Each reports the sha256 of every file the script
wrote, and of each command's exit code, stdout and stderr; the three reports
must be equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import handemg

_SCRIPT = r'''
import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from handemg import cli, datastore as ds
from handemg.hand_model import default_skeleton

rng = np.random.default_rng(21)
limits = default_skeleton().limits
angles = rng.uniform(limits[:, 0], limits[:, 1], size=(6, 22))
np.savetxt("angles.csv", angles, fmt="%.17g", delimiter=",")
ds.write_blocks("truth.egl", {"type": "angles"}, {"angles": angles})
np.savetxt("points.csv", [[0, 0, 0], [60, 0, 0], [0, 40, 0], [30, 20, 10],
                          [40, 90, 25]], fmt="%g", delimiter=",")
vertices = np.column_stack([rng.uniform(-60, 60, (40, 2)), rng.uniform(300, 700, 40)])
faces = [rng.choice(40, 3, replace=False) for _ in range(60)]
Path("mesh.txt").write_text("".join(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in vertices)
                            + "".join(f"f {i} {j} {k}\n" for i, j, k in faces))
Path("camera.yaml").write_text("fx: 90.0\nfy: 90.0\ncx: 32.0\ncy: 24.0\n"
                               "width: 64\nheight: 48\n")
episode = ds.synth_episode(seed=1, duration_s=4.0)
ds.write_episode(dataclasses.replace(
    episode, markers=rng.normal(scale=40.0, size=(30, 21, 3)),
    marker_timestamps_ms=episode.pose_timestamps_ms[:30]), "markers.egl")

COMMANDS = [
    ["synth", "--seed", "5", "--duration", "4", "--out", "ep.egl"],
    ["info", "ep.egl"],
    ["filter", "ep.egl", "--out", "filtered.egl", "--response", "mask.csv"],
    ["augment-emg", "--seed", "2", "ep.egl", "--out", "augmented.egl"],
    ["augment-markers", "--seed", "3", "markers.egl", "--out", "markers_out.egl"],
    ["featurize", "--seed", "1", "filtered.egl", "--out", "features.egl"],
    ["fk", "--angles", "angles.csv", "--out", "landmarks.egl"],
    ["ik", "--landmarks", "landmarks.egl", "--out", "fit.egl"],
    ["eval", "--pred", "fit.egl", "--gt", "truth.egl", "--csv", "mae.csv"],
    ["wrist", "--points", "points.csv"],
    ["occlude", "--mesh", "mesh.txt", "--camera", "camera.yaml", "--depth", "depth.f32"],
    ["graph-pe", "--normalized"],
    ["split", "--seed", "4"],
]


def sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


commands = {}
for argv in COMMANDS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    commands[" ".join(argv)] = [code, sha(out.getvalue()), sha(err.getvalue())]
files = {p.name: sha(p.read_bytes()) for p in sorted(Path().iterdir())}
print(json.dumps({"commands": commands, "files": files}, indent=1))
'''

_OUTPUTS = {"ep.egl", "filtered.egl", "mask.csv", "augmented.egl", "markers_out.egl",
            "features.egl", "landmarks.egl", "fit.egl", "mae.csv", "depth.f32"}
_RUNS = {"1 thread": ("1", []), "2 threads": ("2", []), "-O, 1 thread": ("1", ["-O"])}


def test_cli_bytes_do_not_depend_on_blas_threads_or_optimize_flag(tmp_path):
    path = [str(Path(handemg.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    children = {}
    for name, (threads, flags) in _RUNS.items():
        workdir = tmp_path / name.replace(" ", "_").replace(",", "")
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        children[name] = subprocess.Popen(
            [sys.executable, *flags, "-c", _SCRIPT], cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    results = {name: child.communicate(timeout=300) for name, child in children.items()}
    for name, child in children.items():
        assert child.returncode == 0, (name, results[name][1].decode())
    reports = {name: json.loads(out) for name, (out, _) in results.items()}
    base = reports["1 thread"]
    assert [command for command, (code, *_) in base["commands"].items() if code != 0] == []
    assert _OUTPUTS <= set(base["files"])
    for name, (out, err) in results.items():
        assert err == b"", (name, err.decode())
        assert reports[name] == base, name
