"""Span tracing from the benchmark's side of the package boundary.

`Tracer.instrument` replaces each traced public function at every binding in
the package that refers to it (`ik.landmark_jacobian`, `cli.forward_kinematics`,
`model_core.conv1d_valid`, ...) with a wrapper that records one span per call:
name, start, end, parent span and job id. Spans stay in memory and are written
out when the run ends; `self_times` derives self time from them. Times are
process CPU seconds, like the job times in measure.py.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# Public functions traced per module. Left out: wrist_geometry and
# graph_features (no job calls them), and the per-bone / per-element helpers
# hand_model.rodrigues, model_core.relu and model_core.gelu, whose call counts
# would make the tracer the largest cost in the run.
TRACED = {
    "cli": ("run",),
    "model_core": ("tds_featurize", "featurizer_stages", "conv1d_valid", "se_gate",
                   "transformer_forward", "multi_head_attention", "rope_apply",
                   "pose_head", "init_featurizer_weights", "featurizer_lengths"),
    "emg_dsp": ("filter_emg", "build_filter_mask", "mask_gain"),
    "augment": ("augment_emg",),
    "datastore": ("synth_episode", "write_episode", "read_episode", "write_blocks",
                  "read_blocks", "extract_windows", "resample_to_timeline",
                  "feature_frame_indices"),
    "hand_model": ("default_skeleton", "load_skeleton", "forward_kinematics",
                   "landmark_jacobian"),
    "ik": ("fit_batch", "fit_joint_angles", "lbfgs_minimize", "ik_loss_and_gradient",
           "sigmoid_reparam", "inverse_sigmoid_reparam"),
    "occlusion": ("self_occlusion_score", "transform_to_camera", "rasterize_depth",
                  "vertex_visibility", "triangle_areas"),
    "evalkit": ("mae", "records_from_predictions", "group_mae"),
}


def _conv_note(args, kwargs, result):
    x, weight = args[0], args[1]
    stride = args[3] if len(args) > 3 else kwargs["stride"]
    c_out, c_in, kernel = weight.shape
    t_out = (x.shape[1] - kernel) // stride + 1
    return (2 * c_out * c_in * kernel * t_out, kernel)


def _filter_note(args, kwargs, result):
    n, channels = args[0].samples.shape
    return (n, channels, 1 << (max(n, 4096) - 1).bit_length())


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Work done per call, recorded where the work happens. The note of cli.run is
# its exit code: it reports failure by a nonzero code, not by an exception.
NOTES = {
    "model_core.conv1d_valid": _conv_note,
    "emg_dsp.filter_emg": _filter_note,
    "datastore.write_blocks": _file_bytes,
    "datastore.read_blocks": _file_bytes,
    "ik.fit_joint_angles": lambda a, k, r: bool(r.converged),
    "occlusion.rasterize_depth": lambda a, k, r: len(a[0].triangles),
    "evalkit.records_from_predictions": lambda a, k, r: len(a[0]),
    "cli.run": lambda a, k, r: r,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.failed = []
        self.notes = {}
        self.job_id = -1
        self._stack = []
        self._bindings = []

    def _wrap(self, name, fn, note):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.process_time          # the clock job times use

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.failed.append(False)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = True
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if note is not None:
                try:
                    self.notes[idx] = note(args, kwargs, result)
                except Exception:   # a changed signature loses the note, not the call
                    pass
            return result

        return traced

    def instrument(self, package: str = "handemg") -> None:
        """Patches every binding of every traced function (found on first use)."""
        if not self._bindings:
            modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == package or n.startswith(package + "."))]
            for short, functions in TRACED.items():
                module = sys.modules[f"{package}.{short}"]
                for fn_name in functions:
                    original = getattr(module, fn_name, None)
                    if original is None:        # removed: its metrics read 0
                        continue
                    name = f"{short}.{fn_name}"
                    traced = self._wrap(name, original, NOTES.get(name))
                    self._bindings += [(mod, attr, original, traced) for mod in modules
                                       for attr, value in vars(mod).items()
                                       if value is original]
        for mod, attr, _, traced in self._bindings:
            setattr(mod, attr, traced)

    def restore(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.array(self.name_of, int),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, int), "job": np.array(self.job, int),
                "failed": np.array(self.failed, bool)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover."""
    start, end = np.asarray(start, float), np.asarray(end, float)
    out = end - start
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    for p, kids in children.items():
        covered, reach = 0.0, start[p]
        for i in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[i], reach), min(end[i], end[p])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out
