"""The benchmark's workloads: their inputs, their timed calls, their checks.

A workload runs in rounds. A round is a fixed list of psm calls made one
after another by a single client (a closed loop), on inputs made from the
workload seed and the round index; its outputs are checked after the timed
calls. psm keeps its default thread count throughout.
"""

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, process_time

import numpy as np

import checks

BATCH = 8
POINTS = 256
FIXED_DRAWS = 4       # shapes the final set is re-scored against
CLOUD = 16384         # points per surface cloud in eval-files
FPS_K = 1024
LATTICE = 64          # snapped records sit on a 1/64 lattice
DIMS = 32
ORIGIN = -0.1
CELL = 1.2 / DIMS     # the grid spans [-0.1, 1.1)^3; clouds stay in [0.02, 0.98]^3
THRESHOLD = 0.25      # psm voxelize default
EMD_TARGET = 0.01     # psm emd default target_rel_err


class Meter:
    """Counts operations and times the calls a workload makes.

    Each call is timed twice: in wall seconds, and in CPU seconds of the
    whole process (every thread, pool threads included). The CPU clock
    leaves out the time the host takes the virtual CPUs away (steal), which
    on a shared host moves wall-clock rates by tens of percent.

    With a Recorder attached, spans are recorded only inside timed calls,
    so input generation and checks stay out of the per-layer figures.
    """

    def __init__(self, recorder=None):
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.call_ms = {}
        self.rates = []       # units per timed wall second, one per lap
        self.cpu_rates = []   # units per CPU second of the process, one per lap
        self.errors = []      # operations that raised or exited non-zero
        self.problems = []    # outputs that failed a check
        self._lap_start = (0.0, 0.0)

    def call(self, label, fn, *args):
        """Run one timed operation; returns (ok, result)."""
        self.attempted += 1
        if self.rec is not None:
            self.rec.active = True
        t0, c0 = perf_counter(), process_time()
        try:
            result, ok = fn(*args), True
        except Exception as e:  # a failed operation is counted, not fatal
            result, ok = f"{type(e).__name__}: {e}", False
        finally:
            dt, dc = perf_counter() - t0, process_time() - c0
            if self.rec is not None:
                self.rec.active = False
        self.timed_s += dt
        self.cpu_s += dc
        self.call_ms.setdefault(label, []).append(1e3 * dt)
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {result}")
        return ok, result

    def lap(self, units):
        """Close one sample: `units` of work timed since the previous lap."""
        self.units += units
        wall, cpu = self._lap_start
        self.rates.append(units / (self.timed_s - wall))
        self.cpu_rates.append(units / (self.cpu_s - cpu))
        self._lap_start = (self.timed_s, self.cpu_s)

    def check(self, fn, *args):
        """Run one output check; returns its result, or None if it failed."""
        try:
            return fn(*args)
        except checks.CheckFailed as e:
            self.problems.append(str(e))
            return None


class Meanshape:
    """optimize_mean_shape rounds of `steps` steps, batch BATCH, POINTS points."""

    unit = "SGD step"

    def __init__(self, family, metric, steps, seed):
        import psm.meanshape as ms
        from psm.core import RandomSource
        self.ms = ms
        self.metric = metric
        self.steps = steps
        self.seed = seed
        self.spec = ms.ShapeDistributionSpec(family, n_points=POINTS)
        draws = RandomSource(seed).split(1)[0]
        self.fixed = [ms.draw_shape(self.spec, draws) for _ in range(FIXED_DRAWS)]
        self._metric_fn = self._psm_metric()

    def _psm_metric(self):
        # the functions the optimizer calls, bound before any tracing wraps
        from psm.chamfer import chamfer_distance
        from psm.emd import emd
        if self.metric == "cd":
            return lambda x, s: chamfer_distance(x, s, backend="brute").value
        return lambda x, s: emd(x, s).value

    def config(self, steps, r):
        return self.ms.SgdConfig(metric=self.metric, steps=steps, batch=BATCH,
                                 seed=self.seed * 100003 + r)

    def warm_up(self):
        Meter().call("meanshape",
                     lambda: self.ms.optimize_mean_shape(self.spec, self.config(2, 0)))

    def round(self, r, meter):
        cfg = self.config(self.steps, r)
        ok, out = meter.call("meanshape",
                             lambda: self.ms.optimize_mean_shape(self.spec, cfg))
        meter.lap(self.steps)
        if not ok:
            return
        x, trace = out
        meter.check(checks.check_trace, trace)
        meter.check(checks.check_metric_at, x, self.fixed, self.metric,
                    [self._metric_fn(x, s) for s in self.fixed])


def _write_xyz(path, pts):
    with open(path, "w") as fh:
        fh.write("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts.tolist()))


def _blob(rng):
    """A random star-shaped surface: three cosine waves on a sphere."""
    waves = rng.normal(size=(3, 3)) * rng.uniform(2.0, 5.0, size=(3, 1))
    return {"radius": rng.uniform(0.25, 0.35), "waves": waves,
            "phases": rng.uniform(0.0, 2 * np.pi, 3),
            "amps": rng.uniform(0.03, 0.08, 3)}


def _surface(rng, blob, n, noise):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = blob["radius"] * (1.0 + np.cos(d @ blob["waves"].T + blob["phases"]) @ blob["amps"])
    pts = 0.5 + r[:, None] * d + rng.normal(scale=noise, size=(n, 3))
    return np.clip(pts, 0.02, 0.98)


def _perturbed(rng, blob):
    out = dict(blob)
    out["amps"] = blob["amps"] * rng.uniform(0.8, 1.2, 3)
    out["radius"] = blob["radius"] * rng.uniform(0.97, 1.03)
    return out


class EvalFiles:
    """Records of psm CLI calls on .xyz files, made through psm.cli.main.

    A round is one record; odd records are snapped to the 1/LATTICE
    lattice, so half the records are tie-heavy and half generic.
    """

    unit = "record"
    COMMANDS = ("fps", "chamfer", "emd", "voxelize", "iou", "mon")

    def __init__(self, seed, workdir):
        import psm.cli
        self.cli = psm.cli
        self.seed = seed
        self.workdir = workdir

    def _inputs(self, r, snapped, n, k):
        """Write record r's input files; returns their paths and clouds."""
        rng = np.random.default_rng([self.seed, r])
        blob = _blob(rng)
        a = _surface(rng, blob, n, 0.003)
        b = _surface(rng, _perturbed(rng, blob), n, 0.003)
        near = _surface(rng, blob, k, 0.004)
        cands = [_surface(rng, blob, k, 0.02), near, near,
                 _surface(rng, _perturbed(rng, blob), k, 0.003)]
        if snapped:
            a, b = (np.round(p * LATTICE) / LATTICE for p in (a, b))
        d = os.path.join(self.workdir, f"r{r}")
        os.makedirs(d, exist_ok=True)
        p = {name: os.path.join(d, name) for name in
             ("a.xyz", "b.xyz", "a_k.xyz", "b_k.xyz", "a.psgrid", "b.psgrid",
              "bundle.json")}
        _write_xyz(p["a.xyz"], a)
        _write_xyz(p["b.xyz"], b)
        names = []
        for j, c in enumerate(cands):
            names.append(f"c{j}.xyz")
            _write_xyz(os.path.join(d, names[-1]), c)
        with open(p["bundle.json"], "w") as fh:
            json.dump({"groundtruth": "a_k.xyz", "candidates": names, "metric": "cd"}, fh)
        return p, a, b, cands

    def _run(self, meter, label, argv):
        """One CLI call; returns the parsed --json object or None."""
        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(argv + ["--json"])
                except SystemExit as e:
                    code = e.code
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return json.loads(out.getvalue())
        ok, res = meter.call(label, call)
        return res if ok else None

    def record(self, r, snapped, meter, n=CLOUD, k=FPS_K):
        p, a, b, cands = self._inputs(r, snapped, n, k)
        grid = ["--dims", str(DIMS), f"--origin={ORIGIN},{ORIGIN},{ORIGIN}",
                "--cell", repr(CELL)]
        run = self._run
        fa = run(meter, "fps", ["fps", p["a.xyz"], "--k", str(k), "--seed", str(r), "-o", p["a_k.xyz"]])
        fb = run(meter, "fps", ["fps", p["b.xyz"], "--k", str(k), "--seed", str(r), "-o", p["b_k.xyz"]])
        cd = run(meter, "chamfer", ["chamfer", p["a.xyz"], p["b.xyz"]])
        em = run(meter, "emd", ["emd", p["a_k.xyz"], p["b_k.xyz"]])
        va = run(meter, "voxelize", ["voxelize", p["a.xyz"], *grid, "-o", p["a.psgrid"]])
        vb = run(meter, "voxelize", ["voxelize", p["b.xyz"], *grid, "-o", p["b.psgrid"]])
        io_ = run(meter, "iou", ["iou", p["a.psgrid"], p["b.psgrid"]])
        mon = run(meter, "mon", ["mon", "--bundle", p["bundle.json"]])
        meter.lap(1)

        a_k = checks.read_xyz(p["a_k.xyz"]) if fa else None
        b_k = checks.read_xyz(p["b_k.xyz"]) if fb else None
        if fa:
            meter.check(checks.check_fps, a, a_k, k)
        if fb:
            meter.check(checks.check_fps, b, b_k, k)
        if cd:
            meter.check(checks.check_chamfer, a, b, cd["value"])
        if em:
            meter.check(checks.check_assignment, a_k, b_k, em["value"],
                        em.get("achieved_eps"), EMD_TARGET)
        origin = np.full(3, ORIGIN)
        ga = va and meter.check(checks.check_voxels, a, p["a.psgrid"], DIMS, origin, CELL, THRESHOLD)
        gb = vb and meter.check(checks.check_voxels, b, p["b.psgrid"], DIMS, origin, CELL, THRESHOLD)
        if io_ and ga is not None and gb is not None:
            meter.check(checks.check_iou, ga, gb, io_["value"])
        if mon and fa:
            meter.check(checks.check_mon, a_k, cands, mon["value"], mon["argmin_index"])
        shutil.rmtree(os.path.dirname(p["a.xyz"]))

    def warm_up(self):
        # outcomes are discarded; the measured rounds count and check them
        self.record(10**6, True, Meter(), n=512, k=64)

    def round(self, r, meter):
        self.record(r, r % 2 == 1, meter)


# Chamfer rounds take 200 steps: at 100, psm's default step size lets the
# corner_square run oscillate past its starting loss in about 1 round in 30
# (README, "Why 200 steps"). The assignment run is steady from 100.
WORKLOADS = {
    "meanshape-cd": lambda seed, workdir: Meanshape("corner_square", "cd", 200, seed),
    "meanshape-emd": lambda seed, workdir: Meanshape("circle_radius", "emd", 100, seed),
    "eval-files": lambda seed, workdir: EvalFiles(seed, workdir),
}
