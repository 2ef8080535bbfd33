"""Runs of one workload: set-up, timed steps, correctness checks, metrics.

One benchmark invocation makes, in this order:

1. the *main* run, untraced: set-up (facade construction plus the cold
   first step), then ``step_budget`` timed steps.  The end-to-end metrics
   come from it;
2. under ``--trace 0``, ``N_SETUP - 1`` more untraced set-ups of the same
   seed, for the set-up median and the repeat check;
3. the *traced* run of the same steps (``--trace 1``), or of the first
   ``TRACE_PREFIX`` of them (``--trace 0``): the per-layer metrics, the
   tracing overhead, and the traced-equals-untraced checks.  It is also
   the second run of the seed that the work counters must repeat in.

Every interval is timed from outside the program and corrected for host
speed with the reference kernel of :mod:`refkernel`, measured right before
and right after it: ``corrected = wall * REF_S / mean(ref_before, ref_after)``.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from layers import TRACED_ONLY, Recorder
from refkernel import REF_S, RefKernel
from repro.fdps.distributed import DistributedGravity
from repro.fdps.particles import FIELDS, ParticleSet
from repro.gravity.treegrav import tree_accel
from repro.serve.server import predict_batch_buffers
from repro.util.constants import GRAV_CONST
from spec import COMM_LABELS, RUN_SECONDS
from workloads import MAX_STEPS, Workload

#: Set-ups per invocation; ``setup_s`` is their median.
N_SETUP = 3
#: Fewest timed steps per run, whatever ``--seconds`` asks for.
MIN_TIMED = 3
#: Timed steps the traced run repeats under ``--trace 0``.
TRACE_PREFIX = 1
#: Targets of the direct-summation gravity check (fixed, evenly spaced):
#: enough that ten lie beyond the 99th percentile.
GRAV_SAMPLE = 1024
#: Tolerance of the gravity check on the 99th-percentile relative force
#: error: the tail bound the program's own tests state for its distributed
#: (per-rank tree + LET) gravity; the single-rank tree sits far below it.
GRAV_ERR_P99_MAX = 0.1
#: Relative tolerance on total mass (SN replacement keeps every mass).
MASS_RTOL = 1e-12
#: Fields that may hold +inf ("none yet"): formation and SN times.
_TIME_FIELDS = ("tform", "tsn")


def step_budget(wl: Workload, seconds: float) -> int:
    """The workload's timed steps, scaled by ``seconds / RUN_SECONDS``.

    The count depends on the workload and ``--seconds`` alone, never on the
    clock, so every run of one seed does the same work: counts repeat
    exactly and only the times vary.
    """
    n = round(wl.timed_steps * seconds / RUN_SECONDS)
    return min(max(n, MIN_TIMED), MAX_STEPS - 1)


# ----------------------------------------------------------------- state
def state_problem(ps: ParticleSet, mass0: float) -> str | None:
    """Why the particle state is invalid, or None."""
    for name in FIELDS:
        a = getattr(ps, name)
        if name in _TIME_FIELDS:
            bad = np.isnan(a) | (a == -np.inf)
        else:
            bad = ~np.isfinite(a)
        if bad.any():
            return f"{int(bad.sum())} non-finite {name}"
    mass = ps.total_mass()
    if abs(mass - mass0) > MASS_RTOL * abs(mass0):
        return f"total mass {mass!r} != initial {mass0!r}"
    return None


def digest(ps: ParticleSet) -> str:
    return hashlib.sha256(ps.pack().tobytes()).hexdigest()


def program_counts(sim, rec: Recorder) -> dict[str, int]:
    """Work counters; every one must repeat exactly for one seed."""
    integ = sim.integrator
    out = {f"interactions.{k}": int(v) for k, v in integ.counter.counts.items()}
    grav_lists = integ.counter.list_lengths.get("gravity", [])
    out["gravity.lists"] = len(grav_lists)
    out["gravity.list_sum"] = int(sum(grav_lists))
    indices = [integ.engine.index]
    driver = getattr(integ, "driver", None)
    if driver is not None:
        indices += driver.indices
    for stat in ("tree_builds", "tree_reuses", "grid_builds", "grid_reuses"):
        out[f"accel.{stat}"] = sum(getattr(ix.stats, stat) for ix in indices)
    comm = integ.comm_stats() if hasattr(integ, "comm_stats") else {}
    for label, st in comm.items():
        out[f"comm.{label}.bytes"] = int(st.bytes_total)
        out[f"comm.{label}.messages"] = int(st.n_messages)
    m = sim.server.metrics
    out["serve.submitted"] = m.n_submitted
    out["serve.batches"] = m.n_batches
    out["serve.bytes_in"] = m.bytes_in
    out["serve.bytes_out"] = m.bytes_out
    out["serve.latency_samples"] = len(m.latency_steps)
    out["core.n_overflow"] = m.n_overflow
    out.update(rec.work)
    return out


def serve_times(sim) -> dict[str, float]:
    m = sim.server.metrics
    return {
        "serve.worker_busy_s": float(sum(m.worker_busy_s.values())),
        "serve.exposed_wait_s": float(m.exposed_wait_s),
    }


def count_mismatch(a: dict, b: dict) -> list[str]:
    """Counters that differ between two snapshots (traced-only ones aside)."""
    keys = (a.keys() | b.keys()) - TRACED_ONLY
    return sorted(k for k in keys if a.get(k, 0) != b.get(k, 0))


# ------------------------------------------------------------------ runs
@dataclass
class Sample:
    """One timed interval: the set-up (index 0) or one step."""

    wall: float
    ref: float
    problem: str | None = None
    counts: dict = field(default_factory=dict)
    digest: str = ""
    serve: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def factor(self) -> float:
        return REF_S / self.ref

    @property
    def corrected(self) -> float:
        return self.wall * self.factor


class Run:
    """One simulation of a workload under one :class:`Recorder`."""

    def __init__(self, wl: Workload, seed: int, ic: ParticleSet,
                 kernel: RefKernel, rec: Recorder) -> None:
        self.wl = wl
        self.seed = seed
        self.ic = ic
        self.kernel = kernel
        self.rec = rec
        self.mass0 = ic.total_mass()
        self.sim = None
        self.samples: list[Sample] = []
        self.planned = 0
        self.crashed = False
        self._ref = 0.0

    def _interval(self, fn, catch: bool = True) -> None:
        """Time ``fn`` between two reference measurements; record a sample.

        A step that raises is a failed operation, recorded and reported; a
        set-up that raises leaves nothing to measure and propagates.
        """
        before = self._ref or self.kernel.measure()
        problem = None
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:
            if not catch:
                raise
            traceback.print_exc(file=sys.stderr)
            problem = "raised"
        wall = time.perf_counter() - t0
        # This measurement is also the next step's "before": only the
        # bookkeeping below (a few ms) runs between the two.
        self._ref = self.kernel.measure()
        s = Sample(wall=wall, ref=0.5 * (before + self._ref), problem=problem)
        if problem is None:
            s.problem = state_problem(self.sim.ps, self.mass0)
            s.counts = program_counts(self.sim, self.rec)
            s.digest = digest(self.sim.ps)
            s.serve = serve_times(self.sim)
            s.self_s = dict(self.rec.self_s)
            s.calls = dict(self.rec.calls)
        else:
            self.crashed = True
        self.samples.append(s)

    def setup(self) -> None:
        """Facade construction (serve workers included) plus the cold first
        step.  IC generation is input generation and stays outside."""
        ps = self.ic.copy()

        def build() -> None:
            self.sim = self.wl.make_sim(ps, self.seed)
            self.sim.run(1)

        self._ref = 0.0
        self._interval(build, catch=False)

    def steps(self, n: int) -> None:
        self.planned += n
        for _ in range(n):
            if self.crashed:
                return
            self._interval(lambda: self.sim.run(1))

    @property
    def timed(self) -> list[Sample]:
        return self.samples[1:]

    def close(self) -> None:
        """Wait for every prediction still in flight, then shut down.

        ``close`` on a process-transport server whose worker left a result
        larger than the pipe buffer unread can hang, so the service is
        drained through its public path first; the drained predictions join
        the replay check.
        """
        if self.sim is None:
            return
        self.sim.server.collect_all()
        self.sim.close()

    # ------------------------------------------------------------ checks
    def pool_events(self) -> list:
        sim = self.sim
        if sim.pool is not None:
            return list(sim.pool.events)
        return [e for pool in sim.integrator.pools for e in pool.events]

    def sn_ops(self) -> tuple[int, int, str]:
        """(due, failed, detail) over the SN predictions due so far.

        A prediction fails if it was missing or late at its return step, or
        if the service re-dispatched it, served it from the fault oracle or
        inline, or hit a worker error on the way.
        """
        steps_done = self.sim.step_count
        delivered: dict[int, int] = {}
        for step, resp in self.rec.responses:
            if step is not None:
                delivered.setdefault(resp.event_id, step)
        due = [e for e in self.pool_events() if e.return_step < steps_done]
        late = [
            e for e in due
            if delivered.get(e.event_id, e.return_step + 1) > e.return_step
        ]
        m = self.sim.server.metrics
        rescued = (m.n_redispatch + m.n_fault_oracle + m.n_worker_errors
                   + m.n_spilled + m.n_oracle_fallback)
        failed = min(len(due), len(late) + rescued)
        return len(due), failed, (
            f"{len(due) - len(late)}/{len(due)} due returned on time, "
            f"{rescued} served by recovery"
        )

    def ops(self) -> tuple[int, int]:
        """(attempted, failed): timed steps plus due SN predictions."""
        steps_ok = sum(s.ok for s in self.timed)
        due, sn_failed = self.sn_ops()[:2]
        return self.planned + due, self.planned - steps_ok + sn_failed


@dataclass
class Replay:
    regions: int
    mismatches: int
    #: Host-corrected self seconds of each span during the replay.
    self_s: dict[str, float]


def replay(run: Run, kernel: RefKernel, rec: Recorder) -> Replay:
    """Re-run every request ``run`` served on a local sync surrogate.

    Each response must equal its replay byte for byte.  Under the timed
    ``rec`` the replay is also where the surrogate layer gets timed: the
    worker processes that served the run are out of reach of the wrappers.
    """
    served = {r.event_id: r for _step, r in run.rec.responses}
    surrogate = run.sim.server.local_surrogate
    mismatches = 0
    spans0 = dict(rec.self_s)
    before = kernel.measure()
    for req in run.rec.requests:
        resp = served.get(req.event_id)
        [buf] = predict_batch_buffers(surrogate, [req.to_buffer()])
        if resp is None or not np.array_equal(buf, resp.to_buffer()):
            mismatches += 1
    after = kernel.measure()
    factor = REF_S / (0.5 * (before + after))
    spans = {k: (v - spans0.get(k, 0.0)) * factor for k, v in rec.self_s.items()}
    return Replay(len(run.rec.requests), mismatches, spans)


def direct_accel(ps: ParticleSet, targets: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Softened direct summation on ``targets`` (same softening rule as the
    program: eps_i^2 + eps_j^2), written independently of it."""
    out = np.empty((len(targets), 3))
    for lo in range(0, len(targets), chunk):
        t = targets[lo:lo + chunk]
        d = ps.pos[t, None, :] - ps.pos[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        soft2 = ps.eps[t, None] ** 2 + ps.eps[None, :] ** 2
        w = ps.mass[None, :] / (r2 + soft2) ** 1.5
        w[r2 == 0.0] = 0.0
        out[lo:lo + chunk] = -GRAV_CONST * np.einsum("ij,ijk->ik", w, d)
    return out


def grav_rel_err_p99(sim) -> float:
    """99th-percentile relative force error of the run's gravity solver on
    its final state, against direct summation on a fixed target sample."""
    ps = sim.ps
    driver = getattr(sim.integrator, "driver", None)
    if driver is not None and sim.integrator.force_mode == "distributed":
        fresh = DistributedGravity(
            n_ranks=driver.n_ranks, theta=driver.theta, n_g=driver.n_g,
            leaf_size=driver.leaf_size, mixed_precision=driver.mixed_precision,
            backend=driver.backend,
        )
        acc = fresh.global_accel(ps)
    else:
        cfg = sim.integrator.cfg
        acc = tree_accel(
            ps.pos, ps.mass, ps.eps, theta=cfg.theta, n_g=cfg.n_g,
            leaf_size=cfg.leaf_size, mixed_precision=cfg.mixed_precision,
            backend=cfg.backend,
        ).acc
    targets = np.linspace(0, len(ps) - 1, GRAV_SAMPLE).astype(np.int64)
    ref = direct_accel(ps, targets)
    err = np.linalg.norm(acc[targets] - ref, axis=1) / np.linalg.norm(ref, axis=1)
    return float(np.percentile(err, 99))


def peak_rss_mb() -> tuple[float, float]:
    """(this process, largest reaped child) peak RSS [MB]."""
    main = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return main, child


# ----------------------------------------------------------- measurement
@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    gates: list[tuple[str, bool, str]]
    notes: list[str]


def _deltas(run: Run, key: str, what: str = "self_s") -> list[float]:
    """Raw seconds of one span (or serve time) in each timed step."""
    prev = run.samples[0]
    out = []
    for s in run.timed:
        out.append(getattr(s, what).get(key, 0.0) - getattr(prev, what).get(key, 0.0))
        prev = s
    return out


def _corrected_sum(run: Run, key: str, what: str = "self_s") -> float:
    return sum(d * s.factor for d, s in zip(_deltas(run, key, what), run.timed, strict=True))


def _count_delta(run: Run, key: str) -> int:
    return run.samples[-1].counts.get(key, 0) - run.samples[0].counts.get(key, 0)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(main: Run, traced: Run, grav_err: float,
              replayed: Replay) -> dict[str, tuple[float, str]]:
    n = max(len(traced.timed), 1)

    def span(key: str) -> float:
        return _corrected_sum(traced, key) / n

    def per_step(key: str) -> float:
        return _count_delta(traced, key) / n

    def rate(work: int, seconds_per_step: float) -> float:
        return work / (seconds_per_step * n) if seconds_per_step > 0 else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    tile_s = span("accel.grav_tile")
    out["accel.grav_tile_s"] = (tile_s, "s/step")
    out["accel.grav_tile_interactions_per_s"] = (
        rate(_count_delta(traced, "accel.tile_interactions"), tile_s), "1/s")
    out["accel.tree_build_s"] = (span("accel.tree_build"), "s/step")
    for stat in ("tree_builds", "tree_reuses", "grid_builds", "grid_reuses"):
        out[f"accel.{stat}"] = (per_step(f"accel.{stat}"), "count/step")
    out["accel.hydro_fast_path_ratio"] = (ratio(
        _count_delta(traced, "accel.refresh_hits"),
        _count_delta(traced, "accel.refresh_calls")), "ratio")

    out["gravity.tree_walk_s"] = (span("gravity.tree_walk"), "s/step")
    out["gravity.interactions"] = (per_step("interactions.gravity"), "count/step")
    out["gravity.mean_list_length"] = (ratio(
        _count_delta(traced, "gravity.list_sum"),
        _count_delta(traced, "gravity.lists")), "count")
    out["gravity.rel_err_p99"] = (grav_err, "ratio")

    out["sph.density_s"] = (span("sph.density"), "s/step")
    out["sph.h_sweeps"] = (per_step("sph.h_sweeps"), "count/step")
    out["sph.pair_gen_s"] = (span("sph.pair_gen"), "s/step")
    out["sph.candidate_pairs"] = (per_step("sph.candidate_pairs"), "count/step")
    out["sph.useful_pair_ratio"] = (ratio(
        _count_delta(traced, "sph.useful_pairs"),
        _count_delta(traced, "sph.candidate_pairs")), "ratio")
    force_s = span("sph.hydro_force")
    out["sph.hydro_force_s"] = (force_s, "s/step")
    out["sph.hydro_force_interactions_per_s"] = (
        rate(_count_delta(traced, "interactions.hydro_force"), force_s), "1/s")

    extracts = (traced.samples[-1].calls.get("surrogate.extract", 0)
                - traced.samples[0].calls.get("surrogate.extract", 0))
    out["surrogate.extract_s"] = (ratio(
        _corrected_sum(traced, "surrogate.extract"), extracts), "s/region")
    sizes = [len(r.region) for r in main.rec.requests]
    out["surrogate.region_particles"] = (ratio(sum(sizes), len(sizes)), "count/region")
    for what in ("voxelize", "predict", "devoxelize"):
        out[f"surrogate.{what}_s"] = (ratio(
            replayed.self_s.get(f"surrogate.{what}", 0.0), replayed.regions), "s/region")

    for key in ("serve.worker_busy_s", "serve.exposed_wait_s"):
        out[key] = (_corrected_sum(traced, key, "serve") / n, "s/step")
    m = traced.sim.server.metrics
    first, last = traced.samples[0].counts, traced.samples[-1].counts
    batches = m.batch_sizes[first["serve.batches"]:last["serve.batches"]]
    out["serve.mean_batch_size"] = (ratio(sum(batches), len(batches)), "count")
    lat = m.latency_steps[first["serve.latency_samples"]:last["serve.latency_samples"]]
    out["serve.latency_steps_p95"] = (
        float(np.percentile(lat, 95)) if lat else 0.0, "steps")
    out["serve.bytes_in"] = (per_step("serve.bytes_in"), "B/step")
    out["serve.bytes_out"] = (per_step("serve.bytes_out"), "B/step")

    for key in ("identify_sne", "pool_dispatch", "pool_flush", "pool_collect",
                "receive_sne"):
        out[f"core.{key}_s"] = (span(f"core.{key}"), "s/step")
    out["core.n_overflow"] = (float(_count_delta(traced, "core.n_overflow")), "count")

    for key in ("decompose", "exchange_particles", "exchange_let",
                "exchange_region_ghosts", "replace_by_pid"):
        out[f"fdps.{key}_s"] = (span(f"fdps.{key}"), "s/step")
    for label in COMM_LABELS:
        out[f"comm.{label}.bytes"] = (per_step(f"comm.{label}.bytes"), "B/step")
        out[f"comm.{label}.messages"] = (
            per_step(f"comm.{label}.messages"), "count/step")

    out["physics.cooling_s"] = (span("physics.cooling"), "s/step")

    out["host.ref_s"] = (_median(s.ref for s in main.timed), "s")
    out["host.step_wall_s"] = (_median(s.wall for s in main.timed), "s")

    layer_s = sum(sum(_deltas(traced, key)) for key in traced.samples[-1].self_s)
    out["trace.coverage"] = (ratio(layer_s, sum(s.wall for s in traced.timed)), "ratio")
    out["trace.overhead_ratio"] = (ratio(
        _median(s.corrected for s in traced.timed),
        _median(s.corrected for s in main.timed[: len(traced.timed)])), "ratio")
    return out


def end_to_end(main: Run, setups: list[Sample], rss: float,
               ops: tuple[int, int]) -> dict[str, tuple[float, str]]:
    attempted, failed = ops
    return {
        "step_s": (_median(s.corrected for s in main.timed), "s"),
        "setup_s": (_median(s.corrected for s in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "success_frac": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Result:
    kernel = RefKernel()
    ic = wl.make_ic(seed)
    n_steps = step_budget(wl, seconds)
    notes: list[str] = []
    gates: list[tuple[str, bool, str]] = []

    # 1. main run, untraced.
    main = Run(wl, seed, ic, kernel, Recorder(timed=False))
    with main.rec:
        main.setup()
        main.steps(n_steps)
        rss_main = peak_rss_mb()[0]
        main.close()
    rss_worker = peak_rss_mb()[1]
    notes.append(f"peak RSS main {rss_main:.1f} MB + worker {rss_worker:.1f} MB")

    # 2. more set-ups of the same seed (only set-up time needs them).
    setups = [main.samples[0]]
    for _ in range(0 if trace else N_SETUP - 1):
        extra = Run(wl, seed, ic, kernel, Recorder(timed=False))
        with extra.rec:
            extra.setup()
            extra.close()
        setups.append(extra.samples[0])

    # 3. traced run.
    traced = Run(wl, seed, ic, kernel, Recorder(timed=True))
    with traced.rec:
        traced.setup()
        traced.steps(n_steps if trace else TRACE_PREFIX)
        traced.close()
        # The replay runs under the timed recorder: it is where the
        # surrogate layer gets timed.
        replayed = replay(main, kernel, traced.rec)

    # ------------------------------------------------------------ checks
    for name, run in (("main", main), ("traced", traced)):
        bad = [f"step {i}: {s.problem}" for i, s in enumerate(run.samples) if not s.ok]
        gates.append((f"{name}_state", not bad and not run.crashed,
                      "; ".join(bad) or "finite, mass conserved on every step"))
        _due, sn_failed, detail = run.sn_ops()
        gates.append((f"{name}_sn_returns", sn_failed == 0, detail))
    gates.append(("surrogate_replay", replayed.mismatches == 0,
                  f"{replayed.regions - replayed.mismatches}/{replayed.regions} "
                  "served predictions equal a local sync replay"))
    grav_err = grav_rel_err_p99(main.sim)
    gates.append(("grav_rel_err_p99", grav_err < GRAV_ERR_P99_MAX,
                  f"{grav_err:.4g} < {GRAV_ERR_P99_MAX}"))
    k = len(traced.samples) - 1
    same_state = (not traced.crashed and not main.crashed
                  and traced.samples[k].digest == main.samples[k].digest)
    gates.append(("traced_equals_untraced", same_state,
                  f"traced ps.pack() after step {k} equals untraced"))
    diff = sorted({
        key
        for a, b in zip(main.samples, traced.samples, strict=False)
        for key in count_mismatch(a.counts, b.counts)
    })
    for i, s in enumerate(setups[1:], start=2):
        if s.digest != main.samples[0].digest:
            diff.append(f"setup {i} state")
        diff += [f"setup {i} {key}" for key in count_mismatch(main.samples[0].counts, s.counts)]
    gates.append(("counts_repeat", not diff,
                  "work counters repeat across runs of one seed and traced vs "
                  "untraced" if not diff else "differ: " + ", ".join(diff)))

    run_level_ok = all(ok for name, ok, _ in gates if name in (
        "surrogate_replay", "grav_rel_err_p99", "traced_equals_untraced", "counts_repeat"))
    main_ops = main.ops()
    traced_ops = traced.ops()
    if not run_level_ok:
        # A failed run-level check means no timed step can be trusted.
        main_ops = (main_ops[0], max(main_ops[1], main.planned))
        traced_ops = (traced_ops[0], max(traced_ops[1], traced.planned))
    attempted = main_ops[0] + traced_ops[0]
    failed = main_ops[1] + traced_ops[1]

    if trace:
        metrics = per_layer(main, traced, grav_err, replayed)
    else:
        metrics = end_to_end(main, setups, rss_main + rss_worker, main_ops)
    notes.append(
        f"{len(main.timed)} timed steps; step corrected "
        + " ".join(f"{s.corrected:.3f}" for s in main.timed)
        + "; raw " + " ".join(f"{s.wall:.3f}" for s in main.timed)
    )
    notes.append(
        f"traced: {len(traced.timed)} timed steps; step corrected "
        + " ".join(f"{s.corrected:.3f}" for s in traced.timed)
        + "; raw " + " ".join(f"{s.wall:.3f}" for s in traced.timed)
    )
    notes.append("setups corrected " + " ".join(f"{s.corrected:.3f}" for s in setups)
                 + "; raw " + " ".join(f"{s.wall:.3f}" for s in setups))
    correct = failed == 0 and all(ok for _, ok, _ in gates)
    return Result(correct, attempted, failed, metrics, gates, notes)
