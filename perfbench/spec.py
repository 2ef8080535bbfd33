"""What the benchmark reports: workloads, metric names, units and bounds.

This module is the one source of ``BENCHMARK.json`` (``run.py --manifest``
writes it) and of the metric sets ``run.py`` prints.  It imports nothing
from the program, so the manifest can be written without it.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Target length of the timed steps of one run; turned into a fixed step
#: count per workload, never used as a time budget.
RUN_SECONDS = 10

WORKLOADS = {
    "galaxy": "MW-mini disc, 8k particles on one rank: gravity is ~99% of the step "
    "while SPH, SN, serve and comm sit idle",
    "gasbox": "22^3 turbulent gas box on one rank, no stars: the gravity tile plus the "
    "SPH neighbor, density and hydro layers, no SN or comm traffic",
    "sn_burst": "5.8k gas plus 2 SNe per step on 2 ranks with one serve worker: the only "
    "load on the surrogate, serve, pool, fdps and comm layers",
}

#: (name, unit, better, bound).  Timings are host-corrected medians.
END_TO_END = [
    ("step_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("success_frac", "ratio", "higher", 0.05),
]

COMM_LABELS = ("exchange_particles", "exchange_let", "region_ghost", "pool_p2p")

#: (name, unit, better).  Per-step figures are means over the timed steps of
#: the traced run; per-region figures are means over the SN regions.
PER_LAYER = [
    ("accel.grav_tile_s", "s/step", "lower"),
    ("accel.grav_tile_interactions_per_s", "1/s", "higher"),
    ("accel.tree_build_s", "s/step", "lower"),
    ("accel.tree_builds", "count/step", "lower"),
    ("accel.tree_reuses", "count/step", "higher"),
    ("accel.grid_builds", "count/step", "lower"),
    ("accel.grid_reuses", "count/step", "higher"),
    ("accel.hydro_fast_path_ratio", "ratio", "higher"),
    ("gravity.tree_walk_s", "s/step", "lower"),
    ("gravity.interactions", "count/step", "lower"),
    ("gravity.mean_list_length", "count", "lower"),
    ("gravity.rel_err_p99", "ratio", "lower"),
    ("sph.density_s", "s/step", "lower"),
    ("sph.h_sweeps", "count/step", "lower"),
    ("sph.pair_gen_s", "s/step", "lower"),
    ("sph.candidate_pairs", "count/step", "lower"),
    ("sph.useful_pair_ratio", "ratio", "higher"),
    ("sph.hydro_force_s", "s/step", "lower"),
    ("sph.hydro_force_interactions_per_s", "1/s", "higher"),
    ("surrogate.extract_s", "s/region", "lower"),
    ("surrogate.region_particles", "count/region", "lower"),
    ("surrogate.voxelize_s", "s/region", "lower"),
    ("surrogate.predict_s", "s/region", "lower"),
    ("surrogate.devoxelize_s", "s/region", "lower"),
    ("serve.worker_busy_s", "s/step", "lower"),
    ("serve.exposed_wait_s", "s/step", "lower"),
    ("serve.mean_batch_size", "count", "higher"),
    ("serve.latency_steps_p95", "steps", "lower"),
    ("serve.bytes_in", "B/step", "lower"),
    ("serve.bytes_out", "B/step", "lower"),
    ("core.identify_sne_s", "s/step", "lower"),
    ("core.pool_dispatch_s", "s/step", "lower"),
    ("core.pool_flush_s", "s/step", "lower"),
    ("core.pool_collect_s", "s/step", "lower"),
    ("core.receive_sne_s", "s/step", "lower"),
    ("core.n_overflow", "count", "lower"),
    ("fdps.decompose_s", "s/step", "lower"),
    ("fdps.exchange_particles_s", "s/step", "lower"),
    ("fdps.exchange_let_s", "s/step", "lower"),
    ("fdps.exchange_region_ghosts_s", "s/step", "lower"),
    ("fdps.replace_by_pid_s", "s/step", "lower"),
    *(
        (f"comm.{label}.{what}", unit, "lower")
        for label in COMM_LABELS
        for what, unit in (("bytes", "B/step"), ("messages", "count/step"))
    ),
    ("physics.cooling_s", "s/step", "lower"),
    ("host.ref_s", "s", "lower"),
    ("host.step_wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
