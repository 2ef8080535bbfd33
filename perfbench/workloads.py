"""The three benchmark workloads: initial conditions and facade settings.

Every workload is built from the seed alone, and the program sees only the
generated particles.  Star formation is off everywhere, so N stays fixed
over a run: the figure of merit is the wall time of one fixed-dt step at
fixed N (Tables 3-4 of arXiv:2510.23330).  Every run is a closed loop: one
caller steps the simulation a fixed number of times.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import GalaxySimulation, ParticleSet, ParticleType, make_mw_mini
from repro.core.integrator import IntegratorConfig
from repro.sn.turbulence import make_turbulent_box

#: The paper's fixed global step [Myr] (2,000 yr).
DT = 2.0e-3
#: Supernovae fired on every step of ``sn_burst``.
SN_PER_STEP = 2
#: Upper bound on the steps of one ``sn_burst`` run: one progenitor pair
#: per step up to here, so no run outlives its supernova supply.
MAX_STEPS = 48


@dataclass(frozen=True)
class Workload:
    name: str
    _ic: Callable[[int], ParticleSet]
    #: Timed steps of one run at the committed ``run_seconds`` (scaled for
    #: other ``--seconds``, see ``harness.step_budget``).  About ten seconds
    #: of steps, more where the per-step cost varies from step to step.
    timed_steps: int
    sim_kwargs: dict = field(default_factory=dict)

    def make_ic(self, seed: int) -> ParticleSet:
        return self._ic(seed)

    def make_sim(self, ps: ParticleSet, seed: int) -> GalaxySimulation:
        cfg = IntegratorConfig(enable_star_formation=False, seed=seed)
        return GalaxySimulation(ps, dt=DT, config=cfg, seed=seed, **self.sim_kwargs)


def _galaxy_ic(seed: int) -> ParticleSet:
    return make_mw_mini(n_total=8000, seed=seed)


def _gasbox_ic(seed: int) -> ParticleSet:
    return make_turbulent_box(n_per_side=22, side=60.0, mach=2.0, seed=seed)


def _sn_burst_ic(seed: int) -> ParticleSet:
    """~5.8k turbulent gas in a 200 pc cube plus SN progenitors.

    Star k explodes mid-way through step k // SN_PER_STEP, so exactly
    SN_PER_STEP SNe fire on every step up to MAX_STEPS.  Stars sit at least
    one half region side (30 pc) inside the box faces, so every 60 pc
    region is full of gas.  The first SN of each step sits within 10 pc of
    x = 0, where the 2-rank multisection cuts the symmetric box, so its
    region straddles the cut and every step pays region-ghost traffic.
    """
    gas = make_turbulent_box(n_per_side=18, side=200.0, mach=2.0, seed=seed)
    rng = np.random.default_rng([seed, 1])
    n = SN_PER_STEP * MAX_STEPS
    pos = rng.uniform(-100.0 + 30.0, 100.0 - 30.0, (n, 3))
    pos[::SN_PER_STEP, 0] = rng.uniform(-10.0, 10.0, MAX_STEPS)
    k = np.arange(n)
    stars = ParticleSet.from_arrays(
        pos=pos,
        vel=np.zeros((n, 3)),
        mass=np.full(n, 10.0),
        eps=np.full(n, float(gas.eps[0])),
        pid=len(gas) + k,
        ptype=np.full(n, int(ParticleType.STAR), dtype=np.int8),
        tform=np.zeros(n),
        tsn=(k // SN_PER_STEP + 0.5) * DT,
    )
    return gas.append(stars)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("galaxy", _galaxy_ic, timed_steps=9),
        Workload("gasbox", _gasbox_ic, timed_steps=7),
        # SN blasts set the neighbor-grid cell size, so candidate pairs per
        # step jump between ~2.2M and ~3.2M: it needs the most steps.
        Workload(
            "sn_burst",
            _sn_burst_ic,
            timed_steps=10,
            sim_kwargs=dict(
                n_ranks=2,
                coupled_force_mode="distributed",
                serve_transport="process",
                serve_workers=1,
                n_pool=4,
                latency_steps=1,
            ),
        ),
    )
}
