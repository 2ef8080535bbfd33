"""Spans and counts taken from outside the program, around the public
functions of each layer.

A :class:`Recorder` replaces each listed function or method by a wrapper
for the duration of one run and restores the originals afterwards.  In the
untraced run it installs only the hooks that count work or capture serve
traffic (no clock reads); in the traced run every hook also times its call.
A span's *self* time is its wall time minus the time of the wrapped calls
nested inside it, so ``tree_accel`` self time excludes the gravity tiles it
calls and ``compute_density`` self time excludes pair generation.

Span names are ``<module>.<what>``: the module prefix is the benchmark's
layer, the part after it names the wrapped call.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict

import repro.core.integrator as integrator_mod
import repro.core.runner.coupled as coupled_mod
import repro.fdps.distributed as distributed_mod
import repro.fdps.let as let_mod
import repro.gravity.treegrav as treegrav_mod
import repro.sph.density as density_mod
import repro.sph.forces as forces_mod
import repro.surrogate.devoxelize as devoxelize_mod
import repro.surrogate.voxelize as voxelize_mod
from repro.accel.backends import get_backend
from repro.accel.engine import ForceEngine
from repro.accel.index import SpatialIndex
from repro.core.pool import PoolManager
from repro.fdps.particles import ParticleSet
from repro.physics.cooling import CoolingModel
from repro.serve import SurrogateServer
from repro.sph.neighbors import NeighborGrid
from repro.surrogate.model import SNSurrogate

#: Work counters that only the traced run records (they ride on a timed
#: hook); the exact-repeat check compares every other counter.
TRACED_ONLY = frozenset({"accel.tile_interactions"})


def _count_tile(rec, args, kwargs, out) -> None:
    # grav_tile(self, target_pos, target_eps, source_pos, ...)
    rec.work["accel.tile_interactions"] += len(args[1]) * len(args[3])


def _count_density(rec, args, kwargs, out) -> None:
    rec.work["sph.h_sweeps"] += out.iterations
    if out.pairs is not None:
        rec.work["sph.useful_pairs"] += len(out.pairs[0])


def _count_pairs(rec, args, kwargs, out) -> None:
    # compact_self_pairs caches its list on the grid; a repeated call hands
    # back the same arrays and generated nothing.
    last = rec.last_pairs
    if last is not None and last() is out[0]:
        return
    rec.last_pairs = weakref.ref(out[0])
    rec.work["sph.candidate_pairs"] += len(out[0])


def _count_refresh(rec, args, kwargs, out) -> None:
    rec.work["accel.refresh_calls"] += 1
    rec.work["accel.refresh_hits"] += out is not None


def _capture_submit(rec, args, kwargs, out) -> None:
    rec.requests.append(out)


def _capture_collect(rec, args, kwargs, out) -> None:
    step = args[1] if len(args) > 1 else kwargs["step"]
    rec.responses.extend((step, r) for r in out)


def _capture_drain(rec, args, kwargs, out) -> None:
    rec.responses.extend((None, r) for r in out)


def _hooks() -> list[tuple[object, str, str, object, bool]]:
    """(owner, attribute, span name, after-call hook, install untraced).

    A hook without a span name only captures; it is never timed, so the
    pool spans around it keep their full time.
    """
    backend_cls = type(get_backend())
    return [
        (backend_cls, "grav_tile", "accel.grav_tile", _count_tile, False),
        (SpatialIndex, "tree_for", "accel.tree_build", None, False),
        (SpatialIndex, "grid_for", "accel.grid_build", None, False),
        (ForceEngine, "refresh_hydro", "accel.refresh_hydro", _count_refresh, True),
        (treegrav_mod, "tree_accel", "gravity.tree_walk", None, False),
        (density_mod, "compute_density", "sph.density", _count_density, True),
        (NeighborGrid, "compact_self_pairs", "sph.pair_gen", _count_pairs, True),
        (NeighborGrid, "candidate_pairs", "sph.pair_gen", _count_pairs, True),
        (forces_mod, "compute_hydro_forces", "sph.hydro_force", None, False),
        (voxelize_mod, "extract_region", "surrogate.extract", None, False),
        (voxelize_mod, "voxelize_particles", "surrogate.voxelize", None, False),
        (SNSurrogate, "predict_batch", "surrogate.predict", None, False),
        (devoxelize_mod, "devoxelize_to_particles", "surrogate.devoxelize", None, False),
        (SurrogateServer, "submit", None, _capture_submit, True),
        (SurrogateServer, "collect", None, _capture_collect, True),
        (SurrogateServer, "collect_all", None, _capture_drain, True),
        (integrator_mod.SurrogateLeapfrog, "identify_sne", "core.identify_sne", None, False),
        (coupled_mod.CoupledRunner, "identify_sne", "core.identify_sne", None, False),
        (PoolManager, "dispatch", "core.pool_dispatch", None, False),
        (PoolManager, "flush", "core.pool_flush", None, False),
        (PoolManager, "collect", "core.pool_collect", None, False),
        (integrator_mod.SurrogateLeapfrog, "receive_sne", "core.receive_sne", None, False),
        (coupled_mod.CoupledRunner, "receive_sne", "core.receive_sne", None, False),
        (distributed_mod.DistributedGravity, "decompose", "fdps.decompose", None, False),
        (distributed_mod.DistributedGravity, "exchange_particles",
         "fdps.exchange_particles", None, False),
        (distributed_mod.DistributedGravity, "exchange_region_ghosts",
         "fdps.exchange_region_ghosts", None, False),
        (let_mod, "exchange_let", "fdps.exchange_let", None, False),
        (ParticleSet, "replace_by_pid", "fdps.replace_by_pid", None, False),
        (CoolingModel, "integrate", "physics.cooling", None, False),
    ]


class Recorder:
    """Self time, call counts, work counts and captured serve traffic of
    one run.  ``timed=False`` installs only the counting/capturing hooks."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.requests: list = []
        self.responses: list = []
        self.last_pairs = None
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- install
    def install(self) -> None:
        for owner, attr, name, after, untraced in _hooks():
            if self.timed or untraced:
                self._patch(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, name: str, after) -> None:
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, after))
            return
        # A module-level function: rebind it in every repro module that
        # imported it by name, so each call site sees the wrapper.
        orig = getattr(owner, attr)
        wrapper = self._wrap(orig, name, after)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and mod.__dict__.get(attr) is orig
            ):
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _wrap(self, fn, name: str, after):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.timed and name is not None:
                stack = rec._stack
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    rec.self_s[name] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
            else:
                out = fn(*args, **kwargs)
            if name is not None:
                rec.calls[name] += 1
            if after is not None:
                after(rec, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper
