"""Per-layer spans for the traced benchmark run.

The benchmark wraps public kasnerlab functions from outside the package: every
module namespace that binds a traced function gets the same wrapper (for
example `grids.fd_diff`, `geometry.fd_diff` and `asymdata.fd_diff`), and
`restore` puts the originals back.  Only the traced run imports this module.

A span runs from a wrapped call's entry to its exit.  Its self time is its
duration minus the durations of the wrapped calls made directly inside it.
Counts and bytes are exact and repeat from run to run; byte figures are
computed from array sizes, not measured.
"""

import functools
import sys
import time
import tracemalloc

# traced function -> the statistics reported for it
LAYERS = {
    "grids.fd_diff": ("calls", "self_s", "mb_moved"),
    "grids.log_time_cumint": ("calls", "self_s"),
    "grids.fd_time_diff": ("calls", "self_s"),
    "geometry.spatial_ricci": ("calls", "self_s"),
    "geometry.gamma_from_frame": ("calls", "self_s"),
    "geometry.coframe_from_frame": ("calls", "self_s"),
    "geometry.hamiltonian_residual": ("calls", "self_s"),
    "geometry.momentum_residual_evolved": ("calls", "self_s"),
    "geometry.torsion_residual": ("calls", "self_s"),
    "geometry.spacetime_ricci": ("calls", "self_s"),
    "iteration.build_tower": ("calls", "self_s", "level_mb"),
    "iteration.advance_k": ("calls", "self_s", "peak_mb"),
    "iteration.advance_e": ("calls", "self_s", "peak_mb"),
    "iteration.zeroth_iterate": ("calls", "self_s"),
    "asymdata.assemble_dataset": ("calls", "self_s"),
    "asymdata.solve_c11": ("calls", "self_s"),
    "asymdata.solve_kappa23": ("calls", "self_s"),
    "asymdata.solve_kappa13": ("calls", "self_s"),
    "asymdata.momentum_residual": ("calls", "self_s"),
    "asymdata.frame_momentum_residual": ("calls", "self_s"),
    "families.u_wave_dataset": ("s",),
    "families.random_dataset": ("s",),
}

UNITS = {"calls": "count", "self_s": "s", "s": "s", "mb_moved": "MB", "level_mb": "MB", "peak_mb": "MB"}

# every per-layer metric, in report order: (name, unit)
METRICS = [(f"{fn}.{stat}", UNITS[stat]) for fn, stats in LAYERS.items() for stat in stats]


def _fd_mb(args, kwargs, out):
    values = args[0] if args else kwargs["values"]
    return (values.nbytes + out.nbytes) / 1e6


def _level_mb(args, kwargs, levels):
    return sum(a.nbytes for lv in levels for a in (lv.e, lv.omega, lv.k)) / 1e6


# statistics summed over calls from the arguments and the result
_SUMMED = {"grids.fd_diff": ("mb_moved", _fd_mb), "iteration.build_tower": ("level_mb", _level_mb)}


def package_modules():
    return [
        m for name, m in sorted(sys.modules.items()) if name == "kasnerlab" or name.startswith("kasnerlab.")
    ]


class Tracer:
    """Wraps the LAYERS functions and accumulates per-function statistics
    while active.  `start`/`stop` bracket one repetition; `stop` appends that
    repetition's metrics to `snapshots`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.memory = False  # tracemalloc inside peak_mb spans; it slows them
        self.stats = {}
        self.snapshots = []
        self._open = []  # summed child durations of each open span
        self._saved = []  # (module, attribute, original)

    def _add(self, qualname, stat, value, combine=float.__add__):
        st = self.stats.setdefault(qualname, {})
        st[stat] = combine(st.get(stat, 0.0), float(value))

    def wrap(self, qualname, fn):
        summed = _SUMMED.get(qualname)
        peak = "peak_mb" in LAYERS.get(qualname, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            t0 = self.clock()
            memory = peak and self.memory
            if memory:
                # traced memory counts only what the span allocates
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if memory:
                    self._add(qualname, "peak_mb", tracemalloc.get_traced_memory()[1] / 1e6, max)
                    tracemalloc.stop()
                span = self.clock() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += span
                self._add(qualname, "calls", 1)
                self._add(qualname, "s", span)
                self._add(qualname, "self_s", span - child)
            if summed is not None:
                self._add(qualname, summed[0], summed[1](args, kwargs, out))
            return out

        return wrapper

    def install(self):
        """Wrap each LAYERS function at every kasnerlab namespace binding it."""
        from kasnerlab import asymdata, families, geometry, grids, iteration  # noqa: F401

        modules = package_modules()
        for qualname in LAYERS:
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"kasnerlab.{mod_name}"], fn_name)
            wrapper = self.wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def start(self):
        self.stats = {}
        self.active = True

    def stop(self):
        self.active = False
        self.snapshots.append(self.metrics())

    def metrics(self):
        """Every METRICS entry for the statistics gathered since `start`;
        a function that was not called, and peak_mb without `memory`, report
        zero."""
        out = {}
        for name, _unit in METRICS:
            qualname, stat = name.rsplit(".", 1)
            value = self.stats.get(qualname, {}).get(stat, 0.0)
            out[name] = int(value) if stat == "calls" else value
        return out
