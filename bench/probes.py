"""Instrumentation installed from outside the ``vmpadmm`` package.

``Timeline`` is the untraced run's only instrumentation: one timestamp at the
entry of each solve (``cli.run_solve``), at the return of
``VmPadmmRun.__init__``, at the entry of each ``VmPadmmRun.step`` and at each
``PsdOperator`` construction; ``run.py`` takes ``cli.main`` entry and exit
itself.

``Tracer`` is the opt-in traced run: it wraps the public functions of every
layer (``linalg``, ``schedule``, ``hpe``, ``problems``, ``admm``, ``cli``) and
the LAPACK-backed ``numpy.linalg`` calls, and keeps one span per call
(name, start, end, parent) in flat arrays.  Self times come from the child
time each span accumulates.  Both are removed again by ``Patcher.restore``.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from array import array
from functools import partial

import numpy as np

clock = time.perf_counter

PHASE_OTHER, PHASE_BUILD, PHASE_ITER = 0, 1, 2


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, original, value):
        """Replace ``original`` under every name a vmpadmm module binds it to."""
        hits = [(m, k) for m in self.modules for k, v in vars(m).items() if v is original]
        if not hits:
            raise LookupError(f"{original.__qualname__} is bound in no vmpadmm module")
        for m, k in hits:
            self.set(m, k, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


MAIN, EXIT, SOLVE, INIT, STEP, TICK = range(6)  # Timeline event kinds


class HostSpeed:
    """A fixed probe of how fast the host runs this process right now.

    The virtual CPUs this benchmark was written on switch, every few to few
    tens of seconds, between a fast state and one in which the same code takes
    1.3-1.6x longer, CPU time included; no steal time shows.  A 40-second run
    can fall wholly in either state.  The probe is a fixed mix of the kinds of
    work the solver does: an interpreted loop, small dense kernels and an
    eigenvalue decomposition of a mid-sized matrix.  On that host its best of
    ``REPEATS`` takes about 1.3 ms in the fast state and 1.8-2.0 ms in the
    slow one; ``factor`` is ``REF_S`` over that time, the speed of the moment
    relative to the fast state.
    """

    PERIOD_S = 0.25  # probe again after this much run time
    REPEATS = 2
    REF_S = 1.3e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        small, mid = rng.standard_normal((30, 30)), rng.standard_normal((120, 120))
        self._small, self._mid = small + small.T, mid + mid.T
        self.times: list[float] = []

    def _kernel(self):
        acc = 0
        for i in range(6000):
            acc += i * i
        for _ in range(8):
            np.linalg.eigvalsh(self._small)
            (self._small @ self._small).sum()
        np.linalg.eigvalsh(self._mid)
        return acc

    def factor(self) -> float:
        best = float("inf")
        for _ in range(self.REPEATS):
            t0 = clock()
            self._kernel()
            best = min(best, clock() - t0)
        self.times.append(best)
        return self.REF_S / best


class Timeline:
    """Untraced timestamps, as parallel arrays of event kinds and times.

    Events: ``SOLVE`` at the entry of ``cli.run_solve``, ``INIT`` at the
    return of ``VmPadmmRun.__init__``, ``STEP`` at the entry of
    ``VmPadmmRun.step`` and ``TICK`` at each ``PsdOperator`` construction;
    ``run.py`` adds ``MAIN`` and ``EXIT`` around each ``cli.main`` call.  The
    ticks carry no metric of their own: they give the host-speed probe a
    chance to run every few milliseconds, also inside a long set-up.

    Times run on a host-speed clock: each stretch of wall time is scaled by
    the ``HostSpeed`` factor measured at its start, and the probes' own time
    is left out.  ``raw`` keeps the plain wall-clock reading of each event,
    also without the probes.
    """

    def __init__(self):
        self.speed = HostSpeed()
        self.kinds, self.times, self.raw = array("B"), array("d"), array("d")
        self._now, self._raw_now, self._last = 0.0, 0.0, None
        self._factor, self._probed = 1.0, -float("inf")

    def mark(self, kind: int):
        t = clock()
        if self._last is not None:
            self._now += (t - self._last) * self._factor
            self._raw_now += t - self._last
        self._last = t
        self.kinds.append(kind)
        self.times.append(self._now)
        self.raw.append(self._raw_now)
        if t - self._probed > self.speed.PERIOD_S:
            self._factor = self.speed.factor()
            self._probed = self._last = clock()

    def take(self) -> tuple[bytes, np.ndarray, np.ndarray]:
        """Return the events recorded so far and start new arrays."""
        out = self.kinds.tobytes(), np.array(self.times), np.array(self.raw)
        self.kinds, self.times, self.raw = array("B"), array("d"), array("d")
        return out

    def install(self, vm, patch: Patcher):
        mark = self.mark
        run_solve = vm.cli.run_solve
        run_cls, op_cls = vm.admm.VmPadmmRun, vm.linalg.PsdOperator
        init, step, post_init = run_cls.__init__, run_cls.step, op_cls.__post_init__

        def run_solve_hook(args):
            mark(SOLVE)
            return run_solve(args)

        def init_hook(run, *args, **kwargs):
            init(run, *args, **kwargs)
            mark(INIT)

        def step_hook(run):
            mark(STEP)
            return step(run)

        def post_init_hook(op):
            mark(TICK)
            post_init(op)

        patch.function(run_solve, run_solve_hook)
        patch.set(run_cls, "__init__", init_hook)
        patch.set(run_cls, "step", step_hook)
        patch.set(op_cls, "__post_init__", post_init_hook)


def solve_events(kinds: bytes) -> list[tuple[int, int | None, list[int], int]]:
    """Per solve: event indices of its start, ``INIT``, ``STEP``s and end
    (the next solve's start or the ``EXIT`` of its ``cli.main`` call)."""
    solves = []
    for i, kind in enumerate(kinds):
        if kind in (SOLVE, EXIT) and solves and solves[-1][3] is None:
            solves[-1][3] = i
        if kind == SOLVE:
            solves.append([i, None, [], None])
        elif kind == INIT:
            solves[-1][1] = i
        elif kind == STEP:
            solves[-1][2].append(i)
    return [tuple(s) for s in solves]


def deep_nbytes(root) -> int:
    """Bytes reachable from ``root``: numpy buffers plus object headers.

    Classes, modules and functions are not followed, so the walk stays within
    the data the object graph holds.
    """
    seen, stack, total = set(), [root], 0
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.base is None:
                total += obj.nbytes
            else:
                stack.append(obj.base)
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _flop_computed(name, args) -> float:
    """Dense-kernel operation count from argument shapes (Golub & Van Loan)."""
    a = np.shape(args[0])
    if name == "eigvalsh":
        return 4.0 / 3.0 * a[0] ** 3
    if name == "eigh":
        return 9.0 * a[0] ** 3
    if name == "lstsq":  # SVD-based least squares
        m, n = max(a), min(a)
        return 4.0 * m * n * n + 8.0 * n**3
    b = np.shape(args[1])  # solve: LU plus triangular solves
    return 2.0 / 3.0 * a[0] ** 3 + 2.0 * a[0] ** 2 * (b[1] if len(b) > 1 else 1)


LAPACK = ("eigh", "eigvalsh", "lstsq", "solve")


def _layer(obj) -> str:
    """The vmpadmm module an object is defined in: ``vmpadmm.admm`` -> ``admm``."""
    return obj.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder over the public functions of the six layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")  # time covered by direct children
        self.phase = array("b")
        self.flop = array("d")
        self._stack = [-1]
        self._phase = PHASE_OTHER
        self.retained: list[tuple[int, int]] = []  # per solve: run-object growth in bytes, iterations
        self._run, self._run_bytes = None, 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.phase.append(self._phase)
        self.child.append(0.0)
        self.flop.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int):
        t1 = clock()
        self.end[idx] = t1
        self._stack.pop()
        parent = self._stack[-1]
        if parent >= 0:
            self.child[parent] += t1 - self.start[idx]

    def span(self, name: str, fn, flop=None):
        """``fn`` wrapped to record one span per call; ``flop(args)``, if
        given, sets the span's computed operation count."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if flop is not None:
                    self.flop[idx] = flop(args)

        return traced

    def _exclude(self, t0: float):
        """Keep the time since ``t0`` (spent measuring) out of the open span's self time."""
        if self._stack[-1] >= 0:
            self.child[self._stack[-1]] += clock() - t0

    def install(self, vm, patch: Patcher):
        span = self.span
        schedule, admm, hpe, problems, linalg = vm.schedule, vm.admm, vm.hpe, vm.problems, vm.linalg

        for name in LAPACK:
            fn = getattr(np.linalg, name)
            patch.set(np.linalg, name, span(f"numpy.linalg.{name}", fn, partial(_flop_computed, name)))

        for fn in (
            schedule.assemble_Mk, linalg.operator_leq, admm.compute_sigma_theta,
            admm.solve_x_subproblem, admm.solve_y_subproblem, admm.update_multiplier,
            admm.compute_d0_admm, problems.generate, problems.reference_solve, vm.cli.main,
        ):
            patch.function(fn, span(f"{_layer(fn)}.{fn.__name__}", fn))

        for cls, methods in (
            (schedule.MetricSchedule, ("validate",)),
            (admm.VmPadmmRun, ("step", "pointwise_kkt_certificate", "ergodic_kkt_certificate")),
            (hpe.HpeState, ("add_iterate", "fejer_check", "ergodic_point")),
            (problems.FunctionDescriptor, ("membership_distance", "sample_domain", "values")),
            (linalg.PsdOperator, ("__init__", "seminorm", "dual_seminorm_general", "inverse")),
        ):
            for meth in methods:
                patch.set(cls, meth, span(f"{_layer(cls)}.{cls.__name__}.{meth}", getattr(cls, meth)))

        # These boundaries also set the phase that spans are attributed to.
        load, run_solve, init = schedule.load_schedule, vm.cli.run_solve, admm.VmPadmmRun.__init__
        patch.function(load, self._load_schedule(span("schedule.load_schedule", load)))
        patch.function(run_solve, self._run_solve(span("cli.run_solve", run_solve)))
        patch.set(admm.VmPadmmRun, "__init__", self._run_init(span("admm.VmPadmmRun.__init__", init)))

    def _load_schedule(self, traced):
        def hook(*args, **kwargs):
            self._phase = PHASE_BUILD
            try:
                return traced(*args, **kwargs)
            finally:
                self._phase = PHASE_OTHER

        return hook

    def _run_init(self, traced):
        def hook(run, *args, **kwargs):
            traced(run, *args, **kwargs)
            self._phase = PHASE_ITER
            t0 = clock()
            self._run, self._run_bytes = run, deep_nbytes(run)
            self._exclude(t0)

        return hook

    def _run_solve(self, traced):
        def hook(args):
            self._phase = PHASE_OTHER
            self._run = None
            try:
                return traced(args)
            finally:
                if self._run is not None:
                    t0 = clock()
                    self.retained.append((deep_nbytes(self._run) - self._run_bytes, self._run.k))
                    self._run = None
                    self._exclude(t0)

        return hook

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "child": np.frombuffer(self.child),
            "phase": np.frombuffer(self.phase, dtype=np.int8),
            "flop": np.frombuffer(self.flop),
        }

    def layer_metrics(self, marks: list[int]) -> dict[str, float]:
        """Per-layer metrics from the spans; ``marks`` are the span counts at
        each pass boundary.  Sums are per pass (median over passes), counts
        per pass or per certified iteration, ``_ms_p50`` the median call."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = dur - a["child"]
        n_pass = len(marks) - 1
        pass_of = np.searchsorted(marks, np.arange(len(dur)), side="right") - 1

        def sel(name, phase=None):
            mask = a["name"] == self._ids.get(name, -1)
            return mask if phase is None else mask & (a["phase"] == phase)

        def per_pass(values, mask):
            return float(np.median([values[mask & (pass_of == p)].sum() for p in range(n_pass)]))

        def p50_ms(mask, values=dur):
            return float(np.median(values[mask])) * 1e3

        def count(name):
            return int(sel(name).sum()) / n_pass

        steps = int(sel("admm.VmPadmmRun.step").sum())

        def per_iter(name):
            return int(sel(name, PHASE_ITER).sum()) / steps

        lapack = np.isin(a["name"], [self._ids.get(f"numpy.linalg.{n}", -1) for n in LAPACK])
        sampler = sel("problems.FunctionDescriptor.sample_domain") | sel("problems.FunctionDescriptor.values")
        sampler_by_parent = np.bincount(a["parent"][sampler], weights=dur[sampler], minlength=len(dur))
        init, ref = sel("admm.VmPadmmRun.__init__"), sel("problems.reference_solve")
        return {
            "cli.solve_s": per_pass(dur, sel("cli.run_solve")),
            "cli.self_s": per_pass(own, sel("cli.run_solve")),
            "schedule.build_s": per_pass(dur, sel("schedule.load_schedule")),
            "schedule.validate_s": per_pass(dur, sel("schedule.MetricSchedule.validate")),
            "schedule.operator_leq_calls": count("linalg.operator_leq"),
            "schedule.assemble_Mk_calls": count("schedule.assemble_Mk"),
            "schedule.assemble_Mk_ms_p50": p50_ms(sel("schedule.assemble_Mk")),
            "schedule.realized_per_used":
                int(sel("linalg.PsdOperator.__init__", PHASE_BUILD).sum()) / (3 * steps),
            "admm.compute_sigma_theta_s": per_pass(dur, sel("admm.compute_sigma_theta")),
            "admm.run_init_s": per_pass(dur, init) - per_pass(dur, ref),
            "admm.step_ms_p50": p50_ms(sel("admm.VmPadmmRun.step")),
            "admm.step_self_ms_p50": p50_ms(sel("admm.VmPadmmRun.step"), own),
            "admm.solve_x_ms_p50": p50_ms(sel("admm.solve_x_subproblem")),
            "admm.solve_y_ms_p50": p50_ms(sel("admm.solve_y_subproblem")),
            "admm.update_multiplier_ms_p50": p50_ms(sel("admm.update_multiplier")),
            "admm.pointwise_cert_ms_p50": p50_ms(sel("admm.VmPadmmRun.pointwise_kkt_certificate")),
            "admm.ergodic_cert_ms_p50": p50_ms(sel("admm.VmPadmmRun.ergodic_kkt_certificate")),
            "admm.certified_iters": steps / n_pass,
            "admm.retained_kb_per_iter": sum(b for b, _ in self.retained) / 1024.0
            / sum(k for _, k in self.retained),
            "hpe.add_iterate_ms_p50": p50_ms(sel("hpe.HpeState.add_iterate")),
            "hpe.fejer_check_ms_p50": p50_ms(sel("hpe.HpeState.fejer_check")),
            "hpe.ergodic_point_ms_p50": p50_ms(sel("hpe.HpeState.ergodic_point")),
            "problems.generate_s": per_pass(dur, sel("problems.generate")),
            "problems.reference_solve_s": per_pass(dur, ref),
            "problems.membership_distance_calls": count("problems.FunctionDescriptor.membership_distance"),
            "problems.sampler_ms_p50": float(np.median(
                sampler_by_parent[sel("admm.VmPadmmRun.ergodic_kkt_certificate")])) * 1e3,
            "linalg.psd_ctor_per_iter": per_iter("linalg.PsdOperator.__init__"),
            "linalg.psd_ctor_s": per_pass(dur, sel("linalg.PsdOperator.__init__")),
            "linalg.seminorm_calls_per_iter": per_iter("linalg.PsdOperator.seminorm"),
            "linalg.dual_seminorm_general_ms_p50": p50_ms(sel("linalg.PsdOperator.dual_seminorm_general")),
            "linalg.lapack_eigh_per_iter": per_iter("numpy.linalg.eigh"),
            "linalg.lapack_eigvalsh_per_iter": per_iter("numpy.linalg.eigvalsh"),
            "linalg.lapack_lstsq_per_iter": per_iter("numpy.linalg.lstsq"),
            "linalg.lapack_solve_calls": count("numpy.linalg.solve"),
            "linalg.lapack_s": per_pass(own, lapack),
            "linalg.lapack_flop_computed": float(a["flop"].sum()) / n_pass,
        }

    def save(self, path: str):
        """Write the spans (and the id -> name table) as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())
