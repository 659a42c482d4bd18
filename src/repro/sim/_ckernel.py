"""Compiled hot loop for :class:`~repro.sim.cluster.ClusterSimulator`.

The scalar loop in :mod:`repro.sim.cluster` is the executable spec and
the universal fallback; this module compiles ``_kernel.c`` — a literal
C transcription of the same event loop — when a C compiler and
``cffi`` are available, for well over an order of magnitude. Everything
is gated:

* Build failures, a missing compiler, or a missing ``cffi`` simply
  disable the kernel (``load()`` returns None, :func:`refusal` says
  why) and the scalar loop runs instead.
* The kernel reimplements PCG64 (XSL-RR 128/64) for its scalar draws:
  uniform doubles and ``Generator.choice``'s bounded index.
  ``load()`` verifies both against ``numpy.random.Generator`` bit for
  bit before accepting the build — if NumPy ever changed its PCG64 or
  its bounded-integer algorithm, the kernel would refuse itself rather
  than silently diverge.
* :func:`try_run` returns None for configurations the kernel does not
  cover (non-PCG64 bit generators, ``FailureModel`` subclasses, more
  than eight re-fate outcomes), falling back to the scalar loop.

Builds are cached under ``$XDG_CACHE_HOME/repro-ckernel/<hash>`` keyed
by the C source, so the compile cost is paid once per source change.

The monitor stays in Python: the kernel exits at every tick, the PCG64
position and its half-word cache (``has_uint32``/``uinteger``, which
``choice`` and constraint sampling's ``integers`` use) are written back
into the real bit generator, the monitor draws its vectorized noise,
and the possibly-advanced state is handed back to C. The fleet arrays
are shared buffers — C writes them in place, the monitor reads them
directly, nothing is synced.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np

from ..core.table import Table
from ..traces.schema import TASK_EVENT_SCHEMA, TaskEvent
from .churn import sample_outages
from .failures import FailureModel
from .machine import FleetState
from .monitor import UsageMonitor
from .scheduler import PLACEMENT_POLICIES
from .task import TaskColumns

__all__ = ["load", "refusal", "try_run"]

_CDEF = """
typedef struct {
    uint64_t pcg_s_hi, pcg_s_lo, pcg_i_hi, pcg_i_lo;
    int32_t pcg_has_uint32;
    uint32_t pcg_uinteger;
    double *log_time;
    int64_t *log_row;
    int8_t *log_etype;
    int64_t *log_machine;
    int64_t log_n, log_cap;
    int64_t pend_n;
    int64_t c_finish, c_fail, c_kill, c_evict, c_lost, c_submitted,
        c_scheduled;
    int64_t n_finished, n_abnormal;
    double exit_time;
    int32_t error;
    ...;
} SimState;

SimState *sim_new(int32_t n_tasks, int32_t n_m, int32_t policy,
                  int32_t preemption, double horizon, double period,
                  double resubmit_prob, int32_t max_resubmits,
                  double *submit_time, int16_t *priority, int8_t *band,
                  double *cpu_req, double *mem_req, double *duration,
                  double *cpu_eff, double *mem_eff, double *page_cache,
                  int8_t *fate0, int32_t *mask_idx, uint8_t *mask_pool,
                  double *cap, double *free_cpu, double *free_mem,
                  double *cpu_base, double *mem_base, double *mem_assigned,
                  double *page_base, double *cpu_band, double *mem_band,
                  int64_t *n_running, uint8_t *avail);
void sim_free(SimState *s);
void sim_set_run_rule(SimState *s, int32_t code, double lo, double hi);
void sim_set_refate(SimState *s, int32_t n, double *cdf, int8_t *codes);
void sim_push_tick(SimState *s, double time);
void sim_push_churn(SimState *s, double time, int32_t up, int32_t machine);
int sim_run(SimState *s);
int64_t sim_still_running(SimState *s);
void pcg_fill(uint64_t s_hi, uint64_t s_lo, uint64_t i_hi, uint64_t i_lo,
              double *out, int n);
void pcg_bounded_fill(uint64_t *st, uint32_t *cache, uint32_t n,
                      uint32_t *out, int count);
"""

_MASK64 = (1 << 64) - 1

#: ``(kernel, refusal)`` once :func:`load` has run: the (ffi, lib) pair
#: or None, and why it was refused (None when it loaded).
_loaded: tuple | None = None


def _build():
    """Compile (or load from cache) the kernel; raises on any failure."""
    from cffi import FFI

    src_path = Path(__file__).with_name("_kernel.c")
    source = src_path.read_text()
    key = hashlib.sha256((_CDEF + source).encode()).hexdigest()[:16]
    module_name = f"_repro_sim_kernel_{key}"
    cache_root = Path(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    )
    build_dir = cache_root / "repro-ckernel" / key
    so_path = next(build_dir.glob(f"{module_name}*.so"), None)
    if so_path is None:
        build_dir.mkdir(parents=True, exist_ok=True)
        ffibuilder = FFI()
        ffibuilder.cdef(_CDEF)
        ffibuilder.set_source(
            module_name, source, extra_compile_args=["-O2"]
        )
        so_path = Path(
            ffibuilder.compile(tmpdir=str(build_dir), verbose=False)
        )
    spec = importlib.util.spec_from_file_location(module_name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _selftest(ffi, lib) -> bool:
    """Verify the C PCG64 draws against NumPy's, bit for bit.

    Covers ``Generator.random`` and the bounded index of
    ``Generator.choice`` — the drawn values and the final bit-generator
    state, half-word cache included. The seeds are deliberately fixed
    constants: each C stream is compared against one fixed NumPy
    reference.
    """
    bitgen = np.random.PCG64(1234567)  # reprolint: disable=REP102
    state = bitgen.state["state"]
    out = ffi.new("double[]", 64)
    lib.pcg_fill(
        state["state"] >> 64,
        state["state"] & _MASK64,
        state["inc"] >> 64,
        state["inc"] & _MASK64,
        out,
        64,
    )
    reference = np.random.Generator(bitgen).random(64)  # reprolint: disable=REP102
    if list(out) != reference.tolist():
        return False
    # n == 2**31 + 1 rejects about half its draws. choice(n) draws
    # exactly like choice(np.arange(n)) without materializing the range;
    # ``primed`` enters with the half-word cache set, as it is after
    # constraint sampling's ``integers`` call.
    for n, primed in ((1, True), (2, False), (7, True), (1000, False),
                      (2**31 + 1, True)):
        gen = np.random.Generator(np.random.PCG64(n))
        if primed:
            gen.integers(0, 7)
        before = gen.bit_generator.state
        st = ffi.new(
            "uint64_t[4]",
            [
                before["state"]["state"] >> 64,
                before["state"]["state"] & _MASK64,
                before["state"]["inc"] >> 64,
                before["state"]["inc"] & _MASK64,
            ],
        )
        cache = ffi.new(
            "uint32_t[2]", [before["has_uint32"], before["uinteger"]]
        )
        drawn = ffi.new("uint32_t[]", 128)
        lib.pcg_bounded_fill(st, cache, n, drawn, 128)
        reference = [int(gen.choice(n)) for _ in range(128)]
        after = gen.bit_generator.state
        if (
            list(drawn) != reference
            or (st[0] << 64 | st[1]) != after["state"]["state"]
            or (cache[0], cache[1]) != (after["has_uint32"], after["uinteger"])
        ):
            return False
    return True


def load():
    """The (ffi, lib) pair, or None when the kernel is unavailable."""
    global _loaded
    if _loaded is None:
        try:
            ffi, lib = _build()
            ok = _selftest(ffi, lib)
        except Exception as exc:  # no cffi, no compiler, failed compile
            _loaded = (None, f"{type(exc).__name__}: {exc}")
        else:
            _loaded = (
                ((ffi, lib), None)
                if ok
                else (None, "selftest mismatch: C PCG64 draws differ "
                            "from numpy.random.Generator")
            )
    return _loaded[0]


def refusal() -> str | None:
    """Why :func:`load` refused the kernel; None when it loaded."""
    load()
    return _loaded[1]


def _f8(arr: np.ndarray, ffi):
    return ffi.cast("double *", arr.ctypes.data)


def try_run(sim, requests, horizon: float):
    """Run on the C kernel, or return None when not eligible/available.

    The caller (:meth:`~repro.sim.cluster.ClusterSimulator.run`) has
    already validated ``horizon``. None leaves ``sim.rng`` untouched.
    """
    config = sim.config
    if type(config.failures) is not FailureModel:
        return None
    rng = sim.rng
    if type(rng.bit_generator).__name__ != "PCG64":
        return None
    if len(config.failures.refate_probs) > 8:
        return None
    kernel = load()
    if kernel is None:
        return None
    ffi, lib = kernel
    from .cluster import SimResult  # circular at import time

    failures = config.failures
    fleet = FleetState(sim.machines)
    monitor = UsageMonitor(fleet, config.monitor, rng)
    n_m = fleet.num_machines
    cols = TaskColumns.from_requests(requests)
    n_tasks = len(cols)

    submit_time = np.ascontiguousarray(cols.submit_time, dtype=np.float64)
    priority = np.ascontiguousarray(cols.priority, dtype=np.int16)
    band = np.ascontiguousarray(cols.band, dtype=np.int8)
    fate0 = np.ascontiguousarray(cols.fate, dtype=np.int8)
    cpu_request = np.ascontiguousarray(cols.cpu_request, dtype=np.float64)
    mem_request = np.ascontiguousarray(cols.mem_request, dtype=np.float64)
    duration = np.ascontiguousarray(cols.duration, dtype=np.float64)
    cpu_eff = np.ascontiguousarray(cols.cpu_eff, dtype=np.float64)
    mem_eff = np.ascontiguousarray(cols.mem_eff, dtype=np.float64)
    page_cache = np.ascontiguousarray(cols.page_cache, dtype=np.float64)

    # Constraint sampling draws from the Python generator in task order,
    # exactly like the scalar engine, before any simulation draw.
    mask_idx = np.full(n_tasks, -1, dtype=np.int32)
    mask_rows: list[np.ndarray] = []
    if config.constraints is not None:
        model = config.constraints
        if model.num_machines != n_m:
            raise ValueError(
                "constraint model machine count does not match fleet"
            )
        for i in range(n_tasks):
            constraints = model.sample_constraints(rng)
            if constraints:
                mask_idx[i] = len(mask_rows)
                mask_rows.append(
                    model.satisfying_mask(constraints).astype(np.uint8)
                )
    if mask_rows:
        mask_pool = np.ascontiguousarray(np.stack(mask_rows), dtype=np.uint8)
        mask_pool_ptr = ffi.cast("uint8_t *", mask_pool.ctypes.data)
    else:
        mask_pool = None
        mask_pool_ptr = ffi.NULL

    avail_u8 = fleet.available.view(np.uint8)
    # Keep every buffer the kernel borrows alive for the whole run.
    keepalive = (
        cols, submit_time, priority, band, fate0, cpu_request, mem_request,
        duration, cpu_eff, mem_eff, page_cache, mask_idx, mask_pool,
        fleet, avail_u8,
    )

    state = lib.sim_new(
        n_tasks,
        n_m,
        PLACEMENT_POLICIES.index(config.placement),
        1 if config.preemption else 0,
        horizon,
        config.monitor.sample_period,
        failures.resubmit_prob,
        failures.max_resubmits,
        _f8(submit_time, ffi),
        ffi.cast("int16_t *", priority.ctypes.data),
        ffi.cast("int8_t *", band.ctypes.data),
        _f8(cpu_request, ffi),
        _f8(mem_request, ffi),
        _f8(duration, ffi),
        _f8(cpu_eff, ffi),
        _f8(mem_eff, ffi),
        _f8(page_cache, ffi),
        ffi.cast("int8_t *", fate0.ctypes.data),
        ffi.cast("int32_t *", mask_idx.ctypes.data),
        mask_pool_ptr,
        _f8(fleet.cpu_capacity, ffi),
        _f8(fleet.free_cpu, ffi),
        _f8(fleet.free_mem, ffi),
        _f8(fleet.cpu_base, ffi),
        _f8(fleet.mem_base, ffi),
        _f8(fleet.mem_assigned, ffi),
        _f8(fleet.page_base, ffi),
        _f8(fleet.cpu_band, ffi),
        _f8(fleet.mem_band, ffi),
        ffi.cast("int64_t *", fleet.n_running.ctypes.data),
        ffi.cast("uint8_t *", avail_u8.ctypes.data),
    )
    try:
        fractions = {
            int(TaskEvent.FAIL): failures.fail_fraction,
            int(TaskEvent.KILL): failures.kill_fraction,
            int(TaskEvent.LOST): failures.lost_fraction,
            int(TaskEvent.EVICT): failures.evict_fraction,
        }
        for code, (lo, hi) in fractions.items():
            lib.sim_set_run_rule(state, code, lo, hi)
        refate_codes = np.asarray(
            [int(TaskEvent[name.upper()]) for name, _ in failures.refate_probs],
            dtype=np.int8,
        )
        # Generator.choice's internal CDF: cumsum, normalize by the last.
        refate_cdf = np.asarray(
            [p for _, p in failures.refate_probs], dtype=np.float64
        ).cumsum()
        refate_cdf /= refate_cdf[-1]
        lib.sim_set_refate(
            state,
            len(refate_codes),
            _f8(refate_cdf, ffi),
            ffi.cast("int8_t *", refate_codes.ctypes.data),
        )

        lib.sim_push_tick(state, 0.0)
        if config.churn is not None:
            for outage in sample_outages(config.churn, n_m, horizon, rng):
                lib.sim_push_churn(state, outage.start, 0, outage.machine)
                if outage.end < horizon:
                    lib.sim_push_churn(state, outage.end, 1, outage.machine)

        bitgen = rng.bit_generator
        inc = bitgen.state["state"]["inc"]
        state.pcg_i_hi = inc >> 64
        state.pcg_i_lo = inc & _MASK64

        def _take_rng() -> None:
            d = bitgen.state
            state.pcg_s_hi = d["state"]["state"] >> 64
            state.pcg_s_lo = d["state"]["state"] & _MASK64
            state.pcg_has_uint32 = d["has_uint32"]
            state.pcg_uinteger = d["uinteger"]

        def _give_back_rng() -> None:
            d = bitgen.state
            d["state"]["state"] = (
                (int(state.pcg_s_hi) << 64) | int(state.pcg_s_lo)
            )
            d["has_uint32"] = int(state.pcg_has_uint32)
            d["uinteger"] = int(state.pcg_uinteger)
            bitgen.state = d

        _take_rng()
        period = config.monitor.sample_period

        while True:
            code = lib.sim_run(state)
            if code == 2:  # monitor tick
                time = state.exit_time
                _give_back_rng()
                monitor.sample(
                    time,
                    int(state.pend_n),
                    int(state.n_finished),
                    int(state.n_abnormal),
                )
                _take_rng()
                if time + period <= horizon:
                    lib.sim_push_tick(state, time + period)
                continue
            break
        if code != 0:
            raise RuntimeError(
                f"simulation kernel failed (error {int(state.error)})"
            )
        _give_back_rng()

        n_ev = int(state.log_n)
        ev_time = np.frombuffer(
            ffi.buffer(state.log_time, 8 * n_ev), dtype=np.float64
        ).copy()
        ev_row = np.frombuffer(
            ffi.buffer(state.log_row, 8 * n_ev), dtype=np.int64
        ).copy()
        ev_type = np.frombuffer(
            ffi.buffer(state.log_etype, n_ev), dtype=np.int8
        ).copy()
        ev_machine = np.frombuffer(
            ffi.buffer(state.log_machine, 8 * n_ev), dtype=np.int64
        ).copy()
        counts = {
            "finish": int(state.c_finish),
            "fail": int(state.c_fail),
            "kill": int(state.c_kill),
            "evict": int(state.c_evict),
            "lost": int(state.c_lost),
            "submitted": int(state.c_submitted),
            "scheduled": int(state.c_scheduled),
            "still_running": int(lib.sim_still_running(state)),
            "still_pending": int(state.pend_n),
        }
    finally:
        lib.sim_free(state)
    del keepalive

    task_events = Table(
        {
            "time": ev_time,
            "job_id": cols.job_id[ev_row],
            "task_index": cols.task_index[ev_row],
            "machine_id": ev_machine,
            "event_type": ev_type,
            "priority": cols.priority[ev_row],
            "cpu_request": cols.cpu_request[ev_row],
            "mem_request": cols.mem_request[ev_row],
        },
        schema=TASK_EVENT_SCHEMA,
    )
    return SimResult(
        task_events=task_events,
        machine_usage=monitor.machine_usage_table(),
        cluster_series=monitor.cluster_series_table(),
        machines=sim.machines,
        horizon=horizon,
        counts=counts,
    )
