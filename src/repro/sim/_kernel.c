/* C hot loop for the cluster simulator (driven by _ckernel.py).
 *
 * Replicates the scalar event loop in cluster.py decision for decision
 * and draw for draw, so the results are byte-identical to that golden
 * reference:
 *
 *   - All fleet accounting is IEEE-754 double arithmetic transcribed
 *     literally (same expressions, same order, same clamps), and the
 *     fleet arrays are the caller's NumPy buffers written in place.
 *   - Placement is the literal masked first-argmax/argmin: a strict
 *     comparison keeps the first maximum, matching NumPy's argmax
 *     tie-break; scores are computed with the same division. The
 *     random policy draws Generator.choice's bounded index over the
 *     eligible machines in index order.
 *   - Randomness is an exact PCG64 (XSL-RR 128/64) reimplementation:
 *     doubles are (next_uint64 >> 11) * 2^-53, one uint64 per draw,
 *     identical to numpy.random.Generator.random() on a PCG64 bit
 *     generator; bounded indices are NumPy's 32-bit Lemire rejection
 *     over next_uint32, including its half-word cache. The Python glue
 *     verifies both bit for bit at load time and refuses the kernel on
 *     any mismatch.
 *   - The event queue is a binary heap ordered by (time, seq) with
 *     seq assigned in push order; any correct priority queue over
 *     that total order pops the exact sequence the scalar engine does.
 *   - Per-machine running-task registries are intrusive linked lists
 *     traversed in insertion order, matching dict iteration order in
 *     the scalar engine; preemption sorts are stable.
 *
 * The kernel returns to Python at every monitor tick (the monitor
 * draws vectorized noise from the real NumPy generator) and at the
 * end of the run; the PCG64 position and half-word cache are handed
 * back and forth through the SimState fields.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* ---- PCG64 (XSL-RR 128/64), exactly numpy's implementation ------------- */

typedef unsigned __int128 u128;

typedef struct {
    u128 state;
    u128 inc;
    int32_t has_uint32; /* half-word cache, as in numpy's pcg64_state */
    uint32_t uinteger;
} pcg64_t;

static inline uint64_t pcg64_next(pcg64_t *r)
{
    r->state = r->state
        * (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)
        + r->inc;
    uint64_t xored = (uint64_t)(r->state >> 64) ^ (uint64_t)r->state;
    unsigned rot = (unsigned)(r->state >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63u));
}

static inline double pcg64_double(pcg64_t *r)
{
    return (double)(pcg64_next(r) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's pcg64_next32: the cached high half first, else a fresh
 * uint64 whose low half is returned and high half cached. */
static inline uint32_t pcg64_next32(pcg64_t *r)
{
    if (r->has_uint32) {
        r->has_uint32 = 0;
        return r->uinteger;
    }
    uint64_t next = pcg64_next(r);
    r->has_uint32 = 1;
    r->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* The index Generator.choice(a) picks for len(a) == n, 0 < n < 2^32:
 * numpy's buffered_bounded_lemire_uint32 with rng = n - 1, which draws
 * nothing when n == 1. */
static inline uint32_t pcg64_bounded(pcg64_t *r, uint32_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)pcg64_next32(r) * n;
    uint32_t leftover = (uint32_t)m;
    if (leftover < n) {
        uint32_t threshold = (uint32_t)(-n) % n;
        while (leftover < threshold) {
            m = (uint64_t)pcg64_next32(r) * n;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* Self-test hook: fill `out` with doubles from the given 128-bit state. */
void pcg_fill(uint64_t s_hi, uint64_t s_lo, uint64_t i_hi, uint64_t i_lo,
              double *out, int n)
{
    pcg64_t r;
    r.state = ((u128)s_hi << 64) | s_lo;
    r.inc = ((u128)i_hi << 64) | i_lo;
    for (int i = 0; i < n; i++)
        out[i] = pcg64_double(&r);
}

/* Self-test hook: `count` bounded indices in [0, n) from the state
 * st = {s_hi, s_lo, i_hi, i_lo} and half-word cache = {has_uint32,
 * uinteger}; the advanced state and cache are written back. */
void pcg_bounded_fill(uint64_t *st, uint32_t *cache, uint32_t n,
                      uint32_t *out, int count)
{
    pcg64_t r;
    r.state = ((u128)st[0] << 64) | st[1];
    r.inc = ((u128)st[2] << 64) | st[3];
    r.has_uint32 = (int32_t)cache[0];
    r.uinteger = cache[1];
    for (int i = 0; i < count; i++)
        out[i] = pcg64_bounded(&r, n);
    st[0] = (uint64_t)(r.state >> 64);
    st[1] = (uint64_t)r.state;
    cache[0] = (uint32_t)r.has_uint32;
    cache[1] = r.uinteger;
}

/* ---- event/task constants (mirror repro.traces.schema) ----------------- */

#define EV_SUBMIT 0
#define EV_SCHEDULE 1
#define EV_EVICT 2
#define EV_FAIL 3
#define EV_FINISH 4
#define EV_KILL 5
#define EV_LOST 6

#define ST_PENDING 1
#define ST_RUNNING 2
#define ST_DEAD 3

#define K_COMPLETE 1
#define K_TICK 2
#define K_DOWN 3
#define K_UP 4

#define EXIT_DONE 0
#define EXIT_TICK 2
#define EXIT_ERROR (-1)

/* ---- queues ------------------------------------------------------------ */

typedef struct {
    double time;
    int64_t seq;
    int32_t kind;
    int32_t row; /* task row for COMPLETE, machine for DOWN/UP */
    int32_t inc; /* incarnation for COMPLETE */
} Ev;

typedef struct {
    int32_t negprio;
    int64_t seq;
    int32_t row;
} Pend;

typedef struct {
    /* config */
    int32_t n_tasks, n_m;
    int32_t policy; /* index into PLACEMENT_POLICIES: 0=balance 1=best_fit
                       2=first_fit 3=random */
    int32_t preemption;
    double horizon, period;
    double resubmit_prob;
    int32_t max_resubmits;
    int32_t n_refate;
    /* rng position (128-bit state split in halves; inc is constant) */
    uint64_t pcg_s_hi, pcg_s_lo, pcg_i_hi, pcg_i_lo;
    int32_t pcg_has_uint32;
    uint32_t pcg_uinteger;
    /* immutable task columns (borrowed NumPy buffers) */
    double *submit_time;
    int16_t *priority;
    int8_t *band;
    double *cpu_req, *mem_req, *duration, *cpu_eff, *mem_eff, *page_cache;
    int32_t *mask_idx;  /* -1 or row into mask_pool */
    uint8_t *mask_pool; /* (n_masks, n_m) allowed-machine bitmap */
    /* mutable task state (kernel-owned) */
    int8_t *state;
    int32_t *machine, *incar, *resub;
    int8_t *fate;
    double *start_time;
    int32_t *nxt, *prv; /* registry links */
    /* fleet columns (borrowed NumPy buffers, written in place) */
    double *cap;
    double *free_cpu, *free_mem, *cpu_base, *mem_base, *mem_assigned,
        *page_base;
    double *cpu_band, *mem_band; /* (n_m, 3) row-major */
    int64_t *n_running;
    uint8_t *avail;
    int32_t *head, *tail; /* registry list heads/tails (kernel-owned) */
    /* failure model: per fate code, run-time fraction lo/span */
    double run_lo[8], run_span[8];
    double refate_cdf[8];
    int8_t refate_codes[8];
    /* event log (kernel-owned, reallocated) */
    double *log_time;
    int64_t *log_row;
    int8_t *log_etype;
    int64_t *log_machine;
    int64_t log_n, log_cap;
    /* event heap (kernel-owned) */
    Ev *heap;
    int64_t heap_n, heap_cap, seq;
    /* pending queue (kernel-owned) */
    Pend *pend;
    int64_t pend_n, pend_cap, pend_seq;
    /* cursors / counters */
    int32_t next_arrival;
    int64_t c_finish, c_fail, c_kill, c_evict, c_lost, c_submitted,
        c_scheduled;
    int64_t n_finished, n_abnormal;
    double exit_time;
    int32_t error;
    /* preemption scratch (kernel-owned) */
    int32_t *ord, *ord_tmp; /* n_m */
    double *ordkey;         /* n_m */
    int32_t *lower;         /* n_tasks */
    int32_t *cand;          /* n_m: random placement's eligible machines */
} SimState;

/* ---- event heap, ordered by (time, seq) -------------------------------- */

static inline int ev_lt(const Ev *a, const Ev *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

static void heap_push(SimState *s, double time, int32_t kind, int32_t row,
                      int32_t inc)
{
    if (s->heap_n == s->heap_cap) {
        s->heap_cap *= 2;
        s->heap = (Ev *)realloc(s->heap, (size_t)s->heap_cap * sizeof(Ev));
    }
    int64_t i = s->heap_n++;
    Ev *h = s->heap;
    Ev e = {time, s->seq++, kind, row, inc};
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!ev_lt(&e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
}

static Ev heap_pop(SimState *s)
{
    Ev *h = s->heap;
    Ev top = h[0];
    Ev e = h[--s->heap_n];
    int64_t n = s->heap_n, i = 0;
    while (1) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && ev_lt(&h[c + 1], &h[c]))
            c++;
        if (!ev_lt(&h[c], &e))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = e;
    return top;
}

/* ---- pending queue, ordered by (-priority, seq) ------------------------ */

static inline int pend_lt(const Pend *a, const Pend *b)
{
    if (a->negprio != b->negprio)
        return a->negprio < b->negprio;
    return a->seq < b->seq;
}

static void pend_push(SimState *s, int32_t row)
{
    if (s->pend_n == s->pend_cap) {
        s->pend_cap *= 2;
        s->pend = (Pend *)realloc(s->pend, (size_t)s->pend_cap * sizeof(Pend));
    }
    int64_t i = s->pend_n++;
    Pend *h = s->pend;
    Pend e = {-(int32_t)s->priority[row], s->pend_seq++, row};
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!pend_lt(&e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
}

static void pend_pop(SimState *s)
{
    Pend *h = s->pend;
    Pend e = h[--s->pend_n];
    int64_t n = s->pend_n, i = 0;
    if (!n)
        return;
    while (1) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && pend_lt(&h[c + 1], &h[c]))
            c++;
        if (!pend_lt(&h[c], &e))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = e;
}

/* ---- event log --------------------------------------------------------- */

static void log_append(SimState *s, double time, int64_t row, int8_t etype,
                       int64_t machine)
{
    if (s->log_n == s->log_cap) {
        s->log_cap *= 2;
        s->log_time =
            (double *)realloc(s->log_time, (size_t)s->log_cap * sizeof(double));
        s->log_row = (int64_t *)realloc(s->log_row,
                                        (size_t)s->log_cap * sizeof(int64_t));
        s->log_etype =
            (int8_t *)realloc(s->log_etype, (size_t)s->log_cap * sizeof(int8_t));
        s->log_machine = (int64_t *)realloc(
            s->log_machine, (size_t)s->log_cap * sizeof(int64_t));
    }
    int64_t n = s->log_n++;
    s->log_time[n] = time;
    s->log_row[n] = row;
    s->log_etype[n] = etype;
    s->log_machine[n] = machine;
}

/* ---- registry linked lists (insertion order == dict order) ------------- */

static inline void reg_add(SimState *s, int32_t m, int32_t row)
{
    s->prv[row] = s->tail[m];
    s->nxt[row] = -1;
    if (s->tail[m] >= 0)
        s->nxt[s->tail[m]] = row;
    else
        s->head[m] = row;
    s->tail[m] = row;
}

static inline void reg_remove(SimState *s, int32_t m, int32_t row)
{
    int32_t p = s->prv[row], n = s->nxt[row];
    if (p >= 0)
        s->nxt[p] = n;
    else
        s->head[m] = n;
    if (n >= 0)
        s->prv[n] = p;
    else
        s->tail[m] = p;
}

/* ---- fleet accounting (literal transcription of FleetState) ------------ */

static void fleet_start(SimState *s, int32_t m, int32_t row)
{
    s->free_cpu[m] -= s->cpu_req[row];
    s->free_mem[m] -= s->mem_req[row];
    s->cpu_base[m] += s->cpu_eff[row];
    s->mem_base[m] += s->mem_eff[row];
    s->mem_assigned[m] += s->mem_req[row];
    s->page_base[m] += s->page_cache[row];
    int b = s->band[row];
    s->cpu_band[m * 3 + b] += s->cpu_eff[row];
    s->mem_band[m * 3 + b] += s->mem_eff[row];
    s->n_running[m] += 1;
    reg_add(s, m, row);
}

static inline double clamp_residue(double v)
{
    /* FleetState.stop: `if -1e-12 < v < 0: v = 0.0` */
    return (v < 0.0 && v > -1e-12) ? 0.0 : v;
}

static void fleet_stop(SimState *s, int32_t m, int32_t row)
{
    if (s->machine[row] != m || s->state[row] != ST_RUNNING) {
        s->error = 1;
        return;
    }
    reg_remove(s, m, row);
    s->free_cpu[m] = clamp_residue(s->free_cpu[m] + s->cpu_req[row]);
    s->free_mem[m] = clamp_residue(s->free_mem[m] + s->mem_req[row]);
    s->cpu_base[m] = clamp_residue(s->cpu_base[m] - s->cpu_eff[row]);
    s->mem_base[m] = clamp_residue(s->mem_base[m] - s->mem_eff[row]);
    s->mem_assigned[m] = clamp_residue(s->mem_assigned[m] - s->mem_req[row]);
    s->page_base[m] = clamp_residue(s->page_base[m] - s->page_cache[row]);
    int b = s->band[row];
    s->cpu_band[m * 3 + b] =
        clamp_residue(s->cpu_band[m * 3 + b] - s->cpu_eff[row]);
    s->mem_band[m * 3 + b] =
        clamp_residue(s->mem_band[m * 3 + b] - s->mem_eff[row]);
    s->n_running[m] -= 1;
}

/* ---- placement --------------------------------------------------------- */

static int32_t place(SimState *s, pcg64_t *rng, int32_t row)
{
    double cr = s->cpu_req[row], mr = s->mem_req[row];
    int32_t n_m = s->n_m;
    const uint8_t *mask =
        s->mask_idx[row] >= 0 ? s->mask_pool + (size_t)s->mask_idx[row] * n_m
                              : NULL;
    const double *fc = s->free_cpu, *fm = s->free_mem;
    const uint8_t *av = s->avail;
    int32_t best = -1;
    if (s->policy == 0) { /* balance: first argmax of free_cpu/cap */
        double best_s = -1.0;
        for (int32_t m = 0; m < n_m; m++) {
            if (fc[m] >= cr && fm[m] >= mr && av[m] && (!mask || mask[m])) {
                double sc = fc[m] / s->cap[m];
                if (sc > best_s) {
                    best_s = sc;
                    best = m;
                }
            }
        }
    } else if (s->policy == 1) { /* best_fit: first argmin of free_cpu */
        double best_v = INFINITY;
        for (int32_t m = 0; m < n_m; m++) {
            if (fc[m] >= cr && fm[m] >= mr && av[m] && (!mask || mask[m])) {
                if (fc[m] < best_v) {
                    best_v = fc[m];
                    best = m;
                }
            }
        }
    } else if (s->policy == 2) { /* first_fit */
        for (int32_t m = 0; m < n_m; m++) {
            if (fc[m] >= cr && fm[m] >= mr && av[m] && (!mask || mask[m])) {
                best = m;
                break;
            }
        }
    } else { /* random: rng.choice(np.flatnonzero(eligible)) */
        uint32_t n = 0;
        for (int32_t m = 0; m < n_m; m++)
            if (fc[m] >= cr && fm[m] >= mr && av[m] && (!mask || mask[m]))
                s->cand[n++] = m;
        if (n)
            best = s->cand[pcg64_bounded(rng, n)];
    }
    return best;
}

/* ---- failure-model draws (FailureModel.resubmits / redraw_fate) ------- */

static inline int8_t refate_draw(SimState *s, pcg64_t *rng)
{
    double u = pcg64_double(rng);
    int n = s->n_refate;
    for (int i = 0; i < n; i++)
        if (s->refate_cdf[i] > u) /* bisect_right */
            return s->refate_codes[i];
    return s->refate_codes[n - 1];
}

static inline int resubmit_decision(SimState *s, pcg64_t *rng, int32_t row,
                                    int f)
{
    if (s->resub[row] >= s->max_resubmits)
        return 0;
    if (f == EV_FAIL || f == EV_EVICT)
        return pcg64_double(rng) < s->resubmit_prob;
    return 0;
}

/* ---- start / evict ----------------------------------------------------- */

static void task_start(SimState *s, pcg64_t *rng, int32_t row, int32_t m,
                       double time)
{
    if (s->machine[row] != -1) {
        s->error = 2;
        return;
    }
    s->state[row] = ST_RUNNING;
    s->machine[row] = m;
    s->start_time[row] = time;
    fleet_start(s, m, row);
    log_append(s, time, row, EV_SCHEDULE, m);
    s->c_scheduled++;
    int f = s->fate[row];
    double run_time;
    if (f == EV_FINISH) {
        run_time = s->duration[row];
    } else {
        if (s->run_span[f] < 0.0) {
            s->error = 3; /* fate without a run-time rule */
            return;
        }
        run_time =
            s->duration[row] * (s->run_lo[f] + s->run_span[f] * pcg64_double(rng));
    }
    double end = time + run_time;
    if (end <= s->horizon)
        heap_push(s, end, K_COMPLETE, row, s->incar[row]);
}

static void task_evict(SimState *s, pcg64_t *rng, int32_t row, double time)
{
    int32_t m = s->machine[row];
    fleet_stop(s, m, row);
    log_append(s, time, row, EV_EVICT, m);
    s->c_evict++;
    s->incar[row]++;
    s->machine[row] = -1;
    if (resubmit_decision(s, rng, row, EV_EVICT)) {
        s->resub[row]++;
        s->fate[row] = refate_draw(s, rng);
        s->state[row] = ST_PENDING;
        log_append(s, time, row, EV_SUBMIT, -1);
        s->c_submitted++;
        pend_push(s, row);
    } else {
        s->state[row] = ST_DEAD;
    }
}

/* ---- preemption -------------------------------------------------------- */

/* Stable merge sort of machine indices by score descending — matches
 * np.argsort(-score, kind="stable"): equal scores keep index order. */
static void msort_desc(const double *key, int32_t *idx, int32_t *tmp,
                       int32_t lo, int32_t hi)
{
    if (hi - lo < 2)
        return;
    int32_t mid = (lo + hi) / 2;
    msort_desc(key, idx, tmp, lo, mid);
    msort_desc(key, idx, tmp, mid, hi);
    int32_t i = lo, j = mid, k = lo;
    while (i < mid && j < hi)
        tmp[k++] = (key[idx[i]] >= key[idx[j]]) ? idx[i++] : idx[j++];
    while (i < mid)
        tmp[k++] = idx[i++];
    while (j < hi)
        tmp[k++] = idx[j++];
    memcpy(idx + lo, tmp + lo, (size_t)(hi - lo) * sizeof(int32_t));
}

/* Find a machine + victim set for `row`; returns the machine (victims
 * appended to s->lower[0..*n_victims)) or -1. Mirrors
 * ClusterSimulator._find_preemption + FleetState.eviction_victims. */
static int32_t find_preemption(SimState *s, int32_t row, int32_t *n_victims)
{
    int32_t n_m = s->n_m;
    for (int32_t m = 0; m < n_m; m++) {
        s->ord[m] = m;
        s->ordkey[m] = s->free_cpu[m] / s->cap[m];
    }
    msort_desc(s->ordkey, s->ord, s->ord_tmp, 0, n_m);
    const uint8_t *mask =
        s->mask_idx[row] >= 0 ? s->mask_pool + (size_t)s->mask_idx[row] * s->n_m
                              : NULL;
    int p = s->priority[row];
    double cr = s->cpu_req[row], mr = s->mem_req[row];
    for (int32_t oi = 0; oi < n_m; oi++) {
        int32_t m = s->ord[oi];
        if (!s->avail[m])
            continue;
        if (mask && !mask[m])
            continue;
        double need_cpu = cr - s->free_cpu[m];
        double need_mem = mr - s->free_mem[m];
        /* Gather lower-priority running tasks in insertion order, then
         * stable-sort by (priority asc, start_time desc) — insertion
         * sort with strict comparisons preserves stability, matching
         * Python's list.sort. */
        int32_t n_lower = 0;
        for (int32_t r = s->head[m]; r >= 0; r = s->nxt[r])
            if (s->priority[r] < p)
                s->lower[n_lower++] = r;
        for (int32_t i = 1; i < n_lower; i++) {
            int32_t r = s->lower[i];
            int pr = s->priority[r];
            double st = s->start_time[r];
            int32_t j = i - 1;
            while (j >= 0) {
                int pj = s->priority[s->lower[j]];
                if (pj < pr ||
                    (pj == pr && !(s->start_time[s->lower[j]] < st)))
                    break;
                s->lower[j + 1] = s->lower[j];
                j--;
            }
            s->lower[j + 1] = r;
        }
        int32_t nv = 0;
        for (int32_t i = 0; i < n_lower; i++) {
            if (need_cpu <= 0 && need_mem <= 0)
                break;
            int32_t victim = s->lower[i];
            s->lower[nv++] = victim; /* victims prefix of the same array */
            need_cpu -= s->cpu_req[victim];
            need_mem -= s->mem_req[victim];
        }
        if (need_cpu > 0 || need_mem > 0)
            continue;
        *n_victims = nv;
        return m;
    }
    *n_victims = 0;
    return -1;
}

/* ---- admission --------------------------------------------------------- */

static int try_place(SimState *s, pcg64_t *rng, int32_t row, double time)
{
    int32_t m = place(s, rng, row);
    if (m >= 0) {
        task_start(s, rng, row, m, time);
        return 1;
    }
    if (s->preemption) {
        int32_t nv = 0;
        int32_t target = find_preemption(s, row, &nv);
        if (target >= 0) {
            for (int32_t i = 0; i < nv; i++)
                task_evict(s, rng, s->lower[i], time);
            task_start(s, rng, row, target, time);
            return 1;
        }
    }
    return 0;
}

static void drain_pending(SimState *s, pcg64_t *rng, double time)
{
    while (s->pend_n) {
        int32_t head = s->pend[0].row;
        int32_t m = place(s, rng, head);
        if (m < 0)
            break;
        pend_pop(s);
        task_start(s, rng, head, m, time);
    }
}

/* ---- lifecycle --------------------------------------------------------- */

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
                  int64_t *n_running, uint8_t *avail)
{
    SimState *s = (SimState *)calloc(1, sizeof(SimState));
    s->n_tasks = n_tasks;
    s->n_m = n_m;
    s->policy = policy;
    s->preemption = preemption;
    s->horizon = horizon;
    s->period = period;
    s->resubmit_prob = resubmit_prob;
    s->max_resubmits = max_resubmits;
    s->submit_time = submit_time;
    s->priority = priority;
    s->band = band;
    s->cpu_req = cpu_req;
    s->mem_req = mem_req;
    s->duration = duration;
    s->cpu_eff = cpu_eff;
    s->mem_eff = mem_eff;
    s->page_cache = page_cache;
    s->mask_idx = mask_idx;
    s->mask_pool = mask_pool;
    s->cap = cap;
    s->free_cpu = free_cpu;
    s->free_mem = free_mem;
    s->cpu_base = cpu_base;
    s->mem_base = mem_base;
    s->mem_assigned = mem_assigned;
    s->page_base = page_base;
    s->cpu_band = cpu_band;
    s->mem_band = mem_band;
    s->n_running = n_running;
    s->avail = avail;

    s->state = (int8_t *)malloc((size_t)n_tasks * sizeof(int8_t));
    s->machine = (int32_t *)malloc((size_t)n_tasks * sizeof(int32_t));
    s->incar = (int32_t *)calloc((size_t)n_tasks ? n_tasks : 1, sizeof(int32_t));
    s->resub = (int32_t *)calloc((size_t)n_tasks ? n_tasks : 1, sizeof(int32_t));
    s->fate = (int8_t *)malloc((size_t)n_tasks * sizeof(int8_t));
    s->start_time = (double *)malloc((size_t)n_tasks * sizeof(double));
    s->nxt = (int32_t *)malloc((size_t)n_tasks * sizeof(int32_t));
    s->prv = (int32_t *)malloc((size_t)n_tasks * sizeof(int32_t));
    for (int32_t i = 0; i < n_tasks; i++) {
        s->state[i] = ST_PENDING;
        s->machine[i] = -1;
        s->fate[i] = fate0[i];
        s->start_time[i] = -1.0;
    }
    s->head = (int32_t *)malloc((size_t)n_m * sizeof(int32_t));
    s->tail = (int32_t *)malloc((size_t)n_m * sizeof(int32_t));
    for (int32_t m = 0; m < n_m; m++)
        s->head[m] = s->tail[m] = -1;

    for (int i = 0; i < 8; i++) {
        s->run_lo[i] = 0.0;
        s->run_span[i] = -1.0; /* sentinel: no rule for this fate */
    }

    s->log_cap = 4 * (int64_t)(n_tasks > 16 ? n_tasks : 16);
    s->log_time = (double *)malloc((size_t)s->log_cap * sizeof(double));
    s->log_row = (int64_t *)malloc((size_t)s->log_cap * sizeof(int64_t));
    s->log_etype = (int8_t *)malloc((size_t)s->log_cap * sizeof(int8_t));
    s->log_machine = (int64_t *)malloc((size_t)s->log_cap * sizeof(int64_t));

    s->heap_cap = 1024;
    s->heap = (Ev *)malloc((size_t)s->heap_cap * sizeof(Ev));
    s->pend_cap = 256;
    s->pend = (Pend *)malloc((size_t)s->pend_cap * sizeof(Pend));

    s->ord = (int32_t *)malloc((size_t)n_m * sizeof(int32_t));
    s->ord_tmp = (int32_t *)malloc((size_t)n_m * sizeof(int32_t));
    s->ordkey = (double *)malloc((size_t)n_m * sizeof(double));
    s->lower = (int32_t *)malloc((size_t)(n_tasks ? n_tasks : 1) * sizeof(int32_t));
    s->cand = (int32_t *)malloc((size_t)n_m * sizeof(int32_t));
    return s;
}

void sim_set_run_rule(SimState *s, int32_t code, double lo, double hi)
{
    s->run_lo[code] = lo;
    s->run_span[code] = hi - lo;
}

void sim_set_refate(SimState *s, int32_t n, double *cdf, int8_t *codes)
{
    s->n_refate = n;
    for (int i = 0; i < n; i++) {
        s->refate_cdf[i] = cdf[i];
        s->refate_codes[i] = codes[i];
    }
}

void sim_push_tick(SimState *s, double time)
{
    heap_push(s, time, K_TICK, -1, 0);
}

void sim_push_churn(SimState *s, double time, int32_t up, int32_t machine)
{
    heap_push(s, time, up ? K_UP : K_DOWN, machine, 0);
}

void sim_free(SimState *s)
{
    if (!s)
        return;
    free(s->state);
    free(s->machine);
    free(s->incar);
    free(s->resub);
    free(s->fate);
    free(s->start_time);
    free(s->nxt);
    free(s->prv);
    free(s->head);
    free(s->tail);
    free(s->log_time);
    free(s->log_row);
    free(s->log_etype);
    free(s->log_machine);
    free(s->heap);
    free(s->pend);
    free(s->ord);
    free(s->ord_tmp);
    free(s->ordkey);
    free(s->lower);
    free(s->cand);
    free(s);
}

int64_t sim_still_running(SimState *s)
{
    int64_t total = 0;
    for (int32_t m = 0; m < s->n_m; m++)
        total += s->n_running[m];
    return total;
}

/* ---- main loop --------------------------------------------------------- */

int sim_run(SimState *s)
{
    pcg64_t rng;
    rng.state = ((u128)s->pcg_s_hi << 64) | s->pcg_s_lo;
    rng.inc = ((u128)s->pcg_i_hi << 64) | s->pcg_i_lo;
    rng.has_uint32 = s->pcg_has_uint32;
    rng.uinteger = s->pcg_uinteger;
    int result = EXIT_DONE;

    while (1) {
        double qt = s->heap_n ? s->heap[0].time : INFINITY;
        double at = s->next_arrival < s->n_tasks
                        ? s->submit_time[s->next_arrival]
                        : INFINITY;
        if (qt == INFINITY && at == INFINITY)
            break;
        if (at < qt) { /* ties go to the queue, like the scalar engine */
            int32_t row = s->next_arrival++;
            if (at > s->horizon)
                break;
            log_append(s, at, row, EV_SUBMIT, -1);
            s->c_submitted++;
            if (!try_place(s, &rng, row, at))
                pend_push(s, row);
        } else {
            Ev ev = heap_pop(s);
            double time = ev.time;
            if (time > s->horizon)
                break;
            if (ev.kind == K_COMPLETE) {
                int32_t row = ev.row;
                if (s->incar[row] != ev.inc || s->state[row] != ST_RUNNING)
                    continue; /* stale completion (task was evicted) */
                int32_t m = s->machine[row];
                fleet_stop(s, m, row);
                int f = s->fate[row];
                log_append(s, time, row, (int8_t)f, m);
                switch (f) {
                case EV_FINISH:
                    s->c_finish++;
                    break;
                case EV_FAIL:
                    s->c_fail++;
                    break;
                case EV_KILL:
                    s->c_kill++;
                    break;
                case EV_EVICT:
                    s->c_evict++;
                    break;
                default:
                    s->c_lost++;
                    break;
                }
                s->n_finished++;
                if (f != EV_FINISH)
                    s->n_abnormal++;
                s->machine[row] = -1;
                s->incar[row]++;
                if (resubmit_decision(s, &rng, row, f)) {
                    s->resub[row]++;
                    s->fate[row] = refate_draw(s, &rng);
                    s->state[row] = ST_PENDING;
                    log_append(s, time, row, EV_SUBMIT, -1);
                    s->c_submitted++;
                    if (!try_place(s, &rng, row, time))
                        pend_push(s, row);
                } else {
                    s->state[row] = ST_DEAD;
                }
                drain_pending(s, &rng, time);
            } else if (ev.kind == K_TICK) {
                s->exit_time = time;
                result = EXIT_TICK;
                break;
            } else if (ev.kind == K_DOWN) {
                int32_t m = ev.row;
                s->avail[m] = 0;
                int32_t r = s->head[m];
                while (r >= 0) {
                    int32_t next = s->nxt[r];
                    task_evict(s, &rng, r, time);
                    r = next;
                }
            } else { /* K_UP */
                s->avail[ev.row] = 1;
                drain_pending(s, &rng, time);
            }
        }
        if (s->error) {
            result = EXIT_ERROR;
            break;
        }
    }

    s->pcg_s_hi = (uint64_t)(rng.state >> 64);
    s->pcg_s_lo = (uint64_t)rng.state;
    s->pcg_has_uint32 = rng.has_uint32;
    s->pcg_uinteger = rng.uinteger;
    return result;
}
