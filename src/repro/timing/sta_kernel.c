/* Native block evaluator for the level-compiled STA program.
 *
 * This kernel consumes exactly the arrays that
 * repro.timing.compiled.CompiledTimingProgram flattens at compile time
 * (per-gate model coefficients, per-pin wire constants, arena slot
 * indices in topological order) and evaluates one sample block with the
 * whole per-gate recurrence fused into a single pass:
 *
 *   slew_in  = sqrt(pin_slew^2 + step2)                (Bakoglu wire)
 *   cand     = pin_arrival + wire_delay
 *                + (base_delay + d_slew*slew_in) * scale_d
 *   slew_out = (base_slew + s_slew*slew_in) * scale_s
 *   winner   = first pin with strictly greater cand    (reference tie rule)
 *
 * with scale = max(1 + k1*u + k2*u^2, 0.05) from the rank-one projection
 * u of the gate's model id g.  Dense samples hand u in per block,
 * row-major (B, Ng).  Factored samples hand in field rows instead: a
 * (num_field_rows, row_stride) array whose sample lanes are contiguous,
 * built once per run, plus a row map of num_terms terms per model gate,
 * so that
 *
 *   u_g[n] = sum_{k < num_terms} row_weight[k, g]
 *                * field_rows[row_index[k, g], lane_offset + n]
 *
 * summed for k = 0 ... num_terms-1 in that order.  A block only moves
 * lane_offset along the rows.  num_field_rows bounds row_index in the
 * caller's argument check; the kernel does not read it.
 *
 * Wire variation: with per-sample R/C scale rows (row-major (B, nets)),
 * each pin's Elmore delay becomes r*c*RC_wire/2 + r*RC_pin, its Bakoglu
 * step ln9 times that, and a driver's load pin_cap + c*wire_cap, i.e.
 * base + (c - 1)*metal with metal = d_load*wire_cap (s_load for slews).
 * A missing R or C reads a constant 1.0 at row stride 0, chosen per
 * column outside the lane loops.  Runs without wire scales take the
 * nominal per-pin constants in their own loops.
 *
 * The arenas are (width, B) slot-major so every per-slot vector of B
 * samples is contiguous; all inner loops run over the B sample lanes and
 * auto-vectorize.  Gate-sequential evaluation is safe because the slot
 * schedule has level-barrier semantics: an output slot never aliases a
 * slot still being read by its own level.  That is also why the lane
 * pointers may be restrict: within one lane loop no written vector
 * overlaps a read one.
 *
 * Per-sample results are independent of B, so any block partitioning
 * yields bitwise identical results.
 *
 * Threading: sta_eval_gates_mt, the one entry point, partitions the B
 * sample lanes into contiguous ranges, one per worker; num_threads = 1
 * runs the single range [0, B) inline on the calling thread.  Every
 * lane's arithmetic is the sequence of operations eval_lane_range runs
 * for that lane alone — identical whether the surrounding loop covers
 * [0, B) or [lo, hi) — so results are bitwise identical for every
 * thread count and every lane partition.  Workers touch
 * disjoint lane ranges of the shared arenas and private scratch
 * blocks, so no synchronization is needed beyond the join.  The
 * parallel backend is chosen at compile time: OpenMP when the build
 * defines _OPENMP, raw pthreads under REPRO_USE_PTHREADS, else a
 * sequential sweep over the same lane ranges (still correct, no
 * speedup).
 */

/* The cold build is part of every set-up.  GCC would otherwise emit a
 * stride-1 copy of every strided lane loop and unswitch the gate loop on
 * the wire flag: with GCC 12 at -O3 that builds about a quarter slower
 * (as does dropping the restrict qualifiers below) and runs no faster.
 * Neither setting changes the floating-point results. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("no-version-loops-for-strides", "no-unswitch-loops")
#endif

#include <math.h>
#include <stdint.h>

#if defined(_OPENMP)
#include <omp.h>
#elif defined(REPRO_USE_PTHREADS)
#include <pthread.h>
#endif

#define LN9 2.1972245773362196

/* What a missing R or C scale reads, at row stride 0. */
static const double UNIT_SCALE = 1.0;

/* Column `cols[i]` of a (B, nets) scale row block, or the unit scale. */
static const double *scale_column(
    const double *scale, const int64_t *cols, int64_t i)
{
    return scale ? scale + cols[i] : &UNIT_SCALE;
}

/* Where a block's u comes from: a dense (B, Ng) row-major block, or
 * field rows read through the row map; both NULL is a nominal run. */
typedef struct {
    int64_t num_model_gates;
    const double *u;
    const double *field_rows;
    int64_t row_stride, lane_offset;
    const int64_t *row_index;
    const double *row_weight;
    int64_t num_terms;
} u_source;

/* u of model gate `gid` for lanes [lo, hi), into `out`. */
static void gate_u(
    const u_source *src, int64_t gid, int64_t lo, int64_t hi,
    double *restrict out)
{
    const int64_t ng = src->num_model_gates;
    if (!src->field_rows) {
        const double *ucol = src->u + gid;
        for (int64_t n = lo; n < hi; ++n)
            out[n] = ucol[n * ng];
        return;
    }
    if (src->num_terms < 1) {
        for (int64_t n = lo; n < hi; ++n)
            out[n] = 0.0;
        return;
    }
    {
        const double *row = src->field_rows
            + src->row_index[gid] * src->row_stride + src->lane_offset;
        const double w = src->row_weight[gid];
        for (int64_t n = lo; n < hi; ++n)
            out[n] = w * row[n];
    }
    for (int64_t k = 1; k < src->num_terms; ++k) {
        const double *row = src->field_rows
            + src->row_index[k * ng + gid] * src->row_stride
            + src->lane_offset;
        const double w = src->row_weight[k * ng + gid];
        for (int64_t n = lo; n < hi; ++n)
            out[n] += w * row[n];
    }
}

/* One worker's share of a sample block: evaluate lanes [lane_lo,
 * lane_hi) of every primary input, DFF and gate.  The six scratch
 * vectors are full-B-length arrays indexed by absolute lane, so a
 * worker only touches its own [lane_lo, lane_hi) slice of them. */
static void eval_lane_range(
    const u_source *src,
    int64_t num_nets,
    const double *restrict r_scale, const double *restrict c_scale,
    double input_slew,
    const int64_t *pi_slots, int64_t num_pi,
    const int64_t *dff_slots, const int64_t *dff_gids,
    const int64_t *dff_col,
    const double *dff_bd, const double *dff_bs,
    const double *dff_dmetal, const double *dff_smetal,
    const double *dff_k1, const double *dff_k2,
    const double *dff_m1, const double *dff_m2, int64_t num_dff,
    int64_t num_gates,
    const int64_t *g_fanin, const int64_t *g_out_slot, const int64_t *g_id,
    const int64_t *g_col,
    const double *g_bd, const double *g_dsl,
    const double *g_bs, const double *g_ssl,
    const double *g_dmetal, const double *g_smetal,
    const double *g_k1, const double *g_k2,
    const double *g_m1, const double *g_m2,
    const int64_t *p_slot, const int64_t *p_col,
    const double *p_wd, const double *p_step2,
    const double *p_rc, const double *p_rpin,
    double *restrict arena_a, double *restrict arena_s,
    int64_t B,                   /* lane stride of the arenas */
    int64_t lane_lo, int64_t lane_hi,
    double *restrict best_a, double *restrict best_s,
    double *restrict scd, double *restrict scs,
    double *restrict bdl, double *restrict bsl)
{
    const int wire = r_scale || c_scale;
    const int stat = src->u || src->field_rows;
    const int64_t rs = r_scale ? num_nets : 0;
    const int64_t cs = c_scale ? num_nets : 0;

    for (int64_t i = 0; i < num_pi; ++i) {
        double *pa = arena_a + pi_slots[i] * B;
        double *ps = arena_s + pi_slots[i] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            pa[n] = 0.0;
            ps[n] = input_slew;
        }
    }

    /* Launch arrivals; without C scales (c - 1)*metal is exactly 0. */
    for (int64_t i = 0; i < num_dff; ++i) {
        double *pa = arena_a + dff_slots[i] * B;
        double *ps = arena_s + dff_slots[i] * B;
        const double *cd = scale_column(c_scale, dff_col, i);
        const double dn = dff_bd[i], sn = dff_bs[i];
        const double dm = dff_dmetal[i], sm = dff_smetal[i];
        if (stat) {
            const double k1 = dff_k1[i], k2 = dff_k2[i];
            const double m1 = dff_m1[i], m2 = dff_m2[i];
            gate_u(src, dff_gids[i], lane_lo, lane_hi, scd);
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double uv = scd[n];
                const double dc = cd[n * cs] - 1.0;
                double sd = 1.0 + k1 * uv + k2 * uv * uv;
                double ss = 1.0 + m1 * uv + m2 * uv * uv;
                if (sd < 0.05) sd = 0.05;
                if (ss < 0.05) ss = 0.05;
                pa[n] = (dn + dc * dm) * sd;
                ps[n] = (sn + dc * sm) * ss;
            }
        } else {
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double dc = cd[n * cs] - 1.0;
                pa[n] = dn + dc * dm;
                ps[n] = sn + dc * sm;
            }
        }
    }

    int64_t p = 0;
    for (int64_t g = 0; g < num_gates; ++g) {
        const int64_t fanin = g_fanin[g];
        const double bd = g_bd[g], dsl = g_dsl[g];
        const double bs = g_bs[g], ssl = g_ssl[g];

        if (stat) {
            const double k1 = g_k1[g], k2 = g_k2[g];
            const double m1 = g_m1[g], m2 = g_m2[g];
            gate_u(src, g_id[g], lane_lo, lane_hi, scd);
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double uv = scd[n];
                double sd = 1.0 + k1 * uv + k2 * uv * uv;
                double ss = 1.0 + m1 * uv + m2 * uv * uv;
                if (sd < 0.05) sd = 0.05;
                if (ss < 0.05) ss = 0.05;
                scd[n] = sd;
                scs[n] = ss;
            }
        } else {
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                scd[n] = 1.0;
                scs[n] = 1.0;
            }
        }

        if (wire) {
            /* Per-lane base delay/slew at this driver's scaled load. */
            const double *cg = scale_column(c_scale, g_col, g);
            const double dm = g_dmetal[g], sm = g_smetal[g];
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double dc = cg[n * cs] - 1.0;
                bdl[n] = bd + dc * dm;
                bsl[n] = bs + dc * sm;
            }
            /* Pin 0 seeds the winner, as in the nominal loops below. */
            for (int64_t j = 0; j < fanin; ++j, ++p) {
                const double *pa = arena_a + p_slot[p] * B;
                const double *ps = arena_s + p_slot[p] * B;
                const double *rp = scale_column(r_scale, p_col, p);
                const double *cp = scale_column(c_scale, p_col, p);
                const double rc = p_rc[p], rpin = p_rpin[p];
                for (int64_t n = lane_lo; n < lane_hi; ++n) {
                    const double r = rp[n * rs];
                    const double wd = r * cp[n * cs] * rc + r * rpin;
                    const double st = LN9 * wd;
                    const double sl = sqrt(ps[n] * ps[n] + st * st);
                    const double cand =
                        pa[n] + wd + (bdl[n] + dsl * sl) * scd[n];
                    const double osl = (bsl[n] + ssl * sl) * scs[n];
                    const int take = j == 0 || cand > best_a[n];
                    best_a[n] = take ? cand : best_a[n];
                    best_s[n] = take ? osl : best_s[n];
                }
            }
        } else {
            /* First pin unconditionally seeds the winner ... */
            {
                const double *pa = arena_a + p_slot[p] * B;
                const double *ps = arena_s + p_slot[p] * B;
                const double wd = p_wd[p], st2 = p_step2[p];
                for (int64_t n = lane_lo; n < lane_hi; ++n) {
                    const double sl = sqrt(ps[n] * ps[n] + st2);
                    best_a[n] = pa[n] + wd + (bd + dsl * sl) * scd[n];
                    best_s[n] = (bs + ssl * sl) * scs[n];
                }
                ++p;
            }
            /* ... later pins replace it only when strictly greater. */
            for (int64_t j = 1; j < fanin; ++j, ++p) {
                const double *pa = arena_a + p_slot[p] * B;
                const double *ps = arena_s + p_slot[p] * B;
                const double wd = p_wd[p], st2 = p_step2[p];
                for (int64_t n = lane_lo; n < lane_hi; ++n) {
                    const double sl = sqrt(ps[n] * ps[n] + st2);
                    const double cand =
                        pa[n] + wd + (bd + dsl * sl) * scd[n];
                    const double osl = (bs + ssl * sl) * scs[n];
                    const int take = cand > best_a[n];
                    best_a[n] = take ? cand : best_a[n];
                    best_s[n] = take ? osl : best_s[n];
                }
            }
        }

        double *oa = arena_a + g_out_slot[g] * B;
        double *os = arena_s + g_out_slot[g] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            oa[n] = best_a[n];
            os[n] = best_s[n];
        }
    }
}

/* Shared per-call arguments for one multithreaded evaluation; worker t
 * evaluates lanes [t*B/T, (t+1)*B/T) with scratch block t. */
typedef struct {
    u_source src;
    int64_t num_nets;
    const double *r_scale; const double *c_scale;
    double input_slew;
    const int64_t *pi_slots; int64_t num_pi;
    const int64_t *dff_slots; const int64_t *dff_gids;
    const int64_t *dff_col;
    const double *dff_bd; const double *dff_bs;
    const double *dff_dmetal; const double *dff_smetal;
    const double *dff_k1; const double *dff_k2;
    const double *dff_m1; const double *dff_m2; int64_t num_dff;
    int64_t num_gates;
    const int64_t *g_fanin; const int64_t *g_out_slot; const int64_t *g_id;
    const int64_t *g_col;
    const double *g_bd; const double *g_dsl;
    const double *g_bs; const double *g_ssl;
    const double *g_dmetal; const double *g_smetal;
    const double *g_k1; const double *g_k2;
    const double *g_m1; const double *g_m2;
    const int64_t *p_slot; const int64_t *p_col;
    const double *p_wd; const double *p_step2;
    const double *p_rc; const double *p_rpin;
    double *arena_a; double *arena_s;
    double *scratch;
    int64_t B;
    int64_t num_threads;
} mt_call;

static void eval_worker(const mt_call *c, int64_t t)
{
    const int64_t B = c->B, T = c->num_threads;
    const int64_t lo = (B * t) / T;
    const int64_t hi = (B * (t + 1)) / T;
    double *block = c->scratch + 6 * B * t;
    if (lo >= hi)
        return;
    eval_lane_range(
        &c->src, c->num_nets, c->r_scale, c->c_scale,
        c->input_slew,
        c->pi_slots, c->num_pi,
        c->dff_slots, c->dff_gids, c->dff_col, c->dff_bd, c->dff_bs,
        c->dff_dmetal, c->dff_smetal,
        c->dff_k1, c->dff_k2, c->dff_m1, c->dff_m2, c->num_dff,
        c->num_gates, c->g_fanin, c->g_out_slot, c->g_id, c->g_col,
        c->g_bd, c->g_dsl, c->g_bs, c->g_ssl, c->g_dmetal, c->g_smetal,
        c->g_k1, c->g_k2, c->g_m1, c->g_m2,
        c->p_slot, c->p_col, c->p_wd, c->p_step2, c->p_rc, c->p_rpin,
        c->arena_a, c->arena_s, B, lo, hi,
        block, block + B, block + 2 * B, block + 3 * B,
        block + 4 * B, block + 5 * B);
}

#if !defined(_OPENMP) && defined(REPRO_USE_PTHREADS)
typedef struct {
    const mt_call *call;
    int64_t thread_index;
} pthread_job;

static void *pthread_trampoline(void *raw)
{
    const pthread_job *job = (const pthread_job *)raw;
    eval_worker(job->call, job->thread_index);
    return 0;
}
#endif

void sta_eval_gates_mt(
    int64_t num_rows,            /* B: samples in this block */
    int64_t num_model_gates,     /* Ng: row stride of u and the row map */
    const double *u,             /* (B, Ng) dense projection, or NULL */
    const double *field_rows,    /* (num_field_rows, row_stride), or NULL */
    int64_t num_field_rows,
    int64_t row_stride,          /* lanes per field row */
    int64_t lane_offset,         /* this block's first lane in a row */
    const int64_t *row_index,    /* (num_terms, Ng) field row of a term */
    const double *row_weight,    /* (num_terms, Ng) weight of a term */
    int64_t num_terms,
    int64_t num_nets,            /* row stride of the wire scales */
    const double *r_scale,       /* (B, nets) wire R scales, or NULL */
    const double *c_scale,       /* (B, nets) wire C scales, or NULL */
    double input_slew,
    const int64_t *pi_slots, int64_t num_pi,
    const int64_t *dff_slots, const int64_t *dff_gids,
    const int64_t *dff_col,
    const double *dff_bd, const double *dff_bs,
    const double *dff_dmetal, const double *dff_smetal,
    const double *dff_k1, const double *dff_k2,
    const double *dff_m1, const double *dff_m2, int64_t num_dff,
    int64_t num_gates,           /* combinational gates, topological order */
    const int64_t *g_fanin, const int64_t *g_out_slot, const int64_t *g_id,
    const int64_t *g_col,
    const double *g_bd, const double *g_dsl,
    const double *g_bs, const double *g_ssl,
    const double *g_dmetal, const double *g_smetal,
    const double *g_k1, const double *g_k2,
    const double *g_m1, const double *g_m2,
    const int64_t *p_slot, const int64_t *p_col,
    const double *p_wd, const double *p_step2,
    const double *p_rc, const double *p_rpin,
    double *arena_a, double *arena_s,   /* (width, B) slot-major */
    double *scratch,                    /* >= 6*B*num_threads doubles */
    int64_t num_threads)
{
    const int64_t B = num_rows;
    if (B <= 0)
        return;
    int64_t T = num_threads;
    if (T < 1)
        T = 1;
    if (T > B)
        T = B;

    mt_call call;
    (void)num_field_rows;
    call.src.num_model_gates = num_model_gates;
    call.src.u = u;
    call.src.field_rows = field_rows;
    call.src.row_stride = row_stride;
    call.src.lane_offset = lane_offset;
    call.src.row_index = row_index;
    call.src.row_weight = row_weight;
    call.src.num_terms = num_terms;
    call.num_nets = num_nets;
    call.r_scale = r_scale; call.c_scale = c_scale;
    call.input_slew = input_slew;
    call.pi_slots = pi_slots; call.num_pi = num_pi;
    call.dff_slots = dff_slots; call.dff_gids = dff_gids;
    call.dff_col = dff_col;
    call.dff_bd = dff_bd; call.dff_bs = dff_bs;
    call.dff_dmetal = dff_dmetal; call.dff_smetal = dff_smetal;
    call.dff_k1 = dff_k1; call.dff_k2 = dff_k2;
    call.dff_m1 = dff_m1; call.dff_m2 = dff_m2; call.num_dff = num_dff;
    call.num_gates = num_gates;
    call.g_fanin = g_fanin; call.g_out_slot = g_out_slot; call.g_id = g_id;
    call.g_col = g_col;
    call.g_bd = g_bd; call.g_dsl = g_dsl;
    call.g_bs = g_bs; call.g_ssl = g_ssl;
    call.g_dmetal = g_dmetal; call.g_smetal = g_smetal;
    call.g_k1 = g_k1; call.g_k2 = g_k2;
    call.g_m1 = g_m1; call.g_m2 = g_m2;
    call.p_slot = p_slot; call.p_col = p_col;
    call.p_wd = p_wd; call.p_step2 = p_step2;
    call.p_rc = p_rc; call.p_rpin = p_rpin;
    call.arena_a = arena_a; call.arena_s = arena_s;
    call.scratch = scratch;
    call.B = B;
    call.num_threads = T;

    if (T == 1) {
        eval_worker(&call, 0);
        return;
    }

#if defined(_OPENMP)
    #pragma omp parallel num_threads((int)T)
    {
        eval_worker(&call, (int64_t)omp_get_thread_num());
    }
#elif defined(REPRO_USE_PTHREADS)
    {
        pthread_t handles[64];
        pthread_job jobs[64];
        int64_t spawned = 0;
        if (T > 64)
            T = 64;
        call.num_threads = T;
        for (int64_t t = 1; t < T; ++t) {
            jobs[t].call = &call;
            jobs[t].thread_index = t;
            if (pthread_create(&handles[t], 0, pthread_trampoline,
                               &jobs[t]) != 0) {
                /* Spawn failure: run the remaining ranges inline.  The
                 * lane partition is already fixed by T, so results stay
                 * bitwise identical — only the parallelism degrades. */
                for (int64_t rest = t; rest < T; ++rest)
                    eval_worker(&call, rest);
                break;
            }
            spawned = t;
        }
        eval_worker(&call, 0);
        for (int64_t t = 1; t <= spawned; ++t)
            pthread_join(handles[t], 0);
    }
#else
    /* No thread backend compiled in: sweep the same lane ranges
     * sequentially — bitwise identical, no speedup. */
    for (int64_t t = 0; t < T; ++t)
        eval_worker(&call, t);
#endif
}
