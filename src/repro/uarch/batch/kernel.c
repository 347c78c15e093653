/*
 * Native per-cell kernel of the batch engine (engine="batch").
 *
 * repro_run_cell() simulates one (program, trace, config) cell over the
 * static tables of repro/uarch/batch/arena.py (ProgramArena, TraceArena)
 * and writes every SimStats counter the batch envelope can produce.  It
 * is a literal transcription of the fast engine's per-record model --
 * TimingSimulator._run_fast and its inlined helpers in
 * repro/uarch/timing.py, and the dmp/dhp episode of
 * PredicationAwareSimulator._dpred_once_impl in repro/core/dpred.py --
 * for exactly this envelope (see engine.cell_supported):
 *
 *   - modes baseline, dualpath and plain dmp/dhp (no early exit,
 *     multiple diverge, loop predication or selective update), with the
 *     Table 1 exit cases and select-uops;
 *   - the default perceptron predictor, the JRS confidence estimator and
 *     the Table 2 caches, store buffer, RAS and BTB.
 *
 * Everything timing-independent (icache stalls, load latencies and
 * store-buffer forwarding sources, RAS underflows, the architectural
 * call context) comes precomputed from the trace arena.  The BTB is
 * modelled by one "seen" bit per redirect site, exact because the
 * program arena rejects programs whose BTB sets could evict.
 *
 * The result must equal the reference engine's SimStats field for field
 * (tests/core/test_engine_batch.py, tests/core/test_golden_stats.py).
 * native.py builds this file with the system C compiler on first use.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Bumped whenever the Cell layout or the output layout changes;
 * native.py refuses a library that reports another value. */
#define REPRO_KERNEL_ABI 1

/* BlockPlan codes (repro/uarch/plan.py). */
#define KIND_LOAD 1
#define KIND_STORE 2
#define TERM_NONE 0
#define TERM_BR 1
#define TERM_JMP 2
#define TERM_CALL 3
#define TERM_RET 4

/* Register-file columns (arena.py): 32 architectural registers, ZREG
 * (always reads 0, pads source lists) and JREG (write-only junk column,
 * pads the destination of rows that write no register). */
#define NREGS 34
#define JREG 33

/* Perceptron predictor defaults (repro/branch/perceptron.py). */
#define NPERC 1021
#define HBITS 31
#define THETA 73 /* int(1.93 * 31 + 14) */
#define WMAX 127
#define WMIN (-128)
#define GHR_MASK ((((i64)1) << HBITS) - 1)

/* JRS confidence estimator defaults (repro/confidence/jrs.py). */
#define JTAB 2048
#define JMAX 15
#define JHMASK 0xF

/* Wrong-path walk block guard and control-independence lookahead
 * (TimingSimulator._walk_wrong_path_fast, _CI_LOOKAHEAD_BLOCKS). */
#define WALK_GUARD 10000
#define CI_LOOKAHEAD 32

/* Path outcomes an episode in this envelope can produce. */
enum { P_CFM, P_RESOLVED, P_EXHAUSTED, P_LIMIT };

/* Output counters, in native.STATS_FIELDS order. */
enum {
    S_CYCLES,
    S_RETIRED_BRANCHES,
    S_MISPREDICTIONS,
    S_PIPELINE_FLUSHES,
    S_FETCHED_CORRECT,
    S_FETCHED_WRONG_CD,
    S_FETCHED_WRONG_CI,
    S_EXECUTED,
    S_DUALPATH_FORKS,
    S_DPRED_ENTRIES,
    S_EXTRA_UOPS,
    S_SELECT_UOPS,
    S_PRED_FALSE,
    S_LOAD_WAITS,
    S_EXIT_CASE0, /* exit case k is counted at S_EXIT_CASE0 + k, k = 1..6 */
    S_COUNT = S_EXIT_CASE0 + 7
};

/* One cell's inputs.  Field order mirrors native._Cell. */
typedef struct {
    /* configuration */
    i64 dualpath, predicating, width, maxb, depth, rob, rw, stops;
    i64 thresh, path_limit, keep_predicted_ghr;
    /* program arena sizes */
    i64 L, K, nsites;
    /* trace arena sizes */
    i64 nrec, nstores;
    /* program arena, per block (rows are [block][L], sources [block][L][K]) */
    const i64 *nrows, *nbody, *fpc, *term, *taken, *fall, *target, *callee;
    const i64 *site, *pct, *jpc, *reconv, *brlat, *brsrc;
    const i64 *rkind, *rlat, *rdest, *rsrc, *rlord, *rstord;
    /* trace arena, per record */
    const i64 *rblk, *rextra, *rtaken, *rl0, *rs0, *runder, *rnode, *rfpc;
    const i64 *llat, *lfwd, *nodepar, *noderet;
    /* diverge hints: hinted[b] marks a usable hint on block b's branch,
     * whose episodes start with the CFM CAM entries
     * cfmpcs[cfmoff[b] .. cfmoff[b + 1]) */
    const i64 *hinted, *cfmoff, *cfmpcs;
} Cell;

/* A growable stack of block ids (wrong-path and static-path calls). */
typedef struct {
    i64 *v;
    i64 n, cap;
} Stack;

typedef struct {
    const Cell *c;
    /* fetch state */
    i64 cycle, slots, bl, dual_until, width, half_width;
    /* retirement */
    i64 seq, last, cnt;
    i64 *ring; /* retire cycle per ROB slot */
    i64 rr[NREGS]; /* register ready cycles */
    /* stores: data ready, guarding predicate's resolution, predicate id */
    i64 *sready, *spready, *spid;
    i64 next_predicate;
    /* predictor state */
    i64 ghr;
    int16_t *weights; /* NPERC x (HBITS + 1) */
    uint8_t *jrs;
    uint8_t *btb_seen;
    /* registers renamed since the current episode opened */
    uint64_t written;
    Stack stack;
    int oom;
    i64 out[S_COUNT];
} Sim;

typedef struct {
    const i64 *pcs;
    i64 n;
    i64 locked; /* index into pcs, -1 while unlocked */
} Cam;

/* ------------------------------------------------------------------ */
/* Fetch and retirement primitives                                     */
/* ------------------------------------------------------------------ */

/* _advance_fetch_cycle() */
static inline void advance(Sim *s)
{
    s->cycle += 1;
    s->slots = s->cycle <= s->dual_until ? s->half_width : s->width;
    s->bl = s->c->maxb;
}

/* _advance_fetch_cycle(to) */
static inline void advance_to(Sim *s, i64 to)
{
    i64 cycle = s->cycle + 1;
    s->cycle = to > cycle ? to : cycle;
    s->slots = s->cycle <= s->dual_until ? s->half_width : s->width;
    s->bl = s->c->maxb;
}

/* The window-full stall of _fetch_slot: the instruction at s->seq
 * waits for the instruction `rob` entries older to retire. */
static inline void window_stall(Sim *s)
{
    if (s->seq >= s->c->rob) {
        i64 oldest = s->ring[s->seq % s->c->rob];
        if (s->cycle < oldest)
            advance_to(s, oldest);
    }
}

/* _taken_redirect: a BTB miss costs a bubble, then the taken transfer
 * may end the fetch cycle. */
static inline void taken_redirect(Sim *s, i64 site)
{
    if (!s->btb_seen[site]) {
        s->btb_seen[site] = 1;
        advance(s);
    }
    if (s->c->stops)
        advance(s);
}

/* _retire */
static inline void retire(Sim *s, i64 completion)
{
    i64 rc = completion + 1;
    if (rc < s->last)
        rc = s->last;
    if (rc == s->last && s->cnt >= s->c->rw)
        rc += 1;
    if (rc > s->last)
        s->cnt = 1;
    else
        s->cnt += 1;
    s->last = rc;
    s->ring[s->seq % s->c->rob] = rc;
    s->seq += 1;
}

static inline i64 sources_ready(const Sim *s, const i64 *src, i64 base)
{
    for (i64 k = 0; k < s->c->K; k++) {
        i64 ready = s->rr[src[k]];
        if (ready > base)
            base = ready;
    }
    return base;
}

static int push(Sim *s, i64 block)
{
    Stack *st = &s->stack;
    if (st->n == st->cap) {
        i64 cap = st->cap ? 2 * st->cap : 64;
        i64 *v = realloc(st->v, (size_t)cap * sizeof(i64));
        if (!v) {
            s->oom = 1;
            return 0;
        }
        st->v = v;
        st->cap = cap;
    }
    st->v[st->n++] = block;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Predictor and confidence estimator                                  */
/* ------------------------------------------------------------------ */

static inline i64 predict(const Sim *s, i64 index, i64 history)
{
    const int16_t *w = s->weights + index * (HBITS + 1);
    i64 out = w[0];
    for (int j = 0; j < HBITS; j++)
        out += ((history >> j) & 1) ? w[j + 1] : -w[j + 1];
    return out;
}

static inline int16_t clip(int v)
{
    return (int16_t)(v > WMAX ? WMAX : (v < WMIN ? WMIN : v));
}

static void train(Sim *s, i64 index, i64 history, i64 out, int pred,
                  int actual)
{
    if (pred == actual && (out >= 0 ? out : -out) > THETA)
        return;
    int16_t *w = s->weights + index * (HBITS + 1);
    int t = actual ? 1 : -1;
    w[0] = clip(w[0] + t);
    for (int j = 1; j <= HBITS; j++)
        w[j] = clip(w[j] + (((history >> (j - 1)) & 1) ? t : -t));
}

static inline i64 jrs_index(const Sim *s, i64 block, i64 history)
{
    return (s->c->jpc[block] ^ (history & JHMASK)) & (JTAB - 1);
}

static inline void jrs_update(Sim *s, i64 index, int correct)
{
    if (!correct)
        s->jrs[index] = 0;
    else if (s->jrs[index] < JMAX)
        s->jrs[index] += 1;
}

/* ------------------------------------------------------------------ */
/* On-trace fetch                                                      */
/* ------------------------------------------------------------------ */

/* _fetch_trace_block_fast over rows [0, n) of block b at record r.
 * pid < 0 is the main path; an episode passes its predicate id and the
 * diverge branch's resolution cycle, which its stores publish and its
 * loads test.  A load forwarding from a store whose guarding predicate
 * is unresolved at issue waits for it, unless both share the predicate.
 * Main-path stores never publish, so their spready stays 0 and the
 * forward always applies. */
static void fetch_trace_rows(Sim *s, i64 r, i64 b, i64 n, i64 pid,
                             i64 resolution)
{
    const Cell *c = s->c;
    i64 l0 = c->rl0[r];
    i64 s0 = c->rs0[r];
    for (i64 i = 0; i < n; i++) {
        i64 row = b * c->L + i;
        window_stall(s);
        if (s->slots <= 0)
            advance(s);
        s->slots -= 1;
        i64 base = sources_ready(s, c->rsrc + row * c->K,
                                 s->cycle + c->depth);
        i64 kind = c->rkind[row];
        i64 completion;
        if (kind == KIND_LOAD) {
            i64 load = l0 + c->rlord[row];
            i64 fwd = c->lfwd[load];
            if (fwd < 0) {
                completion = base + c->llat[load];
            } else if (base >= s->spready[fwd] || s->spid[fwd] == pid) {
                i64 ready = s->sready[fwd];
                completion = (ready > base ? ready : base) + 1;
            } else {
                s->out[S_LOAD_WAITS] += 1;
                completion = s->spready[fwd] + 2;
            }
        } else if (kind == KIND_STORE) {
            i64 store = s0 + c->rstord[row];
            completion = base + 1;
            s->sready[store] = completion;
            if (pid >= 0) {
                s->spready[store] = resolution;
                s->spid[store] = pid;
            }
        } else {
            completion = base + c->rlat[row];
        }
        i64 dest = c->rdest[row];
        s->rr[dest] = completion;
        if (dest != JREG)
            s->written |= (uint64_t)1 << dest;
        retire(s, completion);
    }
    s->out[S_FETCHED_CORRECT] += n;
    s->out[S_EXECUTED] += n;
}

/* _transfer_fast: the JMP/CALL/RET/NONE terminator of record r.  The
 * RAS push/pop and the call context are trace-static (arena). */
static void transfer(Sim *s, i64 r, i64 b)
{
    const Cell *c = s->c;
    i64 term = c->term[b];
    if (term == TERM_NONE)
        return;
    if (term == TERM_RET) {
        advance(s); /* returns end the fetch cycle */
        if (c->runder[r])
            advance_to(s, s->cycle + c->depth);
    } else {
        taken_redirect(s, c->site[b]);
    }
}

/* _fetch_slot(True) plus the branch row of block b: returns its
 * resolution cycle; *fetch_cycle receives the cycle it fetched in. */
static i64 fetch_branch(Sim *s, i64 b, i64 *fetch_cycle)
{
    const Cell *c = s->c;
    window_stall(s);
    if (s->slots <= 0 || s->bl <= 0)
        advance(s);
    s->slots -= 1;
    s->bl -= 1;
    *fetch_cycle = s->cycle;
    s->out[S_FETCHED_CORRECT] += 1;
    i64 base = sources_ready(s, c->brsrc + b * c->K, s->cycle + c->depth);
    i64 resolution = base + c->brlat[b];
    retire(s, resolution);
    s->out[S_EXECUTED] += 1;
    s->out[S_RETIRED_BRANCHES] += 1;
    return resolution;
}

/* ------------------------------------------------------------------ */
/* Wrong-path walk (mispredictions and dual-path forks)                */
/* ------------------------------------------------------------------ */

/* _walk_wrong_path_fast from block `cur` until `until`, starting from
 * the fetch state in *s and the speculative history `ghr`.  Only the
 * fetch-cycle accounting and the CD/CI counters matter afterwards, so
 * the walk runs on copies and returns the cycle it stopped in.
 * Instructions are control-dependent until the walk reaches the
 * branch's reconvergence PC or one of the `nup` block PCs the correct
 * path visits next. */
static i64 walk_wrong_path(Sim *s, i64 cur, i64 until, i64 reconv,
                           const i64 *upcoming, i64 nup, i64 node,
                           i64 ghr)
{
    const Cell *c = s->c;
    i64 cycle = s->cycle, slots = s->slots, bl = s->bl;
    i64 du = s->dual_until, w = s->width, hw = s->half_width;
    i64 mb = c->maxb;
    i64 cd = 0, ci = 0;
    int reached = 0;
    i64 guard = 0;
    s->stack.n = 0;
    while (cur >= 0 && cycle < until) {
        if (++guard > WALK_GUARD)
            break;
        if (!reached) {
            i64 pc = c->fpc[cur];
            if (pc == reconv)
                reached = 1;
            for (i64 k = 0; k < nup && !reached; k++)
                if (upcoming[k] == pc)
                    reached = 1;
        }
        i64 nr = c->nrows[cur];
        i64 term = c->term[cur];
        i64 took = 0;
        for (i64 j = 0; j < nr; j++) {
            if (cycle >= until)
                break;
            if (term == TERM_BR && j == nr - 1) {
                if (slots <= 0 || bl <= 0) {
                    cycle += 1;
                    slots = cycle <= du ? hw : w;
                    bl = mb;
                }
                bl -= 1;
            } else if (slots <= 0) {
                cycle += 1;
                slots = cycle <= du ? hw : w;
                bl = mb;
            }
            slots -= 1;
            took += 1;
        }
        if (reached)
            ci += took;
        else
            cd += took;
        if (term == TERM_BR) {
            int taken = predict(s, c->pct[cur], ghr) >= 0;
            ghr = ((ghr << 1) | taken) & GHR_MASK;
            if (taken) {
                cycle += 1; /* taken ends the fetch cycle */
                slots = cycle <= du ? hw : w;
                bl = mb;
                cur = c->taken[cur];
            } else {
                cur = c->fall[cur];
            }
        } else if (term == TERM_NONE) {
            cur = c->fall[cur];
        } else {
            cycle += 1; /* jmp/call/ret redirect */
            slots = cycle <= du ? hw : w;
            bl = mb;
            if (term == TERM_JMP) {
                cur = c->target[cur];
            } else if (term == TERM_CALL) {
                if (c->fall[cur] >= 0 && !push(s, c->fall[cur]))
                    break;
                cur = c->callee[cur];
            } else if (s->stack.n) {
                cur = s->stack.v[--s->stack.n];
            } else if (node >= 0) {
                cur = c->noderet[node];
                node = c->nodepar[node];
            } else {
                cur = -1; /* walked off the program */
            }
        }
    }
    s->out[S_FETCHED_WRONG_CD] += cd;
    s->out[S_FETCHED_WRONG_CI] += ci;
    return cycle;
}

/* ------------------------------------------------------------------ */
/* Dynamic predication (dmp / dhp episodes)                            */
/* ------------------------------------------------------------------ */

static inline int cam_matches(const Cam *cam, i64 pc)
{
    if (cam->locked >= 0)
        return pc == cam->pcs[cam->locked];
    for (i64 k = 0; k < cam->n; k++)
        if (cam->pcs[k] == pc)
            return 1;
    return 0;
}

static inline void cam_lock(Cam *cam, i64 pc)
{
    for (i64 k = 0; k < cam->n; k++)
        if (cam->pcs[k] == pc) {
            cam->locked = k;
            return;
        }
}

/* _handle_nested_trace_branch without diverge watching: predict,
 * fetch and retire the branch row, train, then flush and repair in
 * place (footnote 11) or take the redirect. */
static void nested_branch(Sim *s, i64 r, i64 b)
{
    const Cell *c = s->c;
    i64 history = s->ghr;
    i64 index = c->pct[b];
    i64 out = predict(s, index, history);
    int pred = out >= 0;
    i64 fetch_cycle;
    i64 completion = fetch_branch(s, b, &fetch_cycle);
    int actual = c->rtaken[r] != 0;
    s->ghr = ((history << 1) | pred) & GHR_MASK;
    train(s, index, history, out, pred, actual);
    jrs_update(s, jrs_index(s, b, history), pred == actual);
    if (pred != actual) {
        s->out[S_MISPREDICTIONS] += 1;
        s->out[S_PIPELINE_FLUSHES] += 1;
        advance_to(s, completion + 1);
        s->ghr = ((history << 1) | actual) & GHR_MASK;
    } else if (pred) {
        taken_redirect(s, c->site[b]);
    }
}

/* _fetch_dpred_trace_path_fast without diverge watching, from record
 * *pos under predicate pid.  *pos ends at the CFM record or where the
 * path stopped. */
static int trace_path(Sim *s, i64 *pos, i64 resolution, i64 pid,
                      Cam *cam)
{
    const Cell *c = s->c;
    i64 r = *pos;
    i64 fetched = 0;
    int outcome;
    for (;;) {
        if (r >= c->nrec) {
            outcome = P_EXHAUSTED;
            break;
        }
        i64 pc = c->rfpc[r];
        if (cam_matches(cam, pc)) {
            cam_lock(cam, pc);
            outcome = P_CFM;
            break;
        }
        if (s->cycle >= resolution) {
            outcome = P_RESOLVED;
            break;
        }
        i64 b = c->rblk[r];
        i64 nr = c->nrows[b];
        if (fetched + nr > c->path_limit) {
            outcome = P_LIMIT;
            break;
        }
        if (c->rextra[r] > 0)
            advance_to(s, s->cycle + c->rextra[r]);
        if (c->term[b] == TERM_BR) {
            fetch_trace_rows(s, r, b, c->nbody[b], pid, resolution);
            nested_branch(s, r, b);
        } else {
            fetch_trace_rows(s, r, b, nr, pid, resolution);
            transfer(s, r, b);
        }
        fetched += nr;
        r += 1;
    }
    *pos = r;
    return outcome;
}

/* _fetch_static_dpred_block_fast: predicate-FALSE instructions take
 * fetch slots and rename, check the window but never enter it (the
 * sequence number stays put) and never retire. */
static void static_block(Sim *s, i64 b)
{
    const Cell *c = s->c;
    i64 nr = c->nrows[b];
    int is_br = c->term[b] == TERM_BR;
    for (i64 i = 0; i < nr; i++) {
        i64 row = b * c->L + i;
        window_stall(s);
        if (is_br && i == nr - 1) {
            if (s->slots <= 0 || s->bl <= 0)
                advance(s);
            s->bl -= 1;
        } else if (s->slots <= 0) {
            advance(s);
        }
        s->slots -= 1;
        i64 dest = c->rdest[row];
        if (dest == JREG)
            continue;
        i64 base = sources_ready(s, c->rsrc + row * c->K,
                                 s->cycle + c->depth);
        i64 lat = c->rlat[row];
        if (c->rkind[row] == KIND_LOAD)
            lat = 2; /* false-path loads charge an L1 hit */
        else if (lat < 1)
            lat = 1;
        s->rr[dest] = base + lat;
        s->written |= (uint64_t)1 << dest;
    }
    s->out[S_FETCHED_WRONG_CD] += nr;
    s->out[S_EXECUTED] += nr;
    s->out[S_PRED_FALSE] += nr;
}

/* _fetch_dpred_static_path_fast without diverge watching: walk the
 * static CFG from block `cur` behind the predictor, under predicate
 * FALSE; `node` is the architectural call context to return through. */
static int static_path(Sim *s, i64 cur, i64 node, i64 resolution,
                       Cam *cam)
{
    const Cell *c = s->c;
    i64 fetched = 0;
    s->stack.n = 0;
    for (;;) {
        if (cur < 0)
            return P_EXHAUSTED;
        i64 pc = c->fpc[cur];
        if (cam_matches(cam, pc)) {
            cam_lock(cam, pc);
            return P_CFM;
        }
        if (s->cycle >= resolution)
            return P_RESOLVED;
        if (fetched + c->nrows[cur] > c->path_limit)
            return P_LIMIT;
        static_block(s, cur);
        fetched += c->nrows[cur];
        i64 term = c->term[cur];
        if (term == TERM_BR) {
            i64 history = s->ghr;
            int taken = predict(s, c->pct[cur], history) >= 0;
            s->ghr = ((history << 1) | taken) & GHR_MASK;
            if (taken) {
                advance(s); /* taken ends the fetch cycle */
                cur = c->taken[cur];
            } else {
                cur = c->fall[cur];
            }
        } else if (term == TERM_NONE) {
            cur = c->fall[cur];
        } else {
            advance(s); /* jmp/call/ret redirect */
            if (term == TERM_JMP) {
                cur = c->target[cur];
            } else if (term == TERM_CALL) {
                if (c->fall[cur] >= 0 && !push(s, c->fall[cur]))
                    return P_EXHAUSTED;
                cur = c->callee[cur];
            } else if (s->stack.n) {
                cur = s->stack.v[--s->stack.n];
            } else if (node >= 0) {
                cur = c->noderet[node];
                node = c->nodepar[node];
            } else {
                cur = -1; /* walked off the program */
            }
        }
    }
}

/* One dynamic-predication episode on the diverge branch ending record
 * r (block b), after its fetch, retirement and training.  Returns the
 * record the main loop continues from. */
static i64 dpred_episode(Sim *s, i64 r, i64 b, i64 resolution,
                         i64 snapshot, int pred, int actual)
{
    const Cell *c = s->c;
    int mispredicted = pred != actual;
    i64 cp1_ready[NREGS], cp2_ready[NREGS];
    i64 cont, predicted_ghr, ppos = -1, apos = -1;
    int exit_case;
    Cam cam = {c->cfmpcs + c->cfmoff[b], c->cfmoff[b + 1] - c->cfmoff[b],
               -1};
    i64 p1 = s->next_predicate;
    i64 p2 = p1 + 1;
    s->next_predicate += 2;

    s->out[S_DPRED_ENTRIES] += 1;
    s->out[S_EXTRA_UOPS] += 1; /* enter.pred.path */
    memcpy(cp1_ready, s->rr, sizeof cp1_ready);
    s->written = 0;

    /* Predicted path. */
    s->ghr = ((snapshot << 1) | pred) & GHR_MASK;
    if (pred)
        taken_redirect(s, c->site[b]);
    int pout;
    if (mispredicted) {
        i64 start = pred ? c->taken[b] : c->fall[b];
        pout = static_path(s, start, c->rnode[r], resolution, &cam);
    } else {
        ppos = r + 1;
        pout = trace_path(s, &ppos, resolution, p1, &cam);
    }

    if (pout != P_CFM) {
        /* _exit_without_predicted_cfm: cases 5 and 6. */
        if (pout != P_RESOLVED && s->cycle < resolution)
            advance_to(s, resolution);
        if (mispredicted) {
            exit_case = 6; /* FLUSH */
            s->out[S_MISPREDICTIONS] += 1;
            s->out[S_PIPELINE_FLUSHES] += 1;
            memcpy(s->rr, cp1_ready, sizeof cp1_ready);
            advance_to(s, resolution + 1);
            s->ghr = ((snapshot << 1) | actual) & GHR_MASK;
            cont = r + 1;
        } else {
            exit_case = 5; /* CONTINUE_PREDICTED */
            cont = ppos;
        }
    } else {
        /* Alternate path from the pre-branch registers. */
        predicted_ghr = s->ghr;
        memcpy(cp2_ready, s->rr, sizeof cp2_ready);
        memcpy(s->rr, cp1_ready, sizeof cp1_ready);
        s->out[S_EXTRA_UOPS] += 1; /* enter.alternate.path */
        s->ghr = ((snapshot << 1) | !pred) & GHR_MASK;
        int aout;
        if (mispredicted) {
            apos = r + 1;
            aout = trace_path(s, &apos, resolution, p2, &cam);
        } else {
            i64 start = pred ? c->fall[b] : c->taken[b];
            aout = static_path(s, start, c->rnode[ppos], resolution, &cam);
        }
        if (aout == P_CFM) {
            /* Cases 1 and 2: merge with one select-uop per register
             * renamed on either path, in register order. */
            s->out[S_EXTRA_UOPS] += 1; /* exit.pred */
            i64 issue = s->cycle + c->depth;
            for (int a = 0; a < 32; a++) {
                if (!((s->written >> a) & 1))
                    continue;
                i64 ready = cp2_ready[a];
                if (s->rr[a] > ready)
                    ready = s->rr[a];
                if (resolution > ready)
                    ready = resolution;
                s->rr[a] = (issue > ready ? issue : ready) + 1;
                s->out[S_SELECT_UOPS] += 1;
            }
            if (c->keep_predicted_ghr)
                s->ghr = predicted_ghr;
            if (mispredicted) {
                exit_case = 2; /* NORMAL_MISPREDICTED */
                s->out[S_MISPREDICTIONS] += 1; /* eliminated: no flush */
                cont = apos;
            } else {
                exit_case = 1; /* NORMAL_CORRECT */
                cont = ppos;
            }
        } else {
            /* Cases 3 and 4: wait for the diverge branch. */
            if (s->cycle < resolution)
                advance_to(s, resolution);
            if (mispredicted) {
                exit_case = 4; /* CONTINUE_ALTERNATE */
                s->out[S_MISPREDICTIONS] += 1; /* eliminated: no flush */
                cont = apos;
            } else {
                exit_case = 3; /* REDIRECT_TO_CFM */
                memcpy(s->rr, cp2_ready, sizeof cp2_ready);
                s->ghr = predicted_ghr;
                advance(s);
                cont = ppos;
            }
        }
    }
    s->out[S_EXIT_CASE0 + exit_case] += 1;
    return cont;
}

/* ------------------------------------------------------------------ */
/* Conditional branches on the main path                               */
/* ------------------------------------------------------------------ */

/* _handle_trace_branch_fast for record r (block b): predict, fetch,
 * train, then enter an episode, fork, flush or redirect.  Returns the
 * next record. */
static i64 trace_branch(Sim *s, i64 r, i64 b)
{
    const Cell *c = s->c;
    i64 snapshot = s->ghr;
    i64 index = c->pct[b];
    i64 out = predict(s, index, snapshot);
    int pred = out >= 0;
    i64 fetch_cycle;
    i64 resolution = fetch_branch(s, b, &fetch_cycle);
    int actual = c->rtaken[r] != 0;
    int mispredicted = pred != actual;
    i64 jidx = jrs_index(s, b, snapshot);
    int confident = s->jrs[jidx] >= c->thresh;
    train(s, index, snapshot, out, pred, actual);
    jrs_update(s, jidx, !mispredicted);

    if (c->predicating && c->hinted[b] && !confident)
        return dpred_episode(s, r, b, resolution, snapshot, pred, actual);

    i64 ghr_pred = ((snapshot << 1) | pred) & GHR_MASK;
    i64 ghr_actual = ((snapshot << 1) | actual) & GHR_MASK;
    if (c->dualpath && !confident && fetch_cycle > s->dual_until
        && (out >= 0 ? out : -out) <= THETA / 4) {
        /* _fork_dual_path: the not-taken-by-the-trace path is fetched
         * at half bandwidth; the walk is cycle-neutral. */
        s->out[S_DUALPATH_FORKS] += 1;
        s->dual_until = resolution;
        i64 start = actual ? c->fall[b] : c->taken[b];
        if (start >= 0)
            walk_wrong_path(s, start, resolution, c->reconv[b], NULL, 0,
                            c->rnode[r], ghr_pred);
        if (mispredicted) {
            s->out[S_MISPREDICTIONS] += 1;
            s->ghr = ghr_actual;
        } else {
            s->ghr = ghr_pred;
            if (pred)
                taken_redirect(s, c->site[b]);
        }
    } else if (mispredicted) {
        /* _mispredict_flush */
        s->out[S_MISPREDICTIONS] += 1;
        s->out[S_PIPELINE_FLUSHES] += 1;
        i64 start = pred ? c->taken[b] : c->fall[b];
        if (start >= 0) {
            i64 stop = r + 1 + CI_LOOKAHEAD;
            if (stop > c->nrec)
                stop = c->nrec;
            s->cycle = walk_wrong_path(s, start, resolution, c->reconv[b],
                                       c->rfpc + r + 1, stop - (r + 1),
                                       c->rnode[r], ghr_pred);
        }
        advance_to(s, resolution + 1);
        s->ghr = ghr_actual;
    } else {
        s->ghr = ghr_pred;
        if (pred)
            taken_redirect(s, c->site[b]);
    }
    return r + 1;
}

/* ------------------------------------------------------------------ */
/* Entry points                                                        */
/* ------------------------------------------------------------------ */

int repro_kernel_abi(void)
{
    return REPRO_KERNEL_ABI;
}

/* Simulate one cell; writes S_COUNT counters to out.  Returns 0, or -1
 * when memory runs out. */
int repro_run_cell(const Cell *c, i64 *out)
{
    Sim s;
    memset(&s, 0, sizeof s);
    s.c = c;
    s.width = c->width;
    s.half_width = c->width / 2 > 1 ? c->width / 2 : 1;
    s.slots = c->width;
    s.bl = c->maxb;
    s.dual_until = -1;
    s.ring = calloc((size_t)c->rob, sizeof(i64));
    s.sready = calloc((size_t)c->nstores + 1, sizeof(i64));
    s.spready = calloc((size_t)c->nstores + 1, sizeof(i64));
    s.spid = malloc(((size_t)c->nstores + 1) * sizeof(i64));
    s.weights = calloc((size_t)NPERC * (HBITS + 1), sizeof(int16_t));
    s.jrs = calloc(JTAB, 1);
    s.btb_seen = calloc((size_t)c->nsites + 1, 1);
    int status = -1;
    if (s.ring && s.sready && s.spready && s.spid && s.weights && s.jrs
        && s.btb_seen) {
        for (i64 k = 0; k <= c->nstores; k++)
            s.spid[k] = -1;
        i64 r = 0;
        while (r < c->nrec && !s.oom) {
            i64 b = c->rblk[r];
            if (c->rextra[r] > 0) /* icache miss */
                advance_to(&s, s.cycle + c->rextra[r]);
            if (c->term[b] == TERM_BR) {
                fetch_trace_rows(&s, r, b, c->nbody[b], -1, 0);
                r = trace_branch(&s, r, b);
            } else {
                fetch_trace_rows(&s, r, b, c->nrows[b], -1, 0);
                transfer(&s, r, b);
                r += 1;
            }
        }
        if (!s.oom) {
            s.out[S_CYCLES] = s.last > s.cycle ? s.last : s.cycle;
            memcpy(out, s.out, sizeof s.out);
            status = 0;
        }
    }
    free(s.ring);
    free(s.sready);
    free(s.spready);
    free(s.spid);
    free(s.weights);
    free(s.jrs);
    free(s.btb_seen);
    free(s.stack.v);
    return status;
}
