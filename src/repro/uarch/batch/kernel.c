/*
 * Native per-cell kernel of the batch engine (engine="batch").
 *
 * repro_run_cell() simulates one (program, trace, config) cell over the
 * static tables of repro/uarch/batch/arena.py (ProgramArena, TraceArena)
 * and writes every SimStats counter the batch envelope can produce.  It
 * is a literal transcription of the fast engine's per-record model --
 * TimingSimulator._run_fast and its inlined helpers in
 * repro/uarch/timing.py, and the dmp/dhp episodes of
 * PredicationAwareSimulator._dpred_once_impl in repro/core/dpred.py --
 * for exactly this envelope (see engine.cell_supported):
 *
 *   - modes baseline, dualpath and dmp/dhp, with the Table 1 exit cases,
 *     select-uops and the Figure 9 enhancements: multiple CFM points,
 *     early exit, multiple diverge branches (the restart and nested
 *     policies) and the selective predictor update;
 *   - the default perceptron predictor, the JRS confidence estimator and
 *     the Table 2 caches, store buffer, RAS and BTB.
 *
 * The caches, store buffer, return-address stack and architectural call
 * context are simulated per cell from the trace's block ids and memory
 * addresses: an early exit that flushes a mispredicted diverge branch
 * re-fetches the records its alternate path already fetched, so the
 * access sequence these structures see depends on timing.  The BTB is
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
#define REPRO_KERNEL_ABI 2

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
#define NARCH 32
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

/* Table 2 memory system (repro/memsys/hierarchy.py): set counts, ways
 * and latencies, 8-word lines; the store buffer and RAS sizes. */
#define L1I_SETS 512
#define L1I_WAYS 2
#define L1D_SETS 256
#define L1D_WAYS 4
#define L2_SETS 2048
#define L2_WAYS 8
#define L1_LAT 2
#define L2_LAT 10
#define MEM_LAT 300
#define SB_CAP 128 /* a power of two: entries live at ordinal % SB_CAP */
#define SB_HASH 256
#define RAS_DEPTH 64

/* Wrong-path walk block guard and control-independence lookahead
 * (TimingSimulator._walk_wrong_path_fast, _CI_LOOKAHEAD_BLOCKS). */
#define WALK_GUARD 10000
#define CI_LOOKAHEAD 32

/* Path outcomes (repro.core.modes.PathOutcome). */
enum { P_CFM, P_RESOLVED, P_EXHAUSTED, P_LIMIT, P_NEW_DIVERGE };

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
    S_EARLY_EXITS,
    S_DPRED_RESTARTS,
    S_NESTED_EPISODES,
    S_EXIT_CASE0, /* exit case k is counted at S_EXIT_CASE0 + k, k = 1..6 */
    S_COUNT = S_EXIT_CASE0 + 7
};

/* One cell's inputs.  Field order mirrors native._Cell. */
typedef struct {
    /* configuration */
    i64 dualpath, predicating, width, maxb, depth, rob, rw, stops;
    i64 thresh, path_limit, keep_predicted_ghr;
    i64 early_exit, multiple_diverge, nested, max_nested, selective;
    /* program arena sizes */
    i64 L, K, nsites;
    /* trace arena and warm-up sizes */
    i64 nrec, nwarm;
    /* program arena, per block (rows are [block][L], sources [block][L][K]) */
    const i64 *nrows, *nbody, *fpc, *term, *taken, *fall, *target, *callee;
    const i64 *site, *pct, *jpc, *reconv, *brlat, *brsrc;
    const i64 *rkind, *rlat, *rdest, *rsrc, *rmord;
    /* trace arena, per record: block, direction, first memory address;
     * then the memory addresses of every record's loads and stores */
    const i64 *rblk, *rtaken, *rm0, *maddr;
    /* words pre-loaded into the L2 before the run */
    const i64 *warm;
    /* diverge hints: hinted[b] is 1 for a usable hint on block b's
     * branch, 2 for a usable loop hint (which only the multiple-diverge
     * watch follows), 0 otherwise; its episodes start with the CFM CAM
     * entries cfmpcs[cfmoff[b] .. cfmoff[b + 1]) and expect the CFM
     * point within expect[b] instructions (the early-exit threshold) */
    const i64 *hinted, *cfmoff, *cfmpcs, *expect;
} Cell;

/* A growable stack of block ids (the call context and the walk stacks). */
typedef struct {
    i64 *v;
    i64 n, cap;
} Stack;

/* One set-associative LRU cache level: each set's lines most recently
 * used first, fill[set] of them valid. */
typedef struct {
    i64 *tag;
    uint8_t *fill;
    i64 sets, ways;
} Cache;

/* The renaming state a dpred checkpoint restores: register ready
 * cycles, the RAT's arch->tag mapping and its M bits. */
typedef struct {
    i64 rr[NREGS];
    i64 map[NARCH];
    uint32_t mbits;
} Checkpoint;

typedef struct {
    const Cell *c;
    /* fetch state */
    i64 cycle, slots, bl, dual_until, width, half_width;
    /* retirement */
    i64 seq, last, cnt;
    i64 *ring; /* retire cycle per ROB slot */
    /* register ready cycles and the RAT (repro/uarch/rat.py) */
    i64 rr[NREGS];
    i64 map[NARCH];
    uint32_t mbits;
    i64 next_tag;
    i64 next_predicate;
    /* memory system */
    Cache l1i, l1d, l2;
    /* store buffer: the last SB_CAP stores, slot ordinal % SB_CAP;
     * sb_head chains each address hash's stores youngest first */
    i64 nst;
    i64 sb_addr[SB_CAP], sb_prev[SB_CAP];
    i64 sb_ready[SB_CAP], sb_pready[SB_CAP], sb_pid[SB_CAP];
    i64 sb_head[SB_HASH];
    i64 ras; /* return-address stack occupancy */
    Stack calls; /* architectural call context: return block ids */
    /* predictor state */
    i64 ghr;
    int16_t *weights; /* NPERC x (HBITS + 1) */
    uint8_t *jrs;
    uint8_t *btb_seen;
    Stack stack; /* calls pushed by the current wrong-path/static walk */
    int oom;
    i64 out[S_COUNT];
} Sim;

typedef struct {
    const i64 *pcs;
    i64 n;
    i64 locked; /* index into pcs, -1 while unlocked */
} Cam;

/* A diverge branch instance (BranchContext): record r of block b,
 * predicted pred with perceptron output `out`, resolving at
 * `resolution`, predicted from global history `history`. */
typedef struct {
    i64 r, b, out, resolution, history;
    int pred, actual;
} Diverge;

/* Where the main loop resumes after an episode (_EpisodeEnd): record
 * `cont`, or, when `restart` is set, a new episode on `next`. */
typedef struct {
    i64 cont;
    int restart;
    Diverge next;
} EpisodeEnd;

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

/* rat.rename_dest plus the ready cycle of the new mapping. */
static inline void rename_dest(Sim *s, i64 dest, i64 ready)
{
    s->rr[dest] = ready;
    if (dest == JREG)
        return;
    s->map[dest] = s->next_tag++;
    s->mbits |= (uint32_t)1 << dest;
}

static void save(const Sim *s, Checkpoint *cp)
{
    memcpy(cp->rr, s->rr, sizeof cp->rr);
    memcpy(cp->map, s->map, sizeof cp->map);
    cp->mbits = s->mbits;
}

static void restore(Sim *s, const Checkpoint *cp)
{
    memcpy(s->rr, cp->rr, sizeof s->rr);
    memcpy(s->map, cp->map, sizeof s->map);
    s->mbits = cp->mbits;
}

static int push(Sim *s, Stack *st, i64 block)
{
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
/* Memory system                                                       */
/* ------------------------------------------------------------------ */

static int cache_init(Cache *cache, i64 sets, i64 ways)
{
    cache->sets = sets;
    cache->ways = ways;
    cache->tag = malloc((size_t)(sets * ways) * sizeof(i64));
    cache->fill = calloc((size_t)sets, 1);
    return cache->tag && cache->fill;
}

static void cache_free(Cache *cache)
{
    free(cache->tag);
    free(cache->fill);
}

/* Cache.access on a line number: True on a hit; a miss allocates the
 * line, evicting the least recently used one of a full set.  The set
 * count is a power of two, so the mask is Python's floor modulo. */
static int cache_access(Cache *cache, i64 line)
{
    i64 set = line & (cache->sets - 1);
    i64 *ways = cache->tag + set * cache->ways;
    i64 n = cache->fill[set];
    i64 k = 0;
    while (k < n && ways[k] != line)
        k++;
    int hit = k < n;
    if (!hit) {
        if (n < cache->ways)
            cache->fill[set] = (uint8_t)(n + 1);
        else
            k = n - 1;
    }
    memmove(ways + 1, ways, (size_t)k * sizeof(i64));
    ways[0] = line;
    return hit;
}

/* Word address -> cache line; the arithmetic shift is Python's floor
 * division for the two's-complement view of a 64-bit address. */
static inline i64 line_of(i64 address)
{
    return address >> 3;
}

/* CacheHierarchy.inst_access(pc // 8) minus the L1I latency: the
 * fetch stall of a block starting at pc. */
static inline i64 icache_extra(Sim *s, i64 pc)
{
    i64 line = line_of(line_of(pc));
    if (cache_access(&s->l1i, line))
        return 0;
    if (cache_access(&s->l2, line))
        return L2_LAT;
    return L2_LAT + MEM_LAT;
}

/* CacheHierarchy.data_access */
static inline i64 data_access(Sim *s, i64 address)
{
    i64 line = line_of(address);
    if (cache_access(&s->l1d, line))
        return L1_LAT;
    if (cache_access(&s->l2, line))
        return L1_LAT + L2_LAT;
    return L1_LAT + L2_LAT + MEM_LAT;
}

static inline i64 sb_hash(i64 address)
{
    uint64_t h = (uint64_t)address * 0x9E3779B97F4A7C15ull;
    return (i64)(h >> 56) & (SB_HASH - 1);
}

/* The youngest store to `address` still in the buffer (its ordinal), or
 * -1.  It alone decides a load's StoreBuffer.lookup: every store is
 * older than every later load, and no store resolves FALSE here. */
static i64 sb_find(const Sim *s, i64 address)
{
    i64 oldest = s->nst - SB_CAP;
    for (i64 o = s->sb_head[sb_hash(address)]; o >= 0 && o >= oldest;
         o = s->sb_prev[o & (SB_CAP - 1)])
        if (s->sb_addr[o & (SB_CAP - 1)] == address)
            return o;
    return -1;
}

/* StoreBuffer.insert: the oldest entry drains once SB_CAP are held. */
static void sb_insert(Sim *s, i64 address, i64 ready, i64 pready, i64 pid)
{
    i64 o = s->nst++;
    i64 slot = o & (SB_CAP - 1);
    i64 h = sb_hash(address);
    s->sb_addr[slot] = address;
    s->sb_prev[slot] = s->sb_head[h];
    s->sb_head[h] = o;
    s->sb_ready[slot] = ready;
    s->sb_pready[slot] = pready;
    s->sb_pid[slot] = pid;
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

static inline int confident(const Sim *s, i64 block, i64 history)
{
    return s->jrs[jrs_index(s, block, history)] >= s->c->thresh;
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
 * is still unresolved when the load executes waits for it, unless both
 * share the predicate.
 * Main-path stores publish no predicate (ready 0), so forwarding from
 * them always applies. */
static void fetch_trace_rows(Sim *s, i64 r, i64 b, i64 n, i64 pid,
                             i64 resolution)
{
    const Cell *c = s->c;
    const i64 *addrs = c->maddr + c->rm0[r];
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
            i64 address = addrs[c->rmord[row]];
            i64 fwd = sb_find(s, address);
            if (fwd < 0) {
                completion = base + data_access(s, address);
            } else {
                i64 slot = fwd & (SB_CAP - 1);
                if (base >= s->sb_pready[slot] || s->sb_pid[slot] == pid) {
                    i64 ready = s->sb_ready[slot];
                    completion = (ready > base ? ready : base) + 1;
                } else {
                    s->out[S_LOAD_WAITS] += 1;
                    completion = s->sb_pready[slot] + L1_LAT;
                }
            }
        } else if (kind == KIND_STORE) {
            completion = base + 1;
            sb_insert(s, addrs[c->rmord[row]], completion,
                      pid >= 0 ? resolution : 0, pid);
        } else {
            completion = base + c->rlat[row];
        }
        rename_dest(s, c->rdest[row], completion);
        retire(s, completion);
    }
    s->out[S_FETCHED_CORRECT] += n;
    s->out[S_EXECUTED] += n;
}

/* _transfer_fast: the JMP/CALL/RET/NONE terminator of block b. */
static void transfer(Sim *s, i64 b)
{
    const Cell *c = s->c;
    i64 term = c->term[b];
    if (term == TERM_NONE)
        return;
    if (term == TERM_RET) {
        if (s->calls.n)
            s->calls.n -= 1;
        int underflow = s->ras == 0;
        if (!underflow)
            s->ras -= 1;
        advance(s); /* returns end the fetch cycle */
        if (underflow)
            advance_to(s, s->cycle + c->depth);
    } else {
        if (term == TERM_CALL && c->fall[b] >= 0) {
            if (s->ras < RAS_DEPTH)
                s->ras += 1;
            push(s, &s->calls, c->fall[b]);
        }
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
/* Static walks (wrong paths and predicate-FALSE paths)                */
/* ------------------------------------------------------------------ */

/* The block a static walk's jmp/call/ret at block b leads to, updating
 * the walk's own call stack; *depth counts the architectural call
 * context entries the walk has not yet returned through.  -1 ends the
 * walk (it walked off the program, or memory ran out). */
static i64 walk_transfer(Sim *s, i64 b, i64 *depth)
{
    const Cell *c = s->c;
    i64 term = c->term[b];
    if (term == TERM_JMP)
        return c->target[b];
    if (term == TERM_CALL) {
        if (c->fall[b] >= 0 && !push(s, &s->stack, c->fall[b]))
            return -1;
        return c->callee[b];
    }
    if (s->stack.n)
        return s->stack.v[--s->stack.n];
    if (*depth > 0)
        return s->calls.v[--*depth];
    return -1;
}

/* _walk_wrong_path_fast from block `cur` until `until`, starting from
 * the fetch state in *s and the speculative history `ghr`.  Only the
 * fetch-cycle accounting and the CD/CI counters matter afterwards, so
 * the walk runs on copies and returns the cycle it stopped in.
 * Instructions are control-dependent until the walk reaches the
 * branch's reconvergence PC or the first PC of one of the `nup` blocks
 * in `upcoming` (those the correct path visits next). */
static i64 walk_wrong_path(Sim *s, i64 cur, i64 until, i64 reconv,
                           const i64 *upcoming, i64 nup, i64 ghr)
{
    const Cell *c = s->c;
    i64 cycle = s->cycle, slots = s->slots, bl = s->bl;
    i64 du = s->dual_until, w = s->width, hw = s->half_width;
    i64 mb = c->maxb;
    i64 cd = 0, ci = 0;
    int reached = 0;
    i64 guard = 0;
    i64 depth = s->calls.n;
    s->stack.n = 0;
    while (cur >= 0 && cycle < until) {
        if (++guard > WALK_GUARD)
            break;
        if (!reached) {
            i64 pc = c->fpc[cur];
            if (pc == reconv)
                reached = 1;
            for (i64 k = 0; k < nup && !reached; k++)
                if (c->fpc[upcoming[k]] == pc)
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
            cur = walk_transfer(s, cur, &depth);
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

/* _handle_nested_trace_branch for record r (block b): predict, fetch
 * and retire the branch row.  When `watch` is set and the branch is a
 * low-confidence diverge branch, stop there (NEW_DIVERGE): *next
 * receives the branch and 1 is returned, untrained.  Otherwise train,
 * then flush and repair in place (footnote 11) or take the redirect. */
static int nested_branch(Sim *s, i64 r, i64 b, int watch, Diverge *next)
{
    const Cell *c = s->c;
    i64 history = s->ghr;
    i64 index = c->pct[b];
    i64 out = predict(s, index, history);
    int pred = out >= 0;
    i64 fetch_cycle;
    i64 completion = fetch_branch(s, b, &fetch_cycle);
    int actual = c->rtaken[r] != 0;
    if (watch && c->hinted[b] && !confident(s, b, history)) {
        next->r = r;
        next->b = b;
        next->out = out;
        next->resolution = completion;
        next->history = history;
        next->pred = pred;
        next->actual = actual;
        return 1;
    }
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
    return 0;
}

/* _fetch_dpred_trace_path_fast from record *pos under predicate pid,
 * fetching at most `limit` instructions; branches are watched for a
 * newer diverge branch once `restart_after` instructions are in, if
 * `watch`.  *pos ends at the CFM record or where the path stopped (for
 * NEW_DIVERGE, the new diverge branch's record, described in *next). */
static int trace_path(Sim *s, i64 *pos, i64 resolution, i64 pid, Cam *cam,
                      i64 limit, int watch, i64 restart_after,
                      Diverge *next)
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
        i64 b = c->rblk[r];
        i64 pc = c->fpc[b];
        if (cam_matches(cam, pc)) {
            cam_lock(cam, pc);
            outcome = P_CFM;
            break;
        }
        if (s->cycle >= resolution) {
            outcome = P_RESOLVED;
            break;
        }
        i64 nr = c->nrows[b];
        if (fetched + nr > limit) {
            outcome = P_LIMIT;
            break;
        }
        i64 extra = icache_extra(s, pc);
        if (extra > 0)
            advance_to(s, s->cycle + extra);
        if (c->term[b] == TERM_BR) {
            fetch_trace_rows(s, r, b, c->nbody[b], pid, resolution);
            if (nested_branch(s, r, b, watch && fetched >= restart_after,
                              next)) {
                outcome = P_NEW_DIVERGE;
                break;
            }
        } else {
            fetch_trace_rows(s, r, b, nr, pid, resolution);
            transfer(s, b);
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
            lat = L1_LAT; /* false-path loads charge an L1 hit */
        else if (lat < 1)
            lat = 1;
        rename_dest(s, dest, base + lat);
    }
    s->out[S_FETCHED_WRONG_CD] += nr;
    s->out[S_EXECUTED] += nr;
    s->out[S_PRED_FALSE] += nr;
}

/* _fetch_dpred_static_path_fast: walk the static CFG from block `cur`
 * behind the predictor, under predicate FALSE, returning through the
 * architectural call context.  With `watch`, a low-confidence diverge
 * branch met once `restart_after` instructions are in ends the path
 * (NEW_DIVERGE). */
static int static_path(Sim *s, i64 cur, i64 resolution, Cam *cam,
                       i64 limit, int watch, i64 restart_after)
{
    const Cell *c = s->c;
    i64 fetched = 0;
    i64 depth = s->calls.n;
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
        if (fetched + c->nrows[cur] > limit)
            return P_LIMIT;
        static_block(s, cur);
        i64 term = c->term[cur];
        if (watch && fetched >= restart_after && term == TERM_BR
            && c->hinted[cur] && !confident(s, cur, s->ghr))
            return P_NEW_DIVERGE;
        fetched += c->nrows[cur];
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
            cur = walk_transfer(s, cur, &depth);
        }
    }
}

/* _flush_diverge_branch: the diverge branch was mispredicted and
 * predication did not save it. */
static EpisodeEnd flush_diverge(Sim *s, const Diverge *x,
                                const Checkpoint *cp1)
{
    EpisodeEnd end = {x->r + 1, 0, {0}};
    s->out[S_MISPREDICTIONS] += 1;
    s->out[S_PIPELINE_FLUSHES] += 1;
    restore(s, cp1);
    advance_to(s, x->resolution + 1);
    s->ghr = ((x->history << 1) | x->actual) & GHR_MASK;
    return end;
}

/* _dpred_once_impl: one episode on diverge branch *x, after its fetch
 * and retirement; depth counts the nested episodes around it. */
static EpisodeEnd dpred_once(Sim *s, const Diverge *x, i64 depth)
{
    const Cell *c = s->c;
    i64 r = x->r, b = x->b, resolution = x->resolution;
    int pred = x->pred;
    int mispredicted = pred != x->actual;
    Checkpoint cp1, cp2;
    EpisodeEnd end = {0, 0, {0}};
    Diverge next = {0};
    i64 ppos = -1, apos = -1, predicted_ghr;
    int exit_case, pout, aout;
    Cam cam = {c->cfmpcs + c->cfmoff[b], c->cfmoff[b + 1] - c->cfmoff[b],
               -1};
    i64 p1 = s->next_predicate;
    i64 p2 = p1 + 1;
    /* Python's max(expected // 2, 4); >> 1 floors like // does. */
    i64 restart_after = c->expect[b] >> 1;
    if (restart_after < 4)
        restart_after = 4;

    s->out[S_DPRED_ENTRIES] += 1;
    /* _train_diverge_branch: the selective policy trains only the
     * confidence estimator. */
    if (!c->selective)
        train(s, c->pct[b], x->history, x->out, pred, x->actual);
    jrs_update(s, jrs_index(s, b, x->history), !mispredicted);
    s->next_predicate += 2;
    s->out[S_EXTRA_UOPS] += 1; /* enter.pred.path */
    save(s, &cp1);
    s->mbits = 0;

    /* Predicted path. */
    s->ghr = ((x->history << 1) | pred) & GHR_MASK;
    if (pred)
        taken_redirect(s, c->site[b]);
    if (mispredicted) {
        i64 start = pred ? c->taken[b] : c->fall[b];
        pout = static_path(s, start, resolution, &cam, c->path_limit,
                           (int)c->multiple_diverge, restart_after);
    } else {
        ppos = r + 1;
        for (;;) {
            pout = trace_path(s, &ppos, resolution, p1, &cam, c->path_limit,
                              (int)c->multiple_diverge, restart_after,
                              &next);
            if (pout == P_NEW_DIVERGE && c->nested
                && depth < c->max_nested) {
                /* Section 2.7.4's nested policy: predicate the newer
                 * diverge branch too, then resume this predicted path
                 * where the inner episode left off. */
                s->out[S_NESTED_EPISODES] += 1;
                EpisodeEnd inner = dpred_once(s, &next, depth + 1);
                if (inner.restart)
                    return inner;
                ppos = inner.cont;
                continue;
            }
            break;
        }
    }

    if (pout == P_NEW_DIVERGE) {
        /* _handle_new_diverge */
        if (mispredicted) {
            s->out[S_EXIT_CASE0 + 6] += 1; /* FLUSH */
            return flush_diverge(s, x, &cp1);
        }
        end.restart = 1;
        end.next = next;
        return end;
    }

    if (pout != P_CFM) {
        /* _exit_without_predicted_cfm: cases 5 and 6. */
        if (pout != P_RESOLVED && s->cycle < resolution)
            advance_to(s, resolution);
        if (mispredicted) {
            s->out[S_EXIT_CASE0 + 6] += 1; /* FLUSH */
            return flush_diverge(s, x, &cp1);
        }
        s->out[S_EXIT_CASE0 + 5] += 1; /* CONTINUE_PREDICTED */
        end.cont = ppos;
        return end;
    }

    /* Alternate path from the pre-branch registers. */
    predicted_ghr = s->ghr;
    save(s, &cp2);
    restore(s, &cp1);
    s->out[S_EXTRA_UOPS] += 1; /* enter.alternate.path */
    s->ghr = ((x->history << 1) | !pred) & GHR_MASK;
    i64 alt_limit = c->early_exit ? c->expect[b] : c->path_limit;
    if (mispredicted) {
        apos = r + 1;
        aout = trace_path(s, &apos, resolution, p2, &cam, alt_limit, 0, 0,
                          &next);
    } else {
        i64 start = pred ? c->fall[b] : c->taken[b];
        aout = static_path(s, start, resolution, &cam, alt_limit, 0, 0);
    }

    /* _exit_after_alternate */
    if (aout == P_CFM) {
        /* Cases 1 and 2: merge with one select-uop per register whose
         * M bit is set on either path and whose mappings differ, in
         * register order (rat.compute_selects / apply_selects). */
        s->out[S_EXTRA_UOPS] += 1; /* exit.pred */
        i64 earliest = s->cycle + c->depth; /* _dispatch_uop */
        uint32_t modified = s->mbits | cp2.mbits;
        for (int a = 0; a < NARCH; a++) {
            if (!((modified >> a) & 1) || cp2.map[a] == s->map[a])
                continue;
            i64 ready = cp2.rr[a];
            if (s->rr[a] > ready)
                ready = s->rr[a];
            if (resolution > ready)
                ready = resolution;
            s->rr[a] = (earliest > ready ? earliest : ready) + 1;
            s->map[a] = s->next_tag++;
            s->out[S_SELECT_UOPS] += 1;
        }
        s->mbits = 0;
        if (c->keep_predicted_ghr)
            s->ghr = predicted_ghr;
        if (mispredicted) {
            exit_case = 2; /* NORMAL_MISPREDICTED */
            s->out[S_MISPREDICTIONS] += 1; /* eliminated: no flush */
            end.cont = apos;
        } else {
            exit_case = 1; /* NORMAL_CORRECT */
            end.cont = ppos;
        }
    } else if (aout == P_LIMIT && c->early_exit) {
        /* Early exit (Section 2.7.2): give up on the alternate path and
         * redirect to the CFM point. */
        s->out[S_EARLY_EXITS] += 1;
        restore(s, &cp2);
        s->ghr = predicted_ghr;
        advance(s);
        if (mispredicted) {
            s->out[S_EXIT_CASE0 + 6] += 1; /* FLUSH */
            return flush_diverge(s, x, &cp1);
        }
        exit_case = 3; /* REDIRECT_TO_CFM */
        end.cont = ppos;
    } else {
        /* Cases 3 and 4: wait for the diverge branch. */
        if (s->cycle < resolution)
            advance_to(s, resolution);
        if (mispredicted) {
            exit_case = 4; /* CONTINUE_ALTERNATE */
            s->out[S_MISPREDICTIONS] += 1; /* eliminated: no flush */
            end.cont = apos;
        } else {
            exit_case = 3; /* REDIRECT_TO_CFM */
            restore(s, &cp2);
            s->ghr = predicted_ghr;
            advance(s);
            end.cont = ppos;
        }
    }
    s->out[S_EXIT_CASE0 + exit_case] += 1;
    return end;
}

/* _run_dpred_episode: episodes from diverge branch *x until one ends
 * without a restart; returns the record the main loop continues from. */
static i64 dpred_episode(Sim *s, Diverge x)
{
    for (;;) {
        EpisodeEnd end = dpred_once(s, &x, 0);
        if (!end.restart)
            return end.cont;
        s->out[S_DPRED_RESTARTS] += 1;
        x = end.next;
    }
}

/* ------------------------------------------------------------------ */
/* Conditional branches on the main path                               */
/* ------------------------------------------------------------------ */

/* _handle_trace_branch_fast for record r (block b): predict and fetch,
 * then enter an episode, or train and fork, flush or redirect.  Returns
 * the next record. */
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
    int conf = confident(s, b, snapshot);

    if (c->predicating && c->hinted[b] == 1 && !conf) {
        Diverge x = {r, b, out, resolution, snapshot, pred, actual};
        return dpred_episode(s, x);
    }

    train(s, index, snapshot, out, pred, actual);
    jrs_update(s, jrs_index(s, b, snapshot), !mispredicted);
    i64 ghr_pred = ((snapshot << 1) | pred) & GHR_MASK;
    i64 ghr_actual = ((snapshot << 1) | actual) & GHR_MASK;
    if (c->dualpath && !conf && fetch_cycle > s->dual_until
        && (out >= 0 ? out : -out) <= THETA / 4) {
        /* _fork_dual_path: the not-taken-by-the-trace path is fetched
         * at half bandwidth; the walk is cycle-neutral. */
        s->out[S_DUALPATH_FORKS] += 1;
        s->dual_until = resolution;
        i64 start = actual ? c->fall[b] : c->taken[b];
        if (start >= 0)
            walk_wrong_path(s, start, resolution, c->reconv[b], NULL, 0,
                            ghr_pred);
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
                                       c->rblk + r + 1, stop - (r + 1),
                                       ghr_pred);
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
    s.next_tag = NARCH; /* tags 0..31 are the initial mappings */
    for (int a = 0; a < NARCH; a++)
        s.map[a] = a;
    memset(s.sb_head, 0xff, sizeof s.sb_head); /* every chain empty (-1) */
    s.ring = calloc((size_t)c->rob, sizeof(i64));
    s.weights = calloc((size_t)NPERC * (HBITS + 1), sizeof(int16_t));
    s.jrs = calloc(JTAB, 1);
    s.btb_seen = calloc((size_t)c->nsites + 1, 1);
    int ok = cache_init(&s.l1i, L1I_SETS, L1I_WAYS);
    ok &= cache_init(&s.l1d, L1D_SETS, L1D_WAYS);
    ok &= cache_init(&s.l2, L2_SETS, L2_WAYS);
    int status = -1;
    if (ok && s.ring && s.weights && s.jrs && s.btb_seen) {
        for (i64 k = 0; k < c->nwarm; k++)
            cache_access(&s.l2, line_of(c->warm[k]));
        i64 r = 0;
        while (r < c->nrec && !s.oom) {
            i64 b = c->rblk[r];
            i64 extra = icache_extra(&s, c->fpc[b]);
            if (extra > 0) /* icache miss */
                advance_to(&s, s.cycle + extra);
            if (c->term[b] == TERM_BR) {
                fetch_trace_rows(&s, r, b, c->nbody[b], -1, 0);
                r = trace_branch(&s, r, b);
            } else {
                fetch_trace_rows(&s, r, b, c->nrows[b], -1, 0);
                transfer(&s, b);
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
    free(s.weights);
    free(s.jrs);
    free(s.btb_seen);
    cache_free(&s.l1i);
    cache_free(&s.l1d);
    cache_free(&s.l2);
    free(s.calls.v);
    free(s.stack.v);
    return status;
}
