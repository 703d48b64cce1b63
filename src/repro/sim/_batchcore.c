/* Compiled simulator core: C transliteration of the processors
 * (repro.sim.processor), their thread programs (repro.workload
 * synthetic.NeighborExchangeProgram and generators.UniformRandomProgram),
 * the coherence controller (repro.sim.coherence), the cut-through
 * fabric (repro.sim.cut_through) and the event-calendar loop
 * (repro.sim.engine), for one machine.
 *
 * The serial Python classes are the behavioral spec; this file ports
 * them so a core run's MeasurementSummary and final processor state
 * stay bit-identical to the Python run.  Each node's random.Random
 * stream continues here as an MT19937 loaded from getstate() and
 * handed back for setstate(), drawn in the spec's order.
 * repro.sim.batch.CoreDriver loads the machine and calls bc_run() once
 * per warmup or measurement window.
 *
 * Directory sharers are a per-block bitmap; a home's invalidations go
 * out in ascending node id, the order the spec's _home_write fixes.
 *
 * Compiled on demand by repro.sim.batchcore with the system C
 * compiler; no Python.h dependency (pure ABI, loaded via cffi).
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <stdio.h>

typedef long long i64;
typedef unsigned long long u64;

#define NEVER (1LL << 62)

/* ------------------------------------------------------------------ */
/* Protocol constants (mirrors repro.sim.message / coherence enums).   */
/* ------------------------------------------------------------------ */

enum {
    K_READ = 0, K_WRITE = 1, K_DATA = 2, K_INV = 3,
    K_ACK = 4, K_FETCH = 5, K_FETCHINV = 6, K_WB = 7,
};

/* DATA_REPLY and WRITEBACK carry data (24 flits); the rest are
 * control (8).  Guarded at load time by batchcore.py against
 * repro.sim.message._FLITS_BY_KIND. */
static const int FLITS_OF[8] = {8, 8, 24, 8, 8, 8, 8, 24};

enum { CS_INVALID = 0, CS_SHARED = 1, CS_MODIFIED = 2 };
enum { DS_UNOWNED = 0, DS_SHARED = 1, DS_MODIFIED = 2 };

enum {
    OP_HANDLE = 0, OP_BEGIN = 1, OP_LAUNCH = 2, OP_REPLY = 3,
    OP_FINISH = 4, OP_DEFER = 5, OP_NOP = 6,
};

#define UID_STRIDE (1LL << 20)

/* ------------------------------------------------------------------ */
/* Pooled objects.                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    int kind, source, dest, block, flits;
    i64 txn, injected_at;
    int next_free;
} Msg;

typedef struct {
    int msg, route_off, route_len, hop;
    i64 wait;
    int next_free;
} Transit;

/* A coalesced access: context `ctx` of the node waits on the fill. */
typedef struct {
    int is_write, ctx;
    int next;
} Waiter;

typedef struct {
    int block, is_write, messages, ctx;
    i64 issued_at, uid;
    int whead, wtail;
    int next_free;
} Req;

/* Engine event: one protocol step that coherence.py schedules as a
 * closure, encoded here as an opcode plus operands. */
typedef struct {
    int cost, op, b0, a0, a1;
    i64 a2;
} Ev;

typedef struct {
    Ev *q;
    int head, count, cap;
    Ev cur;
    int has_cur, ticking, notified;
    i64 done_at, next_uid;
} Ctrl;

typedef struct {
    int requester, is_write;
    i64 txn;
} DefItem;

typedef struct {
    int8_t state, busy, init, txn_active, txn_is_write, txn_wb;
    int owner, txn_requester, txn_pending;
    i64 txn_uid;
    DefItem *ditems;
    int dhead, dcount, dcap;
} Dir;

/* LRU-as-dict-order cache: append-only (block, seq) log per node; an
 * entry is live iff the block's state is non-invalid and its seq
 * matches.  Compacted when the log outgrows the live set. */
typedef struct {
    int *items;  /* pairs (block, seq) */
    int start, end, cap;
    int live, seq;
} CacheLog;

typedef struct {
    i64 elig;
    int transit;
} QEnt;

typedef struct {
    QEnt *q;
    int head, count, cap;
} Queue;

typedef struct {
    u64 key;  /* (cycle << 32) | seq */
    int transit;
} DHEnt;

typedef struct {
    i64 *free_at;
    i64 *head_elig;
    Queue *queues;
    int *pending, *pend2;
    int pcount;
    i64 *link_flits;
    DHEnt *dheap;
    int dcount, dcap;
    u64 dseq;
    i64 in_flight;
} Fab;

/* Per-node MT19937: the state of CPython's random.Random. */
#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Rng;

enum { CTX_COMPUTING = 0, CTX_BLOCKED = 1, CTX_READY = 2 };
enum { PROG_NEIGHBOR = 0, PROG_UNIFORM = 1 };

/* One hardware context and the thread program it runs.  Blocks are
 * (instance, thread) pairs; block id = base + thread. */
typedef struct {
    int state, kind;
    i64 remaining;
    int base, thread;
    int reads;    /* neighbors (NEIGHBOR) or reads per write (UNIFORM) */
    int threads;  /* UNIFORM: threads to draw remote targets from */
    int nbr;      /* NEIGHBOR: offset of the neighbor ids in core->nbrs */
    i64 position, mean;
    double jitter;
} Ctx;

typedef struct {
    int active, switch_target, ready_count, woken;
    i64 switch_remaining, idle, switches, last_tick;
} Proc;

typedef struct Core {
    int N, dims, radix, capacity, channels, links;
    int req_cost, recv_cost, send_cost, mem_cost;
    int contexts, speedup, hit_cycles, switch_cycles;
    int errcode;
    char errmsg[256];
    /* blocks (block-major so adding a block appends, never relayouts) */
    int nblocks, blocks_cap;
    int *block_home;
    int8_t *cache_state;  /* [block*N + node] */
    int *cache_seq;       /* same layout */
    int *outstanding;     /* same layout; -1 or Req index */
    Dir *dir;             /* [block] */
    u64 *sharers;         /* [block*words + node/64] directory bitmap */
    int words;            /* (N + 63) / 64 */
    CacheLog *clog;       /* [node] */
    /* pools */
    Msg *msgs;
    int msgs_cap, msg_free;
    Transit *transits;
    int transits_cap, transit_free;
    Req *reqs;
    int reqs_cap, req_free;
    Waiter *waiters;
    int waiters_cap, waiter_free;
    /* shared e-cube routes */
    int **route_rows;  /* [N] -> [N] arena offsets or -1 */
    int *arena;        /* [len, ch...] records */
    int arena_len, arena_cap;
    int *pow_radix;    /* [dims] */
    /* the machine's controllers, fabric and counters */
    i64 cycle;
    Ctrl *ctrl;
    int *ready;
    int ready_count;
    u64 *wake;  /* heap of (done_at << 20) | node */
    int wcount, wcap;
    Fab fab;
    int measuring;
    i64 sent, flits_sum, flits_sq, delivered, lat_total, hops_total;
    i64 hopl_count, started, rcompleted, lcompleted, txn_lat, evictions;
    double hopl_total;
    i64 *per_node_sent;
    int *scratch;  /* ctrl-phase and processor-visit scratch */
    /* the machine's processors and their wake calendar */
    Proc *procs;  /* [node] */
    Ctx *ctxs;    /* [node*contexts + ctx] */
    Rng *rngs;    /* [node] */
    int *nbrs;    /* neighbor thread ids of every NEIGHBOR program */
    int nbrs_len, nbrs_cap;
    u64 *pheap;   /* heap of (tick << 20) | node, one per busy processor */
    int pcount, calendared;
    int *woken;   /* idle nodes a completion woke, due next boundary */
    int nwoken;
    i64 hits;
} Core;

static void fail(Core *core, int code, const char *msg) {
    if (core->errcode) return;
    core->errcode = code;
    snprintf(core->errmsg, sizeof(core->errmsg), "%s", msg);
}

/* -- pool allocators ------------------------------------------------ */

static int msg_new(Core *core, int kind, int source, int dest, int block,
                   i64 txn) {
    int idx = core->msg_free;
    if (idx < 0) {
        int old = core->msgs_cap;
        core->msgs_cap = old ? old * 2 : 256;
        core->msgs = (Msg *)realloc(core->msgs,
                                    (size_t)core->msgs_cap * sizeof(Msg));
        for (int i = old; i < core->msgs_cap; i++)
            core->msgs[i].next_free = (i + 1 < core->msgs_cap) ? i + 1 : -1;
        idx = old;
    }
    Msg *m = &core->msgs[idx];
    core->msg_free = m->next_free;
    m->kind = kind;
    m->source = source;
    m->dest = dest;
    m->block = block;
    m->flits = FLITS_OF[kind];
    m->txn = txn;
    m->injected_at = -1;
    return idx;
}

static void msg_del(Core *core, int idx) {
    core->msgs[idx].next_free = core->msg_free;
    core->msg_free = idx;
}

static int transit_new(Core *core, int msg, int route_off, int route_len) {
    int idx = core->transit_free;
    if (idx < 0) {
        int old = core->transits_cap;
        core->transits_cap = old ? old * 2 : 256;
        core->transits = (Transit *)realloc(
            core->transits, (size_t)core->transits_cap * sizeof(Transit));
        for (int i = old; i < core->transits_cap; i++)
            core->transits[i].next_free =
                (i + 1 < core->transits_cap) ? i + 1 : -1;
        idx = old;
    }
    Transit *t = &core->transits[idx];
    core->transit_free = t->next_free;
    t->msg = msg;
    t->route_off = route_off;
    t->route_len = route_len;
    t->hop = 0;
    t->wait = 0;
    return idx;
}

static void transit_del(Core *core, int idx) {
    core->transits[idx].next_free = core->transit_free;
    core->transit_free = idx;
}

static int req_new(Core *core, int block, int is_write, i64 issued_at,
                   i64 uid, int ctx) {
    int idx = core->req_free;
    if (idx < 0) {
        int old = core->reqs_cap;
        core->reqs_cap = old ? old * 2 : 128;
        core->reqs = (Req *)realloc(core->reqs,
                                 (size_t)core->reqs_cap * sizeof(Req));
        for (int i = old; i < core->reqs_cap; i++)
            core->reqs[i].next_free = (i + 1 < core->reqs_cap) ? i + 1 : -1;
        idx = old;
    }
    Req *r = &core->reqs[idx];
    core->req_free = r->next_free;
    r->block = block;
    r->is_write = is_write;
    r->messages = 0;
    r->issued_at = issued_at;
    r->uid = uid;
    r->ctx = ctx;
    r->whead = -1;
    r->wtail = -1;
    return idx;
}

static void req_del(Core *core, int idx) {
    int w = core->reqs[idx].whead;
    while (w >= 0) {
        int nxt = core->waiters[w].next;
        core->waiters[w].next = core->waiter_free;
        core->waiter_free = w;
        w = nxt;
    }
    core->reqs[idx].next_free = core->req_free;
    core->req_free = idx;
}

static void req_add_waiter(Core *core, int ridx, int is_write, int ctx) {
    int idx = core->waiter_free;
    if (idx < 0) {
        int old = core->waiters_cap;
        core->waiters_cap = old ? old * 2 : 128;
        core->waiters = (Waiter *)realloc(
            core->waiters, (size_t)core->waiters_cap * sizeof(Waiter));
        for (int i = old; i < core->waiters_cap; i++)
            core->waiters[i].next = (i + 1 < core->waiters_cap) ? i + 1 : -1;
        idx = old;
    }
    Waiter *w = &core->waiters[idx];
    core->waiter_free = w->next;
    w->is_write = is_write;
    w->ctx = ctx;
    w->next = -1;
    Req *r = &core->reqs[ridx];
    if (r->wtail < 0) r->whead = idx;
    else core->waiters[r->wtail].next = idx;
    r->wtail = idx;
}

/* ------------------------------------------------------------------ */
/* Cache (LRU-as-dict-order) over the append-only log.                 */
/* ------------------------------------------------------------------ */

#define CSTATE(core, blk, node) \
    ((core)->cache_state[(size_t)(blk) * (core)->N + (node)])
#define CSEQ(core, blk, node) \
    ((core)->cache_seq[(size_t)(blk) * (core)->N + (node)])
#define OUTST(core, blk, node) \
    ((core)->outstanding[(size_t)(blk) * (core)->N + (node)])

static void clog_append(Core *core, CacheLog *cl, int node,
                        int block, int seq) {
    if (cl->end >= cl->cap) {
        /* Compact first if the log is mostly stale, else grow. */
        if (cl->end - cl->start > 4 * cl->live + 16) {
            int w = cl->start;
            for (int i = cl->start; i < cl->end; i++) {
                int blk = cl->items[2 * i], sq = cl->items[2 * i + 1];
                if (CSTATE(core, blk, node) != CS_INVALID &&
                    CSEQ(core, blk, node) == sq) {
                    cl->items[2 * w] = blk;
                    cl->items[2 * w + 1] = sq;
                    w++;
                }
            }
            /* slide to origin */
            memmove(cl->items, cl->items + 2 * cl->start,
                    (size_t)(w - cl->start) * 2 * sizeof(int));
            cl->end = w - cl->start;
            cl->start = 0;
        }
        if (cl->end >= cl->cap) {
            cl->cap = cl->cap ? cl->cap * 2 : 16;
            cl->items = (int *)realloc(cl->items,
                                       (size_t)cl->cap * 2 * sizeof(int));
        }
    }
    cl->items[2 * cl->end] = block;
    cl->items[2 * cl->end + 1] = seq;
    cl->end++;
}

static int cache_get(Core *core, int node, int block) {
    return CSTATE(core, block, node);
}

/* cache.pop(block, None): returns prior state (CS_INVALID if absent). */
static int cache_pop(Core *core, int node, int block) {
    int st = CSTATE(core, block, node);
    if (st != CS_INVALID) {
        CSTATE(core, block, node) = CS_INVALID;
        core->clog[node].live--;
    }
    return st;
}

/* cache[block] = state after a pop: append to the back of LRU order. */
static void cache_put(Core *core, int node, int block, int state) {
    CacheLog *cl = &core->clog[node];
    int seq = ++cl->seq;
    CSTATE(core, block, node) = (int8_t)state;
    CSEQ(core, block, node) = seq;
    cl->live++;
    clog_append(core, cl, node, block, seq);
}

/* record_access: pop + reinsert (touch). */
static void cache_touch(Core *core, int node, int block) {
    if (CSTATE(core, block, node) == CS_INVALID) return;
    CacheLog *cl = &core->clog[node];
    int seq = ++cl->seq;
    CSEQ(core, block, node) = seq;
    clog_append(core, cl, node, block, seq);
}

static int cache_is_hit(Core *core, int node, int block, int is_write) {
    int st = CSTATE(core, block, node);
    if (is_write) return st == CS_MODIFIED;
    return st != CS_INVALID;
}

/* First live entry in LRU order that is neither `block` nor
 * outstanding (port of the _install victim scan over dict order). */
static int cache_victim(Core *core, int node, int block) {
    CacheLog *cl = &core->clog[node];
    for (int i = cl->start; i < cl->end; i++) {
        int blk = cl->items[2 * i], sq = cl->items[2 * i + 1];
        if (CSTATE(core, blk, node) == CS_INVALID ||
            CSEQ(core, blk, node) != sq) {
            if (i == cl->start) cl->start++;
            continue;
        }
        if (blk == block || OUTST(core, blk, node) >= 0) continue;
        return blk;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Directory entries.                                                  */
/* ------------------------------------------------------------------ */

static Dir *dir_entry(Core *core, int block) {
    Dir *d = &core->dir[block];
    if (!d->init) {
        d->init = 1;
        d->state = DS_UNOWNED;
        d->busy = 0;
        d->txn_active = 0;
        d->owner = -1;
        d->ditems = NULL;
        d->dhead = 0;
        d->dcount = 0;
        d->dcap = 0;
    }
    return d;
}

#define SHARERS(core, block) (&(core)->sharers[(size_t)(block) * (core)->words])

static void sharers_clear(Core *core, int block) {
    memset(SHARERS(core, block), 0, (size_t)core->words * sizeof(u64));
}

static void sharers_add(Core *core, int block, int node) {
    SHARERS(core, block)[node >> 6] |= 1ULL << (node & 63);
}

/* Word w of a sharer bitmap with nodes a and b masked off. */
static u64 sharers_but(const u64 *sh, int w, int a, int b) {
    u64 m = sh[w];
    if (a >> 6 == w) m &= ~(1ULL << (a & 63));
    if (b >> 6 == w) m &= ~(1ULL << (b & 63));
    return m;
}

static void dir_defer(Dir *d, int requester, int is_write, i64 txn) {
    if (d->dcount >= d->dcap) {
        int old = d->dcap;
        d->dcap = old ? old * 2 : 4;
        DefItem *ni = (DefItem *)malloc((size_t)d->dcap * sizeof(DefItem));
        for (int i = 0; i < d->dcount; i++)
            ni[i] = d->ditems[(d->dhead + i) % (old ? old : 1)];
        free(d->ditems);
        d->ditems = ni;
        d->dhead = 0;
    }
    DefItem *it = &d->ditems[(d->dhead + d->dcount) % d->dcap];
    it->requester = requester;
    it->is_write = is_write;
    it->txn = txn;
    d->dcount++;
}

/* ------------------------------------------------------------------ */
/* Engine queue / wake heaps.                                          */
/* ------------------------------------------------------------------ */

static void ev_push(Ctrl *c, Ev ev) {
    if (c->count >= c->cap) {
        int old = c->cap;
        c->cap = old ? old * 2 : 8;
        Ev *nq = (Ev *)malloc((size_t)c->cap * sizeof(Ev));
        for (int i = 0; i < c->count; i++)
            nq[i] = c->q[(c->head + i) % (old ? old : 1)];
        free(c->q);
        c->q = nq;
        c->head = 0;
    }
    c->q[(c->head + c->count) % c->cap] = ev;
    c->count++;
}

static Ev ev_pop(Ctrl *c) {
    Ev ev = c->q[c->head];
    c->head = (c->head + 1) % c->cap;
    c->count--;
    return ev;
}

/* Binary min-heaps of u64 keys h[0..*count): the controllers' wake
 * calendar (core->wake) and the processors' (core->pheap). */
static void heap_push(u64 *h, int *count, u64 key) {
    int i = (*count)++;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p] <= key) break;
        h[i] = h[p];
        i = p;
    }
    h[i] = key;
}

static u64 heap_pop(u64 *h, int *count) {
    u64 top = h[0];
    u64 last = h[--*count];
    int n = *count, i = 0;
    for (;;) {
        int l = 2 * i + 1;
        if (l >= n) break;
        if (l + 1 < n && h[l + 1] < h[l]) l++;
        if (h[l] >= last) break;
        h[i] = h[l];
        i = l;
    }
    if (n) h[i] = last;
    return top;
}

static void wheap_push(Core *core, u64 key) {
    if (core->wcount >= core->wcap) {
        core->wcap = core->wcap ? core->wcap * 2 : 16;
        core->wake = (u64 *)realloc(core->wake,
                                   (size_t)core->wcap * sizeof(u64));
    }
    heap_push(core->wake, &core->wcount, key);
}

/* Insertion sort: batches arrive mostly ascending (heap pops in node
 * order, then the few nodes woken or readied this cycle). */
static void sort_nodes(int *a, int n) {
    for (int i = 1; i < n; i++) {
        int v = a[i], j = i - 1;
        while (j >= 0 && a[j] > v) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = v;
    }
}

/* ------------------------------------------------------------------ */
/* Shared e-cube routes (port of Torus.route_hops + cut_through.py's  */
/* enumerate_channels).                                                */
/* Channel ids: inj(s)=s, ej(d)=N+d, link(node,dim,step) =             */
/* 2N + (node*dims + dim)*2 + (step==+1 ? 0 : 1).                      */
/* ------------------------------------------------------------------ */

static int route_get(Core *core, int src, int dst, int *len_out) {
    int *row = core->route_rows[src];
    if (row == NULL) {
        row = (int *)malloc((size_t)core->N * sizeof(int));
        for (int i = 0; i < core->N; i++) row[i] = -1;
        core->route_rows[src] = row;
    }
    int off = row[dst];
    if (off >= 0) {
        *len_out = core->arena[off];
        return off + 1;
    }
    /* build */
    int chans[2 + 64];  /* dims * radix hops max; guarded in bc_create */
    int len = 0;
    chans[len++] = src;  /* injection channel */
    int node = src;
    int ca[8], cb[8];
    int tmp = src;
    for (int d = 0; d < core->dims; d++) {
        ca[d] = tmp % core->radix;
        tmp /= core->radix;
    }
    tmp = dst;
    for (int d = 0; d < core->dims; d++) {
        cb[d] = tmp % core->radix;
        tmp /= core->radix;
    }
    for (int d = 0; d < core->dims; d++) {
        int forward = cb[d] - ca[d];
        if (forward < 0) forward += core->radix;
        if (forward == 0) continue;
        int backward = core->radix - forward;
        int step, n;
        if (forward <= backward) { step = 1; n = forward; }
        else { step = -1; n = backward; }
        for (int i = 0; i < n; i++) {
            chans[len++] = 2 * core->N + (node * core->dims + d) * 2 +
                           (step == 1 ? 0 : 1);
            int oldc = ca[d];
            int newc = oldc + step;
            if (newc < 0) newc += core->radix;
            if (newc >= core->radix) newc -= core->radix;
            node += (newc - oldc) * core->pow_radix[d];
            ca[d] = newc;
        }
    }
    chans[len++] = core->N + dst;  /* ejection channel */
    if (core->arena_len + len + 1 > core->arena_cap) {
        core->arena_cap = core->arena_cap ? core->arena_cap * 2 : 4096;
        while (core->arena_len + len + 1 > core->arena_cap)
            core->arena_cap *= 2;
        core->arena = (int *)realloc(core->arena,
                                  (size_t)core->arena_cap * sizeof(int));
    }
    off = core->arena_len;
    core->arena[off] = len;
    memcpy(core->arena + off + 1, chans, (size_t)len * sizeof(int));
    core->arena_len += len + 1;
    row[dst] = off;
    *len_out = len;
    return off + 1;
}

/* ------------------------------------------------------------------ */
/* Fabric (port of cut_through.py's CutThroughFabric).                */
/* ------------------------------------------------------------------ */

static void qe_push(Queue *q, i64 elig, int transit) {
    if (q->count >= q->cap) {
        int old = q->cap;
        q->cap = old ? old * 2 : 4;
        QEnt *nq = (QEnt *)malloc((size_t)q->cap * sizeof(QEnt));
        for (int i = 0; i < q->count; i++)
            nq[i] = q->q[(q->head + i) % (old ? old : 1)];
        free(q->q);
        q->q = nq;
        q->head = 0;
    }
    q->q[(q->head + q->count) % q->cap].elig = elig;
    q->q[(q->head + q->count) % q->cap].transit = transit;
    q->count++;
}

static QEnt qe_pop(Queue *q) {
    QEnt e = q->q[q->head];
    q->head = (q->head + 1) % q->cap;
    q->count--;
    return e;
}

static void dheap_push(Fab *f, u64 key, int transit) {
    if (f->dcount >= f->dcap) {
        f->dcap = f->dcap ? f->dcap * 2 : 32;
        f->dheap = (DHEnt *)realloc(f->dheap,
                                    (size_t)f->dcap * sizeof(DHEnt));
    }
    int i = f->dcount++;
    DHEnt *h = f->dheap;
    while (i > 0) {
        int p = (i - 1) >> 1;
        if (h[p].key <= key) break;
        h[i] = h[p];
        i = p;
    }
    h[i].key = key;
    h[i].transit = transit;
}

static DHEnt dheap_pop(Fab *f) {
    DHEnt *h = f->dheap;
    DHEnt top = h[0];
    DHEnt last = h[--f->dcount];
    int n = f->dcount, i = 0;
    for (;;) {
        int l = 2 * i + 1;
        if (l >= n) break;
        if (l + 1 < n && h[l + 1].key < h[l].key) l++;
        if (h[l].key >= last.key) break;
        h[i] = h[l];
        i = l;
    }
    if (n) h[i] = last;
    return top;
}

static void fab_inject(Core *core, int midx, i64 cycle) {
    Fab *f = &core->fab;
    Msg *m = &core->msgs[midx];
    m->injected_at = cycle;
    int rlen;
    int roff = route_get(core, m->source, m->dest, &rlen);
    int tidx = transit_new(core, midx, roff, rlen);
    int ch = core->arena[roff];
    Queue *q = &f->queues[ch];
    if (!q->count) {
        f->pending[f->pcount++] = ch;
        f->head_elig[ch] = cycle;
    }
    qe_push(q, cycle, tidx);
    f->in_flight++;
}

static i64 fab_next(Core *core, i64 cycle) {
    Fab *f = &core->fab;
    i64 earliest = f->dcount ? (i64)(f->dheap[0].key >> 32) : -1;
    for (int i = 0; i < f->pcount; i++) {
        int ch = f->pending[i];
        i64 at = f->free_at[ch];
        i64 el = f->head_elig[ch];
        if (el > at) at = el;
        if (at <= cycle) return cycle;
        if (earliest < 0 || at < earliest) earliest = at;
    }
    return earliest;
}

/* ------------------------------------------------------------------ */
/* Controller engine + protocol handlers (port of coherence.py's       */
/* CoherenceController).                                               */
/* ------------------------------------------------------------------ */

static void ctrl_execute(Core *core, int node, Ev *ev,
                         i64 done);

static void ctrl_schedule(Core *core, int node, int cost, int op, int b0,
                          int a0, int a1, i64 a2) {
    Ctrl *c = &core->ctrl[node];
    Ev ev;
    ev.cost = cost;
    ev.op = op;
    ev.b0 = b0;
    ev.a0 = a0;
    ev.a1 = a1;
    ev.a2 = a2;
    ev_push(c, ev);
    if (!c->has_cur && !c->ticking && !c->notified) {
        c->notified = 1;
        core->ready[core->ready_count++] = node;
    }
}

static void ctrl_tick(Core *core, int node, i64 cycle) {
    Ctrl *c = &core->ctrl[node];
    c->ticking = 1;
    for (;;) {
        if (c->has_cur) {
            if (c->done_at > cycle) break;
            c->has_cur = 0;
            Ev ev = c->cur;
            ctrl_execute(core, node, &ev, c->done_at);
            if (core->errcode) break;
            continue;
        }
        if (!c->count) break;
        Ev ev = ev_pop(c);
        if (ev.cost == 0) {
            ctrl_execute(core, node, &ev, cycle);
            if (core->errcode) break;
            continue;
        }
        c->done_at = cycle + ev.cost;
        c->cur = ev;
        c->has_cur = 1;
    }
    c->ticking = 0;
}

static void do_emit(Core *core, int node, int kind,
                    int dest, int block, i64 txn) {
    int midx = msg_new(core, kind, node, dest, block, txn);
    ctrl_schedule(core, node, core->send_cost, OP_LAUNCH, 0, midx, -1, 0);
}

static void do_reply_with_data(Core *core, int node,
                               int block, int requester, i64 txn) {
    Dir *d = dir_entry(core, block);
    d->busy = 1;
    if (requester == node)
        ctrl_schedule(core, node, core->mem_cost, OP_FINISH, 0, 0, block, 0);
    else
        ctrl_schedule(core, node, core->mem_cost, OP_REPLY, 0, requester,
                      block, txn);
}

static void do_run_deferred(Core *core, int node, int block) {
    Dir *d = dir_entry(core, block);
    if (!d->dcount || d->busy) return;
    DefItem it = d->ditems[d->dhead];
    d->dhead = (d->dhead + 1) % d->dcap;
    d->dcount--;
    ctrl_schedule(core, node, core->req_cost, OP_DEFER, it.is_write,
                  it.requester, block, it.txn);
}

static void do_absorb_writeback(Core *core, int node,
                                int block, int source, int source_retains);
static void do_evict(Core *core, int node, int block);

static void do_install(Core *core, int node, int block,
                       int state) {
    cache_pop(core, node, block);
    cache_put(core, node, block, state);
    if (core->capacity <= 0) return;
    CacheLog *cl = &core->clog[node];
    while (cl->live > core->capacity) {
        int victim = cache_victim(core, node, block);
        if (victim < 0) return;
        do_evict(core, node, victim);
        if (core->errcode) return;
    }
}

static void do_evict(Core *core, int node, int block) {
    int state = cache_pop(core, node, block);
    if (core->measuring) core->evictions++;
    if (state != CS_MODIFIED) return;
    int home = core->block_home[block];
    if (home == node) {
        do_absorb_writeback(core, node, block, node, 0);
        ctrl_schedule(core, node, core->mem_cost, OP_NOP, 0, 0, 0, 0);
    } else {
        do_emit(core, node, K_WB, home, block, -1);
    }
}

static void do_grant_write(Core *core, int node, int block,
                           int requester, i64 txn) {
    Dir *d = dir_entry(core, block);
    d->state = DS_MODIFIED;
    sharers_clear(core, block);
    d->owner = requester;
    do_reply_with_data(core, node, block, requester, txn);
}

static void do_home_read(Core *core, int node, int block,
                         int requester, i64 txn) {
    Dir *d = dir_entry(core, block);
    if (d->state == DS_MODIFIED && d->owner != requester) {
        if (d->owner == node) {
            do_install(core, node, block, CS_SHARED);
            d = dir_entry(core, block);
            d->state = DS_SHARED;
            sharers_clear(core, block);
            sharers_add(core, block, node);
            sharers_add(core, block, requester);
            d->owner = -1;
            do_reply_with_data(core, node, block, requester, txn);
            return;
        }
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 0;
        d->txn_uid = txn;
        d->txn_pending = 0;
        d->txn_wb = 1;
        do_emit(core, node, K_FETCH, d->owner, block, txn);
        return;
    }
    if (d->state == DS_MODIFIED) {
        int owner = d->owner;
        sharers_clear(core, block);
        sharers_add(core, block, owner);
        d->owner = -1;
    }
    d->state = DS_SHARED;
    sharers_add(core, block, requester);
    do_reply_with_data(core, node, block, requester, txn);
}

static void do_home_write(Core *core, int node, int block,
                          int requester, i64 txn) {
    Dir *d = dir_entry(core, block);
    if (d->state == DS_MODIFIED && d->owner != requester) {
        if (d->owner == node) {
            cache_pop(core, node, block);
            d->owner = requester;
            do_reply_with_data(core, node, block, requester, txn);
            return;
        }
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 1;
        d->txn_uid = txn;
        d->txn_pending = 0;
        d->txn_wb = 1;
        do_emit(core, node, K_FETCHINV, d->owner, block, txn);
        return;
    }
    /* Invalidate every sharer but the requester, in ascending node
     * order; the home drops its own copy without a message. */
    u64 *sh = SHARERS(core, block);
    if (node != requester && (sh[node >> 6] >> (node & 63) & 1))
        cache_pop(core, node, block);
    int pending = 0;
    for (int w = 0; w < core->words; w++)
        pending += __builtin_popcountll(sharers_but(sh, w, requester, node));
    if (pending) {
        d->busy = 1;
        d->txn_active = 1;
        d->txn_requester = requester;
        d->txn_is_write = 1;
        d->txn_uid = txn;
        d->txn_pending = pending;
        d->txn_wb = 0;
        for (int w = 0; w < core->words; w++)
            for (u64 m = sharers_but(sh, w, requester, node); m; m &= m - 1)
                do_emit(core, node, K_INV, w * 64 + __builtin_ctzll(m),
                        block, txn);
        return;
    }
    do_grant_write(core, node, block, requester, txn);
}

static void do_home_handle_request(Core *core, int node,
                                   int block, int requester, int is_write,
                                   i64 txn) {
    if (core->block_home[block] != node) {
        fail(core, 2, "request received at a non-home node");
        return;
    }
    Dir *d = dir_entry(core, block);
    if (d->busy) {
        dir_defer(d, requester, is_write, txn);
        return;
    }
    if (is_write)
        do_home_write(core, node, block, requester, txn);
    else
        do_home_read(core, node, block, requester, txn);
}

static void do_home_handle_ack(Core *core, int node,
                               int block) {
    Dir *d = dir_entry(core, block);
    if (!d->txn_active || d->txn_pending <= 0) {
        fail(core, 2, "unexpected invalidate ack");
        return;
    }
    d->txn_pending--;
    if (d->txn_pending > 0) return;
    int requester = d->txn_requester;
    i64 uid = d->txn_uid;
    d->txn_active = 0;
    d->busy = 0;
    do_grant_write(core, node, block, requester, uid);
    do_run_deferred(core, node, block);
}

static void do_absorb_writeback(Core *core, int node,
                                int block, int source, int source_retains) {
    Dir *d = dir_entry(core, block);
    if (d->txn_active && d->txn_wb) {
        int requester = d->txn_requester;
        int is_write = d->txn_is_write;
        i64 uid = d->txn_uid;
        d->txn_active = 0;
        d->busy = 0;
        if (is_write) {
            d->state = DS_MODIFIED;
            sharers_clear(core, block);
            d->owner = requester;
        } else {
            d->state = DS_SHARED;
            sharers_clear(core, block);
            sharers_add(core, block, requester);
            if (source_retains) sharers_add(core, block, source);
            d->owner = -1;
        }
        do_reply_with_data(core, node, block, requester, uid);
        do_run_deferred(core, node, block);
        return;
    }
    if (d->txn_active) {
        fail(core, 2, "writeback collided with a non-fetch transaction");
        return;
    }
    if (d->state != DS_MODIFIED || d->owner != source) {
        fail(core, 2, "eviction writeback does not match directory state");
        return;
    }
    d->state = DS_UNOWNED;
    sharers_clear(core, block);
    d->owner = -1;
    do_run_deferred(core, node, block);
}

static void do_handle_fetch(Core *core, int node, int block,
                            int source, i64 txn, int invalidate) {
    int state = cache_get(core, node, block);
    if (state == CS_INVALID) return;
    if (state != CS_MODIFIED) {
        fail(core, 2, "fetch for a block not in M state");
        return;
    }
    if (invalidate)
        cache_pop(core, node, block);
    else
        do_install(core, node, block, CS_SHARED);
    do_emit(core, node, K_WB, source, block, txn);
}

static void do_release_waiters(Core *core, int node,
                               int block, int whead, int state, i64 cycle);
static void request_internal(Core *core, int node, int block,
                             int is_write, i64 cycle, int ctx);
static void proc_complete(Core *core, int node, int ctx);

static void do_complete_remote_miss(Core *core, int node,
                                    int block, i64 cycle) {
    int ridx = OUTST(core, block, node);
    if (ridx < 0) {
        fail(core, 2, "data reply with no outstanding request");
        return;
    }
    OUTST(core, block, node) = -1;
    Req *req = &core->reqs[ridx];
    int state = req->is_write ? CS_MODIFIED : CS_SHARED;
    do_install(core, node, block, state);
    if (core->measuring) {
        core->rcompleted++;
        core->txn_lat += cycle - req->issued_at;
    }
    proc_complete(core, node, req->ctx);
    int whead = req->whead;
    req->whead = -1;
    req->wtail = -1;
    do_release_waiters(core, node, block, whead, state, cycle);
    req_del(core, ridx);
}

static void do_finish_local(Core *core, int node, int block,
                            i64 cycle) {
    int ridx = OUTST(core, block, node);
    if (ridx < 0) {
        fail(core, 2, "local completion with no outstanding request");
        return;
    }
    OUTST(core, block, node) = -1;
    Req *req = &core->reqs[ridx];
    int state = req->is_write ? CS_MODIFIED : CS_SHARED;
    do_install(core, node, block, state);
    Dir *d = dir_entry(core, block);
    d->busy = 0;
    int remote = req->messages > 0;
    if (core->measuring) {
        if (remote) {
            core->rcompleted++;
            core->txn_lat += cycle - req->issued_at;
        } else {
            core->lcompleted++;
        }
    }
    proc_complete(core, node, req->ctx);
    int whead = req->whead;
    req->whead = -1;
    req->wtail = -1;
    do_run_deferred(core, node, block);
    do_release_waiters(core, node, block, whead, state, cycle);
    req_del(core, ridx);
}

static void do_release_waiters(Core *core, int node,
                               int block, int whead, int state, i64 cycle) {
    int w = whead;
    while (w >= 0) {
        Waiter wt = core->waiters[w];
        if (wt.is_write && state != CS_MODIFIED)
            request_internal(core, node, block, 1, cycle, wt.ctx);
        else
            proc_complete(core, node, wt.ctx);
        int nxt = wt.next;
        core->waiters[w].next = core->waiter_free;
        core->waiter_free = w;
        w = nxt;
    }
}

static void request_internal(Core *core, int node, int block,
                             int is_write, i64 cycle, int ctx) {
    int existing = OUTST(core, block, node);
    if (existing >= 0) {
        req_add_waiter(core, existing, is_write, ctx);
        return;
    }
    Ctrl *c = &core->ctrl[node];
    i64 uid = c->next_uid;
    c->next_uid = uid + UID_STRIDE;
    int ridx = req_new(core, block, is_write, cycle, uid, ctx);
    OUTST(core, block, node) = ridx;
    if (core->measuring) core->started++;
    ctrl_schedule(core, node, core->req_cost, OP_BEGIN, 0, ridx, 0, 0);
}

static void do_launch(Core *core, int node, int midx,
                      i64 cycle) {
    Msg *m = &core->msgs[midx];
    int ridx = OUTST(core, m->block, node);
    if (ridx >= 0 && core->reqs[ridx].uid == m->txn)
        core->reqs[ridx].messages++;
    if (core->measuring) {
        core->sent++;
        core->flits_sum += m->flits;
        core->flits_sq += (i64)m->flits * m->flits;
        core->per_node_sent[node]++;
    }
    if (m->dest == node) {
        fail(core, 1, "self-addressed message; local transactions must "
                   "complete without the network");
        return;
    }
    fab_inject(core, midx, cycle);
}

static void do_handle(Core *core, int node, int midx,
                      i64 cycle) {
    Msg *m = &core->msgs[midx];
    int kind = m->kind, block = m->block, source = m->source;
    i64 txn = m->txn;
    msg_del(core, midx);
    switch (kind) {
    case K_READ:
        do_home_handle_request(core, node, block, source, 0, txn);
        break;
    case K_DATA:
        do_complete_remote_miss(core, node, block, cycle);
        break;
    case K_WRITE:
        do_home_handle_request(core, node, block, source, 1, txn);
        break;
    case K_INV:
        cache_pop(core, node, block);
        do_emit(core, node, K_ACK, source, block, txn);
        break;
    case K_ACK:
        do_home_handle_ack(core, node, block);
        break;
    case K_FETCH:
        do_handle_fetch(core, node, block, source, txn, 0);
        break;
    case K_FETCHINV:
        do_handle_fetch(core, node, block, source, txn, 1);
        break;
    case K_WB:
        do_absorb_writeback(core, node, block, source, txn != -1);
        break;
    default:
        fail(core, 2, "unhandled message kind");
    }
}

static void ctrl_execute(Core *core, int node, Ev *ev,
                         i64 done) {
    switch (ev->op) {
    case OP_HANDLE:
        do_handle(core, node, ev->a0, done);
        break;
    case OP_LAUNCH:
        do_launch(core, node, ev->a0, done);
        if (ev->a1 >= 0) {
            Dir *d = dir_entry(core, ev->a1);
            d->busy = 0;
            do_run_deferred(core, node, ev->a1);
        }
        break;
    case OP_REPLY: {
        int midx = msg_new(core, K_DATA, node, ev->a0, ev->a1, ev->a2);
        ctrl_schedule(core, node, core->send_cost, OP_LAUNCH, 0, midx, ev->a1,
                      0);
        break;
    }
    case OP_FINISH:
        do_finish_local(core, node, ev->a1, done);
        break;
    case OP_BEGIN: {
        Req *req = &core->reqs[ev->a0];
        int block = req->block;
        int home = core->block_home[block];
        if (home == node) {
            do_home_handle_request(core, node, block, node,
                                   req->is_write, req->uid);
        } else {
            do_emit(core, node, req->is_write ? K_WRITE : K_READ, home,
                    block, req->uid);
        }
        break;
    }
    case OP_DEFER:
        do_home_handle_request(core, node, ev->a1, ev->a0, ev->b0,
                               ev->a2);
        do_run_deferred(core, node, ev->a1);
        break;
    case OP_NOP:
        break;
    }
}

/* ------------------------------------------------------------------ */
/* Fabric tick (port of CutThroughFabric.tick; telemetry-free path).   */
/* ------------------------------------------------------------------ */

static void fab_tick(Core *core, i64 cycle) {
    Fab *f = &core->fab;
    /* Deliveries first: heap keyed (cycle, seq) reproduces the serial
     * per-cycle insertion-order arrival lists. */
    while (f->dcount && (i64)(f->dheap[0].key >> 32) == cycle) {
        DHEnt e = dheap_pop(f);
        Transit *t = &core->transits[e.transit];
        Msg *m = &core->msgs[t->msg];
        i64 latency = cycle - m->injected_at;
        f->in_flight--;
        if (core->measuring) {
            core->delivered++;
            core->lat_total += latency;
            int hops = t->route_len - 2;
            core->hops_total += hops;
            if (hops > 0) {
                i64 head = latency - m->flits - t->wait;
                core->hopl_total += (double)head / (double)hops;
                core->hopl_count++;
            }
        }
        ctrl_schedule(core, m->dest, core->recv_cost, OP_HANDLE, 0, t->msg, -1,
                      0);
        transit_del(core, e.transit);
    }
    if (!f->pcount) return;
    int *pending = f->pending;
    int n = f->pcount;
    int *newp = f->pend2;
    int nn = 0;
    for (int i = 0; i < n; i++) {
        int ch = pending[i];
        if (f->free_at[ch] > cycle || f->head_elig[ch] > cycle) {
            newp[nn++] = ch;
            continue;
        }
        Queue *q = &f->queues[ch];
        int tidx = qe_pop(q).transit;
        f->head_elig[ch] = q->count ? q->q[q->head].elig : NEVER;
        Transit *t = &core->transits[tidx];
        Msg *m = &core->msgs[t->msg];
        int flits = m->flits;
        i64 until = cycle + flits;
        f->free_at[ch] = until;
        int hop = t->hop;
        if (hop == 0) {
            t->wait = cycle - m->injected_at;
        } else {
            int link = ch - 2 * core->N;
            if (link >= 0) f->link_flits[link] += flits;
        }
        hop++;
        t->hop = hop;
        if (hop >= t->route_len) {
            dheap_push(f, ((u64)until << 32) | (f->dseq++ & 0xffffffffULL),
                       tidx);
        } else {
            int nxt = core->arena[t->route_off + hop];
            Queue *nq = &f->queues[nxt];
            if (!nq->count) {
                newp[nn++] = nxt;
                f->head_elig[nxt] = cycle + 1;
            }
            qe_push(nq, cycle + 1, tidx);
        }
        if (q->count) newp[nn++] = ch;
    }
    f->pending = newp;
    f->pend2 = pending;
    f->pcount = nn;
}

/* ------------------------------------------------------------------ */
/* Per-node random streams: CPython's MT19937 (_randommodule.c) and   */
/* the random.Random methods the thread programs call.                 */
/* ------------------------------------------------------------------ */

static uint32_t rng_u32(Rng *r) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = r->mt;
    uint32_t y;
    if (r->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random(): 53 random bits as a double in [0, 1). */
static double rng_random(Rng *r) {
    uint32_t a = rng_u32(r) >> 5, b = rng_u32(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n), 1 <= n < 2**32: getrandbits(n.bit_length()) until the
 * draw is below n; getrandbits(k <= 32) is the top k bits of one word. */
static int rng_below(Rng *r, uint32_t n) {
    int k = 32 - __builtin_clz(n);
    uint32_t v;
    do {
        v = rng_u32(r) >> (32 - k);
    } while (v >= n);
    return (int)v;
}

/* uniform(lo, hi) = lo + (hi - lo) * random(); the build disables FMA
 * contraction so the expression rounds as Python evaluates it. */
static double rng_uniform(Rng *r, double lo, double hi) {
    return lo + (hi - lo) * rng_random(r);
}

/* workload.base.jittered_cycles: max(1, round(uniform(lo, hi))) around
 * base; nearbyint rounds half to even in the default rounding mode, as
 * Python's round does.  No jitter draws nothing. */
static i64 rng_jittered(Rng *r, i64 base, double jitter) {
    if (jitter <= 0.0) return base > 1 ? base : 1;
    double spread = (double)base * jitter;
    i64 value = (i64)nearbyint(
        rng_uniform(r, (double)base - spread, (double)base + spread));
    return value > 1 ? value : 1;
}

/* ------------------------------------------------------------------ */
/* Processors (port of repro.sim.processor.Processor) and their        */
/* thread programs.                                                    */
/* ------------------------------------------------------------------ */

#define CTX(core, node, i) \
    (&(core)->ctxs[(size_t)(node) * (core)->contexts + (i)])

/* program.compute_cycles(rng) */
static i64 prog_run_length(Core *core, int node, Ctx *c) {
    return rng_jittered(&core->rngs[node], c->mean, c->jitter);
}

/* program.next_access(rng): NEIGHBOR reads each neighbor's word in
 * turn, UNIFORM reads `reads` uniformly random remote words; both then
 * write the thread's own word.  Returns the block id. */
static int prog_next_access(Core *core, int node, Ctx *c, int *is_write) {
    i64 position = c->position;
    c->position = (position + 1) % (c->reads + 1);
    if (position < c->reads) {
        *is_write = 0;
        if (c->kind == PROG_NEIGHBOR)
            return c->base + core->nbrs[c->nbr + position];
        int target = rng_below(&core->rngs[node],
                               (uint32_t)(c->threads - 1));
        if (target >= c->thread) target++;
        return c->base + target;
    }
    *is_write = 1;
    return c->base + c->thread;
}

/* Round-robin scan for a READY context after the active one. */
static int proc_find_ready(Core *core, int node, Proc *P) {
    int p = core->contexts;
    int start = P->active >= 0 ? P->active + 1 : 0;
    for (int off = 0; off < p; off++) {
        int cand = (start + off) % p;
        if (CTX(core, node, cand)->state == CTX_READY) return cand;
    }
    return -1;
}

/* After a miss: switch to another runnable context (paying T_s) or idle. */
static void proc_leave(Core *core, int node, Proc *P, int index) {
    int target = P->ready_count ? proc_find_ready(core, node, P) : -1;
    if (target < 0 || target == index) {
        P->active = -1;
        return;
    }
    CTX(core, node, target)->state = CTX_COMPUTING;
    P->ready_count--;
    if (core->switch_cycles == 0) {
        P->active = target;
        return;
    }
    P->switches++;
    P->switch_remaining = core->switch_cycles;
    P->switch_target = target;
    P->active = -1;
}

/* Processor.tick: one processor cycle. */
static void proc_tick(Core *core, int node, i64 cycle) {
    Proc *P = &core->procs[node];
    if (P->switch_remaining > 0) {
        if (--P->switch_remaining == 0) {
            P->active = P->switch_target;
            P->switch_target = -1;
        }
        return;
    }
    if (P->active < 0) {
        if (P->ready_count == 0) {
            P->idle++;
            return;
        }
        /* Waking from idle is free: the pipeline already drained. */
        int ready = proc_find_ready(core, node, P);
        if (ready < 0) {
            fail(core, 1, "processor counts a ready context it cannot find");
            return;
        }
        P->active = ready;
        CTX(core, node, ready)->state = CTX_COMPUTING;
        P->ready_count--;
    }
    Ctx *c = CTX(core, node, P->active);
    if (c->state == CTX_READY) {
        c->state = CTX_COMPUTING;
        P->ready_count--;
    }
    if (c->state != CTX_COMPUTING) {
        char msg[96];
        snprintf(msg, sizeof(msg),
                 "node %d: active context %d in state blocked", node,
                 P->active);
        fail(core, 1, msg);
        return;
    }
    if (c->remaining > 0) {
        c->remaining--;
        return;
    }
    int is_write;
    int block = prog_next_access(core, node, c, &is_write);
    if (cache_is_hit(core, node, block, is_write)) {
        if (core->measuring) core->hits++;
        cache_touch(core, node, block);
        c->remaining = core->hit_cycles + prog_run_length(core, node, c);
        return;
    }
    c->state = CTX_BLOCKED;
    request_internal(core, node, block, is_write, cycle, P->active);
    proc_leave(core, node, P, P->active);
}

/* The transaction of context `ctx` completed (the spec's on_complete):
 * draw its next run at once, and put an idle processor on the woken
 * list for the next boundary. */
static void proc_complete(Core *core, int node, int ctx) {
    Proc *P = &core->procs[node];
    Ctx *c = CTX(core, node, ctx);
    c->state = CTX_READY;
    c->remaining = prog_run_length(core, node, c);
    P->ready_count++;
    if (P->active < 0 && P->switch_remaining == 0 && !P->woken) {
        P->woken = 1;
        core->woken[core->nwoken++] = node;
    }
}

/* Processor.next_event_ticks; -1 for an idle processor. */
static i64 proc_next_event(Core *core, int node, Proc *P) {
    if (P->switch_remaining > 0)
        return P->switch_remaining +
               CTX(core, node, P->switch_target)->remaining + 1;
    if (P->active >= 0) return CTX(core, node, P->active)->remaining + 1;
    return -1;
}

/* Processor.skip_ticks: `ticks` countdown ticks in one step. */
static void proc_skip(Core *core, int node, Proc *P, i64 ticks) {
    if (ticks <= 0) return;
    if (P->switch_remaining > 0) {
        i64 take = ticks < P->switch_remaining ? ticks : P->switch_remaining;
        P->switch_remaining -= take;
        ticks -= take;
        if (P->switch_remaining == 0) {
            P->active = P->switch_target;
            P->switch_target = -1;
        }
        if (ticks == 0) return;
    }
    if (P->active >= 0)
        CTX(core, node, P->active)->remaining -= ticks;
    else
        P->idle += ticks;
}

/* MachineEngine.__init__: calendar every busy processor at its next
 * event; an idle one with runnable work is due at the next boundary. */
static void proc_start(Core *core) {
    i64 base = core->cycle > 0 ? (core->cycle - 1) / core->speedup : -1;
    for (int node = 0; node < core->N; node++) {
        Proc *P = &core->procs[node];
        P->last_tick = base;
        i64 distance = proc_next_event(core, node, P);
        if (distance >= 0) {
            heap_push(core->pheap, &core->pcount,
                      ((u64)(base + distance) << 20) | (u64)node);
        } else if (P->ready_count && !P->woken) {
            P->woken = 1;
            core->woken[core->nwoken++] = node;
        }
    }
    core->calendared = 1;
}

/* MachineEngine._visit: the processor boundary at `cycle`.  Due and
 * woken processors tick in ascending node order, each brought current
 * through skipped countdown ticks first, then calendared again. */
static void proc_visit(Core *core, i64 cycle) {
    i64 tick = cycle / core->speedup;
    int *batch = core->scratch;
    int bn = 0;
    while (core->pcount && (i64)(core->pheap[0] >> 20) == tick)
        batch[bn++] = (int)(heap_pop(core->pheap, &core->pcount) & 0xFFFFF);
    if (core->nwoken) {
        /* Idle processors carry no heap entry: the sources are disjoint. */
        for (int i = 0; i < core->nwoken; i++) {
            batch[bn++] = core->woken[i];
            core->procs[core->woken[i]].woken = 0;
        }
        core->nwoken = 0;
        sort_nodes(batch, bn);
    }
    for (int i = 0; i < bn; i++) {
        int node = batch[i];
        Proc *P = &core->procs[node];
        proc_skip(core, node, P, tick - P->last_tick - 1);
        proc_tick(core, node, cycle);
        if (core->errcode) return;
        P->last_tick = tick;
        i64 distance = proc_next_event(core, node, P);
        if (distance >= 0)
            heap_push(core->pheap, &core->pcount,
                      ((u64)(tick + distance) << 20) | (u64)node);
    }
}

/* MachineEngine._flush: bring every processor current through `tick`. */
static void proc_flush(Core *core, i64 tick) {
    for (int node = 0; node < core->N; node++) {
        Proc *P = &core->procs[node];
        if (tick > P->last_tick) {
            proc_skip(core, node, P, tick - P->last_tick);
            P->last_tick = tick;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Window loop: processor boundary, controller phase, fabric phase,    */
/* quiescence jump (port of MachineEngine.run_window).                 */
/* ------------------------------------------------------------------ */

/* Machine._tick_controllers: wake-heap dues + ready list, ascending. */
static void ctrl_phase(Core *core, i64 cycle) {
    int bn = 0;
    int *due = core->scratch;
    while (core->wcount && (i64)(core->wake[0] >> 20) == cycle)
        due[bn++] = (int)(heap_pop(core->wake, &core->wcount) & 0xFFFFF);
    if (core->ready_count) {
        memcpy(due + bn, core->ready, (size_t)core->ready_count * sizeof(int));
        bn += core->ready_count;
        core->ready_count = 0;
    }
    sort_nodes(due, bn);
    for (int i = 0; i < bn; i++) {
        int node = due[i];
        Ctrl *c = &core->ctrl[node];
        c->notified = 0;
        ctrl_tick(core, node, cycle);
        if (core->errcode) return;
        if (c->has_cur)
            wheap_push(core, ((u64)c->done_at << 20) | (u64)node);
    }
}

/* Advance the machine `cycles` network cycles; 0, or -1 on an error
 * (bc_errcode/bc_errmsg say which).  Processors end current through
 * the window's last boundary, as the spec leaves them. */
int bc_run(Core *core, i64 cycles) {
    if (!core->calendared) proc_start(core);
    i64 speedup = core->speedup;
    i64 cycle = core->cycle, end = cycle + cycles;
    while (cycle < end) {
        if (cycle % speedup == 0) proc_visit(core, cycle);
        if (core->errcode) return -1;
        ctrl_phase(core, cycle);
        if (core->errcode) return -1;
        fab_tick(core, cycle);
        if (core->errcode) return -1;
        /* Quiescence: nothing can happen before the earliest pending
         * event, so jump straight to it. */
        i64 nxt = cycle + 1;
        if (!core->ready_count) {
            i64 horizon = fab_next(core, nxt);
            if (horizon < 0 || horizon > nxt) {
                i64 target = end;
                if (core->pcount) {
                    i64 due = (i64)(core->pheap[0] >> 20) * speedup;
                    if (due < target) target = due;
                }
                if (core->nwoken) {
                    i64 due = (nxt + speedup - 1) / speedup * speedup;
                    if (due < target) target = due;
                }
                if (core->wcount) {
                    i64 due = (i64)(core->wake[0] >> 20);
                    if (due < target) target = due;
                }
                if (horizon >= 0 && horizon < target) target = horizon;
                if (target > nxt) nxt = target;
            }
        }
        cycle = nxt;
    }
    core->cycle = end;
    if (cycles > 0) proc_flush(core, (end - 1) / speedup);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Public API.                                                         */
/* ------------------------------------------------------------------ */

Core *bc_create(int N, int dims, int radix, int capacity, int req_cost,
                int recv_cost, int send_cost, int mem_cost, int contexts,
                int speedup, int hit_cycles, int switch_cycles) {
    if (N >= (1 << 20) || dims > 8 || dims * radix > 62) return NULL;
    if (contexts < 1 || speedup < 1 || hit_cycles < 0 || switch_cycles < 0)
        return NULL;
    Core *core = (Core *)calloc(1, sizeof(Core));
    core->N = N;
    core->dims = dims;
    core->radix = radix;
    core->capacity = capacity;
    core->req_cost = req_cost;
    core->recv_cost = recv_cost;
    core->send_cost = send_cost;
    core->mem_cost = mem_cost;
    core->contexts = contexts;
    core->speedup = speedup;
    core->hit_cycles = hit_cycles;
    core->switch_cycles = switch_cycles;
    core->channels = 2 * N + 2 * N * dims;
    core->links = 2 * N * dims;
    core->words = (N + 63) / 64;
    core->msg_free = -1;
    core->transit_free = -1;
    core->req_free = -1;
    core->waiter_free = -1;
    core->route_rows = (int **)calloc((size_t)N, sizeof(int *));
    core->pow_radix = (int *)malloc((size_t)dims * sizeof(int));
    int p = 1;
    for (int d = 0; d < dims; d++) { core->pow_radix[d] = p; p *= radix; }
    core->clog = (CacheLog *)calloc((size_t)N, sizeof(CacheLog));
    core->ctrl = (Ctrl *)calloc((size_t)N, sizeof(Ctrl));
    for (int i = 0; i < N; i++) core->ctrl[i].next_uid = i;
    core->ready = (int *)malloc((size_t)N * sizeof(int));
    core->scratch = (int *)malloc((size_t)2 * N * sizeof(int));
    core->per_node_sent = (i64 *)calloc((size_t)N, sizeof(i64));
    core->procs = (Proc *)calloc((size_t)N, sizeof(Proc));
    core->ctxs = (Ctx *)calloc((size_t)N * contexts, sizeof(Ctx));
    core->rngs = (Rng *)calloc((size_t)N, sizeof(Rng));
    core->pheap = (u64 *)malloc((size_t)N * sizeof(u64));
    core->woken = (int *)malloc((size_t)N * sizeof(int));
    Fab *f = &core->fab;
    f->free_at = (i64 *)calloc((size_t)core->channels, sizeof(i64));
    f->head_elig = (i64 *)malloc((size_t)core->channels * sizeof(i64));
    for (int c = 0; c < core->channels; c++) f->head_elig[c] = NEVER;
    f->queues = (Queue *)calloc((size_t)core->channels, sizeof(Queue));
    f->pending = (int *)malloc((size_t)core->channels * sizeof(int));
    f->pend2 = (int *)malloc((size_t)core->channels * sizeof(int));
    f->link_flits = (i64 *)calloc((size_t)core->links, sizeof(i64));
    return core;
}

void bc_destroy(Core *core) {
    if (core == NULL) return;
    for (int i = 0; i < core->N; i++) free(core->ctrl[i].q);
    free(core->ctrl);
    free(core->ready);
    free(core->scratch);
    free(core->per_node_sent);
    free(core->wake);
    free(core->procs);
    free(core->ctxs);
    free(core->rngs);
    free(core->nbrs);
    free(core->pheap);
    free(core->woken);
    Fab *f = &core->fab;
    for (int c = 0; c < core->channels; c++) free(f->queues[c].q);
    free(f->queues);
    free(f->free_at);
    free(f->head_elig);
    free(f->pending);
    free(f->pend2);
    free(f->link_flits);
    free(f->dheap);
    for (int i = 0; i < core->nblocks; i++) free(core->dir[i].ditems);
    free(core->dir);
    free(core->sharers);
    for (int i = 0; i < core->N; i++) free(core->clog[i].items);
    free(core->clog);
    for (int i = 0; i < core->N; i++) free(core->route_rows[i]);
    free(core->route_rows);
    free(core->arena);
    free(core->pow_radix);
    free(core->block_home);
    free(core->cache_state);
    free(core->cache_seq);
    free(core->outstanding);
    free(core->msgs);
    free(core->transits);
    free(core->reqs);
    free(core->waiters);
    free(core);
}

static int add_block(Core *core, int home) {
    size_t N = (size_t)core->N;
    if (core->nblocks >= core->blocks_cap) {
        int old = core->blocks_cap;
        core->blocks_cap = old ? old * 2 : 64;
        size_t cap = (size_t)core->blocks_cap;
        core->block_home = (int *)realloc(core->block_home, cap * sizeof(int));
        core->cache_state = (int8_t *)realloc(core->cache_state, cap * N);
        core->cache_seq = (int *)realloc(core->cache_seq,
                                         cap * N * sizeof(int));
        core->outstanding = (int *)realloc(
            core->outstanding, cap * N * sizeof(int));
        core->dir = (Dir *)realloc(core->dir, cap * sizeof(Dir));
        core->sharers = (u64 *)realloc(
            core->sharers, cap * (size_t)core->words * sizeof(u64));
    }
    int blk = core->nblocks++;
    core->block_home[blk] = home;
    memset(core->cache_state + (size_t)blk * N, 0, N);
    memset(core->cache_seq + (size_t)blk * N, 0, N * sizeof(int));
    for (size_t i = 0; i < N; i++) core->outstanding[(size_t)blk * N + i] = -1;
    memset(core->dir + blk, 0, sizeof(Dir));
    sharers_clear(core, blk);
    return blk;
}

/* Append `count` blocks homed at homes[i]; returns the first id. */
int bc_add_blocks(Core *core, int count, const int *homes) {
    int first = core->nblocks;
    for (int i = 0; i < count; i++) add_block(core, homes[i]);
    return first;
}

/* Context `ctx` of `node` runs a program of `kind`: its blocks are
 * base + thread id; NEIGHBOR reads neighbors[0..reads), UNIFORM
 * `reads` random remote words among `threads`. */
void bc_set_program(Core *core, int node, int ctx, int kind, int base,
                    int thread, int reads, int threads,
                    const int *neighbors, i64 position, i64 mean,
                    double jitter) {
    Ctx *c = CTX(core, node, ctx);
    c->kind = kind;
    c->base = base;
    c->thread = thread;
    c->reads = reads;
    c->threads = threads;
    c->position = position;
    c->mean = mean;
    c->jitter = jitter;
    if (kind != PROG_NEIGHBOR) return;
    if (core->nbrs_len + reads > core->nbrs_cap) {
        core->nbrs_cap = core->nbrs_cap ? core->nbrs_cap * 2 : 1024;
        while (core->nbrs_len + reads > core->nbrs_cap) core->nbrs_cap *= 2;
        core->nbrs = (int *)realloc(core->nbrs,
                                    (size_t)core->nbrs_cap * sizeof(int));
    }
    c->nbr = core->nbrs_len;
    memcpy(core->nbrs + c->nbr, neighbors, (size_t)reads * sizeof(int));
    core->nbrs_len += reads;
}

/* Processor state, PROC_FIELDS + 3 * contexts words per node: active,
 * switch remaining, switch target (-1 for none), ready count, idle
 * cycles, switches, then per context state, remaining cycles and
 * program position.  The stream: the 624 MT words, then the index. */
#define PROC_FIELDS 6

void bc_set_state(Core *core, const i64 *procs, const uint32_t *rng) {
    int stride = PROC_FIELDS + 3 * core->contexts;
    for (int node = 0; node < core->N; node++) {
        const i64 *in = procs + (size_t)node * stride;
        Proc *P = &core->procs[node];
        P->active = (int)in[0];
        P->switch_remaining = in[1];
        P->switch_target = (int)in[2];
        P->ready_count = (int)in[3];
        P->idle = in[4];
        P->switches = in[5];
        for (int i = 0; i < core->contexts; i++) {
            Ctx *c = CTX(core, node, i);
            c->state = (int)in[PROC_FIELDS + 3 * i];
            c->remaining = in[PROC_FIELDS + 3 * i + 1];
            c->position = in[PROC_FIELDS + 3 * i + 2];
        }
        Rng *r = &core->rngs[node];
        memcpy(r->mt, rng + (size_t)node * (MT_N + 1), sizeof(r->mt));
        r->index = (int)rng[(size_t)node * (MT_N + 1) + MT_N];
    }
}

/* Either output may be NULL to skip it. */
void bc_get_state(Core *core, i64 *procs, uint32_t *rng) {
    int stride = PROC_FIELDS + 3 * core->contexts;
    for (int node = 0; node < core->N; node++) {
        if (rng != NULL) {
            Rng *r = &core->rngs[node];
            memcpy(rng + (size_t)node * (MT_N + 1), r->mt, sizeof(r->mt));
            rng[(size_t)node * (MT_N + 1) + MT_N] = (uint32_t)r->index;
        }
        if (procs == NULL) continue;
        i64 *out = procs + (size_t)node * stride;
        Proc *P = &core->procs[node];
        out[0] = P->active;
        out[1] = P->switch_remaining;
        out[2] = P->switch_target;
        out[3] = P->ready_count;
        out[4] = P->idle;
        out[5] = P->switches;
        for (int i = 0; i < core->contexts; i++) {
            Ctx *c = CTX(core, node, i);
            out[PROC_FIELDS + 3 * i] = c->state;
            out[PROC_FIELDS + 3 * i + 1] = c->remaining;
            out[PROC_FIELDS + 3 * i + 2] = c->position;
        }
    }
}

void bc_start_measuring(Core *core) {
    core->measuring = 1;
    core->sent = core->flits_sum = core->flits_sq = 0;
    core->delivered = core->lat_total = core->hops_total = 0;
    core->hopl_count = core->started = 0;
    core->hits = 0;
    core->rcompleted = core->lcompleted = core->txn_lat = core->evictions = 0;
    core->hopl_total = 0.0;
    memset(core->per_node_sent, 0, (size_t)core->N * sizeof(i64));
}

void bc_get_counters(Core *core, i64 *out_i, double *out_d) {
    out_i[0] = core->sent;
    out_i[1] = core->flits_sum;
    out_i[2] = core->flits_sq;
    out_i[3] = core->delivered;
    out_i[4] = core->lat_total;
    out_i[5] = core->hops_total;
    out_i[6] = core->hopl_count;
    out_i[7] = core->started;
    out_i[8] = core->rcompleted;
    out_i[9] = core->lcompleted;
    out_i[10] = core->txn_lat;
    out_i[11] = core->evictions;
    out_i[12] = core->hits;
    out_d[0] = core->hopl_total;
}

void bc_get_link_flits(Core *core, i64 *out) {
    memcpy(out, core->fab.link_flits,
           (size_t)core->links * sizeof(i64));
}

void bc_get_per_node_sent(Core *core, i64 *out) {
    memcpy(out, core->per_node_sent, (size_t)core->N * sizeof(i64));
}

i64 bc_in_flight(Core *core) { return core->fab.in_flight; }

/* `count` draws from one stream (625 words: MT state, then index,
 * updated in place), for the stream tests: kind 0 random(), 1
 * uniform(a, b), 2 jittered_cycles(base a, jitter b), 3 randrange(a). */
void bc_rng_draws(uint32_t *state, int kind, double a, double b,
                  i64 count, double *out) {
    Rng r;
    memcpy(r.mt, state, sizeof(r.mt));
    r.index = (int)state[MT_N];
    for (i64 i = 0; i < count; i++) {
        switch (kind) {
        case 0: out[i] = rng_random(&r); break;
        case 1: out[i] = rng_uniform(&r, a, b); break;
        case 2: out[i] = (double)rng_jittered(&r, (i64)a, b); break;
        default: out[i] = rng_below(&r, (uint32_t)a); break;
        }
    }
    memcpy(state, r.mt, sizeof(r.mt));
    state[MT_N] = (uint32_t)r.index;
}

int bc_errcode(Core *core) { return core->errcode; }
const char *bc_errmsg(Core *core) { return core->errmsg; }
