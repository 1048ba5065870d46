/* The compiled program executor behind repro.workloads.cfg.Program.run.
 *
 * Python (repro/workloads/compiled.py) flattens the laid-out program into
 * tables of int64 rows and hands this file one run_t that points at them.
 * execute() walks the program with an explicit frame stack, keeping all
 * executor state in those tables (global history, branch counts,
 * behaviour state, the limits), and writes the five trace columns.  It
 * returns to Python only to ask for something it cannot make itself,
 * before any side effect of the step that needs it, so the call can
 * simply be made again once Python has answered:
 *
 *   ST_DRAWS     stream `request` must be opened (its set-up products
 *                written) and hold at least `need` buffered draws;
 *   ST_FUNCTION  function `request` has no flattened body yet;
 *   ST_SPACE     the trace columns are full;
 *   ST_DEPTH     the frame stack is full;
 *   ST_LOOP_CAP  loop node `request` exceeded the iteration cap;
 *   ST_IDLE      a whole pass over main emitted no block;
 *   ST_DONE      max_branches or max_blocks was reached.
 *
 * Every step mirrors the Python Executor and the behaviour classes line
 * for line; the constants below mirror compiled.py.
 */
#include <stdint.h>
#include <string.h>

#define NODE_W 10
#define STREAM_W 12
#define FUNC_W 3
#define FRAME_W 3
#define SLOT_DRAWS 64

enum { ST_DONE, ST_DRAWS, ST_FUNCTION, ST_SPACE, ST_DEPTH, ST_LOOP_CAP,
       ST_IDLE };

/* Node rows: [type, start, ...] then, by type,
 *   STRAIGHT  count
 *   SEQUENCE  first kid, kid count
 *   IF        count, stream, occurrence, then, else (-1: none),
 *             then start, else start, join
 *   LOOP      count, stream, occurrence, body, latch start, exit, enters
 *   CALL      function
 *   DISPATCH  stream, first callee kid, callee count, first cdf */
enum { STRAIGHT, SEQUENCE, IF, LOOP, CALL, DISPATCH };

/* Stream rows (one per behaviour or dispatch node). */
enum { S_KIND, S_OPENED, S_STATE, S_CELL, S_OFFSET, S_LENGTH, S_LAGS,
       S_SLOT, S_HEAD, S_COUNT, S_TOUCHED, S_TRIPS };
enum { BIASED, LEADER, FOLLOWER, LOOP_FIXED, LOOP_JITTERED, PATTERN,
       GLOBAL, LOCAL, MARKOV, DISPATCHER };
/* Params per stream: probability, second probability, noise. */
#define PARAM_W 3

/* Function rows: entry, return pc, body node (-1: not flattened). */
enum { F_ENTRY, F_RETURN, F_BODY };

enum { FALLTHROUGH, CONDITIONAL, JUMP, CALL_KIND, RETURN_KIND };

typedef struct {
    int64_t status, request, need;
    int64_t blocks, capacity, branches, max_branches, max_blocks;
    int64_t history, depth, frames_capacity, main, main_mark;
    int64_t loop_cap, bad_count, has_bad;
    int64_t *nodes, *kids, *funcs, *streams, *cells, *occurrences, *lags,
            *frames;
    double *params, *draws, *cdfs;
    uint8_t *bytes;
    uint64_t *starts;
    uint16_t *counts;
    uint8_t *kinds, *takens;
    uint64_t *nexts;
} run_t;

/* Record one block execution; nonzero when the trace is long enough. */
static int emit(run_t *r, int64_t start, int64_t count, int kind, int taken,
                int64_t next)
{
    int64_t i = r->blocks++;
    r->starts[i] = (uint64_t)start;
    r->counts[i] = (uint16_t)count;
    r->kinds[i] = (uint8_t)kind;
    r->takens[i] = (uint8_t)taken;
    r->nexts[i] = (uint64_t)next;
    if ((count < 1 || count > 0xFFFF) && !r->has_bad) {
        r->has_bad = 1;
        r->bad_count = count;
    }
    if (kind == CONDITIONAL && ++r->branches >= r->max_branches)
        return 1;
    return r->blocks >= r->max_blocks;
}

/* Whether stream s can make its next step (a resolve, or a loop entry
 * when `entering`) without Python; if not, ask for it. */
static int ready(run_t *r, int64_t s, int entering)
{
    int64_t *row = r->streams + s * STREAM_W;
    int64_t kind = row[S_KIND], need = 0;
    int setup = 0;
    if (entering) {
        need = kind == LOOP_JITTERED;
    } else {
        switch (kind) {
        case BIASED: case LEADER: case MARKOV: case DISPATCHER:
            need = 1;
            break;
        case LOOP_JITTERED:
            need = row[S_STATE] - 1 <= 0;
            break;
        }
        if (r->params[s * PARAM_W + 2] != 0.0)
            need++;
        setup = kind == GLOBAL || kind == LOCAL || kind == MARKOV
                || (kind == FOLLOWER && row[S_STATE] < 0);
    }
    if ((setup && !row[S_OPENED]) || row[S_COUNT] < need) {
        if (row[S_HEAD]) {  /* leftovers to the front of the slot */
            double *slot = r->draws + row[S_SLOT] * SLOT_DRAWS;
            memmove(slot, slot + row[S_HEAD],
                    (size_t)row[S_COUNT] * sizeof(double));
            row[S_HEAD] = 0;
        }
        r->status = ST_DRAWS;
        r->request = s;
        r->need = need;
        return 0;
    }
    return 1;
}

static double take(run_t *r, int64_t *row)
{
    row[S_COUNT]--;
    return r->draws[row[S_SLOT] * SLOT_DRAWS + row[S_HEAD]++];
}

/* max(1, int(round(draw))): Python rounds half to even. */
static int64_t trips(double draw)
{
    if (!(draw < 0x1p62))
        return (int64_t)1 << 62;
    if (draw < 1.0)
        return 1;
    int64_t whole = (int64_t)draw;
    double fraction = draw - (double)whole;
    if (fraction > 0.5 || (fraction == 0.5 && (whole & 1)))
        whole++;
    return whole;
}

static void enter(run_t *r, int64_t *row)
{
    row[S_STATE] = row[S_KIND] == LOOP_JITTERED ? trips(take(r, row))
                                                : row[S_TRIPS];
    row[S_TOUCHED] = 1;
}

/* Behavior.next plus Executor.resolve, for a stream that is ready(). */
static int resolve(run_t *r, int64_t s, int64_t occurrence)
{
    int64_t *row = r->streams + s * STREAM_W;
    const double *p = r->params + s * PARAM_W;
    uint64_t history = (uint64_t)r->history;
    int value = 0;
    switch (row[S_KIND]) {
    case BIASED:
        value = take(r, row) < p[0];
        break;
    case LEADER:
        value = take(r, row) < p[0];
        r->cells[row[S_CELL]] = value;
        break;
    case FOLLOWER:
        value = (int)((r->cells[row[S_CELL]] ^ row[S_STATE]) & 1);
        break;
    case LOOP_FIXED: case LOOP_JITTERED:
        if (--row[S_STATE] <= 0)
            enter(r, row);
        else
            value = 1;
        break;
    case PATTERN:
        value = r->bytes[row[S_OFFSET]
                         + r->occurrences[occurrence] % row[S_LENGTH]];
        break;
    case GLOBAL: {
        int64_t index = 0;
        for (int64_t i = 0; i < row[S_LENGTH]; i++) {
            int64_t lag = r->lags[row[S_LAGS] + i];
            if (lag <= 64)
                index |= (int64_t)((history >> (lag - 1)) & 1) << i;
        }
        value = r->bytes[row[S_OFFSET] + index];
        break;
    }
    case LOCAL: {
        int64_t window = ((int64_t)1 << row[S_LENGTH]) - 1;
        value = r->bytes[row[S_OFFSET] + (row[S_STATE] & window)];
        row[S_STATE] = ((row[S_STATE] << 1) | value) & window;
        break;
    }
    case MARKOV: {
        double draw = take(r, row);
        if (draw >= (row[S_STATE] ? p[0] : p[1]))
            row[S_STATE] ^= 1;
        value = (int)row[S_STATE];
        break;
    }
    }
    if (p[2] != 0.0 && take(r, row) < p[2])
        value ^= 1;
    row[S_TOUCHED] = 1;
    r->history = (int64_t)((history << 1) | (uint64_t)value);
    r->occurrences[occurrence]++;
    return value;
}

/* bisect.bisect_right, step for step. */
static int64_t bisect_right(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static void push(run_t *r, int64_t node)
{
    int64_t *frame = r->frames + r->depth++ * FRAME_W;
    frame[0] = node;
    frame[1] = 0;
    frame[2] = 0;
}

/* Frames: [node, step, aux].  Every step emits at most one block and
 * pushes at most one frame, so the checks at the top of the loop are all
 * the room it needs. */
void execute(run_t *r)
{
    for (;;) {
        if (r->blocks >= r->capacity) {
            r->status = ST_SPACE;
            return;
        }
        if (r->depth >= r->frames_capacity) {
            r->status = ST_DEPTH;
            return;
        }
        if (r->depth == 0) {
            if (r->main_mark == r->blocks) {
                r->status = ST_IDLE;
                return;
            }
            r->main_mark = r->blocks;
            push(r, r->main);
        }
        int64_t *frame = r->frames + (r->depth - 1) * FRAME_W;
        const int64_t *n = r->nodes + frame[0] * NODE_W;
        int stop = 0;
        switch (n[0]) {
        case STRAIGHT:
            r->depth--;
            if (n[2])
                stop = emit(r, n[1], n[2], FALLTHROUGH, 0, n[1] + 4 * n[2]);
            break;
        case SEQUENCE:
            if (frame[1] == n[3])
                r->depth--;
            else
                push(r, r->kids[n[2] + frame[1]++]);
            break;
        case IF:
            if (frame[1] == 0) {
                if (!ready(r, n[3], 0))
                    return;
                int taken = resolve(r, n[3], n[4]);
                stop = emit(r, n[1], n[2], CONDITIONAL, taken,
                            taken ? n[8] : n[7]);
                if (!taken) {
                    frame[1] = 1;
                    push(r, n[5]);
                } else if (n[6] >= 0) {
                    frame[0] = n[6];  /* the else-body replaces the if */
                    frame[1] = 0;
                } else {
                    r->depth--;
                }
            } else {
                r->depth--;
                if (n[6] >= 0)
                    stop = emit(r, n[8] - 4, 1, JUMP, 1, n[9]);
            }
            break;
        case LOOP:
            if (frame[1] == 0) {
                if (n[8]) {
                    if (!ready(r, n[3], 1))
                        return;
                    enter(r, r->streams + n[3] * STREAM_W);
                }
                frame[1] = 1;
            } else if (frame[1] == 1) {
                if (frame[2] >= r->loop_cap) {
                    r->status = ST_LOOP_CAP;
                    r->request = frame[0];
                    return;
                }
                frame[1] = 2;
                push(r, n[5]);
            } else {
                if (!ready(r, n[3], 0))
                    return;
                int taken = resolve(r, n[3], n[4]);
                stop = emit(r, n[6], n[2], CONDITIONAL, taken,
                            taken ? n[1] : n[7]);
                if (taken) {
                    frame[1] = 1;
                    frame[2]++;
                } else {
                    r->depth--;
                }
            }
            break;
        case CALL:
        case DISPATCH: {
            /* aux: the callee; step 1 runs its body, step 2 its exit. */
            if (frame[1] == 0) {
                if (n[0] == CALL) {
                    frame[2] = n[2];
                } else {
                    if (!ready(r, n[2], 0))
                        return;
                    int64_t *row = r->streams + n[2] * STREAM_W;
                    int64_t state = row[S_STATE], count = n[4];
                    frame[2] = r->kids[n[3] + state];
                    row[S_STATE] = bisect_right(
                        r->cdfs + n[5] + state * count, count,
                        take(r, row));
                    row[S_TOUCHED] = 1;
                }
                frame[1] = 1;
                stop = emit(r, n[1], 1, n[0] == CALL ? CALL_KIND : JUMP, 1,
                            r->funcs[frame[2] * FUNC_W + F_ENTRY]);
            } else if (frame[1] == 1) {
                int64_t body = r->funcs[frame[2] * FUNC_W + F_BODY];
                if (body < 0) {
                    r->status = ST_FUNCTION;
                    r->request = frame[2];
                    return;
                }
                frame[1] = 2;
                push(r, body);
            } else {
                r->depth--;
                stop = emit(r, r->funcs[frame[2] * FUNC_W + F_RETURN], 1,
                            n[0] == CALL ? RETURN_KIND : JUMP, 1,
                            n[0] == CALL ? n[1] + 4 : n[1]);
            }
            break;
        }
        }
        if (stop) {
            r->status = ST_DONE;
            return;
        }
    }
}
