/* Compiled predict-then-train replay kernels for every batched predictor:
 * the single-table ones (bimodal, gshare, GAs) and the update-coupled ones
 * (2Bc-gskew and the EV8 built on it, e-gskew, bi-mode and YAGS).
 *
 * Each kernel gathers its indices from GF(2) byte tables a block of rows at
 * a time (gather_block), walks the block in stream order and reads and
 * writes the predictor's own table buffers in place (the bytearray /
 * array.array buffers of repro.common.counters.SplitCounterArray and of the
 * YAGS tag caches), restating the scalar predict/update methods exactly.
 * Every index is masked with its table's size - 1, as the scalar predict and
 * update do.  Each position writes its prediction byte.  Given a `counts`
 * array (NULL: telemetry off), a kernel also counts the scalar walk's
 * telemetry events where the scalar walk counts them: BANK_SLOTS slots per
 * bank in bank order, then any slots of the predictor's own.
 *
 * Built and loaded on first use by repro.kernels.
 */

#include <stddef.h>
#include <stdint.h>

/* A bank's telemetry slots, in the order of
 * repro.common.counters.SplitCounterArray._tele_names. */
enum { SLOT_READS, SLOT_PREDICTION_WRITES, SLOT_HYSTERESIS_WRITES,
       SLOT_SHARING_CONFLICTS, BANK_SLOTS };

/* One SplitCounterArray: prediction and hysteresis bytes, both sizes powers
 * of two, hysteresis_size dividing size, and its BANK_SLOTS telemetry slots
 * (NULL when not counting). */
typedef struct {
    uint8_t *prediction;
    uint8_t *hysteresis;
    uint64_t size;
    uint64_t hysteresis_size;
    uint64_t *counts;
} bank_t;

/* A bank arrives as BANK_WORDS uint64 words: the prediction and hysteresis
 * buffer addresses, then the two sizes. */
#define BANK_WORDS 4

/* Bank `b` of a kernel's bank words, counting into slot block `b` of
 * `counts`. */
static bank_t bank_at(const uint64_t *bank_words, int b, uint64_t *counts)
{
    const uint64_t *words = bank_words + BANK_WORDS * b;
    bank_t bank = {(uint8_t *)(uintptr_t)words[0],
                   (uint8_t *)(uintptr_t)words[1], words[2], words[3],
                   counts ? counts + BANK_SLOTS * b : NULL};
    return bank;
}

static inline uint64_t masked(const bank_t *bank, uint64_t index)
{
    return index & (bank->size - 1);
}

/* The fetch-port read of counter `index` (already masked):
 * SplitCounterArray.predict. */
static inline unsigned read(const bank_t *bank, uint64_t index)
{
    if (bank->counts)
        bank->counts[SLOT_READS]++;
    return bank->prediction[index];
}

/* Whether the sharing group of hysteresis entry h holds disagreeing
 * direction bits (never, for private hysteresis). */
static inline unsigned sharing_conflict(const bank_t *bank, uint64_t h)
{
    uint64_t stride = bank->hysteresis_size;
    uint8_t first = bank->prediction[h];
    for (uint64_t other = h + stride; other < bank->size; other += stride)
        if (bank->prediction[other] != first)
            return 1;
    return 0;
}

/* One update step of counter `index` (already masked) towards `taken`:
 * SplitCounterArray._step_towards, counting the one write it issues.  An
 * outcome the direction agrees with asserts the strength bit, a strong
 * counter's disagreeing one clears it, and a weak counter's flips the
 * direction.  A strength-bit write to a sharing group of disagreeing
 * directions is a sharing conflict (Section 4.4).  A strengthen is the same
 * step. */
static inline void step(const bank_t *bank, uint64_t index, unsigned taken)
{
    uint64_t h = index & (bank->hysteresis_size - 1);
    unsigned agrees = bank->prediction[index] == taken;
    if (agrees || bank->hysteresis[h]) {
        if (bank->counts) {
            bank->counts[SLOT_HYSTERESIS_WRITES]++;
            bank->counts[SLOT_SHARING_CONFLICTS] += sharing_conflict(bank, h);
        }
        bank->hysteresis[h] = (uint8_t)agrees;
        return;
    }
    if (bank->counts)
        bank->counts[SLOT_PREDICTION_WRITES]++;
    bank->prediction[index] = (uint8_t)taken;
}

/* ---- The GF(2) index gather -----------------------------------------------
 *
 * Every batched index is an XOR of byte-table lookups
 * (repro.indexing.gf2.ByteTables): a lookup XORs table[byte b of a column]
 * into one packed uint64 word, and index k is lane k of the packed words,
 * lanes lane_bits (16, 32 or 64) wide.  A lookup descriptor arrives as
 * uint64 words: LOOKUP_HEADER header words (lookups, packed words, lane
 * bits, indices), then three words per lookup: the address of its byte
 * plane (the column's first row plus byte b, so row r's byte is
 * plane[8 * r]), its packed word and the address of its 256-entry table.
 *
 * gather_block fills the packed words of up to GATHER_ROWS rows, lookup by
 * lookup, into a block on the caller's stack, so the block and the table
 * being read stay in L1; each kernel then walks the block row by row,
 * reading its indices through lane views. */
#define GATHER_ROWS 256
#define GATHER_WORDS 4
#define LOOKUP_HEADER 4

/* The block sizes, for the tests (repro.indexing.gf2.MAX_WORDS must equal
 * GATHER_WORDS). */
const int gather_rows = GATHER_ROWS;
const int gather_words = GATHER_WORDS;

typedef uint64_t block_t[GATHER_WORDS][GATHER_ROWS];

static inline int block_rows(int64_t n, int64_t start)
{
    return n - start < GATHER_ROWS ? (int)(n - start) : GATHER_ROWS;
}

static inline void gather_block(const uint64_t *lookups, int64_t start,
                                int rows, block_t block)
{
    for (uint64_t w = 0; w < lookups[1]; w++)
        for (int r = 0; r < rows; r++)
            block[w][r] = 0;
    const uint64_t *entry = lookups + LOOKUP_HEADER;
    for (uint64_t l = 0; l < lookups[0]; l++, entry += 3) {
        const uint8_t *plane = (const uint8_t *)(uintptr_t)entry[0]
            + 8 * start;
        uint64_t *word = block[entry[1]];
        const uint64_t *table = (const uint64_t *)(uintptr_t)entry[2];
        for (int r = 0; r < rows; r++)
            word[r] ^= table[plane[8 * r]];
    }
}

/* Index k's view of a block: (word[r] >> shift) & mask. */
typedef struct {
    const uint64_t *word;
    unsigned shift;
    uint64_t mask;
} lane_t;

static inline lane_t lane_at(const uint64_t *lookups, block_t block, int k)
{
    unsigned bits = (unsigned)lookups[2], per_word = 64 / bits;
    lane_t lane = {block[k / per_word], (k % per_word) * bits,
                   bits >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << bits) - 1};
    return lane;
}

static inline uint64_t lane_read(lane_t lane, int r)
{
    return (lane.word[r] >> lane.shift) & lane.mask;
}

/* repro.indexing.gf2.ByteTables over a batch: index k of row r goes to
 * streams[k * n + r]. */
void gf2_gather(int64_t n, const uint64_t *lookups, uint64_t *streams)
{
    block_t block;
    int indices = (int)lookups[3];
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int k = 0; k < indices; k++) {
            lane_t lane = lane_at(lookups, block, k);
            for (int r = 0; r < rows; r++)
                streams[k * n + start + r] = lane_read(lane, r);
        }
    }
}

/* 2Bc-gskew's own slots, after its four bank blocks: the arbitration
 * outcomes, then the update arms of TwoBcGskewPredictor._train_partial
 * (named, in this order, by TwoBcGskewPredictor._SLOTS). */
enum { MAJORITY_CHOSEN, BIM_CHOSEN, BIM_CORRECT, MAJORITY_CORRECT,
       CHOSEN_CORRECT, UPDATE_SUPPRESSED, UPDATE_STRENGTHENED,
       UPDATE_CHOOSER_FIXED, UPDATE_FULL };

/* Which e-gskew banks of a 2Bc-gskew position train. */
enum { TRAIN_NONE, TRAIN_BIM, TRAIN_CORRECT, TRAIN_ALL };

/* bank_words: BIM, G0, G1, Meta.  The banks are spelled out one by one
 * rather than looped over: the compiler then keeps every index and read in
 * a register. */
void twobcgskew_replay(int64_t n, const uint64_t *lookups,
                       const uint8_t *takens, const uint64_t *bank_words,
                       int partial, uint8_t *predictions, uint64_t *counts)
{
    const bank_t bim = bank_at(bank_words, 0, counts);
    const bank_t g0 = bank_at(bank_words, 1, counts);
    const bank_t g1 = bank_at(bank_words, 2, counts);
    const bank_t meta = bank_at(bank_words, 3, counts);
    uint64_t *events = counts ? counts + 4 * BANK_SLOTS : NULL;
    block_t block;
    const lane_t bim_lane = lane_at(lookups, block, 0);
    const lane_t g0_lane = lane_at(lookups, block, 1);
    const lane_t g1_lane = lane_at(lookups, block, 2);
    const lane_t meta_lane = lane_at(lookups, block, 3);
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int r = 0; r < rows; r++) {
            int64_t i = start + r;
            uint64_t bi = masked(&bim, lane_read(bim_lane, r));
            uint64_t g0i = masked(&g0, lane_read(g0_lane, r));
            uint64_t g1i = masked(&g1, lane_read(g1_lane, r));
            uint64_t mi = masked(&meta, lane_read(meta_lane, r));
            unsigned taken = takens[i] != 0;
            unsigned p_bim = read(&bim, bi);
            unsigned p_g0 = read(&g0, g0i);
            unsigned p_g1 = read(&g1, g1i);
            unsigned use_majority = read(&meta, mi);
            unsigned majority = p_bim + p_g0 + p_g1 >= 2;
            unsigned overall = use_majority ? majority : p_bim;
            unsigned update, train;
            predictions[i] = (uint8_t)overall;
            if (!partial) {
                update = UPDATE_FULL;
                train = TRAIN_ALL;
                if (p_bim != majority)
                    step(&meta, mi, majority == taken);
            } else if (overall == taken) {
                if (p_bim == p_g0 && p_g0 == p_g1) {
                    update = UPDATE_SUPPRESSED;
                    train = TRAIN_NONE;
                } else {
                    update = UPDATE_STRENGTHENED;
                    train = use_majority ? TRAIN_CORRECT : TRAIN_BIM;
                    if (p_bim != majority)
                        step(&meta, mi, majority == taken);
                }
            } else {
                update = UPDATE_FULL;
                train = TRAIN_ALL;
                if (p_bim != majority) {
                    step(&meta, mi, majority == taken);
                    /* The chooser re-read after its update is update-time
                     * logic, not a fetch-port read (the scalar peek). */
                    unsigned new_use_majority = meta.prediction[mi];
                    if ((new_use_majority ? majority : p_bim) == taken) {
                        update = UPDATE_CHOOSER_FIXED;
                        train = new_use_majority ? TRAIN_CORRECT : TRAIN_BIM;
                    }
                }
            }
            unsigned correct_only = train == TRAIN_CORRECT;
            if (train != TRAIN_NONE && (!correct_only || p_bim == taken))
                step(&bim, bi, taken);
            if (train >= TRAIN_CORRECT && (!correct_only || p_g0 == taken))
                step(&g0, g0i, taken);
            if (train >= TRAIN_CORRECT && (!correct_only || p_g1 == taken))
                step(&g1, g1i, taken);
            if (events) {
                events[use_majority ? MAJORITY_CHOSEN : BIM_CHOSEN]++;
                events[BIM_CORRECT] += p_bim == taken;
                events[MAJORITY_CORRECT] += majority == taken;
                events[CHOSEN_CORRECT] += overall == taken;
                events[update]++;
            }
        }
    }
}

/* bank_words: one table (bimodal, gshare, GAs), any hysteresis sharing. */
void counter_replay(int64_t n, const uint64_t *lookups,
                    const uint8_t *takens, const uint64_t *bank_words,
                    uint8_t *predictions, uint64_t *counts)
{
    const bank_t bank = bank_at(bank_words, 0, counts);
    block_t block;
    const lane_t lane = lane_at(lookups, block, 0);
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int r = 0; r < rows; r++) {
            int64_t i = start + r;
            uint64_t index = masked(&bank, lane_read(lane, r));
            predictions[i] = (uint8_t)read(&bank, index);
            step(&bank, index, takens[i] != 0);
        }
    }
}

/* bank_words: BIM, G0, G1 (private hysteresis). */
void egskew_replay(int64_t n, const uint64_t *lookups,
                   const uint8_t *takens, const uint64_t *bank_words,
                   int partial, uint8_t *predictions, uint64_t *counts)
{
    const bank_t bim = bank_at(bank_words, 0, counts);
    const bank_t g0 = bank_at(bank_words, 1, counts);
    const bank_t g1 = bank_at(bank_words, 2, counts);
    block_t block;
    const lane_t bim_lane = lane_at(lookups, block, 0);
    const lane_t g0_lane = lane_at(lookups, block, 1);
    const lane_t g1_lane = lane_at(lookups, block, 2);
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int r = 0; r < rows; r++) {
            int64_t i = start + r;
            uint64_t bi = masked(&bim, lane_read(bim_lane, r));
            uint64_t g0i = masked(&g0, lane_read(g0_lane, r));
            uint64_t g1i = masked(&g1, lane_read(g1_lane, r));
            unsigned taken = takens[i] != 0;
            unsigned p_bim = read(&bim, bi);
            unsigned p_g0 = read(&g0, g0i);
            unsigned p_g1 = read(&g1, g1i);
            unsigned prediction = p_bim + p_g0 + p_g1 >= 2;
            predictions[i] = (uint8_t)prediction;
            /* A correct prediction under partial update strengthens only the
             * banks that voted with it; otherwise every bank steps. */
            unsigned every = !partial || prediction != taken;
            if (every || p_bim == taken)
                step(&bim, bi, taken);
            if (every || p_g0 == taken)
                step(&g0, g0i, taken);
            if (every || p_g1 == taken)
                step(&g1, g1i, taken);
        }
    }
}

/* bank_words: choice, not-taken direction table, taken direction table. */
void bimode_replay(int64_t n, const uint64_t *lookups,
                   const uint8_t *takens, const uint64_t *bank_words,
                   uint8_t *predictions, uint64_t *counts)
{
    bank_t banks[3];
    for (int b = 0; b < 3; b++)
        banks[b] = bank_at(bank_words, b, counts);
    const bank_t *choice = &banks[0];
    block_t block;
    const lane_t choice_lane = lane_at(lookups, block, 0);
    const lane_t direction_lane = lane_at(lookups, block, 1);
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int r = 0; r < rows; r++) {
            int64_t i = start + r;
            uint64_t ci = masked(choice, lane_read(choice_lane, r));
            unsigned taken = takens[i] != 0;
            unsigned c = read(choice, ci);
            const bank_t *direction = &banks[1 + c];
            uint64_t di = masked(direction, lane_read(direction_lane, r));
            unsigned prediction = read(direction, di);
            predictions[i] = (uint8_t)prediction;
            step(direction, di, taken);
            /* The choice erred but the stream did not: leave it alone. */
            if (!(c != taken && prediction == taken))
                step(choice, ci, taken);
        }
    }
}

static inline uint64_t load_tag(const void *tags, int width, uint64_t i)
{
    switch (width) {
    case 1: return ((const uint8_t *)tags)[i];
    case 2: return ((const uint16_t *)tags)[i];
    case 4: return ((const uint32_t *)tags)[i];
    default: return ((const uint64_t *)tags)[i];
    }
}

static inline void store_tag(void *tags, int width, uint64_t i, uint64_t tag)
{
    switch (width) {
    case 1: ((uint8_t *)tags)[i] = (uint8_t)tag; break;
    case 2: ((uint16_t *)tags)[i] = (uint16_t)tag; break;
    case 4: ((uint32_t *)tags)[i] = (uint32_t)tag; break;
    default: ((uint64_t *)tags)[i] = tag; break;
    }
}

/* One YAGS direction cache: its counters plus tag and valid buffers, tags
 * `tag_width` bytes wide (1, 2, 4 or 8).  Its tag side arrives as
 * TAG_WORDS words: the tag and valid buffer addresses and the tag width. */
typedef struct {
    bank_t counters;
    void *tags;
    uint8_t *valid;
    int tag_width;
} cache_t;

#define TAG_WORDS 3

/* bank_words: the choice table, the taken cache's counters, the not-taken
 * cache's; tag_words: the taken cache's tag side, the not-taken cache's. */
void yags_replay(int64_t n, const uint64_t *lookups, const uint8_t *takens,
                 const uint64_t *bank_words, const uint64_t *tag_words,
                 uint8_t *predictions, uint64_t *counts)
{
    const bank_t choice_bank = bank_at(bank_words, 0, counts);
    const bank_t *choice = &choice_bank;
    cache_t caches[2];
    for (int k = 0; k < 2; k++) {
        const uint64_t *words = tag_words + TAG_WORDS * k;
        caches[k].counters = bank_at(bank_words, 1 + k, counts);
        caches[k].tags = (void *)(uintptr_t)words[0];
        caches[k].valid = (uint8_t *)(uintptr_t)words[1];
        caches[k].tag_width = (int)words[2];
    }
    block_t block;
    const lane_t choice_lane = lane_at(lookups, block, 0);
    const lane_t cache_lane = lane_at(lookups, block, 1);
    const lane_t tag_lane = lane_at(lookups, block, 2);
    for (int64_t start = 0; start < n; start += GATHER_ROWS) {
        int rows = block_rows(n, start);
        gather_block(lookups, start, rows, block);
        for (int r = 0; r < rows; r++) {
            int64_t i = start + r;
            uint64_t ci = masked(choice, lane_read(choice_lane, r));
            unsigned taken = takens[i] != 0;
            unsigned c = read(choice, ci);
            /* A taken choice probes the not-taken cache, and vice versa. */
            const cache_t *cache = &caches[c];
            const bank_t *counters = &cache->counters;
            uint64_t xi = masked(counters, lane_read(cache_lane, r));
            uint64_t tag = lane_read(tag_lane, r);
            if (cache->valid[xi] && load_tag(cache->tags, cache->tag_width, xi)
                    == tag) {
                /* A tag hit reads the cache's counter. */
                unsigned prediction = read(counters, xi);
                predictions[i] = (uint8_t)prediction;
                step(counters, xi, taken);
                /* The cache corrected the bias: leave the choice alone. */
                if (!(c != taken && prediction == taken))
                    step(choice, ci, taken);
            } else {
                predictions[i] = (uint8_t)c;
                if (c != taken) {
                    /* Allocate the exception, weak towards the outcome. */
                    store_tag(cache->tags, cache->tag_width, xi, tag);
                    cache->valid[xi] = 1;
                    counters->prediction[xi] = (uint8_t)taken;
                    counters->hysteresis[xi & (counters->hysteresis_size - 1)]
                        = 0;
                }
                step(choice, ci, taken);
            }
        }
    }
}

/* ---- Trace-side materialization ------------------------------------------
 *
 * The front end's view of a trace (repro.traces.fetch.block_geometry) and
 * the columns of a materialized VectorBatch (repro.history.providers), each
 * one serial walk restating its scalar definition. */

/* repro.traces.model: instruction bytes and TerminatorKind values. */
#define INSTRUCTION_BYTES 4
#define KIND_FALLTHROUGH 0
#define KIND_CONDITIONAL 1
/* repro.traces.fetch.FETCH_BLOCK_BYTES, repro.history.lghist's
 * PATH_BIT_POSITION and the low bank seed bit of repro.ev8.banks. */
#define FETCH_BLOCK_BYTES 32
#define PATH_BIT_POSITION 4
#define BANK_BIT_LOW 5

/* repro.traces.fetch.block_geometry: build_fetch_blocks over `records`
 * basic-block executions, line for line.  A fetch block ends at an aligned
 * FETCH_BLOCK_BYTES boundary or on a taken terminator, and a trailing
 * partial block is flushed at the end.  Writes sizes[0] = fetch blocks and
 * sizes[1] = conditional branches; with `fill` it also writes, per branch,
 * its PC, outcome and fetch-block ordinal, and per block its start address
 * (arrays sized by a first, counting call). */
void fetch_geometry(int64_t records, const uint64_t *starts,
                    const uint16_t *counts, const uint8_t *kinds,
                    const uint8_t *takens, int fill, int64_t *sizes,
                    uint64_t *pcs, uint8_t *outcomes, int64_t *ordinals,
                    uint64_t *block_starts)
{
    int64_t blocks = 0, branches = 0;
    int open = 0;
    uint64_t block_start = 0;
    for (int64_t r = 0; r < records; r++) {
        uint64_t start = starts[r];
        uint64_t end = start + (uint64_t)counts[r] * INSTRUCTION_BYTES;
        unsigned kind = kinds[r], taken = takens[r] != 0;
        unsigned terminator_taken = kind == KIND_CONDITIONAL
            ? taken : kind != KIND_FALLTHROUGH;
        for (uint64_t pos = start; pos < end;) {
            if (!open) {
                open = 1;
                block_start = pos;
            }
            uint64_t boundary = (pos & ~(uint64_t)(FETCH_BLOCK_BYTES - 1))
                + FETCH_BLOCK_BYTES;
            uint64_t chunk_end = boundary < end ? boundary : end;
            int holds_terminator = chunk_end == end;
            if (holds_terminator && kind == KIND_CONDITIONAL) {
                if (fill) {
                    pcs[branches] = end - INSTRUCTION_BYTES;
                    outcomes[branches] = (uint8_t)taken;
                    ordinals[branches] = blocks;
                }
                branches++;
            }
            pos = chunk_end;
            if ((holds_terminator && terminator_taken)
                    || chunk_end == boundary) {
                if (fill)
                    block_starts[blocks] = block_start;
                blocks++;
                open = 0;
            }
        }
    }
    if (open) {
        if (fill)
            block_starts[blocks] = block_start;
        blocks++;
    }
    sizes[0] = blocks;
    sizes[1] = branches;
}

static inline uint64_t history_mask(int capacity)
{
    return capacity >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << capacity) - 1;
}

/* BranchGhistProvider's history column: branch i sees the outcomes of the
 * branches before it, shifted into a `capacity`-bit register (bit 0 the
 * youngest; GlobalHistoryRegister). */
void ghist_history(int64_t n, const uint8_t *takens, int capacity,
                   uint64_t *history)
{
    uint64_t mask = history_mask(capacity), value = 0;
    for (int64_t i = 0; i < n; i++) {
        history[i] = value;
        value = ((value << 1) | (takens[i] != 0)) & mask;
    }
}

/* BlockLghistProvider's history column (LghistRegister).  Every fetch
 * block holding a branch inserts one bit: its last branch's outcome, XOR
 * PC bit 4 with `include_path`.  The register's FIFO of `delay` pending
 * blocks shifts block a's bit in when block a + delay is pushed, so it is
 * visible from block a + delay + 1 on; blocks without branches hold a FIFO
 * slot but insert nothing, so they never appear here.  Branches of one
 * block share its history, since ordinals never decrease. */
void lghist_history(int64_t n, const uint64_t *pcs, const uint8_t *takens,
                    const int64_t *ordinals, int include_path, int64_t delay,
                    int capacity, uint64_t *history)
{
    uint64_t mask = history_mask(capacity), visible = 0;
    int64_t aged = 0; /* first branch of the next block to age in */
    for (int64_t i = 0; i < n;) {
        int64_t block = ordinals[i];
        while (aged < i && ordinals[aged] < block - delay) {
            int64_t last = aged;
            while (ordinals[last + 1] == ordinals[aged])
                last++;
            uint64_t bit = takens[last] != 0;
            if (include_path)
                bit ^= (pcs[last] >> PATH_BIT_POSITION) & 1;
            visible = ((visible << 1) | bit) & mask;
            aged = last + 1;
        }
        for (; i < n && ordinals[i] == block; i++)
            history[i] = visible;
    }
}

/* The per-branch block columns of a materialized batch: path row `age`
 * (row-major, depth x n) holds the start of the block age + 1 before the
 * branch's (0 before the first block; PathRegister), `address` the start of
 * its own block, and `bank` its block's bank number, the serial
 * repro.ev8.banks.bank_number rule from the architected start-up state
 * (BankNumberGenerator).  `address` and `bank` may be NULL. */
void block_columns(int64_t n, const int64_t *ordinals,
                   const uint64_t *block_starts, int64_t depth,
                   uint64_t *path, uint64_t *address, uint64_t *bank)
{
    uint64_t y = 0, z = 0, previous = 0;
    int64_t next = 0; /* the next block the bank stream reaches */
    for (int64_t i = 0; i < n; i++) {
        int64_t block = ordinals[i];
        for (int64_t age = 0; age < depth; age++) {
            int64_t source = block - 1 - age;
            path[age * n + i] = source >= 0 ? block_starts[source] : 0;
        }
        if (address)
            address[i] = block_starts[block];
        if (bank) {
            for (; next <= block; next++) {
                uint64_t seed = (y >> BANK_BIT_LOW) & 3;
                previous = seed == previous ? seed ^ 1 : seed;
                y = z;
                z = block_starts[next];
            }
            bank[i] = previous;
        }
    }
}
