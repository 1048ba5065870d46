/* Compiled predict-then-train replay kernels for every batched predictor:
 * the single-table ones (bimodal, gshare, GAs) and the update-coupled ones
 * (2Bc-gskew and the EV8 built on it, e-gskew, bi-mode and YAGS).
 *
 * Each kernel walks precomputed index streams in stream order and reads and
 * writes the predictor's own table buffers in place (the bytearray /
 * array.array buffers of repro.common.counters.SplitCounterArray and of the
 * YAGS tag caches), restating the scalar predict/update methods exactly.
 * Every index is masked with its table's size - 1, as the scalar predict and
 * update do.  Each position writes one event code: bit 0 is the prediction,
 * the rest records the arms the position took, so every telemetry counter is
 * a reduction over the codes (each kernel's layout is given above it).
 *
 * Built and loaded on first use by repro.kernels.
 */

#include <stdint.h>

/* The write arms of one saturating-counter update step (the branches of
 * SplitCounterArray._step_towards) plus "not updated"; must match ARM_* in
 * repro/common/counters.py. */
enum { ARM_ASSERT = 0, ARM_CLEAR = 1, ARM_FLIP = 2, ARM_NONE = 3 };

/* Set in a step's result when it wrote a hysteresis bit shared by
 * prediction entries whose direction bits disagree (Section 4.4). */
#define STEP_CONFLICT 4u

/* One SplitCounterArray: prediction and hysteresis bytes, both sizes powers
 * of two, hysteresis_size dividing size. */
typedef struct {
    uint8_t *prediction;
    uint8_t *hysteresis;
    uint64_t size;
    uint64_t hysteresis_size;
} bank_t;

/* A bank arrives as BANK_WORDS uint64 words: the prediction and hysteresis
 * buffer addresses, then the two sizes. */
#define BANK_WORDS 4

static bank_t bank_at(const uint64_t *words)
{
    bank_t bank = {(uint8_t *)(uintptr_t)words[0],
                   (uint8_t *)(uintptr_t)words[1], words[2], words[3]};
    return bank;
}

static inline uint64_t masked(const bank_t *bank, uint64_t index)
{
    return index & (bank->size - 1);
}

/* Whether the sharing group of hysteresis entry h holds disagreeing
 * direction bits. */
static inline unsigned sharing_conflict(const bank_t *bank, uint64_t h)
{
    uint64_t stride = bank->hysteresis_size;
    uint8_t first = bank->prediction[h];
    for (uint64_t other = h + stride; other < bank->size; other += stride)
        if (bank->prediction[other] != first)
            return STEP_CONFLICT;
    return 0;
}

/* One update step of counter `index` (already masked) towards `taken`:
 * SplitCounterArray._step_towards.  Returns the ARM_* taken, with
 * STEP_CONFLICT added for a conflicting shared hysteresis write.  A
 * strengthen of a counter that already points at `taken` is the same
 * step (ARM_ASSERT). */
static inline unsigned step(const bank_t *bank, uint64_t index,
                            unsigned taken)
{
    uint64_t h = index & (bank->hysteresis_size - 1);
    if (bank->prediction[index] == taken) {
        unsigned conflict = bank->hysteresis_size != bank->size
            ? sharing_conflict(bank, h) : 0;
        bank->hysteresis[h] = 1;
        return ARM_ASSERT | conflict;
    }
    if (bank->hysteresis[h]) {
        unsigned conflict = bank->hysteresis_size != bank->size
            ? sharing_conflict(bank, h) : 0;
        bank->hysteresis[h] = 0;
        return ARM_CLEAR | conflict;
    }
    bank->prediction[index] = (uint8_t)taken;
    return ARM_FLIP;
}

/* 2Bc-gskew update arms (TwoBcGskewPredictor._train_partial). */
enum { UPDATE_SUPPRESSED = 0, UPDATE_STRENGTHENED = 1,
       UPDATE_CHOOSER_FIXED = 2, UPDATE_FULL = 3 };

/* Which e-gskew banks of a 2Bc-gskew position train. */
enum { TRAIN_NONE, TRAIN_BIM, TRAIN_CORRECT, TRAIN_ALL };

/* Bank `b`'s step result in a 2Bc-gskew event code: its write arm in bits
 * 8 + 2b and 9 + 2b, its sharing-conflict bit in bit 16 + b. */
static inline uint32_t arm_bits(unsigned step_result, int b)
{
    return (uint32_t)(step_result & 3) << (8 + 2 * b)
        | (uint32_t)(step_result >> 2) << (16 + b);
}

/* bank_words: BIM, G0, G1, Meta.  Event code (uint32) per position:
 *   bit 0      the overall prediction
 *   bits 1-3   the BIM, G0 and G1 reads
 *   bit 4      the Meta read (1 = the majority is chosen)
 *   bit 5      the outcome
 *   bits 6-7   the update arm (UPDATE_*)
 *   bits 8-15  the write arm of BIM, G0, G1 and Meta, two bits each
 *   bits 16-19 the sharing-conflict bit of BIM, G0, G1 and Meta
 * The banks are spelled out one by one rather than looped over: the
 * compiler then keeps every index and read in a register. */
void twobcgskew_replay(int64_t n, const uint64_t *bim_idx,
                       const uint64_t *g0_idx, const uint64_t *g1_idx,
                       const uint64_t *meta_idx, const uint8_t *takens,
                       const uint64_t *bank_words, int partial,
                       uint32_t *codes)
{
    const bank_t bim = bank_at(bank_words);
    const bank_t g0 = bank_at(bank_words + BANK_WORDS);
    const bank_t g1 = bank_at(bank_words + 2 * BANK_WORDS);
    const bank_t meta = bank_at(bank_words + 3 * BANK_WORDS);
    for (int64_t i = 0; i < n; i++) {
        uint64_t bi = masked(&bim, bim_idx[i]);
        uint64_t g0i = masked(&g0, g0_idx[i]);
        uint64_t g1i = masked(&g1, g1_idx[i]);
        uint64_t mi = masked(&meta, meta_idx[i]);
        unsigned taken = takens[i] != 0;
        unsigned p_bim = bim.prediction[bi];
        unsigned p_g0 = g0.prediction[g0i];
        unsigned p_g1 = g1.prediction[g1i];
        unsigned use_majority = meta.prediction[mi];
        unsigned majority = p_bim + p_g0 + p_g1 >= 2;
        unsigned overall = use_majority ? majority : p_bim;
        unsigned update, train;
        uint32_t code = overall | p_bim << 1 | p_g0 << 2 | p_g1 << 3
            | use_majority << 4 | taken << 5;
        unsigned meta_step = ARM_NONE;
        if (!partial) {
            update = UPDATE_FULL;
            train = TRAIN_ALL;
            if (p_bim != majority)
                meta_step = step(&meta, mi, majority == taken);
        } else if (overall == taken) {
            if (p_bim == p_g0 && p_g0 == p_g1) {
                update = UPDATE_SUPPRESSED;
                train = TRAIN_NONE;
            } else {
                update = UPDATE_STRENGTHENED;
                train = use_majority ? TRAIN_CORRECT : TRAIN_BIM;
                if (p_bim != majority)
                    meta_step = step(&meta, mi, majority == taken);
            }
        } else {
            update = UPDATE_FULL;
            train = TRAIN_ALL;
            if (p_bim != majority) {
                meta_step = step(&meta, mi, majority == taken);
                /* The chooser re-read after its update. */
                unsigned new_use_majority = meta.prediction[mi];
                if ((new_use_majority ? majority : p_bim) == taken) {
                    update = UPDATE_CHOOSER_FIXED;
                    train = new_use_majority ? TRAIN_CORRECT : TRAIN_BIM;
                }
            }
        }
        unsigned correct_only = train == TRAIN_CORRECT;
        unsigned bim_step = ARM_NONE, g0_step = ARM_NONE, g1_step = ARM_NONE;
        if (train != TRAIN_NONE && (!correct_only || p_bim == taken))
            bim_step = step(&bim, bi, taken);
        if (train >= TRAIN_CORRECT && (!correct_only || p_g0 == taken))
            g0_step = step(&g0, g0i, taken);
        if (train >= TRAIN_CORRECT && (!correct_only || p_g1 == taken))
            g1_step = step(&g1, g1i, taken);
        codes[i] = code | update << 6 | arm_bits(bim_step, 0)
            | arm_bits(g0_step, 1) | arm_bits(g1_step, 2)
            | arm_bits(meta_step, 3);
    }
}

/* bank_words: one table (bimodal, gshare, GAs), any hysteresis sharing.
 * Event code (uint8) per position: bit 0 the prediction, bits 1-2 the write
 * arm, bit 3 the sharing-conflict bit. */
void counter_replay(int64_t n, const uint64_t *idx, const uint8_t *takens,
                    const uint64_t *bank_words, uint8_t *codes)
{
    const bank_t bank = bank_at(bank_words);
    for (int64_t i = 0; i < n; i++) {
        uint64_t index = masked(&bank, idx[i]);
        unsigned prediction = bank.prediction[index];
        codes[i] = (uint8_t)(prediction
                             | step(&bank, index, takens[i] != 0) << 1);
    }
}

/* bank_words: BIM, G0, G1 (private hysteresis).  Event code (uint8) per
 * position: bit 0 the prediction, then each bank's write arm in bits 1-2
 * (BIM), 3-4 (G0) and 5-6 (G1). */
void egskew_replay(int64_t n, const uint64_t *bim_idx,
                   const uint64_t *g0_idx, const uint64_t *g1_idx,
                   const uint8_t *takens, const uint64_t *bank_words,
                   int partial, uint8_t *codes)
{
    const bank_t bim = bank_at(bank_words);
    const bank_t g0 = bank_at(bank_words + BANK_WORDS);
    const bank_t g1 = bank_at(bank_words + 2 * BANK_WORDS);
    for (int64_t i = 0; i < n; i++) {
        uint64_t bi = masked(&bim, bim_idx[i]);
        uint64_t g0i = masked(&g0, g0_idx[i]);
        uint64_t g1i = masked(&g1, g1_idx[i]);
        unsigned taken = takens[i] != 0;
        unsigned p_bim = bim.prediction[bi];
        unsigned p_g0 = g0.prediction[g0i];
        unsigned p_g1 = g1.prediction[g1i];
        unsigned prediction = p_bim + p_g0 + p_g1 >= 2;
        /* A correct prediction under partial update strengthens only the
         * banks that voted with it; otherwise every bank steps. */
        unsigned every = !partial || prediction != taken;
        unsigned bim_arm = every || p_bim == taken
            ? step(&bim, bi, taken) & 3 : ARM_NONE;
        unsigned g0_arm = every || p_g0 == taken
            ? step(&g0, g0i, taken) & 3 : ARM_NONE;
        unsigned g1_arm = every || p_g1 == taken
            ? step(&g1, g1i, taken) & 3 : ARM_NONE;
        codes[i] = (uint8_t)(prediction | bim_arm << 1 | g0_arm << 3
                             | g1_arm << 5);
    }
}

/* bank_words: choice, not-taken direction table, taken direction table.  Event
 * code (uint8) per position: bit 0 the prediction, bit 1 the choice, bits
 * 2-3 the selected direction table's write arm, bits 4-5 the choice
 * table's. */
void bimode_replay(int64_t n, const uint64_t *choice_idx,
                   const uint64_t *direction_idx, const uint8_t *takens,
                   const uint64_t *bank_words, uint8_t *codes)
{
    bank_t banks[3];
    for (int b = 0; b < 3; b++)
        banks[b] = bank_at(bank_words + BANK_WORDS * b);
    const bank_t *choice = &banks[0];
    for (int64_t i = 0; i < n; i++) {
        uint64_t ci = masked(choice, choice_idx[i]);
        unsigned taken = takens[i] != 0;
        unsigned c = choice->prediction[ci];
        const bank_t *direction = &banks[1 + c];
        uint64_t di = masked(direction, direction_idx[i]);
        unsigned prediction = direction->prediction[di];
        unsigned direction_arm = step(direction, di, taken) & 3;
        /* The choice erred but the stream did not: leave it alone. */
        unsigned choice_arm = c != taken && prediction == taken
            ? ARM_NONE : step(choice, ci, taken) & 3;
        codes[i] = (uint8_t)(prediction | c << 1 | direction_arm << 2
                             | choice_arm << 4);
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
 * `tag_width` bytes wide (1, 2, 4 or 8).  It arrives as its counters' bank
 * words followed by the tag and valid buffer addresses and the tag width. */
typedef struct {
    bank_t counters;
    void *tags;
    uint8_t *valid;
    int tag_width;
} cache_t;

#define CACHE_WORDS (BANK_WORDS + 3)

/* bank_words: the choice table; cache_words: taken cache, not-taken cache.
 * Event code (uint8) per position: bit 0 the prediction, bit 1 the choice,
 * bit 2 a tag hit, bits 3-4 the probed cache's counter write arm (ARM_NONE
 * on a miss, which allocates iff the choice erred) and bits 5-6 the choice
 * table's. */
void yags_replay(int64_t n, const uint64_t *choice_idx,
                 const uint64_t *cache_idx, const uint64_t *tags,
                 const uint8_t *takens, const uint64_t *bank_words,
                 const uint64_t *cache_words, uint8_t *codes)
{
    bank_t choice_bank = bank_at(bank_words);
    const bank_t *choice = &choice_bank;
    cache_t caches[2];
    for (int k = 0; k < 2; k++) {
        const uint64_t *words = cache_words + CACHE_WORDS * k;
        caches[k].counters = bank_at(words);
        caches[k].tags = (void *)(uintptr_t)words[BANK_WORDS];
        caches[k].valid = (uint8_t *)(uintptr_t)words[BANK_WORDS + 1];
        caches[k].tag_width = (int)words[BANK_WORDS + 2];
    }
    for (int64_t i = 0; i < n; i++) {
        uint64_t ci = masked(choice, choice_idx[i]);
        unsigned taken = takens[i] != 0;
        unsigned c = choice->prediction[ci];
        /* A taken choice probes the not-taken cache, and vice versa. */
        const cache_t *cache = &caches[c];
        const bank_t *counters = &cache->counters;
        uint64_t xi = masked(counters, cache_idx[i]);
        uint64_t tag = tags[i];
        unsigned code, choice_arm;
        if (cache->valid[xi] && load_tag(cache->tags, cache->tag_width, xi)
                == tag) {
            unsigned prediction = counters->prediction[xi];
            code = prediction | 4 | (step(counters, xi, taken) & 3) << 3;
            /* The cache corrected the bias: leave the choice alone. */
            choice_arm = c != taken && prediction == taken
                ? ARM_NONE : step(choice, ci, taken) & 3;
        } else {
            code = c | ARM_NONE << 3;
            if (c != taken) {
                /* Allocate the exception, weak towards the outcome. */
                store_tag(cache->tags, cache->tag_width, xi, tag);
                cache->valid[xi] = 1;
                counters->prediction[xi] = (uint8_t)taken;
                counters->hysteresis[xi & (counters->hysteresis_size - 1)]
                    = 0;
            }
            choice_arm = step(choice, ci, taken) & 3;
        }
        codes[i] = (uint8_t)(code | c << 1 | choice_arm << 5);
    }
}
