/*
 * Native kernels of repro.graphs, built into one shared library by
 * repro.graphs._native on first use:
 *
 *   repro_wave_accumulate -- a fused multi-source BFS wave for exact path
 *                            metrics (repro.graphs.fast);
 *   repro_pair_stubs      -- one attempt of the k-regular pairing model
 *                            (repro.graphs.generators).
 *
 * Each returns exactly what its Python/numpy counterpart returns; those stay
 * the fallbacks and the differential oracles.
 *
 * Build: cc -O3 -shared -fPIC _native.c -o <name>.so
 */

/*
 * Fused bit-parallel multi-source BFS wave for exact path metrics.
 *
 * One call runs one whole wave: up to 64 * words BFS sources advance
 * together, source j owning bit (j % 64) of frontier word (j / 64) of every
 * node (the MS-BFS layout of Then et al., "The More the Merrier", VLDB
 * 2015).  Each level picks its direction from the live frontier (Beamer et
 * al., "Direction-Optimizing Breadth-First Search", SC 2012):
 *
 *   push -- when the frontier rows' edges times SPARSE_EDGE_DIVISOR fit in
 *           the edge count, OR each frontier row into its neighbours;
 *   pull -- otherwise every still-unsaturated row ORs its neighbours'
 *           frontier words into itself.
 *
 * The newly reached bits of row v at depth d are popcounted straight into
 * totals[v] += d * popcount and ecc[v] = max(ecc[v], d), the same int64
 * accumulators repro.graphs.fast.accumulate_path_shard builds with the
 * numpy engine.  Both engines visit the same (source, node) pairs at the
 * same depths, so the integers are identical.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SPARSE_EDGE_DIVISOR 12

/* stats[] slots filled for the caller's telemetry. */
enum { STAT_LEVELS, STAT_PUSH, STAT_PULL, STAT_FRONTIER_ROWS, STAT_COUNT };

static inline int64_t row_popcount(const uint64_t *row, int64_t words)
{
    int64_t count = 0;
    for (int64_t w = 0; w < words; w++)
        count += __builtin_popcountll(row[w]);
    return count;
}

static inline int row_is_zero(const uint64_t *row, int64_t words)
{
    for (int64_t w = 0; w < words; w++)
        if (row[w])
            return 0;
    return 1;
}

static inline int row_is_full(const uint64_t *row, const uint64_t *full, int64_t words)
{
    for (int64_t w = 0; w < words; w++)
        if (row[w] != full[w])
            return 0;
    return 1;
}

/* Inlined into repro_wave_accumulate per word count, so the auto width's
 * row loops compile with a constant trip count. */
static inline __attribute__((always_inline)) int wave(
    int64_t n, const int64_t *indptr, const int32_t *indices,
    const int64_t *sources, int64_t batch, int64_t words,
    int64_t *ecc, int64_t *totals, int64_t *stats)
{
    memset(stats, 0, STAT_COUNT * sizeof(int64_t));
    if (n <= 0 || batch <= 0)
        return 0;
    size_t cells = (size_t)n * (size_t)words;
    uint64_t *visited = calloc(cells, sizeof(uint64_t));
    uint64_t *frontier = calloc(cells, sizeof(uint64_t));
    uint64_t *next = calloc(cells, sizeof(uint64_t));
    int64_t *active = malloc((size_t)n * sizeof(int64_t));
    int64_t *reached = malloc((size_t)n * sizeof(int64_t));
    int64_t *unsat = malloc((size_t)n * sizeof(int64_t));
    uint64_t *full = malloc((size_t)words * sizeof(uint64_t));
    int status = -1;
    if (!visited || !frontier || !next || !active || !reached || !unsat || !full)
        goto done;

    for (int64_t w = 0; w < words; w++)
        full[w] = ~(uint64_t)0;
    if (batch % 64)
        full[words - 1] = ((uint64_t)1 << (batch % 64)) - 1;

    /* Level 0: every source row holds its own bit. */
    int64_t active_count = 0;
    for (int64_t j = 0; j < batch; j++) {
        int64_t s = sources[j];
        uint64_t *row = frontier + s * words;
        if (row_is_zero(row, words))
            active[active_count++] = s;
        row[j >> 6] |= (uint64_t)1 << (j & 63);
    }
    int64_t remaining = n * batch;
    for (int64_t i = 0; i < active_count; i++) {
        uint64_t *src = frontier + active[i] * words;
        memcpy(visited + active[i] * words, src, words * sizeof(uint64_t));
        remaining -= row_popcount(src, words);
    }

    const int64_t m = indptr[n];
    int64_t unsat_count = -1; /* -1: unsaturated list not built yet */
    int64_t depth = 0;
    while (remaining > 0) {
        int64_t frontier_edges = 0;
        for (int64_t i = 0; i < active_count; i++)
            frontier_edges += indptr[active[i] + 1] - indptr[active[i]];
        if (frontier_edges == 0)
            break;
        int64_t reached_count = 0;
        int push = frontier_edges * SPARSE_EDGE_DIVISOR <= m;
        if (push) {
            /* A touched row's word goes from zero to nonzero exactly once
             * (frontier rows are never zero), which dedups `reached`. */
            for (int64_t i = 0; i < active_count; i++) {
                int64_t u = active[i];
                const uint64_t *fu = frontier + u * words;
                for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
                    int64_t v = indices[e];
                    uint64_t *nv = next + v * words;
                    if (row_is_zero(nv, words))
                        reached[reached_count++] = v;
                    for (int64_t w = 0; w < words; w++)
                        nv[w] |= fu[w];
                }
            }
            /* Keep only unvisited bits; drop rows that gained none. */
            int64_t kept = 0;
            for (int64_t i = 0; i < reached_count; i++) {
                int64_t v = reached[i];
                uint64_t *nv = next + v * words;
                const uint64_t *vv = visited + v * words;
                uint64_t any = 0;
                for (int64_t w = 0; w < words; w++) {
                    nv[w] &= ~vv[w];
                    any |= nv[w];
                }
                if (any)
                    reached[kept++] = v;
            }
            reached_count = kept;
        } else {
            if (unsat_count < 0) {
                unsat_count = 0;
                for (int64_t v = 0; v < n; v++)
                    if (!row_is_full(visited + v * words, full, words))
                        unsat[unsat_count++] = v;
            }
            int64_t kept = 0;
            for (int64_t i = 0; i < unsat_count; i++) {
                int64_t v = unsat[i];
                const uint64_t *vv = visited + v * words;
                if (row_is_full(vv, full, words))
                    continue;
                unsat[kept++] = v;
                uint64_t *nv = next + v * words;
                for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                    const uint64_t *fu = frontier + (int64_t)indices[e] * words;
                    for (int64_t w = 0; w < words; w++)
                        nv[w] |= fu[w];
                }
                uint64_t any = 0;
                for (int64_t w = 0; w < words; w++) {
                    nv[w] &= ~vv[w];
                    any |= nv[w];
                }
                if (any)
                    reached[reached_count++] = v;
            }
            unsat_count = kept;
        }
        /* `next` now holds exactly the new frontier: retire the old one
         * and swap, so both buffers stay zero outside their live rows. */
        for (int64_t i = 0; i < active_count; i++)
            memset(frontier + active[i] * words, 0, words * sizeof(uint64_t));
        uint64_t *swap = frontier;
        frontier = next;
        next = swap;
        if (reached_count == 0)
            break;
        depth++;
        stats[STAT_LEVELS]++;
        stats[push ? STAT_PUSH : STAT_PULL]++;
        stats[STAT_FRONTIER_ROWS] += reached_count;
        for (int64_t i = 0; i < reached_count; i++) {
            int64_t v = reached[i];
            const uint64_t *fv = frontier + v * words;
            uint64_t *vv = visited + v * words;
            for (int64_t w = 0; w < words; w++)
                vv[w] |= fv[w];
            int64_t count = row_popcount(fv, words);
            totals[v] += depth * count;
            if (ecc && ecc[v] < depth)
                ecc[v] = depth;
            remaining -= count;
        }
        int64_t *rows = active;
        active = reached;
        reached = rows;
        active_count = reached_count;
    }
    status = 0;

done:
    free(visited);
    free(frontier);
    free(next);
    free(active);
    free(reached);
    free(unsat);
    free(full);
    return status;
}

/*
 * Runs the wave of `batch` sources (indices into the CSR, duplicates
 * allowed) and folds every level into ecc/totals (ecc may be NULL).
 * `words` must equal ceil(batch / 64).  Returns 0, or -1 when the work
 * buffers cannot be allocated (ecc/totals are then untouched).
 */
int repro_wave_accumulate(
    int64_t n, const int64_t *indptr, const int32_t *indices,
    const int64_t *sources, int64_t batch, int64_t words,
    int64_t *ecc, int64_t *totals, int64_t *stats)
{
    if (words == 4)
        return wave(n, indptr, indices, sources, batch, 4, ecc, totals, stats);
    return wave(n, indptr, indices, sources, batch, words, ecc, totals, stats);
}

/*
 * CPython's random.Random, word for word: the MT19937 generator of
 * Modules/_randommodule.c and the pure-Python helpers of Lib/random.py that
 * the pairing model calls.  The state is the one getstate() exposes: 624
 * words followed by the index of the next word to temper.
 */
enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} mt_state;

static uint32_t genrand_uint32(mt_state *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->index >= MT_N) {
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
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow_with_getrandbits(n) for 0 < n < 2**31: getrandbits(k)
 * with k = n.bit_length() <= 32 is the top k bits of one word. */
static uint32_t randbelow(mt_state *s, uint32_t n)
{
    int k = 32 - __builtin_clz(n);
    uint32_t r = genrand_uint32(s) >> (32 - k);
    while (r >= n)
        r = genrand_uint32(s) >> (32 - k);
    return r;
}

/* Index of the 0-based rank-th live slot of a Fenwick tree over 0/1 counts;
 * `high` is the largest power of two <= size. */
static int32_t fenwick_select(const int32_t *tree, int32_t size, int32_t high, int32_t rank)
{
    int32_t position = 0;
    for (int32_t step = high; step; step >>= 1) {
        int32_t next = position + step;
        if (next <= size && tree[next] <= rank) {
            position = next;
            rank -= tree[next];
        }
    }
    return position; /* 1-based position minus one: the slot index */
}

static void fenwick_remove(int32_t *tree, int32_t size, int32_t slot)
{
    for (int32_t i = slot + 1; i <= size; i += i & -i)
        tree[i]--;
}

/*
 * One attempt of repro.graphs.generators._try_pairing_model on nodes
 * 0..n-1: the stub list [0]*k + [1]*k + ... is shuffled, then each stub
 * popped off its end is matched to a uniformly drawn remaining stub, up to
 * len(stubs) draws, rejecting self-loops and repeated edges.  The RNG draws,
 * and so the graph, are the Python generator's exactly: stubs.pop(index)
 * becomes a Fenwick-tree select of the index-th live slot, and has_edge a
 * scan of the node's placed neighbours.
 *
 * `state` holds the 625 words of random.Random.getstate()[1] and is
 * advanced in place.  On success row u of `adjacency` (n x k) lists u's
 * neighbours in the order they were added.  Returns 0 on success, 1 when
 * the attempt gets stuck (the Python attempt's None), or -1 when it cannot
 * run -- 0 < k < n with n * k even and below 2**31 is violated, or the work
 * buffers cannot be allocated -- leaving state and adjacency untouched.
 */
int repro_pair_stubs(int64_t n, int64_t k, uint32_t *state, int32_t *adjacency)
{
    if (k <= 0 || n <= k || n * k > INT32_MAX || (n * k) % 2)
        return -1;
    const int32_t size = (int32_t)(n * k);
    int32_t *stubs = malloc((size_t)size * sizeof(int32_t));
    int32_t *tree = calloc((size_t)size + 1, sizeof(int32_t));
    int32_t *degree = calloc((size_t)n, sizeof(int32_t));
    if (!stubs || !tree || !degree) {
        free(stubs);
        free(tree);
        free(degree);
        return -1;
    }
    mt_state rng;
    memcpy(rng.mt, state, sizeof(rng.mt));
    rng.index = state[MT_N];

    for (int32_t i = 0; i < size; i++)
        stubs[i] = (int32_t)(i / k);
    for (int32_t i = size - 1; i > 0; i--) {
        int32_t j = (int32_t)randbelow(&rng, (uint32_t)i + 1);
        int32_t swap = stubs[i];
        stubs[i] = stubs[j];
        stubs[j] = swap;
    }
    /* Every slot live: tree[i] covers slots (i - lowbit(i), i].  A removed
     * stub's slot is set to -1. */
    for (int32_t i = 1; i <= size; i++)
        tree[i] = i & -i;
    int32_t high = 1;
    while (high <= size / 2)
        high <<= 1;

    int status = 0;
    int32_t remaining = size;
    int32_t top = size - 1; /* highest live slot */
    while (remaining > 0) {
        int32_t u = stubs[top];
        stubs[top] = -1;
        fenwick_remove(tree, size, top);
        remaining--;
        while (top > 0 && stubs[top] < 0)
            top--;
        int32_t *row_u = adjacency + (int64_t)u * k;
        int placed = 0;
        for (int32_t attempt = 0; attempt < remaining && !placed; attempt++) {
            int32_t slot = fenwick_select(tree, size, high,
                                          (int32_t)randbelow(&rng, (uint32_t)remaining));
            int32_t v = stubs[slot];
            if (v == u)
                continue;
            int duplicate = 0;
            for (int32_t e = 0; e < degree[u]; e++)
                if (row_u[e] == v) {
                    duplicate = 1;
                    break;
                }
            if (duplicate)
                continue;
            stubs[slot] = -1;
            fenwick_remove(tree, size, slot);
            remaining--;
            while (top > 0 && stubs[top] < 0)
                top--;
            row_u[degree[u]++] = v;
            adjacency[(int64_t)v * k + degree[v]++] = u;
            placed = 1;
        }
        if (!placed) {
            status = 1;
            break;
        }
    }
    memcpy(state, rng.mt, sizeof(rng.mt));
    state[MT_N] = rng.index;
    free(stubs);
    free(tree);
    free(degree);
    return status;
}
