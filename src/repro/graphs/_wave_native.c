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
 *
 * Build: cc -O3 -shared -fPIC _wave_native.c -o <name>.so
 * (repro.graphs._wave_native does this on first use).
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
