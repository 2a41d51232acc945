/*
 * Native interpreter of a MemoryPlan's linear program (repro.spn.native).
 *
 * The plan is walked over TILE-row tiles of the physical buffer: for every
 * tile, each kernel first encodes its fresh input rows straight from the
 * evidence and then computes its destination rows, one IEEE add or mul per
 * lane with the operand order of the NumPy executor.  A tile of the whole
 * buffer (n_physical x TILE doubles) stays cache-resident for the full
 * kernel list, which is what the NumPy loop over wide row blocks cannot do.
 *
 * Bit-identity with NumPy needs plain IEEE double arithmetic: build with
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math or
 * -Ofast (flush-to-zero and reassociation).  The Python side validates
 * every row reference once per plan; this file trusts the tables.
 */
#include <stdint.h>
#include <string.h>

#define TILE 32
#define ABI_VERSION 2

/* Per-kernel record fields of plan_t.kernels (n_kernels x K_FIELDS). */
enum {
    K_MUL, K_DEST, K_WIDTH,
    K_CONST0, K_OFF0, K_CONST1, K_OFF1,
    K_IND_LO, K_IND_HI, K_CONST_LO, K_CONST_HI,
    K_FIELDS
};

typedef struct {
    int64_t n_kernels;
    const int64_t *kernels;
    const int64_t *rows0;
    const int64_t *rows1;
    const double *const0;
    const double *const1;
    const int64_t *ind_rows;
    const int64_t *ind_vars;
    const int64_t *ind_values;
    const int64_t *const_rows;
    const double *const_probs;
    int64_t n_physical;
    int64_t root_phys;
} plan_t;

/* Evidence: a C-contiguous int64 (n_rows x n_cols) block. */
typedef struct {
    const int64_t *base;
    int64_t n_cols;
} evidence_t;

int repro_plan_kernel_abi(void) { return ABI_VERSION; }

int repro_plan_tile_rows(void) { return TILE; }

/* Indicator encoding: hit when the value is unobserved (negative), equals
 * the indicator's value, or the variable has no column at all. */
static void encode(const plan_t *p, int64_t lo, int64_t hi,
                   const evidence_t *ev, int64_t r0, int n, double *tile)
{
    for (int64_t e = lo; e < hi; ++e) {
        double *dst = tile + p->ind_rows[e] * TILE;
        const int64_t var = p->ind_vars[e];
        const int64_t value = p->ind_values[e];
        if (var >= ev->n_cols) {
            for (int r = 0; r < n; ++r) dst[r] = 1.0;
            continue;
        }
        const int64_t *cell = ev->base + r0 * ev->n_cols + var;
        for (int r = 0; r < n; ++r) {
            const int64_t x = cell[r * ev->n_cols];
            dst[r] = (x < 0 || x == value) ? 1.0 : 0.0;
        }
    }
}

/* One kernel's lanes over n rows; OP is + or *.  An operand is a tile row
 * (ROW: a restrict pointer, since no kernel reads its own destination rows)
 * or a broadcast constant (CONST: one scalar per lane). */
#define ROW(rows, k) const double *restrict x##k = tile + rows[j] * TILE;
#define CONST(values, k) const double x##k = values[j];
#define AT_ROW(k) x##k[r]
#define AT_CONST(k) x##k

#define LANES(OP, LOAD0, SRC0, AT0, LOAD1, SRC1, AT1)                        \
    for (int64_t j = 0; j < width; ++j) {                                     \
        double *restrict d = dest + j * TILE;                                 \
        LOAD0(SRC0, 0)                                                        \
        LOAD1(SRC1, 1)                                                        \
        for (int r = 0; r < n; ++r) d[r] = AT0(0) OP AT1(1);                  \
    }

#define KERNEL(OP)                                                           \
    if (!c0 && !c1) {                                                         \
        LANES(OP, ROW, rows0, AT_ROW, ROW, rows1, AT_ROW)                     \
    } else if (c0 && !c1) {                                                   \
        LANES(OP, CONST, k0, AT_CONST, ROW, rows1, AT_ROW)                    \
    } else if (!c0 && c1) {                                                   \
        LANES(OP, ROW, rows0, AT_ROW, CONST, k1, AT_CONST)                    \
    } else {                                                                  \
        LANES(OP, CONST, k0, AT_CONST, CONST, k1, AT_CONST)                   \
    }

/* The whole kernel list over one tile of n <= TILE rows.  Always inlined so
 * the full-tile call site compiles with n fixed at TILE. */
static inline __attribute__((always_inline)) void
run_tile(const plan_t *p, const evidence_t *ev, int64_t r0, int n,
         double *tile)
{
    for (int64_t k = 0; k < p->n_kernels; ++k) {
        const int64_t *rec = p->kernels + k * K_FIELDS;
        if (rec[K_IND_HI] > rec[K_IND_LO])
            encode(p, rec[K_IND_LO], rec[K_IND_HI], ev, r0, n, tile);
        for (int64_t e = rec[K_CONST_LO]; e < rec[K_CONST_HI]; ++e) {
            double *dst = tile + p->const_rows[e] * TILE;
            const double prob = p->const_probs[e];
            for (int r = 0; r < n; ++r) dst[r] = prob;
        }
        const int64_t width = rec[K_WIDTH];
        double *dest = tile + rec[K_DEST] * TILE;
        const int c0 = rec[K_CONST0] != 0, c1 = rec[K_CONST1] != 0;
        const int64_t *rows0 = c0 ? NULL : p->rows0 + rec[K_OFF0];
        const int64_t *rows1 = c1 ? NULL : p->rows1 + rec[K_OFF1];
        const double *k0 = c0 ? p->const0 + rec[K_OFF0] : NULL;
        const double *k1 = c1 ? p->const1 + rec[K_OFF1] : NULL;
        if (rec[K_MUL]) {
            KERNEL(*)
        } else {
            KERNEL(+)
        }
    }
}

/* Run the plan's linear program over n_rows evidence rows into out.
 * tile holds n_physical * TILE doubles (the caller's per-thread buffer). */
void repro_run_plan(const plan_t *p, const int64_t *data, int64_t n_rows,
                    int64_t n_cols, double *tile, double *out)
{
    const evidence_t ev = {data, n_cols};
    const double *root = tile + p->root_phys * TILE;
    int64_t r0 = 0;
    for (; r0 + TILE <= n_rows; r0 += TILE) {
        run_tile(p, &ev, r0, TILE, tile);
        memcpy(out + r0, root, TILE * sizeof(double));
    }
    if (r0 < n_rows) {
        const int n = (int)(n_rows - r0);
        run_tile(p, &ev, r0, n, tile);
        memcpy(out + r0, root, (size_t)n * sizeof(double));
    }
}
