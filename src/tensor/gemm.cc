#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "common/parallel.h"
#include "common/scratch_arena.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MLPERF_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace mlperf {
namespace tensor {

namespace {

/**
 * Blocking parameters (BLIS-style). The micro-kernel computes a
 * kMr x kNr tile of C held entirely in registers; 6x16 maps onto the
 * 16 AVX2 vector registers (12 fp32x8 accumulators + 2 B vectors +
 * 1 A broadcast). Panels of A (kMc x kKc) and B (kKc x kNc) are
 * repacked k-major so the micro-kernel streams both operands with
 * unit stride: one B micro-panel (kKc x kNr = 16 KiB) stays in L1
 * while an A panel (kMc x kKc = 96 KiB) sits in L2.
 */
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
constexpr int64_t kMc = 96;   // multiple of kMr; A panel ~96 KiB
constexpr int64_t kNc = 512;  // multiple of kNr
constexpr int64_t kKc = 256;

/** Below this many multiply-adds the packing overhead dominates. */
constexpr int64_t kSmallMacs = 48 * 48 * 48;

/** Below this many multiply-adds fork-join overhead dominates. */
constexpr int64_t kParallelMacs = int64_t{1} << 21;

int64_t
roundUp(int64_t v, int64_t a)
{
    return (v + a - 1) / a * a;
}

/**
 * Pack an mc x kc block of A (row stride lda) into micro-panels of
 * kMr rows, k-major within each panel: dst[(ip*kc + kk)*kMr + r] =
 * A[ip*kMr + r][kk]. Rows past mc are zero-filled so the micro-kernel
 * never branches on M.
 */
void
packA(const float *a, int64_t lda, int64_t mc, int64_t kc, float *dst)
{
    for (int64_t ip = 0; ip < mc; ip += kMr) {
        const int64_t rows = std::min(kMr, mc - ip);
        for (int64_t kk = 0; kk < kc; ++kk) {
            for (int64_t r = 0; r < rows; ++r)
                dst[kk * kMr + r] = a[(ip + r) * lda + kk];
            for (int64_t r = rows; r < kMr; ++r)
                dst[kk * kMr + r] = 0.0f;
        }
        dst += kc * kMr;
    }
}

/**
 * Pack a kc x nc block of B (row stride ldb; transposed storage when
 * b_trans) into micro-panels of kNr columns, k-major:
 * dst[(jp*kc + kk)*kNr + c] = B[kk][jp*kNr + c]. Columns past nc are
 * zero-filled.
 */
void
packB(const float *b, int64_t ldb, int64_t kc, int64_t nc, bool b_trans,
      float *dst)
{
    for (int64_t jp = 0; jp < nc; jp += kNr) {
        const int64_t cols = std::min(kNr, nc - jp);
        for (int64_t kk = 0; kk < kc; ++kk) {
            if (b_trans) {
                for (int64_t c = 0; c < cols; ++c)
                    dst[kk * kNr + c] = b[(jp + c) * ldb + kk];
            } else {
                const float *row = b + kk * ldb + jp;
                for (int64_t c = 0; c < cols; ++c)
                    dst[kk * kNr + c] = row[c];
            }
            for (int64_t c = cols; c < kNr; ++c)
                dst[kk * kNr + c] = 0.0f;
        }
        dst += kc * kNr;
    }
}

/**
 * C[0:kMr, 0:kNr] += packed A micro-panel * packed B micro-panel.
 * One signature, two bodies selected at startup: a portable
 * auto-vectorized kernel and an AVX2+FMA kernel whose 12 fp32x8
 * accumulators live in ymm registers for the whole k loop.
 */
using MicroKernelFn = void (*)(int64_t kc, const float *ap,
                               const float *bp, float *c, int64_t ldc);

void
microKernelGeneric(int64_t kc, const float *__restrict ap,
                   const float *__restrict bp, float *__restrict c,
                   int64_t ldc)
{
    float acc[kMr][kNr] = {};
    for (int64_t kk = 0; kk < kc; ++kk) {
        const float *__restrict a_col = ap + kk * kMr;
        const float *__restrict b_row = bp + kk * kNr;
        for (int64_t r = 0; r < kMr; ++r) {
            const float a = a_col[r];
            for (int64_t j = 0; j < kNr; ++j)
                acc[r][j] += a * b_row[j];
        }
    }
    for (int64_t r = 0; r < kMr; ++r)
        for (int64_t j = 0; j < kNr; ++j)
            c[r * ldc + j] += acc[r][j];
}

#if MLPERF_GEMM_X86_DISPATCH
__attribute__((target("avx2,fma"))) void
microKernelAvx2(int64_t kc, const float *__restrict ap,
                const float *__restrict bp, float *__restrict c,
                int64_t ldc)
{
    __m256 acc0[kMr], acc1[kMr];
    for (int64_t r = 0; r < kMr; ++r) {
        acc0[r] = _mm256_setzero_ps();
        acc1[r] = _mm256_setzero_ps();
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
        const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
        const float *a_col = ap + kk * kMr;
        for (int64_t r = 0; r < kMr; ++r) {
            const __m256 av = _mm256_broadcast_ss(a_col + r);
            acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
            acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
        }
    }
    for (int64_t r = 0; r < kMr; ++r) {
        float *c_row = c + r * ldc;
        _mm256_storeu_ps(
            c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc0[r]));
        _mm256_storeu_ps(c_row + 8,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + 8),
                                       acc1[r]));
    }
}
#endif

/** Resolved once at startup from CPUID; every thread and every thread
 *  count uses the same kernel, so results are bit-reproducible. */
MicroKernelFn
resolveMicroKernel()
{
#if MLPERF_GEMM_X86_DISPATCH
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return microKernelAvx2;
#endif
    return microKernelGeneric;
}

const MicroKernelFn kMicroKernel = resolveMicroKernel();

/** Edge variant: full tile into a local buffer, then add the valid
 *  mr x nr corner to C. */
void
microKernelEdge(int64_t kc, const float *ap, const float *bp, float *c,
                int64_t ldc, int64_t mr, int64_t nr)
{
    float tmp[kMr * kNr];
    std::memset(tmp, 0, sizeof(tmp));
    kMicroKernel(kc, ap, bp, tmp, kNr);
    for (int64_t r = 0; r < mr; ++r)
        for (int64_t j = 0; j < nr; ++j)
            c[r * ldc + j] += tmp[r * kNr + j];
}

/**
 * C[0:MR, 0:panels*kNr] += A rows (read in place, row stride lda) *
 * @p panels consecutive packed B micro-panels: the rows left below
 * the last full kMr panel of a block. Each row runs the FMA chain of
 * its row in microKernelAvx2 (same operands, same k order) and ends
 * with the same c += acc, so a row's result does not depend on
 * whether it was packed into a full panel or handled here — and the
 * rows need no packA, which at m = 1 (a decode step's GEMV) costs
 * more than the arithmetic. With few rows there are too few FMA
 * chains to hide the FMA latency, so a tile interleaves the chains of
 * several panels; that changes the schedule, not any chain.
 */
using RowTailFn = void (*)(int64_t kc, const float *a, int64_t lda,
                           const float *bp, int64_t panels, float *c,
                           int64_t ldc);

#if MLPERF_GEMM_X86_DISPATCH
/** C[0:MR, 0:NP*kNr] += A rows * NP packed B micro-panels. */
template <int MR, int NP>
__attribute__((target("avx2,fma"), always_inline)) inline void
rowTailTile(int64_t kc, const float *__restrict a, int64_t lda,
            const float *__restrict bp, float *__restrict c,
            int64_t ldc)
{
    const int64_t panel = kc * kNr;
    __m256 acc[NP][MR][2];
    for (int p = 0; p < NP; ++p) {
        for (int r = 0; r < MR; ++r) {
            acc[p][r][0] = _mm256_setzero_ps();
            acc[p][r][1] = _mm256_setzero_ps();
        }
    }
    for (int64_t kk = 0; kk < kc; ++kk) {
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_broadcast_ss(a + r * lda + kk);
            for (int p = 0; p < NP; ++p) {
                const float *b_row = bp + p * panel + kk * kNr;
                acc[p][r][0] = _mm256_fmadd_ps(
                    av, _mm256_loadu_ps(b_row), acc[p][r][0]);
                acc[p][r][1] = _mm256_fmadd_ps(
                    av, _mm256_loadu_ps(b_row + 8), acc[p][r][1]);
            }
        }
    }
    for (int p = 0; p < NP; ++p) {
        for (int r = 0; r < MR; ++r) {
            float *c_row = c + r * ldc + p * kNr;
            _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row),
                                                  acc[p][r][0]));
            _mm256_storeu_ps(
                c_row + 8,
                _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc[p][r][1]));
        }
    }
}

template <int MR>
__attribute__((target("avx2,fma"))) void
rowTailAvx2(int64_t kc, const float *a, int64_t lda, const float *bp,
            int64_t panels, float *c, int64_t ldc)
{
    // At least 8 independent chains where the registers allow it.
    constexpr int kGroup = MR >= 4 ? 1 : 4 / MR;
    int64_t p = 0;
    for (; p + kGroup <= panels; p += kGroup)
        rowTailTile<MR, kGroup>(kc, a, lda, bp + p * kc * kNr,
                                c + p * kNr, ldc);
    for (; p < panels; ++p)
        rowTailTile<MR, 1>(kc, a, lda, bp + p * kc * kNr, c + p * kNr,
                           ldc);
}
#endif

/** Row-tail kernels indexed by row count 1..kMr-1. All null with the
 *  portable micro-kernel: its tails go through packA and
 *  microKernelEdge instead, the only way to match it bit for bit. */
struct RowTailKernels
{
    RowTailFn fn[kMr] = {};
};

RowTailKernels
resolveRowTailKernels()
{
    static_assert(kMr == 6, "one row-tail kernel per row count");
    RowTailKernels k;
#if MLPERF_GEMM_X86_DISPATCH
    if (kMicroKernel == microKernelAvx2) {
        k.fn[1] = rowTailAvx2<1>;
        k.fn[2] = rowTailAvx2<2>;
        k.fn[3] = rowTailAvx2<3>;
        k.fn[4] = rowTailAvx2<4>;
        k.fn[5] = rowTailAvx2<5>;
    }
#endif
    return k;
}

const RowTailKernels kRowTail = resolveRowTailKernels();

/** Simple accumulating kernel for shapes too small to repack. */
void
gemmSmall(const float *a, const float *b, float *c,
          int64_t m, int64_t n, int64_t k, bool b_trans)
{
    for (int64_t i = 0; i < m; ++i) {
        float *c_row = c + i * n;
        if (b_trans) {
            const float *a_row = a + i * k;
            for (int64_t j = 0; j < n; ++j) {
                const float *b_row = b + j * k;
                float acc = 0.0f;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc += a_row[kk] * b_row[kk];
                c_row[j] += acc;
            }
        } else {
            for (int64_t kk = 0; kk < k; ++kk) {
                const float a_ik = a[i * k + kk];
                const float *b_row = b + kk * n;
                for (int64_t j = 0; j < n; ++j)
                    c_row[j] += a_ik * b_row[j];
            }
        }
    }
}

/**
 * Apply the fused epilogue to the valid mr x nr corner of a just-
 * completed C tile (row stride ldc). Runs right after the last
 * k-block's micro-kernel call, so the tile is still in L1.
 */
void
applyEpilogueTile(float *c, int64_t ldc, int64_t mr, int64_t nr,
                  int64_t row0, int64_t col0, const GemmEpilogue &ep)
{
    for (int64_t r = 0; r < mr; ++r) {
        float *row = c + r * ldc;
        if (ep.bias != nullptr) {
            if (ep.biasPerRow) {
                const float b = ep.bias[row0 + r];
                for (int64_t j = 0; j < nr; ++j)
                    row[j] += b;
            } else {
                const float *b = ep.bias + col0;
                for (int64_t j = 0; j < nr; ++j)
                    row[j] += b[j];
            }
        }
        if (ep.relu) {
            for (int64_t j = 0; j < nr; ++j)
                row[j] = row[j] < 0.0f ? 0.0f : row[j];
        }
    }
}

/**
 * C block (mc x nc, row stride ldc) += A block (mc x kc, row stride
 * lda) * one packed B block, then the epilogue (when given) on each
 * finished tile. Full kMr-row panels are packed into @p apack
 * (roundUp(mc, kMr) * kc floats) for the micro-kernel; the mc % kMr
 * rows below them go to the row-tail kernel when there is one, so a
 * block of fewer than kMr rows packs nothing. @p row0 / @p col0 place
 * the block in C for per-row / per-column bias.
 */
void
multiplyBlock(const float *a, int64_t lda, int64_t mc, int64_t kc,
              const float *bpack, int64_t nc, float *c, int64_t ldc,
              float *apack, const GemmEpilogue *epilogue, int64_t row0,
              int64_t col0)
{
    const int64_t tail = mc % kMr;
    const RowTailFn row_tail = kRowTail.fn[tail];
    const int64_t packed_rows = row_tail != nullptr ? mc - tail : mc;
    if (packed_rows > 0) {
        packA(a, lda, packed_rows, kc, apack);
        for (int64_t jr = 0; jr < nc; jr += kNr) {
            const float *bp = bpack + jr * kc;
            const int64_t nr = std::min(kNr, nc - jr);
            for (int64_t ir = 0; ir < packed_rows; ir += kMr) {
                float *c_tile = c + ir * ldc + jr;
                const int64_t mr = std::min(kMr, packed_rows - ir);
                if (mr == kMr && nr == kNr)
                    kMicroKernel(kc, apack + ir * kc, bp, c_tile, ldc);
                else
                    microKernelEdge(kc, apack + ir * kc, bp, c_tile,
                                    ldc, mr, nr);
                if (epilogue != nullptr)
                    applyEpilogueTile(c_tile, ldc, mr, nr, row0 + ir,
                                      col0 + jr, *epilogue);
            }
        }
    }
    if (packed_rows == mc)
        return;

    const float *a_tail = a + packed_rows * lda;
    float *c_tail = c + packed_rows * ldc;
    const int64_t full_panels = nc / kNr;
    row_tail(kc, a_tail, lda, bpack, full_panels, c_tail, ldc);
    if (const int64_t nr = nc % kNr; nr != 0) {
        // Same full-tile-then-corner add as microKernelEdge; B's
        // zero-padded columns make the full-width read safe.
        const int64_t jr = full_panels * kNr;
        float tmp[kMr * kNr];
        std::memset(tmp, 0, sizeof(tmp));
        row_tail(kc, a_tail, lda, bpack + jr * kc, 1, tmp, kNr);
        for (int64_t r = 0; r < tail; ++r)
            for (int64_t j = 0; j < nr; ++j)
                c_tail[r * ldc + jr + j] += tmp[r * kNr + j];
    }
    if (epilogue != nullptr)
        applyEpilogueTile(c_tail, ldc, tail, nc, row0 + packed_rows, col0,
                          *epilogue);
}

/**
 * Packed, cache-blocked, optionally parallel SGEMM core. C must
 * already hold the accumulation base (zeros unless accumulating).
 * When b_trans, B is stored [n x k] row-major (a dense layer's
 * weight) and packB absorbs the transpose.
 */
void
gemmPacked(const float *a, const float *b, float *c,
           int64_t m, int64_t n, int64_t k, bool b_trans)
{
    const int64_t ldb = b_trans ? k : n;
    const bool parallel = m * n * k >= kParallelMacs &&
                          !ThreadPool::inWorker();

    ScratchArena &arena = ScratchArena::thread();
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            ScratchFrame frame(arena);
            float *bpack = arena.alloc<float>(roundUp(nc, kNr) * kc);
            const float *b_block =
                b_trans ? b + jc * ldb + pc : b + pc * ldb + jc;
            packB(b_block, ldb, kc, nc, b_trans, bpack);

            auto m_block = [&](int64_t block_begin, int64_t block_end) {
                ScratchArena &worker_arena = ScratchArena::thread();
                ScratchFrame worker_frame(worker_arena);
                float *apack = worker_arena.alloc<float>(
                    roundUp(std::min(kMc, m), kMr) * kc);
                for (int64_t bi = block_begin; bi < block_end; ++bi) {
                    const int64_t ic = bi * kMc;
                    multiplyBlock(a + ic * k + pc, k,
                                  std::min(kMc, m - ic), kc, bpack, nc,
                                  c + ic * n + jc, n, apack, nullptr,
                                  ic, jc);
                }
            };

            const int64_t m_blocks = (m + kMc - 1) / kMc;
            if (parallel)
                parallelFor(0, m_blocks, 1, m_block);
            else
                m_block(0, m_blocks);
        }
    }
}

/** 64-byte-aligned allocation for a PackedMatrix of @p floats. */
float *
allocPacked(int64_t floats, int64_t *bytes_out)
{
    const size_t bytes =
        (static_cast<size_t>(floats) * sizeof(float) + 63) / 64 * 64;
    float *raw = static_cast<float *>(std::aligned_alloc(64, bytes));
    assert(raw != nullptr);
    *bytes_out = static_cast<int64_t>(bytes);
    return raw;
}

/** Dispatch: zero C unless accumulating, then small or packed path. */
void
gemmImpl(const float *a, const float *b, float *c,
         int64_t m, int64_t n, int64_t k, bool accumulate, bool b_trans)
{
    if (!accumulate)
        std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    if (m * n * k < kSmallMacs)
        gemmSmall(a, b, c, m, n, k, b_trans);
    else
        gemmPacked(a, b, c, m, n, k, b_trans);
}

} // namespace

void
gemm(const float *a, const float *b, float *c,
     int64_t m, int64_t n, int64_t k, bool accumulate)
{
    gemmImpl(a, b, c, m, n, k, accumulate, /*b_trans=*/false);
}

bool
gemmUsesSmallPath(int64_t m, int64_t n, int64_t k)
{
    return m * n * k < kSmallMacs;
}

void
gemmNaive(const float *a, const float *b, float *c,
          int64_t m, int64_t n, int64_t k, bool accumulate)
{
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double acc = accumulate
                             ? static_cast<double>(c[i * n + j])
                             : 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a[i * k + kk]) *
                       b[kk * n + j];
            c[i * n + j] = static_cast<float>(acc);
        }
    }
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    assert(a.shape().rank() == 2 && b.shape().rank() == 2);
    const int64_t m = a.shape().dim(0);
    const int64_t k = a.shape().dim(1);
    assert(b.shape().dim(0) == k);
    const int64_t n = b.shape().dim(1);
    Tensor c(Shape{m, n});
    gemm(a.data(), b.data(), c.data(), m, n, k);
    return c;
}

void
denseForward(const float *w, const float *bias, const float *x,
             float *y, int64_t batch, int64_t in, int64_t out)
{
    // y = x * W^T: the packed kernel absorbs the transpose while
    // packing B panels, so the dense layer shares the GEMM fast path.
    std::memset(y, 0,
                static_cast<size_t>(batch * out) * sizeof(float));
    if (batch * out * in < kSmallMacs)
        gemmSmall(x, w, y, batch, out, in, /*b_trans=*/true);
    else
        gemmPacked(x, w, y, batch, out, in, /*b_trans=*/true);
    if (bias) {
        for (int64_t bi = 0; bi < batch; ++bi) {
            float *y_row = y + bi * out;
            for (int64_t o = 0; o < out; ++o)
                y_row[o] += bias[o];
        }
    }
}

// ------------------------------------------------ prepacked constants

PackedMatrix
packMatrixA(const float *a, int64_t m, int64_t k)
{
    PackedMatrix p;
    p.rows_ = m;
    p.cols_ = k;
    p.aSide_ = true;

    // Blocks laid out in the consume order of gemmPrepackedA's k loop:
    // pc-major, then ic. Each block holds packA's micro-panels.
    int64_t floats = 0;
    for (int64_t pc = 0; pc < k; pc += kKc) {
        const int64_t kc = std::min(kKc, k - pc);
        for (int64_t ic = 0; ic < m; ic += kMc) {
            const int64_t mc = std::min(kMc, m - ic);
            p.blockOffsets_.push_back(floats);
            floats += roundUp(mc, kMr) * kc;
        }
    }
    float *raw = allocPacked(floats, &p.bytes_);
    p.data_ = std::unique_ptr<float, void (*)(void *)>(raw, std::free);

    size_t block = 0;
    for (int64_t pc = 0; pc < k; pc += kKc) {
        const int64_t kc = std::min(kKc, k - pc);
        for (int64_t ic = 0; ic < m; ic += kMc) {
            const int64_t mc = std::min(kMc, m - ic);
            packA(a + ic * k + pc, k, mc, kc,
                  raw + p.blockOffsets_[block++]);
        }
    }
    return p;
}

PackedMatrix
packMatrixB(const float *b, int64_t k, int64_t n, bool b_trans)
{
    PackedMatrix p;
    p.rows_ = k;
    p.cols_ = n;
    p.aSide_ = false;
    const int64_t ldb = b_trans ? k : n;

    // Blocks in the consume order of gemmPrepacked: jc-major, then pc.
    int64_t floats = 0;
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            p.blockOffsets_.push_back(floats);
            floats += roundUp(nc, kNr) * kc;
        }
    }
    float *raw = allocPacked(floats, &p.bytes_);
    p.data_ = std::unique_ptr<float, void (*)(void *)>(raw, std::free);

    size_t block = 0;
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            const float *b_block =
                b_trans ? b + jc * ldb + pc : b + pc * ldb + jc;
            packB(b_block, ldb, kc, nc, b_trans,
                  raw + p.blockOffsets_[block++]);
        }
    }
    return p;
}

void
gemmPrepacked(const float *a, const PackedMatrix &b, float *c,
              int64_t m, int64_t n, int64_t k,
              const GemmEpilogue &epilogue)
{
    assert(!b.aSide_ && b.rows_ == k && b.cols_ == n);
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    const bool parallel =
        m * n * k >= kParallelMacs && !ThreadPool::inWorker();
    const float *bdata = b.data_.get();

    size_t block = 0;
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            const float *bpack = bdata + b.blockOffsets_[block++];
            const bool last_k = pc + kc == k;
            const GemmEpilogue *tile_epilogue =
                last_k && !epilogue.empty() ? &epilogue : nullptr;

            auto m_block = [&](int64_t block_begin, int64_t block_end) {
                ScratchArena &worker_arena = ScratchArena::thread();
                ScratchFrame worker_frame(worker_arena);
                float *apack = worker_arena.alloc<float>(
                    roundUp(std::min(kMc, m), kMr) * kc);
                for (int64_t bi = block_begin; bi < block_end; ++bi) {
                    const int64_t ic = bi * kMc;
                    multiplyBlock(a + ic * k + pc, k,
                                  std::min(kMc, m - ic), kc, bpack, nc,
                                  c + ic * n + jc, n, apack,
                                  tile_epilogue, ic, jc);
                }
            };

            const int64_t m_blocks = (m + kMc - 1) / kMc;
            if (parallel)
                parallelFor(0, m_blocks, 1, m_block);
            else
                m_block(0, m_blocks);
        }
    }
}

void
gemmPrepackedA(const PackedMatrix &a, const float *b, float *c,
               int64_t m, int64_t n, int64_t k,
               const GemmEpilogue &epilogue)
{
    assert(a.aSide_ && a.rows_ == m && a.cols_ == k);
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    const bool parallel =
        m * n * k >= kParallelMacs && !ThreadPool::inWorker();
    const MicroKernelFn kernel = kMicroKernel;
    const float *adata = a.data_.get();
    const int64_t num_ic = (m + kMc - 1) / kMc;

    ScratchArena &arena = ScratchArena::thread();
    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        int64_t pc_idx = 0;
        for (int64_t pc = 0; pc < k; pc += kKc, ++pc_idx) {
            const int64_t kc = std::min(kKc, k - pc);
            ScratchFrame frame(arena);
            float *bpack = arena.alloc<float>(roundUp(nc, kNr) * kc);
            packB(b + pc * n + jc, n, kc, nc, /*b_trans=*/false,
                  bpack);
            const bool last_k = pc + kc == k;

            auto m_block = [&](int64_t block_begin, int64_t block_end) {
                for (int64_t bi = block_begin; bi < block_end; ++bi) {
                    const int64_t ic = bi * kMc;
                    const int64_t mc = std::min(kMc, m - ic);
                    const float *apack =
                        adata + a.blockOffsets_[static_cast<size_t>(
                                    pc_idx * num_ic + bi)];
                    for (int64_t jr = 0; jr < nc; jr += kNr) {
                        const float *bp = bpack + jr * kc;
                        const int64_t nr = std::min(kNr, nc - jr);
                        for (int64_t ir = 0; ir < mc; ir += kMr) {
                            const float *ap = apack + ir * kc;
                            float *c_tile =
                                c + (ic + ir) * n + jc + jr;
                            const int64_t mr = std::min(kMr, mc - ir);
                            if (mr == kMr && nr == kNr)
                                kernel(kc, ap, bp, c_tile, n);
                            else
                                microKernelEdge(kc, ap, bp, c_tile,
                                                n, mr, nr);
                            if (last_k && !epilogue.empty())
                                applyEpilogueTile(c_tile, n, mr, nr,
                                                  ic + ir, jc + jr,
                                                  epilogue);
                        }
                    }
                }
            };

            if (parallel)
                parallelFor(0, num_ic, 1, m_block);
            else
                m_block(0, num_ic);
        }
    }
}

} // namespace tensor
} // namespace mlperf
