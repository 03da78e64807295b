/**
 * @file
 * General matrix multiplication.
 *
 * All dense and convolutional layers lower to this kernel (conv via
 * im2col), mirroring how production inference stacks structure their
 * compute. The optimized path is a packed, cache-blocked SGEMM: A and
 * B are repacked into aligned, k-major micro-panels held in the
 * thread-local scratch arena, a register-tiled 6x16 micro-kernel does
 * the arithmetic (rows below the last full 6-row panel are read in
 * place by a row-tail kernel with the same per-row FMA chain), and
 * large problems are parallelized over M panels on the shared
 * intra-op thread pool (see DESIGN.md, "Compute substrate").
 */

#ifndef MLPERF_TENSOR_GEMM_H
#define MLPERF_TENSOR_GEMM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace mlperf {
namespace tensor {

/**
 * Fused epilogue applied to each finished C tile while it is still
 * cache-hot, replacing the separate bias-add and ReLU passes that
 * would otherwise re-stream the whole output through memory. The bias
 * is indexed per C row (conv's [O, outHW] layout) or per C column
 * (dense's [batch, out] layout).
 */
struct GemmEpilogue
{
    const float *bias = nullptr;
    bool biasPerRow = false;  //!< bias[i] when true, bias[j] when false
    bool relu = false;

    bool empty() const { return bias == nullptr && !relu; }
};

class PackedMatrix;

/**
 * Pack the left (A, m x k) operand of a GEMM once into the kernel's
 * k-major micro-panel layout. Used for conv weights, which sit on the
 * A side of the im2col GEMM.
 */
PackedMatrix packMatrixA(const float *a, int64_t m, int64_t k);

/**
 * Pack the right (B, k x n) operand once into k-major micro-panels.
 * When @p b_trans, @p b is stored [n x k] row-major (a dense layer's
 * weight) and the pack absorbs the transpose, so the hot loop never
 * sees the transposed layout.
 */
PackedMatrix packMatrixB(const float *b, int64_t k, int64_t n,
                         bool b_trans);

/**
 * C = A * packedB, with an optional fused epilogue. Skips the per-call
 * packB of gemm() entirely: only the activation operand A is packed
 * (per-call, into the scratch arena; rows below the last full 6-row
 * panel are read in place). C is overwritten.
 *
 * Batch invariance: row i of C depends only on row i of A, bit for
 * bit, whatever @p m is and whatever the other rows hold. There is no
 * small-shape branch, and every output element is reduced in one
 * fixed order — k ascending within each 256-deep k block, one
 * c += partial per block, then the epilogue — whether its row falls
 * in a full register panel, a row tail, or another thread's M block.
 * A sequence stepped alone (m = 1) therefore matches the same
 * sequence stepped beside any neighbours; the decode path relies on
 * this so that its numerics never depend on the batch.
 */
void gemmPrepacked(const float *a, const PackedMatrix &b, float *c,
                   int64_t m, int64_t n, int64_t k,
                   const GemmEpilogue &epilogue = {});

/**
 * C = packedA * B, with an optional fused epilogue. The conv twin of
 * gemmPrepacked(): weights are the A operand, the im2col matrix B is
 * packed per-call into the scratch arena. C is overwritten.
 */
void gemmPrepackedA(const PackedMatrix &a, const float *b, float *c,
                    int64_t m, int64_t n, int64_t k,
                    const GemmEpilogue &epilogue = {});

/**
 * An operand packed once — at model compile time — into the blocked
 * micro-panel layout the SGEMM micro-kernel consumes, so steady-state
 * queries skip the pack step and its memory traffic entirely.
 * 64-byte-aligned, immutable after construction, and therefore safe
 * to share read-only across any number of worker threads. Move-only.
 */
class PackedMatrix
{
  public:
    PackedMatrix() = default;
    PackedMatrix(PackedMatrix &&) = default;
    PackedMatrix &operator=(PackedMatrix &&) = default;
    PackedMatrix(const PackedMatrix &) = delete;
    PackedMatrix &operator=(const PackedMatrix &) = delete;

    /** Logical dims: rows x cols is m x k (A side) or k x n (B side). */
    int64_t rows() const { return rows_; }
    int64_t cols() const { return cols_; }
    bool aSide() const { return aSide_; }

    /** Footprint of the packed constant data in bytes. */
    int64_t bytes() const { return bytes_; }
    bool empty() const { return data_ == nullptr; }

  private:
    friend PackedMatrix packMatrixA(const float *a, int64_t m,
                                    int64_t k);
    friend PackedMatrix packMatrixB(const float *b, int64_t k,
                                    int64_t n, bool b_trans);
    friend void gemmPrepacked(const float *a, const PackedMatrix &b,
                              float *c, int64_t m, int64_t n, int64_t k,
                              const GemmEpilogue &epilogue);
    friend void gemmPrepackedA(const PackedMatrix &a, const float *b,
                               float *c, int64_t m, int64_t n,
                               int64_t k, const GemmEpilogue &epilogue);

    std::unique_ptr<float, void (*)(void *)> data_{nullptr, nullptr};
    /** Start of each cache block in floats, in kernel consume order. */
    std::vector<int64_t> blockOffsets_;
    int64_t rows_ = 0;
    int64_t cols_ = 0;
    int64_t bytes_ = 0;
    bool aSide_ = false;
};

/**
 * C = A * B (+ C if accumulate), row-major.
 *
 * @param a M x K
 * @param b K x N
 * @param c M x N output
 */
void gemm(const float *a, const float *b, float *c,
          int64_t m, int64_t n, int64_t k, bool accumulate = false);

/**
 * Unoptimized reference with double accumulation: the ground truth
 * the property tests and microbenchmarks compare the packed kernel
 * against. Same contract as gemm().
 */
void gemmNaive(const float *a, const float *b, float *c,
               int64_t m, int64_t n, int64_t k, bool accumulate = false);

/**
 * True when gemm()/denseForward() would take the unpacked small-shape
 * path (repacking overhead dominates below a MAC threshold). The
 * prepared layer kernels mirror this dispatch so compiled results
 * stay bit-identical to the eager kernels at every shape.
 */
bool gemmUsesSmallPath(int64_t m, int64_t n, int64_t k);

/** Tensor-level matmul for rank-2 tensors. */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * y = W * x + bias for a dense layer: W is [out, in] row-major, x is
 * [batch, in], y is [batch, out]. Note the weight is used transposed
 * relative to gemm (x * W^T), matching typical framework layouts;
 * the packed kernel absorbs the transpose during B-panel packing.
 */
void denseForward(const float *w, const float *bias, const float *x,
                  float *y, int64_t batch, int64_t in, int64_t out);

} // namespace tensor
} // namespace mlperf

#endif // MLPERF_TENSOR_GEMM_H
