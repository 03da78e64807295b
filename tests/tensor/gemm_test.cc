/**
 * @file
 * Tests for GEMM and dense-layer kernels: property sweeps of the
 * packed/parallel kernel against the gemmNaive reference across
 * odd/non-tile-divisible shapes (tile edges), accumulate on/off,
 * randomized shapes, and thread-count invariance.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/gemm.h"

namespace mlperf {
namespace tensor {
namespace {

/** Max |c - ref| scaled by the magnitude of ref (1e-4 rel target). */
void
expectClose(const std::vector<float> &c, const std::vector<float> &ref)
{
    ASSERT_EQ(c.size(), ref.size());
    float ref_mag = 1.0f;
    for (float v : ref)
        ref_mag = std::max(ref_mag, std::abs(v));
    for (size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], ref[i], 1e-4f * ref_mag) << "i=" << i;
}

std::vector<float>
randomVec(int64_t n, Rng &rng)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = static_cast<float>(rng.nextGaussian());
    return v;
}

TEST(Gemm, TwoByTwoKnownResult)
{
    const float a[] = {1, 2, 3, 4};
    const float b[] = {5, 6, 7, 8};
    float c[4];
    gemm(a, b, c, 2, 2, 2);
    EXPECT_FLOAT_EQ(c[0], 19);
    EXPECT_FLOAT_EQ(c[1], 22);
    EXPECT_FLOAT_EQ(c[2], 43);
    EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, IdentityLeavesMatrixUnchanged)
{
    const int64_t n = 17;
    std::vector<float> eye(n * n, 0.0f), b(n * n), c(n * n);
    Rng rng(1);
    for (int64_t i = 0; i < n; ++i)
        eye[i * n + i] = 1.0f;
    for (auto &v : b)
        v = static_cast<float>(rng.nextGaussian());
    gemm(eye.data(), b.data(), c.data(), n, n, n);
    for (int64_t i = 0; i < n * n; ++i)
        EXPECT_FLOAT_EQ(c[i], b[i]);
}

TEST(Gemm, AccumulateAddsToExisting)
{
    const float a[] = {1, 0, 0, 1};
    const float b[] = {1, 2, 3, 4};
    float c[] = {10, 10, 10, 10};
    gemm(a, b, c, 2, 2, 2, /*accumulate=*/true);
    EXPECT_FLOAT_EQ(c[0], 11);
    EXPECT_FLOAT_EQ(c[3], 14);
}

/**
 * Parameterized property sweep over (m, n, k, accumulate) including
 * tile-boundary sizes: every dimension is drawn from odd /
 * non-tile-divisible values around the micro-kernel and cache-block
 * edges.
 */
class GemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>>
{
};

TEST_P(GemmSweep, MatchesNaiveReference)
{
    const auto [m, n, k, accumulate] = GetParam();
    Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k +
                                  (accumulate ? 1 : 0)));
    std::vector<float> a = randomVec(m * k, rng);
    std::vector<float> b = randomVec(k * n, rng);
    std::vector<float> seed = randomVec(m * n, rng);
    std::vector<float> c = seed, ref = seed;
    gemm(a.data(), b.data(), c.data(), m, n, k, accumulate);
    gemmNaive(a.data(), b.data(), ref.data(), m, n, k, accumulate);
    expectClose(c, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweep,
    ::testing::Combine(::testing::Values(1, 3, 17, 63, 64, 65, 100),
                       ::testing::Values(1, 17, 65, 130),
                       ::testing::Values(1, 3, 64, 65, 70),
                       ::testing::Bool()));

TEST(GemmProperty, RandomizedShapesMatchNaive)
{
    Rng shape_rng(0xBEEF);
    for (int trial = 0; trial < 25; ++trial) {
        const int64_t m = shape_rng.nextInRange(1, 150);
        const int64_t n = shape_rng.nextInRange(1, 150);
        const int64_t k = shape_rng.nextInRange(1, 150);
        const bool accumulate = (trial % 2) == 0;
        Rng rng(static_cast<uint64_t>(trial) * 7919 + 13);
        std::vector<float> a = randomVec(m * k, rng);
        std::vector<float> b = randomVec(k * n, rng);
        std::vector<float> seed = randomVec(m * n, rng);
        std::vector<float> c = seed, ref = seed;
        gemm(a.data(), b.data(), c.data(), m, n, k, accumulate);
        gemmNaive(a.data(), b.data(), ref.data(), m, n, k, accumulate);
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k
                     << " acc=" << accumulate);
        expectClose(c, ref);
    }
}

TEST(GemmParallel, ThreadCountDoesNotChangeResults)
{
    // Big enough to cross both the packing and the parallel
    // thresholds; shape deliberately not tile-divisible.
    const int64_t m = 197, n = 131, k = 173;
    Rng rng(42);
    std::vector<float> a = randomVec(m * k, rng);
    std::vector<float> b = randomVec(k * n, rng);
    std::vector<float> ref(static_cast<size_t>(m * n));
    gemmNaive(a.data(), b.data(), ref.data(), m, n, k);
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<float> c(static_cast<size_t>(m * n));
        gemm(a.data(), b.data(), c.data(), m, n, k);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        expectClose(c, ref);
    }
    ThreadPool::setGlobalThreads(4);
}

TEST(GemmParallel, LargeSquareMatchesNaive)
{
    const int64_t n = 256;
    Rng rng(7);
    std::vector<float> a = randomVec(n * n, rng);
    std::vector<float> b = randomVec(n * n, rng);
    std::vector<float> c(static_cast<size_t>(n * n));
    std::vector<float> ref(static_cast<size_t>(n * n));
    gemm(a.data(), b.data(), c.data(), n, n, n);
    gemmNaive(a.data(), b.data(), ref.data(), n, n, n);
    expectClose(c, ref);
}

/**
 * Reference epilogue applied separately after gemmNaive, the way the
 * eager layers do it: bias add over finished output, then ReLU.
 */
void
applyEpilogueRef(std::vector<float> &c, int64_t m, int64_t n,
                 const float *bias, bool bias_per_row, bool relu)
{
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float &v = c[static_cast<size_t>(i * n + j)];
            if (bias != nullptr)
                v += bias_per_row ? bias[i] : bias[j];
            if (relu && v < 0.0f)
                v = 0.0f;
        }
    }
}

/**
 * Prepacked-kernel sweep: every (m, n, k) is drawn from values around
 * the kMr/kNr micro-tile and kMc/kNc/kKc cache-block edges (including
 * k > 256 and n > 512, which split the constant section into multiple
 * blocks), crossed with all four epilogue combinations.
 */
class GemmPrepackedSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GemmPrepackedSweep, PackedBMatchesNaivePlusSeparateEpilogue)
{
    const auto [m, n, k, epi] = GetParam();
    const bool with_bias = (epi & 1) != 0;
    const bool with_relu = (epi & 2) != 0;
    Rng rng(static_cast<uint64_t>(m * 7919 + n * 131 + k * 7 + epi));
    // Dense layout: weight stored [n, k] row-major, transpose absorbed
    // by the pack.
    std::vector<float> wt = randomVec(n * k, rng);
    std::vector<float> a = randomVec(m * k, rng);
    std::vector<float> bias = randomVec(n, rng);
    const PackedMatrix packed =
        packMatrixB(wt.data(), k, n, /*b_trans=*/true);
    EXPECT_EQ(packed.rows(), k);
    EXPECT_EQ(packed.cols(), n);
    EXPECT_GT(packed.bytes(), 0);

    GemmEpilogue ep;
    ep.bias = with_bias ? bias.data() : nullptr;
    ep.biasPerRow = false;
    ep.relu = with_relu;
    std::vector<float> c(static_cast<size_t>(m * n));
    gemmPrepacked(a.data(), packed, c.data(), m, n, k, ep);

    std::vector<float> bmat(static_cast<size_t>(k * n));
    for (int64_t kk = 0; kk < k; ++kk)
        for (int64_t j = 0; j < n; ++j)
            bmat[static_cast<size_t>(kk * n + j)] =
                wt[static_cast<size_t>(j * k + kk)];
    std::vector<float> ref(static_cast<size_t>(m * n));
    gemmNaive(a.data(), bmat.data(), ref.data(), m, n, k);
    applyEpilogueRef(ref, m, n, ep.bias, false, with_relu);
    expectClose(c, ref);
}

TEST_P(GemmPrepackedSweep, PackedAMatchesNaivePlusSeparateEpilogue)
{
    const auto [m, n, k, epi] = GetParam();
    const bool with_bias = (epi & 1) != 0;
    const bool with_relu = (epi & 2) != 0;
    Rng rng(static_cast<uint64_t>(m * 104729 + n * 17 + k * 3 + epi));
    // Conv layout: weights [m, k] are the A operand, bias per C row.
    std::vector<float> a = randomVec(m * k, rng);
    std::vector<float> b = randomVec(k * n, rng);
    std::vector<float> bias = randomVec(m, rng);
    const PackedMatrix packed = packMatrixA(a.data(), m, k);
    EXPECT_EQ(packed.rows(), m);
    EXPECT_EQ(packed.cols(), k);

    GemmEpilogue ep;
    ep.bias = with_bias ? bias.data() : nullptr;
    ep.biasPerRow = true;
    ep.relu = with_relu;
    std::vector<float> c(static_cast<size_t>(m * n));
    gemmPrepackedA(packed, b.data(), c.data(), m, n, k, ep);

    std::vector<float> ref(static_cast<size_t>(m * n));
    gemmNaive(a.data(), b.data(), ref.data(), m, n, k);
    applyEpilogueRef(ref, m, n, ep.bias, true, with_relu);
    expectClose(c, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmPrepackedSweep,
    ::testing::Combine(::testing::Values(1, 5, 7, 97),
                       ::testing::Values(1, 15, 17, 513),
                       ::testing::Values(1, 7, 257),
                       ::testing::Range(0, 4)));

TEST(GemmPrepacked, BitIdenticalToGemmOnPackedPathShapes)
{
    // Above the small-shape threshold the prepacked kernels run the
    // exact loop nest of gemm()'s packed path, so results must match
    // bit for bit — the property the compiled/eager differential
    // tests lean on. The m < 6 shapes are all row tail: gemm() and
    // gemmPrepacked() read those rows in place, gemmPrepackedA()
    // packs them and runs the edge kernel, and all three must agree.
    const std::tuple<int64_t, int64_t, int64_t> shapes[] = {
        {67, 70, 49}, {1, 513, 257}, {2, 600, 100},
        {3, 130, 300}, {4, 47, 600}, {5, 70, 320}};
    for (const auto &[m, n, k] : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        ASSERT_FALSE(gemmUsesSmallPath(m, n, k));
        Rng rng(0xC0FFEE + static_cast<uint64_t>(m));
        std::vector<float> a = randomVec(m * k, rng);
        std::vector<float> b = randomVec(k * n, rng);
        std::vector<float> ref(static_cast<size_t>(m * n));
        gemm(a.data(), b.data(), ref.data(), m, n, k);

        const PackedMatrix pb = packMatrixB(b.data(), k, n, false);
        std::vector<float> c(static_cast<size_t>(m * n));
        gemmPrepacked(a.data(), pb, c.data(), m, n, k);
        for (int64_t i = 0; i < m * n; ++i)
            ASSERT_EQ(c[static_cast<size_t>(i)],
                      ref[static_cast<size_t>(i)])
                << "i=" << i;

        const PackedMatrix pa = packMatrixA(a.data(), m, k);
        gemmPrepackedA(pa, b.data(), c.data(), m, n, k);
        for (int64_t i = 0; i < m * n; ++i)
            ASSERT_EQ(c[static_cast<size_t>(i)],
                      ref[static_cast<size_t>(i)])
                << "i=" << i;
    }
}

TEST(GemmPrepacked, RowsMatchBatchOneBitForBit)
{
    // Batch invariance: every row of C at m rows equals, bit for bit,
    // the same row computed alone at m = 1 — whether the row lands in
    // a full register panel or a row tail, across partial column
    // panels (n % 16 != 0), several column blocks (n > 512) and
    // several k blocks (k > 256), with and without the epilogue.
    Rng shape_rng(0xBA7C4);
    const int64_t ns[] = {1, 15, 16, 33, 130, 513, 700};
    const int64_t ks[] = {1, 7, 32, 255, 257, 300};
    for (int trial = 0; trial < 26; ++trial) {
        const int64_t m = 1 + trial / 2;  // two random shapes per m
        const int64_t n = ns[shape_rng.nextBelow(std::size(ns))];
        const int64_t k = ks[shape_rng.nextBelow(std::size(ks))];
        const bool with_epilogue = trial % 2 == 0;
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k
                     << " epilogue=" << with_epilogue);
        Rng rng(static_cast<uint64_t>(trial) * 104729 + 1);
        std::vector<float> wt = randomVec(n * k, rng);
        std::vector<float> a = randomVec(m * k, rng);
        std::vector<float> bias = randomVec(n, rng);
        const PackedMatrix packed =
            packMatrixB(wt.data(), k, n, /*b_trans=*/true);
        GemmEpilogue ep;
        if (with_epilogue) {
            ep.bias = bias.data();
            ep.relu = true;
        }

        std::vector<float> c(static_cast<size_t>(m * n));
        gemmPrepacked(a.data(), packed, c.data(), m, n, k, ep);
        std::vector<float> row(static_cast<size_t>(n));
        for (int64_t i = 0; i < m; ++i) {
            gemmPrepacked(a.data() + i * k, packed, row.data(), 1, n, k,
                          ep);
            for (int64_t j = 0; j < n; ++j)
                ASSERT_EQ(c[static_cast<size_t>(i * n + j)],
                          row[static_cast<size_t>(j)])
                    << "row " << i << " col " << j;
        }
    }
}

TEST(GemmPrepacked, ThreadCountDoesNotChangeResults)
{
    // Crosses the parallel threshold; the packed constants are shared
    // read-only across the pool's workers.
    const int64_t m = 197, n = 131, k = 173;
    Rng rng(4242);
    std::vector<float> a = randomVec(m * k, rng);
    std::vector<float> b = randomVec(k * n, rng);
    std::vector<float> bias = randomVec(n, rng);
    const PackedMatrix packed = packMatrixB(b.data(), k, n, false);
    GemmEpilogue ep;
    ep.bias = bias.data();
    ep.relu = true;
    std::vector<float> ref(static_cast<size_t>(m * n));
    gemmNaive(a.data(), b.data(), ref.data(), m, n, k);
    applyEpilogueRef(ref, m, n, bias.data(), false, true);
    for (int threads : {1, 2, 4}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<float> c(static_cast<size_t>(m * n));
        gemmPrepacked(a.data(), packed, c.data(), m, n, k, ep);
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        expectClose(c, ref);
    }
    ThreadPool::setGlobalThreads(4);
}

TEST(GemmPrepacked, SmallPathThresholdIsConsistent)
{
    EXPECT_TRUE(gemmUsesSmallPath(1, 1, 1));
    EXPECT_TRUE(gemmUsesSmallPath(47, 48, 48));
    EXPECT_FALSE(gemmUsesSmallPath(48, 48, 48));
    EXPECT_FALSE(gemmUsesSmallPath(512, 512, 512));
}

TEST(Matmul, ShapesAndValues)
{
    Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b(Shape{3, 1}, {1, 1, 1});
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), Shape({2, 1}));
    EXPECT_FLOAT_EQ(c[0], 6);
    EXPECT_FLOAT_EQ(c[1], 15);
}

TEST(DenseForward, MatchesManualComputation)
{
    // 2 outputs, 3 inputs, batch 2.
    const float w[] = {1, 0, -1,   // out 0
                       2, 1, 0};   // out 1
    const float bias[] = {0.5f, -0.5f};
    const float x[] = {1, 2, 3,
                       0, 1, 0};
    float y[4];
    denseForward(w, bias, x, y, 2, 3, 2);
    EXPECT_FLOAT_EQ(y[0], 1 * 1 + 0 * 2 + -1 * 3 + 0.5f);
    EXPECT_FLOAT_EQ(y[1], 2 * 1 + 1 * 2 + 0 * 3 - 0.5f);
    EXPECT_FLOAT_EQ(y[2], 0.5f);
    EXPECT_FLOAT_EQ(y[3], 0.5f);
}

TEST(DenseForward, PackedTransBPathMatchesNaive)
{
    // Large enough to route through the packed B-transposed kernel;
    // odd sizes exercise panel edges.
    const int64_t batch = 37, in = 129, out = 83;
    Rng rng(99);
    std::vector<float> w = randomVec(out * in, rng);
    std::vector<float> x = randomVec(batch * in, rng);
    std::vector<float> bias = randomVec(out, rng);
    std::vector<float> y(static_cast<size_t>(batch * out));
    denseForward(w.data(), bias.data(), x.data(), y.data(), batch, in,
                 out);
    std::vector<float> ref(static_cast<size_t>(batch * out));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t o = 0; o < out; ++o) {
            double acc = bias[static_cast<size_t>(o)];
            for (int64_t i = 0; i < in; ++i)
                acc += static_cast<double>(x[b * in + i]) *
                       w[o * in + i];
            ref[static_cast<size_t>(b * out + o)] =
                static_cast<float>(acc);
        }
    }
    expectClose(y, ref);
}

TEST(DenseForward, NullBiasMeansZero)
{
    const float w[] = {2, 3};
    const float x[] = {1, 1};
    float y[1];
    denseForward(w, nullptr, x, y, 1, 2, 1);
    EXPECT_FLOAT_EQ(y[0], 5);
}

} // namespace
} // namespace tensor
} // namespace mlperf
