/**
 * @file
 * Tests for embedding, LSTM cell, and attention.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/init.h"
#include "nn/rnn.h"

namespace mlperf {
namespace nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Embedding, LooksUpRows)
{
    Tensor table(Shape{3, 2}, {0, 1, 10, 11, 20, 21});
    Embedding emb(std::move(table));
    EXPECT_EQ(emb.vocabSize(), 3);
    EXPECT_EQ(emb.dim(), 2);
    Tensor out = emb.forward({2, 0, 2});
    EXPECT_EQ(out.shape(), Shape({3, 2}));
    EXPECT_FLOAT_EQ(out.at(0, 0), 20);
    EXPECT_FLOAT_EQ(out.at(1, 1), 1);
    EXPECT_FLOAT_EQ(out.at(2, 0), 20);
}

LSTMCell
makeCell(int64_t input, int64_t hidden, uint64_t seed)
{
    Rng rng(seed);
    return LSTMCell(heNormal(Shape{4 * hidden, input}, input, rng),
                    heNormal(Shape{4 * hidden, hidden}, hidden, rng),
                    zeroBias(4 * hidden));
}

TEST(LSTMCell, StateShapesAndBounds)
{
    LSTMCell cell = makeCell(3, 5, 1);
    auto state = cell.initialState(2);
    EXPECT_EQ(state.h.shape(), Shape({2, 5}));
    Tensor x = Tensor::full(Shape{2, 3}, 0.7f);
    for (int step = 0; step < 10; ++step) {
        cell.step(x, state);
        // h = o * tanh(c) is bounded by (-1, 1).
        for (int64_t i = 0; i < state.h.numel(); ++i) {
            EXPECT_GT(state.h[i], -1.0f);
            EXPECT_LT(state.h[i], 1.0f);
        }
    }
}

TEST(LSTMCell, ZeroWeightsKeepZeroState)
{
    LSTMCell cell(Tensor(Shape{8, 1}), Tensor(Shape{8, 2}),
                  zeroBias(8));
    auto state = cell.initialState(1);
    cell.step(Tensor(Shape{1, 1}), state);
    // All gates sigmoid(0)=0.5, g=tanh(0)=0 -> c=0, h=0.
    EXPECT_FLOAT_EQ(state.c[0], 0.0f);
    EXPECT_FLOAT_EQ(state.h[0], 0.0f);
}

TEST(LSTMCell, RemembersThroughForgetGate)
{
    // Hand-crafted cell: input gate and forget gate saturated open,
    // output gate open; cell accumulates tanh(x-ish) each step.
    const int64_t hidden = 1, input = 1;
    Tensor w_x(Shape{4 * hidden, input}, {0, 0, 1, 0});
    Tensor w_h(Shape{4 * hidden, hidden}, {0, 0, 0, 0});
    std::vector<float> bias = {100, 100, 0, 100};  // i,f,o wide open
    LSTMCell cell(std::move(w_x), std::move(w_h), std::move(bias));
    auto state = cell.initialState(1);
    Tensor x(Shape{1, 1}, {1.0f});
    cell.step(x, state);
    const float c1 = state.c[0];
    EXPECT_NEAR(c1, std::tanh(1.0f), 1e-4);
    cell.step(x, state);
    // Perfect remembering: c2 = c1 + tanh(1).
    EXPECT_NEAR(state.c[0], 2 * std::tanh(1.0f), 1e-3);
}

TEST(LSTMCell, CountsMatchFormula)
{
    LSTMCell cell = makeCell(16, 32, 2);
    EXPECT_EQ(cell.paramCount(),
              4u * 32 * 16 + 4u * 32 * 32 + 4u * 32);
    EXPECT_EQ(cell.flopsPerStep(), 2u * (4 * 32 * 16 + 4 * 32 * 32));
}

TEST(DotAttention, UniformStatesGiveAverage)
{
    Tensor enc(Shape{4, 2},
               {1, 0,
                0, 1,
                1, 0,
                0, 1});
    Tensor query(Shape{1, 2}, {0, 0});  // zero query: uniform weights
    Tensor ctx = dotAttention(enc, query);
    EXPECT_NEAR(ctx[0], 0.5f, 1e-6);
    EXPECT_NEAR(ctx[1], 0.5f, 1e-6);
}

TEST(DotAttention, FocusesOnAlignedState)
{
    Tensor enc(Shape{2, 2},
               {10, 0,
                0, 10});
    Tensor query(Shape{1, 2}, {1, 0});  // aligned with state 0
    Tensor ctx = dotAttention(enc, query);
    EXPECT_GT(ctx[0], 9.9f);
    EXPECT_LT(ctx[1], 0.1f);
}

TEST(DotAttention, StableForLargeScores)
{
    Tensor enc(Shape{2, 2}, {1000, 0, 0, 1000});
    Tensor query(Shape{1, 2}, {1000, 0});
    Tensor ctx = dotAttention(enc, query);
    EXPECT_FALSE(std::isnan(ctx[0]));
    EXPECT_NEAR(ctx[0], 1000.0f, 1e-3);
}

// ---- Scratch-primitive properties.
//
// The streaming decoder steps many sequences through one cell with
// per-sequence buffers, interleaved arbitrarily by the batcher. Its
// bit-exactness story rests on two properties, proved here over
// randomized inputs: the Into primitives match their allocating
// forms exactly (no tolerance), and a sequence's trajectory is
// unchanged by how its steps interleave with other sequences'.

TEST(LSTMCell, StepIntoMatchesStepExactlyOverRandomSequences)
{
    const int64_t input = 9, hidden = 13, steps = 17;
    const LSTMCell cell = makeCell(input, hidden, 0xFEED);
    Rng rng(0xBEEF);

    auto ref_state = cell.initialState(1);
    std::vector<float> h(static_cast<size_t>(hidden), 0.0f);
    std::vector<float> c(static_cast<size_t>(hidden), 0.0f);
    std::vector<float> gates(static_cast<size_t>(4 * hidden));
    std::vector<float> rec(static_cast<size_t>(4 * hidden));
    for (int64_t t = 0; t < steps; ++t) {
        Tensor x(Shape{1, input});
        for (int64_t i = 0; i < input; ++i)
            x[i] = static_cast<float>(rng.nextGaussian());
        cell.step(x, ref_state);
        cell.stepInto(x.data(), 1, h.data(), c.data(), gates.data(),
                      rec.data());
        for (int64_t i = 0; i < hidden; ++i) {
            ASSERT_EQ(ref_state.h[i], h[static_cast<size_t>(i)])
                << "h diverged at step " << t << " unit " << i;
            ASSERT_EQ(ref_state.c[i], c[static_cast<size_t>(i)])
                << "c diverged at step " << t << " unit " << i;
        }
    }
}

TEST(LSTMCell, InterleavedSequencesMatchIsolatedRuns)
{
    // Three sequences share one cell; their stepInto calls interleave
    // in a random order. Each must reproduce, bit for bit, the states
    // it reaches when stepped alone — i.e. per-sequence state really
    // is the only carrier of information between steps.
    const int64_t input = 8, hidden = 12, steps = 11;
    const size_t seqs = 3;
    const LSTMCell cell = makeCell(input, hidden, 0xC0DE);

    std::vector<std::vector<Tensor>> inputs(seqs);
    Rng rng(0xD1CE);
    for (size_t s = 0; s < seqs; ++s) {
        for (int64_t t = 0; t < steps; ++t) {
            Tensor x(Shape{1, input});
            for (int64_t i = 0; i < input; ++i)
                x[i] = static_cast<float>(rng.nextGaussian());
            inputs[s].push_back(std::move(x));
        }
    }

    // Isolated reference trajectories via the allocating step().
    std::vector<std::vector<Tensor>> ref_h(seqs);
    for (size_t s = 0; s < seqs; ++s) {
        auto state = cell.initialState(1);
        for (int64_t t = 0; t < steps; ++t) {
            cell.step(inputs[s][static_cast<size_t>(t)], state);
            ref_h[s].push_back(state.h);
        }
    }

    // Interleaved run: pick a random pending sequence each turn.
    std::vector<std::vector<float>> h(
        seqs, std::vector<float>(static_cast<size_t>(hidden), 0.0f));
    std::vector<std::vector<float>> c = h;
    std::vector<float> gates(static_cast<size_t>(4 * hidden));
    std::vector<float> rec(static_cast<size_t>(4 * hidden));
    std::vector<int64_t> done(seqs, 0);
    Rng order(0xFACE);
    uint64_t remaining = seqs * static_cast<uint64_t>(steps);
    while (remaining > 0) {
        const size_t s = static_cast<size_t>(order.nextBelow(seqs));
        if (done[s] == steps)
            continue;
        const int64_t t = done[s]++;
        --remaining;
        cell.stepInto(inputs[s][static_cast<size_t>(t)].data(), 1,
                      h[s].data(), c[s].data(), gates.data(),
                      rec.data());
        for (int64_t i = 0; i < hidden; ++i) {
            ASSERT_EQ(ref_h[s][static_cast<size_t>(t)][i],
                      h[s][static_cast<size_t>(i)])
                << "seq " << s << " step " << t
                << " depends on interleaving";
        }
    }
}

TEST(LSTMCell, BatchedStepMatchesIndependentBatchOneSteps)
{
    // Batch invariance: each row of a batch-n step is bit-identical to
    // stepping that row alone at batch 1, for every n up to 32. At
    // hidden 32 the gate GEMMs cross the old small-shape threshold
    // (n = 27), so a shape-dispatched kernel would fail here.
    const int64_t input = 32, hidden = 32, steps = 3;
    const LSTMCell cell = makeCell(input, hidden, 0xBA7C);
    std::vector<float> gates, rec;
    for (int64_t n = 1; n <= 32; ++n) {
        Rng rng(0x5EED + static_cast<uint64_t>(n));
        auto random = [&](int64_t count) {
            std::vector<float> v(static_cast<size_t>(count));
            for (float &x : v)
                x = static_cast<float>(rng.nextGaussian());
            return v;
        };
        std::vector<float> h = random(n * hidden);
        std::vector<float> c = random(n * hidden);
        std::vector<float> h_one = h, c_one = c;
        gates.resize(static_cast<size_t>(n * 4 * hidden));
        rec.resize(gates.size());
        for (int64_t t = 0; t < steps; ++t) {
            const std::vector<float> x = random(n * input);
            cell.stepInto(x.data(), n, h.data(), c.data(), gates.data(),
                          rec.data());
            for (int64_t row = 0; row < n; ++row) {
                cell.stepInto(x.data() + row * input, 1,
                              h_one.data() + row * hidden,
                              c_one.data() + row * hidden, gates.data(),
                              rec.data());
            }
            for (size_t i = 0; i < h.size(); ++i) {
                ASSERT_EQ(h[i], h_one[i])
                    << "n=" << n << " step " << t << " h[" << i << "]";
                ASSERT_EQ(c[i], c_one[i])
                    << "n=" << n << " step " << t << " c[" << i << "]";
            }
        }
    }
}

TEST(DotAttention, IntoFormMatchesAllocatingFormOverRandomInputs)
{
    Rng rng(0xAB5E);
    for (int trial = 0; trial < 20; ++trial) {
        const int64_t steps = 1 + static_cast<int64_t>(
                                      rng.nextBelow(24));
        const int64_t hidden = 1 + static_cast<int64_t>(
                                       rng.nextBelow(48));
        Tensor enc(Shape{steps, hidden});
        for (int64_t i = 0; i < enc.numel(); ++i)
            enc[i] = static_cast<float>(3.0 * rng.nextGaussian());
        Tensor query(Shape{1, hidden});
        for (int64_t i = 0; i < hidden; ++i)
            query[i] = static_cast<float>(3.0 * rng.nextGaussian());

        const Tensor ref = dotAttention(enc, query);
        std::vector<float> ctx(static_cast<size_t>(hidden),
                               -777.0f);  // must be overwritten
        std::vector<double> scores(static_cast<size_t>(steps));
        dotAttentionInto(enc.data(), steps, hidden, query.data(),
                         ctx.data(), scores.data());
        for (int64_t i = 0; i < hidden; ++i) {
            ASSERT_EQ(ref[i], ctx[static_cast<size_t>(i)])
                << "trial " << trial << " [" << steps << "x" << hidden
                << "] unit " << i;
        }
    }
}

} // namespace
} // namespace nn
} // namespace mlperf
