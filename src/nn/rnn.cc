#include "nn/rnn.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"

namespace mlperf {
namespace nn {

using tensor::Shape;
using tensor::Tensor;

Embedding::Embedding(Tensor table) : table_(std::move(table))
{
    assert(table_.shape().rank() == 2);
}

Tensor
Embedding::forward(const std::vector<int64_t> &tokens) const
{
    const int64_t dim = this->dim();
    Tensor out(Shape{static_cast<int64_t>(tokens.size()), dim});
    for (size_t i = 0; i < tokens.size(); ++i) {
        lookupInto(tokens[i],
                   out.data() + static_cast<int64_t>(i) * dim);
    }
    return out;
}

void
Embedding::lookupInto(int64_t token, float *out) const
{
    assert(token >= 0 && token < vocabSize());
    std::memcpy(out, table_.data() + token * dim(),
                static_cast<size_t>(dim()) * sizeof(float));
}

namespace {

/** Pack a [out, in] weight as the B operand of x * W^T. */
tensor::PackedMatrix
packWeight(const Tensor &w)
{
    assert(w.shape().rank() == 2);
    return tensor::packMatrixB(w.data(), w.shape().dim(1),
                               w.shape().dim(0), /*b_trans=*/true);
}

} // namespace

LSTMCell::LSTMCell(Tensor w_x, Tensor w_h, std::vector<float> bias)
    : wX_(packWeight(w_x)), wH_(packWeight(w_h)), bias_(std::move(bias))
{
    assert(wX_.cols() == wH_.cols());
    assert(wX_.cols() == 4 * wH_.rows());
    assert(static_cast<int64_t>(bias_.size()) == wX_.cols());
}

LSTMCell::State
LSTMCell::initialState(int64_t batch) const
{
    return State{Tensor(Shape{batch, hiddenSize()}),
                 Tensor(Shape{batch, hiddenSize()})};
}

void
LSTMCell::step(const Tensor &x, State &state) const
{
    const int64_t batch = x.shape().dim(0);
    assert(x.shape().dim(1) == inputSize());
    assert(state.h.shape().dim(0) == batch);

    Tensor gates(Shape{batch, 4 * hiddenSize()});
    Tensor rec(Shape{batch, 4 * hiddenSize()});
    stepInto(x.data(), batch, state.h.data(), state.c.data(),
             gates.data(), rec.data());
}

void
LSTMCell::stepInto(const float *x, int64_t batch, float *h, float *c,
                   float *gates, float *rec) const
{
    const int64_t hidden = hiddenSize();

    // gates = W_x x + b + W_h h : [batch, 4*hidden]
    tensor::GemmEpilogue with_bias;
    with_bias.bias = bias_.data();
    tensor::gemmPrepacked(x, wX_, gates, batch, 4 * hidden, inputSize(),
                          with_bias);
    tensor::gemmPrepacked(h, wH_, rec, batch, 4 * hidden, hidden);
    for (int64_t i = 0; i < batch * 4 * hidden; ++i)
        gates[i] += rec[i];

    auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    for (int64_t b = 0; b < batch; ++b) {
        const float *g = gates + b * 4 * hidden;
        float *hb = h + b * hidden;
        float *cb = c + b * hidden;
        for (int64_t j = 0; j < hidden; ++j) {
            const float i_g = sigmoid(g[j]);
            const float f_g = sigmoid(g[hidden + j]);
            const float g_g = std::tanh(g[2 * hidden + j]);
            const float o_g = sigmoid(g[3 * hidden + j]);
            cb[j] = f_g * cb[j] + i_g * g_g;
            hb[j] = o_g * std::tanh(cb[j]);
        }
    }
}

uint64_t
LSTMCell::weightCount() const
{
    return static_cast<uint64_t>(wX_.rows() * wX_.cols() +
                                 wH_.rows() * wH_.cols());
}

uint64_t
LSTMCell::paramCount() const
{
    return weightCount() + bias_.size();
}

uint64_t
LSTMCell::flopsPerStep() const
{
    return 2 * weightCount();
}

Tensor
dotAttention(const Tensor &encoder_states, const Tensor &query)
{
    assert(encoder_states.shape().rank() == 2);
    assert(query.shape().rank() == 2 && query.shape().dim(0) == 1);
    const int64_t steps = encoder_states.shape().dim(0);
    const int64_t hidden = encoder_states.shape().dim(1);
    assert(query.shape().dim(1) == hidden);

    std::vector<double> scores(static_cast<size_t>(steps));
    Tensor context(Shape{1, hidden});
    dotAttentionInto(encoder_states.data(), steps, hidden,
                     query.data(), context.data(), scores.data());
    return context;
}

void
dotAttentionInto(const float *encoder_states, int64_t steps,
                 int64_t hidden, const float *query, float *context,
                 double *scores_scratch)
{
    // Scores, max-stabilized softmax, and weighted sum.
    double max_score = -1e300;
    for (int64_t t = 0; t < steps; ++t) {
        double s = 0.0;
        const float *enc = encoder_states + t * hidden;
        for (int64_t j = 0; j < hidden; ++j)
            s += static_cast<double>(enc[j]) * query[j];
        scores_scratch[t] = s;
        max_score = std::max(max_score, s);
    }
    double denom = 0.0;
    for (int64_t t = 0; t < steps; ++t) {
        scores_scratch[t] = std::exp(scores_scratch[t] - max_score);
        denom += scores_scratch[t];
    }
    for (int64_t j = 0; j < hidden; ++j)
        context[j] = 0.0f;
    for (int64_t t = 0; t < steps; ++t) {
        const float w = static_cast<float>(scores_scratch[t] / denom);
        const float *enc = encoder_states + t * hidden;
        for (int64_t j = 0; j < hidden; ++j)
            context[j] += w * enc[j];
    }
}

} // namespace nn
} // namespace mlperf
