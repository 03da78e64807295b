/**
 * @file
 * Recurrent primitives for the GNMT proxy model: token embedding and
 * an LSTM cell. The paper includes GNMT specifically so the suite
 * "captures a variety of compute motifs" (RNNs alongside CNNs); these
 * primitives provide that motif in the model zoo.
 */

#ifndef MLPERF_NN_RNN_H
#define MLPERF_NN_RNN_H

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace mlperf {
namespace nn {

/** Token-id -> dense vector lookup table. */
class Embedding
{
  public:
    /** @param table [vocab, dim] */
    explicit Embedding(tensor::Tensor table);

    /** Look up a batch of token ids -> [batch, dim]. */
    tensor::Tensor forward(const std::vector<int64_t> &tokens) const;

    /**
     * Non-allocating lookup of one token into caller storage (@p out
     * holds dim() floats). forward() delegates here, so the two are
     * bit-identical by construction — the invariant the autoregressive
     * decode path relies on.
     */
    void lookupInto(int64_t token, float *out) const;

    int64_t vocabSize() const { return table_.shape().dim(0); }
    int64_t dim() const { return table_.shape().dim(1); }
    uint64_t paramCount() const
    {
        return static_cast<uint64_t>(table_.numel());
    }

  private:
    tensor::Tensor table_;
};

/**
 * Single LSTM cell. Gate layout in the packed weight matrices is
 * [i; f; g; o] (input, forget, cell, output), each of size hidden.
 * The weights are packed once at construction for gemmPrepacked(),
 * so a step's result for one sequence is the same bits at any batch
 * size. Move-only (the packed weights are).
 */
class LSTMCell
{
  public:
    /**
     * @param w_x [4*hidden, input]
     * @param w_h [4*hidden, hidden]
     * @param bias [4*hidden]
     */
    LSTMCell(tensor::Tensor w_x, tensor::Tensor w_h,
             std::vector<float> bias);

    struct State
    {
        tensor::Tensor h;  //!< [batch, hidden]
        tensor::Tensor c;  //!< [batch, hidden]
    };

    /** Zero-initialized state for a batch. */
    State initialState(int64_t batch) const;

    /** One step: consumes x [batch, input], updates state in place. */
    void step(const tensor::Tensor &x, State &state) const;

    /**
     * Raw step over caller-owned buffers — the zero-alloc form used by
     * the streaming decoder's per-sequence state pool. @p x is
     * [batch, input], @p h / @p c are [batch, hidden] and are updated
     * in place; @p gates and @p rec are scratch of [batch, 4*hidden]
     * floats each. step() delegates here, so stepping a sequence
     * through stepInto() is bit-identical to step() no matter how the
     * calls interleave with other sequences' steps. Each row of the
     * batch is bit-identical to stepping that row alone at batch 1:
     * both gate projections run on gemmPrepacked(), which is batch-
     * invariant, and the rest of the step is elementwise.
     */
    void stepInto(const float *x, int64_t batch, float *h, float *c,
                  float *gates, float *rec) const;

    int64_t inputSize() const { return wX_.rows(); }
    int64_t hiddenSize() const { return wH_.rows(); }
    uint64_t paramCount() const;

    /** MAC-dominated op count (x2) for one step at batch 1. */
    uint64_t flopsPerStep() const;

  private:
    uint64_t weightCount() const;

    tensor::PackedMatrix wX_;  //!< packed W_x^T: input -> 4*hidden
    tensor::PackedMatrix wH_;  //!< packed W_h^T: hidden -> 4*hidden
    std::vector<float> bias_;  //!< fused into the W_x projection
};

/**
 * Dot-product attention: scores = decoder_state . encoder_states[t],
 * context = sum_t softmax(scores)_t * encoder_states[t].
 *
 * @param encoder_states [steps, hidden]
 * @param query [1, hidden]
 * @return context [1, hidden]
 */
tensor::Tensor dotAttention(const tensor::Tensor &encoder_states,
                            const tensor::Tensor &query);

/**
 * Non-allocating dotAttention over raw buffers: @p encoder_states is
 * [steps, hidden] row-major, @p query and @p context are [hidden]
 * (context is overwritten), and @p scores_scratch holds @p steps
 * doubles. dotAttention() delegates here; bit-identical results.
 */
void dotAttentionInto(const float *encoder_states, int64_t steps,
                      int64_t hidden, const float *query,
                      float *context, double *scores_scratch);

} // namespace nn
} // namespace mlperf

#endif // MLPERF_NN_RNN_H
