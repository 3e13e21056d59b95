#pragma once
// Per-layer replays for the traced run: the benchmark calls the model, the
// sampler and the GEMM kernel directly on the serving shapes and times each
// call from outside. Caches are warm (the same operands every repetition),
// so these are lower bounds on the in-engine cost.

#include <vector>

#include "nn/gpt.h"
#include "spans.h"
#include "stats.h"

namespace servebench {

namespace nn = matgpt::nn;

/// gemm.<shape>.m<M>.{us,gflops,bytes} for the QKV, o, gate/up, down and
/// lm_head projections at M = 1, 4, 16 and 128, through kernels::gemm_nn.
/// Bytes are computed from the operand sizes (A + B + C, fp32), not
/// measured.
void replay_gemm(const nn::GptConfig& config, std::vector<Metric>& out,
                 SpanLog& spans);

/// model.prefill_us_per_token (a 384-token prompt in 128-token chunks),
/// model.decode_step_ms_b{1,4,16}, and sampling.us_per_token_{greedy,
/// stochastic} on real logits rows from the b16 decode.
void replay_model(const nn::GptModel& model, std::vector<Metric>& out,
                  SpanLog& spans);

}  // namespace servebench
