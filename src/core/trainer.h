#pragma once
// End-to-end pre-training loops for the scaled-down MatGPT study.
//
// train_gpt (causal LM) and train_bert (masked LM) run one step loop with
// the paper's recipe shape: Adam or LAMB, cosine LR schedule with warmup,
// global-norm clipping and optional bf16/fp16 parameter-precision
// emulation; only the batch loss and the validation differ. Each step is one
// forward/backward over the whole global batch; the kernels split it over
// the current thread pool, and a run yields the same weight bytes and loss
// curve on any pool size. Data/tensor/pipeline parallelism across GCDs is
// priced by simfrontier, not run here.

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "nn/bert.h"
#include "nn/gpt.h"
#include "optim/optimizer.h"

namespace matgpt::core {

enum class OptimizerKind { kAdam, kLamb };

const char* optimizer_name(OptimizerKind kind);

struct TrainConfig {
  std::int64_t steps = 200;
  /// Global batch in sequences per step.
  std::int64_t batch_seqs = 8;
  std::int64_t seq = 64;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  double lr = 2e-3;
  double weight_decay = 0.1;
  double clip_norm = 1.0;
  double warmup_fraction = 0.01;
  double final_lr_fraction = 0.1;
  /// Parameter storage precision emulated after each update.
  DType precision = DType::kFloat32;
  std::int64_t eval_every = 25;
  std::int64_t eval_batches = 4;
  std::uint64_t seed = 7;

  void validate() const;
};

struct LossPoint {
  std::int64_t step = 0;
  double train_loss = 0.0;
  double val_loss = 0.0;
};

struct TrainingCurve {
  std::vector<LossPoint> points;

  double final_train_loss() const;
  double final_val_loss() const;
  /// Mean validation loss over the last k recorded points (noise-robust
  /// comparison metric for the Fig. 13 analysis).
  double tail_val_loss(std::size_t k = 3) const;
};

/// Pre-train a GPT model on the dataset; returns the loss curve.
TrainingCurve train_gpt(nn::GptModel& model, const data::TokenDataset& data,
                        const TrainConfig& config);

/// Masked-LM pre-training for the BERT stand-in. Its curve reports each
/// point's training loss as the validation loss.
TrainingCurve train_bert(nn::BertEncoder& model,
                         const data::TokenDataset& data,
                         const TrainConfig& config, float mask_prob = 0.15f);

}  // namespace matgpt::core
