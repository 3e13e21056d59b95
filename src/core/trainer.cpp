#include "core/trainer.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/error.h"

namespace matgpt::core {

const char* optimizer_name(OptimizerKind kind) {
  return kind == OptimizerKind::kAdam ? "Adam" : "LAMB";
}

void TrainConfig::validate() const {
  MGPT_CHECK(steps > 0, "steps must be positive");
  MGPT_CHECK(batch_seqs > 0 && seq > 0, "batch and seq must be positive");
  MGPT_CHECK(lr > 0.0, "lr must be positive");
  MGPT_CHECK(eval_every > 0, "eval_every must be positive");
  MGPT_CHECK(eval_batches > 0, "eval_batches must be positive");
}

double TrainingCurve::final_train_loss() const {
  MGPT_CHECK(!points.empty(), "empty training curve");
  return points.back().train_loss;
}

double TrainingCurve::final_val_loss() const {
  MGPT_CHECK(!points.empty(), "empty training curve");
  return points.back().val_loss;
}

double TrainingCurve::tail_val_loss(std::size_t k) const {
  MGPT_CHECK(!points.empty(), "empty training curve");
  k = std::min(k, points.size());
  double acc = 0.0;
  for (std::size_t i = points.size() - k; i < points.size(); ++i) {
    acc += points[i].val_loss;
  }
  return acc / static_cast<double>(k);
}

namespace {

std::unique_ptr<optim::Optimizer> make_optimizer(const TrainConfig& config,
                                                 nn::Module& model) {
  if (config.optimizer == OptimizerKind::kAdam) {
    optim::AdamConfig ac;
    ac.weight_decay = config.weight_decay;
    return std::make_unique<optim::Adam>(model.parameters(), ac);
  }
  optim::LambConfig lc;
  lc.weight_decay = config.weight_decay;
  return std::make_unique<optim::Lamb>(model.parameters(), lc);
}

double validation_loss(const nn::GptModel& model,
                       const data::TokenDataset& data,
                       const TrainConfig& config) {
  double total = 0.0;
  for (std::int64_t b = 0; b < config.eval_batches; ++b) {
    const auto batch = data.validation_batch(
        std::min<std::int64_t>(config.batch_seqs, 4), config.seq,
        b * std::min<std::int64_t>(config.batch_seqs, 4));
    Tape tape;
    NoGradGuard guard(tape);
    // NoGrad means the loss Var does not require grad; read the value only.
    Var loss = model.loss(tape, batch.tokens, batch.targets, batch.batch,
                          batch.seq, /*training=*/false);
    total += loss.value()[0];
  }
  return total / static_cast<double>(config.eval_batches);
}

// The one step loop both objectives share: sample a batch, record its loss
// (batch_loss), backward, clip, step at the cosine LR, emulate the storage
// precision, and log a curve point with val_loss(train loss) every
// eval_every steps and at the last step.
TrainingCurve train_loop(
    nn::Module& model, data::TokenDataset working, const TrainConfig& config,
    const std::function<Var(Tape&, const data::LmBatch&)>& batch_loss,
    const std::function<double(const data::TokenDataset&, double)>&
        val_loss) {
  config.validate();
  auto optimizer = make_optimizer(config, model);
  optim::CosineSchedule schedule(config.lr, config.steps,
                                 config.warmup_fraction,
                                 config.final_lr_fraction);
  TrainingCurve curve;
  for (std::int64_t step = 0; step < config.steps; ++step) {
    const auto batch = working.sample_batch(config.batch_seqs, config.seq);
    Tape tape;
    Var loss = batch_loss(tape, batch);
    model.zero_grad();
    tape.backward(loss);
    optimizer->clip_grad_norm(config.clip_norm);
    optimizer->step(schedule.lr(step));
    if (config.precision != DType::kFloat32) {
      model.quantize_params(config.precision);
    }
    if (step % config.eval_every == 0 || step + 1 == config.steps) {
      const double train_loss = loss.value()[0];
      curve.points.push_back(
          {step, train_loss, val_loss(working, train_loss)});
    }
  }
  return curve;
}

}  // namespace

TrainingCurve train_gpt(nn::GptModel& model, const data::TokenDataset& data,
                        const TrainConfig& config) {
  return train_loop(
      model, data, config,
      [&](Tape& tape, const data::LmBatch& batch) {
        return model.loss(tape, batch.tokens, batch.targets, batch.batch,
                          batch.seq, /*training=*/true);
      },
      [&](const data::TokenDataset& working, double) {
        return validation_loss(model, working, config);
      });
}

TrainingCurve train_bert(nn::BertEncoder& model,
                         const data::TokenDataset& data,
                         const TrainConfig& config, float mask_prob) {
  Rng mask_rng(config.seed ^ 0x6d61736bULL);
  // The masked-LM curve reports the training loss as its validation loss.
  return train_loop(
      model, data, config,
      [&](Tape& tape, const data::LmBatch& lm) {
        const auto batch = data::to_mlm_batch(lm, tok::SpecialTokens::kMask,
                                              mask_prob, mask_rng);
        return model.mlm_loss(tape, batch.tokens, batch.targets, batch.batch,
                              batch.seq);
      },
      [](const data::TokenDataset&, double train_loss) { return train_loss; });
}

}  // namespace matgpt::core
