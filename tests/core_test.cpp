// Tests for the core pipeline: trainer mechanics (loss descent, schedules,
// precision emulation, the same weight bytes on every thread-pool size),
// config tables, and the comparative-study driver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "core/study.h"
#include "parallel/thread_pool.h"
#include "tensor/kernels.h"

namespace matgpt::core {
namespace {

data::TokenDataset tiny_dataset(const tok::BpeTokenizer& tk) {
  data::MaterialGenerator mgen(51);
  data::AbstractGenerator agen(52);
  std::vector<data::Document> docs;
  const auto mats = mgen.sample_unique(30);
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& m : mats) {
      docs.push_back({"X", agen.materials_abstract(m), false,
                      data::DocDomain::kMaterials});
    }
  }
  return data::TokenDataset(docs, tk, 0.1, 7);
}

tok::BpeTokenizer tiny_tokenizer() {
  data::MaterialGenerator mgen(51);
  data::AbstractGenerator agen(52);
  std::vector<std::string> texts;
  for (const auto& m : mgen.sample_unique(30)) {
    texts.push_back(agen.materials_abstract(m));
  }
  return tok::BpeTokenizer::train(texts, tok::TokenizerKind::kHuggingFace,
                                  380);
}

nn::GptConfig tiny_gpt(std::int32_t vocab) {
  nn::GptConfig c;
  c.vocab_size = vocab;
  c.hidden = 32;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 32;
  return c;
}

TEST(TrainConfig, Validation) {
  TrainConfig c;
  EXPECT_NO_THROW(c.validate());
  c.steps = 0;
  EXPECT_THROW(c.validate(), Error);
  c = TrainConfig{};
  c.batch_seqs = 0;
  EXPECT_THROW(c.validate(), Error);
  c = TrainConfig{};
  c.lr = 0.0;
  EXPECT_THROW(c.validate(), Error);
  // eval_every = 0 would divide by zero in the step loop; eval_batches = 0
  // would average no validation batches into a NaN.
  c = TrainConfig{};
  c.eval_every = 0;
  EXPECT_THROW(c.validate(), Error);
  c = TrainConfig{};
  c.eval_batches = 0;
  EXPECT_THROW(c.validate(), Error);
}

TEST(Trainer, LossDecreasesOnSyntheticCorpus) {
  const auto tk = tiny_tokenizer();
  const auto ds = tiny_dataset(tk);
  nn::GptModel model(tiny_gpt(tk.vocab_size()));
  TrainConfig tc;
  tc.steps = 60;
  tc.batch_seqs = 4;
  tc.seq = 24;
  tc.eval_every = 20;
  const auto curve = train_gpt(model, ds, tc);
  ASSERT_GE(curve.points.size(), 3u);
  EXPECT_LT(curve.final_train_loss(), curve.points.front().train_loss * 0.8);
  EXPECT_LT(curve.final_val_loss(), curve.points.front().val_loss);
  EXPECT_GT(curve.tail_val_loss(2), 0.0);
}

TEST(Trainer, LambPathRuns) {
  const auto tk = tiny_tokenizer();
  const auto ds = tiny_dataset(tk);
  nn::GptModel model(tiny_gpt(tk.vocab_size()));
  TrainConfig tc;
  tc.steps = 30;
  tc.batch_seqs = 8;
  tc.seq = 24;
  tc.optimizer = OptimizerKind::kLamb;
  tc.lr = 6e-3;
  const auto curve = train_gpt(model, ds, tc);
  EXPECT_LT(curve.final_train_loss(), curve.points.front().train_loss);
}

TEST(Trainer, PoolSizeDoesNotChangeTrainedWeights) {
  // The training byte contract serving keeps too: one run on pools of 0
  // (serial), 1, 2, 3 and 7 workers yields the same parameter bytes and the
  // same loss curve. 4 x 32 = 128 rows split into GEMM row groups, and
  // lm_head's 128 x vocab x 64 multiply-adds reach the panel split.
  const auto tk = tiny_tokenizer();
  const auto ds = tiny_dataset(tk);
  TrainConfig tc;
  tc.steps = 8;
  tc.batch_seqs = 4;
  tc.seq = 32;
  tc.eval_every = 3;
  ASSERT_GE(tc.batch_seqs * tc.seq, kernels::kParallelRowThreshold);
  for (const auto arch : {nn::ArchFamily::kNeoX, nn::ArchFamily::kLLaMA}) {
    nn::GptConfig gc = tiny_gpt(tk.vocab_size());
    gc.arch = arch;
    gc.hidden = 64;
    gc.n_heads = 4;
    ASSERT_GE(tc.batch_seqs * tc.seq * gc.vocab_size * gc.hidden,
              kernels::kParallelPanelFmas);
    for (const auto precision : {DType::kFloat32, DType::kBFloat16}) {
      tc.precision = precision;
      std::unique_ptr<nn::GptModel> ref;
      TrainingCurve ref_curve;
      for (const int workers : {0, 1, 2, 3, 7}) {
        SCOPED_TRACE(std::string(nn::arch_name(arch)) + " " +
                     dtype_name(precision) + " on " +
                     std::to_string(workers) + " workers");
        const ScopedThreadPool scope(workers);
        auto model = std::make_unique<nn::GptModel>(gc);
        const auto curve = train_gpt(*model, ds, tc);
        if (!ref) {
          ref = std::move(model);
          ref_curve = curve;
          continue;
        }
        const auto got = model->parameters();
        const auto want = ref->parameters();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          const auto a = got[i].var.value().span();
          const auto b = want[i].var.value().span();
          ASSERT_EQ(a.size(), b.size());
          EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
              << got[i].name;
        }
        ASSERT_EQ(curve.points.size(), ref_curve.points.size());
        for (std::size_t i = 0; i < curve.points.size(); ++i) {
          EXPECT_EQ(curve.points[i].step, ref_curve.points[i].step);
          EXPECT_EQ(curve.points[i].train_loss, ref_curve.points[i].train_loss);
          EXPECT_EQ(curve.points[i].val_loss, ref_curve.points[i].val_loss);
        }
      }
    }
  }
}

// Weights of `model` that are not exactly on the bf16 grid.
std::int64_t off_bf16_grid(const nn::Module& model) {
  std::int64_t off = 0;
  for (const auto& p : model.parameters()) {
    for (std::int64_t j = 0; j < p.var.value().numel(); ++j) {
      const float v = p.var.value()[j];
      if (v != round_bf16(v)) ++off;
    }
  }
  return off;
}

TEST(Trainer, PrecisionEmulationQuantizesWeights) {
  // Both objectives run the same step loop, so bf16 emulation leaves every
  // weight of the GPT and of the BERT stand-in on the bf16 grid.
  const auto tk = tiny_tokenizer();
  const auto ds = tiny_dataset(tk);
  TrainConfig tc;
  tc.steps = 5;
  tc.batch_seqs = 2;
  tc.seq = 16;
  tc.precision = DType::kBFloat16;
  nn::GptModel model(tiny_gpt(tk.vocab_size()));
  train_gpt(model, ds, tc);
  EXPECT_EQ(off_bf16_grid(model), 0);
  nn::BertConfig bc;
  bc.vocab_size = tk.vocab_size();
  bc.hidden = 32;
  bc.n_layers = 2;
  bc.n_heads = 2;
  bc.max_seq = 32;
  nn::BertEncoder bert(bc);
  train_bert(bert, ds, tc);
  EXPECT_EQ(off_bf16_grid(bert), 0);
}

TEST(Trainer, BertPathReducesMlmLoss) {
  const auto tk = tiny_tokenizer();
  const auto ds = tiny_dataset(tk);
  nn::BertConfig bc;
  bc.vocab_size = tk.vocab_size();
  bc.hidden = 32;
  bc.n_layers = 2;
  bc.n_heads = 2;
  bc.max_seq = 32;
  nn::BertEncoder bert(bc);
  TrainConfig tc;
  tc.steps = 40;
  tc.batch_seqs = 4;
  tc.seq = 24;
  const auto curve = train_bert(bert, ds, tc);
  EXPECT_LT(curve.final_train_loss(), curve.points.front().train_loss);
}

TEST(Configs, Table2MatchesThePaper) {
  const auto specs = table2_specs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].hidden, 2304);
  EXPECT_EQ(specs[0].head_dim, 96);
  EXPECT_EQ(specs[1].hidden, 4096);
  EXPECT_EQ(specs[1].head_dim, 128);
  for (const auto& s : specs) {
    EXPECT_EQ(s.hidden / s.n_heads, s.head_dim);
  }
}

TEST(Configs, Table3MatchesThePaper) {
  const auto rows = table3_rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_STREQ(rows[0].optimizer, "Adam");
  EXPECT_DOUBLE_EQ(rows[0].beta2, 0.95);
  EXPECT_STREQ(rows[1].optimizer, "LAMB");
  EXPECT_DOUBLE_EQ(rows[1].beta2, 0.999);
  EXPECT_DOUBLE_EQ(rows[1].lr, 0.01);
  EXPECT_STREQ(rows[2].batch_tokens, "4M");
}

TEST(Configs, Fig13GridCoversTheStudyDimensions) {
  const auto specs = fig13_experiments();
  ASSERT_GE(specs.size(), 8u);
  bool has_spm = false, has_small_vocab = false, has_adam = false,
       has_big = false, has_neox = false;
  for (const auto& s : specs) {
    has_spm |= s.tokenizer == tok::TokenizerKind::kSentencePiece;
    has_small_vocab |= s.vocab < 512;
    has_adam |= s.optimizer == OptimizerKind::kAdam;
    has_big |= s.big_model;
    has_neox |= s.arch == nn::ArchFamily::kNeoX;
  }
  EXPECT_TRUE(has_spm && has_small_vocab && has_adam && has_big && has_neox);
}

TEST(Configs, ScaledModelsKeepTheSizeOrdering) {
  ExperimentSpec small;
  ExperimentSpec big;
  big.big_model = true;
  const auto cs = scaled_model_config(small, 32);
  const auto cb = scaled_model_config(big, 32);
  nn::GptModel ms(cs), mb(cb);
  EXPECT_GT(mb.param_count(), 2 * ms.param_count());
}

TEST(Study, PipelinePreparesAndScreens) {
  StudyConfig sc;
  sc.corpus_scale = 4e-6;
  sc.n_materials = 60;
  sc.steps = 10;
  sc.seq = 24;
  ComparativeStudy study(sc);
  study.prepare_corpus();
  EXPECT_FALSE(study.screened_corpus().empty());
  EXPECT_EQ(study.materials().size(), 60u);
  EXPECT_GT(study.screen_quality().precision, 0.8);
  EXPECT_GT(study.screen_quality().recall, 0.8);
  // Screened corpus keeps mostly materials docs.
  std::size_t mat = 0;
  for (const auto& d : study.screened_corpus()) {
    mat += d.domain == data::DocDomain::kMaterials;
  }
  EXPECT_GT(static_cast<double>(mat) / study.screened_corpus().size(), 0.8);
}

TEST(Study, DiskCacheRoundTripsExperiments) {
  StudyConfig sc;
  sc.corpus_scale = 4e-6;
  sc.n_materials = 60;
  sc.steps = 8;
  sc.seq = 24;
  sc.cache_dir = "/tmp/matgpt_study_cache_test";
  std::filesystem::remove_all(sc.cache_dir);
  std::filesystem::create_directories(sc.cache_dir);
  ExperimentSpec spec{"cached", nn::ArchFamily::kLLaMA,
                      tok::TokenizerKind::kHuggingFace, 400,
                      OptimizerKind::kAdam, 4, false, DType::kFloat32};
  ComparativeStudy study(sc);
  const auto first = study.run_experiment(spec);

  // A fresh study instance must reload identical weights from disk.
  ComparativeStudy reloaded(sc);
  const auto second = reloaded.run_experiment(spec);
  const auto pa = first.model->parameters();
  const auto pb = second.model->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i].var.value().numel(); ++j) {
      ASSERT_EQ(pa[i].var.value()[j], pb[i].var.value()[j]) << pa[i].name;
    }
  }
  ASSERT_EQ(first.curve.points.size(), second.curve.points.size());
  EXPECT_EQ(first.curve.final_val_loss(), second.curve.final_val_loss());

  // A different spec must miss the cache (different key).
  ExperimentSpec other = spec;
  other.batch_seqs = 8;
  const auto third = reloaded.run_experiment(other);
  EXPECT_NE(third.curve.final_val_loss(), first.curve.final_val_loss());
}

TEST(Study, TokenizersAreCachedAndExperimentsRun) {
  StudyConfig sc;
  sc.corpus_scale = 4e-6;
  sc.n_materials = 60;
  sc.steps = 8;
  sc.seq = 24;
  ComparativeStudy study(sc);
  ExperimentSpec a{"a", nn::ArchFamily::kLLaMA,
                   tok::TokenizerKind::kHuggingFace, 400,
                   OptimizerKind::kAdam, 4, false, DType::kFloat32};
  ExperimentSpec b = a;
  b.label = "b";
  b.arch = nn::ArchFamily::kNeoX;
  const auto ra = study.run_experiment(a);
  const auto rb = study.run_experiment(b);
  // Same (kind, vocab) => the identical tokenizer object (controlled study).
  EXPECT_EQ(ra.tokenizer.get(), rb.tokenizer.get());
  EXPECT_FALSE(ra.curve.points.empty());
  EXPECT_EQ(ra.model->config().arch, nn::ArchFamily::kLLaMA);
  EXPECT_EQ(rb.model->config().arch, nn::ArchFamily::kNeoX);
}

}  // namespace
}  // namespace matgpt::core
