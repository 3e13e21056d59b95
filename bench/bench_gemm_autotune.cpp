// The GEMM paths that serve, timed as they serve: the analytic cost
// model's predicted-vs-measured loop (the AMOS idiom at CPU scale), the
// packed bf16/int8 decode GEMM against packed fp32 on the serving engine's
// lm_head shape, and the int8 decode path's accuracy and identity gates.
//
// The serving engine's GEMMs live in the *streaming* regime: every decode
// step re-reads weight matrices far larger than cache while M is tiny, so
// a batch-1 decode GEMM is bound by the bytes of its weights. A prepared
// model's layers run packed panels (kernels::gemm_packed) in every weight
// format; fp32 over row-major B (kernels::gemm_nn) runs training and
// prefill on a model no engine has prepared. All measurements here cycle
// through enough weight copies to defeat the LLC, matching the engine's
// cold-weights reality.
//
// Phases:
//   1. calibration — the measured host anchors the model extrapolates from;
//   2. predicted vs measured — relative error over a shape grid of
//      row-major fp32 weights (gate: median error <= 50%: a model anchored
//      on measured reference shapes must extrapolate to the rest), and for
//      the record the same shapes over packed fp32 and int8 panels;
//   3. quantized vs fp32 decode — packed_int8_decode_speedup and
//      packed_bf16_decode_speedup: cold packed int8 / bf16 weights against
//      cold packed fp32 at M=1 on lm_head (256->8192), cycles paired ABBA;
//   4. roofline (no gate) — servebench's model shape (hidden 256, kv 64,
//      ffn 704, vocab 8192): each packed fp32 job of a decode step at
//      m = 1, 4 and 16, its time, weight GB/s and GFLOP/s next to the
//      host's streaming rates and packed peak, and the step's packed /
//      row-major time on pools of 0 and 3 workers, at the active kernel
//      width. Hosts differ in whether they have AVX-512, so none of it is
//      gated;
//   5. accuracy — int8 decode logit error vs fp32 on a serving-shaped
//      model (exact_max gate) and token identity: engine int8 (batched,
//      chunked prefill, speculative) vs batch-1 generate_cached int8,
//      zero mismatches allowed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "nn/gpt.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "serve/spec/proposer.h"
#include "tensor/gemm_tune.h"
#include "tensor/kernels.h"

using namespace matgpt;
using Clock = std::chrono::steady_clock;
using kernels::WeightFormat;

namespace {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::vector<float> pattern_matrix(std::int64_t rows, std::int64_t cols,
                                  std::uint64_t seed) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + 1;
  for (float& v : m) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    v = static_cast<float>(static_cast<std::int64_t>(h % 2001) - 1000) /
        1000.0f;
  }
  return m;
}

/// One GEMM shape's cold-weights working set: enough weight copies that
/// cycling through them defeats the last-level cache between timed calls.
/// `packed` copies hold kernels::pack_panels' layout, as a served model's
/// layers do; bf16/int8 sidecars exist only packed.
struct ColdWeights {
  std::int64_t k = 0, n = 0;
  WeightFormat format = WeightFormat::kF32;
  bool packed = false;
  std::size_t copies = 0;
  std::vector<std::vector<float>> f32;
  std::vector<gemm_tune::QuantWeights> quant;

  ColdWeights(std::int64_t k_, std::int64_t n_, WeightFormat format_,
              bool packed_)
      : k(k_), n(n_), format(format_), packed(packed_) {
    // >= 96 MB in the format actually streamed — int8 weights are 4x
    // smaller than fp32, so sizing by the fp32 footprint would leave the
    // int8 working set LLC-resident and the "cold" numbers hot.
    const std::size_t elems = static_cast<std::size_t>(k * n);
    const std::size_t bytes =
        format == WeightFormat::kF32
            ? elems * 4
            : (format == WeightFormat::kBf16 ? elems * 2 : elems);
    copies = std::max<std::size_t>(4, (96u << 20) / bytes);
    for (std::size_t i = 0; i < copies; ++i) {
      auto w = pattern_matrix(k, n, 77 + i);
      if (packed) kernels::pack_panels(w.data(), k, n);
      if (format == WeightFormat::kF32) {
        f32.push_back(std::move(w));
      } else {
        quant.push_back(gemm_tune::quantize_weights(w.data(), k, n, format));
      }
    }
  }
};

/// Seconds per call over one pass of the working set, as it serves:
/// gemm_packed over packed copies, gemm_nn over row-major ones.
double one_cycle(const ColdWeights& w, const float* a, float* c,
                 std::int64_t m) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < w.copies; ++i) {
    if (!w.packed) {
      kernels::gemm_nn(a, w.f32[i].data(), c, m, w.n, w.k,
                       /*accumulate=*/false);
      continue;
    }
    kernels::PackedGemm g{nullptr, nullptr, c, w.n};
    switch (w.format) {
      case WeightFormat::kF32: g.b = w.f32[i].data(); break;
      case WeightFormat::kBf16: g.b = w.quant[i].bf16.data(); break;
      case WeightFormat::kInt8:
        g.b = w.quant[i].q8.data();
        g.scale = w.quant[i].scale.data();
        break;
    }
    kernels::gemm_packed(a, m, w.k, w.format, {&g, 1});
  }
  return (now_s() - t0) / static_cast<double>(w.copies);
}

/// Best-of-5 seconds per call over the cold working set.
double time_cold(const ColdWeights& w, std::int64_t m) {
  const auto a = pattern_matrix(m, w.k, 5);
  std::vector<float> c(static_cast<std::size_t>(m * w.n));
  double best = 1e30;
  for (int cycle = 0; cycle < 5; ++cycle) {
    best = std::min(best, one_cycle(w, a.data(), c.data(), m));
  }
  return best;
}

/// Time two working sets of one shape with their cycles interleaved in
/// ABBA order, so slow drift on a shared host hits both equally, and
/// return the best of 16 cycles each — enough rounds that both sides land
/// quiet windows and the min converges. Comparing two independent
/// time_cold calls is NOT reliable here: back-to-back runs of the identical
/// GEMM were observed 40% apart. Strict ABAB ordering is not enough either
/// — under progressive frequency throttling the first slot always runs
/// earlier on average, which showed up as an 11% bias between identical
/// GEMMs.
std::pair<double, double> time_cold_pair(const ColdWeights& w1,
                                         const ColdWeights& w2,
                                         std::int64_t m) {
  const auto a = pattern_matrix(m, w1.k, 5);
  std::vector<float> c(static_cast<std::size_t>(m * w1.n));
  double best1 = 1e30, best2 = 1e30;
  for (int round = 0; round < 8; ++round) {
    const bool swap = (round % 2) != 0;
    const ColdWeights& first = swap ? w2 : w1;
    const ColdWeights& second = swap ? w1 : w2;
    double& bf = swap ? best2 : best1;
    double& bs = swap ? best1 : best2;
    bf = std::min(bf, one_cycle(first, a.data(), c.data(), m));
    bs = std::min(bs, one_cycle(second, a.data(), c.data(), m));
    bs = std::min(bs, one_cycle(second, a.data(), c.data(), m));
    bf = std::min(bf, one_cycle(first, a.data(), c.data(), m));
  }
  return {best1, best2};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double gflops(std::int64_t m, std::int64_t n, std::int64_t k, double secs) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / secs / 1e9;
}

// ---------------------------------------------------------------------------
// Roofline: one decode step's GEMMs at servebench's model shape
// ---------------------------------------------------------------------------

/// One job of a decode step: GEMMs sharing A, as the layers run them.
struct StepJob {
  const char* name;
  std::int64_t k;
  std::vector<std::int64_t> ns;
};

const std::vector<StepJob>& step_jobs() {
  static const std::vector<StepJob> jobs = {{"qkv", 256, {256, 64, 64}},
                                            {"o", 256, {256}},
                                            {"gate_up", 256, {704, 704}},
                                            {"down", 704, {256}},
                                            {"lm_head", 256, {8192}}};
  return jobs;
}

constexpr int kStepLayers = 4;

/// Every weight of a step (four layers of q|k|v, o, gate|up and down, then
/// lm_head), fp32, both row-major and packed.
struct StepWeights {
  // [layer * jobs + job][gemm], lm_head as layer 0 of the last job only.
  std::vector<std::vector<std::vector<float>>> row_major, packed;

  StepWeights() {
    std::uint64_t seed = 900;
    for (int layer = 0; layer < kStepLayers; ++layer) {
      for (const StepJob& job : step_jobs()) {
        std::vector<std::vector<float>> rm, pk;
        for (const std::int64_t n : job.ns) {
          rm.push_back(pattern_matrix(job.k, n, seed++));
          pk.push_back(rm.back());
          kernels::pack_panels(pk.back().data(), job.k, n);
        }
        row_major.push_back(std::move(rm));
        packed.push_back(std::move(pk));
      }
    }
  }

  /// Run job `j` of `layer` on the calling thread's pool: packed through
  /// gemm_packed, or row-major one gemm_nn per GEMM.
  void run(int layer, std::size_t j, const float* a, float* c,
           std::int64_t m, bool packed_b) const {
    const StepJob& job = step_jobs()[j];
    const std::size_t at = static_cast<std::size_t>(layer) *
                               step_jobs().size() + j;
    std::vector<kernels::PackedGemm> gemms;
    float* out = c;
    for (std::size_t g = 0; g < job.ns.size(); ++g) {
      if (packed_b) {
        gemms.push_back({packed[at][g].data(), nullptr, out, job.ns[g]});
      } else {
        kernels::gemm_nn(a, row_major[at][g].data(), out, m, job.ns[g], job.k,
                         /*accumulate=*/false);
      }
      out += m * job.ns[g];
    }
    if (packed_b) kernels::gemm_packed(a, m, job.k, kernels::WeightFormat::kF32,
                                       gemms);
  }

  /// One step: every layer's four jobs, then lm_head.
  void step(const float* a, float* c, std::int64_t m, bool packed_b) const {
    const std::size_t lm_head = step_jobs().size() - 1;
    for (int layer = 0; layer < kStepLayers; ++layer) {
      for (std::size_t j = 0; j < lm_head; ++j) run(layer, j, a, c, m, packed_b);
    }
    run(0, lm_head, a, c, m, packed_b);
  }
};

/// Median of 21 timed calls of `fn`, in seconds, best of 3 rounds.
template <typename Fn>
double median_seconds(const Fn& fn) {
  double best = 1e30;
  for (int round = 0; round < 3; ++round) {
    std::vector<double> t;
    for (int r = 0; r < 21; ++r) {
      const double t0 = now_s();
      fn();
      t.push_back(now_s() - t0);
    }
    std::sort(t.begin(), t.end());
    best = std::min(best, t[t.size() / 2]);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Accuracy harness model (the serving shape matgpt_cli uses)
// ---------------------------------------------------------------------------

nn::GptConfig serving_config() {
  nn::GptConfig c;
  c.arch = nn::ArchFamily::kLLaMA;
  c.vocab_size = 8192;
  c.hidden = 256;
  c.n_layers = 4;
  c.n_heads = 8;
  c.n_kv_heads = 2;
  c.max_seq = 128;
  return c;
}

std::vector<std::int32_t> make_prompt(std::int64_t vocab, std::uint64_t tag,
                                      std::int64_t len) {
  std::vector<std::int32_t> prompt(static_cast<std::size_t>(len));
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ (tag * 0x100000001b3ull);
  for (auto& t : prompt) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    t = static_cast<std::int32_t>(h % static_cast<std::uint64_t>(vocab));
  }
  return prompt;
}

serve::Request greedy_request(std::uint64_t id,
                              std::vector<std::int32_t> prompt,
                              std::int64_t max_new) {
  serve::Request r;
  r.id = id;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new;
  r.sampling.temperature = 0.0f;
  r.sampling.seed = 0x5e55 + id;
  return r;
}

/// Count requests whose engine tokens differ from batch-1 generate_cached
/// under the model's currently installed decode format.
std::size_t identity_mismatches(serve::InferenceEngine& engine,
                                const nn::GptModel& model,
                                std::size_t n_requests, std::int64_t max_new,
                                bool speculative) {
  std::vector<serve::Request> trace;
  for (std::size_t i = 0; i < n_requests; ++i) {
    auto req = greedy_request(1 + i,
                              make_prompt(model.config().vocab_size, 31 + i,
                                          6 + static_cast<std::int64_t>(i) % 9),
                              max_new);
    if (speculative) req.spec_k = 2;
    trace.push_back(std::move(req));
  }
  const auto reference = trace;
  const auto results = engine.run_trace(std::move(trace));
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    Rng rng(reference[i].sampling.seed);
    const auto expected =
        model.generate_cached(reference[i].prompt,
                              reference[i].max_new_tokens,
                              reference[i].sampling, rng);
    if (results[i].tokens != expected) ++mismatches;
  }
  return mismatches;
}

}  // namespace

int main() {
  bench::print_header("GEMM paths that serve + int8 decode",
                      "cost model, packed quantized decode, int8 accuracy");
  if (!kernels::gemm_simd_active()) {
    std::printf("WARNING: SIMD dispatch inactive (portable build / no AVX2); "
                "every GEMM runs the scalar loops.\n");
  }

  // --- 1. calibration -------------------------------------------------------
  bench::print_section("host anchors (measured reference shapes)");
  const auto& anchors = gemm_tune::host_anchors();
  std::printf("hot compute peaks: f32 %.1f (row-major) / %.1f (packed) / "
              "bf16 %.1f / int8 %.1f GFLOP/s on one thread (bf16/int8 "
              "packed), f32 %.1f GFLOP/s on %zu\n",
              anchors.f32_gflops, anchors.packed_f32_gflops,
              anchors.bf16_gflops, anchors.int8_gflops,
              anchors.pool_f32_gflops, anchors.threads);
  std::printf("streaming weight bandwidth: %.1f GB/s on one thread, %.1f GB/s "
              "on %zu\n",
              anchors.stream_gbs, anchors.pool_stream_gbs, anchors.threads);

  // --- 2. predicted vs measured --------------------------------------------
  bench::print_section("cost model: predicted vs measured (cold weights)");
  struct GridShape {
    std::int64_t m, n, k;
  };
  const GridShape grid[] = {{1, 2048, 512}, {4, 2048, 512}, {8, 2048, 512},
                            {1, 8192, 256}, {8, 512, 512}};
  auto check = [&](const GridShape& s, const ColdWeights& w) {
    const double predicted = gemm_tune::predict_seconds(
        s.m, s.n, s.k, w.format, anchors, w.packed);
    const double measured = time_cold(w, s.m);
    const double err = std::abs(predicted - measured) / measured;
    std::printf("  %4s %2lldx%lldx%lld%s: predicted %7.1f us, measured "
                "%7.1f us (%.1f GFLOP/s), err %4.0f%%\n",
                kernels::format_name(w.format), static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                w.packed ? " packed" : "", predicted * 1e6, measured * 1e6,
                gflops(s.m, s.n, s.k, measured), 100 * err);
    return err;
  };
  // The gate: row-major fp32, the only format row-major B runs.
  std::vector<double> rel_errors;
  double worst_err = 0.0;
  for (const auto& s : grid) {
    const double err =
        check(s, ColdWeights(s.k, s.n, WeightFormat::kF32, /*packed=*/false));
    rel_errors.push_back(err);
    worst_err = std::max(worst_err, err);
  }
  const double predict_error_median = median(rel_errors);
  std::printf("relative error: median %.0f%%, worst %.0f%% over %zu points\n",
              100 * predict_error_median, 100 * worst_err, rel_errors.size());
  // For the record (no gate): the same grid over packed panels, the
  // layout a served model's layers run.
  std::vector<double> packed_errors;
  for (const auto format : {WeightFormat::kF32, WeightFormat::kInt8}) {
    for (const auto& s : grid) {
      packed_errors.push_back(
          check(s, ColdWeights(s.k, s.n, format, /*packed=*/true)));
    }
  }
  const double packed_predict_error_median = median(packed_errors);
  std::printf("packed relative error: median %.0f%% over %zu points\n",
              100 * packed_predict_error_median, packed_errors.size());

  // --- 3. quantized vs fp32 decode -----------------------------------------
  // Batch-1 decode through the lm_head shape (k=256 -> n=8192, this file's
  // accuracy-model head), the largest GEMM of a decode step: packed
  // quantized weights stream 2x (bf16) or 4x (int8) fewer bytes than
  // packed fp32, on the pool the engine runs them on.
  bench::print_section("packed quantized vs packed fp32 decode (M=1, cold)");
  const ColdWeights head_f32(256, 8192, WeightFormat::kF32, /*packed=*/true);
  double packed_int8_decode_speedup = 0.0;
  double packed_bf16_decode_speedup = 0.0;
  for (const auto format : {WeightFormat::kInt8, WeightFormat::kBf16}) {
    const ColdWeights head_q(256, 8192, format, /*packed=*/true);
    const auto [t_f32, t_q] = time_cold_pair(head_f32, head_q, 1);
    const double speedup = t_f32 / t_q;
    (format == WeightFormat::kInt8 ? packed_int8_decode_speedup
                                   : packed_bf16_decode_speedup) = speedup;
    std::printf("%-4s M=1 lm_head (256->8192): f32 %.1f us vs %s %.1f us -> "
                "%.2fx\n",
                kernels::format_name(format), t_f32 * 1e6,
                kernels::format_name(format), t_q * 1e6, speedup);
  }

  // --- 4. roofline at servebench's model shape -----------------------------
  bench::print_section("roofline: packed fp32 decode-step jobs (no gate)");
  const char* width = kernels::gemm_width_name();
  const double width_bits = std::string(width) == "avx512"
                                ? 512.0
                                : (std::string(width) == "avx2" ? 256.0 : 0.0);
  std::printf("kernel width %s; host: stream %.1f GB/s on one thread, "
              "%.1f GB/s on %zu; packed fp32 peak %.1f GFLOP/s on one "
              "thread\n",
              width, anchors.stream_gbs, anchors.pool_stream_gbs,
              anchors.threads, anchors.packed_f32_gflops);
  std::vector<std::pair<std::string, double>> roofline;
  const StepWeights step_weights;
  {
    const auto a = pattern_matrix(16, 704, 3);
    std::vector<float> c(16 * 8192);
    std::printf("%-8s %4s %10s %10s %10s  (pool of %zu workers)\n", "job",
                "m", "us", "weight GB/s", "GFLOP/s",
                ThreadPool::current().worker_count());
    for (std::size_t j = 0; j < step_jobs().size(); ++j) {
      const StepJob& job = step_jobs()[j];
      std::int64_t n = 0;
      for (const std::int64_t w : job.ns) n += w;
      for (const std::int64_t m : {1, 4, 16}) {
        const double secs = median_seconds([&] {
          step_weights.run(0, j, a.data(), c.data(), m, /*packed_b=*/true);
        });
        const double gbs = static_cast<double>(n * job.k) * 4.0 / secs / 1e9;
        const double gf = gflops(m, n, job.k, secs);
        std::printf("%-8s %4lld %10.1f %10.1f %10.1f\n", job.name,
                    static_cast<long long>(m), secs * 1e6, gbs, gf);
        const std::string key = std::string("roofline_") + job.name + "_m" +
                                std::to_string(m);
        roofline.push_back({key + "_us", secs * 1e6});
        roofline.push_back({key + "_weight_gbs", gbs});
        roofline.push_back({key + "_gflops", gf});
      }
    }
    for (const std::size_t workers : {0u, 3u}) {
      const ScopedThreadPool pool(workers);
      for (const std::int64_t m : {4, 16}) {
        const double packed_s = median_seconds(
            [&] { step_weights.step(a.data(), c.data(), m, true); });
        const double row_major_s = median_seconds(
            [&] { step_weights.step(a.data(), c.data(), m, false); });
        std::printf("step m=%-2lld on %zu workers: packed %.0f us, row-major "
                    "%.0f us, packed/row-major %.2f\n",
                    static_cast<long long>(m), workers, packed_s * 1e6,
                    row_major_s * 1e6, packed_s / row_major_s);
        roofline.push_back({"step_packed_over_row_major_m" +
                                std::to_string(m) + "_w" +
                                std::to_string(workers),
                            packed_s / row_major_s});
      }
    }
  }
  roofline.push_back({"stream_gbs", anchors.stream_gbs});
  roofline.push_back({"pool_stream_gbs", anchors.pool_stream_gbs});
  roofline.push_back({"packed_f32_gflops", anchors.packed_f32_gflops});
  roofline.push_back({"kernel_width_bits", width_bits});

  // --- 5. accuracy: int8 decode vs fp32 ------------------------------------
  bench::print_section("int8 decode accuracy (serving-shaped model)");
  const nn::GptConfig mc = serving_config();
  nn::GptModel model(mc);
  const auto prompt = make_prompt(mc.vocab_size, 7, 16);
  const int steps = 16;
  auto step_token = [&](int s) {
    return static_cast<std::int32_t>((prompt[s % prompt.size()] + s) %
                                     mc.vocab_size);
  };
  std::vector<std::vector<float>> ref_logits;
  model.prepare_decode_quant(WeightFormat::kF32);
  {
    nn::KvCache cache;
    Tape t0;
    model.forward_incremental(t0, prompt, cache);
    for (int s = 0; s < steps; ++s) {
      Tape t;
      const std::int32_t tok = step_token(s);
      Var lg = model.forward_incremental(
          t, std::span<const std::int32_t>(&tok, 1), cache);
      ref_logits.emplace_back(lg.value().data(),
                              lg.value().data() + mc.vocab_size);
    }
  }
  model.prepare_decode_quant(WeightFormat::kInt8);
  double int8_logit_max_abs_err = 0.0;
  double max_abs_logit = 0.0;
  std::int64_t argmax_agree = 0;
  {
    nn::KvCache cache;
    Tape t0;
    model.forward_incremental(t0, prompt, cache);
    for (int s = 0; s < steps; ++s) {
      Tape t;
      const std::int32_t tok = step_token(s);
      Var lg = model.forward_incremental(
          t, std::span<const std::int32_t>(&tok, 1), cache);
      const float* q = lg.value().data();
      std::int64_t ra = 0, qa = 0;
      for (std::int64_t v = 0; v < mc.vocab_size; ++v) {
        max_abs_logit = std::max(max_abs_logit,
                                 std::abs(static_cast<double>(
                                     ref_logits[s][v])));
        int8_logit_max_abs_err =
            std::max(int8_logit_max_abs_err,
                     std::abs(static_cast<double>(q[v]) - ref_logits[s][v]));
        if (ref_logits[s][v] > ref_logits[s][ra]) ra = v;
        if (q[v] > q[qa]) qa = v;
      }
      if (ra == qa) ++argmax_agree;
    }
  }
  std::printf("teacher-forced logits over %d steps: max |err| %.2e "
              "(max |logit| %.3f), argmax agreement %lld/%d\n",
              steps, int8_logit_max_abs_err, max_abs_logit,
              static_cast<long long>(argmax_agree), steps);

  // Token identity WITHIN the int8 format: the engine (batched decode,
  // chunked prefill, speculative verify) against batch-1 generate_cached on
  // the same quantized weights. fp32-vs-int8 token equality is not a
  // meaningful gate on a random-init model; within-format byte identity is
  // the property the engine guarantees.
  bench::print_section("int8 token identity: engine vs generate_cached");
  std::size_t int8_identity_mismatches = 0;
  {
    serve::EngineConfig ec;
    ec.max_batch = 4;
    ec.kv_slots = 4;
    ec.decode_quant = WeightFormat::kInt8;
    ec.prefill_chunk_tokens = 3;
    serve::InferenceEngine engine(model, ec);
    const std::size_t m = identity_mismatches(engine, model, 8, 10, false);
    std::printf("chunked prefill (3-token chunks): %zu/8 mismatches\n", m);
    int8_identity_mismatches += m;
  }
  {
    serve::EngineConfig ec;
    ec.max_batch = 4;
    ec.kv_slots = 4;
    ec.decode_quant = WeightFormat::kInt8;
    ec.proposer = std::make_shared<serve::spec::LayerSkipDraft>(model, 2);
    serve::InferenceEngine engine(model, ec);
    const std::size_t m = identity_mismatches(engine, model, 8, 12, true);
    std::printf("speculative (k=2, layer-skip draft): %zu/8 mismatches\n", m);
    int8_identity_mismatches += m;
  }
  {
    serve::EngineConfig ec;
    ec.max_batch = 4;
    ec.kv_slots = 4;
    ec.decode_quant = WeightFormat::kInt8;
    serve::InferenceEngine engine(model, ec);
    const std::size_t m = identity_mismatches(engine, model, 10, 12, false);
    std::printf("batched: %zu/10 mismatches\n", m);
    int8_identity_mismatches += m;
  }
  model.prepare_decode_quant(WeightFormat::kF32);

  std::vector<std::pair<std::string, double>> metrics = {
      {"packed_int8_decode_speedup", packed_int8_decode_speedup},
       {"packed_bf16_decode_speedup", packed_bf16_decode_speedup},
       {"predict_error_median", predict_error_median},
       {"packed_predict_error_median", packed_predict_error_median},
       {"predict_error_worst", worst_err},
       {"int8_logit_max_abs_err", int8_logit_max_abs_err},
       {"int8_argmax_agreement",
        static_cast<double>(argmax_agree) / static_cast<double>(steps)},
       {"int8_identity_mismatches",
        static_cast<double>(int8_identity_mismatches)}};
  metrics.insert(metrics.end(), roofline.begin(), roofline.end());
  bench::write_bench_json("BENCH_gemm.json", metrics);
  return 0;
}
