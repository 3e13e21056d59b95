// matgpt_cli: a command-line front end to the library, the shape of tool an
// open-source release of the paper's system would ship.
//
//   matgpt_cli corpus  [scale]                 synthesize + screen a corpus
//   matgpt_cli train   <neox|llama> [steps] [dir]   pre-train + checkpoint
//   matgpt_cli generate <dir> [--temp T] [--top-k K] [--top-p P] [--seed S]
//       <prompt...>                            sample from a checkpoint
//   matgpt_cli simulate <1.7b|6.7b> <gcds> <dp|zero1|tp2|pp2>
//   matgpt_cli search  <min_B> <max_B>         architecture search
//   matgpt_cli serve-bench [requests] [clients] [--spec-k N] [--draft-layers M]
//       [--prefix-cache-mb B] [--scheduler fcfs|priority] [--prefill-chunk C]
//       [--priority-mix H:L] [--deadline-ms D]
//       continuous-batching demo; --spec-k enables speculative decoding with
//       a self-speculative layer-skip draft of M layers; --prefix-cache-mb
//       gives the prompt prefix cache a budget of B MB and switches the trace
//       to a shared-system-prompt workload; --scheduler picks the admission
//       policy, --prefill-chunk caps prefill slices at C tokens,
//       --priority-mix tags fractions H/L of requests high/low priority, and
//       --deadline-ms gives high-priority requests a D-ms SLO deadline;
//       --host-tier-mb/--disk-tier-mb/--spill-dir budget the tiered KV
//       store (parked sessions + preemption survival; 0 = unbounded host,
//       disk disabled);
//       --decode-quant int8|bf16|off runs decode/verify forwards on
//       weight-quantized kernels (prefill stays fp32);
//       --embed-fraction/--constrained-fraction mix embedding and
//       JSON-grammar-constrained requests into the trace (--embed-batch
//       caps sequences per embedding forward; --map-classes maps
//       constrained -> high / embed -> low priority, needs --scheduler
//       priority);
//       --json prints the run's ServerStats as one JSON document instead of
//       the human-readable report
//   matgpt_cli serve-http [--port P] [--host-tier-mb B] [--disk-tier-mb B]
//       [--spill-dir DIR] [--embed] [--grammar] [--decode-quant F]
//       start the epoll HTTP front end (POST /v1/generate streams tokens as
//       chunked transfer encoding, DELETE /v1/requests/{id} cancels,
//       POST /v1/sessions + /v1/sessions/{id}/generate run multi-turn
//       conversations over the tiered KV store, GET /v1/stats reports)
//       over a random-init serving-shaped model; --embed serves batched
//       vectors on POST /v1/embeddings through a random-init BERT encoder,
//       --grammar registers a compiled JSON-subset grammar named "json"
//       for constrained /v1/generate requests; runs until SIGINT/SIGTERM,
//       then drains gracefully
//   matgpt_cli load-gen --port P [--requests N] [--rate R] [--concurrency C]
//       [--seed S] [--slo-ms M]
//       socket-level load harness against a running serve-http: open-loop
//       Poisson arrivals at R req/s (deterministic per seed), or closed-loop
//       at fixed concurrency when --rate is omitted; prints a JSON report
//       with goodput-under-SLO, p99 TTFT, and shed rate
//
// Checkpoints written by `train` (model.ckpt + tokenizer.txt) are reloaded
// by `generate`.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "core/study.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "nn/bert.h"
#include "nn/serialize.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "serve/workloads/grammar.h"
#include "simfrontier/archsearch.h"

using namespace matgpt;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  matgpt_cli corpus [scale]\n"
               "  matgpt_cli train <neox|llama> [steps] [dir]\n"
               "  matgpt_cli generate <dir> [--temp T] [--top-k K]"
               " [--top-p P] [--seed S] <prompt...>\n"
               "  matgpt_cli simulate <1.7b|6.7b> <gcds> <dp|zero1|tp2|pp2>\n"
               "  matgpt_cli search <min_params_B> <max_params_B>\n"
               "  matgpt_cli serve-bench [requests] [clients]"
               " [--spec-k N] [--draft-layers M] [--prefix-cache-mb B]\n"
               "      [--scheduler fcfs|priority] [--prefill-chunk C]"
               " [--priority-mix H:L] [--deadline-ms D]\n"
               "      [--host-tier-mb B] [--disk-tier-mb B]"
               " [--spill-dir DIR]\n"
               "      [--embed-fraction F] [--constrained-fraction F]"
               " [--embed-batch N] [--map-classes]\n"
               "      [--decode-quant int8|bf16|off] [--json]\n"
               "  matgpt_cli serve-http [--port P]"
               " [--host-tier-mb B] [--disk-tier-mb B] [--spill-dir DIR]\n"
               "      [--embed] [--grammar] [--decode-quant int8|bf16|off]\n"
               "  matgpt_cli load-gen --port P [--requests N] [--rate R]"
               " [--concurrency C] [--seed S] [--slo-ms M]\n");
  return 2;
}

core::StudyConfig cli_study_config() {
  core::StudyConfig sc;
  sc.corpus_scale = 8e-6;
  sc.n_materials = 150;
  sc.seq = 48;
  sc.steps = 200;
  return sc;
}

int cmd_corpus(double scale) {
  core::StudyConfig sc = cli_study_config();
  if (scale > 0) sc.corpus_scale = scale;
  core::ComparativeStudy study(sc);
  study.prepare_corpus();
  std::printf("screened documents: %zu\n", study.screened_corpus().size());
  std::printf("materials in pool:  %zu\n", study.materials().size());
  std::printf("screen precision %.3f recall %.3f\n",
              study.screen_quality().precision,
              study.screen_quality().recall);
  std::printf("sample document:\n  %s\n",
              study.screened_corpus().front().text.c_str());
  return 0;
}

int cmd_train(const std::string& arch, std::int64_t steps,
              const std::string& dir) {
  core::StudyConfig sc = cli_study_config();
  if (steps > 0) sc.steps = steps;
  core::ComparativeStudy study(sc);
  core::ExperimentSpec spec;
  spec.label = "cli-" + arch;
  spec.arch = arch == "neox" ? nn::ArchFamily::kNeoX : nn::ArchFamily::kLLaMA;
  const auto result = study.run_experiment(spec);
  std::printf("trained %s: %lld params, final val loss %.3f\n",
              spec.label.c_str(),
              static_cast<long long>(result.model->param_count()),
              result.curve.final_val_loss());
  std::filesystem::create_directories(dir);
  nn::save_parameters_file(*result.model, dir + "/model.ckpt");
  std::ofstream tk(dir + "/tokenizer.txt");
  tk << result.tokenizer->save();
  // Record the architecture so `generate` can rebuild the config.
  std::ofstream meta(dir + "/config.txt");
  meta << (spec.arch == nn::ArchFamily::kNeoX ? "neox" : "llama") << " "
       << result.model->config().vocab_size << " " << sc.seq << "\n";
  std::printf("checkpoint written to %s/\n", dir.c_str());
  return 0;
}

int cmd_generate(const std::string& dir, const std::string& prompt,
                 const nn::SamplingParams& sampling) {
  std::ifstream meta(dir + "/config.txt");
  MGPT_CHECK(meta.is_open(), "missing " << dir << "/config.txt — run train");
  std::string arch;
  std::int64_t vocab = 0, seq = 0;
  meta >> arch >> vocab >> seq;
  std::ifstream tks(dir + "/tokenizer.txt");
  std::stringstream tk_text;
  tk_text << tks.rdbuf();
  const auto tokenizer = tok::BpeTokenizer::load(tk_text.str());

  core::ExperimentSpec spec;
  spec.arch = arch == "neox" ? nn::ArchFamily::kNeoX : nn::ArchFamily::kLLaMA;
  nn::GptConfig mc = core::scaled_model_config(spec, seq);
  mc.vocab_size = vocab;
  nn::GptModel model(mc);
  nn::load_parameters_file(model, dir + "/model.ckpt");

  sampling.validate();
  Rng rng = sampling.make_rng();
  const auto ids = tokenizer.encode(prompt);
  MGPT_CHECK(!ids.empty(), "prompt tokenized to nothing");
  const auto out = model.generate_cached(ids, 24, sampling, rng);
  std::printf("%s\n", tokenizer.decode(out).c_str());
  return 0;
}

int cmd_simulate(const std::string& size, int gcds,
                 const std::string& strategy) {
  sim::TrainingSimulator simulator((sim::Platform()));
  const auto model = size == "6.7b"
                         ? sim::ModelDesc::matgpt_6_7b(sim::ArchFamily::kNeoX)
                         : sim::ModelDesc::matgpt_1_7b(sim::ArchFamily::kNeoX);
  sim::ParallelConfig cfg{gcds, 1, 1, 0};
  if (strategy == "zero1") {
    cfg.zero_stage = 1;
  } else if (strategy == "tp2") {
    cfg = {gcds / 2, 2, 1, 0};
  } else if (strategy == "pp2") {
    cfg = {gcds / 2, 1, 2, 0};
  } else if (strategy != "dp") {
    return usage();
  }
  const auto p = simulator.simulate_step(
      model, cfg, size == "6.7b" ? 8192 : 16384, 2048,
      sim::AttentionImpl::kFlashV2);
  std::printf("%s, %d GCDs, %s\n", model.name().c_str(), gcds,
              cfg.describe().c_str());
  std::printf("  step time:     %s\n", format_duration(p.total_s()).c_str());
  std::printf("  throughput:    %.1f TFLOPS/GCD (%.2f PFLOPS aggregate)\n",
              p.per_gcd_tflops, p.aggregate_pflops);
  std::printf("  compute/comm/io: %.0f%% / %.0f%% / %.0f%%\n",
              100 * p.compute_fraction(), 100 * p.comm_fraction(),
              100 * p.io_fraction());
  std::printf("  memory:        %s of 64 GB (%s)\n",
              format_bytes(p.memory.total()).c_str(),
              p.fits_memory ? "fits" : "OOM");
  return 0;
}

int cmd_search(double min_b, double max_b) {
  sim::ArchitectureSearch search((sim::Platform()));
  sim::SearchConstraints constraints;
  constraints.min_params = static_cast<std::int64_t>(min_b * 1e9);
  constraints.max_params = static_cast<std::int64_t>(max_b * 1e9);
  std::vector<std::int64_t> hiddens;
  for (std::int64_t h = 1536; h <= 6144; h += 128) hiddens.push_back(h);
  const auto cands = search.search(
      sim::ArchFamily::kLLaMA, 52000, {16, 20, 24, 28, 32, 40}, hiddens,
      constraints, 16, 2048);
  const auto& best = sim::ArchitectureSearch::best(cands);
  std::printf("%zu feasible candidates in [%.1fB, %.1fB]\n", cands.size(),
              min_b, max_b);
  std::printf("best: %lld layers x hidden %lld (head dim %lld), "
              "%.1f TFLOPS/GCD base, flash v2 %.1f\n",
              static_cast<long long>(best.model.n_layers),
              static_cast<long long>(best.model.hidden),
              static_cast<long long>(best.head_dim()), best.tflops_base,
              best.tflops_flash_v2);
  return 0;
}

/// --decode-quant spellings; returns false on an unknown format name.
bool parse_decode_quant(const std::string& name,
                        kernels::WeightFormat* format) {
  if (name == "int8") {
    *format = kernels::WeightFormat::kInt8;
  } else if (name == "bf16") {
    *format = kernels::WeightFormat::kBf16;
  } else if (name == "off" || name == "f32") {
    *format = kernels::WeightFormat::kF32;
  } else {
    return false;
  }
  return true;
}

void print_decode_quant_banner(kernels::WeightFormat decode_quant) {
  if (decode_quant == kernels::WeightFormat::kF32) return;
  std::printf("gemm: decode quant %s\n", kernels::format_name(decode_quant));
}

// Continuous-batching serving demo: client threads (one std::async each)
// replay a synthetic trace through the engine's bounded admission queue while
// this thread drives the scheduler loop — the deployment shape, minus the
// network. The model is random-init (the point is the engine, not the prose);
// GQA and a serving-sized vocab keep it honest about where decode time goes.
struct ServeBenchOpts {
  std::size_t n_requests = 32;
  std::size_t n_clients = 4;
  std::int64_t spec_k = 0;
  std::int64_t draft_layers = 2;
  std::int64_t prefix_cache_mb = 0;
  serve::sched::Policy scheduler = serve::sched::Policy::kFcfs;
  std::int64_t prefill_chunk = 0;
  double high_fraction = 0.0;
  double low_fraction = 0.0;
  double deadline_ms = 0.0;
  std::int64_t host_tier_mb = 0;  // 0 = unbounded host tier
  std::int64_t disk_tier_mb = 0;  // 0 = disk tier disabled
  std::string spill_dir = "matgpt_spill";
  double embed_fraction = 0.0;        // fraction of trace -> embed requests
  double constrained_fraction = 0.0;  // fraction -> JSON-constrained decode
  std::int64_t embed_batch = 8;       // max sequences per embed forward
  bool map_classes = false;           // workload class -> sched priority
  kernels::WeightFormat decode_quant = kernels::WeightFormat::kF32;
  bool json = false;
};

/// Map the CLI's --host-tier-mb/--disk-tier-mb/--spill-dir knobs onto the
/// engine's tiered-KV sub-config (spill_dir only matters once the disk
/// tier is enabled).
void apply_tier_opts(serve::EngineConfig& ec, std::int64_t host_tier_mb,
                     std::int64_t disk_tier_mb, const std::string& spill_dir) {
  ec.kv_tier.host_tier_bytes =
      static_cast<std::size_t>(host_tier_mb) * 1000 * 1000;
  ec.kv_tier.disk_tier_bytes =
      static_cast<std::size_t>(disk_tier_mb) * 1000 * 1000;
  if (disk_tier_mb > 0) ec.kv_tier.spill_dir = spill_dir;
}

/// Serving-shaped BERT encoder backing the embedding request class
/// (serve-bench --embed-fraction, serve-http --embed). Random-init, like
/// the decoder: the point is the engine's prefill-only path, not the
/// vectors themselves.
nn::BertConfig serving_bert_config() {
  nn::BertConfig bc;
  bc.vocab_size = 8192;
  bc.hidden = 256;
  bc.n_layers = 2;
  bc.n_heads = 8;
  bc.max_seq = 64;
  return bc;
}

/// JSON-subset grammar compiled over a synthetic fragment vocab that
/// mirrors the serving model's 8192 tokens (ids 0-4 stay empty like the
/// tokenizer specials; 3 = EOS). The multi-character fragments ("{\"",
/// "\":", "true", ...) make tokens span grammar states, which is the case
/// the token-level DFA exists for.
std::shared_ptr<const serve::workloads::TokenDfa> serving_json_grammar() {
  static const char* kPool[] = {
      "{",  "}",  "[",  "]",  ":",  ",",  "\"", " ",  "0",  "1",  "2",
      "3",  "4",  "5",  "6",  "7",  "8",  "9",  "a",  "b",  "c",  "d",
      "e",  "f",  "x",  "y",  "z",  "{\"", "\":", ",\"", "\"}", "\",",
      "true", "false", "null", "-",  ".",  "e+", "{}", "[]", "1}", "0]",
      "\"a\":", "\"b\":", ": [", ", ", "]}", "}}",
  };
  constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  std::vector<std::string> bytes(8192);
  for (std::size_t id = 5; id < bytes.size(); ++id) {
    bytes[id] = kPool[(id - 5) % kPoolSize];
  }
  serve::workloads::GrammarSpec gspec;
  return std::make_shared<const serve::workloads::TokenDfa>(
      serve::workloads::TokenDfa::compile(gspec, bytes, /*eos_id=*/3));
}

/// The serving-shaped model every serving subcommand uses: random-init
/// (the point is the engine, not the prose), GQA, serving-sized vocab.
nn::GptConfig serving_model_config() {
  nn::GptConfig mc;
  mc.arch = nn::ArchFamily::kLLaMA;
  mc.vocab_size = 8192;
  mc.hidden = 256;
  mc.n_layers = 4;
  mc.n_heads = 8;
  mc.n_kv_heads = 2;
  mc.max_seq = 128;
  return mc;
}

int cmd_serve_bench(const ServeBenchOpts& opts) {
  const std::size_t n_requests = opts.n_requests;
  const std::size_t n_clients = opts.n_clients;
  const std::int64_t spec_k = opts.spec_k;
  const std::int64_t draft_layers = opts.draft_layers;
  const std::int64_t prefix_cache_mb = opts.prefix_cache_mb;
  const nn::GptConfig mc = serving_model_config();
  nn::GptModel model(mc);

  serve::TraceSpec spec;
  spec.n_requests = n_requests;
  spec.vocab_size = mc.vocab_size;
  if (prefix_cache_mb > 0) {
    // Shared-system-prompt workload: most requests open with the same span,
    // the shape prefix caching exists for.
    spec.shared_prefix_fraction = 0.8;
    spec.shared_prefix_len = 12;
  }
  spec.high_fraction = opts.high_fraction;
  spec.low_fraction = opts.low_fraction;
  spec.high_deadline_ms = opts.deadline_ms;
  const nn::BertConfig bert_config = serving_bert_config();
  spec.embed_fraction = opts.embed_fraction;
  spec.constrained_fraction = opts.constrained_fraction;
  if (opts.constrained_fraction > 0.0) {
    spec.constrained_grammar = serving_json_grammar();
  }
  if (opts.embed_fraction > 0.0) {
    spec.embed_vocab_size = bert_config.vocab_size;
    spec.embed_len_max = bert_config.max_seq;
  }
  auto trace = serve::synth_trace(spec);
  if (spec_k > 0) {
    for (auto& req : trace) req.spec_k = spec_k;
  }

  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.kv_slots = 8;
  ec.queue_capacity = 16;  // small enough that clients feel backpressure
  ec.prefix_cache_bytes =
      static_cast<std::size_t>(prefix_cache_mb) * 1000 * 1000;
  ec.scheduler = opts.scheduler;
  ec.prefill_chunk_tokens = opts.prefill_chunk;
  apply_tier_opts(ec, opts.host_tier_mb, opts.disk_tier_mb, opts.spill_dir);
  ec.decode_quant = opts.decode_quant;
  if (opts.embed_fraction > 0.0) {
    ec.workloads.embedder = std::make_shared<const nn::BertEncoder>(
        bert_config);
  }
  ec.workloads.max_embed_batch = opts.embed_batch;
  ec.workloads.map_classes = opts.map_classes;
  if (spec_k > 0) {
    MGPT_CHECK(draft_layers >= 1 && draft_layers <= mc.n_layers,
               "--draft-layers must be in [1, " << mc.n_layers << "]");
    ec.proposer =
        std::make_shared<serve::spec::LayerSkipDraft>(model, draft_layers);
  }
  serve::InferenceEngine engine(model, ec);

  if (!opts.json) {
    std::printf("serve-bench: %zu requests, %zu client threads, batch %lld, "
                "queue %zu\n",
                trace.size(), n_clients,
                static_cast<long long>(ec.max_batch), ec.queue_capacity);
    std::printf("scheduler: %s, prefill chunk %lld tokens%s\n",
                serve::sched::policy_name(ec.scheduler),
                static_cast<long long>(ec.prefill_chunk_tokens),
                ec.prefill_chunk_tokens == 0 ? " (whole-prompt)" : "");
    if (opts.high_fraction + opts.low_fraction > 0.0) {
      std::printf("priority mix: %.0f%% high / %.0f%% normal / %.0f%% low, "
                  "high-class deadline %.0f ms\n",
                  100.0 * opts.high_fraction,
                  100.0 * (1.0 - opts.high_fraction - opts.low_fraction),
                  100.0 * opts.low_fraction, opts.deadline_ms);
    }
    if (spec_k > 0) {
      std::printf("speculative decoding: k=%lld, layer-skip draft %lld/%lld "
                  "layers\n",
                  static_cast<long long>(spec_k),
                  static_cast<long long>(draft_layers),
                  static_cast<long long>(mc.n_layers));
    }
    if (prefix_cache_mb > 0) {
      std::printf("prefix cache: %lld MB budget, %.0f%% of prompts share a "
                  "%lld-token prefix\n",
                  static_cast<long long>(prefix_cache_mb),
                  100.0 * spec.shared_prefix_fraction,
                  static_cast<long long>(spec.shared_prefix_len));
    }
    if (opts.embed_fraction + opts.constrained_fraction > 0.0) {
      std::printf("workload mix: %.0f%% embed (batch %lld) / %.0f%% "
                  "JSON-constrained / rest plain, class mapping %s\n",
                  100.0 * opts.embed_fraction,
                  static_cast<long long>(opts.embed_batch),
                  100.0 * opts.constrained_fraction,
                  opts.map_classes ? "on" : "off");
    }
    print_decode_quant_banner(opts.decode_quant);
  }

  std::vector<std::future<serve::RequestResult>> futures(trace.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<void>> clients;
  for (std::size_t cidx = 0; cidx < n_clients; ++cidx) {
    clients.push_back(std::async(std::launch::async, [&, cidx] {
      // Client cidx owns every n_clients-th request; submit() blocks while
      // the admission queue is full, so a slow scheduler throttles clients
      // instead of dropping work.
      for (std::size_t i = cidx; i < trace.size(); i += n_clients) {
        futures[i] = engine.submit(trace[i]);
      }
    }));
  }
  // A client that throws also ends its future, so the loop drains and the
  // exception reaches get() below.
  const auto clients_running = [&] {
    return std::any_of(clients.begin(), clients.end(), [](const auto& f) {
      return f.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    });
  };
  while (clients_running() || engine.queue_depth() > 0 ||
         engine.active_count() > 0) {
    if (engine.step() == 0) std::this_thread::yield();
  }
  for (auto& f : clients) f.get();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t tokens = 0;
  for (auto& f : futures) tokens += f.get().tokens.size();
  if (opts.json) {
    // One JSON document on stdout, nothing else: pipe-friendly
    // (`matgpt_cli serve-bench --json | python3 -m json.tool`).
    std::printf("%s\n", engine.stats().to_json(wall).c_str());
    return 0;
  }
  std::printf("\n%s", engine.stats().report(wall).c_str());
  std::printf("\nwall time %.3f s, paged kv pool: %lld blocks x %lld "
              "tokens (%.1f MB reserved)\n",
              wall, static_cast<long long>(engine.kv_pool().total_blocks()),
              static_cast<long long>(engine.kv_pool().block_tokens()),
              static_cast<double>(engine.kv_pool().reserved_bytes()) / 1e6);
  if (const serve::PrefixCache* pc = engine.prefix_cache()) {
    std::printf("prefix cache residency: %.2f/%.2f MB, %lld tokens in %zu "
                "nodes (%llu evicted)\n",
                static_cast<double>(pc->bytes_used()) / 1e6,
                static_cast<double>(pc->byte_budget()) / 1e6,
                static_cast<long long>(pc->cached_tokens()), pc->node_count(),
                static_cast<unsigned long long>(pc->stats().nodes_evicted));
  }
  return 0;
}

// SIGINT/SIGTERM latch for serve-http: handlers may only touch
// sig_atomic_t, so the run loop polls this and does the real teardown.
volatile std::sig_atomic_t g_stop_requested = 0;

int cmd_serve_http(std::uint16_t port, std::int64_t host_tier_mb,
                   std::int64_t disk_tier_mb, const std::string& spill_dir,
                   bool embed, bool grammar,
                   kernels::WeightFormat decode_quant) {
  const nn::GptConfig mc = serving_model_config();
  nn::GptModel model(mc);

  serve::EngineConfig ec;
  ec.max_batch = 8;
  ec.kv_slots = 8;
  ec.queue_capacity = 16;
  apply_tier_opts(ec, host_tier_mb, disk_tier_mb, spill_dir);
  ec.decode_quant = decode_quant;
  if (embed) {
    ec.workloads.embedder =
        std::make_shared<const nn::BertEncoder>(serving_bert_config());
  }
  serve::InferenceEngine engine(model, ec);
  engine.start();

  net::HttpServerConfig sc;
  sc.port = port;
  if (grammar) sc.grammars["json"] = serving_json_grammar();
  net::HttpServer server(engine, sc);
  server.start();

  std::printf("serving on http://127.0.0.1:%u (random-init %s model, "
              "vocab %lld, max_seq %lld)\n",
              server.port(), "llama",
              static_cast<long long>(mc.vocab_size),
              static_cast<long long>(mc.max_seq));
  std::printf("  curl -N -d '{\"id\":1,\"prompt\":[1,2,3],"
              "\"max_new_tokens\":16}' http://127.0.0.1:%u/v1/generate\n",
              server.port());
  std::printf("  curl -X DELETE http://127.0.0.1:%u/v1/requests/1\n",
              server.port());
  std::printf("  curl -X POST http://127.0.0.1:%u/v1/sessions\n",
              server.port());
  std::printf("  curl -d '{\"id\":2,\"prompt\":[1,2,3],"
              "\"max_new_tokens\":16,\"stream\":false}' "
              "http://127.0.0.1:%u/v1/sessions/1/generate\n",
              server.port());
  if (embed) {
    std::printf("  curl -d '{\"inputs\":[[1,2,3],[4,5]],\"reduce\":\"mean\"}'"
                " http://127.0.0.1:%u/v1/embeddings\n",
                server.port());
  }
  if (grammar) {
    std::printf("  curl -N -d '{\"id\":3,\"prompt\":[1],"
                "\"max_new_tokens\":24,\"grammar\":\"json\"}' "
                "http://127.0.0.1:%u/v1/generate\n",
                server.port());
  }
  std::printf("  curl http://127.0.0.1:%u/v1/stats\n", server.port());
  if (disk_tier_mb > 0) {
    std::printf("tiered KV: host %lld MB, disk %lld MB (spill dir %s)\n",
                static_cast<long long>(host_tier_mb),
                static_cast<long long>(disk_tier_mb), spill_dir.c_str());
  }
  print_decode_quant_banner(decode_quant);
  std::printf("Ctrl-C to drain and exit.\n");

  struct sigaction sa = {};
  sa.sa_handler = [](int) { g_stop_requested = 1; };
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("\ndraining...\n");
  server.stop();    // stop accepting, cancel live streams, flush, join
  engine.drain();   // finish queued work, join the scheduler thread
  const auto& c = server.counters();
  std::printf("served %llu requests (%llu streams completed, %llu shed, "
              "%llu client aborts)\n",
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.streams_completed),
              static_cast<unsigned long long>(c.shed_429),
              static_cast<unsigned long long>(c.client_aborts));
  return 0;
}

struct LoadGenOpts {
  std::uint16_t port = 0;
  std::size_t n_requests = 64;
  double rate_rps = 0.0;  // 0 = closed-loop
  std::size_t concurrency = 4;
  std::uint64_t seed = 42;
  double slo_ms = 500.0;
};

int cmd_load_gen(const LoadGenOpts& opts) {
  // The synthetic workload mirrors the serving-shaped model the server
  // runs: prompts and generation lengths that fit max_seq 128.
  serve::TraceSpec spec;
  spec.n_requests = opts.n_requests;
  spec.vocab_size = serving_model_config().vocab_size;
  spec.prompt_len_min = 16;
  spec.prompt_len_max = 48;
  spec.max_new_min = 8;
  spec.max_new_max = 24;
  spec.seed = opts.seed;
  const auto trace = serve::synth_trace(spec);

  net::LoadGenConfig cfg;
  cfg.port = opts.port;
  cfg.concurrency = opts.concurrency;
  net::LoadGen gen(cfg);

  net::LoadReport report;
  if (opts.rate_rps > 0.0) {
    std::fprintf(stderr,
                 "open-loop: %zu requests, Poisson %.1f req/s, seed %llu\n",
                 trace.size(), opts.rate_rps,
                 static_cast<unsigned long long>(opts.seed));
    report = gen.run_open(
        trace, net::poisson_schedule(trace.size(), opts.rate_rps, opts.seed));
  } else {
    std::fprintf(stderr, "closed-loop: %zu requests, concurrency %zu\n",
                 trace.size(), cfg.concurrency);
    report = gen.run_closed(trace);
  }
  // Report JSON on stdout, run banner on stderr: `load-gen ... | jq` works.
  std::printf("%s\n", report.to_json(opts.slo_ms).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "corpus") {
      return cmd_corpus(argc > 2 ? std::atof(argv[2]) : 0.0);
    }
    if (cmd == "train" && argc >= 3) {
      return cmd_train(argv[2], argc > 3 ? std::atoll(argv[3]) : 0,
                       argc > 4 ? argv[4] : "matgpt_checkpoint");
    }
    if (cmd == "generate" && argc >= 4) {
      nn::SamplingParams sampling;
      sampling.temperature = 0.7f;
      sampling.seed = 0xC11;
      std::string prompt;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--temp" && i + 1 < argc) {
          sampling.temperature = static_cast<float>(std::atof(argv[++i]));
        } else if (arg == "--top-k" && i + 1 < argc) {
          sampling.top_k = std::atoi(argv[++i]);
        } else if (arg == "--top-p" && i + 1 < argc) {
          sampling.top_p = static_cast<float>(std::atof(argv[++i]));
        } else if (arg == "--seed" && i + 1 < argc) {
          sampling.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else {
          if (!prompt.empty()) prompt += " ";
          prompt += arg;
        }
      }
      if (prompt.empty()) return usage();
      return cmd_generate(argv[2], prompt, sampling);
    }
    if (cmd == "simulate" && argc == 5) {
      return cmd_simulate(argv[2], std::atoi(argv[3]), argv[4]);
    }
    if (cmd == "search" && argc == 4) {
      return cmd_search(std::atof(argv[2]), std::atof(argv[3]));
    }
    if (cmd == "serve-bench") {
      ServeBenchOpts opts;
      std::vector<std::size_t*> positional{&opts.n_requests, &opts.n_clients};
      std::size_t pos = 0;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec-k" && i + 1 < argc) {
          opts.spec_k = std::atoll(argv[++i]);
        } else if (arg == "--draft-layers" && i + 1 < argc) {
          opts.draft_layers = std::atoll(argv[++i]);
        } else if (arg == "--prefix-cache-mb" && i + 1 < argc) {
          opts.prefix_cache_mb = std::atoll(argv[++i]);
        } else if (arg == "--scheduler" && i + 1 < argc) {
          const std::string policy = argv[++i];
          if (policy == "fcfs") {
            opts.scheduler = serve::sched::Policy::kFcfs;
          } else if (policy == "priority") {
            opts.scheduler = serve::sched::Policy::kPriority;
          } else {
            return usage();
          }
        } else if (arg == "--prefill-chunk" && i + 1 < argc) {
          opts.prefill_chunk = std::atoll(argv[++i]);
        } else if (arg == "--priority-mix" && i + 1 < argc) {
          // H:L fractions of high-/low-priority requests, e.g. 0.2:0.3.
          if (std::sscanf(argv[++i], "%lf:%lf", &opts.high_fraction,
                          &opts.low_fraction) != 2) {
            return usage();
          }
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
          opts.deadline_ms = std::atof(argv[++i]);
        } else if (arg == "--host-tier-mb" && i + 1 < argc) {
          opts.host_tier_mb = std::atoll(argv[++i]);
        } else if (arg == "--disk-tier-mb" && i + 1 < argc) {
          opts.disk_tier_mb = std::atoll(argv[++i]);
        } else if (arg == "--spill-dir" && i + 1 < argc) {
          opts.spill_dir = argv[++i];
        } else if (arg == "--embed-fraction" && i + 1 < argc) {
          opts.embed_fraction = std::atof(argv[++i]);
        } else if (arg == "--constrained-fraction" && i + 1 < argc) {
          opts.constrained_fraction = std::atof(argv[++i]);
        } else if (arg == "--embed-batch" && i + 1 < argc) {
          opts.embed_batch = std::atoll(argv[++i]);
        } else if (arg == "--map-classes") {
          opts.map_classes = true;
        } else if (arg == "--decode-quant" && i + 1 < argc) {
          if (!parse_decode_quant(argv[++i], &opts.decode_quant)) {
            return usage();
          }
        } else if (arg == "--json") {
          opts.json = true;
        } else if (pos < positional.size()) {
          *positional[pos++] = static_cast<std::size_t>(std::atoll(argv[i]));
        } else {
          return usage();
        }
      }
      if (opts.n_requests == 0 || opts.n_clients == 0 || opts.spec_k < 0 ||
          opts.prefix_cache_mb < 0 || opts.prefill_chunk < 0 ||
          opts.high_fraction < 0.0 || opts.low_fraction < 0.0 ||
          opts.high_fraction + opts.low_fraction > 1.0 ||
          opts.deadline_ms < 0.0 || opts.host_tier_mb < 0 ||
          opts.disk_tier_mb < 0 || opts.spill_dir.empty() ||
          opts.embed_fraction < 0.0 || opts.constrained_fraction < 0.0 ||
          opts.embed_fraction + opts.constrained_fraction > 1.0 ||
          opts.embed_batch < 1 ||
          (opts.map_classes &&
           opts.scheduler != serve::sched::Policy::kPriority)) {
        return usage();
      }
      return cmd_serve_bench(opts);
    }
    if (cmd == "serve-http") {
      std::uint16_t port = 0;
      std::int64_t host_tier_mb = 0, disk_tier_mb = 0;
      std::string spill_dir = "matgpt_spill";
      bool embed = false, grammar = false;
      kernels::WeightFormat decode_quant = kernels::WeightFormat::kF32;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
          port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg == "--host-tier-mb" && i + 1 < argc) {
          host_tier_mb = std::atoll(argv[++i]);
        } else if (arg == "--disk-tier-mb" && i + 1 < argc) {
          disk_tier_mb = std::atoll(argv[++i]);
        } else if (arg == "--spill-dir" && i + 1 < argc) {
          spill_dir = argv[++i];
        } else if (arg == "--embed") {
          embed = true;
        } else if (arg == "--grammar") {
          grammar = true;
        } else if (arg == "--decode-quant" && i + 1 < argc) {
          if (!parse_decode_quant(argv[++i], &decode_quant)) {
            return usage();
          }
        } else {
          return usage();
        }
      }
      if (host_tier_mb < 0 || disk_tier_mb < 0 || spill_dir.empty()) {
        return usage();
      }
      return cmd_serve_http(port, host_tier_mb, disk_tier_mb, spill_dir, embed,
                            grammar, decode_quant);
    }
    if (cmd == "load-gen") {
      LoadGenOpts opts;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
          opts.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else if (arg == "--requests" && i + 1 < argc) {
          opts.n_requests = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg == "--rate" && i + 1 < argc) {
          opts.rate_rps = std::atof(argv[++i]);
        } else if (arg == "--concurrency" && i + 1 < argc) {
          opts.concurrency = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg == "--seed" && i + 1 < argc) {
          opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--slo-ms" && i + 1 < argc) {
          opts.slo_ms = std::atof(argv[++i]);
        } else {
          return usage();
        }
      }
      if (opts.port == 0 || opts.n_requests == 0 || opts.rate_rps < 0.0 ||
          opts.slo_ms <= 0.0) {
        return usage();
      }
      return cmd_load_gen(opts);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
