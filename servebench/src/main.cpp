// servebench: the repository's serving benchmark.
//
//   servebench --workload chat|batch --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// One process runs one workload against one deployment of the serving
// engine and prints one JSON result as its last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics a user sees. Set-up (model
// build, engine/server start, fixed warm-up) runs kSetups times; setup_s
// is the median and the last deployment serves the measured pass.
//
// --trace 1 reports per-layer metrics. It runs the measured pass twice,
// each for half of --seconds, on fresh deployments of the same inputs: once
// untraced, as above, and once with the benchmark driving
// InferenceEngine::step() itself and timing every call. It then replays
// the model, sampler and GEMM shapes, writes the benchmark's spans as
// Chrome-trace JSON to --trace-out, and compares the two passes'
// throughput (trace.overhead) and output digests.
//
// Every run checks every request's status and length, compares a fixed
// sample of greedy and stochastic requests token for token against batch-1
// GptModel::generate_cached, and prints a digest of all output tokens.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clock.h"
#include "deployment.h"
#include "net/json.h"
#include "net/loadgen.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {
namespace {

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// Requests of each sampling kind checked against batch-1 generation.
constexpr std::size_t kIdentityChecksPerKind = 3;
// Step spans plus idle spans must cover the traced wall time this closely.
constexpr double kMaxCoverageGap = 0.05;

struct Options {
  Workload workload = Workload::kChat;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) throw std::invalid_argument("unknown workload " + value);
      opt.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = opt.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    throw std::invalid_argument(
        "usage: servebench --workload chat|batch --seed N --seconds S "
        "--trace 0|1 [--trace-out FILE]");
  }
  return opt;
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": "
     << matgpt::net::Json::string(cpu).dump()
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"fma\": " << (__builtin_cpu_supports("fma") ? "true" : "false")
     << ", \"avx512f\": "
     << (__builtin_cpu_supports("avx512f") ? "true" : "false") << "}";
  return os.str();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Measured passes

// One request as its client saw it. Times are now_s() seconds.
struct Observation {
  bool sent = false;
  bool delivered = false;  // transport ok and engine status "ok"
  std::vector<std::int32_t> generated;
  double sent_s = 0.0;  // the TTFT origin
  std::vector<double> token_s;
  double done_s = 0.0;
  double engine_ttft_ms = -1.0;  // chat: the done chunk's ttft_ms
  double queue_delay_ms = -1.0;  // in-process: RequestResult::queue_delay_s
};

struct Pass {
  std::vector<Observation> obs;
  double start_s = 0.0;
  double end_s = 0.0;
  double wall_s() const { return end_s - start_s; }
};

// Drops the requests never sent (a prefix was) and sets the end time.
void finish_pass(Pass& pass) {
  const auto unsent =
      std::find_if(pass.obs.begin(), pass.obs.end(),
                   [](const Observation& o) { return !o.sent; });
  pass.obs.erase(unsent, pass.obs.end());
  pass.end_s = pass.start_s;
  for (const Observation& o : pass.obs) {
    pass.end_s = std::max(pass.end_s, o.done_s);
  }
}

// chat: kChatUsers users, each with one keep-alive connection, send their next
// request when the previous reply is complete, until `seconds` have passed
// and at least kMinRequests were sent. Requests are taken in index order,
// so the sent ones are a prefix of the inputs.
Pass run_chat(Deployment& d, const std::vector<serve::Request>& in,
              double seconds) {
  Pass pass;
  pass.obs.resize(in.size());
  std::atomic<std::size_t> next{0};
  pass.start_s = now_s();
  const double stop_s = pass.start_s + seconds;
  std::vector<std::thread> users;
  for (auto& client : d.clients()) {
    users.emplace_back([&pass, &next, &in, stop_s, c = client.get()] {
      for (;;) {
        // Checked before taking an index, so every index taken is sent.
        if (next.load() >= kMinRequests && now_s() >= stop_s) break;
        const std::size_t i = next.fetch_add(1);
        if (i >= in.size()) break;
        Observation& o = pass.obs[i];
        o.sent = true;
        StreamReply reply;
        try {
          reply = c->generate(
              matgpt::net::generate_body(in[i], /*stream=*/true), o.sent_s);
        } catch (const std::exception&) {
          reply.http_status = 0;  // reconnect failed: a transport error
        }
        o.delivered = reply.http_status == 200 && reply.engine_status == "ok";
        o.generated = std::move(reply.tokens);
        o.token_s = std::move(reply.token_s);
        o.done_s = reply.done_s;
        o.engine_ttft_ms = reply.engine_ttft_ms;
      }
    });
  }
  for (auto& u : users) u.join();
  finish_pass(pass);
  return pass;
}

// batch, in-process: every request is submitted at t=0; tokens are timed by
// the streaming callback.
Pass run_batch(Deployment& d, const std::vector<serve::Request>& in) {
  Pass pass;
  pass.obs.resize(in.size());
  std::vector<std::future<serve::RequestResult>> futures;
  pass.start_s = now_s();
  for (std::size_t i = 0; i < in.size(); ++i) {
    Observation& o = pass.obs[i];
    o.sent = true;
    o.token_s.reserve(static_cast<std::size_t>(in[i].max_new_tokens));
    serve::Request req = in[i];
    req.on_token = [&o](std::int32_t) { o.token_s.push_back(now_s()); };
    o.sent_s = now_s();
    futures.push_back(d.engine().submit(std::move(req)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::RequestResult r = futures[i].get();
    Observation& o = pass.obs[i];
    o.delivered = r.status == serve::RequestStatus::kOk;
    const std::size_t prompt = in[i].prompt.size();
    if (r.tokens.size() >= prompt) {
      o.generated.assign(r.tokens.begin() + static_cast<std::ptrdiff_t>(prompt),
                         r.tokens.end());
    }
    o.queue_delay_ms = r.queue_delay_s * 1e3;
    o.done_s = o.token_s.empty() ? o.sent_s : o.token_s.back();
  }
  finish_pass(pass);
  return pass;
}

Pass run_pass(Workload w, Deployment& d,
              const std::vector<serve::Request>& in, double seconds) {
  return w == Workload::kChat ? run_chat(d, in, seconds) : run_batch(d, in);
}

// ---------------------------------------------------------------------------
// Correctness

struct Check {
  std::size_t failed = 0;
  std::size_t identity_mismatches = 0;
  std::string digest;
};

Check check_pass(const nn::GptModel& model,
                 const std::vector<serve::Request>& in, const Pass& pass) {
  Check check;
  Digest digest;
  std::vector<bool> bad(pass.obs.size());
  for (std::size_t i = 0; i < pass.obs.size(); ++i) {
    const Observation& o = pass.obs[i];
    bad[i] = !o.delivered ||
             static_cast<std::int64_t>(o.generated.size()) !=
                 in[i].max_new_tokens ||
             o.token_s.size() != o.generated.size();
    // Every run sends the first kMinRequests requests, so their digest
    // compares across runs and commits.
    if (i < kMinRequests) {
      digest.add(static_cast<std::uint32_t>(i));
      digest.add(static_cast<std::uint32_t>(o.generated.size()));
      for (const std::int32_t t : o.generated) {
        digest.add(static_cast<std::uint32_t>(t));
      }
    }
  }
  // Batch composition, chunking and prefix reuse must not change a token.
  std::size_t greedy_left = kIdentityChecksPerKind;
  std::size_t stochastic_left = kIdentityChecksPerKind;
  for (std::size_t i = 0; i < pass.obs.size(); ++i) {
    const serve::Request& req = in[i];
    std::size_t& left = req.sampling.greedy() ? greedy_left : stochastic_left;
    if (left == 0) continue;
    --left;
    matgpt::Rng rng = req.sampling.make_rng();
    const auto ref = model.generate_cached(req.prompt, req.max_new_tokens,
                                           req.sampling, rng);
    const std::vector<std::int32_t> expect(
        ref.begin() + static_cast<std::ptrdiff_t>(req.prompt.size()),
        ref.end());
    if (expect != pass.obs[i].generated) {
      ++check.identity_mismatches;
      bad[i] = true;
    }
  }
  check.failed =
      static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
  check.digest = digest.hex();
  return check;
}

// ---------------------------------------------------------------------------
// Metrics

double required(std::optional<double> v, const char* what) {
  if (!v) {
    throw std::runtime_error(std::string("too few samples for ") + what);
  }
  return *v;
}

// Per-layer percentiles the sample cannot support read -1.
double or_refused(std::optional<double> v) { return v ? *v : -1.0; }

std::vector<double> ttft_ms(const Pass& pass) {
  std::vector<double> out;
  for (const Observation& o : pass.obs) {
    if (o.delivered && !o.token_s.empty()) {
      out.push_back((o.token_s.front() - o.sent_s) * 1e3);
    }
  }
  return out;
}

std::vector<double> itl_ms(const Pass& pass) {
  std::vector<double> out;
  for (const Observation& o : pass.obs) {
    if (!o.delivered) continue;
    for (const double gap : inter_token_gaps(o.token_s)) {
      out.push_back(gap * 1e3);
    }
  }
  return out;
}

double tokens_per_s(const Pass& pass) {
  double tokens = 0.0;
  for (const Observation& o : pass.obs) {
    if (o.delivered) tokens += static_cast<double>(o.generated.size());
  }
  return tokens / pass.wall_s();
}

std::vector<Metric> end_to_end(const Pass& pass, const Check& check,
                               double setup_s) {
  const auto ttft = ttft_ms(pass);
  const auto itl = itl_ms(pass);
  const double attempted = static_cast<double>(pass.obs.size());
  return {
      {"setup_s", setup_s, "s"},
      {"ttft_p50_ms", required(percentile(ttft, 0.50), "ttft p50"), "ms"},
      {"ttft_p95_ms", required(percentile(ttft, 0.95), "ttft p95"), "ms"},
      {"itl_p50_ms", required(percentile(itl, 0.50), "itl p50"), "ms"},
      {"itl_p99_ms", required(percentile(itl, 0.99), "itl p99"), "ms"},
      {"tokens_per_s", tokens_per_s(pass), "tok/s"},
      {"success_rate", 1.0 - static_cast<double>(check.failed) / attempted,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Engine counters read through the thread-safe stats_json() snapshot.
struct EngineCounters {
  double prefix_hits = 0, prefix_misses = 0, prefix_reused = 0,
         prefix_prompt = 0, preemptions = 0, cow_forks = 0;
};

EngineCounters engine_counters(const serve::InferenceEngine& engine) {
  const auto json = matgpt::net::Json::parse(engine.stats_json());
  auto num = [&json](const char* key) {
    const matgpt::net::Json* v = json.find(key);
    if (v == nullptr) {
      throw std::runtime_error(std::string("engine stats lack ") + key);
    }
    return v->as_number();
  };
  return {num("prefix_hits"),          num("prefix_misses"),
          num("prefix_tokens_reused"), num("prefix_prompt_tokens"),
          num("preemptions"),          num("cow_forks")};
}

// Length of [a0, a1] inside [w0, w1].
double overlap(double a0, double a1, double w0, double w1) {
  return std::max(0.0, std::min(a1, w1) - std::max(a0, w0));
}

struct TracedPass {
  Pass pass;
  std::vector<Metric> metrics;
  double coverage = 0.0;
};

// The traced pass: the benchmark drives step() and reads every layer's
// counters around the measured window.
TracedPass run_traced(Workload w, const nn::GptModel& model,
                      const std::vector<serve::Request>& in, double seconds,
                      SpanLog& spans) {
  Deployment d(model, w == Workload::kChat, /*traced=*/true);
  d.warm_up();
  const EngineCounters before = engine_counters(d.engine());
  const matgpt::net::HttpCounters net_before =
      d.server() ? d.server()->counters() : matgpt::net::HttpCounters{};
  const double cpu0 = cpu_seconds();
  TracedPass t;
  t.pass = run_pass(w, d, in, seconds);
  const double cpu1 = cpu_seconds();
  const EngineCounters after = engine_counters(d.engine());
  const matgpt::net::HttpCounters net_after =
      d.server() ? d.server()->counters() : matgpt::net::HttpCounters{};
  d.shutdown();  // joins the step loop: its spans and engine state are ours
  const Pass& pass = t.pass;
  const double w0 = pass.start_s;
  const double w1 = pass.end_s;
  const double wall = pass.wall_s();
  auto add = [&t](std::string name, double value, const char* unit) {
    t.metrics.push_back({std::move(name), value, unit});
  };

  // net: client TTFT minus the engine's own TTFT is the HTTP path's share.
  std::vector<double> net_overhead;
  for (const Observation& o : pass.obs) {
    if (o.delivered && !o.token_s.empty() && o.engine_ttft_ms >= 0.0) {
      net_overhead.push_back((o.token_s.front() - o.sent_s) * 1e3 -
                             o.engine_ttft_ms);
    }
  }
  add("net.ttft_overhead_ms_p50",
      net_overhead.empty() ? 0.0 : or_refused(percentile(net_overhead, 0.5)),
      "ms");
  auto net_delta = [&](std::uint64_t net::HttpCounters::*field) {
    return static_cast<double>(net_after.*field - net_before.*field);
  };
  add("net.requests", net_delta(&net::HttpCounters::requests), "count");
  add("net.protocol_errors", net_delta(&net::HttpCounters::protocol_errors),
      "count");
  add("net.shed_429", net_delta(&net::HttpCounters::shed_429), "count");

  // serve engine: every step() call inside the measured window.
  std::vector<double> step_ms, seqs, depth;
  std::int64_t peak_blocks = 0;
  double busy_s = 0.0;
  double idle_s = 0.0;
  for (const auto& s : d.steps()->busy()) {
    busy_s += overlap(s.t0_s, s.t1_s, w0, w1);
    if (s.t0_s < w0 || s.t0_s > w1) continue;
    step_ms.push_back((s.t1_s - s.t0_s) * 1e3);
    seqs.push_back(static_cast<double>(s.seqs));
    depth.push_back(static_cast<double>(s.queue_depth));
    peak_blocks = std::max(peak_blocks, s.used_blocks);
    spans.add("step", SpanLog::kStepLane, s.t0_s, s.t1_s,
              "{\"seqs\": " + std::to_string(s.seqs) +
                  ", \"queue_depth\": " + std::to_string(s.queue_depth) + "}");
  }
  for (const auto& s : d.steps()->idle()) {
    const double in_window = overlap(s.t0_s, s.t1_s, w0, w1);
    if (in_window <= 0.0) continue;
    idle_s += in_window;
    spans.add("idle", SpanLog::kStepLane, std::max(s.t0_s, w0),
              std::min(s.t1_s, w1));
  }
  t.coverage = (busy_s + idle_s) / wall;
  add("engine.steps", static_cast<double>(step_ms.size()), "count");
  add("engine.step_ms_p50", or_refused(percentile(step_ms, 0.50)), "ms");
  add("engine.step_ms_p99", or_refused(percentile(step_ms, 0.99)), "ms");
  add("engine.seqs_per_step_mean", mean(seqs), "count");
  add("engine.idle_share", idle_s / wall, "ratio");

  // serve/sched. In-process requests carry their own queue delay. Over
  // HTTP nothing reports it per request, and the engine's histogram also
  // holds the warm-up's requests, so chat reads -1.
  std::vector<double> wait_ms;
  for (const Observation& o : pass.obs) {
    // The engine stamps admission with its step's start time, so a request
    // submitted during that step's first microseconds reads slightly < 0.
    if (o.delivered) wait_ms.push_back(std::max(0.0, o.queue_delay_ms));
  }
  auto wait_q = [&](double q) {
    return w == Workload::kChat ? -1.0 : or_refused(percentile(wait_ms, q));
  };
  add("sched.queue_wait_ms_p50", wait_q(0.50), "ms");
  add("sched.queue_wait_ms_p95", wait_q(0.95), "ms");
  add("sched.queue_depth_mean", mean(depth), "count");
  add("sched.preemptions", after.preemptions - before.preemptions, "count");

  // serve/kv_pool + nn/paged_kv: the window's peak, not the engine's
  // lifetime one, which the warm-up may set.
  add("kv.peak_used_blocks", static_cast<double>(peak_blocks), "count");
  add("kv.peak_block_utilization",
      static_cast<double>(peak_blocks) /
          static_cast<double>(d.engine().kv_pool().total_blocks()),
      "ratio");
  add("kv.cow_forks", after.cow_forks - before.cow_forks, "count");

  // serve/prefix_cache. The warm-up evicts nothing, so the lifetime
  // eviction counter is the window's.
  const double hits = after.prefix_hits - before.prefix_hits;
  const double lookups = hits + after.prefix_misses - before.prefix_misses;
  const double reused = after.prefix_reused - before.prefix_reused;
  const double prompt = after.prefix_prompt - before.prefix_prompt;
  add("prefix.hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  add("prefix.reused_token_share", prompt > 0 ? reused / prompt : 0.0,
      "ratio");
  add("prefix.tokens_evicted",
      static_cast<double>(
          d.engine().prefix_cache()->stats().tokens_evicted),
      "count");

  // parallel / process.
  add("proc.cpu_per_wall", (cpu1 - cpu0) / wall, "ratio");

  // Request spans: send -> first token -> done.
  for (std::size_t i = 0; i < pass.obs.size(); ++i) {
    const Observation& o = pass.obs[i];
    if (o.token_s.empty()) continue;
    const int lane = SpanLog::kRequestLane + static_cast<int>(i);
    spans.add("request.ttft", lane, o.sent_s, o.token_s.front(),
              "{\"id\": " + std::to_string(i + 1) + "}");
    spans.add("request.decode", lane, o.token_s.front(), o.done_s,
              "{\"tokens\": " + std::to_string(o.generated.size()) + "}");
  }
  return t;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_check(const char* pass_name, const Pass& pass, const Check& c) {
  std::cout << "# " << pass_name << ": sent " << pass.obs.size()
            << ", digest of the first " << kMinRequests << " " << c.digest
            << ", failed "
            << c.failed << ", identity mismatches " << c.identity_mismatches
            << "\n";
}

int run(const Options& opt) {
  const Workload w = opt.workload;
  std::cout << "# servebench workload=" << workload_name(w)
            << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << opt.trace << "\n";
  std::cout << "# host " << host_fingerprint() << "\n";
  // A traced run makes two passes, so each gets half the time.
  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<serve::Request> in = make_inputs(w, opt.seed, seconds);
  const bool http = w == Workload::kChat;

  // Set-up kSetups times; the last deployment serves the measured pass.
  std::vector<double> setups;
  std::unique_ptr<nn::GptModel> model;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    deployment.reset();
    model.reset();
    const double t0 = now_s();
    model = std::make_unique<nn::GptModel>(model_config());
    deployment = std::make_unique<Deployment>(*model, http, /*traced=*/false);
    deployment->warm_up();
    setups.push_back(now_s() - t0);
  }
  const Pass pass = run_pass(w, *deployment, in, seconds);
  deployment->shutdown();
  deployment.reset();
  const Check check = check_pass(*model, in, pass);
  print_check("pass", pass, check);

  if (!opt.trace) {
    print_result(check.failed == 0, pass.obs.size(), check.failed,
                 end_to_end(pass, check, median(setups)));
    return 0;
  }

  SpanLog spans;
  TracedPass traced = run_traced(w, *model, in, seconds, spans);
  const Check traced_check = check_pass(*model, in, traced.pass);
  print_check("traced pass", traced.pass, traced_check);
  auto& m = traced.metrics;
  m.push_back({"trace.overhead",
               1.0 - tokens_per_s(traced.pass) / tokens_per_s(pass), "ratio"});
  m.push_back({"trace.step_coverage", traced.coverage, "ratio"});
  const std::size_t failed = check.failed + traced_check.failed;
  const std::size_t attempted = pass.obs.size() + traced.pass.obs.size();
  m.push_back({"check.error_rate",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio"});
  m.push_back({"check.identity_mismatches",
               static_cast<double>(check.identity_mismatches +
                                   traced_check.identity_mismatches),
               "count"});
  replay_model(*model, m, spans);
  replay_gemm(model->config(), m, spans);
  if (!opt.trace_out.empty()) {
    spans.write_chrome_trace(opt.trace_out);
    std::cout << "# chrome trace: " << spans.size() << " spans -> "
              << opt.trace_out << "\n";
  }
  const bool same_tokens = traced_check.digest == check.digest;
  const bool covered = std::abs(traced.coverage - 1.0) <= kMaxCoverageGap;
  if (!same_tokens) std::cout << "# traced pass changed the output tokens\n";
  if (!covered) {
    std::cout << "# step + idle spans do not cover the traced wall time\n";
  }
  const bool correct = failed == 0 && same_tokens && covered;
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
