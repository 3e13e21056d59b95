#pragma once
// The engine deployment every workload runs on, in two shapes:
//   untraced  engine.start() spawns the engine's own scheduler thread, as a
//             production server would run it;
//   traced    the benchmark's StepLoop calls InferenceEngine::step() itself
//             and times each call from outside.
// Either shape can put the HTTP front end and the chat clients in front.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "http_client.h"
#include "net/server.h"
#include "nn/gpt.h"
#include "serve/engine.h"

namespace servebench {

namespace net = matgpt::net;
namespace nn = matgpt::nn;
namespace serve = matgpt::serve;

/// Calls engine.step() in a loop on its own thread and records the time of
/// every call. A call that advanced no sequence counts as idle, as does the
/// short sleep that follows it; consecutive idle calls merge into one span.
/// After each busy call it reads the KV arena's used blocks, which only
/// step() changes, so the read cannot race.
class StepLoop {
 public:
  struct Span {
    double t0_s = 0.0;
    double t1_s = 0.0;
    std::size_t seqs = 0;         // sequences the step advanced
    std::size_t queue_depth = 0;  // waiting requests before the step
    std::int64_t used_blocks = 0;  // KV blocks held after the step
  };

  explicit StepLoop(serve::InferenceEngine& engine);
  ~StepLoop();
  StepLoop(const StepLoop&) = delete;
  StepLoop& operator=(const StepLoop&) = delete;

  /// Lets the loop finish the work in hand, then joins it. The spans are
  /// readable once this returns.
  void stop();

  const std::vector<Span>& busy() const { return busy_; }
  const std::vector<Span>& idle() const { return idle_; }

 private:
  void run();
  void loop();

  serve::InferenceEngine& engine_;
  std::atomic<bool> stop_{false};
  std::vector<Span> busy_;
  std::vector<Span> idle_;
  std::thread thread_;
};

class Deployment {
 public:
  /// `http`: run the HTTP front end with kChatUsers keep-alive client
  /// connections. `traced`: drive step() with a StepLoop instead of
  /// engine.start().
  Deployment(const nn::GptModel& model, bool http, bool traced);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The fixed warm-up: the warm-up set in-process, plus one request per
  /// client connection when the HTTP front end runs.
  void warm_up();

  /// Closes the clients, stops the server and joins every engine-side
  /// thread, so engine state is safe to read afterwards. Idempotent.
  void shutdown();

  serve::InferenceEngine& engine() { return engine_; }
  net::HttpServer* server() { return server_.get(); }
  StepLoop* steps() { return steps_.get(); }
  std::vector<std::unique_ptr<HttpClient>>& clients() { return clients_; }

 private:
  serve::InferenceEngine engine_;
  std::unique_ptr<StepLoop> steps_;
  std::unique_ptr<net::HttpServer> server_;
  std::vector<std::unique_ptr<HttpClient>> clients_;
  bool shut_down_ = false;
};

}  // namespace servebench
