#include "deployment.h"

#include <chrono>
#include <future>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "clock.h"
#include "net/loadgen.h"
#include "workloads.h"

namespace servebench {

StepLoop::StepLoop(serve::InferenceEngine& engine) : engine_(engine) {
  busy_.reserve(1 << 16);
  idle_.reserve(1 << 12);
  thread_ = std::thread([this] { run(); });
}

StepLoop::~StepLoop() { stop(); }

void StepLoop::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StepLoop::run() {
  try {
    loop();
  } catch (const std::exception& e) {
    // Every request in flight waits on a step only this thread can take:
    // fail the run now rather than hang it.
    std::cerr << "servebench: engine step failed: " << e.what() << std::endl;
    std::abort();
  }
}

void StepLoop::loop() {
  bool idling = false;
  for (;;) {
    const std::size_t depth = engine_.queue_depth();
    const double t0 = now_s();
    const std::size_t seqs = engine_.step();
    const double t1 = now_s();
    if (seqs > 0) {
      busy_.push_back({t0, t1, seqs, depth, engine_.kv_pool().used_blocks()});
      idling = false;
      continue;
    }
    if (stop_.load()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    const double t2 = now_s();
    if (idling) {
      idle_.back().t1_s = t2;
    } else {
      idle_.push_back({t0, t2, 0, 0, 0});
    }
    idling = true;
  }
}

Deployment::Deployment(const nn::GptModel& model, bool http, bool traced)
    : engine_(model, engine_config(model.config())) {
  if (traced) {
    steps_ = std::make_unique<StepLoop>(engine_);
  } else {
    engine_.start();
  }
  if (http) {
    server_ = std::make_unique<net::HttpServer>(engine_);
    server_->start();
    for (std::size_t c = 0; c < kChatUsers; ++c) {
      clients_.push_back(std::make_unique<HttpClient>(server_->port()));
    }
  }
}

Deployment::~Deployment() { shutdown(); }

void Deployment::warm_up() {
  std::vector<std::future<serve::RequestResult>> pending;
  for (auto& req : warmup_requests()) {
    pending.push_back(engine_.submit(std::move(req)));
  }
  for (auto& f : pending) {
    if (f.get().status != serve::RequestStatus::kOk) {
      throw std::runtime_error("warm-up request failed");
    }
  }
  if (clients_.empty()) return;
  // One request per connection, concurrently, through the whole HTTP path.
  std::vector<std::future<int>> replies;
  auto warm = warmup_requests();
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    serve::Request req = warm[c];
    req.id += 1'000;  // distinct from the in-process warm-up ids
    auto send = [&client = *clients_[c],
                 body = net::generate_body(req, /*stream=*/true)] {
      double sent_s = 0.0;
      return client.generate(body, sent_s).http_status;
    };
    replies.push_back(std::async(std::launch::async, std::move(send)));
  }
  for (auto& r : replies) {
    if (r.get() != 200) throw std::runtime_error("HTTP warm-up failed");
  }
}

void Deployment::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  clients_.clear();
  if (server_) server_->stop();
  if (steps_) steps_->stop();
  engine_.drain();
}

}  // namespace servebench
