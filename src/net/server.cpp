#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "common/error.h"
#include "net/json.h"

namespace matgpt::net {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;

Json error_body(std::string_view message) {
  Json body = Json::object();
  body.set("error", Json::string(std::string(message)));
  return body;
}

// Strict decimal uint64 (the {id} path segments): digits only, non-empty,
// overflow-checked over the full range /v1/generate accepts.
bool parse_u64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

// A JSON array of int32 token ids; throws (-> 400) on anything else.
std::vector<std::int32_t> token_ids(const Json& array, const char* what) {
  MGPT_CHECK(array.is_array(), what << " must be an array of token ids");
  std::vector<std::int32_t> tokens;
  for (const Json& token : array.items()) {
    const std::int64_t v = token.as_int();
    MGPT_CHECK(v >= 0 && v <= 0x7fffffff,
               what << " token " << v << " out of int32 range");
    tokens.push_back(static_cast<std::int32_t>(v));
  }
  return tokens;
}

// Engine on_finish callback: posts the retirement to the loop thread.
std::function<void(const serve::RequestResult&)> post_finish(
    EventQueue* queue, std::uint64_t id) {
  return [queue, id](const serve::RequestResult& result) {
    EngineEvent event;
    event.kind = EngineEvent::Kind::kFinish;
    event.request_id = id;
    event.result = result;
    queue->push(std::move(event));
  };
}

serve::Priority parse_priority(const std::string& name) {
  if (name == "high") return serve::Priority::kHigh;
  if (name == "normal") return serve::Priority::kNormal;
  if (name == "low") return serve::Priority::kLow;
  MGPT_CHECK(false, "priority must be high|normal|low (got \"" << name
                                                              << "\")");
  return serve::Priority::kNormal;  // unreachable
}

}  // namespace

void HttpServerConfig::validate() const {
  MGPT_CHECK(port >= 0 && port <= 65535,
             "HttpServerConfig: port must be in [0, 65535] (got " << port
                                                                  << ")");
  MGPT_CHECK(backlog > 0, "HttpServerConfig: backlog must be positive (got "
                              << backlog << ")");
  MGPT_CHECK(max_connections != 0,
             "HttpServerConfig: max_connections must be non-zero");
  MGPT_CHECK(max_header_bytes != 0,
             "HttpServerConfig: max_header_bytes must be non-zero");
  MGPT_CHECK(max_body_bytes != 0,
             "HttpServerConfig: max_body_bytes must be non-zero");
  MGPT_CHECK(completion_queue_capacity != 0,
             "HttpServerConfig: completion_queue_capacity must be non-zero");
}

namespace {
// Validates before the member-init list runs (the EngineConfig pattern).
HttpServerConfig validated(HttpServerConfig config) {
  config.validate();
  return config;
}
}  // namespace

HttpServer::HttpServer(serve::InferenceEngine& engine,
                       HttpServerConfig config)
    : engine_(engine),
      config_(validated(std::move(config))),
      queue_(config_.completion_queue_capacity) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  MGPT_CHECK(!thread_.joinable(), "server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  MGPT_CHECK(listen_fd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  MGPT_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof addr) == 0,
             "bind(127.0.0.1:" << config_.port
                               << "): " << std::strerror(errno));
  MGPT_CHECK(::listen(listen_fd_, config_.backlog) == 0,
             "listen(): " << std::strerror(errno));
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MGPT_CHECK(epoll_fd_ >= 0, "epoll_create1(): " << std::strerror(errno));
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  MGPT_CHECK(stop_fd_ >= 0, "eventfd(): " << std::strerror(errno));

  auto add = [this](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    MGPT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
               "epoll_ctl(ADD): " << std::strerror(errno));
  };
  add(listen_fd_);
  add(stop_fd_);
  add(queue_.fd());

  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
}

void HttpServer::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_fd_, &one, sizeof one);
  thread_.join();
  // The loop thread has exited: its data structures are ours to tear down.
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  streams_.clear();
  embed_jobs_.clear();
  embed_requests_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(stop_fd_);
  stop_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  running_.store(false);
}

HttpCounters HttpServer::counters() const {
  HttpCounters c;
#define MATGPT_HTTP_LOAD(name) c.name = count(Counter::name);
  MATGPT_HTTP_COUNTERS(MATGPT_HTTP_LOAD)
#undef MATGPT_HTTP_LOAD
  return c;
}

void HttpServer::loop() {
  std::vector<int> dead;  // fds destroyed during the current batch
  epoll_event events[64];
  while (true) {
    // Finite timeout: belt-and-suspenders against any missed wakeup, and
    // lets the stopping state observe stream completion promptly.
    const int n = ::epoll_wait(epoll_fd_, events, 64, 100);
    if (n < 0 && errno != EINTR) break;
    dead.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      bool is_dead = false;
      for (const int d : dead) is_dead = is_dead || d == fd;
      if (is_dead) continue;
      if (fd == stop_fd_) {
        std::uint64_t clear = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(stop_fd_, &clear, sizeof clear);
        begin_stop();
        continue;
      }
      if (fd == queue_.fd()) {
        for (EngineEvent& event : queue_.drain()) {
          handle_engine_event(event);
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::uint32_t mask = events[i].events;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        destroy_conn(fd);
        dead.push_back(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0) conn_readable(it->second);
      // conn_readable may have destroyed the connection (EOF / fatal).
      it = conns_.find(fd);
      if (it == conns_.end()) {
        dead.push_back(fd);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) conn_writable(it->second);
      if (conns_.find(fd) == conns_.end()) dead.push_back(fd);
    }
    // Drain any events the queue received while we were processing: the
    // level-triggered eventfd re-arms, but checking here shortens the
    // stop path.
    if (stopping_ && streams_.empty() && embed_jobs_.empty()) break;
  }
}

void HttpServer::begin_stop() {
  if (stopping_) return;
  stopping_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (engine_.running()) {
    // Cancel every in-flight stream and embed join; the loop exits when
    // their finish events have all arrived, so no engine callback can
    // outlive us.
    for (const auto& [id, stream] : streams_) engine_.cancel(id);
    for (const auto& [jid, job] : embed_jobs_) {
      for (const std::uint64_t id : job.request_ids) engine_.cancel(id);
    }
  } else {
    // No worker is stepping the engine: finish events will never come.
    streams_.clear();
    embed_jobs_.clear();
    embed_requests_.clear();
  }
}

void HttpServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a racing close
    if (conns_.size() >= config_.max_connections) {
      bump(Counter::connections_rejected);
      const std::string busy = make_response(
          503, error_body("connection limit reached").dump(),
          "application/json", false);
      [[maybe_unused]] const ssize_t r =
          ::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.parser = HttpParser(
        {.max_header_bytes = config_.max_header_bytes,
         .max_body_bytes = config_.max_body_bytes});
    conns_.emplace(fd, std::move(conn));
    bump(Counter::connections_accepted);
  }
}

void HttpServer::conn_readable(Conn& conn) {
  char buf[kReadChunk];
  while (true) {
    const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
    if (r > 0) {
      conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or a hard error: the client is gone.
    destroy_conn(conn.fd);
    return;
  }
  process_requests(conn.fd);
}

void HttpServer::process_requests(int fd) {
  // One generate stream owns the response channel until its final chunk;
  // pipelined requests behind it stay buffered in the parser. Re-lookup
  // every iteration: dispatch may have destroyed the connection.
  while (true) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (conn.busy || conn.close_after_flush) return;
    HttpRequest request;
    const HttpParser::Status status = conn.parser.next(request);
    if (status == HttpParser::Status::kNeedMore) return;
    if (status == HttpParser::Status::kError) {
      bump(Counter::protocol_errors);
      send_bytes(conn,
                 make_response(conn.parser.error_status(),
                               error_body(conn.parser.error_reason()).dump(),
                               "application/json", false));
      conn.close_after_flush = true;
      flush(conn);
      return;
    }
    bump(Counter::requests);
    if (!request.keep_alive) conn.close_after_flush = true;
    dispatch(conn, request);
  }
}

void HttpServer::dispatch(Conn& conn, const HttpRequest& request) {
  const std::string& target = request.target;
  if (stopping_ && request.method == "POST") {  // no new work while stopping
    send_error(conn, 503, "server stopping", Counter::shed_429);
    return;
  }
  if (target == "/v1/generate") {
    if (allow(conn, request, "POST")) handle_generate(conn, request);
    return;
  }
  if (target == "/v1/stats") {
    if (allow(conn, request, "GET")) handle_stats(conn);
    return;
  }
  if (target == "/v1/healthz") {
    send_bytes(conn, make_response(200, "{\"ok\":true}"));
    return;
  }
  constexpr std::string_view kRequestPrefix = "/v1/requests/";
  if (target.size() > kRequestPrefix.size() &&
      target.starts_with(kRequestPrefix)) {
    if (request.method != "GET" && request.method != "DELETE") {
      send_error(conn, 405, "use GET or DELETE");
      return;
    }
    std::uint64_t id = 0;
    if (!parse_u64(std::string_view(target).substr(kRequestPrefix.size()),
                   id)) {
      send_error(conn, 400, "bad request id", Counter::bad_request_400);
      return;
    }
    if (request.method == "DELETE") {
      handle_cancel(conn, id);
    } else {
      handle_request_status(conn, id);
    }
    return;
  }
  if (target == "/v1/embeddings") {
    if (allow(conn, request, "POST")) handle_embeddings(conn, request);
    return;
  }
  if (target == "/v1/sessions") {
    if (allow(conn, request, "POST")) handle_session_create(conn);
    return;
  }
  constexpr std::string_view kSessionPrefix = "/v1/sessions/";
  if (target.size() > kSessionPrefix.size() &&
      target.starts_with(kSessionPrefix)) {
    std::string_view rest =
        std::string_view(target).substr(kSessionPrefix.size());
    constexpr std::string_view kGenerateSuffix = "/generate";
    const bool generate = rest.ends_with(kGenerateSuffix);
    if (generate) rest.remove_suffix(kGenerateSuffix.size());
    std::uint64_t session_id = 0;
    if (!parse_u64(rest, session_id) || session_id == 0) {
      send_error(conn, 400, "bad session id", Counter::bad_request_400);
      return;
    }
    if (generate) {
      if (allow(conn, request, "POST")) {
        handle_session_generate(conn, request, session_id);
      }
      return;
    }
    if (request.method == "GET") {
      handle_session_info(conn, session_id);
      return;
    }
    if (request.method == "DELETE") {
      handle_session_drop(conn, session_id);
      return;
    }
    send_error(conn, 405, "use GET or DELETE");
    return;
  }
  send_error(conn, 404, "no such route");
}

void HttpServer::handle_generate(Conn& conn, const HttpRequest& request,
                                 std::uint64_t session_id) {
  serve::Request req;
  req.session_id = session_id;
  bool chunked = true;
  try {
    const Json body = Json::parse(request.body);
    MGPT_CHECK(body.is_object(), "body must be a JSON object");
    const Json* prompt = body.find("prompt");
    // A session turn may omit the prompt entirely (continue from history);
    // the plain route always requires one.
    MGPT_CHECK(prompt != nullptr || session_id != 0,
               "\"prompt\" must be an array of token ids");
    if (prompt != nullptr) req.prompt = token_ids(*prompt, "\"prompt\"");
    if (const Json* v = body.find("id")) {
      req.id = static_cast<std::uint64_t>(v->as_int());
    } else {
      req.id = next_id_++;
    }
    if (const Json* v = body.find("max_new_tokens")) {
      req.max_new_tokens = v->as_int();
    }
    if (const Json* v = body.find("temperature")) {
      req.sampling.temperature = static_cast<float>(v->as_number());
    }
    if (const Json* v = body.find("top_k")) {
      req.sampling.top_k = static_cast<std::int32_t>(v->as_int());
    }
    if (const Json* v = body.find("top_p")) {
      req.sampling.top_p = static_cast<float>(v->as_number());
    }
    if (const Json* v = body.find("seed")) {
      // Seeds above INT64_MAX arrive from the parser as the int64 bit
      // pattern; the cast recovers the full uint64 range exactly.
      req.sampling.seed = static_cast<std::uint64_t>(v->as_int());
    }
    if (const Json* v = body.find("spec_k")) req.spec_k = v->as_int();
    if (const Json* v = body.find("grammar")) {
      const std::string name = v->as_string();
      auto git = config_.grammars.find(name);
      MGPT_CHECK(git != config_.grammars.end(),
                 "unknown grammar \"" << name << "\"");
      req.grammar = git->second;
    }
    if (const Json* v = body.find("priority")) {
      req.priority = parse_priority(v->as_string());
    }
    if (const Json* v = body.find("deadline_ms")) {
      req.deadline_ms = v->as_number();
    }
    if (const Json* v = body.find("stream")) chunked = v->as_bool();
  } catch (const Error& e) {
    send_error(conn, 400, e.what(), Counter::bad_request_400);
    return;
  }

  if (streams_.find(req.id) != streams_.end()) {
    send_error(conn, 409, "request id already in flight",
               Counter::bad_request_400);
    return;
  }

  const std::uint64_t id = req.id;
  req.on_token = [queue = &queue_, id](std::int32_t token) {
    EngineEvent event;
    event.kind = EngineEvent::Kind::kToken;
    event.request_id = id;
    event.token = token;
    queue->push(std::move(event));
  };
  req.on_finish = post_finish(&queue_, id);

  if (!submit(conn, std::move(req))) return;

  Stream stream;
  stream.conn_fd = conn.fd;
  stream.chunked = chunked;
  stream.id = id;
  streams_.emplace(id, std::move(stream));
  conn.busy = true;
  conn.stream_id = id;
  bump(Counter::streams_started);
}

void HttpServer::handle_embeddings(Conn& conn, const HttpRequest& request) {
  if (engine_.config().workloads.embedder == nullptr) {
    send_error(conn, 501, "no embedder configured", Counter::bad_request_400);
    return;
  }
  std::vector<std::vector<std::int32_t>> inputs;
  serve::EmbedReduce reduce = serve::EmbedReduce::kMean;
  serve::Priority priority = serve::Priority::kNormal;
  bool gnn = false;
  try {
    const Json body = Json::parse(request.body);
    MGPT_CHECK(body.is_object(), "body must be a JSON object");
    const Json* in = body.find("inputs");
    MGPT_CHECK(in != nullptr && in->is_array(),
               "\"inputs\" must be an array of token-id arrays");
    MGPT_CHECK(!in->items().empty(), "\"inputs\" must be non-empty");
    for (const Json& row : in->items()) {
      inputs.push_back(token_ids(row, "each input"));
      MGPT_CHECK(!inputs.back().empty(),
                 "inputs must be non-empty token arrays");
    }
    if (const Json* v = body.find("reduce")) {
      const std::string name = v->as_string();
      if (name == "mean") {
        reduce = serve::EmbedReduce::kMean;
      } else if (name == "cls") {
        reduce = serve::EmbedReduce::kCls;
      } else {
        MGPT_CHECK(false, "reduce must be mean|cls (got \"" << name
                                                            << "\")");
      }
    }
    if (const Json* v = body.find("gnn")) gnn = v->as_bool();
    if (const Json* v = body.find("priority")) {
      priority = parse_priority(v->as_string());
    }
  } catch (const Error& e) {
    send_error(conn, 400, e.what(), Counter::bad_request_400);
    return;
  }

  // Fan out one prefill-only engine request per input. Ids are assigned
  // up front so a mid-fan-out failure can cancel the already-submitted
  // prefix; their finish events arrive unregistered and are dropped.
  std::vector<std::uint64_t> ids;
  ids.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ids.push_back(next_id_++);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    serve::Request req;
    req.id = ids[i];
    req.prompt = std::move(inputs[i]);
    req.embed = true;
    req.embed_reduce = reduce;
    req.priority = priority;
    req.on_finish = post_finish(&queue_, ids[i]);
    if (!submit(conn, std::move(req))) {
      for (std::size_t j = 0; j < i; ++j) engine_.cancel(ids[j]);
      return;
    }
  }

  EmbedJob job;
  job.conn_fd = conn.fd;
  job.gnn = gnn;
  job.remaining = ids.size();
  job.id = next_embed_job_++;
  job.embeddings.resize(ids.size());
  job.statuses.assign(ids.size(), serve::RequestStatus::kOk);
  job.request_ids = ids;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    embed_requests_.emplace(ids[i], std::make_pair(job.id, i));
  }
  conn.busy = true;
  conn.embed_job = job.id;
  bump(Counter::embed_jobs);
  bump(Counter::embed_inputs, ids.size());
  embed_jobs_.emplace(job.id, std::move(job));
}

bool HttpServer::handle_embed_event(EngineEvent& event) {
  auto it = embed_requests_.find(event.request_id);
  if (it == embed_requests_.end()) return false;
  if (event.kind != EngineEvent::Kind::kFinish) return true;  // no tokens
  const auto [job_id, index] = it->second;
  embed_requests_.erase(it);
  auto jit = embed_jobs_.find(job_id);
  if (jit == embed_jobs_.end()) return true;
  EmbedJob& job = jit->second;
  job.statuses[index] = event.result.status;
  job.embeddings[index] = std::move(event.result.embedding);
  if (--job.remaining == 0) finish_embed_job(job_id);
  return true;
}

void HttpServer::finish_embed_job(std::uint64_t job_id) {
  auto jit = embed_jobs_.find(job_id);
  if (jit == embed_jobs_.end()) return;
  EmbedJob& job = jit->second;
  const int fd = job.conn_fd;
  auto cit = fd >= 0 ? conns_.find(fd) : conns_.end();
  if (cit != conns_.end()) {
    Conn& conn = cit->second;
    conn.busy = false;
    conn.embed_job = 0;
    bool all_ok = true;
    for (const serve::RequestStatus s : job.statuses) {
      all_ok = all_ok && s == serve::RequestStatus::kOk;
    }
    if (!all_ok) {
      Json body = error_body("embedding failed");
      Json statuses = Json::array();
      for (const serve::RequestStatus s : job.statuses) {
        statuses.push_back(Json::string(serve::status_name(s)));
      }
      body.set("statuses", std::move(statuses));
      send_bytes(conn, make_response(500, body.dump()));
    } else {
      const std::int64_t dim =
          job.embeddings.empty()
              ? 0
              : static_cast<std::int64_t>(job.embeddings.front().size());
      Json body = Json::object();
      body.set("dim", Json::number(dim));
      Json rows = Json::array();
      Json flat = Json::array();  // the same values, row-major (gnn block)
      for (const std::vector<float>& e : job.embeddings) {
        Json row = Json::array();
        for (const float v : e) {
          row.push_back(Json::number(static_cast<double>(v)));
          if (job.gnn) flat.push_back(Json::number(static_cast<double>(v)));
        }
        rows.push_back(std::move(row));
      }
      body.set("embeddings", std::move(rows));
      if (job.gnn) {
        // Node-feature layout for a downstream GNN: one flat row-major
        // feature matrix, inputs as nodes.
        Json g = Json::object();
        g.set("num_nodes", Json::number(static_cast<std::int64_t>(
                               job.embeddings.size())));
        g.set("feature_dim", Json::number(dim));
        g.set("features", std::move(flat));
        body.set("gnn", std::move(g));
      }
      send_bytes(conn, make_response(200, body.dump()));
    }
  }
  embed_jobs_.erase(jit);
  if (fd >= 0 && conns_.find(fd) != conns_.end()) process_requests(fd);
}

void HttpServer::send_error(Conn& conn, int status, std::string_view message,
                            std::optional<Counter> counter) {
  if (counter.has_value()) bump(*counter);
  send_bytes(conn, make_response(status, error_body(message).dump()));
}

bool HttpServer::submit(Conn& conn, serve::Request request) {
  try {
    // Backpressure: a full admission queue sheds (429) instead of
    // blocking the event loop behind the engine.
    if (engine_.try_submit(std::move(request)).has_value()) return true;
    send_error(conn, 429, "admission queue full", Counter::shed_429);
  } catch (const Error& e) {
    send_error(conn, 400, e.what(), Counter::bad_request_400);
  }
  return false;
}

bool HttpServer::allow(Conn& conn, const HttpRequest& request,
                       std::string_view method) {
  if (request.method == method) return true;
  send_error(conn, 405, "use " + std::string(method));
  return false;
}

void HttpServer::handle_stats(Conn& conn) {
  const HttpCounters c = counters();
  Json http = Json::object();
#define MATGPT_HTTP_JSON(name) \
  http.set(#name, Json::number(static_cast<std::int64_t>(c.name)));
  MATGPT_HTTP_COUNTERS(MATGPT_HTTP_JSON)
#undef MATGPT_HTTP_JSON
  // Loop-thread gauges, not counters.
  http.set("connections_open",
           Json::number(static_cast<std::int64_t>(conns_.size())));
  http.set("streams_active",
           Json::number(static_cast<std::int64_t>(streams_.size())));
  std::string body = "{\n\"engine\": ";
  body += engine_.stats_json();
  body += ",\n\"http\": ";
  body += http.dump();
  body += "\n}";
  send_bytes(conn, make_response(200, body));
}

void HttpServer::handle_cancel(Conn& conn, std::uint64_t id) {
  engine_.cancel(id);
  bump(Counter::cancels_requested);
  Json body = Json::object();
  body.set("id", Json::number(static_cast<std::int64_t>(id)));
  body.set("cancel", Json::string("staged"));
  send_bytes(conn, make_response(202, body.dump()));
}

void HttpServer::handle_request_status(Conn& conn, std::uint64_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    send_error(conn, 404, "no such request");
    return;
  }
  const Stream& stream = it->second;
  Json body = Json::object();
  body.set("id", Json::number(static_cast<std::int64_t>(id)));
  body.set("state", Json::string(stream.tokens.empty() ? "pending"
                                                       : "streaming"));
  body.set("tokens_streamed",
           Json::number(static_cast<std::int64_t>(stream.tokens.size())));
  send_bytes(conn, make_response(200, body.dump()));
}

void HttpServer::handle_session_create(Conn& conn) {
  const std::uint64_t session_id = engine_.create_session();
  Json body = Json::object();
  body.set("session_id",
           Json::number(static_cast<std::int64_t>(session_id)));
  send_bytes(conn, make_response(201, body.dump()));
}

void HttpServer::handle_session_generate(Conn& conn,
                                         const HttpRequest& request,
                                         std::uint64_t session_id) {
  // Pre-checks give precise status codes; the engine re-checks under its
  // own lock inside submit, so a race just downgrades to a 400.
  if (!engine_.has_session(session_id)) {
    send_error(conn, 404, "no such session", Counter::bad_request_400);
    return;
  }
  if (engine_.session_busy(session_id)) {
    send_error(conn, 409, "session already has a request in flight",
               Counter::bad_request_400);
    return;
  }
  handle_generate(conn, request, session_id);
}

void HttpServer::handle_session_info(Conn& conn, std::uint64_t session_id) {
  const std::optional<serve::InferenceEngine::SessionInfo> info =
      engine_.session_info(session_id);
  if (!info.has_value()) {
    send_error(conn, 404, "no such session");
    return;
  }
  Json body = Json::object();
  body.set("session_id",
           Json::number(static_cast<std::int64_t>(session_id)));
  body.set("tokens", Json::number(info->tokens));
  body.set("turns", Json::number(info->turns));
  body.set("busy", Json::boolean(info->busy));
  body.set("kv_residency",
           Json::string(serve::kv_tier::residency_name(info->residency)));
  send_bytes(conn, make_response(200, body.dump()));
}

void HttpServer::handle_session_drop(Conn& conn, std::uint64_t session_id) {
  if (!engine_.has_session(session_id)) {
    send_error(conn, 404, "no such session");
    return;
  }
  engine_.drop_session(session_id);
  Json body = Json::object();
  body.set("session_id",
           Json::number(static_cast<std::int64_t>(session_id)));
  body.set("dropped", Json::boolean(true));
  send_bytes(conn, make_response(200, body.dump()));
}

void HttpServer::handle_engine_event(EngineEvent& event) {
  if (handle_embed_event(event)) return;
  auto it = streams_.find(event.request_id);
  if (it == streams_.end()) return;  // stream dropped (client abort + stop)
  Stream& stream = it->second;
  // Every send below can destroy the connection (a hard send error — e.g.
  // ECONNRESET from a client that vanished mid-stream — lands in
  // destroy_conn via flush), so the Conn is re-looked-up by fd after each
  // write instead of held across them. destroy_conn never erases the
  // stream itself, so `stream` stays valid throughout.
  const int fd = stream.conn_fd;
  auto live = [this](int conn_fd) -> Conn* {
    if (conn_fd < 0) return nullptr;
    auto cit = conns_.find(conn_fd);
    return cit == conns_.end() ? nullptr : &cit->second;
  };
  Conn* conn = live(fd);

  if (event.kind == EngineEvent::Kind::kToken) {
    stream.tokens.push_back(event.token);
    if (conn == nullptr || !stream.chunked) return;
    if (!stream.headers_sent) {
      // Deferred headers: the client's time-to-headers IS the TTFT.
      std::string bytes = make_chunked_head(200);
      Json head = Json::object();
      head.set("id",
               Json::number(static_cast<std::int64_t>(stream.id)));
      bytes += make_chunk(head.dump() + "\n");
      stream.headers_sent = true;
      send_bytes(*conn, std::move(bytes));
      conn = live(fd);
      if (conn == nullptr) return;
    }
    Json tok = Json::object();
    tok.set("token", Json::number(static_cast<std::int64_t>(event.token)));
    send_bytes(*conn, make_chunk(tok.dump() + "\n"));
    return;
  }

  // Finish.
  const serve::RequestResult& result = event.result;
  bump(Counter::streams_completed);
  const bool timed_out_cold = result.status == serve::RequestStatus::kTimeout &&
                              result.generated_tokens == 0;
  if (timed_out_cold) bump(Counter::timeout_504);
  if (conn != nullptr) {
    // Release the response channel BEFORE the terminal write: with busy
    // already false, a Connection: close drain destroys the connection
    // inside send_bytes the moment the last byte flushes, and the
    // re-lookup below observes that instead of touching freed memory.
    conn->busy = false;
    conn->stream_id = 0;
    if (stream.headers_sent) {
      Json done = Json::object();
      done.set("done", Json::boolean(true));
      done.set("status", Json::string(serve::status_name(result.status)));
      done.set("generated", Json::number(result.generated_tokens));
      done.set("ttft_ms", Json::number(result.ttft_s * 1e3));
      done.set("total_ms", Json::number(result.total_s * 1e3));
      done.set("tokens_per_s", Json::number(result.tokens_per_s));
      done.set("preemptions", Json::number(result.preemptions));
      send_bytes(*conn, make_chunk(done.dump() + "\n") + make_last_chunk());
    } else if (timed_out_cold) {
      // The deadline expired before the first token: the engine never
      // produced anything to stream, so the whole exchange maps to 504.
      Json body = error_body("deadline expired before first token");
      body.set("id", Json::number(static_cast<std::int64_t>(stream.id)));
      send_bytes(*conn, make_response(504, body.dump()));
    } else {
      // Non-streamed completion (or a cancel that beat the first token):
      // one JSON document with every generated token.
      Json body = Json::object();
      body.set("id", Json::number(static_cast<std::int64_t>(stream.id)));
      body.set("status", Json::string(serve::status_name(result.status)));
      Json tokens = Json::array();
      for (const std::int32_t t : stream.tokens) {
        tokens.push_back(Json::number(static_cast<std::int64_t>(t)));
      }
      body.set("tokens", std::move(tokens));
      body.set("generated", Json::number(result.generated_tokens));
      body.set("ttft_ms", Json::number(result.ttft_s * 1e3));
      body.set("total_ms", Json::number(result.total_s * 1e3));
      body.set("tokens_per_s", Json::number(result.tokens_per_s));
      send_bytes(*conn, make_response(200, body.dump()));
    }
  }
  streams_.erase(it);
  if (live(fd) != nullptr) {
    // Pipelined requests parked behind the stream can go now. (A draining
    // Connection: close either already died inside send_bytes or is
    // waiting on EPOLLOUT; process_requests leaves it alone.)
    process_requests(fd);
  }
}

void HttpServer::send_bytes(Conn& conn, std::string bytes) {
  conn.out += bytes;
  flush(conn);
}

void HttpServer::flush(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t w =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (w > 0) {
      conn.out.erase(0, static_cast<std::size_t>(w));
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_epoll(conn);
      }
      return;
    }
    destroy_conn(conn.fd);
    return;
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll(conn);
  }
  if (conn.close_after_flush && !conn.busy) destroy_conn(conn.fd);
}

void HttpServer::conn_writable(Conn& conn) { flush(conn); }

void HttpServer::update_epoll(Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void HttpServer::destroy_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.busy && conn.embed_job != 0) {
    // The client left before its embed join completed: detach the job
    // (it drains its remaining finish events responseless) and stop the
    // engine spending forwards on it.
    auto jit = embed_jobs_.find(conn.embed_job);
    if (jit != embed_jobs_.end()) {
      jit->second.conn_fd = -1;
      for (const std::uint64_t id : jit->second.request_ids) {
        engine_.cancel(id);
      }
    }
    bump(Counter::client_aborts);
  } else if (conn.busy) {
    // The audience left mid-stream: stop spending decode steps on it.
    auto sit = streams_.find(conn.stream_id);
    if (sit != streams_.end()) sit->second.conn_fd = -1;
    engine_.cancel(conn.stream_id);
    bump(Counter::client_aborts);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

}  // namespace matgpt::net
