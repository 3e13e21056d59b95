#pragma once
// Async HTTP/1.1 front end over serve::InferenceEngine.
//
// One epoll thread owns every socket (nonblocking listener + connections)
// plus two eventfds: a stop signal and the EventQueue the engine-side
// token/finish callbacks push into. Inference never runs on the server
// thread and socket I/O never runs on the engine thread — the queue is
// the only bridge, so a slow client cannot stall decode and a long decode
// cannot stall accept().
//
// Routes:
//   POST   /v1/generate       JSON body -> serve::Request. The response is
//                             chunked transfer-encoding; the header block
//                             plus an {"id": n} chunk are sent when the
//                             FIRST token is produced (so the client's
//                             time-to-headers is the engine's TTFT), then
//                             one {"token": t} chunk per token and a final
//                             {"done": true, ...} chunk. "stream": false
//                             switches to one plain JSON response at
//                             completion. Backpressure maps try_submit
//                             load-shedding to 429; a deadline that
//                             expires before the first token maps to 504.
//                             "grammar": "<name>" selects a compiled
//                             grammar from HttpServerConfig::grammars for
//                             constrained decoding (unknown name -> 400).
//   DELETE /v1/requests/{id}  engine.cancel(id); 202. An in-flight stream
//                             ends with a final chunk whose status is
//                             "cancelled".
//   GET    /v1/requests/{id}  progress of an in-flight request: {"id",
//                             "state": "pending"|"streaming",
//                             "tokens_streamed"}. 404 once the request has
//                             finished (or was never seen) — terminal state
//                             arrives on the stream itself.
//   POST   /v1/sessions       create a durable conversation; 201 with
//                             {"session_id": n}.
//   POST   /v1/sessions/{id}/generate
//                             same body and streaming contract as
//                             /v1/generate, but "prompt" is the NEW tokens
//                             appended to the session's history (absent or
//                             empty allowed once the session has history).
//                             On retirement the engine parks the
//                             conversation's KV into the tier store; the
//                             next generate on the session resumes
//                             byte-identically without re-prefill. Unknown
//                             session -> 404; a session with a request
//                             already in flight -> 409.
//   GET    /v1/sessions/{id}  session status: tokens, turns, busy, KV
//                             residency ("host"|"disk"|"none").
//   DELETE /v1/sessions/{id}  drop the session and its parked KV; 404 when
//                             unknown.
//   POST   /v1/embeddings     batched embeddings through the same engine:
//                             {"inputs": [[ids...], ...], "reduce":
//                             "mean"|"cls", "gnn": bool}. Fans out one
//                             prefill-only engine request per input (so
//                             embeddings share KV-lease admission and
//                             metrics with generation), joins the finish
//                             events, and answers one JSON document
//                             {"dim", "embeddings": [[floats]...]}; with
//                             "gnn": true a {"num_nodes", "feature_dim",
//                             "features": [flat]} block rides along as
//                             node-feature input for a downstream GNN.
//                             Malformed bodies -> 400 (any already-
//                             submitted inputs are cancelled); a full
//                             admission queue -> 429. Requires the engine
//                             to be configured with an embedder (else 501).
//   GET    /v1/stats          engine ServerStats::to_json() (now including
//                             kv-tier and session counters) plus the
//                             server's own HTTP counters.
//   GET    /v1/healthz        liveness probe.
//
// A client that disconnects mid-stream gets its request cancelled — the
// engine stops spending tokens on an audience that left.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_queue.h"
#include "net/http.h"
#include "serve/engine.h"

namespace matgpt::net {

struct HttpServerConfig {
  /// TCP port to bind on the loopback interface; 0 = kernel-assigned
  /// ephemeral port (see HttpServer::port()).
  int port = 0;
  /// listen(2) backlog.
  int backlog = 64;
  /// Open connections beyond this are answered 503 and closed.
  std::size_t max_connections = 256;
  /// Request header block limit; beyond it the request is answered 431.
  std::size_t max_header_bytes = 8192;
  /// Request body limit; beyond it the request is answered 413.
  std::size_t max_body_bytes = 1 << 20;
  /// EventQueue bound between the engine callbacks and the epoll loop. A
  /// full queue blocks the engine thread (bounded memory beats unbounded
  /// buffering), so size it for the expected token burst rate.
  std::size_t completion_queue_capacity = 4096;
  /// Named compiled grammars a /v1/generate body can select with
  /// "grammar": "<name>" for constrained decoding. Compiled once at
  /// deployment; unknown names are a 400.
  std::map<std::string, std::shared_ptr<const serve::workloads::TokenDfa>>
      grammars;

  /// Throws (MGPT_CHECK) on unserviceable knobs, same discipline as
  /// serve::EngineConfig::validate(): port outside [0, 65535],
  /// backlog <= 0, or a zero max_connections / max_header_bytes /
  /// max_body_bytes / completion_queue_capacity.
  void validate() const;
};

/// Monotonic HTTP-level counters (engine-level stats live in ServerStats),
/// declared once: each row is an HttpCounters field, a slot of the
/// server's atomic table, and a key of the /v1/stats "http" block.
#define MATGPT_HTTP_COUNTERS(X)                                        \
  X(connections_accepted)                                              \
  X(connections_rejected) /* over max_connections -> 503 */            \
  X(requests)             /* well-formed requests dispatched */        \
  X(protocol_errors)      /* 400/413/431/501/505 from parse */         \
  X(streams_started)                                                   \
  X(streams_completed)                                                 \
  X(shed_429)                                                          \
  X(timeout_504)                                                       \
  X(bad_request_400)      /* body-level rejections */                  \
  X(cancels_requested)                                                 \
  X(client_aborts)        /* disconnect mid-stream */                  \
  X(embed_jobs)           /* /v1/embeddings requests served */         \
  X(embed_inputs)         /* individual inputs embedded */

struct HttpCounters {
#define MATGPT_HTTP_FIELD(name) std::uint64_t name = 0;
  MATGPT_HTTP_COUNTERS(MATGPT_HTTP_FIELD)
#undef MATGPT_HTTP_FIELD
};

class HttpServer {
 public:
  /// The engine must outlive the server. Callers normally engine.start()
  /// before server.start() — requests submitted while the engine worker
  /// is not running sit in the admission queue unserved.
  HttpServer(serve::InferenceEngine& engine, HttpServerConfig config = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + listen on 127.0.0.1 and spawn the epoll thread.
  void start();

  /// Graceful stop: close the listener, cancel every in-flight stream,
  /// wait for their final events, close connections, join the thread.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  /// The bound port (useful with config.port = 0).
  std::uint16_t port() const { return port_; }

  HttpCounters counters() const;

 private:
  enum class Counter : std::size_t {
#define MATGPT_HTTP_ENUM(name) name,
    MATGPT_HTTP_COUNTERS(MATGPT_HTTP_ENUM)
#undef MATGPT_HTTP_ENUM
        kCount
  };
  void bump(Counter c, std::uint64_t n = 1) {
    counts_[static_cast<std::size_t>(c)].fetch_add(n);
  }
  std::uint64_t count(Counter c) const {
    return counts_[static_cast<std::size_t>(c)].load();
  }

  struct Conn {
    int fd = -1;
    HttpParser parser;
    std::string out;               // bytes accepted but not yet written
    bool want_write = false;       // EPOLLOUT armed
    bool close_after_flush = false;
    bool busy = false;             // a generate stream owns this response
    std::uint64_t stream_id = 0;
    std::uint64_t embed_job = 0;   // non-zero: an embed join owns it
  };

  struct Stream {
    int conn_fd = -1;              // -1 once the client disconnected
    bool chunked = true;           // "stream": true requests
    bool headers_sent = false;
    std::uint64_t id = 0;
    std::vector<std::int32_t> tokens;  // generated tokens, arrival order
  };

  // One /v1/embeddings request: N engine sub-requests joined into one
  // response. Lives until every sub-request's finish event has arrived,
  // even after a client abort (conn_fd = -1), so late events never dangle.
  struct EmbedJob {
    int conn_fd = -1;
    bool gnn = false;
    std::size_t remaining = 0;
    std::uint64_t id = 0;
    std::vector<std::vector<float>> embeddings;   // by input index
    std::vector<serve::RequestStatus> statuses;   // by input index
    std::vector<std::uint64_t> request_ids;       // for cancel on abort
  };

  void loop();
  void accept_ready();
  void conn_readable(Conn& conn);
  void conn_writable(Conn& conn);
  // fd-based with re-lookup each iteration: dispatch can destroy the
  // connection (error + Connection: close), so a Conn& would dangle.
  void process_requests(int fd);
  void dispatch(Conn& conn, const HttpRequest& request);
  // session_id 0 = the plain /v1/generate route; non-zero attaches the
  // request to that session (prompt may then be absent once history exists).
  void handle_generate(Conn& conn, const HttpRequest& request,
                       std::uint64_t session_id = 0);
  void handle_stats(Conn& conn);
  void handle_cancel(Conn& conn, std::uint64_t id);
  void handle_request_status(Conn& conn, std::uint64_t id);
  void handle_embeddings(Conn& conn, const HttpRequest& request);
  // True when the event belonged to an embed sub-request (and was
  // consumed); finish events decrement the job and emit the joined
  // response once the last one lands.
  bool handle_embed_event(EngineEvent& event);
  void finish_embed_job(std::uint64_t job_id);
  void handle_session_create(Conn& conn);
  void handle_session_generate(Conn& conn, const HttpRequest& request,
                               std::uint64_t session_id);
  void handle_session_info(Conn& conn, std::uint64_t session_id);
  void handle_session_drop(Conn& conn, std::uint64_t session_id);
  void handle_engine_event(EngineEvent& event);
  void send_bytes(Conn& conn, std::string bytes);
  /// Answer `status` with an {"error": message} body, counting it under
  /// `counter` when given.
  void send_error(Conn& conn, int status, std::string_view message,
                  std::optional<Counter> counter = std::nullopt);
  /// engine_.try_submit; on refusal answers 429 (queue full) or 400
  /// (invalid request) and returns false.
  bool submit(Conn& conn, serve::Request request);
  /// True when `request` uses `method`; otherwise answers 405.
  bool allow(Conn& conn, const HttpRequest& request, std::string_view method);
  void flush(Conn& conn);
  void update_epoll(Conn& conn);
  void destroy_conn(int fd);
  void begin_stop();

  serve::InferenceEngine& engine_;
  HttpServerConfig config_;
  EventQueue queue_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool stopping_ = false;          // loop-thread state after stop signal
  std::uint64_t next_id_ = 1;      // server-assigned request ids

  std::map<int, Conn> conns_;
  std::map<std::uint64_t, Stream> streams_;
  std::map<std::uint64_t, EmbedJob> embed_jobs_;          // by job id
  // Engine request id -> (job id, input index) for the join.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
      embed_requests_;
  std::uint64_t next_embed_job_ = 1;

  // Written by the loop thread, read by counters() from any thread.
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Counter::kCount)>
      counts_{};
};

}  // namespace matgpt::net
