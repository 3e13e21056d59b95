// Tests for src/net: JSON round trips, the incremental HTTP parser
// (fragmented reads, pipelining, limit -> status mapping), config
// validation, deterministic Poisson schedules, engine lifecycle
// (start/drain/destruction mid-decode), and loopback end-to-end HTTP
// serving — including byte-identity between tokens streamed over a real
// socket and an in-process run_trace with the same seeds.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "net/event_queue.h"
#include "net/http.h"
#include "net/json.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "nn/gpt.h"
#include "nn/bert.h"
#include "serve/engine.h"
#include "serve/workloads/grammar.h"
#include "serve/trace.h"

namespace matgpt {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(NetJson, ParsesScalarsAndNesting) {
  const net::Json v = net::Json::parse(
      R"({"a": 1, "b": [true, null, -2.5], "c": {"d": "x"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_int(), 1);
  const net::Json& b = *v.find("b");
  ASSERT_TRUE(b.is_array());
  EXPECT_TRUE(b.items()[0].as_bool());
  EXPECT_TRUE(b.items()[1].is_null());
  EXPECT_DOUBLE_EQ(b.items()[2].as_number(), -2.5);
  EXPECT_EQ(v.find("c")->find("d")->as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(NetJson, IntegerRoundTripIsExact) {
  // Request ids are uint64-ish; they must survive dump -> parse exactly.
  const std::int64_t big = 9007199254740993LL;  // 2^53 + 1
  net::Json obj = net::Json::object();
  obj.set("id", net::Json::number(big));
  const net::Json back = net::Json::parse(obj.dump());
  EXPECT_EQ(back.find("id")->as_int(), big);
}

TEST(NetJson, StringEscapes) {
  const net::Json v = net::Json::parse(R"("a\"b\\c\nAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nA\xc3\xa9");
  // Control characters are escaped on dump and survive the round trip.
  net::Json s = net::Json::string(std::string("x\n\t\x01y"));
  EXPECT_EQ(net::Json::parse(s.dump()).as_string(), "x\n\t\x01y");
}

TEST(NetJson, Uint64SeedsSurviveAsInt64BitPattern) {
  // Integers in (INT64_MAX, UINT64_MAX] — uint64 sampling seeds — parse
  // to the int64 bit pattern, so a cast recovers them exactly.
  const net::Json v = net::Json::parse(R"({"seed": 18446744073709551615})");
  EXPECT_EQ(static_cast<std::uint64_t>(v.find("seed")->as_int()),
            18446744073709551615ull);
  // One past UINT64_MAX overflows to the double path and as_int rejects
  // it as out of range; so does a far-negative integer. (Negatives just
  // below INT64_MIN that ROUND to -2^63 are accepted as INT64_MIN — the
  // double path cannot tell them apart.)
  EXPECT_THROW(net::Json::parse("18446744073709551616").as_int(), Error);
  EXPECT_THROW(net::Json::parse("-18446744073709551615").as_int(), Error);
}

TEST(NetJson, RejectsMalformed) {
  EXPECT_THROW(net::Json::parse("{"), Error);
  EXPECT_THROW(net::Json::parse("[1,]"), Error);
  EXPECT_THROW(net::Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(net::Json::parse(""), Error);
  EXPECT_THROW(net::Json::parse("nul"), Error);
  // as_int on a non-integral number throws instead of truncating.
  EXPECT_THROW(net::Json::parse("1.5").as_int(), Error);
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

constexpr std::string_view kPost =
    "POST /v1/generate HTTP/1.1\r\n"
    "Host: x\r\n"
    "Content-Length: 5\r\n"
    "\r\n"
    "hello";

TEST(NetHttpParser, ParsesWholeRequest) {
  net::HttpParser p;
  p.feed(kPost);
  net::HttpRequest req;
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/generate");
  EXPECT_EQ(req.body, "hello");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.header("content-length"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.header("CONTENT-LENGTH"), "5");
  EXPECT_EQ(p.next(req), net::HttpParser::Status::kNeedMore);
}

TEST(NetHttpParser, ByteAtATimeFragmentation) {
  // The parser must accept ANY framing recv() produces; a byte at a time
  // is the adversarial case.
  net::HttpParser p;
  net::HttpRequest req;
  for (std::size_t i = 0; i < kPost.size(); ++i) {
    p.feed(kPost.substr(i, 1));
    const auto status = p.next(req);
    if (i + 1 < kPost.size()) {
      ASSERT_EQ(status, net::HttpParser::Status::kNeedMore) << "byte " << i;
    } else {
      ASSERT_EQ(status, net::HttpParser::Status::kRequest);
    }
  }
  EXPECT_EQ(req.body, "hello");
}

TEST(NetHttpParser, PipelinedRequests) {
  net::HttpParser p;
  std::string wire;
  for (int i = 0; i < 3; ++i) wire += std::string(kPost);
  // Feed all three requests in one buffer plus half of a fourth.
  wire += "POST /v1/gen";
  p.feed(wire);
  net::HttpRequest req;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(p.next(req), net::HttpParser::Status::kRequest) << i;
    EXPECT_EQ(req.body, "hello");
  }
  EXPECT_EQ(p.next(req), net::HttpParser::Status::kNeedMore);
  p.feed("erate HTTP/1.1\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kRequest);
  EXPECT_EQ(req.body, "ok");
}

TEST(NetHttpParser, OversizedHeadersYield431) {
  net::HttpParser p(net::HttpParser::Limits{.max_header_bytes = 64,
                                            .max_body_bytes = 1024});
  // An unterminated header block larger than the limit must error even
  // though no complete request ever arrives.
  p.feed("GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'a'));
  net::HttpRequest req;
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kError);
  EXPECT_EQ(p.error_status(), 431);
  // The parser stays in error.
  p.feed("\r\n\r\n");
  EXPECT_EQ(p.next(req), net::HttpParser::Status::kError);
}

TEST(NetHttpParser, OversizedBodyYields413) {
  net::HttpParser p(net::HttpParser::Limits{.max_header_bytes = 1024,
                                            .max_body_bytes = 8});
  p.feed("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789");
  net::HttpRequest req;
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kError);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(NetHttpParser, BufferedPipelinedBytesAreCapped) {
  net::HttpParser p(net::HttpParser::Limits{.max_header_bytes = 64,
                                            .max_body_bytes = 32});
  // Simulate a connection whose response channel is owned by an in-flight
  // stream: bytes keep arriving but next() is never called. The buffer
  // must stay bounded and the parser must latch an error.
  for (int i = 0; i < 64; ++i) p.feed(std::string(16, 'x'));
  EXPECT_LE(p.buffered_bytes(), 2 * (64u + 32u));
  net::HttpRequest req;
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kError);
  EXPECT_EQ(p.error_status(), 413);
  EXPECT_EQ(p.buffered_bytes(), 0u);  // memory released when latched
}

TEST(NetHttpParser, MalformedYields400) {
  const char* bad[] = {
      "GARBAGE\r\n\r\n",
      "GET  HTTP/1.1\r\n\r\n",                          // empty target
      "GET /x HTTP/1.1 extra\r\n\r\n",                  // junk after version
      "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",         // malformed field
      "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n",         // space in name
      "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n"  // bad length
  };
  for (const char* wire : bad) {
    net::HttpParser p;
    p.feed(wire);
    net::HttpRequest req;
    ASSERT_EQ(p.next(req), net::HttpParser::Status::kError) << wire;
    EXPECT_EQ(p.error_status(), 400) << wire;
  }
}

TEST(NetHttpParser, VersionAndFramingLimits) {
  {
    net::HttpParser p;
    p.feed("GET / HTTP/2.0\r\n\r\n");
    net::HttpRequest req;
    ASSERT_EQ(p.next(req), net::HttpParser::Status::kError);
    EXPECT_EQ(p.error_status(), 505);
  }
  {
    net::HttpParser p;
    p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    net::HttpRequest req;
    ASSERT_EQ(p.next(req), net::HttpParser::Status::kError);
    EXPECT_EQ(p.error_status(), 501);
  }
}

TEST(NetHttpParser, ConnectionSemantics) {
  net::HttpParser p;
  p.feed("GET / HTTP/1.0\r\n\r\n");
  net::HttpRequest req;
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kRequest);
  EXPECT_FALSE(req.keep_alive);  // 1.0 defaults to close
  p.feed("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(p.next(req), net::HttpParser::Status::kRequest);
  EXPECT_FALSE(req.keep_alive);
}

TEST(NetHttpResponseParser, ChunkedChunksSurfacedIndividually) {
  net::HttpResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(p.headers_complete());
  p.feed("3\r\nabc\r\n");
  p.feed("2\r\nde");  // split mid-chunk
  EXPECT_EQ(p.status(), net::HttpResponseParser::Status::kNeedMore);
  p.feed("\r\n0\r\n\r\n");
  ASSERT_EQ(p.status(), net::HttpResponseParser::Status::kDone);
  ASSERT_EQ(p.chunks().size(), 2u);
  EXPECT_EQ(p.chunks()[0], "abc");
  EXPECT_EQ(p.chunks()[1], "de");
}

// ---------------------------------------------------------------------------
// Config validation + EventQueue
// ---------------------------------------------------------------------------

TEST(NetConfig, HttpServerConfigValidate) {
  net::HttpServerConfig ok;
  EXPECT_NO_THROW(ok.validate());
  auto expect_throws = [](auto mutate) {
    net::HttpServerConfig c;
    mutate(c);
    EXPECT_THROW(c.validate(), Error);
  };
  expect_throws([](auto& c) { c.port = -1; });
  expect_throws([](auto& c) { c.port = 65536; });
  expect_throws([](auto& c) { c.backlog = 0; });
  expect_throws([](auto& c) { c.max_connections = 0; });
  expect_throws([](auto& c) { c.max_header_bytes = 0; });
  expect_throws([](auto& c) { c.max_body_bytes = 0; });
  expect_throws([](auto& c) { c.completion_queue_capacity = 0; });
}

TEST(NetConfig, LoadGenConfigValidate) {
  net::LoadGenConfig c;
  c.port = 1234;
  EXPECT_NO_THROW(c.validate());
  c.port = 0;
  EXPECT_THROW(c.validate(), Error);
  c.port = 1234;
  c.concurrency = 0;
  EXPECT_THROW(c.validate(), Error);
}

TEST(NetEventQueue, PushDrainAndZeroCapacityThrows) {
  EXPECT_THROW(net::EventQueue(0), Error);
  net::EventQueue q(8);
  net::EngineEvent ev;
  ev.kind = net::EngineEvent::Kind::kToken;
  ev.request_id = 7;
  ev.token = 42;
  q.push(ev);
  ev.token = 43;
  q.push(ev);
  const auto out = q.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].token, 42);
  EXPECT_EQ(out[1].token, 43);
  EXPECT_TRUE(q.drain().empty());
}

// ---------------------------------------------------------------------------
// Poisson schedule determinism
// ---------------------------------------------------------------------------

TEST(NetPoisson, SameSeedBitIdentical) {
  const auto a = net::poisson_schedule(256, 50.0, 1234);
  const auto b = net::poisson_schedule(256, 50.0, 1234);
  ASSERT_EQ(a.size(), b.size());
  // Bit-identical, not approximately equal.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  const auto c = net::poisson_schedule(256, 50.0, 1235);
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size() * sizeof(double)), 0);
}

TEST(NetPoisson, MonotoneWithPlausibleMeanRate) {
  const double rate = 200.0;
  const auto at = net::poisson_schedule(4096, rate, 99);
  for (std::size_t i = 1; i < at.size(); ++i) {
    ASSERT_GE(at[i], at[i - 1]) << i;
  }
  // Mean arrival rate over 4096 draws should be within 10% of nominal.
  const double observed = static_cast<double>(at.size()) / at.back();
  EXPECT_NEAR(observed, rate, rate * 0.10);
  EXPECT_THROW(net::poisson_schedule(4, 0.0, 1), Error);
}

// ---------------------------------------------------------------------------
// Engine lifecycle: start / drain / destruction mid-decode
// ---------------------------------------------------------------------------

nn::GptConfig tiny_gpt_config() {
  nn::GptConfig c;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 64;
  return c;
}

serve::TraceSpec tiny_trace_spec(std::size_t n) {
  serve::TraceSpec spec;
  spec.n_requests = n;
  spec.vocab_size = 50;
  spec.prompt_len_min = 2;
  spec.prompt_len_max = 6;
  spec.max_new_min = 2;
  spec.max_new_max = 8;
  return spec;
}

TEST(EngineLifecycle, StartServesAndDrainStopsAdmission) {
  const nn::GptModel model(tiny_gpt_config());
  serve::InferenceEngine engine(model);
  engine.start();
  EXPECT_TRUE(engine.running());

  auto trace = serve::synth_trace(tiny_trace_spec(6));
  std::vector<std::future<serve::RequestResult>> futures;
  for (auto& req : trace) futures.push_back(engine.submit(std::move(req)));
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.status, serve::RequestStatus::kOk);
    EXPECT_GT(r.generated_tokens, 0);
  }

  engine.drain();
  EXPECT_FALSE(engine.running());
  serve::Request late;
  late.prompt = {1, 2};
  EXPECT_THROW(engine.submit(late), Error);
  serve::Request late2;
  late2.prompt = {1, 2};
  EXPECT_FALSE(engine.try_submit(std::move(late2)).has_value());
  engine.drain();  // idempotent
}

TEST(EngineLifecycle, DrainFinishesQueuedWork) {
  // Requests still waiting in the admission queue when drain() is called
  // must run to retirement, not be dropped.
  const nn::GptModel model(tiny_gpt_config());
  serve::EngineConfig config;
  config.max_batch = 2;
  serve::InferenceEngine engine(model, config);
  auto trace = serve::synth_trace(tiny_trace_spec(8));
  std::vector<std::future<serve::RequestResult>> futures;
  for (auto& req : trace) futures.push_back(engine.submit(std::move(req)));
  engine.start();
  engine.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
}

TEST(EngineLifecycle, DestructionDuringActiveDecodeIsSafe) {
  const nn::GptModel model(tiny_gpt_config());
  std::vector<std::future<serve::RequestResult>> futures;
  {
    serve::InferenceEngine engine(model);
    engine.start();
    auto trace = serve::synth_trace(tiny_trace_spec(8));
    for (auto& req : trace) futures.push_back(engine.submit(std::move(req)));
    // Destroy while the worker is (very likely) mid-decode: the destructor
    // drains, so every future below must still resolve.
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
}

// ---------------------------------------------------------------------------
// Loopback end-to-end
// ---------------------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  timeval tv{};
  tv.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }
}

/// Read until the response parser completes (or EOF/timeout).
void read_response(int fd, net::HttpResponseParser& parser) {
  char buf[4096];
  while (parser.status() == net::HttpResponseParser::Status::kNeedMore) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
  }
}

std::string request_text(std::string_view method, std::string_view target,
                         std::string_view body, bool close = true) {
  std::string out = std::string(method) + " " + std::string(target) +
                    " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  if (close) out += "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

/// One blocking request/response exchange on a fresh connection.
net::HttpResponseParser exchange(std::uint16_t port, std::string_view raw) {
  const int fd = connect_loopback(port);
  send_all(fd, raw);
  net::HttpResponseParser parser;
  read_response(fd, parser);
  ::close(fd);
  return parser;
}

struct Harness {
  nn::GptModel model;
  serve::InferenceEngine engine;
  net::HttpServer server;

  explicit Harness(serve::EngineConfig engine_config = {},
                   net::HttpServerConfig server_config = {},
                   bool start_engine = true)
      : model(tiny_gpt_config()),
        engine(model, std::move(engine_config)),
        server(engine, std::move(server_config)) {
    if (start_engine) engine.start();
    server.start();
  }
  ~Harness() { server.stop(); }

  std::uint16_t port() const { return server.port(); }
};

TEST(HttpServerE2E, StreamedTokensByteIdenticalToRunTrace) {
  // Reference: the same trace run in-process on a separate engine with the
  // same config. Tokens over HTTP must match bit for bit — the transport
  // must not perturb the engine's determinism contract.
  const nn::GptModel ref_model(tiny_gpt_config());
  serve::InferenceEngine reference(ref_model);
  auto trace = serve::synth_trace(tiny_trace_spec(8));
  const auto expected = reference.run_trace(trace);

  Harness h;
  net::LoadGenConfig lg;
  lg.port = h.port();
  lg.concurrency = 3;
  const auto report = net::LoadGen(lg).run_closed(trace);

  ASSERT_EQ(report.records.size(), trace.size());
  EXPECT_EQ(report.completed_ok, trace.size());
  std::map<std::uint64_t, const net::LoadRecord*> by_id;
  for (const auto& rec : report.records) by_id[rec.id] = &rec;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& result = expected[i];
    ASSERT_TRUE(by_id.count(result.id)) << result.id;
    const net::LoadRecord& rec = *by_id[result.id];
    EXPECT_EQ(rec.http_status, 200);
    EXPECT_EQ(rec.engine_status, "ok");
    const std::vector<std::int32_t> generated(
        result.tokens.begin() +
            static_cast<std::ptrdiff_t>(result.tokens.size()) -
            result.generated_tokens,
        result.tokens.end());
    EXPECT_EQ(rec.tokens, generated) << "request " << result.id;
    EXPECT_GE(rec.ttft_s, 0.0);
  }
}

TEST(HttpServerE2E, NonStreamedResponseMatchesStreamed) {
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(2));
  const std::string streamed_body = net::generate_body(trace[0], true);
  const auto streamed = exchange(
      h.port(), request_text("POST", "/v1/generate", streamed_body));
  ASSERT_EQ(streamed.status_code(), 200);
  std::vector<std::int32_t> stream_tokens;
  for (const auto& chunk : streamed.chunks()) {
    const net::Json line = net::Json::parse(chunk);
    if (const net::Json* tok = line.find("token")) {
      stream_tokens.push_back(static_cast<std::int32_t>(tok->as_int()));
    }
  }

  trace[0].id = 100;  // fresh id, same seed/prompt
  const std::string plain_body = net::generate_body(trace[0], false);
  const auto plain =
      exchange(h.port(), request_text("POST", "/v1/generate", plain_body));
  ASSERT_EQ(plain.status_code(), 200);
  const net::Json body = net::Json::parse(plain.body());
  EXPECT_EQ(body.find("status")->as_string(), "ok");
  std::vector<std::int32_t> plain_tokens;
  for (const net::Json& t : body.find("tokens")->items()) {
    plain_tokens.push_back(static_cast<std::int32_t>(t.as_int()));
  }
  EXPECT_EQ(plain_tokens, stream_tokens);
}

TEST(HttpServerE2E, ErrorRoutesAndMalformedBodies) {
  Harness h;
  EXPECT_EQ(exchange(h.port(), request_text("GET", "/nope", "")).status_code(),
            404);
  EXPECT_EQ(
      exchange(h.port(), request_text("GET", "/v1/generate", "")).status_code(),
      405);
  // Malformed JSON body -> 400.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/generate", "{not json"))
                .status_code(),
            400);
  // Valid JSON, missing prompt -> 400.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/generate", R"({"id": 1})"))
                .status_code(),
            400);
  // Bad cancel id -> 400.
  EXPECT_EQ(exchange(h.port(),
                     request_text("DELETE", "/v1/requests/abc", ""))
                .status_code(),
            400);
  const auto counters = h.server.counters();
  EXPECT_EQ(counters.bad_request_400, 3u);
}

TEST(HttpServerE2E, OversizedHeadersOverSocketYield431) {
  net::HttpServerConfig sc;
  sc.max_header_bytes = 256;
  Harness h({}, sc);
  const std::string big = "GET /v1/stats HTTP/1.1\r\nX-Pad: " +
                          std::string(1024, 'p') + "\r\n\r\n";
  EXPECT_EQ(exchange(h.port(), big).status_code(), 431);
  EXPECT_EQ(h.server.counters().protocol_errors, 1u);
}

TEST(HttpServerE2E, StatsEndpointReportsEngineAndHttp) {
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(2));
  exchange(h.port(), request_text("POST", "/v1/generate",
                                  net::generate_body(trace[0], true)));
  const auto resp =
      exchange(h.port(), request_text("GET", "/v1/stats", ""));
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json stats = net::Json::parse(resp.body());
  ASSERT_NE(stats.find("engine"), nullptr);
  ASSERT_NE(stats.find("http"), nullptr);
  EXPECT_GE(stats.find("engine")->find("requests_completed")->as_int(), 1);
  EXPECT_GE(stats.find("http")->find("streams_completed")->as_int(), 1);
}

// JSON kind of every top-level member of `obj`, by key.
std::map<std::string, std::string> key_kinds(const net::Json& obj) {
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : obj.members()) {
    const char* kind = value.is_number()   ? "number"
                       : value.is_string() ? "string"
                       : value.is_bool()   ? "bool"
                       : value.is_object() ? "object"
                                           : "other";
    EXPECT_TRUE(out.emplace(key, kind).second) << "duplicate key " << key;
  }
  return out;
}

TEST(HttpServerE2E, StatsKeySetIsStable) {
  // The /v1/stats schema is an API: dashboards and servebench read these
  // keys. A missing, added or renamed key, or a changed JSON kind, fails
  // here — update the literal only on purpose.
  const std::map<std::string, std::string> engine_keys = {
      {"wall_s", "number"},
      {"requests_completed", "number"},
      {"tokens_generated", "number"},
      {"aggregate_tokens_per_s", "number"},
      {"mean_request_tokens_per_s", "number"},
      {"cancelled", "number"},
      {"timed_out", "number"},
      {"preemptions", "number"},
      {"preempt_swaps", "number"},
      {"preempt_recomputes", "number"},
      {"ttft_ms", "object"},
      {"ttft_high_ms", "object"},
      {"ttft_normal_ms", "object"},
      {"ttft_low_ms", "object"},
      {"queue_delay_ms", "object"},
      {"inter_token_ms", "object"},
      {"drafts_proposed", "number"},
      {"drafts_accepted", "number"},
      {"spec_steps_saved", "number"},
      {"acceptance_rate", "number"},
      {"prefix_hits", "number"},
      {"prefix_misses", "number"},
      {"prefix_hit_rate", "number"},
      {"prefix_tokens_reused", "number"},
      {"prefix_prompt_tokens", "number"},
      {"peak_active", "number"},
      {"peak_used_blocks", "number"},
      {"peak_shared_blocks", "number"},
      {"kv_total_blocks", "number"},
      {"peak_block_utilization", "number"},
      {"cow_forks", "number"},
      {"cow_rows", "number"},
      {"parked", "number"},
      {"sessions_live", "number"},
      {"session_parks", "number"},
      {"session_park_drops", "number"},
      {"session_resumes", "number"},
      {"session_resume_recomputes", "number"},
      {"kv_tier_host_bytes", "number"},
      {"kv_tier_host_budget", "number"},
      {"kv_tier_host_entries", "number"},
      {"kv_tier_disk_bytes", "number"},
      {"kv_tier_disk_budget", "number"},
      {"kv_tier_disk_entries", "number"},
      {"kv_tier_stores", "number"},
      {"kv_tier_takes", "number"},
      {"kv_tier_host_hits", "number"},
      {"kv_tier_disk_hits", "number"},
      {"kv_tier_demotions", "number"},
      {"kv_tier_disk_evictions", "number"},
      {"kv_tier_store_refusals", "number"},
      {"kv_tier_spill_failures", "number"},
      {"kv_tier_corrupt_drops", "number"},
      {"grammar_requests", "number"},
      {"grammar_masked_tokens", "number"},
      {"grammar_eos_stops", "number"},
      {"grammar_dead", "number"},
      {"embed_requests", "number"},
      {"embed_forwards", "number"},
      {"embed_tokens", "number"},
      {"embed_mean_batch", "number"},
      {"decode_quant", "string"},
      {"gemm_f32_calls", "number"},
      {"gemm_bf16_calls", "number"},
      {"gemm_int8_calls", "number"},
  };
  const std::map<std::string, std::string> http_keys = {
      {"connections_accepted", "number"},
      {"connections_rejected", "number"},
      {"connections_open", "number"},
      {"requests", "number"},
      {"protocol_errors", "number"},
      {"streams_started", "number"},
      {"streams_completed", "number"},
      {"streams_active", "number"},
      {"shed_429", "number"},
      {"timeout_504", "number"},
      {"bad_request_400", "number"},
      {"cancels_requested", "number"},
      {"client_aborts", "number"},
      {"embed_jobs", "number"},
      {"embed_inputs", "number"},
  };

  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(2));
  exchange(h.port(), request_text("POST", "/v1/generate",
                                  net::generate_body(trace[0], true)));
  const auto resp =
      exchange(h.port(), request_text("GET", "/v1/stats", ""));
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json stats = net::Json::parse(resp.body());
  EXPECT_EQ(key_kinds(stats),
            (std::map<std::string, std::string>{{"engine", "object"},
                                                {"http", "object"}}));
  ASSERT_NE(stats.find("engine"), nullptr);
  ASSERT_NE(stats.find("http"), nullptr);
  EXPECT_EQ(key_kinds(*stats.find("engine")), engine_keys);
  EXPECT_EQ(key_kinds(*stats.find("http")), http_keys);
  // The engine block is also what InferenceEngine::stats_json() serves
  // in-process (the servebench path).
  EXPECT_EQ(key_kinds(net::Json::parse(h.engine.stats_json())), engine_keys);
}

TEST(HttpServerE2E, SessionsTwoTurnsByteIdenticalToFullHistory) {
  Harness h;
  const auto created =
      exchange(h.port(), request_text("POST", "/v1/sessions", ""));
  ASSERT_EQ(created.status_code(), 201);
  const std::uint64_t sid = static_cast<std::uint64_t>(
      net::Json::parse(created.body()).find("session_id")->as_int());
  const std::string gen_target =
      "/v1/sessions/" + std::to_string(sid) + "/generate";

  auto turn = [&](const std::string& prompt_json, std::uint64_t id)
      -> std::vector<std::int32_t> {
    const std::string body = "{\"id\":" + std::to_string(id) +
                             ",\"prompt\":" + prompt_json +
                             ",\"max_new_tokens\":6,\"temperature\":0," +
                             "\"stream\":false}";
    const auto resp =
        exchange(h.port(), request_text("POST", gen_target, body));
    EXPECT_EQ(resp.status_code(), 200);
    const net::Json parsed = net::Json::parse(resp.body());
    std::vector<std::int32_t> tokens;
    for (const net::Json& t : parsed.find("tokens")->items()) {
      tokens.push_back(static_cast<std::int32_t>(t.as_int()));
    }
    return tokens;
  };
  const std::vector<std::int32_t> t1 = turn("[3,1,4,1,5]", 1);
  ASSERT_EQ(t1.size(), 6u);
  const std::vector<std::int32_t> t2 = turn("[9,2,6]", 2);
  ASSERT_EQ(t2.size(), 6u);

  // Session status reflects both turns, with the parked KV host-resident.
  const auto info = exchange(
      h.port(), request_text("GET", "/v1/sessions/" + std::to_string(sid),
                             ""));
  ASSERT_EQ(info.status_code(), 200);
  const net::Json info_body = net::Json::parse(info.body());
  EXPECT_EQ(info_body.find("turns")->as_int(), 2);
  EXPECT_EQ(info_body.find("tokens")->as_int(), 5 + 6 + 3 + 6);
  EXPECT_FALSE(info_body.find("busy")->as_bool());
  EXPECT_EQ(info_body.find("kv_residency")->as_string(), "host");

  // A fresh sessionless request whose prompt spells out the whole
  // conversation must produce turn 2's tokens exactly (greedy).
  std::string full = "[3,1,4,1,5";
  for (const std::int32_t t : t1) full += "," + std::to_string(t);
  full += ",9,2,6]";
  const std::string body = "{\"id\":77,\"prompt\":" + full +
                           ",\"max_new_tokens\":6,\"temperature\":0," +
                           "\"stream\":false}";
  const auto fresh =
      exchange(h.port(), request_text("POST", "/v1/generate", body));
  ASSERT_EQ(fresh.status_code(), 200);
  const net::Json fresh_parsed = net::Json::parse(fresh.body());
  std::vector<std::int32_t> fresh_tokens;
  for (const net::Json& t : fresh_parsed.find("tokens")->items()) {
    fresh_tokens.push_back(static_cast<std::int32_t>(t.as_int()));
  }
  EXPECT_EQ(fresh_tokens, t2)
      << "session resume over HTTP diverged from full-history prefill";

  // /v1/stats carries the tier + session counters.
  const auto stats =
      exchange(h.port(), request_text("GET", "/v1/stats", ""));
  ASSERT_EQ(stats.status_code(), 200);
  const net::Json stats_parsed = net::Json::parse(stats.body());
  const net::Json* engine_stats = stats_parsed.find("engine");
  ASSERT_NE(engine_stats, nullptr);
  EXPECT_GE(engine_stats->find("session_parks")->as_int(), 2);
  EXPECT_GE(engine_stats->find("session_resumes")->as_int(), 1);
  EXPECT_GE(engine_stats->find("kv_tier_stores")->as_int(), 1);

  // Drop the session; the second delete 404s.
  EXPECT_EQ(exchange(h.port(),
                     request_text("DELETE",
                                  "/v1/sessions/" + std::to_string(sid),
                                  ""))
                .status_code(),
            200);
  EXPECT_EQ(exchange(h.port(),
                     request_text("DELETE",
                                  "/v1/sessions/" + std::to_string(sid),
                                  ""))
                .status_code(),
            404);
}

TEST(HttpServerE2E, SessionRouteErrors) {
  Harness h;
  // Unknown session: generate / info / delete all 404.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/sessions/999/generate",
                                  R"({"prompt":[1],"max_new_tokens":2})"))
                .status_code(),
            404);
  EXPECT_EQ(
      exchange(h.port(), request_text("GET", "/v1/sessions/999", ""))
          .status_code(),
      404);
  EXPECT_EQ(
      exchange(h.port(), request_text("DELETE", "/v1/sessions/999", ""))
          .status_code(),
      404);
  // Malformed session id -> 400; wrong method on the collection -> 405.
  EXPECT_EQ(
      exchange(h.port(), request_text("GET", "/v1/sessions/abc", ""))
          .status_code(),
      400);
  EXPECT_EQ(exchange(h.port(), request_text("GET", "/v1/sessions", ""))
                .status_code(),
            405);
  // First turn on a fresh session still requires a prompt (engine-level
  // check surfaces as 400).
  const auto created =
      exchange(h.port(), request_text("POST", "/v1/sessions", ""));
  ASSERT_EQ(created.status_code(), 201);
  const std::string sid = std::to_string(
      net::Json::parse(created.body()).find("session_id")->as_int());
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/sessions/" + sid +
                                              "/generate",
                                  R"({"max_new_tokens":2})"))
                .status_code(),
            400);
}

TEST(HttpServerE2E, SessionBusy409AndRequestProgress) {
  // Engine worker NOT started: the first turn parks in the admission
  // queue, deterministically holding the session busy and its stream at
  // zero tokens.
  Harness h({}, {}, /*start_engine=*/false);
  const auto created =
      exchange(h.port(), request_text("POST", "/v1/sessions", ""));
  ASSERT_EQ(created.status_code(), 201);
  const std::string sid = std::to_string(
      net::Json::parse(created.body()).find("session_id")->as_int());
  const std::string gen_target = "/v1/sessions/" + sid + "/generate";

  const int fd = connect_loopback(h.port());
  send_all(fd, request_text(
                   "POST", gen_target,
                   R"({"id":7,"prompt":[1,2,3],"max_new_tokens":3,)"
                   R"("temperature":0,"stream":false})"));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Second request on the same session sheds with 409.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", gen_target,
                                  R"({"prompt":[4],"max_new_tokens":2})"))
                .status_code(),
            409);

  // Progress endpoint: queued request exists with nothing streamed yet.
  const auto progress =
      exchange(h.port(), request_text("GET", "/v1/requests/7", ""));
  ASSERT_EQ(progress.status_code(), 200);
  const net::Json progress_body = net::Json::parse(progress.body());
  EXPECT_EQ(progress_body.find("state")->as_string(), "pending");
  EXPECT_EQ(progress_body.find("tokens_streamed")->as_int(), 0);

  // Let the engine run; the stream completes and the progress route 404s
  // (terminal state arrives on the stream itself).
  h.engine.start();
  net::HttpResponseParser parser;
  read_response(fd, parser);
  ::close(fd);
  EXPECT_EQ(parser.status_code(), 200);
  EXPECT_EQ(
      exchange(h.port(), request_text("GET", "/v1/requests/7", ""))
          .status_code(),
      404);
}

TEST(HttpServerE2E, ShedMapsTo429Deterministically) {
  // Engine worker NOT started + queue_capacity 1: the first request parks
  // in the admission queue, the second must shed. No timing involved.
  serve::EngineConfig ec;
  ec.queue_capacity = 1;
  Harness h(ec, {}, /*start_engine=*/false);

  auto trace = serve::synth_trace(tiny_trace_spec(2));
  const int first_fd = connect_loopback(h.port());
  send_all(first_fd, request_text("POST", "/v1/generate",
                                  net::generate_body(trace[0], true)));
  // Wait until the first request occupies the queue.
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  trace[1].id = 55;
  const auto shed = exchange(h.port(),
                             request_text("POST", "/v1/generate",
                                          net::generate_body(trace[1], true)));
  EXPECT_EQ(shed.status_code(), 429);
  EXPECT_EQ(h.server.counters().shed_429, 1u);

  // Start the worker; the parked request completes and streams.
  h.engine.start();
  net::HttpResponseParser first;
  read_response(first_fd, first);
  ::close(first_fd);
  EXPECT_EQ(first.status_code(), 200);
}

TEST(HttpServerE2E, CancelBeforeFirstTokenReturnsCancelledBody) {
  // Engine worker not started: the request cannot produce a token until
  // start(), so DELETE-before-start deterministically cancels it first.
  Harness h({}, {}, /*start_engine=*/false);
  auto trace = serve::synth_trace(tiny_trace_spec(1));
  trace[0].id = 77;

  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            net::generate_body(trace[0], true)));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto cancel =
      exchange(h.port(), request_text("DELETE", "/v1/requests/77", ""));
  EXPECT_EQ(cancel.status_code(), 202);
  EXPECT_EQ(h.server.counters().cancels_requested, 1u);

  h.engine.start();
  net::HttpResponseParser resp;
  read_response(fd, resp);
  ::close(fd);
  // No token was ever produced, so the stream never opened: the response
  // is one plain JSON document with the cancelled status.
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json body = net::Json::parse(resp.body());
  EXPECT_EQ(body.find("status")->as_string(), "cancelled");
  EXPECT_EQ(body.find("tokens")->items().size(), 0u);
}

TEST(HttpServerE2E, MaxUint64RequestIdIsReachableForStatusAndCancel) {
  // /v1/generate accepts any uint64 id; the {id} routes must reach the
  // same range — 20 digits included — and reject one past it.
  Harness h({}, {}, /*start_engine=*/false);
  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            R"({"id": 18446744073709551615, )"
                            R"("prompt": [1, 2, 3], "max_new_tokens": 4})"));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto status = exchange(
      h.port(), request_text("GET", "/v1/requests/18446744073709551615", ""));
  EXPECT_EQ(status.status_code(), 200);
  EXPECT_EQ(exchange(h.port(), request_text(
                                   "GET", "/v1/requests/18446744073709551616",
                                   ""))
                .status_code(),
            400);
  const auto cancel = exchange(
      h.port(),
      request_text("DELETE", "/v1/requests/18446744073709551615", ""));
  ASSERT_EQ(cancel.status_code(), 202);
  EXPECT_EQ(h.server.counters().cancels_requested, 1u);

  h.engine.start();
  net::HttpResponseParser resp;
  read_response(fd, resp);
  ::close(fd);
  ASSERT_EQ(resp.status_code(), 200);
  EXPECT_EQ(net::Json::parse(resp.body()).find("status")->as_string(),
            "cancelled");
}

TEST(HttpServerE2E, DeadlineBeforeFirstTokenMapsTo504) {
  Harness h({}, {}, /*start_engine=*/false);
  auto trace = serve::synth_trace(tiny_trace_spec(1));
  trace[0].id = 88;
  trace[0].deadline_ms = 1.0;

  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            net::generate_body(trace[0], true)));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the 1 ms deadline expire while the worker is still parked, then
  // start it: the first step retires the request as timed out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.engine.start();
  net::HttpResponseParser resp;
  read_response(fd, resp);
  ::close(fd);
  EXPECT_EQ(resp.status_code(), 504);
  EXPECT_EQ(h.server.counters().timeout_504, 1u);
}

TEST(HttpServerE2E, PipelinedRequestsOnOneConnection) {
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(2));
  trace[0].id = 201;
  trace[1].id = 202;
  const std::string b0 = net::generate_body(trace[0], true);
  const std::string b1 = net::generate_body(trace[1], true);
  const int fd = connect_loopback(h.port());
  // Both requests in one write; the second is parked behind the first
  // stream and served on the same connection afterwards.
  send_all(fd, request_text("POST", "/v1/generate", b0, /*close=*/false) +
                   request_text("POST", "/v1/generate", b1, /*close=*/true));
  std::string wire;
  char buf[4096];
  while (true) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    wire.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  // Two complete chunked responses back to back.
  net::HttpResponseParser p0;
  ASSERT_EQ(p0.feed(wire), net::HttpResponseParser::Status::kDone);
  EXPECT_EQ(p0.status_code(), 200);
  EXPECT_GE(p0.chunks().size(), 2u);
  EXPECT_EQ(h.server.counters().streams_completed, 2u);
}

TEST(HttpServerE2E, ServerStopMidStreamIsCleanAndCancels) {
  // Smoke for graceful shutdown: stop() while a stream is in flight must
  // cancel it, flush a terminal response, and join without hanging — the
  // sanitizer jobs make this a data-race/lifetime test as much as a
  // functional one.
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(1));
  trace[0].id = 300;
  trace[0].max_new_tokens = 50;  // as long as max_seq allows
  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            net::generate_body(trace[0], true)));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.server.stop();
  EXPECT_FALSE(h.server.running());
  // The client's connection was closed by the server after a terminal
  // response (either the stream ran to completion before stop() landed or
  // it was cancelled); the socket must reach EOF, not hang.
  net::HttpResponseParser resp;
  read_response(fd, resp);
  ::close(fd);
  EXPECT_EQ(h.server.counters().streams_completed +
                h.server.counters().client_aborts,
            1u);
}

TEST(HttpServerE2E, Uint64SeedOverHttpIsAccepted) {
  Harness h;
  const std::string body =
      R"({"id": 600, "prompt": [1, 2, 3], "max_new_tokens": 2,)"
      R"( "seed": 18446744073709551615, "stream": false})";
  const auto resp =
      exchange(h.port(), request_text("POST", "/v1/generate", body));
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json parsed = net::Json::parse(resp.body());
  EXPECT_EQ(parsed.find("status")->as_string(), "ok");
}

TEST(HttpServerE2E, StatsUnderTokenBurstsWithTinyQueueDoesNotDeadlock) {
  // Regression: the engine used to hold its stats mutex across the whole
  // step while the token callbacks block on a full completion queue; a
  // concurrent GET /v1/stats then wedged the epoll thread on that mutex
  // and the pair deadlocked permanently. Capacity 1 makes every token a
  // potential full-queue push.
  net::HttpServerConfig sc;
  sc.completion_queue_capacity = 1;
  Harness h({}, sc);
  auto trace = serve::synth_trace(tiny_trace_spec(1));
  trace[0].id = 400;
  trace[0].max_new_tokens = 50;
  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            net::generate_body(trace[0], true)));
  while (h.server.counters().streams_completed < 1) {
    const auto stats =
        exchange(h.port(), request_text("GET", "/v1/stats", ""));
    ASSERT_EQ(stats.status_code(), 200);
  }
  net::HttpResponseParser resp;
  read_response(fd, resp);
  ::close(fd);
  EXPECT_EQ(resp.status_code(), 200);
}

TEST(HttpServerE2E, ClientRstMidStreamIsSurvived) {
  // Abort with RST (not FIN): the server's next send into the dead socket
  // fails hard inside the engine-event handler, which must destroy the
  // connection without touching it afterwards (ASan covers the lifetime).
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(1));
  trace[0].id = 500;
  trace[0].max_new_tokens = 50;
  const int fd = connect_loopback(h.port());
  send_all(fd, request_text("POST", "/v1/generate",
                            net::generate_body(trace[0], true)));
  while (h.server.counters().streams_started < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  ::close(fd);
  // The stream terminates (client abort, or completion when the RST lost
  // the race) and the server stays serviceable.
  while (h.server.counters().client_aborts +
             h.server.counters().streams_completed <
         1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto resp =
      exchange(h.port(), request_text("GET", "/v1/healthz", ""));
  EXPECT_EQ(resp.status_code(), 200);
}

// ---------------------------------------------------------------------------
// /v1/embeddings + constrained decoding over the socket
// ---------------------------------------------------------------------------

nn::BertConfig tiny_bert_config() {
  nn::BertConfig c;
  c.vocab_size = 50;
  c.hidden = 16;
  c.n_layers = 2;
  c.n_heads = 2;
  c.max_seq = 32;
  return c;
}

// JSON-fragment vocab over the tiny 50-token model: enough structure for a
// compiled grammar to make progress (see serve_workloads_test for the full
// DFA-level coverage).
std::shared_ptr<const serve::workloads::TokenDfa> tiny_json_grammar() {
  std::vector<std::string> v(50);
  v[5] = "{";
  v[6] = "}";
  v[7] = "[";
  v[8] = "]";
  v[9] = ":";
  v[10] = ",";
  v[11] = "\"";
  for (int d = 0; d < 10; ++d) v[12 + d] = std::string(1, '0' + d);
  v[22] = "a";
  v[23] = "b";
  v[24] = "c";
  v[27] = "{\"";
  v[28] = "\":";
  v[29] = ",\"";
  v[30] = "\"}";
  v[31] = "true";
  v[32] = "false";
  v[33] = "null";
  v[34] = " ";
  v[38] = "{}";
  return std::make_shared<const serve::workloads::TokenDfa>(
      serve::workloads::TokenDfa::compile(serve::workloads::GrammarSpec{}, v,
                                          3));
}

TEST(HttpServerE2E, EmbeddingsHappyPathMatchesEncoder) {
  const auto encoder =
      std::make_shared<const nn::BertEncoder>(tiny_bert_config());
  serve::EngineConfig ec;
  ec.workloads.embedder = encoder;
  Harness h(ec);

  const std::string body =
      "{\"inputs\": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10]],"
      " \"reduce\": \"mean\", \"gnn\": true}";
  const auto resp =
      exchange(h.port(), request_text("POST", "/v1/embeddings", body));
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json j = net::Json::parse(resp.body());
  EXPECT_EQ(j.find("dim")->as_int(), 16);
  const net::Json* rows = j.find("embeddings");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 3u);
  // Row 0 must match the encoder's own pooled embedding to JSON-float
  // precision.
  const std::vector<std::int32_t> first{1, 2, 3, 4};
  const std::vector<float> expected = encoder->embed(first);
  const auto& row0 = rows->items()[0].items();
  ASSERT_EQ(row0.size(), expected.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    EXPECT_NEAR(row0[c].as_number(), static_cast<double>(expected[c]), 1e-6);
  }
  // GNN-ready block: flat row-major features, inputs as nodes.
  const net::Json* gnn = j.find("gnn");
  ASSERT_NE(gnn, nullptr);
  EXPECT_EQ(gnn->find("num_nodes")->as_int(), 3);
  EXPECT_EQ(gnn->find("feature_dim")->as_int(), 16);
  EXPECT_EQ(gnn->find("features")->items().size(), 48u);
  EXPECT_NEAR(gnn->find("features")->items()[0].as_number(),
              static_cast<double>(expected[0]), 1e-6);
}

TEST(HttpServerE2E, EmbeddingsMalformedBodiesYield400) {
  const auto encoder =
      std::make_shared<const nn::BertEncoder>(tiny_bert_config());
  serve::EngineConfig ec;
  ec.workloads.embedder = encoder;
  Harness h(ec);

  // Not JSON at all.
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "not json"))
                .status_code(),
            400);
  // Missing inputs.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/embeddings", "{}"))
                .status_code(),
            400);
  // Empty inputs array.
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": []}"))
                .status_code(),
            400);
  // Non-array element and empty element.
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": [5]}"))
                .status_code(),
            400);
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": [[]]}"))
                .status_code(),
            400);
  // Bad reduce name.
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/embeddings",
                                  "{\"inputs\": [[1]], \"reduce\": \"max\"}"))
                .status_code(),
            400);
  // Token outside the encoder vocab: rejected by engine admission, and the
  // already-submitted first input is cancelled (response still one 400).
  EXPECT_EQ(exchange(h.port(),
                     request_text("POST", "/v1/embeddings",
                                  "{\"inputs\": [[1, 2], [999]]}"))
                .status_code(),
            400);
  // GET is not allowed.
  EXPECT_EQ(
      exchange(h.port(), request_text("GET", "/v1/embeddings", ""))
          .status_code(),
      405);
  // The happy path still works after all those errors.
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": [[1, 2, 3]]}"))
                .status_code(),
            200);
}

TEST(HttpServerE2E, EmbeddingsWithoutEmbedderYield501) {
  Harness h;
  EXPECT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": [[1]]}"))
                .status_code(),
            501);
}

TEST(HttpServerE2E, ConstrainedStreamByteStableAcrossBatchCompositions) {
  serve::EngineConfig ec;
  ec.max_batch = 4;
  net::HttpServerConfig sc;
  sc.grammars["json"] = tiny_json_grammar();

  serve::Request probe;
  probe.id = 1;
  probe.prompt = {5, 22, 9, 34};
  probe.max_new_tokens = 12;
  probe.sampling.temperature = 0.9f;
  probe.sampling.top_k = 30;
  probe.sampling.seed = 0xfeed;

  auto constrained_body = [&](const serve::Request& req) {
    std::string body = net::generate_body(req, false);
    // Splice the grammar selector into the generated JSON body.
    body.insert(body.size() - 1, ", \"grammar\": \"json\"");
    return body;
  };
  auto tokens_of = [](const net::HttpResponseParser& resp) {
    std::vector<std::int32_t> tokens;
    const net::Json body = net::Json::parse(resp.body());
    for (const net::Json& t : body.find("tokens")->items()) {
      tokens.push_back(static_cast<std::int32_t>(t.as_int()));
    }
    return tokens;
  };

  // Solo: the probe runs alone.
  std::vector<std::int32_t> solo;
  {
    Harness h(ec, sc);
    const auto resp = exchange(
        h.port(), request_text("POST", "/v1/generate",
                               constrained_body(probe)));
    ASSERT_EQ(resp.status_code(), 200);
    solo = tokens_of(resp);
    ASSERT_FALSE(solo.empty());
  }
  // Busy: the same probe races a batch of free-form and constrained
  // traffic on the same engine. Its tokens must not move by a byte.
  {
    Harness h(ec, sc);
    auto trace = serve::synth_trace(tiny_trace_spec(6));
    std::thread background([&] {
      net::LoadGenConfig lg;
      lg.port = h.port();
      lg.concurrency = 3;
      net::LoadGen(lg).run_closed(trace);
    });
    std::vector<std::int32_t> busy;
    serve::Request again = probe;
    again.id = 500;  // distinct id, same seed/prompt
    const auto resp = exchange(
        h.port(), request_text("POST", "/v1/generate",
                               constrained_body(again)));
    EXPECT_EQ(resp.status_code(), 200);
    busy = tokens_of(resp);
    background.join();
    EXPECT_EQ(busy, solo)
        << "constrained stream changed under a different batch composition";
  }
  // Unknown grammar name is a 400, not silent free-form decoding.
  {
    Harness h(ec, sc);
    std::string body = net::generate_body(probe, false);
    body.insert(body.size() - 1, ", \"grammar\": \"nope\"");
    EXPECT_EQ(
        exchange(h.port(), request_text("POST", "/v1/generate", body))
            .status_code(),
        400);
  }
}

TEST(HttpServerE2E, StatsReportEmbedCounters) {
  const auto encoder =
      std::make_shared<const nn::BertEncoder>(tiny_bert_config());
  serve::EngineConfig ec;
  ec.workloads.embedder = encoder;
  Harness h(ec);
  ASSERT_EQ(exchange(h.port(), request_text("POST", "/v1/embeddings",
                                            "{\"inputs\": [[1, 2], [3, 4]]}"))
                .status_code(),
            200);
  const auto resp =
      exchange(h.port(), request_text("GET", "/v1/stats", ""));
  ASSERT_EQ(resp.status_code(), 200);
  const net::Json j = net::Json::parse(resp.body());
  EXPECT_EQ(j.find("engine")->find("embed_requests")->as_int(), 2);
  EXPECT_GE(j.find("engine")->find("embed_forwards")->as_int(), 1);
  EXPECT_EQ(j.find("http")->find("embed_jobs")->as_int(), 1);
  EXPECT_EQ(j.find("http")->find("embed_inputs")->as_int(), 2);
}

TEST(HttpServerE2E, OpenLoopPoissonRunCompletes) {
  Harness h;
  auto trace = serve::synth_trace(tiny_trace_spec(6));
  const auto schedule = net::poisson_schedule(trace.size(), 200.0, 7);
  net::LoadGenConfig lg;
  lg.port = h.port();
  const auto report = net::LoadGen(lg).run_open(trace, schedule);
  EXPECT_EQ(report.launched, trace.size());
  EXPECT_EQ(report.completed_ok + report.shed_429 + report.timeout_504,
            trace.size());
  EXPECT_GT(report.completed_ok, 0u);
  // The report serializes.
  const net::Json j = net::Json::parse(report.to_json(250.0));
  EXPECT_EQ(j.find("launched")->as_int(),
            static_cast<std::int64_t>(trace.size()));
}

}  // namespace
}  // namespace matgpt
