#pragma once
// Blocking HTTP/1.1 client for one keep-alive loopback connection: sends
// POST /v1/generate and timestamps every streamed token as it arrives.

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct StreamReply {
  int http_status = 0;  // 0 = transport error
  std::string engine_status;  // the done chunk's "status"
  std::vector<std::int32_t> tokens;
  /// Arrival time of each token (now_s() seconds): the time the read that
  /// completed its chunk returned.
  std::vector<double> token_s;
  double done_s = 0.0;
  /// The engine's own submit-to-first-token latency from the done chunk.
  double engine_ttft_ms = -1.0;
};

class HttpClient {
 public:
  /// Connects to 127.0.0.1:port; throws when the connection fails.
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one streaming generate request with JSON `body` and reads the
  /// whole chunked reply. `sent_s` is set just before the request is
  /// written. After a transport error the connection is reopened on the
  /// next call.
  StreamReply generate(const std::string& body, double& sent_s);

 private:
  void connect_socket();
  void close_socket();
  bool send_all(const std::string& bytes);
  /// Reads one whole reply; false on EOF, a socket error or bad framing.
  bool read_reply(StreamReply& reply);

  std::uint16_t port_;
  int fd_ = -1;
};

}  // namespace servebench
