#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string_view>

#include "clock.h"
#include "net/http.h"
#include "net/json.h"

namespace servebench {

namespace net = matgpt::net;

HttpClient::HttpClient(std::uint16_t port) : port_(port) { connect_socket(); }

HttpClient::~HttpClient() { close_socket(); }

void HttpClient::connect_socket() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close_socket();
    throw std::runtime_error("connect() to the benchmark server failed");
  }
}

void HttpClient::close_socket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::send_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool HttpClient::read_reply(StreamReply& reply) {
  // A new parser per request: the closed loop has one request in flight per
  // connection, so no read holds bytes of the next reply.
  net::HttpResponseParser parser;
  std::size_t seen = 0;  // chunks already turned into tokens
  char buf[16384];
  while (parser.status() == net::HttpResponseParser::Status::kNeedMore) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    const double read_s = now_s();
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    // Every chunk this read completed arrived at read_s.
    for (; seen < parser.chunks().size(); ++seen) {
      const auto json = net::Json::parse(parser.chunks()[seen]);
      if (const auto* t = json.find("token")) {
        reply.tokens.push_back(static_cast<std::int32_t>(t->as_int()));
        reply.token_s.push_back(read_s);
      } else if (json.find("done") != nullptr) {
        if (const auto* s = json.find("status")) {
          reply.engine_status = s->as_string();
        }
        if (const auto* t = json.find("ttft_ms")) {
          reply.engine_ttft_ms = t->as_number();
        }
      }
    }
    reply.done_s = read_s;
  }
  reply.http_status = parser.status_code();
  return parser.status() == net::HttpResponseParser::Status::kDone;
}

StreamReply HttpClient::generate(const std::string& body, double& sent_s) {
  if (fd_ < 0) connect_socket();
  std::string request = "POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "Content-Type: application/json\r\nContent-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  StreamReply reply;
  sent_s = now_s();
  bool ok = false;
  try {
    ok = send_all(request) && read_reply(reply);
  } catch (const std::exception&) {
    ok = false;  // malformed framing or chunk JSON counts as a transport error
  }
  if (!ok) {
    close_socket();
    reply.http_status = 0;
  }
  return reply;
}

}  // namespace servebench
