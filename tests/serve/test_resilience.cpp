// Resilience of the serve path's socket edge and the resilient client
// (docs/serve.md "Failure modes & recovery"):
//  * byte-dribbled requests and mid-request disconnects at every byte
//    boundary — the server's read loop must tolerate arbitrary TCP
//    segmentation and abandoned connections without leaking a worker;
//  * parser rejections are answered over the wire (431/413/400) before the
//    connection closes, and tallied in serve.http.rejected.*;
//  * serve::Client retry semantics against a server running an explicit
//    fault plan (resets and 500s retried, a server that resets every
//    connection exhausts max_attempts) and against a scripted responder
//    (a 503's Retry-After is waited out, capped at max_backoff).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Live-server tests: raw socket helpers for byte-level control.

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

/// Blocking loopback connect; returns -1 on failure.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_bytes(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string recv_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

class ServeResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(321);
    genome_ = random_dna(rng, 30'000);
    io::SequenceSet subjects;
    for (int i = 0; i < 6; ++i) {
      subjects.add("contig_" + std::to_string(i),
                   genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    const core::ServiceConfig config = core::ServiceConfig::make()
                                           .k(16)
                                           .window(20)
                                           .trials(16)
                                           .segment_length(800)
                                           .seed(11)
                                           .build();
    service_.emplace(std::move(subjects), config);
    query_ = genome_.substr(2000, 800);
  }

  void start_server(ServerConfig config = {}) {
    config.port = 0;
    server_.emplace(*service_, config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  [[nodiscard]] std::string map_wire(std::string_view body) const {
    HttpRequest request;
    request.method = "POST";
    request.target = "/map";
    request.body = std::string(body);
    return serialize_request(request, "127.0.0.1");
  }

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) {
    const auto snapshot = server_->registry().snapshot();
    const auto* metric = snapshot.find(std::string(name));
    return metric == nullptr ? 0 : metric->value;
  }

  std::string genome_;
  std::string query_;
  std::optional<core::MappingService> service_;
  std::optional<MappingServer> server_;
};

TEST_F(ServeResilienceTest, ByteDribbledRequestStillParses) {
  start_server();
  const std::string wire = map_wire(query_);
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  // One byte per send: the worst TCP segmentation a client can produce.
  for (char byte : wire) {
    ASSERT_TRUE(send_bytes(fd, std::string_view(&byte, 1)));
  }
  const std::string raw = recv_to_eof(fd);
  ::close(fd);
  const ResponseParse parsed = parse_response(raw, /*eof=*/true);
  ASSERT_EQ(parsed.status, ParseStatus::kComplete) << parsed.error;
  EXPECT_EQ(parsed.response.status, 200);
  EXPECT_NE(parsed.response.body.find("\"mapped\""), std::string::npos);
}

TEST_F(ServeResilienceTest, DisconnectAtEveryByteBoundaryLeaksNothing) {
  start_server();
  // Short query keeps the wire small enough to cut at every boundary.
  const std::string wire = map_wire(query_.substr(0, 48));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const int fd = connect_to(server_->port());
    ASSERT_GE(fd, 0) << "cut=" << cut;
    ASSERT_TRUE(send_bytes(fd, std::string_view(wire).substr(0, cut)))
        << "cut=" << cut;
    ::close(fd);  // abandon mid-request
  }
  // Every worker survived: a complete request still round-trips, and the
  // server still drains cleanly.
  const HttpResponse response =
      http_post("127.0.0.1", server_->port(), "/map", query_);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(server_->worker_restarts(), 0u);
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServeResilienceTest, OversizedHeaderBlockIsAnswered431) {
  start_server();
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  const std::string head =
      "GET /healthz HTTP/1.1\r\nx-pad: " + std::string(70'000, 'a');
  ASSERT_TRUE(send_bytes(fd, head));
  const std::string raw = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 431", 0), 0u) << raw.substr(0, 64);
  EXPECT_NE(raw.find("\"error\":\"invalid-argument\""), std::string::npos);
  EXPECT_EQ(counter_value("serve.http.rejected.head"), 1u);
}

TEST_F(ServeResilienceTest, OversizedDeclaredBodyIsAnswered413) {
  start_server();
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  // Declared length over the 1 MiB limit: rejected from the head alone,
  // before any body bytes are transferred.
  ASSERT_TRUE(send_bytes(fd,
                         "POST /map HTTP/1.1\r\nhost: x\r\n"
                         "content-length: 2097152\r\n\r\n"));
  const std::string raw = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 413", 0), 0u) << raw.substr(0, 64);
  EXPECT_EQ(counter_value("serve.http.rejected.body"), 1u);
}

TEST_F(ServeResilienceTest, MalformedRequestLineIsAnswered400) {
  start_server();
  const int fd = connect_to(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_bytes(fd, "BOGUS\r\n\r\n"));
  const std::string raw = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 400", 0), 0u) << raw.substr(0, 64);
  EXPECT_EQ(counter_value("serve.http.rejected.malformed"), 1u);
}

// ---------------------------------------------------------------------------
// Resilient client against scripted server faults.

TEST_F(ServeResilienceTest, ClientRetriesConnectionResetWhenIdempotent) {
  util::FaultPlan plan;
  plan.drop_at(util::FaultPlan::kAnyRank, "serve.read", 0);  // first conn RST
  ServerConfig config;
  config.fault_plan = &plan;
  start_server(config);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(10);
  Client client("127.0.0.1", server_->port(), policy);
  const HttpResponse response = client.post("/map", query_);
  EXPECT_EQ(response.status, 200);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(counter_value("serve.chaos.injected.reset"), 1u);
  server_.reset();  // the plan is a test-body local: join workers first
}

TEST_F(ServeResilienceTest, ClientRetriesInjected500FromWorkerAbort) {
  util::FaultPlan plan;
  plan.abort_at(util::FaultPlan::kAnyRank, "serve.write", 0);
  ServerConfig config;
  config.fault_plan = &plan;
  start_server(config);

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = milliseconds(1);
  obs::Registry client_metrics;
  Client client("127.0.0.1", server_->port(), policy, &client_metrics);
  // First response is replaced by a structured 500 and the worker dies;
  // the retry lands on a healthy (or restarted) worker.
  const HttpResponse response = client.post("/map", query_);
  EXPECT_EQ(response.status, 200);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(client.attempts(), 2u);
  // The aborted worker restarts in place.
  for (int i = 0; i < 2000 && server_->worker_restarts() == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_GE(server_->worker_restarts(), 1u);
  const auto snapshot = client_metrics.snapshot();
  const auto* attempts = snapshot.find("serve.client.attempts");
  ASSERT_NE(attempts, nullptr);
  EXPECT_GE(attempts->value, 2u);
  server_.reset();  // the plan is a test-body local: join workers first
}

TEST_F(ServeResilienceTest, ClientThrowsAfterMaxAttemptsWhenEveryConnectionResets) {
  util::FaultPlan plan;
  plan.drop_at(util::FaultPlan::kAnyRank, "serve.read",
               util::FaultPlan::kAnyInvocation);  // every connection RST
  ServerConfig config;
  config.fault_plan = &plan;
  start_server(config);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(5);
  Client client("127.0.0.1", server_->port(), policy);

  EXPECT_THROW((void)client.get("/healthz"), ClientError);
  EXPECT_EQ(client.attempts(), 3u);
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(counter_value("serve.chaos.injected.reset"), 3u);
  server_.reset();  // the plan is a test-body local: join workers first
}

/// Loopback listener that answers its i-th connection with the raw bytes
/// `responses[i]` once the request head has arrived, then closes it. The
/// destructor unblocks a pending accept, so a client that connects fewer
/// times than scripted cannot hang the test.
class ScriptedResponder {
 public:
  explicit ScriptedResponder(std::vector<std::string> responses) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t length = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), length) != 0 ||
        ::listen(listen_fd_, 4) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &length) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, responses = std::move(responses)] {
      for (const std::string& response : responses) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        std::string head;
        char chunk[1024];
        while (head.find("\r\n\r\n") == std::string::npos) {
          const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;
          head.append(chunk, static_cast<std::size_t>(n));
        }
        (void)send_bytes(fd, response);
        ::close(fd);
      }
    });
  }
  ScriptedResponder(const ScriptedResponder&) = delete;
  ScriptedResponder& operator=(const ScriptedResponder&) = delete;
  ~ScriptedResponder() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientResilienceTest, WaitsOutRetryAfterCappedAtMaxBackoffThenSucceeds) {
  // The hint (30 s) is far above max_backoff, so the client must sleep
  // exactly the cap before its retry; the jitter alone draws at most 1 ms.
  ScriptedResponder responder(
      {"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 30\r\n"
       "Content-Length: 0\r\nConnection: close\r\n\r\n",
       "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n"
       "\r\nok"});
  ASSERT_NE(responder.port(), 0);

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(150);
  Client client("127.0.0.1", responder.port(), policy);

  const auto before = std::chrono::steady_clock::now();
  const HttpResponse response = client.get("/healthz");
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_EQ(client.attempts(), 2u);
  EXPECT_GE(waited, milliseconds(150));
  EXPECT_LT(waited, milliseconds(10'000));  // the 30 s hint was capped
}

}  // namespace
}  // namespace jem::serve
