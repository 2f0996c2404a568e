#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace e2e {

namespace {

constexpr size_t kMaxFrameBytes = 64u << 20;

int ConnectLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes, std::string* error) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

struct ClosedLoop::Conn {
  explicit Conn(int fd_in) : fd(fd_in), decoder(kMaxFrameBytes) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd;
  webre::serve::FrameDecoder decoder;
  webre::serve::Request request;
  bool busy = false;
  double sent_at = 0.0;
  std::string frame;
};

std::unique_ptr<ClosedLoop> ClosedLoop::Connect(uint16_t port,
                                                size_t connections,
                                                std::string* error) {
  std::unique_ptr<ClosedLoop> loop(new ClosedLoop());
  for (size_t i = 0; i < connections; ++i) {
    const int fd = ConnectLoopback(port, error);
    if (fd < 0) return nullptr;
    loop->conns_.push_back(std::make_unique<Conn>(fd));
  }
  // Handshake: one kPing per connection. The server picks a
  // connection's protocol from its first byte ('{' = JSON lines), which
  // for a binary frame is the low byte of the payload length; an empty
  // ping fixes binary mode before any payload-carrying frame is sent.
  std::vector<bool> pinged(connections, false);
  bool ok = true;
  const bool ran = loop->Run(
      1e300,
      [&](size_t conn, webre::serve::Request& request) {
        if (pinged[conn]) return false;
        pinged[conn] = true;
        request.type = webre::serve::MsgType::kPing;
        request.body.clear();
        return true;
      },
      [&](size_t, const webre::serve::Request&,
          webre::serve::Response& response, double) {
        ok = ok && response.ok();
      },
      error);
  if (!ran || !ok) {
    if (ran) *error = "handshake ping refused";
    return nullptr;
  }
  return loop;
}

ClosedLoop::~ClosedLoop() = default;

bool ClosedLoop::Run(double deadline, const NextFn& next, const DoneFn& done,
                     std::string* error) {
  const size_t n = conns_.size();
  auto send_next = [&](size_t i) {
    Conn& conn = *conns_[i];
    if (Now() >= deadline || !next(i, conn.request)) return true;
    conn.request.id = next_id_++;
    conn.frame.clear();
    webre::serve::EncodeRequest(conn.request, conn.frame);
    conn.sent_at = Now();
    conn.busy = true;
    return SendAll(conn.fd, conn.frame, error);
  };
  for (size_t i = 0; i < n; ++i) {
    if (!send_next(i)) return false;
  }
  std::vector<pollfd> pfds(n);
  char buffer[64 * 1024];
  for (;;) {
    size_t busy = 0;
    for (size_t i = 0; i < n; ++i) {
      pfds[i] = pollfd{conns_[i]->fd, conns_[i]->busy ? short{POLLIN} : short{0},
                       0};
      busy += conns_[i]->busy ? 1 : 0;
    }
    if (busy == 0) return true;
    const int ready = ::poll(pfds.data(), n, 30000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (ready == 0) {
      *error = "no reply from the server within 30 s";
      return false;
    }
    for (size_t i = 0; i < n; ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& conn = *conns_[i];
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        *error = got == 0 ? "server closed a connection"
                          : std::string("recv: ") + std::strerror(errno);
        return false;
      }
      conn.decoder.Append(std::string_view(buffer, static_cast<size_t>(got)));
      webre::serve::Response response;
      const webre::serve::FrameStatus status =
          conn.decoder.NextResponse(response);
      if (status == webre::serve::FrameStatus::kNeedMore) continue;
      if (status == webre::serve::FrameStatus::kBad) {
        *error = "malformed response frame: " + conn.decoder.error();
        return false;
      }
      const double rtt = Now() - conn.sent_at;
      conn.busy = false;
      if (response.id != conn.request.id) {
        *error = "response id does not match the request";
        return false;
      }
      done(i, conn.request, response, rtt);
      if (!send_next(i)) return false;
    }
  }
}

bool CallOnce(uint16_t port, const webre::serve::Request& request,
              webre::serve::Response* response, std::string* error) {
  auto loop = ClosedLoop::Connect(port, 1, error);
  if (loop == nullptr) return false;
  bool sent = false;
  bool got = false;
  const bool ran = loop->Run(
      1e300,
      [&](size_t, webre::serve::Request& out) {
        if (sent) return false;
        sent = true;
        out = request;
        return true;
      },
      [&](size_t, const webre::serve::Request&, webre::serve::Response& in,
          double) {
        *response = std::move(in);
        got = true;
      },
      error);
  return ran && got;
}

int64_t StatsValue(const std::string& json, const std::string& section,
                   const std::string& key) {
  size_t from = 0;
  if (!section.empty()) {
    from = json.find("\"" + section + "\":{");
    if (from == std::string::npos) return -1;
  }
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace e2e
