// A closed-loop wire client: one thread, N connections, each with at
// most one request outstanding. A client sends its next request only
// after the previous reply arrived, as a crawler waits for an ingest
// ack or an analyst for a result.
#ifndef WEBRE_E2EBENCH_WIRE_H_
#define WEBRE_E2EBENCH_WIRE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/frame.h"

namespace e2e {

class ClosedLoop {
 public:
  /// Fills the next request for connection `conn`; false = that
  /// connection has nothing more to send.
  using NextFn = std::function<bool(size_t conn, webre::serve::Request&)>;
  /// Consumes the reply to `request`, which took `rtt_s` seconds from
  /// the first byte sent to the last byte decoded.
  using DoneFn = std::function<void(size_t conn,
                                    const webre::serve::Request& request,
                                    webre::serve::Response& response,
                                    double rtt_s)>;

  /// Opens `connections` loopback connections to `port`, each opened
  /// with one kPing round trip (which fixes the binary protocol).
  static std::unique_ptr<ClosedLoop> Connect(uint16_t port,
                                             size_t connections,
                                             std::string* error);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Drives every connection until `deadline` (Now() seconds): no
  /// request is sent after it, and replies still outstanding are
  /// awaited. Returns false, with `error`, when a connection fails or
  /// the server closes it (error replies are delivered to `done`).
  bool Run(double deadline, const NextFn& next, const DoneFn& done,
           std::string* error);

  size_t size() const { return conns_.size(); }

 private:
  struct Conn;
  ClosedLoop() = default;

  std::vector<std::unique_ptr<Conn>> conns_;
  uint32_t next_id_ = 1;
};

/// One request/response exchange on a fresh connection (used outside
/// timed windows: stats, checkpoints, check queries). Fails after 30 s
/// without a reply.
bool CallOnce(uint16_t port, const webre::serve::Request& request,
              webre::serve::Response* response, std::string* error);

/// Reads integer `key` from the first `"key":N` in a stats JSON blob
/// (`section` narrows the search to `"section":{...}`); -1 if absent.
int64_t StatsValue(const std::string& json, const std::string& section,
                   const std::string& key);

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_WIRE_H_
