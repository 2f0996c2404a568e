// The program under test as a child process: `webre serve` on an
// ephemeral loopback port, stopped through stdin EOF (its documented
// stop signal) and killed if it does not exit in time.
#ifndef WEBRE_E2EBENCH_SERVER_PROCESS_H_
#define WEBRE_E2EBENCH_SERVER_PROCESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

class ServerProcess {
 public:
  /// Spawns `binary serve --port=0 <args...>` and waits up to
  /// `timeout_s` for its "serving on 127.0.0.1:PORT" line. Returns null
  /// (with `error` set) when it does not come up; the child is then
  /// already stopped.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& args,
      std::string* error, double timeout_s = 60.0);

  /// Stops the server if it is still running.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// Closes the server's stdin and waits up to `timeout_s` for it to
  /// exit, then kills it. Returns true when it exited by itself with
  /// status 0. Idempotent.
  bool Stop(double timeout_s = 30.0);

 private:
  ServerProcess(int pid, int stdin_fd, int stdout_fd)
      : pid_(pid), stdin_fd_(stdin_fd), stdout_fd_(stdout_fd) {}

  int pid_;
  int stdin_fd_;
  int stdout_fd_;
  uint16_t port_ = 0;
  bool clean_exit_ = false;
};

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_SERVER_PROCESS_H_
