#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace e2e {

namespace {

void CloseFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    std::string* error, double timeout_s) {
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    ::close(to_child[0]);
    ::close(to_child[1]);
    return nullptr;
  }
  std::vector<std::string> argv_strings = {binary, "serve", "--port=0"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    return nullptr;
  }
  if (pid == 0) {
    // Child: stdin from the pipe (EOF stops the server), stdout to the
    // pipe (the port line), stderr inherited. Dies with the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  std::unique_ptr<ServerProcess> server(
      new ServerProcess(pid, to_child[1], from_child[0]));

  // Read until the port line (or EOF / timeout).
  std::string line;
  const double deadline = Now() + timeout_s;
  for (;;) {
    const size_t eol = line.find('\n');
    if (eol != std::string::npos) {
      const size_t at = line.find("127.0.0.1:");
      if (at == std::string::npos || at > eol) {
        *error = "unexpected first line from server: " + line.substr(0, eol);
        server->Stop(5.0);
        return nullptr;
      }
      server->port_ = static_cast<uint16_t>(
          std::strtoul(line.c_str() + at + 10, nullptr, 10));
      return server;
    }
    const double left = deadline - Now();
    if (left <= 0) {
      *error = "server did not report its port in time";
      server->Stop(5.0);
      return nullptr;
    }
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      server->Stop(5.0);
      return nullptr;
    }
    if (ready <= 0) continue;
    char buffer[512];
    const ssize_t got = ::read(server->stdout_fd_, buffer, sizeof(buffer));
    if (got <= 0) {
      *error = "server exited before reporting its port";
      server->Stop(5.0);
      return nullptr;
    }
    line.append(buffer, static_cast<size_t>(got));
  }
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return clean_exit_;
  CloseFd(stdin_fd_);
  const double deadline = Now() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    if (Now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      clean_exit_ = false;
      break;
    }
    ::usleep(2000);
  }
  CloseFd(stdout_fd_);
  pid_ = -1;
  return clean_exit_;
}

}  // namespace e2e
