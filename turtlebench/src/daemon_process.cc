#include "daemon_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.h"

namespace turtlebench {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_nonblocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK); }

}  // namespace

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& snapshot,
                             const std::string& work_dir, const std::string& tag)
    : metrics_path_{work_dir + "/" + tag + ".metrics.json"} {
  const std::string port_file = work_dir + "/" + tag + ".ports";
  const std::string log_file = work_dir + "/" + tag + ".log";
  std::remove(port_file.c_str());
  std::remove(metrics_path_.c_str());
  std::vector<std::string> args{binary, "--snapshot=" + snapshot, "--port-file=" + port_file,
                                "--metrics-out=" + metrics_path_};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Never outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    // The daemon gets a core of its own, apart from the client's.
    pin_to_allowed_cpu(0);
    const int out = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out >= 0) {
      dup2(out, 1);
      dup2(out, 2);
      close(out);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  // The port file appears once both listeners are bound.
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (now_ns() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("turtled exited during start-up; see " + log_file);
    }
    std::ifstream in{port_file};
    std::string tcp;
    std::string udp;
    if (in >> tcp >> udp && tcp.rfind("tcp=", 0) == 0 && udp.rfind("udp=", 0) == 0) {
      tcp_port_ = static_cast<std::uint16_t>(std::stoi(tcp.substr(4)));
      udp_port_ = static_cast<std::uint16_t>(std::stoi(udp.substr(4)));
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  reap(0);
  throw std::runtime_error("turtled did not write its port file; see " + log_file);
}

DaemonProcess::~DaemonProcess() { reap(0); }

void DaemonProcess::reap(int timeout_ms) {
  if (pid_ <= 0) return;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  while (true) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) break;
    if (now_ns() >= deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
}

bool DaemonProcess::quit(turtle::util::JsonValue& metrics, std::string& error) {
  const int fd = connect_tcp(tcp_port_);
  std::string reply;
  const bool answered = fd >= 0 && round_trip(fd, "QUIT", reply, 10'000);
  if (fd >= 0) close(fd);
  reap(20'000);
  if (!answered || reply != "OK BYE") {
    error = "QUIT was not acknowledged (reply '" + reply + "')";
    return false;
  }
  try {
    metrics = turtle::util::parse_json_file(metrics_path_, "turtled metrics");
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  return true;
}

int connect_tcp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_in addr = loopback(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  set_nonblocking(fd);
  return fd;
}

int connect_udp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const sockaddr_in addr = loopback(port);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  // Room for every reply of a swap-length backlog on the client side.
  const int bytes = 4 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
  set_nonblocking(fd);
  return fd;
}

bool round_trip(int fd, const std::string& line, std::string& reply, int timeout_ms) {
  reply.clear();
  const std::string wire = line + "\n";
  if (send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(wire.size())) {
    return false;
  }
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  char buf[512];
  while (now_ns() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, 10) <= 0) continue;
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      return false;
    }
    reply.append(buf, static_cast<std::size_t>(n));
    if (const auto nl = reply.find('\n'); nl != std::string::npos) {
      reply.resize(nl);
      return true;
    }
  }
  return false;
}

double metric_value(const turtle::util::JsonValue& metrics, const std::string& name) {
  for (const char* section : {"counters", "gauges"}) {
    if (const auto* group = metrics.find(section)) {
      if (const auto* value = group->find(name)) return value->number;
    }
  }
  return 0;
}

}  // namespace turtlebench
