// One `turtled` child process: started from generated inputs, reached
// over loopback, stopped with QUIT so it dumps its metrics ledger.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "util/json_reader.h"

namespace turtlebench {

class DaemonProcess {
 public:
  /// Starts `binary --snapshot=<snapshot>` with its port and metrics files
  /// and its output in `work_dir`, then waits for the port file. Throws
  /// std::runtime_error if the daemon does not come up.
  DaemonProcess(const std::string& binary, const std::string& snapshot,
                const std::string& work_dir, const std::string& tag);
  /// Kills the child if it is still running and reaps it.
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }

  /// Sends QUIT on a fresh connection, waits for the exit and parses the
  /// metrics dump. Returns false (with `error`) on any failure.
  bool quit(turtle::util::JsonValue& metrics, std::string& error);

 private:
  void reap(int timeout_ms);

  pid_t pid_ = -1;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t udp_port_ = 0;
  std::string metrics_path_;
};

/// Connected, non-blocking loopback TCP socket with TCP_NODELAY set on the
/// client side only (the client's writes are already whole batches).
[[nodiscard]] int connect_tcp(std::uint16_t port);
/// Non-blocking UDP socket connected to the daemon's port.
[[nodiscard]] int connect_udp(std::uint16_t port);

/// Blocking helper: sends `line` + LF on `fd` and reads one reply line,
/// waiting at most `timeout_ms`. Returns false on timeout or error.
bool round_trip(int fd, const std::string& line, std::string& reply, int timeout_ms);

/// Counter or gauge `name` from a turtle-metrics-v1 dump (0 when absent).
[[nodiscard]] double metric_value(const turtle::util::JsonValue& metrics,
                                  const std::string& name);

}  // namespace turtlebench
