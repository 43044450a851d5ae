// One accepted TCP client: bounded read buffer through the line splitter,
// bounded write buffer with backpressure cutoff.
//
// Every request is answered while its line is dispatched, so replies are
// appended to the write buffer in request order as they are produced.
// Memory is bounded end to end: line splitter <= kMaxLineBytes, write
// buffer cut off at max_write_buffer (the connection is dropped and
// counted, never ballooned).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "daemon/event_loop.h"
#include "daemon/proto.h"

namespace turtle::daemon {

class Daemon;

class Connection {
 public:
  /// Takes ownership of `fd` (nonblocking, cloexec).
  Connection(Daemon& daemon, std::uint64_t id, int fd);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Appends one reply line (terminator added) and writes.
  void push_response(std::string_view line);

  /// Stops reading and closes once the owed replies are written — at
  /// once when nothing is owed. The path for QUIT, peer EOF and the
  /// shutdown drain; further inbound lines are ignored.
  void request_close_after_flush();

  /// Immediately closes the socket; the object stays alive (in the
  /// daemon's graveyard) until the event-loop iteration ends.
  void shutdown_now();

  [[nodiscard]] bool dead() const { return dead_; }

 private:
  void on_ready(unsigned ready);
  void handle_read();
  void on_line(std::string_view line);
  void try_write();
  /// Recomputes epoll interest from buffer state and liveness.
  void update_interest();

  Daemon& daemon_;
  std::uint64_t id_;
  proto::LineSplitter splitter_;

  std::string write_buffer_;
  std::size_t write_offset_ = 0;

  bool close_after_flush_ = false;
  bool dead_ = false;

  /// Last member: registers with epoll on construction.
  SocketEvent event_;
};

}  // namespace turtle::daemon
