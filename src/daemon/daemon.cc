#include "daemon/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <utility>

#include "util/check.h"

namespace turtle::daemon {
namespace {

/// How long the graceful drain waits for owed replies before force-closing.
constexpr std::uint64_t kDrainUs = 100'000;

}  // namespace

Daemon::Daemon(DaemonConfig config, std::shared_ptr<const serve::OracleSnapshot> snapshot)
    : config_{std::move(config)},
      registry_{config_.registry},
      transport_{[&]() {
                   if (registry_ == nullptr) {
                     owned_registry_ = std::make_unique<obs::Registry>();
                     registry_ = owned_registry_.get();
                   }
                   serve::ServerConfig server;
                   server.registry = registry_;
                   return server;
                 }(),
                 std::move(snapshot)},
      idle_{config_.max_idle_us, *registry_} {
  conn_accepted_ = &registry_->counter("daemon.conn.accepted");
  conn_closed_ = &registry_->counter("daemon.conn.closed");
  conn_rejected_ = &registry_->counter("daemon.conn.rejected_overload");
  conn_dropped_ = &registry_->counter("daemon.conn.dropped_backpressure");
  proto_requests_ = &registry_->counter("daemon.proto.requests");
  proto_rejected_ = &registry_->counter("daemon.proto.rejected");
  proto_queries_ = &registry_->counter("daemon.proto.queries");
  proto_admin_ = &registry_->counter("daemon.proto.admin");
  swap_failed_ = &registry_->counter("daemon.swap.failed");
  udp_in_ = &registry_->counter("daemon.udp.datagrams_in");
  udp_replies_ = &registry_->counter("daemon.udp.replies");
  conn_open_ = &registry_->gauge("daemon.conn.open");
  conn_high_water_ = &registry_->gauge("daemon.conn.high_water");

  tcp_listener_ = std::make_unique<TcpListener>(
      loop_, open_tcp_listener(config_.bind_addr, config_.tcp_port),
      [this](int fd) { on_accept(fd); });
  const BoundSocket udp = open_udp_socket(config_.bind_addr, config_.udp_port);
  udp_port_ = udp.port;
  udp_event_ = std::make_unique<SocketEvent>(
      loop_, udp.fd, [this](unsigned /*ready*/) { on_udp_ready(); });
  udp_event_->schedule(SocketEvent::kRead);

  loop_.set_tick([this](std::uint64_t now_us) { return tick(now_us); });
  loop_.set_stop_hook([this] { begin_shutdown(); });

  if (!config_.port_file.empty()) {
    std::ofstream os{config_.port_file, std::ios::trunc};
    TURTLE_CHECK(os.is_open()) << "cannot write port file " << config_.port_file;
    os << "tcp=" << tcp_port() << "\nudp=" << udp_port_ << "\n";
  }
}

Daemon::~Daemon() {
  for (auto& [id, conn] : connections_) conn->shutdown_now();
  connections_.clear();
  graveyard_.clear();
  if (udp_event_ != nullptr) udp_event_->close();
  if (tcp_listener_ != nullptr) tcp_listener_->close();
}

void Daemon::run() { loop_.run(); }

void Daemon::on_accept(int fd) {
  if (connections_.size() >= config_.max_connections) {
    conn_rejected_->inc();
    // Best-effort refusal note; the close is the real answer.
    static constexpr char kRefusal[] = "ERR overloaded connection limit\n";
    [[maybe_unused]] const auto n = ::write(fd, kRefusal, sizeof kRefusal - 1);
    ::close(fd);
    return;
  }
  const std::uint64_t id = next_conn_id_++;
  connections_.emplace(id, std::make_unique<Connection>(*this, id, fd));
  conn_accepted_->inc();
  conn_open_->set(static_cast<std::int64_t>(connections_.size()));
  conn_high_water_->set_max(static_cast<std::int64_t>(connections_.size()));
  idle_.add(id, loop_.now_us());
}

void Daemon::close_connection(std::uint64_t id, CloseReason reason) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  switch (reason) {
    case CloseReason::kPeer:
    case CloseReason::kShutdown:
    case CloseReason::kReapedIdle:
      break;
    case CloseReason::kBackpressure:
      conn_dropped_->inc();
      break;
  }
  conn_closed_->inc();
  idle_.remove(id);
  it->second->shutdown_now();
  // Park the object: the close may originate inside this connection's own
  // dispatch stack, so destruction waits for the iteration to end.
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  conn_open_->set(static_cast<std::int64_t>(connections_.size()));
}

Daemon::Reply Daemon::handle_request(std::string_view line) {
  proto_requests_->inc();
  proto::ParseError error{};
  const auto parsed = proto::parse_request(line, error);
  if (!parsed.has_value()) {
    proto_rejected_->inc();
    return {proto::format_error(error)};
  }
  switch (parsed->command) {
    case proto::Command::kQuery:
      proto_queries_->inc();
      return {proto::format_query_response(transport_.answer(parsed->query))};
    case proto::Command::kStats:
      proto_admin_->inc();
      return {stats_line()};
    case proto::Command::kVersion:
      proto_admin_->inc();
      return {version_line()};
    case proto::Command::kSwap:
      proto_admin_->inc();
      return {do_swap(parsed->swap_path)};
    case proto::Command::kQuit:
      proto_admin_->inc();
      loop_.defer([this] { begin_shutdown(); });
      return {"OK BYE", true};
  }
  TURTLE_UNREACHABLE();
}

std::string Daemon::reject_overflow() {
  proto_requests_->inc();
  proto_rejected_->inc();
  return proto::format_error(proto::ParseError::kLineTooLong);
}

void Daemon::on_udp_ready() {
  // Write readiness only wakes the loop, whose tick flushes the queued
  // replies; once the drain has begun no new datagram is read.
  if (shutting_down_) return;
  char buf[2048];
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const ssize_t n = recvfrom(udp_event_->fd(), buf, sizeof buf, 0,
                               reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: done for this wakeup
    }
    udp_in_->inc();
    std::string_view payload{buf, static_cast<std::size_t>(n)};
    // One datagram, one request line; a trailing terminator is tolerated.
    if (const std::size_t nl = payload.find('\n'); nl != std::string_view::npos) {
      payload = payload.substr(0, nl);
    }
    udp_out_.push_back(UdpReply{peer, handle_request(payload).line});
  }
}

std::optional<std::uint64_t> Daemon::tick(std::uint64_t now_us) {
  idle_.expire(now_us, [this](std::uint64_t id) {
    // The IdleList counted the reap; this closes the socket.
    close_connection(id, CloseReason::kReapedIdle);
  });
  // Replies go out before the drain asks whether anything is still owed.
  flush_udp();
  if (shutting_down_ && ((connections_.empty() && udp_out_.empty()) ||
                         now_us >= drain_deadline_us_)) {
    finish_shutdown();
  }
  graveyard_.clear();
  std::optional<std::uint64_t> deadline = idle_.next_deadline_us();
  if (shutting_down_ && (!deadline.has_value() || drain_deadline_us_ < *deadline)) {
    deadline = drain_deadline_us_;
  }
  return deadline;
}

void Daemon::flush_udp() {
  while (!udp_out_.empty()) {
    const UdpReply& reply = udp_out_.front();
    std::string wire = reply.line;
    wire += '\n';
    const ssize_t n =
        sendto(udp_event_->fd(), wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&reply.peer), sizeof reply.peer);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;  // wait for space
    // Sent (or unsendable: the datagram contract is best-effort).
    if (n >= 0) udp_replies_->inc();
    udp_out_.pop_front();
  }
  update_udp_interest();
}

void Daemon::update_udp_interest() {
  unsigned interest = shutting_down_ ? 0 : SocketEvent::kRead;
  if (!udp_out_.empty()) interest |= SocketEvent::kWrite;
  udp_event_->schedule(interest);
}

std::string Daemon::stats_line() {
  const serve::Oracle& oracle = transport_.oracle();
  std::string out = "OK STATS";
  const auto field = [&out](std::string_view key, std::uint64_t value) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  };
  field("lookups", registry_->counter("serve.lookups").value());
  field("conns", connections_.size());
  field("accepted", conn_accepted_->value());
  field("reaped_idle", idle_.reaped());
  field("proto_requests", proto_requests_->value());
  field("proto_rejected", proto_rejected_->value());
  field("snapshot_version", oracle.snapshot() != nullptr ? oracle.snapshot()->version() : 0);
  field("swaps", registry_->counter("serve.snapshot_swaps").value());
  return out;
}

std::string Daemon::version_line() {
  const serve::Oracle& oracle = transport_.oracle();
  std::string out = "OK VERSION proto=";
  out += std::to_string(proto::kProtoVersion);
  out += " snapshot=";
  out += std::to_string(oracle.snapshot() != nullptr ? oracle.snapshot()->version() : 0);
  return out;
}

std::string Daemon::do_swap(const std::string& path) {
  std::string error;
  const std::shared_ptr<const serve::OracleSnapshot> next =
      serve::OracleSnapshot::map(path, &error, registry_);
  if (next == nullptr) {
    swap_failed_->inc();
    return proto::format_error("swap-failed", error);
  }
  const std::uint64_t version = next->version();
  const std::size_t blocks = next->block_count();
  transport_.oracle().swap(std::move(next));
  std::string out = "OK SWAP version=";
  out += std::to_string(version);
  out += " blocks=";
  out += std::to_string(blocks);
  return out;
}

void Daemon::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  drain_deadline_us_ = loop_.now_us() + kDrainUs;
  tcp_listener_->close();
  // Stop reading new datagrams; the socket stays open for queued replies.
  update_udp_interest();
  // Every connection closes once its owed replies are written; the tick
  // force-closes whatever is left at the drain deadline. Closing mutates
  // connections_, so walk a snapshot of ids instead of live iterators.
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = connections_.find(id);
    if (it != connections_.end()) it->second->request_close_after_flush();
  }
}

void Daemon::finish_shutdown() {
  while (!connections_.empty()) {
    close_connection(connections_.begin()->first, CloseReason::kShutdown);
  }
  flush_udp();
  udp_event_->close();
  dump_metrics();
  graveyard_.clear();
  loop_.stop();
}

void Daemon::dump_metrics() {
  if (config_.metrics_out.empty()) return;
  std::ofstream os{config_.metrics_out, std::ios::trunc};
  TURTLE_CHECK(os.is_open()) << "cannot write metrics file " << config_.metrics_out;
  registry_->write_json(os);
}

}  // namespace turtle::daemon
