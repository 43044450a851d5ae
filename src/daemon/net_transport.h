// turtled's serve path: the wire codec's parsed requests, answered by a
// serve::Oracle.
//
// Every QUERY is answered inline, in request order: no queue, no batching,
// no modeled service time, and so no way to shed. The daemon hosts no
// simulator; the oracle is clock-free, so the serve.* counters it keeps
// are a pure function of the request byte stream however the kernel
// batched the reads. `turtlectl --local` builds this same binding, so the
// smoke test's network == in-process byte comparison runs the daemon's
// exact serve path.
#pragma once

#include <memory>
#include <utility>

#include "serve/oracle.h"
#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"
#include "util/sim_time.h"

namespace turtle::daemon {

class NetTransport {
 public:
  /// Uses only `config.registry` (null: a private one) and
  /// `config.policy_engine`; the in-sim queue-model fields do not apply.
  /// Pass the daemon's registry so serve.* and daemon.* share one dump.
  NetTransport(const serve::ServerConfig& config,
               std::shared_ptr<const serve::OracleSnapshot> snapshot)
      : oracle_{config.registry, std::move(snapshot), config.policy_engine} {}

  NetTransport(const NetTransport&) = delete;
  NetTransport& operator=(const NetTransport&) = delete;

  [[nodiscard]] serve::LookupResult answer(const serve::Request& request) {
    return oracle_.answer(request);
  }

  /// Callback form of answer(): `callback(result, SimTime{})` runs before
  /// submit returns. Kept, with pump(), for the call shapes of
  /// turtlebench's in-process replay (turtlebench/src/replay.cc).
  template <typename Callback>
  void submit(const serve::Request& request, Callback&& callback) {
    callback(answer(request), SimTime{});
  }

  /// No-op: submit already answered. Kept for the same replay.
  void pump() {}

  [[nodiscard]] serve::Oracle& oracle() { return oracle_; }

 private:
  serve::Oracle oracle_;
};

}  // namespace turtle::daemon
