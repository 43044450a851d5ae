// The answer side of the timeout oracle: one query in, one recommendation
// out, counted.
//
// An Oracle holds the serving snapshot (or routes through a PolicyEngine)
// and the answer-side serve.* counters: serve.lookups, exactly one
// serve.scope_{block,as,global} per lookup, serve.snapshot_swaps and the
// serve.snapshot_version high-water mark. It has no clock and no queue,
// so an answer is a pure function of the request and the snapshot serving
// when it is asked. That is what lets both serving front ends share it:
// the in-sim queueing model (OracleServer) calls it at batch dispatch, and
// turtled (daemon::NetTransport) calls it inline, with no simulator.
//
// Thread contract: none of its own. OracleServer guards its Oracle with
// its mu_; the daemon calls from its one event-loop thread.
#pragma once

#include <cstdint>
#include <memory>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "serve/oracle_snapshot.h"

namespace turtle::serve {

class PolicyEngine;

/// One oracle query.
struct Request {
  net::Ipv4Address addr;
  double addr_coverage = 95.0;
  double ping_coverage = 95.0;
  /// Nonzero: this request was sampled by the load generator's trace
  /// sampler. The in-sim server emits admission/queue/exec/end-to-end
  /// spans tagged with this id, and its completion latency becomes an
  /// exemplar candidate. 0 (the default) means untraced — zero extra work.
  std::uint64_t trace_id = 0;
  /// Which policy answers this request when the oracle has a policy
  /// engine: 0 = the static snapshot baseline, 1.. = register_policy ids.
  /// Ignored without an engine.
  std::uint32_t policy_id = 0;
  /// Coarsest-tier forcing for snapshot-path lookups (the wire protocol's
  /// `scope=` selector): kAs skips the per-/24 probe, kGlobal answers
  /// straight from the Table 2 matrix. Requests routed through a policy
  /// engine ignore this — an adaptive policy decides its own scope.
  LookupScope min_scope = LookupScope::kBlock;
};

class Oracle {
 public:
  /// Counters land in `registry`, or in a private one when it is null.
  /// `snapshot` may be null: the oracle then answers zero-confidence
  /// global defaults until one is swapped in. `policy_engine`, when set,
  /// answers every request by its policy_id; it holds its own snapshot
  /// reference and must outlive the oracle.
  Oracle(obs::Registry* registry, std::shared_ptr<const OracleSnapshot> snapshot,
         PolicyEngine* policy_engine = nullptr);

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Answers `request` from the snapshot serving now (or the request's
  /// policy) and counts the lookup and its scope tier.
  [[nodiscard]] LookupResult answer(const Request& request);

  /// Replaces the serving snapshot; counted under serve.snapshot_swaps.
  void swap(std::shared_ptr<const OracleSnapshot> snapshot);

  /// Replaces the serving snapshot without counting a swap: the in-sim
  /// server's crash loss (null) and crash recovery.
  void install(std::shared_ptr<const OracleSnapshot> snapshot);

  [[nodiscard]] const OracleSnapshot* snapshot() const { return snapshot_.get(); }
  [[nodiscard]] obs::Registry& registry() { return *registry_; }

 private:
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;
  std::shared_ptr<const OracleSnapshot> snapshot_;
  PolicyEngine* policy_engine_;

  obs::Counter* lookups_;         ///< "serve.lookups"
  obs::Counter* scope_block_;     ///< "serve.scope_block"
  obs::Counter* scope_as_;        ///< "serve.scope_as"
  obs::Counter* scope_global_;    ///< "serve.scope_global"
  obs::Counter* snapshot_swaps_;  ///< "serve.snapshot_swaps"
  obs::Gauge* snapshot_version_;  ///< "serve.snapshot_version"
};

}  // namespace turtle::serve
