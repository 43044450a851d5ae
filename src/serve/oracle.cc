#include "serve/oracle.h"

#include <utility>

#include "serve/policy_engine.h"

namespace turtle::serve {

Oracle::Oracle(obs::Registry* registry, std::shared_ptr<const OracleSnapshot> snapshot,
               PolicyEngine* policy_engine)
    : registry_{registry}, policy_engine_{policy_engine} {
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  lookups_ = &registry_->counter("serve.lookups");
  scope_block_ = &registry_->counter("serve.scope_block");
  scope_as_ = &registry_->counter("serve.scope_as");
  scope_global_ = &registry_->counter("serve.scope_global");
  snapshot_swaps_ = &registry_->counter("serve.snapshot_swaps");
  snapshot_version_ = &registry_->gauge("serve.snapshot_version");
  install(std::move(snapshot));
}

LookupResult Oracle::answer(const Request& request) {
  // With a policy engine the request's policy answers — warm per-/24
  // estimators at block scope, cold ones through the engine's snapshot
  // fallback — so the scope accounting below covers both paths uniformly.
  LookupResult result;
  if (policy_engine_ != nullptr) {
    result = policy_engine_->answer(request.policy_id, request.addr);
  } else if (snapshot_ != nullptr) {
    result = snapshot_->lookup(request.addr, request.addr_coverage, request.ping_coverage,
                               request.min_scope);
  }
  lookups_->inc();
  switch (result.scope) {
    case LookupScope::kBlock:
      scope_block_->inc();
      break;
    case LookupScope::kAs:
      scope_as_->inc();
      break;
    case LookupScope::kGlobal:
      scope_global_->inc();
      break;
  }
  return result;
}

void Oracle::swap(std::shared_ptr<const OracleSnapshot> snapshot) {
  snapshot_swaps_->inc();
  install(std::move(snapshot));
}

void Oracle::install(std::shared_ptr<const OracleSnapshot> snapshot) {
  snapshot_ = std::move(snapshot);
  if (snapshot_ != nullptr) {
    snapshot_version_->set_max(static_cast<std::int64_t>(snapshot_->version()));
  }
}

}  // namespace turtle::serve
