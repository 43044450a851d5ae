#include "daemon/idle.h"

#include "util/check.h"

namespace turtle::daemon {

IdleList::IdleList(std::uint64_t max_idle_us, obs::Registry& registry)
    : max_idle_us_{max_idle_us}, reaped_{&registry.counter("daemon.conn.reaped_idle")} {
  TURTLE_CHECK_GT(max_idle_us_, 0u);
}

void IdleList::add(std::uint64_t session, std::uint64_t now_us) {
  check_monotonic(now_us);
  const auto [it, inserted] = index_.try_emplace(session);
  TURTLE_CHECK(inserted) << "session " << session << " already tracked";
  it->second = order_.insert(order_.end(), Entry{session, now_us});
}

void IdleList::touch(std::uint64_t session, std::uint64_t now_us) {
  const auto it = index_.find(session);
  if (it == index_.end()) return;  // already reaped or removed
  check_monotonic(now_us);
  it->second->last_active_us = now_us;
  order_.splice(order_.end(), order_, it->second);
}

void IdleList::remove(std::uint64_t session) {
  const auto it = index_.find(session);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
}

void IdleList::check_monotonic(std::uint64_t now_us) const {
  // Activity order is deadline order only while time never runs backwards.
  TURTLE_DCHECK(order_.empty() || order_.back().last_active_us <= now_us)
      << "activity at " << now_us << " before " << order_.back().last_active_us;
}

std::optional<std::uint64_t> IdleList::next_deadline_us() const {
  if (order_.empty()) return std::nullopt;
  return order_.front().last_active_us + max_idle_us_;
}

void IdleList::expire(std::uint64_t now_us,
                      const std::function<void(std::uint64_t session)>& on_reap) {
  while (!order_.empty() && order_.front().last_active_us + max_idle_us_ <= now_us) {
    const std::uint64_t session = order_.front().session;
    index_.erase(session);
    order_.pop_front();
    reaped_->inc();
    on_reap(session);
  }
}

}  // namespace turtle::daemon
