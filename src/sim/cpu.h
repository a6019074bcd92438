// Per-host CPU resource.
//
// The paper's server "uses only one CPU core"; Figure 2's latency growth
// with connection count is queueing at that core. HostCpu serializes
// charged work onto a fixed number of cores: each run() picks the
// earliest-free core no earlier than the event time, executes the handler
// under a charge scope (see clock.h), and marks the core busy for the
// collected charge.
//
// The multi-queue datapath (RSS scale-out) instead *pins* work: run_on()
// charges a specific core, so each NIC queue's busy-poll loop consumes
// its own core and a backlog on one core never delays another — the
// per-core queueing model the scaling experiments (S1) rest on.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/env.h"

namespace papm::sim {

class HostCpu {
 public:
  // cores == 0 means "effectively unlimited" (the multi-core client whose
  // queueing the paper does not model).
  explicit HostCpu(Env& env, int cores = 1) : env_(&env) {
    for (int i = 0; i < cores; i++) free_at_.push_back(0);
    busy_per_core_.assign(free_at_.size(), 0);
  }

  // Executes `fn` as CPU work arriving now on the earliest-free core.
  // Returns the completion time.
  template <typename F>
  SimTime run(F&& fn) {
    std::size_t core = 0;
    if (!free_at_.empty()) {
      core = static_cast<std::size_t>(
          std::min_element(free_at_.begin(), free_at_.end()) - free_at_.begin());
    }
    return run_pinned(core, std::forward<F>(fn));
  }

  // Executes `fn` as CPU work arriving now, pinned to `core`: the work
  // queues behind that core's backlog even if other cores are idle. With
  // an unlimited CPU (cores == 0) pinning is a no-op.
  template <typename F>
  SimTime run_on(std::size_t core, F&& fn) {
    if (!free_at_.empty()) core %= free_at_.size();
    return run_pinned(core, std::forward<F>(fn));
  }

  [[nodiscard]] SimTime earliest_free() const noexcept {
    if (free_at_.empty()) return 0;
    return *std::min_element(free_at_.begin(), free_at_.end());
  }
  [[nodiscard]] SimTime free_at(std::size_t core) const noexcept {
    return core < free_at_.size() ? free_at_[core] : 0;
  }
  [[nodiscard]] int cores() const noexcept {
    return static_cast<int>(free_at_.size());
  }
  [[nodiscard]] SimTime busy_ns() const noexcept { return busy_ns_; }
  [[nodiscard]] SimTime busy_ns(std::size_t core) const noexcept {
    return core < busy_per_core_.size() ? busy_per_core_[core] : 0;
  }
  // True while running a work item that waited behind the busy core —
  // the back-to-back regime where batching effects apply.
  [[nodiscard]] bool backlogged() const noexcept { return backlogged_; }
  [[nodiscard]] u64 work_items() const noexcept { return work_items_; }

 private:
  template <typename F>
  SimTime run_pinned(std::size_t core, F&& fn) {
    const SimTime arrival = env_->now();
    SimTime start = arrival;
    if (!free_at_.empty()) start = std::max(arrival, free_at_[core]);
    backlogged_ = start > arrival;
    SimTime charge = 0;
    {
      assert(!env_->clock().in_scope() && "scopes do not nest");
      const Clock::Scope scope(env_->clock(), start, &charge);
      std::forward<F>(fn)();
    }
    const SimTime done = start + charge;
    if (!free_at_.empty()) {
      free_at_[core] = done;
      busy_per_core_[core] += charge;
    }
    busy_ns_ += charge;
    work_items_++;
    return done;
  }

  Env* env_;
  std::vector<SimTime> free_at_;
  std::vector<SimTime> busy_per_core_;
  SimTime busy_ns_ = 0;
  u64 work_items_ = 0;
  bool backlogged_ = false;
};

}  // namespace papm::sim
