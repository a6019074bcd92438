// Virtual time for the deterministic simulation.
//
// All device and fabric time in this repository is *simulated*: components
// do real work on real bytes (checksums, skip-list traversals, copies) but
// the time they report comes from a calibrated cost model charged to this
// clock. That is the substitution that stands in for the paper's
// Optane + 25 GbE testbed (see DESIGN.md §2).
//
// Charge scopes. In the end-to-end experiments, CPU work must consume a
// *per-host* CPU, not global event time: a busy server core queues
// requests (the Figure 2 effect) without stopping the rest of the world.
// A host wraps its packet/request processing in a charge scope: while the
// scope is active, advance() accumulates into the scope's collector and
// now() reports the host's virtual time (scope base + collected charge),
// so timestamps and scheduled outputs land at the right moment. When no
// scope is active (unit tests, microbenches), advance() moves global time
// directly.
#pragma once

#include <cassert>

#include "common/types.h"

namespace papm::sim {

class Clock {
 public:
  // Event time, or the active scope's virtual time.
  [[nodiscard]] SimTime now() const noexcept {
    return collector_ != nullptr ? scope_base_ + *collector_ : now_;
  }

  // Charge synchronous work: accumulates into the active scope, or moves
  // global time forward by `ns` (>= 0).
  void advance(SimTime ns) noexcept {
    if (ns <= 0) return;
    if (collector_ != nullptr) {
      *collector_ += ns;
    } else {
      now_ += ns;
    }
  }

  // Jump to an absolute time; used by the event engine only. Never moves
  // backwards, never legal inside a scope.
  void jump_to(SimTime t) noexcept {
    assert(collector_ == nullptr);
    if (t > now_) now_ = t;
  }

  // --- Charge scopes (see header comment) ---------------------------
  // While a Scope lives, advance() accumulates into `collector` and now()
  // reads `base + *collector`. Destruction restores the scope active before
  // (a device engine modelled inside a host scope diverts its charges off
  // the host), also when a PowerFailure unwinds through it.
  class Scope {
   public:
    Scope(Clock& clk, SimTime base, SimTime* collector) noexcept
        : clk_(clk), prev_base_(clk.scope_base_), prev_(clk.collector_) {
      clk_.scope_base_ = base;
      clk_.collector_ = collector;
    }
    ~Scope() {
      clk_.scope_base_ = prev_base_;
      clk_.collector_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Clock& clk_;
    SimTime prev_base_;
    SimTime* prev_;
  };
  [[nodiscard]] bool in_scope() const noexcept { return collector_ != nullptr; }

  void reset() noexcept {
    now_ = 0;
    collector_ = nullptr;
  }

 private:
  SimTime now_ = 0;
  SimTime scope_base_ = 0;
  SimTime* collector_ = nullptr;
};

}  // namespace papm::sim
