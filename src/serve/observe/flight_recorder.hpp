// Flight recorder: a fixed-size lock-free ring of recent FlightEvents.
//
// The recorder is always wired into the serving path; whether it records
// is decided per event by armed(): a single relaxed atomic load (the
// process-wide telemetry switch) plus an optional force flag for tools
// and tests that need a dump while REPRO_TELEMETRY is off. The disabled
// path does exactly that one load — no allocation, no lock, no clock
// read — which is what keeps it safe to leave in production admission
// and dispatch code (regression-locked in tests/observe_test.cpp).
//
// The armed path reserves a slot with one atomic fetch_add and publishes
// the event under a per-slot seqlock, so concurrent producers never
// block each other and a dump() taken mid-flight simply skips slots it
// caught mid-write. The ring keeps the most recent `capacity` events;
// older ones are overwritten (overwrites are counted, not hidden).
//
// dump_json() serializes the surviving window as
//   {"capacity":N,"recorded":N,"overwritten":N,"events":[...]}
// — the format observe/inspect.hpp and tools/repro_trace_inspect read.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/observe/events.hpp"

namespace repro::serve::observe {

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; 0 disables the
  /// recorder entirely (record() returns after one branch).
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records `event` when armed; a single relaxed load when not.
  void record(const FlightEvent& event) noexcept;

  /// Records regardless of the telemetry switch (capacity 0 still
  /// disables). Used by forced-on tools; the serving path calls
  /// record().
  void force_record(const FlightEvent& event) noexcept;

  /// Arms the recorder even while telemetry is globally off.
  void set_forced(bool on) noexcept {
    forced_.store(on, std::memory_order_relaxed);
  }

  bool armed() const noexcept;

  /// Oldest-to-newest copy of the surviving window. Slots caught
  /// mid-write by a concurrent producer are skipped, never torn.
  std::vector<FlightEvent> dump() const;

  /// The dump plus recorder accounting, as a JSON document.
  std::string dump_json() const;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total events accepted since construction (monotonic).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wrap-around.
  std::uint64_t overwritten() const noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 empty; n+1 = event n published
    FlightEvent event;
  };

  std::size_t capacity_ = 0;  ///< power of two (or 0)
  std::uint64_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> forced_{false};
};

}  // namespace repro::serve::observe
