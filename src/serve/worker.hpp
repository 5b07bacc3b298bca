// Background pump threads for daemon/bench mode.
//
// The service itself is cooperatively driven (TraceService::pump());
// BackgroundWorker runs pump() on `threads` dedicated threads, which
// sleep on one condition variable while idle and are woken by submit().
// This file (worker.{hpp,cpp}) is the ONLY serve/ translation unit
// allowed to create a raw std::thread (repro_lint RL002 exemption): a
// worker is a scheduler, not a data-path lane — all model math still
// runs under the deterministic parallel::thread_pool lane model, so
// generated bits are unaffected by these threads' scheduling.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::serve {

class BackgroundWorker {
 public:
  /// `step` performs one unit of work, returning how many items it
  /// completed; it must be safe to call from `threads` threads at once.
  /// A thread waits (up to `idle_wait_seconds`, or until notify())
  /// whenever its step reports 0.
  BackgroundWorker(std::function<std::size_t()> step,
                   double idle_wait_seconds, std::size_t threads = 1);
  ~BackgroundWorker();

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  /// Wakes one idle thread (new work arrived).
  void notify();

  /// Stops the loops and joins every thread (idempotent).
  void stop();

 private:
  void loop();

  std::function<std::size_t()> step_;
  double idle_wait_seconds_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool work_hint_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace repro::serve
