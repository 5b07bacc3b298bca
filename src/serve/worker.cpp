#include "serve/worker.hpp"

#include <chrono>

#include "common/telemetry/trace.hpp"

namespace repro::serve {

BackgroundWorker::BackgroundWorker(std::function<std::size_t()> step,
                                   double idle_wait_seconds,
                                   std::size_t threads)
    : step_(std::move(step)), idle_wait_seconds_(idle_wait_seconds) {
  const std::size_t count = threads == 0 ? 1 : threads;
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { loop(); });
  }
}

BackgroundWorker::~BackgroundWorker() { stop(); }

void BackgroundWorker::notify() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work_hint_ = true;
  }
  cv_.notify_one();
}

void BackgroundWorker::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void BackgroundWorker::loop() {
  // Name the worker for Chrome-trace exports: its spans otherwise show
  // up under an anonymous tid that collides with pool lanes.
  telemetry::set_thread_name("serve.worker");
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
    }
    const std::size_t done = step_();
    if (done > 0) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::duration<double>(idle_wait_seconds_),
                 [this] { return stop_ || work_hint_; });
    work_hint_ = false;
  }
}

}  // namespace repro::serve
