#include "telemetry/span_tracer.hpp"

#include "util/clock.hpp"

namespace rapsim::telemetry {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          util::now().time_since_epoch())
          .count());
}

}  // namespace

SpanTracer::SpanTracer() : epoch_ns_(steady_ns()) {}

std::uint32_t SpanTracer::thread_index_locked() {
  const auto tid = std::this_thread::get_id();
  const auto it = threads_.find(tid);
  if (it != threads_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(threads_.size());
  threads_.emplace(tid, index);
  return index;
}

std::uint64_t SpanTracer::begin(std::string_view name, std::uint64_t parent) {
  if (!enabled()) return kNoSpan;
  const std::uint64_t start = steady_ns() - epoch_ns_;
  const std::uint64_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.name.assign(name.data(), name.size());
  record.start_ns = start;
  const std::lock_guard<std::mutex> lock(mutex_);
  record.thread = thread_index_locked();
  open_.emplace(id, std::move(record));
  return id;
}

void SpanTracer::end(std::uint64_t id) {
  if (id == kNoSpan) return;
  const std::uint64_t finish = steady_ns() - epoch_ns_;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown or already closed: no-op
  SpanRecord record = std::move(it->second);
  open_.erase(it);
  record.end_ns = finish < record.start_ns ? record.start_ns : finish;
  completed_.push_back(std::move(record));
}

std::vector<SpanRecord> SpanTracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

std::size_t SpanTracer::completed_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_.size();
}

void SpanTracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  completed_.clear();
}

}  // namespace rapsim::telemetry
