// In-memory span tracer for the traced benchmark runs.
//
// A span is a named [start, end) interval on one lane. Lane 0 is the thread
// that drives the workload, lane 1 holds side measurements taken outside the
// timed units, and lanes 2.. belong to worker threads. Each lane is written by
// one thread only, so recording takes no lock; lanes are read after the
// workers have joined. A span opened on lane 0 while no other lane-0 span is
// open is top-level: the top-level spans of a unit plus its unattributed
// remainder add up to the unit's wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace iw::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

class Tracer {
 public:
  static constexpr int kMainLane = 0;
  static constexpr int kSideLane = 1;

  struct Record {
    const char* name;
    double t0_s;
    double t1_s;
    bool top_level;
  };

  class Lane {
   public:
    Lane(const Clock::time_point* epoch, bool is_main)
        : epoch_(epoch), is_main_(is_main) {}

   private:
    friend class Span;
    friend class Tracer;
    const Clock::time_point* epoch_;
    bool is_main_;
    int depth_ = 0;
    std::vector<Record> records_;
  };

  /// `worker_lanes` lanes after the main and side lanes.
  explicit Tracer(int worker_lanes = 0);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Lane* main() { return &lanes_[kMainLane]; }
  Lane* side() { return &lanes_[kSideLane]; }
  Lane* worker(int i) { return &lanes_[static_cast<std::size_t>(2 + i)]; }

  /// Summed span durations by name, over every lane.
  std::map<std::string, double> totals() const;
  /// Number of spans with this name, over every lane.
  std::size_t count(const std::string& name) const;
  /// Summed duration of the main lane's top-level spans.
  double top_level_total() const;

  /// Writes every span as a Chrome trace-event JSON file (microseconds,
  /// one tid per lane). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

/// RAII span; a null lane makes it a no-op (the untraced path).
class Span {
 public:
  Span(Tracer::Lane* lane, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Lane* lane_;
  const char* name_;
  bool top_level_ = false;
  Clock::time_point t0_;
};

}  // namespace iw::perfbench
