#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace iw::perfbench {

Tracer::Tracer(int worker_lanes) : epoch_(Clock::now()) {
  lanes_.reserve(static_cast<std::size_t>(2 + worker_lanes));
  for (int i = 0; i < 2 + worker_lanes; ++i) lanes_.emplace_back(&epoch_, i == kMainLane);
}

std::map<std::string, double> Tracer::totals() const {
  std::map<std::string, double> sums;
  for (const Lane& lane : lanes_) {
    for (const Record& r : lane.records_) sums[r.name] += r.t1_s - r.t0_s;
  }
  return sums;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    for (const Record& r : lane.records_) n += name == r.name ? 1 : 0;
  }
  return n;
}

double Tracer::top_level_total() const {
  double sum = 0.0;
  for (const Record& r : lanes_[kMainLane].records_) {
    if (r.top_level) sum += r.t1_s - r.t0_s;
  }
  return sum;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const auto close = [](std::FILE* f) { return std::fclose(f); };
  std::unique_ptr<std::FILE, decltype(close)> out(std::fopen(path.c_str(), "w"), close);
  if (!out) return false;
  std::fputs("{\"traceEvents\":[", out.get());
  bool first = true;
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    for (const Record& r : lanes_[tid].records_) {
      std::fprintf(out.get(),
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",", r.name, tid, r.t0_s * 1e6,
                   (r.t1_s - r.t0_s) * 1e6);
      first = false;
    }
  }
  std::fputs("\n]}\n", out.get());
  return std::fclose(out.release()) == 0;
}

Span::Span(Tracer::Lane* lane, const char* name) : lane_(lane), name_(name) {
  if (lane_ == nullptr) return;
  top_level_ = lane_->is_main_ && lane_->depth_ == 0;
  ++lane_->depth_;
  t0_ = Clock::now();
}

Span::~Span() {
  if (lane_ == nullptr) return;
  const Clock::time_point t1 = Clock::now();
  --lane_->depth_;
  lane_->records_.push_back(Tracer::Record{
      name_, seconds_between(*lane_->epoch_, t0_),
      seconds_between(*lane_->epoch_, t1), top_level_});
}

}  // namespace iw::perfbench
