#include "driver/host_speed.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "driver/bench.h"
#include "driver/report.h"

namespace perfbench {
namespace {

volatile uint64_t probe_sink = 0;

// The probe, on fixed data: what the mediator's hot paths do most — fill a
// hash map with short strings, copy it, look every key up, build an ordered
// map from it. About 1 MB of allocations, 1.5 ms on the reference VM.
double ProbeOnceMs() {
  constexpr int64_t kKeys = 6000;
  const double start = WallNow();
  std::unordered_map<int64_t, std::string> filled;
  for (int64_t i = 0; i < kKeys; ++i) {
    filled.emplace(i * 2654435761LL % 1000003, std::to_string(i));
  }
  const std::unordered_map<int64_t, std::string> copy = filled;
  uint64_t sum = 0;
  for (int64_t i = 0; i < kKeys; ++i) {
    auto it = copy.find(i * 2654435761LL % 1000003);
    if (it != copy.end()) sum += it->second.size();
  }
  std::map<int64_t, uint64_t> ordered;
  for (const auto& [k, v] : copy) ordered.emplace(k, v.size());
  probe_sink = sum + ordered.size();
  return (WallNow() - start) * 1e3;
}

}  // namespace

void HostSpeed::Tick() {
  const double now = WallNow();
  if (!at_.empty() && now - at_.back() < 0.25) return;
  // Fastest of three: one probe can be hit by a timer interrupt.
  double ms = ProbeOnceMs();
  for (int k = 0; k < 2; ++k) ms = std::min(ms, ProbeOnceMs());
  at_.push_back(now);
  ms_.push_back(ms);
}

double HostSpeed::ScaleAt(double at) const {
  if (at_.empty()) return 1.0;
  // The median of the probes within half a second, so one odd probe does
  // not move a sample; the nearest probe when none is that close.
  auto lo = std::lower_bound(at_.begin(), at_.end(), at - 0.5);
  auto hi = std::upper_bound(at_.begin(), at_.end(), at + 0.5);
  std::vector<double> near(ms_.begin() + (lo - at_.begin()),
                           ms_.begin() + (hi - at_.begin()));
  if (near.empty()) {
    const size_t i = std::min<size_t>(lo - at_.begin(), at_.size() - 1);
    const bool prev_closer = i > 0 && at - at_[i - 1] < at_[i] - at;
    near.push_back(ms_[prev_closer ? i - 1 : i]);
  }
  return kReferenceProbeMs / Median(std::move(near));
}

}  // namespace perfbench
