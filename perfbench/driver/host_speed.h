// Host-speed normalization of the end-to-end wall times.
//
// On a shared VM the host's speed drifts by up to 1.4x over seconds to
// minutes (turbo and neighbour load), much more than the bounds the
// benchmark fixes. A fixed probe, timed every quarter second between ops,
// moves with that drift: across runs its time rose and fell with the
// workload's op times. Each wall time is scaled by kReferenceProbeMs / the
// median probe time within half a second of it, which divides the drift
// out. The probe is code of this package only, never library code, so a
// change to the library never moves it, and a library change's effect on a
// wall time keeps its size.

#ifndef PERFBENCH_DRIVER_HOST_SPEED_H_
#define PERFBENCH_DRIVER_HOST_SPEED_H_

#include <vector>

namespace perfbench {

/// The probe's time on the reference VM (README), ms: the scale at which
/// normalized times read like raw ones there.
constexpr double kReferenceProbeMs = 1.5;

class HostSpeed {
 public:
  /// Probes when the last probe is older than a quarter second. Call it
  /// between ops, never inside a timed section, and not right after a
  /// deployment is torn down: the probe allocates, and a heap that has just
  /// released a deployment slows it down.
  void Tick();

  /// The factor that turns a wall time that started at \p at (WallNow())
  /// into one at reference speed.
  double ScaleAt(double at) const;

  /// Every probe time of the run, ms.
  const std::vector<double>& probes_ms() const { return ms_; }

 private:
  std::vector<double> at_;  // when each probe ran, ascending
  std::vector<double> ms_;  // its time
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HOST_SPEED_H_
