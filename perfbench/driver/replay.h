// The traced run: per-layer metrics from a replay of the op stream through
// the component classes the Mediator composes (see replay.cc).

#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <string>

#include "driver/bench.h"

namespace perfbench {

/// Runs the traced invocation and prints every per-layer metric. Returns
/// the process exit code (non-zero when the replay's equality gate fails).
int RunLayers(const WorkloadSpec& spec, const Stream& stream, double seconds,
              uint64_t seed, const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
