// Sample statistics and the driver's output format.

#ifndef PERFBENCH_DRIVER_REPORT_H_
#define PERFBENCH_DRIVER_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (\p p in [0, 100]) of \p samples; 0 for
/// an empty sample.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// Samples strictly above the \p p-th percentile's rank: the benchmark only
/// reports a percentile with at least 10 of them.
uint64_t SamplesBeyond(size_t n, double p);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Collects named metrics and prints them, one `metric <name> <value>
/// <unit>` line each, then the result object as the last line of stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Free-form `key value` line for the sample/mode report.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Machine-readable extras the self-test reads (a JSON object body,
  /// printed as `{"report": {...}}` before the result line).
  void Extra(const std::string& key, const std::string& json_value);

  /// Prints everything; the last line is
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> extras_;
};

/// A JSON number with every digit of \p v.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPORT_H_
