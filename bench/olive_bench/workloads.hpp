// The olive_bench workloads: every configuration is written out here, so
// no other bench's edits can move them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "probes.hpp"

namespace olive_bench {

/// One named value with its unit, as printed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one pass (untraced or traced) of a workload produced.
struct PassResult {
  /// End-to-end metrics except setup_s and peak_rss_mb (untraced pass).
  std::vector<Metric> end_to_end;
  /// Process peak RSS at the end of the measured work, MB.
  double peak_rss_mb = 0;
  /// Per-layer metrics by name (traced pass; names from layer_metrics()).
  std::map<std::string, double> layer;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  /// True when the decisions are a pure function of the inputs, so a
  /// traced pass must reproduce rejection_rate and cost_per_req bit for bit.
  bool deterministic = false;
  double rejection_rate = 0;
  double cost_per_req = 0;
  /// Seconds per decided request, from the fastest slot times (engine
  /// runs) or serving-thread busy time (serve runs) — the base of
  /// trace_overhead_pct.
  double seconds_per_request = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the scenario several times (topology, applications, history
  /// and the offline PLAN-VNE solve) and keeps the last; returns the median
  /// build time in seconds.
  double set_up(Tracer* tracer);

  /// One measured pass of about `seconds` wall seconds on inputs drawn
  /// from `seed`; `tracer` null is the untraced pass.
  virtual PassResult run(std::uint64_t seed, double seconds,
                         Tracer* tracer) = 0;

  const olive::core::Scenario& scenario() const { return *scenario_; }

  /// OLIVE_THREADS for the whole process, set before set-up.
  int threads() const { return threads_; }

 protected:
  Workload(olive::core::ScenarioConfig config, int threads)
      : config_(std::move(config)), threads_(threads) {}

  olive::core::ScenarioConfig config_;
  int threads_;
  std::unique_ptr<olive::core::Scenario> scenario_;
};

/// Workload names, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Every per-layer metric (name, unit), in BENCHMARK.json order.  A traced
/// pass reports all of them; layers a workload does not run read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace olive_bench
