// Admission-latency observability for the serving layer (docs/serving.md).
//
// LatencyHistogram is a fixed log-linear histogram: each power-of-two range
// [2^(b-1), 2^b) ns splits into 16 linear sub-buckets, 64 x 16 = 1024
// counters (8 KiB).  Recording is a bit_width, a shift and one array
// increment: no allocation and no locking on the hot path.  Bucket
// 16*b + s holds [2^(b-1) + s*w, 2^(b-1) + (s+1)*w) ns with
// w = max(1, 2^(b-5)), so every nanosecond below 32 ns has a bucket of its
// own; bucket 0 holds exactly-0 ns samples.  percentile_us() reports the
// bucket's exclusive upper bound (0 for bucket 0): never below the true
// order statistic and at most 6.25% (or 1 ns) above it, the right bias for
// a latency SLO gate.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace olive::serve {

/// Fixed-bucket log-linear histogram of nanosecond latencies.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;  ///< 16 sub-buckets per power of two
  static constexpr int kBuckets = 64 << kSubBits;

  /// Records one latency sample.  O(1), allocation-free.  Samples of 2^63 ns
  /// and above share the last bucket.
  void record(std::uint64_t nanos) {
    ++counts_[static_cast<std::size_t>(bucket_of(nanos))];
    ++total_;
  }

  /// Upper-bound estimate of the p-quantile in microseconds (p in (0, 1]).
  /// Returns 0 when empty.
  double percentile_us(double p) const {
    if (total_ == 0) return 0.0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total_)));
    target = std::clamp<std::uint64_t>(target, 1, total_);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cumulative += counts_[static_cast<std::size_t>(i)];
      if (cumulative >= target) return bucket_upper_us(i);
    }
    return bucket_upper_us(kBuckets - 1);
  }

  std::uint64_t count() const { return total_; }

  std::uint64_t bucket_count(int i) const {
    return counts_[static_cast<std::size_t>(i)];
  }

  /// Exclusive upper bound of bucket i in microseconds (bucket 0 -> 0).
  static double bucket_upper_us(int i) {
    const int b = i >> kSubBits;
    if (b == 0) return 0.0;
    const int shift = sub_shift(b);
    const auto sub = static_cast<std::uint64_t>(i & ((1 << kSubBits) - 1));
    const std::uint64_t upper =
        ((std::uint64_t{1} << (b - 1 - shift)) + sub + 1) << shift;
    return static_cast<double>(upper) / 1000.0;
  }

  void reset() {
    counts_.fill(0);
    total_ = 0;
  }

 private:
  /// Sub-bucket width of power-of-two range b, as a shift (1 ns below 32).
  static int sub_shift(int b) { return std::max(b - 1 - kSubBits, 0); }

  static int bucket_of(std::uint64_t nanos) {
    const int b = std::bit_width(nanos);
    if (b == 0) return 0;
    if (b == 64) return kBuckets - 1;
    const int shift = sub_shift(b);
    const auto sub = (nanos >> shift) - (std::uint64_t{1} << (b - 1 - shift));
    return (b << kSubBits) + static_cast<int>(sub);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Counters and latency digests a Server exposes after (or during) a run.
/// Written only by the serving thread; read after stop() (or from the
/// serving thread itself), so plain fields suffice.
struct ServerStats {
  // Admission outcomes (decided = accepted + rejected; preempted victims
  // were previously accepted and are not re-counted in decided).
  long submitted = 0;      ///< submit() calls that enqueued successfully
  long queue_rejects = 0;  ///< submit() calls bounced by a full queue
  long decided = 0;        ///< requests drained and decided by the embedder
  long accepted = 0;
  long rejected = 0;
  long preempted = 0;
  long departed = 0;       ///< leases expired (wall deadline / slot end)
  long abandoned = 0;      ///< discarded undecided by stop(drain=false);
                           ///< decided + abandoned == submitted after stop

  long plan_swaps = 0;     ///< plans hot-swapped via install_plan
  long slots = 0;          ///< slot boundaries the serving loop crossed
  std::size_t queue_high_water = 0;  ///< max approx queue depth observed

  double swap_stall_seconds = 0;  ///< serving-thread time inside plan swaps
  double serve_seconds = 0;       ///< total serving-loop time (clock units)
  double sustained_rps = 0;       ///< decided / serve_seconds
  /// CPU (user + system) the live serving thread used, read when it exits;
  /// 0 after run_simulated.
  double serving_cpu_seconds = 0;

  LatencyHistogram admission_latency;  ///< submit() -> decision, ns

  double p50_us() const { return admission_latency.percentile_us(0.50); }
  double p90_us() const { return admission_latency.percentile_us(0.90); }
  double p99_us() const { return admission_latency.percentile_us(0.99); }
  double p999_us() const { return admission_latency.percentile_us(0.999); }
};

}  // namespace olive::serve
