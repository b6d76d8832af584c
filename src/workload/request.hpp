// Online embedding requests (paper Table I, "Requests").
#pragma once

#include <cstdint>
#include <vector>

#include "net/substrate.hpp"

namespace olive::workload {

/// Request identifier.  64-bit: streamed traces run to 10^6–10^9 requests,
/// far beyond what a 32-bit id can hold without wrapping.
using RequestId = std::int64_t;

struct Request {
  RequestId id = -1;
  int arrival = 0;        ///< t(r), the arrival time slot
  int duration = 1;       ///< T(r); active for arrival <= t < arrival+duration
  net::NodeId ingress = -1;  ///< v(r), the user's datacenter
  int app = -1;           ///< a(r), index into the run's application set
  double demand = 0;      ///< d(r)

  int departure() const noexcept { return arrival + duration; }
  bool active_at(int t) const noexcept {
    return arrival <= t && t < departure();
  }
};

/// A trace: requests sorted by arrival slot (ties in id order, which is the
/// processing order ON-VNE prescribes for equal arrival times).
using Trace = std::vector<Request>;

/// Requests of `trace` active at slot t (linear scan; used by tests and the
/// per-slot SLOTOFF baseline via incremental bookkeeping instead).
std::vector<const Request*> active_at(const Trace& trace, int t);

/// The first defect of one request's fields — duration >= 1, ingress and
/// app in range, demand positive and finite — or nullptr if it has none.
/// Arrival and id are not checked: their meaning depends on the caller.
const char* request_defect(const Request& r, int num_nodes, int num_apps);

/// Verifies ordering and every request's fields (request_defect); throws
/// InvalidArgument on violation.
void validate_trace(const Trace& trace, int num_nodes, int num_apps);

}  // namespace olive::workload
