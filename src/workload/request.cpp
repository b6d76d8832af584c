#include "workload/request.hpp"

#include <cmath>

#include "util/error.hpp"

namespace olive::workload {

std::vector<const Request*> active_at(const Trace& trace, int t) {
  std::vector<const Request*> out;
  for (const Request& r : trace)
    if (r.active_at(t)) out.push_back(&r);
  return out;
}

const char* request_defect(const Request& r, int num_nodes, int num_apps) {
  if (r.duration < 1) return "request duration must be >= 1 slot";
  if (r.ingress < 0 || r.ingress >= num_nodes)
    return "request ingress out of range";
  if (r.app < 0 || r.app >= num_apps) return "request app out of range";
  if (!std::isfinite(r.demand) || r.demand <= 0)
    return "request demand must be positive and finite";
  return nullptr;
}

void validate_trace(const Trace& trace, int num_nodes, int num_apps) {
  int prev_arrival = 0;
  for (const Request& r : trace) {
    OLIVE_REQUIRE(r.arrival >= prev_arrival, "trace must be arrival-sorted");
    if (const char* defect = request_defect(r, num_nodes, num_apps))
      throw InvalidArgument(defect);
    prev_arrival = r.arrival;
  }
}

}  // namespace olive::workload
