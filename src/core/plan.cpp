#include "core/plan.hpp"

#include "util/error.hpp"

namespace olive::core {

PlacementPtr make_placement(const net::SubstrateNetwork& s,
                            const net::VirtualNetwork& vn, net::Embedding e) {
  Usage usage = net::unit_usage(s, vn, e);
  return std::make_shared<const Placement>(
      Placement{std::move(usage), std::move(e)});
}

double PlanClass::accepted_fraction() const {
  double total = 0;
  for (const auto& c : columns) total += c.fraction;
  return total;
}

double PlanClass::rejected_fraction() const {
  double total = 0;
  for (const double y : rejected_per_quantile) total += y;
  return total;
}

double PlanClass::planned_demand() const {
  double total = 0;
  for (const auto& c : columns) total += c.planned_demand;
  return total;
}

Plan::Plan(std::vector<PlanClass> classes, double objective)
    : classes_(std::move(classes)), objective_(objective) {
  for (int i = 0; i < num_classes(); ++i) {
    const auto& agg = classes_[i].aggregate;
    const auto [it, inserted] =
        index_.emplace(class_key(agg.app, agg.ingress), i);
    (void)it;
    OLIVE_REQUIRE(inserted, "duplicate plan class (app, ingress)");
  }
}

int Plan::class_index(int app, net::NodeId ingress) const {
  const auto it = index_.find(class_key(app, ingress));
  return it == index_.end() ? -1 : it->second;
}

}  // namespace olive::core
