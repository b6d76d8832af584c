// The WorldState contract (core/world.hpp, PR 10): restore() rewinds an
// embedder bit for bit — every post-restore decision matches what the
// original world would have decided — and fork() yields an independent
// clone that stays deterministic while the live embedder keeps mutating.
// WorldState captures the *embedder's* state only, so these tests snapshot
// the slot-loop harness (departure calendar + trace cursor) alongside it:
// the harness is a plain copyable value, mirroring how the portfolio
// scorer replays a clipped window against a fork.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "core/world.hpp"
#include "net/embedding.hpp"
#include "workload/request.hpp"

namespace olive::core {
namespace {

ScenarioConfig small_config(const std::string& topology, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.topology = topology;
  cfg.utilization = 1.0;
  cfg.seed = seed;
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  cfg.sim.measure_from = 10;
  cfg.sim.measure_to = 60;
  return cfg;
}

/// One embed decision, flattened for exact comparison.
struct Decision {
  OutcomeKind kind = OutcomeKind::Rejected;
  std::uint64_t fingerprint = 0;
  double unit_cost = 0;
  std::vector<workload::RequestId> preempted;
};

bool operator==(const Decision& a, const Decision& b) {
  return a.kind == b.kind && a.fingerprint == b.fingerprint &&
         a.unit_cost == b.unit_cost && a.preempted == b.preempted;
}

/// Copyable slot-loop harness: departures first (engine order), then the
/// slot's arrivals in trace order.  Copying it freezes the calendar at the
/// same instant a WorldState freezes the embedder.
struct SlotLoop {
  const workload::Trace* trace = nullptr;
  int base = 0;
  std::size_t next = 0;  ///< first not-yet-arrived trace index
  int slot = 0;
  std::vector<workload::Request> active;

  explicit SlotLoop(const workload::Trace& t) : trace(&t) {
    base = t.empty() ? 0 : t.front().arrival;
  }

  std::vector<Decision> drive(OnlineEmbedder& algo, int until) {
    std::vector<Decision> log;
    for (; slot < until; ++slot) {
      std::vector<workload::Request> still;
      for (const auto& r : active) {
        if (r.arrival - base + r.duration == slot)
          algo.depart(r);
        else
          still.push_back(r);
      }
      active = std::move(still);
      for (; next < trace->size() && (*trace)[next].arrival - base == slot;
           ++next) {
        const workload::Request& r = (*trace)[next];
        const EmbedOutcome out = algo.embed(r);
        Decision d;
        d.kind = out.kind;
        d.fingerprint =
            out.placement ? net::fingerprint64(out.placement->embedding) : 0;
        d.unit_cost = out.unit_cost;
        d.preempted = out.preempted_ids;
        log.push_back(d);
        if (out.accepted()) active.push_back(r);
        if (!out.preempted_ids.empty()) {
          // Victims already left the substrate; cancel their departures.
          std::vector<workload::Request> keep;
          for (const auto& a : active)
            if (std::find(out.preempted_ids.begin(), out.preempted_ids.end(),
                          a.id) == out.preempted_ids.end())
              keep.push_back(a);
          active = std::move(keep);
        }
      }
    }
    return log;
  }
};

class WorldStateTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
 protected:
  void SetUp() override {
    const auto& [topology, seed] = GetParam();
    sc_ = std::make_unique<Scenario>(
        build_scenario(small_config(topology, seed)));
  }
  std::unique_ptr<Scenario> sc_;
};

TEST_P(WorldStateTest, RestoreRewindsEveryFutureDecisionBitForBit) {
  const Scenario& sc = *sc_;
  OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  algo.reset();
  SlotLoop loop(sc.online);
  loop.drive(algo, 30);  // non-trivial prefix: live allocations + departures

  const WorldState snap = algo.snapshot();
  ASSERT_FALSE(snap.empty());
  const SlotLoop frozen = loop;  // calendar at the snapshot instant

  const std::vector<Decision> tail = loop.drive(algo, 80);
  ASSERT_FALSE(tail.empty());

  // Restore in place: the mutated embedder rewinds to slot 30.
  ASSERT_TRUE(algo.restore(snap));
  SlotLoop replay = frozen;
  EXPECT_EQ(replay.drive(algo, 80), tail);

  // Restore into a *fresh* embedder: state transfers wholesale.
  OliveEmbedder fresh(sc.substrate, sc.apps, sc.plan, "OLIVE");
  ASSERT_TRUE(fresh.restore(snap));
  SlotLoop replay2 = frozen;
  EXPECT_EQ(replay2.drive(fresh, 80), tail);
}

TEST_P(WorldStateTest, ForkIsIndependentOfTheLiveEmbedder) {
  const Scenario& sc = *sc_;
  OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  algo.reset();
  SlotLoop loop(sc.online);
  loop.drive(algo, 30);

  const WorldState snap = algo.snapshot();
  const SlotLoop frozen = loop;
  const std::unique_ptr<OnlineEmbedder> clone = algo.fork(snap);
  ASSERT_NE(clone, nullptr);

  // Mutate the live embedder *first*; the fork must not notice.
  const std::vector<Decision> live_tail = loop.drive(algo, 80);
  SlotLoop fork_loop = frozen;
  const std::vector<Decision> fork_tail = fork_loop.drive(*clone, 80);
  EXPECT_EQ(fork_tail, live_tail);

  // And the snapshot itself is immutable: both replays above consumed it,
  // yet a third restore still rewinds to the same world.
  OliveEmbedder again(sc.substrate, sc.apps, sc.plan, "OLIVE");
  ASSERT_TRUE(again.restore(snap));
  SlotLoop replay = frozen;
  EXPECT_EQ(replay.drive(again, 80), live_tail);
}

TEST_P(WorldStateTest, RestoreRefusesEmptyAndForeignStates) {
  const Scenario& sc = *sc_;
  OliveEmbedder algo(sc.substrate, sc.apps, sc.plan, "OLIVE");
  algo.reset();
  EXPECT_FALSE(algo.restore(WorldState{}));
  EXPECT_EQ(algo.fork(WorldState{}), nullptr);
}

/// An embedder without WorldState support: the default OnlineEmbedder
/// virtuals must report so honestly instead of handing back garbage.
struct AmnesiacEmbedder final : OnlineEmbedder {
  LoadTracker load_;
  explicit AmnesiacEmbedder(const net::SubstrateNetwork& s) : load_(s) {}
  std::string name() const override { return "amnesiac"; }
  void reset() override {}
  EmbedOutcome embed(const workload::Request&) override { return {}; }
  void depart(const workload::Request&) override {}
  const LoadTracker& load() const override { return load_; }
};

TEST_P(WorldStateTest, UnsupportedEmbeddersReportSo) {
  const Scenario& sc = *sc_;
  AmnesiacEmbedder algo(sc.substrate);
  EXPECT_TRUE(algo.snapshot().empty());
  EXPECT_FALSE(algo.restore(WorldState{}));
  EXPECT_EQ(algo.fork(WorldState{}), nullptr);
  // And an OLIVE snapshot is foreign to it — refused, not misapplied.
  OliveEmbedder olive(sc.substrate, sc.apps, sc.plan, "OLIVE");
  olive.reset();
  EXPECT_FALSE(algo.restore(olive.snapshot()));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, WorldStateTest,
    ::testing::Values(std::make_tuple(std::string("Iris"), 7ULL),
                      std::make_tuple(std::string("CittaStudi"), 42ULL)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace olive::core
