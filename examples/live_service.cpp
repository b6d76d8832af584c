// Live service: run OLIVE as a wall-clock admission server (~75 lines).
//
//  1. Build a scenario (substrate, apps, offline PLAN-VNE plan).
//  2. Simulate the online trace with the server's own config: the same
//     slot loop under a simulated clock, deterministic, ending with the
//     trace's last departure.
//  3. Start serve::Server on a SteadyClock: slot boundaries become real
//     deadlines, leases expire by wall time, and submissions flow through
//     the lock-free admission queue.
//  4. Submit a burst of requests from this (producer) thread, then drain
//     and stop gracefully.
//  5. Read ServerStats: sustained req/s, admission-latency percentiles and
//     the serving thread's CPU time.
//
// Build & run:  ./build/example_live_service   (finishes in well under 1 s)
#include <chrono>
#include <iostream>

#include "core/olive.hpp"
#include "core/scenario.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

int main() {
  using namespace olive;

  // 1. A small Iris scenario; the plan is the usual offline PLAN-VNE solve.
  core::ScenarioConfig cfg;
  cfg.topology = "Iris";
  cfg.trace.horizon = 400;
  cfg.trace.plan_slots = 300;
  const core::Scenario sc = core::build_scenario(cfg, 0);
  std::cout << "scenario: " << sc.substrate.num_nodes() << " nodes, plan of "
            << sc.plan.num_classes() << " classes, " << sc.online.size()
            << " online request bodies\n";

  // 2. A server with 2 ms slots: measure everything, no re-planning.  The
  // same config first simulates the online trace.
  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;
  scfg.slot_duration = std::chrono::milliseconds(2);
  serve::Server server(sc.substrate, sc.apps, scfg);
  core::OliveEmbedder olive(sc.substrate, sc.apps, sc.plan);
  workload::VectorTraceStream trace(sc.online);
  const core::SimMetrics simulated = server.run_simulated(olive, trace);
  std::cout << "simulated: decided " << server.stats().decided << " in "
            << server.stats().slots << " slots, rejection rate "
            << simulated.rejection_rate() << "\n";

  // 3. Go live with the same server and embedder (start() resets it).
  serve::SteadyClock clock;
  server.start(olive, clock);

  // 4. Submit a burst (ids/arrival slots are assigned at drain time).  A
  // full queue answers QueueFull instead of blocking — backpressure is the
  // producer's signal to shed or retry.
  long bounced = 0;
  const std::size_t burst = std::min<std::size_t>(sc.online.size(), 5000);
  for (std::size_t i = 0; i < burst; ++i)
    if (server.submit(sc.online[i]) != serve::Server::Submit::Enqueued)
      ++bounced;
  server.stop(/*drain=*/true);  // decide everything enqueued, then join

  // 5. Stats: every submission was decided or explicitly bounced.
  const serve::ServerStats& st = server.stats();
  std::cout << "submitted " << st.submitted << " (+" << bounced
            << " bounced), decided " << st.decided << ": accepted "
            << st.accepted << ", rejected " << st.rejected << ", preempted "
            << st.preempted << "\n"
            << "slots " << st.slots << ", sustained "
            << static_cast<long>(st.sustained_rps) << " req/s, latency p50 "
            << st.p50_us() << " us / p99 " << st.p99_us() << " us\n"
            << "serving thread CPU " << st.serving_cpu_seconds << " s of "
            << st.serve_seconds << " s served\n";
  return st.submitted == st.decided ? 0 : 1;
}
