// serve_load — Poisson open-loop load generator against the live serving
// layer (src/serve/, docs/serving.md).
//
// Drives serve::Server in wall-clock mode with a pre-drawn Poisson arrival
// schedule: every submission fires at its scheduled instant no matter how
// the server is keeping up, so queueing delay lands in the measured
// admission latency instead of silently stretching the arrival process
// (no coordinated omission).  The producer thread submits; the serving
// thread drains batches, decides each admission via the OLIVE fast path,
// expires leases at slot boundaries, and hot-swaps re-planned allocations
// mid-run.  Emits one `serve_load` case into BENCH_perf.json (schema
// olive-perf-v8): sustained req/s, p50/p99/p999 admission latency, queue
// rejects, and plan swaps.
//
// Knobs: --duration-s (wall seconds, default 2), --target-rps (Poisson
// arrival rate, default 20000), plus the shared bench CLI (--json,
// --threads; bench/common.hpp).  Timing-dependent by construction: the
// case's objective is 0 and CI gates it on throughput/latency cliffs, not
// exact values (the two-mode determinism contract).
#include <sys/resource.h>

#include <chrono>
#include <thread>

#include "bench/common.hpp"
#include "core/olive.hpp"
#include "serve/server.hpp"

namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace olive;
  const auto& cli = bench::parse_cli(argc, argv);
  const double duration_s = cli.duration_s > 0 ? cli.duration_s : 2.0;
  const int target_rps = cli.target_rps > 0 ? cli.target_rps : 20000;
  const std::string out_path =
      !cli.json.empty() ? cli.json : "BENCH_serve.json";

  bench::print_header("serve_load: open-loop wall-clock serving", cli.scale);
  std::cout << "# duration_s=" << duration_s << " target_rps=" << target_rps
            << "\n";

  // Quick-scale Iris scenario: the plan the server starts from is the
  // offline PLAN-VNE solve, exactly what the simulated benches use.
  const auto cfg = bench::base_config(cli.scale, "Iris", 1.0);
  const core::Scenario sc = core::build_scenario(cfg, 0);

  // Request bodies are cycled from the scenario's online trace so the mix
  // of apps / ingresses / demands matches the calibrated workload; ids and
  // arrival slots are assigned by the server at drain time.
  OLIVE_REQUIRE(!sc.online.empty(), "scenario produced an empty trace");

  serve::ServerConfig scfg;
  scfg.sim.measure_from = 0;
  scfg.sim.measure_to = 1 << 30;  // live runs measure everything
  scfg.slot_duration = std::chrono::milliseconds(5);
  scfg.queue_capacity = std::size_t{1} << 14;
  // Re-plan roughly every half second of wall time from the trailing
  // window of drained arrivals; a small round cap keeps each async solve
  // well under the swap period on the reference box.
  scfg.replan.period = 100;
  scfg.replan.install_delay = 20;
  scfg.replan.plan = sc.config.plan;
  scfg.replan.plan.max_rounds = 8;
  scfg.replan.aggregation = sc.config.aggregation;

  core::OliveEmbedder algo(sc.substrate, sc.apps, sc.plan);
  serve::Server server(sc.substrate, sc.apps, scfg);
  serve::SteadyClock clock;

  // Pre-draw the whole arrival schedule (open loop, docs/serving.md).
  Rng rng(20250808);
  const std::vector<double> schedule = workload::draw_open_loop_arrivals(
      static_cast<double>(target_rps), duration_s, rng);
  std::cout << "# pre-drawn arrivals: " << schedule.size() << "\n";

  server.start(algo, clock);
  const auto t0 = serve::SteadyClock::base_clock::now();
  std::size_t fired = 0;
  while (fired < schedule.size()) {
    const auto due =
        t0 + std::chrono::duration_cast<serve::Clock::duration>(
                 std::chrono::duration<double>(schedule[fired]));
    if (serve::SteadyClock::base_clock::now() < due) {
      std::this_thread::sleep_until(due);
    }
    // Fire every arrival that is due by now (the scheduler may overshoot a
    // little; submissions stay at the pre-drawn order and count).
    const auto now = serve::SteadyClock::base_clock::now();
    while (fired < schedule.size() &&
           t0 + std::chrono::duration_cast<serve::Clock::duration>(
                    std::chrono::duration<double>(schedule[fired])) <=
               now) {
      const workload::Request& body =
          sc.online[fired % sc.online.size()];
      server.submit(body);  // QueueFull is counted server-side
      ++fired;
    }
  }
  server.stop(/*drain=*/true);

  const serve::ServerStats& st = server.stats();
  std::cout << "# submitted=" << st.submitted
            << " queue_rejects=" << st.queue_rejects
            << " decided=" << st.decided << " accepted=" << st.accepted
            << " rejected=" << st.rejected << " preempted=" << st.preempted
            << "\n# slots=" << st.slots << " plan_swaps=" << st.plan_swaps
            << " swap_stall_s=" << bench::json_num(st.swap_stall_seconds)
            << " queue_high_water=" << st.queue_high_water
            << " serving_cpu_s=" << bench::json_num(st.serving_cpu_seconds)
            << "\n";
  std::cout << "req_per_sec,p50_us,p90_us,p99_us,p999_us\n"
            << bench::json_num(st.sustained_rps) << ","
            << bench::json_num(st.p50_us()) << ","
            << bench::json_num(st.p90_us()) << ","
            << bench::json_num(st.p99_us()) << ","
            << bench::json_num(st.p999_us()) << std::endl;

  bench::PerfCase c;
  c.name = "serve_load";
  c.topology = "Iris";
  c.reps = 1;
  c.seconds_total = st.serve_seconds;
  c.requests = st.decided;
  c.requests_per_sec = st.sustained_rps;
  c.rss_mb = peak_rss_mb();
  c.p50_us = st.p50_us();
  c.p99_us = st.p99_us();
  c.p999_us = st.p999_us();
  c.queue_rejects = st.queue_rejects;
  c.swap_stall_ms = st.swap_stall_seconds * 1000.0;
  // Wall-clock case: no LP objective to pin (the exact-diff CI step treats
  // 0 == 0; the cliff gate checks req/s and p99 instead).
  c.objective = 0.0;
  c.replans = st.plan_swaps;

  bench::write_perf_json(out_path, cli.scale, olive::default_thread_count(),
                         {c});
  std::cout << "# wrote " << out_path << "\n";
  return 0;
}
