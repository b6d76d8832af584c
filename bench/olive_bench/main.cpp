// olive_bench — end-to-end and per-layer benchmark of the OLIVE reproduction
// (bench/olive_bench/README.md).
//
//   olive_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--trace-out PATH]
//   olive_bench --list          (workload names, one per line)
//
// Runs one workload in this process: set-up (repeated scenario builds,
// median time), then an untraced pass of about S seconds on inputs drawn
// from --seed.  --trace 1 splits S between the untraced pass and a traced
// pass over the same inputs, which reports the per-layer metrics, writes
// the Chrome trace to --trace-out, and checks that it reproduced the
// untraced decisions where they are deterministic.
// Prints every metric as "name value unit", then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
// an output check failed, 2 on a usage or run error (without the JSON).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/plan_solver.hpp"
#include "workloads.hpp"

namespace {

using namespace olive_bench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
  bool list = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: olive_bench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--trace-out PATH]\n       olive_bench --list\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag " + arg + " expects a value");
    const std::string v = argv[++i];
    std::size_t used = 0;
    try {
      if (arg == "--workload") {
        o.workload = v;
        used = v.size();
      } else if (arg == "--seed") {
        o.seed = std::stoull(v, &used);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v, &used);
        if (!(o.seconds > 0)) used = 0;
      } else if (arg == "--trace") {
        if (v == "0" || v == "1") o.trace = v == "1";
        used = v == "0" || v == "1" ? v.size() : 0;
      } else if (arg == "--trace-out") {
        o.trace_out = v;
        used = v.size();
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != v.size() || v.empty()) usage("bad value for " + arg + ": " + v);
  }
  if (!o.list && o.workload.empty()) usage("--workload is required");
  return o;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The traced pass's view of the offline plan: one more cold PLAN-VNE solve
/// on the set-up's aggregates, timed alone, which must reproduce the set-up
/// objective exactly.
void plan_layer(const olive::core::Scenario& sc, Tracer& tracer,
                PassResult& traced) {
  olive::core::PlanSolveInfo info;
  const auto t0 = Clock::now();
  olive::core::solve_plan_vne(sc.substrate, sc.apps, sc.aggregates,
                              sc.config.plan, &info);
  const auto t1 = Clock::now();
  tracer.span("plan_solve", "plan", t0, t1);
  const double s = s_between(t0, t1);
  if (info.objective != sc.plan_info.objective)
    traced.errors.push_back("plan: a repeated solve changed the objective");
  traced.layer["plan.solve_s"] = s;
  traced.layer["plan.rounds"] = info.rounds;
  traced.layer["plan.columns"] = info.columns_generated;
  traced.layer["lp.iterations"] = static_cast<double>(info.simplex_iterations);
  traced.layer["lp.us_per_iteration"] =
      info.simplex_iterations > 0
          ? 1e6 * s / static_cast<double>(info.simplex_iterations)
          : 0.0;
  traced.layer["lp.refactorizations"] =
      static_cast<double>(info.refactorizations);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.list) {
    for (const std::string& name : workload_names()) std::cout << name << "\n";
    return 0;
  }
  // Freed memory stays in the process, as in a long-lived service that
  // reuses its heap.  Every engine repetition builds a fresh embedder; with
  // glibc's defaults each one faulted its memory in again (138k page faults
  // against 22k in 6 s of an Iris stream), and the kernel zeroing those
  // pages took about a quarter of the run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  try {
    std::unique_ptr<Workload> w = make_workload(opt.workload);
    if (!w) usage("unknown workload " + opt.workload);
    setenv("OLIVE_THREADS", std::to_string(w->threads()).c_str(), 1);

    // Set-up spans land in the traced run's trace; the untraced pass that
    // follows records none.
    std::unique_ptr<Tracer> tracer;
    if (opt.trace) tracer = std::make_unique<Tracer>();
    const double setup_s = w->set_up(tracer.get());
    // A traced run takes no longer than an untraced one: each pass gets
    // half the time.
    const double pass_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    PassResult base = w->run(opt.seed, pass_s, nullptr);
    std::vector<Metric> metrics = base.end_to_end;
    metrics.insert(metrics.begin(), {"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", base.peak_rss_mb, "MB"});
    std::vector<std::string> errors = base.errors;
    for (const Metric& m : metrics)
      if (!std::isfinite(m.value) || m.value <= 0)
        errors.push_back(m.name + " is not a positive number");

    long attempted = base.attempted, failed = base.failed;
    if (opt.trace) {
      for (const Metric& m : metrics)
        std::cout << "# untraced " << m.name << " " << number(m.value) << " "
                  << m.unit << "\n";
      PassResult traced = w->run(opt.seed, pass_s, tracer.get());
      plan_layer(w->scenario(), *tracer, traced);
      traced.layer["trace_overhead_pct"] =
          base.seconds_per_request > 0
              ? 100.0 * (traced.seconds_per_request /
                             base.seconds_per_request -
                         1.0)
              : 0.0;
      errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
      if (base.deterministic &&
          (traced.rejection_rate != base.rejection_rate ||
           traced.cost_per_req != base.cost_per_req))
        errors.push_back("the traced pass changed the decisions");
      if (!opt.trace_out.empty() && !tracer->write(opt.trace_out))
        errors.push_back("cannot write the trace to " + opt.trace_out);
      else if (!opt.trace_out.empty())
        std::cout << "# wrote " << tracer->size() << " spans to "
                  << opt.trace_out << "\n";
      metrics.clear();
      for (const auto& [name, unit] : layer_metrics()) {
        const auto it = traced.layer.find(name);
        metrics.push_back({name, it == traced.layer.end() ? 0.0 : it->second,
                           unit});
      }
      for (const auto& [name, value] : traced.layer) {
        bool known = false;
        for (const auto& l : layer_metrics()) known = known || l.first == name;
        if (!known) errors.push_back("unlisted per-layer metric " + name);
      }
      for (const Metric& m : metrics)
        if (!std::isfinite(m.value))
          errors.push_back(m.name + " is not finite");
      attempted += traced.attempted;
      failed += traced.failed;
    }

    for (const std::string& e : errors) std::cerr << "check failed: " << e << "\n";
    std::string json = "{\"correct\": ";
    json += errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
      // Names and units are identifiers: nothing in them needs escaping.
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
              number(std::isfinite(m.value) ? m.value : 0.0) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    std::cout << json << "}}" << std::endl;
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
