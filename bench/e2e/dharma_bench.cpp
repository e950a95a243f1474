/// \file dharma_bench.cpp
/// \brief One run of one end-to-end benchmark workload.
///
///   dharma_bench --workload browse_http|tag_http|engine_mix|replay_sim
///                [--seed 42] [--seconds 15] [--trace 0|1]
///                [--daemon path/to/dharma_gateway] [--trace-out FILE]
///                [--smoke]
///
/// Prints one JSON object on its last stdout line: the correctness verdict,
/// attempted/failed op counts, the end-to-end metrics, and (with --trace 1)
/// the per-layer metrics. Failed checks are listed on stderr. run.py is the
/// user-facing command; it builds this binary and maps its output onto
/// BENCHMARK.json.

#include <csignal>
#include <iostream>

#include "util/options.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon socket must not kill the run
  dharma::Options opts(argc, argv);
  BenchConfig cfg;
  cfg.workload = opts.getString("workload", "");
  cfg.seed = static_cast<u64>(opts.getInt("seed", 42));
  cfg.seconds = opts.getDouble("seconds", 15);
  cfg.trace = opts.getBool("trace", false);
  cfg.daemonPath = opts.getString("daemon", "");
  cfg.traceOut = opts.getString("trace-out", "");
  cfg.smoke = opts.getBool("smoke", false);
  if (cfg.seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }

  RunResult r;
  const bool http = cfg.workload == "browse_http" || cfg.workload == "tag_http";
  if (http) {
    if (cfg.daemonPath.empty()) {
      std::cerr << "--daemon is required for " << cfg.workload << "\n";
      return 2;
    }
    r = cfg.workload == "browse_http" ? runBrowseHttp(cfg) : runTagHttp(cfg);
  } else if (cfg.workload == "engine_mix") {
    r = runEngineMix(cfg);
  } else if (cfg.workload == "replay_sim") {
    r = runReplaySim(cfg);
  } else {
    std::cerr << "unknown --workload '" << cfg.workload
              << "' (browse_http | tag_http | engine_mix | replay_sim)\n";
    return 2;
  }

  for (const auto& p : r.problems) std::cerr << "CHECK FAILED: " << p << "\n";
  std::cout << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
            << ", \"daemon_flags\": \"" << (http ? daemonFlags() : "") << "\""
            << ", \"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << r.e2e.json() << ", \"layers\": " << r.layers.json()
            << "}" << std::endl;
  return 0;
}
