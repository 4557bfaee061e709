// perfbench: runs one benchmark workload and prints a provenance line and
// the result line (the last line of stdout).
//
//   perfbench --workload infer_real|train_real
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// Normally started by perfbench/run.py, which builds this binary first.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "exec/tuning/tuning.hpp"
#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"seed", "1"}, {"seconds", "10"}, {"trace", "0"}, {"work-dir", "."},
      {"trace-out", ""}};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got '" + flag + "'");
    }
    const std::string key = flag.substr(2);
    if (key != "workload" && !args.count(key)) {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
    args[key] = argv[i + 1];
  }
  if (!args.count("workload")) throw std::invalid_argument("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const std::map<std::string, std::string> args = parse_args(argc, argv);
    RunConfig config;
    config.workload = args.at("workload");
    config.seed = std::stoull(args.at("seed"));
    config.seconds = std::stod(args.at("seconds"));
    config.trace = args.at("trace") == "1";
    config.work_dir = args.at("work-dir");
    if (args.at("trace") != "0" && args.at("trace") != "1") {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    if (!(config.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    std::filesystem::create_directories(config.work_dir);

    const RunOutcome outcome = run_workload(config);
    const Provenance provenance = {
        {"workload", config.workload},
        {"seed", std::to_string(config.seed)},
        {"trace", config.trace ? "1" : "0"},
        {"device_fingerprint", convmeter::tuning::device_fingerprint()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"pool_threads", std::to_string(kPoolThreads)},
        {"campaign_jobs", std::to_string(kCampaignJobs)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", __VERSION__},
        {"ops", std::to_string(outcome.ops)},
    };
    if (config.trace && !args.at("trace-out").empty()) {
      std::ofstream(args.at("trace-out")) << SpanLog::instance().chrome_trace_json();
    }
    const bool correct = outcome.checks.failed() == 0;
    std::cout << provenance_json(provenance) << "\n"
              << result_json(correct, outcome.checks.attempted(),
                             outcome.checks.failed(), outcome.metrics)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
