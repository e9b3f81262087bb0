// tgnn_ledger: the serving benchmark's command line.
//
//   tgnn_ledger --workload <name|all> --seed <n> [--seconds <s>]
//               [--trace 0|1] [--out <dir>]
//   tgnn_ledger compare <base-dir> <new-dir> [--bench BENCHMARK.json]
//
// `--workload all` re-executes this binary once per workload, so each runs
// in a fresh process with its own peak RSS.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "compare.hpp"
#include "json.hpp"
#include "ledger.hpp"
#include "util/argparse.hpp"
#include "workloads.hpp"

namespace {

/// Run `argv` as a child process and wait for it; its exit code, or -1.
int run_child(std::vector<std::string> argv) {
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    execv("/proc/self/exe", cargv.data());
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Every workload in its own process, then one summary line whose metrics
/// are keyed "<workload>/<metric>".
int run_all(const ledger::RunOptions& opts) {
  bool correct = true;
  double attempted = 0.0, failed = 0.0;
  std::string metrics;
  for (const ledger::Workload& w : ledger::workloads()) {
    const int rc = run_child(
        {"tgnn_ledger", "--workload", w.name, "--seed",
         std::to_string(opts.seed), "--seconds", std::to_string(opts.seconds),
         "--trace", opts.trace ? "1" : "0", "--out", opts.out_dir});
    correct = correct && rc == 0;
    const std::string path =
        (std::filesystem::path(opts.out_dir) / (w.name + ".json")).string();
    try {
      const ledger::json::Value doc = ledger::json::parse_file(path);
      attempted += doc.find("attempted")->number;
      failed += doc.find("failed")->number;
      for (const auto& [name, m] : doc.find("metrics")->object)
        metrics += (metrics.empty() ? "" : ", ") +
                   ledger::json::quote(w.name + "/" + name) + ": {\"value\": " +
                   ledger::json::number(m.find("value")->number) +
                   ", \"unit\": " + ledger::json::quote(m.find("unit")->string) +
                   "}";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", w.name.c_str(), e.what());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare")
    return ledger::compare_main(std::vector<std::string>(argv + 2, argv + argc));

  tgnn::ArgParser args;
  args.add_flag("workload", "", "workload name, or \"all\"");
  args.add_flag("seed", "1", "input seed: the same seed gives the same inputs");
  args.add_flag("seconds", "10", "serving time measured per workload");
  args.add_flag("trace", "0",
                "1 = also run the traced rep and report per-layer metrics");
  args.add_flag("out", "ledger-results", "directory for result and trace files");
  if (!args.parse(argc, argv)) return 2;
  ledger::RunOptions opts;
  opts.workload = args.get("workload");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opts.seconds = args.get_double("seconds");
  opts.trace = args.get_int("trace") != 0;
  opts.out_dir = args.get("out");
  if (opts.workload.empty() || !(opts.seconds > 0.0)) {
    args.print_usage(argv[0]);
    return 2;
  }
  try {
    return opts.workload == "all" ? run_all(opts) : ledger::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgnn_ledger: %s\n", e.what());
    return 1;
  }
}
