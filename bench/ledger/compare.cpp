#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "json.hpp"

namespace ledger {

namespace {

/// workload -> metric -> one value per run.
using ResultSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

/// Every result file under `dir` (recursively): *.json objects with a
/// "workload" and a "metrics" member. Trace files are skipped.
ResultSet load_set(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir))
    throw std::runtime_error("not a directory: " + dir);
  ResultSet set;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const fs::path& p = entry.path();
    if (!entry.is_regular_file() || p.extension() != ".json" ||
        p.filename().string().rfind("trace.", 0) == 0)
      continue;
    const json::Value doc = json::parse_file(p.string());
    const json::Value* workload = doc.find("workload");
    const json::Value* metrics = doc.find("metrics");
    if (workload == nullptr || metrics == nullptr ||
        metrics->kind != json::Value::Kind::kObject)
      continue;
    for (const auto& [name, m] : metrics->object)
      if (const json::Value* v = m.find("value"))
        set[workload->string][name].push_back(v->number);
  }
  if (set.empty()) throw std::runtime_error("no result files under " + dir);
  return set;
}

std::vector<MetricSpec> load_specs(const std::string& bench_path) {
  const json::Value doc = json::parse_file(bench_path);
  const json::Value* e2e = doc.find("end_to_end");
  if (e2e == nullptr || e2e->kind != json::Value::Kind::kArray)
    throw std::runtime_error(bench_path + ": no end_to_end list");
  std::vector<MetricSpec> specs;
  for (const json::Value& m : e2e->array) {
    const json::Value* name = m.find("name");
    const json::Value* better = m.find("better");
    const json::Value* bound = m.find("bound");
    const json::Value* unit = m.find("unit");
    if (name == nullptr || better == nullptr || bound == nullptr ||
        unit == nullptr)
      throw std::runtime_error(bench_path + ": incomplete end_to_end entry");
    specs.push_back({name->string, better->string == "lower", bound->number,
                     unit->string == "share"});
  }
  return specs;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kBetter: return "better";
    case Verdict::kWithinBound: return "within-bound";
    case Verdict::kWorse: return "WORSE";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

}  // namespace

Comparison compare_metric(const MetricSpec& spec,
                          const std::vector<double>& base,
                          const std::vector<double>& next) {
  Comparison c;
  c.base = quartiles(base);
  c.next = quartiles(next);
  c.allowed = spec.absolute ? spec.bound : spec.bound * std::fabs(c.base.median);
  c.gain = spec.lower_is_better ? c.base.median - c.next.median
                                : c.next.median - c.base.median;
  const double spread =
      std::max(c.base.q3 - c.base.q1, c.next.q3 - c.next.q1);
  if (spread > c.allowed) {
    const auto [bmin, bmax] = std::minmax_element(base.begin(), base.end());
    const auto [nmin, nmax] = std::minmax_element(next.begin(), next.end());
    const bool all_better =
        spec.lower_is_better ? *nmax < *bmin : *nmin > *bmax;
    c.verdict = all_better ? Verdict::kBetter : Verdict::kUnresolved;
  } else if (c.gain < -c.allowed) {
    c.verdict = Verdict::kWorse;
  } else if (c.gain > c.allowed) {
    c.verdict = Verdict::kBetter;
  } else {
    c.verdict = Verdict::kWithinBound;
  }
  return c;
}

int compare_main(const std::vector<std::string>& args) {
  std::string bench_path = "BENCHMARK.json";
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--bench" && i + 1 < args.size())
      bench_path = args[++i];
    else
      dirs.push_back(args[i]);
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "usage: tgnn_ledger compare <base-dir> <new-dir> "
                 "[--bench BENCHMARK.json]\n");
    return 2;
  }
  std::vector<MetricSpec> specs;
  ResultSet base, next;
  try {
    specs = load_specs(bench_path);
    base = load_set(dirs[0]);
    next = load_set(dirs[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compare: %s\n", e.what());
    return 2;
  }

  bool worse = false;
  std::printf("%-18s %-14s %4s %4s %28s %28s %9s  %s\n", "workload", "metric",
              "n0", "n1", "base median [q1, q3]", "new median [q1, q3]",
              "gain", "verdict");
  for (const auto& [workload, base_metrics] : base) {
    const auto nit = next.find(workload);
    if (nit == next.end()) {
      std::printf("%-18s only in the base set\n", workload.c_str());
      continue;
    }
    for (const MetricSpec& spec : specs) {
      const auto b = base_metrics.find(spec.name);
      const auto n = nit->second.find(spec.name);
      if (b == base_metrics.end() || n == nit->second.end()) continue;
      const Comparison c = compare_metric(spec, b->second, n->second);
      worse = worse || c.verdict == Verdict::kWorse;
      char base_cell[64], next_cell[64], gain_cell[32];
      std::snprintf(base_cell, sizeof base_cell, "%.4g [%.4g, %.4g]",
                    c.base.median, c.base.q1, c.base.q3);
      std::snprintf(next_cell, sizeof next_cell, "%.4g [%.4g, %.4g]",
                    c.next.median, c.next.q1, c.next.q3);
      std::snprintf(gain_cell, sizeof gain_cell, "%+.2f%%",
                    c.base.median != 0.0
                        ? 100.0 * c.gain / std::fabs(c.base.median)
                        : 0.0);
      std::printf("%-18s %-14s %4zu %4zu %28s %28s %9s  %s\n",
                  workload.c_str(), spec.name.c_str(), b->second.size(),
                  n->second.size(), base_cell, next_cell, gain_cell,
                  verdict_name(c.verdict));
    }
  }
  for (const auto& entry : next)
    if (base.find(entry.first) == base.end())
      std::printf("%-18s only in the new set\n", entry.first.c_str());
  return worse ? 1 : 0;
}

}  // namespace ledger
