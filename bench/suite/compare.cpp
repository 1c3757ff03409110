#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "analysis/stats.h"
#include "json/json.h"

namespace psc::suite {

namespace {

/// workload -> metric -> samples
using Samples = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool load_runs(const std::string& path, Samples& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find("RESULT {");
    if (at == std::string::npos) continue;
    auto parsed = json::parse(std::string_view(line).substr(at + 7));
    if (!parsed.ok()) continue;
    const json::Value& r = parsed.value();
    if (r["traced"].as_bool() || !r["correct"].as_bool()) continue;
    for (const auto& [name, m] : r["metrics"].as_object()) {
      out[r["workload"].as_string()][name].push_back(m["value"].as_number());
    }
  }
  return true;
}

/// statistics.quantiles(data, n=4) (the "exclusive" method): the same
/// quartiles the acceptance check uses.
std::vector<double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const long ld = static_cast<long>(d.size());
  const long m = ld + 1;
  std::vector<double> q;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((d[static_cast<std::size_t>(j - 1)] * (4 - delta) +
                 d[static_cast<std::size_t>(j)] * delta) /
                4);
  }
  return q;
}

}  // namespace

int compare_runs(const std::string& a_path, const std::string& b_path,
                 const std::string& bench_path) {
  std::ifstream bf(bench_path);
  std::stringstream text;
  text << bf.rdbuf();
  auto bench = json::parse(text.str());
  if (!bf || !bench.ok()) {
    std::fprintf(stderr, "compare: cannot parse %s\n", bench_path.c_str());
    return 2;
  }
  Samples a;
  Samples b;
  if (!load_runs(a_path, a) || !load_runs(b_path, b)) return 2;

  std::printf("%-16s %-18s %3s %12s %3s %12s %8s %8s %8s %7s  %s\n",
              "workload", "metric", "nA", "median_A", "nB", "median_B",
              "delta%", "sprA%", "sprB%", "bound%", "verdict");
  bool any_worse = false;
  for (const auto& [workload, metrics_a] : a) {
    const auto wb = b.find(workload);
    if (wb == b.end()) continue;
    for (const json::Value& def : bench.value()["end_to_end"].as_array()) {
      const std::string name = def["name"].as_string();
      const bool lower = def["better"].as_string() == "lower";
      const double bound = def["bound"].as_number();
      const auto ia = metrics_a.find(name);
      const auto ib = wb->second.find(name);
      if (ia == metrics_a.end() || ib == wb->second.end()) continue;
      const std::vector<double>& va = ia->second;
      const std::vector<double>& vb = ib->second;
      const std::vector<double> qa = va.size() >= 2 ? quartiles(va)
                                                    : std::vector<double>{};
      const std::vector<double> qb = vb.size() >= 2 ? quartiles(vb)
                                                    : std::vector<double>{};
      const double ma = analysis::median(va);
      const double mb = analysis::median(vb);
      const double spread_a =
          qa.empty() ? INFINITY : (qa[2] - qa[0]) / std::fabs(ma);
      const double spread_b =
          qb.empty() ? INFINITY : (qb[2] - qb[0]) / std::fabs(mb);
      // Signed so that positive means B is worse.
      const double worse_by = (lower ? mb - ma : ma - mb) / std::fabs(ma);
      const auto better_than = [&](double x, double y) {
        return lower ? x < y : x > y;
      };
      const double best_a = lower ? *std::min_element(va.begin(), va.end())
                                  : *std::max_element(va.begin(), va.end());
      const double worst_a = lower ? *std::max_element(va.begin(), va.end())
                                   : *std::min_element(va.begin(), va.end());
      const bool all_better = std::all_of(vb.begin(), vb.end(), [&](double x) {
        return better_than(x, best_a);
      });
      const bool all_worse = std::all_of(vb.begin(), vb.end(), [&](double x) {
        return better_than(worst_a, x);
      });
      const char* verdict = "unchanged";
      if (spread_a > bound || spread_b > bound) {
        verdict = all_better ? "better" : all_worse ? "worse" : "unresolved";
      } else if (worse_by > bound) {
        verdict = "worse";
      } else if (worse_by < -bound) {
        verdict = "better";
      }
      any_worse = any_worse || std::string(verdict) == "worse";
      std::printf("%-16s %-18s %3zu %12.6g %3zu %12.6g %8.2f %8.2f %8.2f "
                  "%7.1f  %s\n",
                  workload.c_str(), name.c_str(), va.size(), ma, vb.size(),
                  mb, worse_by * 100, spread_a * 100, spread_b * 100,
                  bound * 100, verdict);
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace psc::suite
