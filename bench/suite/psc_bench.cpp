// psc_bench: the repo benchmark binary.
//
//   psc_bench --workload W --seed S --seconds T [--traced] [--smoke]
//             [--trace-out FILE]
//   psc_bench --compare A B        (bounds from ./BENCHMARK.json)
//
// Workloads: paper_fig3, shared_faulted, flashcrowd_hls, gateway_live
// (bench/suite/README.md says why each exists). A run sets up, measures
// for T seconds, checks the outputs, prints every metric with its unit and
// ends with one `RESULT {...}` line. Untraced runs report the end-to-end
// metrics; --traced runs turn the collectors on and report the per-layer
// ones. The exit status is 1 when an output check failed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "campaigns.h"
#include "compare.h"
#include "gateway_live.h"
#include "suite.h"

using namespace psc::suite;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psc_bench --workload W --seed S --seconds T "
               "[--traced] [--smoke] [--trace-out FILE]\n"
               "       psc_bench --compare A B\n"
               "workloads: paper_fig3 shared_faulted flashcrowd_hls "
               "gateway_live\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_start = now_s();
  Options opts;
  bool setup_only = false;
  std::vector<std::string> compare_files;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string a = args[i];
    std::string v;
    const std::size_t eq = a.find('=');
    if (a.rfind("--", 0) == 0 && eq != std::string::npos) {
      v = a.substr(eq + 1);
      a = a.substr(0, eq);
    }
    const auto value = [&]() -> std::string {
      if (!v.empty()) return v;
      if (i + 1 < args.size()) return args[++i];
      std::fprintf(stderr, "psc_bench: %s needs a value\n", a.c_str());
      std::exit(usage());
    };
    if (a == "--workload") {
      opts.workload = value();
    } else if (a == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (a == "--trace-out") {
      opts.trace_out = value();
    } else if (a == "--t0-ns") {
      opts.t0_ns = std::strtoll(value().c_str(), nullptr, 10);
    } else if (a == "--traced") {
      opts.traced = true;
    } else if (a == "--smoke") {
      opts.smoke = true;
    } else if (a == "--tamper-reference") {
      opts.tamper_reference = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--compare") {
      compare_files.push_back(value());
      if (i + 1 >= args.size()) return usage();
      compare_files.push_back(args[++i]);
    } else {
      std::fprintf(stderr, "psc_bench: unknown argument %s\n", a.c_str());
      return usage();
    }
  }
  if (!compare_files.empty()) {
    return compare_runs(compare_files[0], compare_files[1], "BENCHMARK.json");
  }
  const bool campaign = is_campaign_workload(opts.workload);
  if (!campaign && opts.workload != "gateway_live") return usage();
  if (opts.seconds <= 0) {
    std::fprintf(stderr, "psc_bench: need --seconds > 0\n");
    return 2;
  }

  const double t0 = opts.t0_ns > 0 ? static_cast<double>(opts.t0_ns) * 1e-9
                                   : main_start;
  Spans spans(opts.workload + "-" + std::to_string(opts.seed));
  double ready_s = 0;
  Outcome out = campaign
                    ? run_campaign_workload(opts, spans, setup_only, &ready_s)
                    : run_gateway_workload(opts, spans, setup_only, &ready_s);
  if (setup_only) {
    std::printf("SETUP %.9f\n", ready_s - t0);
    return out.correct ? 0 : 1;
  }

  if (!opts.traced) {
    // setup_s: process start -> first measured call, the median of this
    // process and fresh set-up-only processes: as many as take about
    // kSetupBudget seconds, from 2 (gateway_live, ~1.2 s each) to 10.
    constexpr double kSetupBudget = 2.0;
    const double own = ready_s - t0;
    const int children =
        std::clamp(static_cast<int>(kSetupBudget / own), 2, 10);
    std::vector<std::string> child = {"--workload", opts.workload, "--seed",
                                      std::to_string(opts.seed)};
    if (opts.smoke) child.push_back("--smoke");
    std::vector<double> samples = setup_samples(child, children);
    if (static_cast<int>(samples.size()) != children) {
      out.fail("set-up child processes failed");
    }
    samples.push_back(own);
    for (double s : samples) std::printf("setup sample: %.6f s\n", s);
    out.values.emplace_back("setup_s", psc::analysis::median(samples));
  } else {
    for (const Spans::Total& t : spans.totals()) {
      std::printf("span %-34s total_s %.6f self_s %.6f\n", t.name.c_str(),
                  t.total_s, t.self_s);
    }
  }
  if (opts.traced && !opts.trace_out.empty()) {
    if (std::FILE* f = std::fopen(opts.trace_out.c_str(), "w")) {
      const std::string json = spans.chrome_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "psc_bench: cannot write %s\n",
                   opts.trace_out.c_str());
    }
  }

  const std::vector<Metric> metrics = out.metrics(opts.traced);
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "RESULT {\"workload\":\"" + json_escape(opts.workload) +
                     "\",\"seed\":" + std::to_string(opts.seed) +
                     ",\"traced\":" + (opts.traced ? "true" : "false") +
                     ",\"smoke\":" + (opts.smoke ? "true" : "false") +
                     ",\"digest\":\"" + out.digest + "\"";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                ",\"correct\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"metrics\":{",
                out.correct ? "true" : "false", out.attempted, out.failed);
  line += buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char m[256];
    std::snprintf(m, sizeof(m), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i ? "," : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += m;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return out.correct ? 0 : 1;
}
