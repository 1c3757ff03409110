#include "obs/slo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/records.h"
#include "util/units.h"

namespace psc::obs {

SloConfig default_slo_config() {
  SloConfig cfg;
  // Paper framing: RTMP joins split at ~5 s from HLS joins (playlist +
  // first segments push HLS past it), and a stall ratio above 2% is the
  // threshold the paper calls out as clearly degraded.
  cfg.objectives.push_back({"join_p99_rtmp", "join_s", "rtmp", 0.99, 5, 3});
  cfg.objectives.push_back({"join_p99_hls", "join_s", "hls", 0.99, 10, 3});
  cfg.objectives.push_back(
      {"stall_ratio_p90_rtmp", "stall_ratio", "rtmp", 0.9, 0.02, 3});
  cfg.objectives.push_back(
      {"stall_ratio_p90_hls", "stall_ratio", "hls", 0.9, 0.02, 3});
  return cfg;
}

bool parse_slo_config(const std::string& text, SloConfig* out,
                      std::string* err) {
  SloConfig cfg;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    if (err != nullptr) {
      *err = "slo line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(lines, line)) {
    ++lineno;
    std::istringstream toks(line);
    std::string tok;
    if (!(toks >> tok) || tok[0] == '#') continue;
    if (tok != "slo") return fail("expected 'slo', got '" + tok + "'");
    SloObjective obj;
    std::string quant, lt, thresh;
    if (!(toks >> obj.name >> quant >> obj.metric)) {
      return fail("expected: slo <name> p<Q> <metric> ...");
    }
    double percent = 0;
    if (quant[0] != 'p' ||
        !parse_number(std::string_view(quant).substr(1), &percent)) {
      return fail("bad quantile '" + quant + "' (want e.g. p99)");
    }
    obj.quantile = percent / 100.0;
    if (!(obj.quantile > 0) || obj.quantile > 1) {
      return fail("quantile out of range in '" + quant + "'");
    }
    // Remaining tokens: optional proto=..., then "< <threshold>", then
    // optional burn_window=N.
    bool have_threshold = false;
    while (toks >> tok) {
      if (tok.rfind("proto=", 0) == 0) {
        obj.proto = tok.substr(6);
      } else if (tok.rfind("burn_window=", 0) == 0) {
        double window = 0;
        if (!parse_number(std::string_view(tok).substr(12), &window) ||
            window != std::floor(window) || window > 1e6) {
          return fail("bad burn_window '" + tok.substr(12) + "'");
        }
        if (window < 1) return fail("burn_window must be >= 1");
        obj.burn_window = static_cast<int>(window);
      } else if (tok == "<") {
        if (!(toks >> thresh)) return fail("missing threshold after '<'");
        if (!parse_number(thresh, &obj.threshold)) {
          return fail("bad threshold '" + thresh + "'");
        }
        have_threshold = true;
      } else {
        return fail("unexpected token '" + tok + "'");
      }
    }
    if (!have_threshold) return fail("missing '< <threshold>'");
    cfg.objectives.push_back(std::move(obj));
  }
  *out = std::move(cfg);
  return true;
}

std::string slo_config_to_text(const SloConfig& cfg) {
  std::string out = "# psc-slo v1\n";
  for (const SloObjective& o : cfg.objectives) {
    out += "slo " + o.name + " p" + format_number(o.quantile * 100) + " " +
           o.metric;
    if (!o.proto.empty()) out += " proto=" + o.proto;
    out += " < " + format_number(o.threshold) +
           " burn_window=" + std::to_string(o.burn_window) + "\n";
  }
  return out;
}

const SloConfig& active_slo_config() {
  static const SloConfig cfg = [] {
    const char* path = std::getenv("PSC_SLO");
    if (path == nullptr || path[0] == '\0') return default_slo_config();
    std::FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "psc: PSC_SLO=%s: cannot open, using defaults\n",
                   path);
      return default_slo_config();
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    SloConfig parsed;
    std::string err;
    if (!parse_slo_config(text, &parsed, &err)) {
      std::fprintf(stderr, "psc: PSC_SLO=%s: %s, using defaults\n", path,
                   err.c_str());
      return default_slo_config();
    }
    return parsed;
  }();
  return cfg;
}

void SloTrack::observe(const char* metric, const char* proto,
                       std::uint64_t epoch, double value) {
  series_[std::string(metric) + "|" + proto][epoch].record(value);
}

void SloTrack::merge(const SloTrack& other) {
  for (const auto& [key, epochs] : other.series_) {
    auto& mine = series_[key];
    for (const auto& [epoch, hist] : epochs) mine[epoch].merge(hist);
  }
}

namespace {

/// Collect the objective's per-epoch histograms: the exact metric|proto
/// series, or — when the objective has no proto — the merge of every
/// proto series of that metric.
std::map<std::uint64_t, Histogram> epochs_for(const SloTrack& track,
                                              const SloObjective& obj) {
  std::map<std::uint64_t, Histogram> out;
  const std::string prefix = obj.metric + "|";
  for (const auto& [key, epochs] : track.series()) {
    if (obj.proto.empty()) {
      if (key.rfind(prefix, 0) != 0) continue;
    } else if (key != prefix + obj.proto) {
      continue;
    }
    for (const auto& [epoch, hist] : epochs) out[epoch].merge(hist);
  }
  return out;
}

}  // namespace

std::vector<SloResult> evaluate_slo(const SloTrack& track,
                                    const SloConfig& cfg) {
  std::vector<SloResult> out;
  out.reserve(cfg.objectives.size());
  for (const SloObjective& obj : cfg.objectives) {
    SloResult res;
    res.objective = obj;
    const auto epochs = epochs_for(track, obj);
    for (const auto& [epoch, hist] : epochs) {
      SloEpochResult er;
      er.epoch = epoch;
      er.count = hist.count();
      er.value = hist.quantile(obj.quantile);
      er.pass = er.value < obj.threshold;
      if (!er.pass) ++res.violations;
      res.epochs.push_back(er);
    }
    // Burn rate: worst failing fraction over any trailing window of
    // burn_window *observed* epochs (shorter prefixes use what exists).
    const int w = obj.burn_window;
    for (std::size_t i = 0; i < res.epochs.size(); ++i) {
      const std::size_t lo = i + 1 >= static_cast<std::size_t>(w)
                                 ? i + 1 - static_cast<std::size_t>(w)
                                 : 0;
      int fails = 0;
      for (std::size_t j = lo; j <= i; ++j) {
        if (!res.epochs[j].pass) ++fails;
      }
      const double burn =
          static_cast<double>(fails) / static_cast<double>(i - lo + 1);
      if (burn > res.worst_burn) res.worst_burn = burn;
    }
    res.pass = res.violations == 0;
    out.push_back(std::move(res));
  }
  return out;
}

namespace {

void append_objective_json(std::string& out, const SloObjective& o) {
  out += "{\"name\":\"" + o.name + "\",\"metric\":\"" + o.metric +
         "\",\"proto\":\"" + o.proto +
         "\",\"quantile\":" + format_number(o.quantile) +
         ",\"threshold\":" + format_number(o.threshold) +
         ",\"burn_window\":" + std::to_string(o.burn_window) + "}";
}

}  // namespace

std::string slo_json(const SloTrack& track, const SloConfig& cfg) {
  std::string out = "{\"config\":[";
  bool first = true;
  for (const SloObjective& o : cfg.objectives) {
    if (!first) out += ',';
    first = false;
    append_objective_json(out, o);
  }
  out += "],\"results\":[";
  first = true;
  for (const SloResult& res : evaluate_slo(track, cfg)) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + res.objective.name + "\",\"pass\":";
    out += res.pass ? "true" : "false";
    out += ",\"violations\":" +
           format_number(static_cast<double>(res.violations)) +
           ",\"worst_burn\":" + format_number(res.worst_burn) +
           ",\"epochs\":[";
    bool efirst = true;
    for (const SloEpochResult& er : res.epochs) {
      if (!efirst) out += ',';
      efirst = false;
      out += "{\"epoch\":" + format_number(static_cast<double>(er.epoch)) +
             ",\"count\":" + format_number(static_cast<double>(er.count)) +
             ",\"value\":" + format_number(er.value) + ",\"pass\":";
      out += er.pass ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void emit_violation_instants(Tracer& trace, const SloTrack& track,
                             const SloConfig& cfg, double epoch_len_s) {
  if (!trace.enabled()) return;
  for (const SloResult& res : evaluate_slo(track, cfg)) {
    for (const SloEpochResult& er : res.epochs) {
      if (er.pass) continue;
      trace.instant(
          "slo", "violation:" + res.objective.name,
          time_at(static_cast<double>(er.epoch + 1) * epoch_len_s));
    }
  }
}

}  // namespace psc::obs
