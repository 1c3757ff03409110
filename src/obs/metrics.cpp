#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace psc::obs {

namespace {

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool env_nonempty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0';
}

bool g_metrics = env_truthy("PSC_METRICS");
bool g_trace = env_nonempty("PSC_TRACE_OUT");

}  // namespace

bool metrics_enabled() { return g_metrics; }
void set_metrics_enabled(bool on) { g_metrics = on; }
bool trace_enabled() { return g_trace; }
void set_trace_enabled(bool on) { g_trace = on; }

std::string format_number(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// --- Histogram ---

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0)) return 0;  // zeros, negatives, NaN
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5,1)
  // Normalise to v = m * 2^(exp-1) with m in [1, 2).
  const int e = exp - 1;
  if (e < kMinExp) return 1;                              // underflow
  if (e >= kMaxExp) return kBuckets - 1;                  // overflow
  const double m = frac * 2.0;                            // [1, 2)
  int sub = static_cast<int>((m - 1.0) * kSubBuckets);    // [0, kSubBuckets)
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 2 + static_cast<std::size_t>(e - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i == 1) return std::ldexp(1.0, kMinExp);
  if (i >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t k = i - 2;
  const int e = kMinExp + static_cast<int>(k / kSubBuckets);
  const int sub = static_cast<int>(k % kSubBuckets);
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, e);
}

void Histogram::record(double v) {
  if (std::isnan(v)) v = 0;
  if (v < 0) v = 0;
  ++buckets_[bucket_index(v)];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

void Histogram::record(double v, double t_s, std::uint64_t session) {
  if (std::isnan(v)) v = 0;
  if (v < 0) v = 0;
  record(v);
  offer_exemplar(bucket_index(v), v, t_s, session);
}

void Histogram::offer_exemplar(std::size_t bucket, double v, double t_s,
                               std::uint64_t session) {
  auto it = exemplars_.find(bucket);
  if (it == exemplars_.end()) {
    exemplars_[bucket] = Exemplar{v, t_s, session};
    return;
  }
  Exemplar& ex = it->second;
  // Higher value wins; equal values go to the smaller session id. Both
  // comparisons are total, so the survivor is independent of arrival
  // (and hence shard-merge) order.
  if (v > ex.value || (v == ex.value && session < ex.session)) {
    ex = Exemplar{v, t_s, session};
  }
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min_;
  if (q >= 1) return max_;
  // Rank of the target sample, 1-based ceil: the smallest bucket whose
  // cumulative count reaches it.
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      const double v = bucket_upper(i);
      // The bucket bound can overshoot the true extremes; the exact
      // observed min/max are always tighter.
      if (v < min_) return min_;
      if (v > max_) return max_;
      return v;
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [bucket, ex] : other.exemplars_) {
    offer_exemplar(bucket, ex.value, ex.t_s, ex.session);
  }
}

// --- Registry ---

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string Registry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += format_number(c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += format_number(g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + format_number(static_cast<double>(h.count())) +
           ",\"sum\":" + format_number(h.sum()) +
           ",\"min\":" + format_number(h.min()) +
           ",\"max\":" + format_number(h.max()) +
           ",\"mean\":" + format_number(h.mean()) +
           ",\"p50\":" + format_number(h.quantile(0.5)) +
           ",\"p90\":" + format_number(h.quantile(0.9)) +
           ",\"p99\":" + format_number(h.quantile(0.99));
    // Exemplars are emitted only when present, so series recorded through
    // the contextless record(v) keep their existing snapshot shape.
    if (!h.exemplars().empty()) {
      out += ",\"exemplars\":[";
      bool efirst = true;
      for (const auto& [bucket, ex] : h.exemplars()) {
        if (!efirst) out += ',';
        efirst = false;
        out += "{\"bucket\":" + format_number(static_cast<double>(bucket)) +
               ",\"value\":" + format_number(ex.value) +
               ",\"t_s\":" + format_number(ex.t_s) + ",\"session\":" +
               format_number(static_cast<double>(ex.session)) + "}";
      }
      out += ']';
    }
    out += "}";
  }
  out += "}}";
  return out;
}

namespace {

/// "api_requests_total{api=\"foo\"}" -> base "api_requests_total".
std::string base_name(const std::string& series) {
  const std::size_t brace = series.find('{');
  return brace == std::string::npos ? series : series.substr(0, brace);
}

/// Splice `extra` (e.g. quantile="0.5") into a series name's label set.
std::string with_label(const std::string& series, const std::string& extra) {
  const std::size_t brace = series.find('{');
  if (brace == std::string::npos) return series + "{" + extra + "}";
  std::string out = series;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

}  // namespace

std::string Registry::to_prometheus() const {
  std::string out;
  std::string last_base;
  for (const auto& [name, c] : counters_) {
    const std::string base = base_name(name);
    if (base != last_base) {
      out += "# TYPE " + base + " counter\n";
      last_base = base;
    }
    out += name + " " + format_number(c.value()) + "\n";
  }
  last_base.clear();
  for (const auto& [name, g] : gauges_) {
    const std::string base = base_name(name);
    if (base != last_base) {
      out += "# TYPE " + base + " gauge\n";
      last_base = base;
    }
    out += name + " " + format_number(g.value()) + "\n";
  }
  last_base.clear();
  for (const auto& [name, h] : histograms_) {
    const std::string base = base_name(name);
    if (base != last_base) {
      out += "# TYPE " + base + " summary\n";
      last_base = base;
    }
    static constexpr struct {
      double q;
      const char* label;
    } kQuantiles[] = {{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}};
    for (const auto& e : kQuantiles) {
      out += with_label(name, std::string("quantile=\"") + e.label + "\"") +
             " " + format_number(h.quantile(e.q)) + "\n";
    }
    const std::string labels = name.substr(base.size());
    out += base + "_sum" + labels + " " + format_number(h.sum()) + "\n";
    out += base + "_count" + labels + " " +
           format_number(static_cast<double>(h.count())) + "\n";
  }
  return out;
}

// --- Process-wide wall-clock metrics ---

namespace {

std::mutex& process_mu() {
  static std::mutex mu;
  return mu;
}

Registry& process_reg() {
  static Registry reg;
  return reg;
}

}  // namespace

void process_counter_add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(process_mu());
  process_reg().counter(name).add(v);
}

void process_gauge_max(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(process_mu());
  process_reg().gauge(name).set_max(v);
}

void process_hist_record(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(process_mu());
  process_reg().histogram(name).record(v);
}

std::string process_to_json() {
  std::lock_guard<std::mutex> lock(process_mu());
  return process_reg().to_json();
}

void process_reset() {
  std::lock_guard<std::mutex> lock(process_mu());
  process_reg() = Registry();
}

}  // namespace psc::obs
