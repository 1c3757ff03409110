#include "util/records.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/strings.h"

namespace psc {

bool parse_number(std::string_view s, double* out) {
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) tokens.push_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

int quoted_len(std::string_view s) { return static_cast<int>(s.size()); }

}  // namespace

Result<std::vector<Record>> read_records(std::string_view text,
                                         const RecordFormat& fmt) {
  assert(fmt.keys.size() <= kMaxRecordKeys);
  std::vector<Record> records;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& message) {
    return make_error(fmt.code, strf("line %zu: %s", line_no, message.c_str()));
  };
  std::string required = std::string(fmt.directive) + " needs ";
  bool first_required = true;
  for (const RecordKey& k : fmt.keys) {
    if (!k.required) continue;
    if (!first_required) required += " and ";
    required += std::string(k.name) + "=";
    first_required = false;
  }

  bool saw_header = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!saw_header) {
      if (line != fmt.header) {
        return fail(strf("expected header '%s'", fmt.header));
      }
      saw_header = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;

    const std::vector<std::string_view> tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] != fmt.directive) {
      return fail(strf("unknown directive '%.*s'", quoted_len(tokens[0]),
                       tokens[0].data()));
    }
    if (tokens.size() < 2) {
      return fail(strf("%s needs a %s", fmt.directive, fmt.name_what));
    }
    Record rec;
    if (!fmt.name_index(tokens[1], &rec.name)) {
      return fail(strf("unknown %s %s '%.*s'", fmt.directive, fmt.name_what,
                       quoted_len(tokens[1]), tokens[1].data()));
    }
    for (std::size_t t = 2; t < tokens.size(); ++t) {
      const std::string_view tok = tokens[t];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) return fail("expected key=value");
      const std::string_view key = tok.substr(0, eq);
      double v = 0;
      if (!parse_number(tok.substr(eq + 1), &v)) {
        return fail(strf("bad number for '%.*s'", quoted_len(key),
                         key.data()));
      }
      std::size_t k = 0;
      while (k < fmt.keys.size() && key != fmt.keys[k].name) ++k;
      if (k == fmt.keys.size()) {
        return fail(strf("unknown key '%.*s'", quoted_len(key), key.data()));
      }
      const RecordKey& spec = fmt.keys[k];
      if (spec.integer && (v != std::floor(v) || v < spec.min || v > 1e6)) {
        return fail(strf("%s must be an integer >= %g", spec.name, spec.min));
      }
      if (v < spec.min) {
        return fail(strf("%s must be >= %g", spec.name, spec.min));
      }
      rec.values[k] = v;
    }
    for (std::size_t k = 0; k < fmt.keys.size(); ++k) {
      if (fmt.keys[k].required && !rec.values[k]) return fail(required);
    }
    if (records.size() >= kMaxRecords) {
      return fail(strf("too many %s", fmt.plural));
    }
    records.push_back(rec);
  }
  return records;
}

}  // namespace psc
