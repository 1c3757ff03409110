// Line-oriented record text: the one reader behind the fault-plan and
// flash-crowd schedule formats.
//
//   <header line>                      exact match, first line
//   # comment                          skipped, as are blank lines
//   <directive> <name> key=value ...   one record per line
//
// Lines may end in CRLF; tokens are separated by runs of spaces. Every
// value is a strict finite number (parse_number). A format declares its
// header, directive, record names and keys; the reader validates each
// token in line order and reports the first failure as
// `<code>: line N: <what>`.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace psc {

/// Strict number: all of `s` is one finite strtod() value ("", "1x",
/// "nan" and "inf" are rejected). On success writes `*out`.
bool parse_number(std::string_view s, double* out);

/// One `key=value` a record may carry.
struct RecordKey {
  const char* name;
  double min = 0;         // smaller values are rejected
  bool integer = false;   // value must be integral and <= 1e6
  bool required = false;  // every record must set it
};

inline constexpr std::size_t kMaxRecordKeys = 8;

struct RecordFormat {
  const char* code;       // Error::code of every failure
  const char* header;     // exact first line
  const char* directive;  // first token of every record line
  const char* name_what;  // what the second token names ("kind")
  const char* plural;     // records, for the cap message ("episodes")
  /// Second token -> record name index; false if unknown.
  bool (*name_index)(std::string_view name, int* out);
  std::span<const RecordKey> keys;  // at most kMaxRecordKeys
};

struct Record {
  int name = 0;
  /// Indexed like RecordFormat::keys; empty where the line omitted a key.
  std::array<std::optional<double>, kMaxRecordKeys> values{};

  double get(std::size_t key, double fallback) const {
    return values[key].value_or(fallback);
  }
};

/// Hard cap on records per text, so a pathological (fuzzed) input cannot
/// balloon memory.
inline constexpr std::size_t kMaxRecords = 100000;

Result<std::vector<Record>> read_records(std::string_view text,
                                         const RecordFormat& fmt);

}  // namespace psc
