// The shared record reader behind the fault-plan and flash-crowd formats:
// declared keys, token-order error precedence, line-numbered messages and
// the record cap.
#include <gtest/gtest.h>

#include <string>

#include "util/records.h"
#include "util/strings.h"

namespace psc {
namespace {

bool color_index(std::string_view name, int* out) {
  if (name == "red") *out = 0;
  else if (name == "blue") *out = 1;
  else return false;
  return true;
}

constexpr RecordKey kKeys[] = {
    {"at", 0, false, true}, {"size", 0, false, true}, {"slot", -1, true}};
constexpr RecordFormat kFormat{"demo", "# demo v1", "dot", "color", "dots",
                               color_index, kKeys};

std::string error_of(std::string_view text) {
  auto r = read_records(text, kFormat);
  return r.ok() ? std::string() : r.error().to_string();
}

TEST(RecordReader, ReadsRecordsInOrderWithOptionalKeys) {
  auto r = read_records(
      "# demo v1\r\n# note\n\ndot blue  at=1 size=2\r\ndot red at=3 size=4 "
      "slot=2 at=5\n",
      kFormat);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].name, 1);
  EXPECT_EQ(r.value()[0].get(2, -1), -1);  // omitted: fallback
  EXPECT_EQ(r.value()[1].name, 0);
  EXPECT_EQ(r.value()[1].get(0, 0), 5);  // a repeated key: last one wins
  EXPECT_EQ(r.value()[1].get(2, -1), 2);
}

TEST(RecordReader, ErrorsNameTheLineAndTheFirstFault) {
  EXPECT_EQ(error_of(""), "demo: line 1: expected header '# demo v1'");
  EXPECT_EQ(error_of("# demo v1\nline\n"),
            "demo: line 2: unknown directive 'line'");
  EXPECT_EQ(error_of("# demo v1\ndot\n"), "demo: line 2: dot needs a color");
  EXPECT_EQ(error_of("# demo v1\ndot green\n"),
            "demo: line 2: unknown dot color 'green'");
  EXPECT_EQ(error_of("# demo v1\ndot red at\n"),
            "demo: line 2: expected key=value");
  EXPECT_EQ(error_of("# demo v1\ndot red at=1x size=oops\n"),
            "demo: line 2: bad number for 'at'");
  EXPECT_EQ(error_of("# demo v1\ndot red hue=1 at=x\n"),
            "demo: line 2: unknown key 'hue'");
  EXPECT_EQ(error_of("# demo v1\ndot red at=-1\n"),
            "demo: line 2: at must be >= 0");
  EXPECT_EQ(error_of("# demo v1\ndot red slot=0.5\n"),
            "demo: line 2: slot must be an integer >= -1");
  EXPECT_EQ(error_of("# demo v1\ndot red slot=2e6\n"),
            "demo: line 2: slot must be an integer >= -1");
  EXPECT_EQ(error_of("# demo v1\n\ndot red at=1\n"),
            "demo: line 3: dot needs at= and size=");
}

TEST(RecordReader, CapsTheRecordCount) {
  std::string text = "# demo v1\n";
  for (std::size_t i = 0; i <= kMaxRecords; ++i) {
    text += "dot red at=0 size=0\n";
  }
  EXPECT_EQ(error_of(text), strf("demo: line %zu: too many dots",
                                 kMaxRecords + 2));
}

}  // namespace
}  // namespace psc
