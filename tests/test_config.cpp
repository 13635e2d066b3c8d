// Tests for the key = value experiment config-file parser.
#include <gtest/gtest.h>

#include <sstream>

#include "src/common/error.hpp"
#include "src/sim/config_file.hpp"

namespace dozz {
namespace {

TEST(ConfigFile, ParsesKeysValuesCommentsAndBlanks) {
  std::stringstream in(
      "# experiment\n"
      "topology = mesh\n"
      "\n"
      "compress=0.25   # the paper's compressed runs\n"
      "  cycles =  16000 \n");
  const ConfigMap c = parse_config(in);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(config_get(c, "topology", ""), "mesh");
  EXPECT_DOUBLE_EQ(config_get_double(c, "compress", 1.0), 0.25);
  EXPECT_EQ(config_get_u64(c, "cycles", 0), 16000u);
}

TEST(ConfigFile, LaterAssignmentsOverride) {
  std::stringstream in("policy = pg\npolicy = dozznoc\n");
  const ConfigMap c = parse_config(in);
  EXPECT_EQ(config_get(c, "policy", ""), "dozznoc");
}

TEST(ConfigFile, DefaultsWhenAbsent) {
  const ConfigMap c;
  EXPECT_EQ(config_get(c, "missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(config_get_double(c, "missing", 2.5), 2.5);
  EXPECT_EQ(config_get_u64(c, "missing", 7), 7u);
  EXPECT_TRUE(config_get_bool(c, "missing", true));
}

TEST(ConfigFile, BooleanSpellings) {
  std::stringstream in("a = true\nb = 0\nc = yes\nd = false\n");
  const ConfigMap c = parse_config(in);
  EXPECT_TRUE(config_get_bool(c, "a", false));
  EXPECT_FALSE(config_get_bool(c, "b", true));
  EXPECT_TRUE(config_get_bool(c, "c", false));
  EXPECT_FALSE(config_get_bool(c, "d", true));
}

TEST(ConfigFile, RejectsMalformedInput) {
  std::stringstream no_eq("just words\n");
  EXPECT_THROW(parse_config(no_eq), InputError);
  std::stringstream empty_key(" = value\n");
  EXPECT_THROW(parse_config(empty_key), InputError);

  std::stringstream bad_num("x = banana\n");
  const ConfigMap c = parse_config(bad_num);
  EXPECT_THROW(config_get_double(c, "x", 0.0), InputError);
  EXPECT_THROW(config_get_u64(c, "x", 0), InputError);
  EXPECT_THROW(config_get_bool(c, "x", false), InputError);

  // A negative count is rejected, not wrapped around.
  std::stringstream negative("n = -5\n");
  EXPECT_THROW(config_get_u64(parse_config(negative), "n", 0), ConfigError);
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(load_config_file("/nonexistent/dozz.conf"), InputError);
}

}  // namespace
}  // namespace dozz
