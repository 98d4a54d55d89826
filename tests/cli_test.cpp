// Unit tests for util/cli.hpp.

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "contract.hpp"

namespace rapsim::util {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsForm) {
  const auto args = make({"--width=64", "--seed=42"});
  EXPECT_EQ(args.get_uint("width", 0), 64u);
  EXPECT_EQ(args.get_uint("seed", 0), 42u);
}

TEST(CliArgs, SpaceForm) {
  const auto args = make({"--trials", "1000"});
  EXPECT_EQ(args.get_uint("trials", 0), 1000u);
}

TEST(CliArgs, BooleanFlag) {
  const auto args = make({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  EXPECT_TRUE(args.get_bool("quiet", true));
}

TEST(CliArgs, FallbacksWhenMissing) {
  const auto args = make({});
  EXPECT_EQ(args.get_uint("width", 32), 32u);
  EXPECT_EQ(args.get_int("depth", -1), -1);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(args.get_string("name", "x"), "x");
}

TEST(CliArgs, PositionalArguments) {
  const auto args = make({"input.txt", "--flag", "output.txt"});
  // "--flag output.txt" binds output.txt as flag value (space form).
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.get_string("flag", ""), "output.txt");
}

TEST(CliArgs, UintListParsesCsv) {
  const auto args = make({"--widths=16,32,64"});
  const auto widths = args.get_uint_list("widths", {});
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_EQ(widths[0], 16u);
  EXPECT_EQ(widths[2], 64u);
}

TEST(CliArgs, UintListFallback) {
  const auto args = make({});
  const auto widths = args.get_uint_list("widths", {8, 9});
  ASSERT_EQ(widths.size(), 2u);
  EXPECT_EQ(widths[1], 9u);
}

TEST(CliArgs, DoubleParsing) {
  const auto args = make({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
}

TEST(CliArgs, NegativeInt) {
  const auto args = make({"--offset=-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(CliArgs, RejectUnknownNamesTheFirstUndocumentedFlag) {
  const auto args = make({"in.txt", "--width=8", "--n=128", "--bogus=1"});
  try {
    args.reject_unknown({"width"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --bogus");
  }
  EXPECT_NO_THROW(args.reject_unknown({"width", "n", "bogus"}));
  EXPECT_NO_THROW(make({"positional"}).reject_unknown({}));
}

TEST(CliArgs, EveryToolFailsOnAnUnknownFlag) {
  // The rapsim-* tools and rapsim_profile validate before they touch a
  // socket, a file or a workload.
  std::istringstream tools(RAPSIM_TOOL_BINS);
  std::string tool;
  std::size_t checked = 0;
  while (tools >> tool) {
    const contract::CommandResult run =
        contract::run_command(tool + " ping --width=8 --bogus=1 2>&1");
    EXPECT_NE(run.status, 0) << tool;
    EXPECT_NE(run.output.find("unknown flag --bogus"), std::string::npos)
        << tool << ": " << run.output;
    ++checked;
  }
  EXPECT_EQ(checked, 6u);
}

}  // namespace
}  // namespace rapsim::util
