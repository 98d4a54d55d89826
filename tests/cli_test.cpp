// Unit tests for util/cli.hpp.

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "contract.hpp"

namespace rapsim::util {
namespace {

CliArgs make(std::initializer_list<const char*> args,
             std::initializer_list<std::string_view> booleans = {}) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data(), booleans);
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

TEST(CliArgs, DeclaredBooleanNeverTakesTheNextArgument) {
  const auto args = make({"replay", "--certify", "trace.rapt", "--seed", "7",
                          "--verbose=false"},
                         {"certify", "verbose"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "replay");
  EXPECT_EQ(args.positional()[1], "trace.rapt");
  EXPECT_TRUE(args.get_bool("certify", false));
  EXPECT_EQ(args.get_uint("seed", 0), 7u);  // value flags keep the space form
  EXPECT_FALSE(args.get_bool("verbose", true));  // `=` still sets a value
  // A declared boolean is known; the other flags must be listed.
  EXPECT_NO_THROW(args.reject_unknown({"seed"}));
  EXPECT_THROW(args.reject_unknown({}), std::invalid_argument);
}

TEST(CliArgs, RejectPositionalNamesTheFirstOne) {
  try {
    make({"--races", "false", "extra"}, {"races"}).reject_positional();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument false");
  }
  EXPECT_NO_THROW(make({"--races=false", "--width", "8"}, {"races"})
                      .reject_positional());
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

TEST(CliArgs, ReplayTakesTheTraceAfterCertify) {
  // --certify is boolean, so the trace path after it stays positional.
  const contract::CommandResult run = contract::run_command(
      RAPSIM_REPLAY_BIN " replay --certify " RAPSIM_EXAMPLES_DIR
      "/contiguous_stride.trace 2>&1");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("certified  congestion"), std::string::npos)
      << run.output;
}

TEST(CliArgs, ToolsWithoutPositionalsFailOnAStrayWord) {
  // A boolean never takes a value, so `--races false` leaves a stray
  // `false`; a tool that reads no positional must not drop it silently.
  std::istringstream tools(RAPSIM_TOOL_BINS);
  std::string tool;
  std::size_t checked = 0;
  while (tools >> tool) {
    if (tool.find("rapsim-replay") != std::string::npos ||
        tool.find("rapsim-client") != std::string::npos) {
      continue;  // they take a command and its operands
    }
    const std::string stray =
        tool.find("rapsim-lint") != std::string::npos ? "--races false"
                                                       : "false";
    const contract::CommandResult run =
        contract::run_command(tool + " " + stray + " 2>&1");
    EXPECT_NE(run.status, 0) << tool;
    EXPECT_NE(run.output.find("unexpected argument false"), std::string::npos)
        << tool << ": " << run.output;
    ++checked;
  }
  EXPECT_EQ(checked, 4u);
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
