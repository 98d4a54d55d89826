// tools/check_layering.cmake on small planted trees: a clean two-library
// tree passes, and an upward include and a link cycle are each reported
// with the offending file and edge. The `layering` ctest runs the same
// script on the real src/ tree.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "contract.hpp"

namespace {

namespace fs = std::filesystem;

/// A fresh `src/` tree of two libraries, fx_low (low/a.*) and fx_high
/// (high/b.*). fx_high links fx_low and includes its header; the tests
/// plant one fault on top.
class LayeringFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            ("rapsim_layering_" + std::string(info->name()) + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    write("low/CMakeLists.txt", "add_library(fx_low STATIC a.cpp)\n");
    write("low/a.hpp", "#pragma once\n");
    write("low/a.cpp", "#include \"low/a.hpp\"\n");
    write("high/CMakeLists.txt",
          "add_library(fx_high STATIC b.cpp)\n"
          "# a comment naming fx_missing is not a link\n"
          "target_link_libraries(fx_high PUBLIC fx_low Threads::Threads)\n");
    write("high/b.hpp", "#pragma once\n#include \"low/a.hpp\"\n");
    write("high/b.cpp", "#include \"high/b.hpp\"\n");
  }

  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& relative, const std::string& text) const {
    const fs::path path = root_ / "src" / relative;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << text;
  }

  [[nodiscard]] rapsim::contract::CommandResult check() const {
    return rapsim::contract::run_command(
        std::string("\"") + RAPSIM_CMAKE_COMMAND + "\" -DSRC=\"" +
        (root_ / "src").string() + "\" -P \"" + RAPSIM_LAYERING_SCRIPT +
        "\" 2>&1");
  }

 private:
  fs::path root_;
};

TEST_F(LayeringFixture, CleanTreePasses) {
  const auto outcome = check();
  EXPECT_EQ(outcome.status, 0) << outcome.output;
  EXPECT_NE(outcome.output.find("layering: 2 libraries, 3 includes"),
            std::string::npos)
      << outcome.output;
}

TEST_F(LayeringFixture, UpwardIncludeNamesTheFileAndTheMissingEdge) {
  write("low/a.hpp", "#pragma once\n#include \"high/b.hpp\"\n");
  const auto outcome = check();
  EXPECT_NE(outcome.status, 0) << outcome.output;
  EXPECT_NE(outcome.output.find(
                "src/low/a.hpp: includes \"high/b.hpp\", but fx_low -> "
                "fx_high is not in the PUBLIC link closure of fx_low"),
            std::string::npos)
      << outcome.output;
  EXPECT_NE(outcome.output.find("1 violation(s)"), std::string::npos)
      << outcome.output;
}

TEST_F(LayeringFixture, LinkCycleNamesEveryEdgeOfTheLoop) {
  write("low/CMakeLists.txt",
        "add_library(fx_low STATIC a.cpp)\n"
        "target_link_libraries(fx_low PUBLIC fx_high)\n");
  const auto outcome = check();
  EXPECT_NE(outcome.status, 0) << outcome.output;
  for (const char* edge : {"link cycle: fx_high -> fx_low, and fx_low "
                           "reaches fx_high",
                           "link cycle: fx_low -> fx_high, and fx_high "
                           "reaches fx_low"}) {
    EXPECT_NE(outcome.output.find(edge), std::string::npos) << outcome.output;
  }
}

}  // namespace
