#include "util/options.hpp"

#include <gtest/gtest.h>

#include <array>

namespace jem::util {
namespace {

std::vector<std::string> parse(const Options& options,
                               std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return options.parse(std::span<const char* const>(argv.data(), argv.size()));
}

TEST(Options, ParsesSeparateValueForm) {
  Options options;
  std::uint64_t k = 0;
  options.add_uint("k", k, "k-mer size");
  (void)parse(options, {"--k", "16"});
  EXPECT_EQ(k, 16u);
}

TEST(Options, ParsesEqualsForm) {
  Options options;
  std::uint64_t k = 0;
  options.add_uint("k", k, "k-mer size");
  (void)parse(options, {"--k=21"});
  EXPECT_EQ(k, 21u);
}

TEST(Options, KeepsDefaultWhenAbsent) {
  Options options;
  std::uint64_t k = 16;
  options.add_uint("k", k, "k-mer size");
  (void)parse(options, {});
  EXPECT_EQ(k, 16u);
}

TEST(Options, OptionalUintTellsAbsentFromZero) {
  Options options;
  std::optional<std::uint64_t> ranks;
  options.add_uint("ranks", ranks, "rank count");
  (void)parse(options, {});
  EXPECT_FALSE(ranks.has_value());
  (void)parse(options, {"--ranks", "0"});
  ASSERT_TRUE(ranks.has_value());
  EXPECT_EQ(*ranks, 0u);
}

TEST(Options, ParsesFlagsAndNegatedFlags) {
  Options options;
  bool verbose = false;
  bool color = true;
  options.add_flag("verbose", verbose, "be loud");
  options.add_flag("color", color, "use color");
  (void)parse(options, {"--verbose", "--no-color"});
  EXPECT_TRUE(verbose);
  EXPECT_FALSE(color);
}

TEST(Options, ParsesSignedAndDoubleAndString) {
  Options options;
  std::int64_t delta = 0;
  double rate = 0.0;
  std::string name;
  options.add_int("delta", delta, "signed");
  options.add_double("rate", rate, "float");
  options.add_string("name", name, "string");
  (void)parse(options, {"--delta", "-5", "--rate", "0.125", "--name", "abc"});
  EXPECT_EQ(delta, -5);
  EXPECT_DOUBLE_EQ(rate, 0.125);
  EXPECT_EQ(name, "abc");
}

TEST(Options, CollectsPositionalArguments) {
  Options options;
  bool flag = false;
  options.add_flag("flag", flag, "a flag");
  const auto positional = parse(options, {"input.fa", "--flag", "output.fa"});
  ASSERT_EQ(positional.size(), 2u);
  EXPECT_EQ(positional[0], "input.fa");
  EXPECT_EQ(positional[1], "output.fa");
}

TEST(Options, ThrowsOnUnknownOption) {
  Options options;
  EXPECT_THROW((void)parse(options, {"--nope"}), OptionError);
}

TEST(Options, ThrowsOnMissingValue) {
  Options options;
  std::uint64_t k = 0;
  options.add_uint("k", k, "k");
  EXPECT_THROW((void)parse(options, {"--k"}), OptionError);
}

TEST(Options, ThrowsOnBadNumber) {
  Options options;
  std::uint64_t k = 0;
  options.add_uint("k", k, "k");
  EXPECT_THROW((void)parse(options, {"--k", "abc"}), OptionError);
  EXPECT_THROW((void)parse(options, {"--k", "12x"}), OptionError);
}

TEST(Options, ThrowsWhenFlagGivenValue) {
  Options options;
  bool flag = false;
  options.add_flag("flag", flag, "a flag");
  EXPECT_THROW((void)parse(options, {"--flag=1"}), OptionError);
}

TEST(Options, ThrowsOnDuplicateRegistration) {
  Options options;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  options.add_uint("k", a, "first");
  EXPECT_THROW(options.add_uint("k", b, "second"), OptionError);
}

TEST(Options, UsageListsAllOptions) {
  Options options;
  std::uint64_t k = 0;
  bool flag = false;
  options.add_uint("k", k, "the k-mer size");
  options.add_flag("verbose", flag, "noisy output");
  const std::string usage = options.usage("prog");
  EXPECT_NE(usage.find("--k <uint>"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("the k-mer size"), std::string::npos);
}

TEST(Options, NegativeNumberAsValueIsNotAnOption) {
  Options options;
  std::int64_t x = 0;
  options.add_int("x", x, "signed");
  (void)parse(options, {"--x", "-42"});
  EXPECT_EQ(x, -42);
}

}  // namespace
}  // namespace jem::util
