// Tiny declarative command-line option parser used by the example programs
// and the table/figure drivers. Supports --name value, --name=value, and
// boolean flags (--flag / --no-flag). Unknown options are an error; positional
// arguments are collected in order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace jem::util {

/// Thrown on malformed command lines (unknown option, missing value, bad
/// number). parse_command turns it into a usage error (exit 2).
class OptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Options {
 public:
  /// Registers an option bound to an out-parameter. The bound variable keeps
  /// its initial value when the flag is absent, so defaults live at the
  /// declaration site.
  void add_flag(std::string name, bool& target, std::string help);
  void add_int(std::string name, std::int64_t& target, std::string help);
  void add_uint(std::string name, std::uint64_t& target, std::string help);
  /// As above, for an option whose absence differs from every value.
  void add_uint(std::string name, std::optional<std::uint64_t>& target,
                std::string help);
  void add_double(std::string name, double& target, std::string help);
  void add_string(std::string name, std::string& target, std::string help);

  /// Parses argv (excluding argv[0]). Throws OptionError on any problem.
  /// Returns the positional arguments in order.
  [[nodiscard]] std::vector<std::string> parse(
      std::span<const char* const> args) const;

  /// The command-line front end of a subcommand: returns the exit code to
  /// stop with, or nullopt to run. `--help` or `-h` anywhere prints
  /// usage(program) to stdout (exit 0); a malformed line prints the error
  /// and the usage to stderr (exit 2).
  [[nodiscard]] std::optional<int> parse_command(
      std::span<const char* const> args, std::string_view program) const;

  /// Human-readable usage text listing every registered option.
  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  enum class Kind { kFlag, kInt, kUint, kDouble, kString };

  struct Spec {
    std::string name;
    Kind kind;
    std::string help;
    std::function<void(std::string_view)> apply;  // kFlag: "1"/"0"
  };

  void add_spec(Spec spec);
  [[nodiscard]] const Spec* find(std::string_view name) const noexcept;

  std::vector<Spec> specs_;
};

}  // namespace jem::util
