// The `jem` subcommand CLI (vg-style): one front-end binary, a thin command
// registry, and one run_*() entry point per subcommand. Every entry point
// takes argv minus the program/subcommand tokens, so the legacy `jem_map`
// binary stays a two-line shim over run_map() — bit-identical behavior, one
// implementation.
//
//   jem map          map reads to contigs (the legacy jem_map workflow)
//   jem build-index  sketch subjects and write the frozen JEMIDX1 artifact
//   jem serve        always-on mapping service over local HTTP
//   jem probe        client for a running `jem serve` (smoke/ops checks and
//                    the only in-tree /map load driver)
//
// Exit codes are uniform across subcommands (docs/serve.md):
//   0  success (and `--help` / `-h`, which prints the usage to stdout)
//   1  runtime failure (bad input file, engine error, server died)
//   2  usage error (unknown option/subcommand, invalid parameter value —
//      including unknown --ordering / --scheme names)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/service.hpp"
#include "io/sequence_set.hpp"
#include "util/options.hpp"

namespace jem::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;

/// Subcommand entry points. `args` is argv after the subcommand token;
/// `program` is the name usage text reports ("jem map" or legacy "jem_map").
int run_map(std::span<const char* const> args, std::string_view program);
int run_build_index(std::span<const char* const> args,
                    std::string_view program);
int run_serve(std::span<const char* const> args, std::string_view program);
int run_probe(std::span<const char* const> args, std::string_view program);

struct Command {
  std::string_view name;
  std::string_view summary;
  int (*run)(std::span<const char* const> args, std::string_view program);
};

/// The registered subcommands, dispatch order = listing order.
[[nodiscard]] std::span<const Command> commands() noexcept;

/// Top-level usage text (the `jem` / `jem --help` listing).
[[nodiscard]] std::string main_usage();

/// Full front-end dispatch: argv[1] picks the subcommand, the rest is
/// forwarded. `jem help`, `--help`, and no arguments print the listing.
int dispatch(int argc, const char* const* argv);

/// The demo dataset every subcommand's --demo uses: a simulated genome,
/// contigs assembled from it, and HiFi reads at 4x coverage. One recipe,
/// seeded from `seed`, so `jem map --demo`, `jem serve --demo`, and the
/// legacy jem_map --demo all see the same bytes.
void make_demo_dataset(std::uint64_t seed, io::SequenceSet& subjects,
                       io::SequenceSet& reads);

/// The sketch flags `jem map`, `jem serve` and `jem build-index` share,
/// with the paper's defaults.
struct SketchFlags {
  std::string scheme = "jem";
  std::string ordering = "lex";
  std::uint64_t k = 16;
  std::uint64_t w = 100;
  std::uint64_t trials = 30;
  std::uint64_t segment = 1000;
  std::uint64_t seed = 20230517;

  /// Registers --scheme --ordering --k --w --trials --segment --seed.
  void add_to(util::Options& options);

  /// The validated config (core/service.hpp). An out-of-range value or an
  /// unknown --ordering/--scheme name prints `error: <what>` naming the
  /// field and returns nullopt: a usage error.
  [[nodiscard]] std::optional<core::ServiceConfig> build() const;
};

/// The subjects of `jem serve` and `jem build-index`: the demo contigs
/// under --demo, else the --subjects FASTA. Returns kExitOk, or the exit
/// code after printing why: a missing --subjects is a usage error, an
/// unreadable file a runtime one.
[[nodiscard]] int load_subjects(bool demo, const std::string& path,
                                std::uint64_t seed,
                                const util::Options& options,
                                std::string_view program,
                                io::SequenceSet& subjects);

}  // namespace jem::cli
