// `jem build-index` — sketch a subject FASTA once and write the frozen
// JEMIDX1 artifact (core/index_serde), so `jem map --load-index` and
// `jem serve --load-index` skip the index build at startup.
//
//   jem build-index --subjects contigs.fa --output contigs.jemidx
//                   [--k 16] [--w 100] [--trials 30] [--segment 1000]
//                   [--seed N] [--ordering lex|hash] [--scheme jem|minhash]
//   jem build-index --demo --output demo.jemidx   (simulated subjects)
#include <iostream>

#include "cli/cli.hpp"
#include "core/index_serde.hpp"
#include "core/service.hpp"
#include "core/sketch_table.hpp"
#include "io/artifact.hpp"
#include "io/sequence_set.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace jem::cli {

int run_build_index(std::span<const char* const> args,
                    std::string_view program) {
  std::string subjects_path;
  std::string output_path;
  SketchFlags sketch;
  bool demo = false;

  util::Options options;
  options.add_string("subjects", subjects_path, "contigs FASTA path");
  options.add_string("output", output_path, "index artifact output path");
  sketch.add_to(options);
  options.add_flag("demo", demo, "simulate subjects instead of reading files");
  if (const auto exit_code = options.parse_command(args, program)) {
    return *exit_code;
  }
  if (output_path.empty()) {
    std::cerr << "error: --output is required\n" << options.usage(program);
    return kExitUsage;
  }

  const std::optional<core::ServiceConfig> config = sketch.build();
  if (!config) return kExitUsage;

  io::SequenceSet subjects;
  if (const int code = load_subjects(demo, subjects_path, sketch.seed,
                                     options, program, subjects);
      code != kExitOk) {
    return code;
  }

  util::WallTimer timer;
  try {
    // Building the service sketches the subjects and builds the table;
    // save_index writes the checksummed artifact bound to these params and
    // subjects.
    const core::MappingService service(std::move(subjects), *config);
    core::save_index(output_path, service.engine().mapper().table(),
                     config->params, config->scheme, service.subjects());
    util::log_info() << "indexed " << service.subjects().size()
                     << " subjects in " << timer.elapsed_s() << " s";
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return kExitRuntime;
  }
  std::cout << "wrote index to " << output_path << '\n';
  return kExitOk;
}

}  // namespace jem::cli
