// jembench — the repository benchmark program; run.py in this directory is
// the one command that builds it, generates inputs and runs a workload
// (README.md).
//
//   jembench gen --seed N --dir D
//   jembench map --workload map-ends-gz|map-tiled --data D --seconds S
//                --trace 0|1 --seed N
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: jembench gen|map --key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const jembench::Args args(argc, argv);
    if (command == "gen") return jembench::cmd_gen(args);
    if (command == "map") return jembench::cmd_map(args);
    std::cerr << "jembench: unknown subcommand '" << command << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "jembench " << command << ": " << error.what() << '\n';
    return 1;
  }
}
