// Umbrella header for the JEM-mapper public API. Downstream users include
// this and link against jem_core.
//
// Quick tour:
//   io::SequenceSet      — load contigs/reads (io/fasta.hpp)
//   core::MapParams      — k, w, T, ℓ, seed (MapParams{.k = 16}.validate())
//   core::JemMapper      — Algorithm 2 on one segment (map_segment)
//   core::MappingEngine  — maps read sets: run / run_stream (MapRequest)
//   core::run_distributed / run_staged — the parallel drivers (S1-S4)
//   core::SketchScheme   — JEM sketch vs classical MinHash
//   core::save_index / load_index — durable sketch-index artifacts
//   io::CheckpointWriter / read_journal — resumable streaming runs
#pragma once

#include "core/distributed.hpp"
#include "core/dna.hpp"
#include "core/end_segments.hpp"
#include "core/engine.hpp"
#include "core/hash_family.hpp"
#include "core/hit_counter.hpp"
#include "core/index_serde.hpp"
#include "core/kmer.hpp"
#include "core/mapper.hpp"
#include "core/minimizer.hpp"
#include "core/params.hpp"
#include "core/sketch.hpp"
#include "core/sketch_table.hpp"
#include "io/artifact.hpp"
#include "io/batch_stream.hpp"
#include "io/checkpoint.hpp"
#include "io/fasta.hpp"
#include "io/mapping_writer.hpp"
#include "io/sequence_set.hpp"
