// Persistent sketch-index artifact (paper stages S2-S3 made durable): a
// versioned, checksummed on-disk form of the frozen SketchTable, so the
// global sketch table is built from FASTA once and reloaded on every later
// run — the .mmi lesson from minimap2 applied to the JEM sketch.
//
// The artifact persists the table's one frozen form, the FlatSketchIndex
// raw parts (capacity, slot array, postings arrays), so load_index skips
// sketching, sorting AND the flat-index build: the loaded table is
// query-ready as-is.
//
// Sections ("JEMIDX1\0" container, format version 3, io/artifact.hpp
// framing):
//   PARAMS   packed mapping-parameter fingerprint (k/w/ordering/T/ℓ/seed/
//            min_votes/scheme) — compared field-by-field on load; any
//            disagreement is ArtifactError(kParamsMismatch) naming the
//            offending parameter. An index queried under different
//            parameters would silently return wrong mappings; the
//            fingerprint makes that impossible.
//   SUBJSET  subject-set binding: sequence count + XXH64 over every name
//            and base — postings reference subjects by dense id, so an
//            index is only valid with the exact contig set it was built
//            from.
//   SHAPE    entry and k-mer totals: load requires entries == the FLATSUB
//            length and k-mers == the occupied FLATSLOT slots.
//   FLATGEO  the table's capacity (the power of two homes fall below).
//   FLATSLOT the slot array of the one k-mer-keyed table, 16 bytes per
//            slot.
//   FLATTRI  the postings' trial ids, 4 bytes each.
//   FLATSUB  the postings' subject ids, parallel to FLATTRI: each slot's
//            run, sorted by (trial, subject).
//
// Every load failure — truncation, bit rot, foreign file, an older format
// version, parameter or subject-set mismatch, sections that disagree or a
// posting whose trial or subject id is out of range — surfaces as a
// structured ArtifactError; callers fall back to rebuild-from-FASTA
// (jem_map logs the reason and rebuilds). Older formats are kBadVersion:
// version 1 also carried per-trial CSR arrays, and version 2 stored one
// slot region per trial.
#pragma once

#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "core/sketch_table.hpp"
#include "io/artifact.hpp"
#include "io/sequence_set.hpp"

namespace jem::core {

enum class SketchScheme;  // defined in core/mapper.hpp

inline constexpr std::uint64_t kIndexArtifactMagic =
    0x00315844494d454aULL;  // "JEMIDX1\0"
inline constexpr std::uint32_t kIndexArtifactVersion = 3;

/// XXH64 digest of the packed parameter fingerprint — the params word of
/// the run-journal fingerprint (io/checkpoint.hpp).
[[nodiscard]] std::uint64_t params_digest(const MapParams& params,
                                          SketchScheme scheme);

/// XXH64 digest over the subject set (count, names, bases): binds an index
/// artifact to the exact contig set whose dense ids its postings reference.
[[nodiscard]] std::uint64_t subjects_digest(const io::SequenceSet& subjects);

/// Serializes a table into the artifact byte string.
[[nodiscard]] std::string serialize_index(const SketchTable& table,
                                          const MapParams& params,
                                          SketchScheme scheme,
                                          const io::SequenceSet& subjects);

/// serialize_index + atomic durable publish (temp + fsync + rename).
void save_index(const std::string& path, const SketchTable& table,
                const MapParams& params, SketchScheme scheme,
                const io::SequenceSet& subjects);

/// Parses, integrity-checks and validates an artifact against this run's
/// parameters and subject set, returning a frozen, query-ready table.
/// Throws io::ArtifactError on any defect (see file header).
[[nodiscard]] SketchTable deserialize_index(std::string bytes,
                                            const MapParams& params,
                                            SketchScheme scheme,
                                            const io::SequenceSet& subjects);

/// deserialize_index over the file at `path` (kOpenFailed when missing).
[[nodiscard]] SketchTable load_index(const std::string& path,
                                     const MapParams& params,
                                     SketchScheme scheme,
                                     const io::SequenceSet& subjects);

}  // namespace jem::core
