#include "core/index_serde.hpp"

#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/mapper.hpp"
#include "obs/metrics.hpp"

namespace jem::core {

namespace {

using io::ArtifactError;
using io::ArtifactReason;

// Fixed-layout PARAMS section: every field that changes what the sketch
// table contains or how it is queried. 40 bytes, little-endian.
struct PackedParams {
  std::uint32_t k = 0;
  std::uint32_t w = 0;
  std::uint32_t ordering = 0;
  std::uint32_t trials = 0;
  std::uint32_t segment_length = 0;
  std::uint32_t min_votes = 0;
  std::uint64_t seed = 0;
  std::uint32_t scheme = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(PackedParams) == 40);

// SUBJSET section: dense-id binding to the exact subject set.
struct PackedSubjects {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
};
static_assert(sizeof(PackedSubjects) == 16);

PackedParams pack_params(const MapParams& params, SketchScheme scheme) {
  PackedParams packed;
  packed.k = static_cast<std::uint32_t>(params.k);
  packed.w = static_cast<std::uint32_t>(params.w);
  packed.ordering = static_cast<std::uint32_t>(params.ordering);
  packed.trials = static_cast<std::uint32_t>(params.trials);
  packed.segment_length = params.segment_length;
  packed.min_votes = params.min_votes;
  packed.seed = params.seed;
  packed.scheme = static_cast<std::uint32_t>(scheme);
  return packed;
}

template <typename T>
std::string_view as_bytes(const T& value) {
  return {reinterpret_cast<const char*>(&value), sizeof(T)};
}

template <typename T>
std::string_view span_bytes(std::span<const T> values) {
  return {reinterpret_cast<const char*>(values.data()),
          values.size() * sizeof(T)};
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Decodes a section payload into a vector of trivially-copyable records,
/// requiring an exact element-size multiple.
template <typename T>
FlatSketchIndex::Array<T> decode_array(std::string_view payload,
                                       const char* what) {
  if (payload.size() % sizeof(T) != 0) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        std::string(what) + " payload size " +
                            std::to_string(payload.size()) +
                            " is not a multiple of " +
                            std::to_string(sizeof(T)));
  }
  FlatSketchIndex::Array<T> values(payload.size() / sizeof(T));
  std::memcpy(values.data(), payload.data(), payload.size());
  return values;
}

std::uint64_t read_u64_at(std::string_view payload, std::size_t index) {
  std::uint64_t v;
  std::memcpy(&v, payload.data() + index * sizeof(v), sizeof(v));
  return v;
}

[[noreturn]] void params_mismatch(const char* field, std::uint64_t stored,
                                  std::uint64_t requested) {
  throw ArtifactError(ArtifactReason::kParamsMismatch,
                      std::string("index parameter '") + field +
                          "' disagrees (artifact " + std::to_string(stored) +
                          ", run " + std::to_string(requested) + ")");
}

void check_params(const PackedParams& stored, const PackedParams& requested) {
  if (stored.k != requested.k) params_mismatch("k", stored.k, requested.k);
  if (stored.w != requested.w) params_mismatch("w", stored.w, requested.w);
  if (stored.ordering != requested.ordering) {
    params_mismatch("ordering", stored.ordering, requested.ordering);
  }
  if (stored.trials != requested.trials) {
    params_mismatch("trials", stored.trials, requested.trials);
  }
  if (stored.segment_length != requested.segment_length) {
    params_mismatch("segment_length", stored.segment_length,
                    requested.segment_length);
  }
  if (stored.min_votes != requested.min_votes) {
    params_mismatch("min_votes", stored.min_votes, requested.min_votes);
  }
  if (stored.seed != requested.seed) {
    params_mismatch("seed", stored.seed, requested.seed);
  }
  if (stored.scheme != requested.scheme) {
    params_mismatch("scheme", stored.scheme, requested.scheme);
  }
}

}  // namespace

std::uint64_t params_digest(const MapParams& params, SketchScheme scheme) {
  const PackedParams packed = pack_params(params, scheme);
  return io::xxh64(as_bytes(packed));
}

std::uint64_t subjects_digest(const io::SequenceSet& subjects) {
  io::Xxh64Stream stream;
  const std::uint64_t count = subjects.size();
  stream.update(as_bytes(count));
  for (io::SeqId id = 0; id < subjects.size(); ++id) {
    const std::string_view name = subjects.name(id);
    const std::string_view bases = subjects.bases(id);
    const std::uint64_t name_size = name.size();
    const std::uint64_t base_size = bases.size();
    stream.update(as_bytes(name_size));
    stream.update(name);
    stream.update(as_bytes(base_size));
    stream.update(bases);
  }
  return stream.digest();
}

std::string serialize_index(const SketchTable& table, const MapParams& params,
                            SketchScheme scheme,
                            const io::SequenceSet& subjects) {
  io::ArtifactWriter writer(kIndexArtifactMagic, kIndexArtifactVersion);

  const PackedParams packed = pack_params(params, scheme);
  writer.add_section("PARAMS", as_bytes(packed));

  PackedSubjects subj;
  subj.count = subjects.size();
  subj.digest = subjects_digest(subjects);
  writer.add_section("SUBJSET", as_bytes(subj));

  // SHAPE: the entry and k-mer totals the flat sections must agree with.
  std::string shape;
  append_u64(shape, table.size());
  append_u64(shape, table.flat().kmer_count());
  writer.add_section("SHAPE", shape);

  // The frozen flat index, raw: its capacity, then the slot array and the
  // two postings arrays it points into.
  const FlatSketchIndex& flat = table.flat();
  std::string geometry;
  append_u64(geometry, flat.capacity());
  writer.add_section("FLATGEO", geometry);
  writer.add_section("FLATSLOT", span_bytes(flat.slots()));
  writer.add_section("FLATTRI", span_bytes(flat.trial_ids()));
  writer.add_section("FLATSUB", span_bytes(flat.subjects()));

  return writer.serialize();
}

void save_index(const std::string& path, const SketchTable& table,
                const MapParams& params, SketchScheme scheme,
                const io::SequenceSet& subjects) {
  io::atomic_write_file(path, serialize_index(table, params, scheme, subjects));
  obs::default_registry().counter("io.index_cache.saves").add(1);
}

namespace {

/// The one validation body behind deserialize_index and load_index: an
/// integrity-checked container in, a query-ready table out.
SketchTable table_from(const io::ArtifactReader& reader,
                       const MapParams& params, SketchScheme scheme,
                       const io::SequenceSet& subjects) {
  PackedParams stored;
  std::memcpy(&stored, reader.section("PARAMS", sizeof(PackedParams)).data(),
              sizeof(PackedParams));
  check_params(stored, pack_params(params, scheme));

  PackedSubjects subj;
  std::memcpy(&subj, reader.section("SUBJSET", sizeof(PackedSubjects)).data(),
              sizeof(PackedSubjects));
  if (subj.count != subjects.size() ||
      subj.digest != subjects_digest(subjects)) {
    throw ArtifactError(
        ArtifactReason::kParamsMismatch,
        "index was built from a different subject set (postings reference "
        "dense ids; refusing to map against mismatched contigs)");
  }

  const std::string_view shape =
      reader.section("SHAPE", 2 * sizeof(std::uint64_t));
  const std::uint64_t total_entries = read_u64_at(shape, 0);
  const std::uint64_t total_kmers = read_u64_at(shape, 1);

  const std::uint64_t capacity =
      read_u64_at(reader.section("FLATGEO", sizeof(std::uint64_t)), 0);
  auto slots = decode_array<FlatSketchIndex::Slot>(reader.section("FLATSLOT"),
                                                   "FLATSLOT");
  auto trial_ids =
      decode_array<std::uint32_t>(reader.section("FLATTRI"), "FLATTRI");
  auto flat_subjects =
      decode_array<io::SeqId>(reader.section("FLATSUB"), "FLATSUB");
  if (flat_subjects.size() != total_entries) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "SHAPE entry total disagrees with FLATSUB");
  }

  try {
    return SketchTable(FlatSketchIndex::from_parts(
        params.trials, static_cast<std::size_t>(capacity), std::move(slots),
        std::move(trial_ids), std::move(flat_subjects),
        static_cast<std::size_t>(total_kmers), subjects.size()));
  } catch (const std::invalid_argument& error) {
    // A geometry violation, a posting out of range or out of order, or a
    // k-mer total that disagrees with the occupied slots means the
    // artifact's checksummed sections are mutually inconsistent — a
    // malformed artifact, not a programming error.
    throw ArtifactError(ArtifactReason::kBadSection, error.what());
  }
}

}  // namespace

SketchTable deserialize_index(std::string bytes, const MapParams& params,
                              SketchScheme scheme,
                              const io::SequenceSet& subjects) {
  return table_from(io::ArtifactReader(std::move(bytes), kIndexArtifactMagic,
                                       kIndexArtifactVersion),
                    params, scheme, subjects);
}

SketchTable load_index(const std::string& path, const MapParams& params,
                       SketchScheme scheme, const io::SequenceSet& subjects) {
  SketchTable table = table_from(
      io::ArtifactReader::open(path, kIndexArtifactMagic,
                               kIndexArtifactVersion),
      params, scheme, subjects);
  // Only counted once the artifact fully verified — a rejected or corrupt
  // file is not a cache hit.
  obs::default_registry().counter("io.index_cache.hits").add(1);
  return table;
}

}  // namespace jem::core
