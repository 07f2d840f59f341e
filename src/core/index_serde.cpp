#include "core/index_serde.hpp"

#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
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
std::vector<T> decode_array(std::string_view payload, const char* what) {
  if (payload.size() % sizeof(T) != 0) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        std::string(what) + " payload size " +
                            std::to_string(payload.size()) +
                            " is not a multiple of " +
                            std::to_string(sizeof(T)));
  }
  std::vector<T> values(payload.size() / sizeof(T));
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

  // SHAPE: totals, then per-trial (key count, posting count).
  std::string shape;
  append_u64(shape, table.size());
  append_u64(shape, table.key_count());
  std::string keys;
  std::string offsets;
  std::string postings;
  for (int t = 0; t < table.trials(); ++t) {
    const SketchTable::FrozenTrial& trial = table.frozen_trial(t);
    append_u64(shape, trial.keys.size());
    append_u64(shape, trial.subjects.size());
    keys.append(span_bytes(std::span<const KmerCode>(trial.keys)));
    offsets.append(
        span_bytes(std::span<const std::uint32_t>(trial.offsets)));
    postings.append(span_bytes(std::span<const io::SeqId>(trial.subjects)));
  }
  writer.add_section("SHAPE", shape);
  writer.add_section("KEYS", keys);
  writer.add_section("OFFSETS", offsets);
  writer.add_section("SUBJECTS", postings);

  // The frozen flat index, raw: region geometry interleaved (base, mask)
  // per trial, then the slot array and its postings pool.
  const FlatSketchIndex& flat = table.flat();
  std::string geometry;
  for (int t = 0; t < flat.trials(); ++t) {
    append_u64(geometry,
               static_cast<std::uint64_t>(flat.bases()[static_cast<std::size_t>(t)]));
    append_u64(geometry,
               static_cast<std::uint64_t>(flat.masks()[static_cast<std::size_t>(t)]));
  }
  writer.add_section("FLATGEO", geometry);
  writer.add_section("FLATSLOT", span_bytes(flat.slots()));
  writer.add_section("FLATSUB", span_bytes(flat.subjects()));

  return writer.serialize();
}

void save_index(const std::string& path, const SketchTable& table,
                const MapParams& params, SketchScheme scheme,
                const io::SequenceSet& subjects) {
  io::atomic_write_file(path, serialize_index(table, params, scheme, subjects));
  obs::default_registry().counter("io.index_cache.saves").add(1);
}

SketchTable deserialize_index(std::string bytes, const MapParams& params,
                              SketchScheme scheme,
                              const io::SequenceSet& subjects) {
  const io::ArtifactReader reader(std::move(bytes), kIndexArtifactMagic,
                                  kIndexArtifactVersion);

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

  const std::string_view shape = reader.section("SHAPE");
  const std::size_t trials = static_cast<std::size_t>(params.trials);
  if (shape.size() != (2 + 2 * trials) * sizeof(std::uint64_t)) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "SHAPE section size disagrees with the trial count");
  }
  const std::uint64_t total_entries = read_u64_at(shape, 0);
  const std::uint64_t total_keys = read_u64_at(shape, 1);

  std::vector<KmerCode> keys =
      decode_array<KmerCode>(reader.section("KEYS"), "KEYS");
  std::vector<std::uint32_t> offsets =
      decode_array<std::uint32_t>(reader.section("OFFSETS"), "OFFSETS");
  std::vector<io::SeqId> postings =
      decode_array<io::SeqId>(reader.section("SUBJECTS"), "SUBJECTS");

  std::vector<SketchTable::FrozenTrial> frozen(trials);
  std::size_t key_cursor = 0;
  std::size_t offset_cursor = 0;
  std::size_t posting_cursor = 0;
  std::uint64_t shape_entries = 0;
  std::uint64_t shape_keys = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t trial_keys = read_u64_at(shape, 2 + 2 * t);
    const std::uint64_t trial_postings = read_u64_at(shape, 3 + 2 * t);
    shape_keys += trial_keys;
    shape_entries += trial_postings;
    if (key_cursor + trial_keys > keys.size() ||
        offset_cursor + trial_keys + 1 > offsets.size() ||
        posting_cursor + trial_postings > postings.size()) {
      throw ArtifactError(ArtifactReason::kBadSection,
                          "SHAPE counts overrun the CSR sections");
    }
    frozen[t].keys.assign(
        keys.begin() + static_cast<std::ptrdiff_t>(key_cursor),
        keys.begin() + static_cast<std::ptrdiff_t>(key_cursor + trial_keys));
    frozen[t].offsets.assign(
        offsets.begin() + static_cast<std::ptrdiff_t>(offset_cursor),
        offsets.begin() +
            static_cast<std::ptrdiff_t>(offset_cursor + trial_keys + 1));
    frozen[t].subjects.assign(
        postings.begin() + static_cast<std::ptrdiff_t>(posting_cursor),
        postings.begin() +
            static_cast<std::ptrdiff_t>(posting_cursor + trial_postings));
    key_cursor += trial_keys;
    offset_cursor += trial_keys + 1;
    posting_cursor += trial_postings;
  }
  if (key_cursor != keys.size() || offset_cursor != offsets.size() ||
      posting_cursor != postings.size()) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "CSR sections have trailing data beyond SHAPE");
  }
  if (shape_keys != total_keys || shape_entries != total_entries) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "SHAPE totals disagree with its per-trial counts");
  }

  std::vector<std::uint64_t> geometry = decode_array<std::uint64_t>(
      reader.section("FLATGEO", 2 * trials * sizeof(std::uint64_t)),
      "FLATGEO");
  std::vector<std::size_t> bases(trials);
  std::vector<std::size_t> masks(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    bases[t] = static_cast<std::size_t>(geometry[2 * t]);
    masks[t] = static_cast<std::size_t>(geometry[2 * t + 1]);
  }
  std::vector<FlatSketchIndex::Slot> slots =
      decode_array<FlatSketchIndex::Slot>(reader.section("FLATSLOT"),
                                          "FLATSLOT");
  std::vector<io::SeqId> flat_subjects =
      decode_array<io::SeqId>(reader.section("FLATSUB"), "FLATSUB");

  try {
    FlatSketchIndex flat = FlatSketchIndex::from_parts(
        std::move(slots), std::move(bases), std::move(masks),
        std::move(flat_subjects), static_cast<std::size_t>(total_keys));
    return SketchTable::from_frozen(params.trials, std::move(frozen),
                                    std::move(flat));
  } catch (const std::invalid_argument& error) {
    // Structural validation failures in the reconstructors mean the
    // artifact's (checksummed) sections are mutually inconsistent — treat
    // as a malformed artifact, not a programming error.
    throw ArtifactError(ArtifactReason::kBadSection, error.what());
  }
}

SketchTable load_index(const std::string& path, const MapParams& params,
                       SketchScheme scheme, const io::SequenceSet& subjects) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ArtifactError(ArtifactReason::kOpenFailed,
                        "cannot open index artifact: " + path);
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  SketchTable table =
      deserialize_index(std::move(raw).str(), params, scheme, subjects);
  // Only counted once the artifact fully verified — a rejected or corrupt
  // file is not a cache hit.
  obs::default_registry().counter("io.index_cache.hits").add(1);
  return table;
}

}  // namespace jem::core
