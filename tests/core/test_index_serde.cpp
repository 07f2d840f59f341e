#include "core/index_serde.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/mapper.hpp"
#include "oracle/sequential_mapper.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

io::ArtifactReason reason_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const io::ArtifactError& error) {
    return error.reason();
  }
  ADD_FAILURE() << "expected an ArtifactError";
  return io::ArtifactReason::kIoError;
}

std::string random_dna(util::Xoshiro256ss& rng, std::size_t len) {
  static constexpr char kBases[] = "ACGT";
  std::string out(len, 'A');
  for (char& c : out) c = kBases[rng.bounded(4)];
  return out;
}

/// Byte location of one section inside the serialized container.
struct SectionLoc {
  std::string tag;
  std::size_t header = 0;   // section header start (tag/size/checksum)
  std::size_t payload = 0;  // payload start
  std::size_t size = 0;     // payload size
};

std::vector<SectionLoc> locate_sections(const std::string& bytes) {
  std::vector<SectionLoc> locs;
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::size_t cursor = 16;
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionLoc loc;
    loc.header = cursor;
    char tag[9] = {};
    std::memcpy(tag, bytes.data() + cursor, 8);
    loc.tag = tag;
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + cursor + 8, sizeof(size));
    loc.payload = cursor + 24;
    loc.size = static_cast<std::size_t>(size);
    locs.push_back(loc);
    cursor = loc.payload + loc.size;
  }
  return locs;
}

/// Rewrites a section's stored checksum to match its (tampered) payload, so
/// the framing passes and the semantic validators must catch the defect.
void fix_checksum(std::string& bytes, const SectionLoc& loc) {
  const std::uint64_t sum =
      io::xxh64(std::string_view(bytes).substr(loc.payload, loc.size));
  std::memcpy(bytes.data() + loc.header + 16, &sum, sizeof(sum));
}

class IndexSerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(2024);
    genome_ = random_dna(rng, 20'000);
    for (int i = 0; i < 8; ++i) {
      subjects_.add("contig_" + std::to_string(i),
                    genome_.substr(static_cast<std::size_t>(i) * 2500, 2500));
    }
    util::Xoshiro256ss read_rng(5);
    for (int i = 0; i < 12; ++i) {
      const std::size_t pos = read_rng.bounded(18'000);
      reads_.add("read_" + std::to_string(i),
                 genome_.substr(pos, 900 + read_rng.bounded(1000)));
    }
    params_ = MapParams{
        .k = 16, .w = 20, .trials = 4, .segment_length = 500, .seed = 7};
    params_.validate();
  }

  std::string genome_;
  io::SequenceSet subjects_;
  io::SequenceSet reads_;
  MapParams params_;
};

TEST_F(IndexSerdeTest, SaveLoadProducesBitIdenticalMappings) {
  const JemMapper fresh(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(fresh.table(), params_, SketchScheme::kJem, subjects_);

  SketchTable loaded =
      deserialize_index(bytes, params_, SketchScheme::kJem, subjects_);
  // Query-ready as loaded: the flat index came from the artifact.
  EXPECT_EQ(loaded.flat().key_count(), loaded.key_count());

  const JemMapper reloaded(subjects_, params_, SketchScheme::kJem,
                           std::move(loaded));
  EXPECT_EQ(oracle::map_reads(reloaded, reads_),
            oracle::map_reads(fresh, reads_));
}

TEST_F(IndexSerdeTest, SerializationIsDeterministicAndStable) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);
  EXPECT_EQ(bytes, serialize_index(mapper.table(), params_,
                                   SketchScheme::kJem, subjects_));
  // A loaded table re-serializes to the same artifact: the round trip loses
  // nothing.
  SketchTable loaded =
      deserialize_index(bytes, params_, SketchScheme::kJem, subjects_);
  EXPECT_EQ(bytes,
            serialize_index(loaded, params_, SketchScheme::kJem, subjects_));
}

TEST_F(IndexSerdeTest, SaveThenLoadFromDiskRoundTrips) {
  const std::string path = ::testing::TempDir() + "/jem_index_rt.jemidx";
  const JemMapper fresh(subjects_, params_, SketchScheme::kJem);
  save_index(path, fresh.table(), params_, SketchScheme::kJem, subjects_);
  SketchTable loaded =
      load_index(path, params_, SketchScheme::kJem, subjects_);
  const JemMapper reloaded(subjects_, params_, SketchScheme::kJem,
                           std::move(loaded));
  EXPECT_EQ(oracle::map_reads(reloaded, reads_),
            oracle::map_reads(fresh, reads_));
  std::remove(path.c_str());
}

TEST_F(IndexSerdeTest, MissingFileIsOpenFailed) {
  EXPECT_EQ(reason_of([&] {
              (void)load_index("/nonexistent/idx.jemidx", params_,
                               SketchScheme::kJem, subjects_);
            }),
            io::ArtifactReason::kOpenFailed);
}

TEST_F(IndexSerdeTest, ParameterMismatchNamesTheOffendingField) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);

  const MapParams other_k{
      .k = 15, .w = 20, .trials = 4, .segment_length = 500, .seed = 7};
  other_k.validate();
  try {
    (void)deserialize_index(bytes, other_k, SketchScheme::kJem, subjects_);
    FAIL() << "expected kParamsMismatch";
  } catch (const io::ArtifactError& error) {
    EXPECT_EQ(error.reason(), io::ArtifactReason::kParamsMismatch);
    EXPECT_NE(std::string(error.what()).find("'k'"), std::string::npos)
        << error.what();
  }

  EXPECT_EQ(reason_of([&] {
              (void)deserialize_index(bytes, params_,
                                      SketchScheme::kClassicMinhash,
                                      subjects_);
            }),
            io::ArtifactReason::kParamsMismatch);
}

TEST_F(IndexSerdeTest, DifferentSubjectSetIsRejected) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);

  io::SequenceSet renamed;
  for (io::SeqId id = 0; id < subjects_.size(); ++id) {
    renamed.add(id == 3 ? "imposter" : std::string(subjects_.name(id)),
                subjects_.bases(id));
  }
  EXPECT_EQ(reason_of([&] {
              (void)deserialize_index(bytes, params_, SketchScheme::kJem,
                                      renamed);
            }),
            io::ArtifactReason::kParamsMismatch);
}

TEST_F(IndexSerdeTest, TruncationAtEverySectionBoundaryIsDetected) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);

  std::vector<std::size_t> cuts = {0, 8, 15};  // inside the container header
  for (const SectionLoc& loc : locate_sections(bytes)) {
    cuts.push_back(loc.header);            // before the section header
    cuts.push_back(loc.header + 12);       // inside the section header
    cuts.push_back(loc.payload);           // header kept, payload gone
    if (loc.size > 1) cuts.push_back(loc.payload + loc.size / 2);
    cuts.push_back(loc.payload + loc.size - 1);  // one byte short
  }
  for (const std::size_t keep : cuts) {
    if (keep >= bytes.size()) continue;
    EXPECT_EQ(reason_of([&] {
                (void)deserialize_index(bytes.substr(0, keep), params_,
                                        SketchScheme::kJem, subjects_);
              }),
              io::ArtifactReason::kTruncated)
        << "prefix length " << keep;
  }
}

TEST_F(IndexSerdeTest, BitRotInEverySectionIsAChecksumMismatch) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);

  const std::vector<SectionLoc> sections = locate_sections(bytes);
  EXPECT_EQ(sections.size(), 7u);  // PARAMS..FLATSUB, the documented layout
  for (const SectionLoc& loc : sections) {
    if (loc.size == 0) continue;
    std::string corrupt = bytes;
    corrupt[loc.payload + loc.size / 2] ^= char(0x40);
    EXPECT_EQ(reason_of([&] {
                (void)deserialize_index(corrupt, params_, SketchScheme::kJem,
                                        subjects_);
              }),
              io::ArtifactReason::kChecksumMismatch)
        << "section " << loc.tag;
  }
}

TEST_F(IndexSerdeTest, ChecksummedButInconsistentSectionsAreBadSections) {
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  const std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);
  const std::vector<SectionLoc> sections = locate_sections(bytes);

  const auto find = [&](std::string_view tag) -> const SectionLoc& {
    for (const SectionLoc& loc : sections) {
      if (loc.tag == tag) return loc;
    }
    throw std::logic_error("section not found");
  };

  const auto expect_bad_section = [&](const std::string& tampered,
                                      const char* what) {
    EXPECT_EQ(reason_of([&] {
                (void)deserialize_index(tampered, params_, SketchScheme::kJem,
                                        subjects_);
              }),
              io::ArtifactReason::kBadSection)
        << what;
  };
  // Adds `delta` to the u64 at `index` of SHAPE (0: entries, 1: keys).
  const auto bump_shape = [&](std::size_t index, std::int64_t delta) {
    std::string tampered = bytes;
    const SectionLoc& shape = find("SHAPE");
    const std::size_t at = shape.payload + index * sizeof(std::uint64_t);
    std::uint64_t total = 0;
    std::memcpy(&total, tampered.data() + at, sizeof(total));
    total += static_cast<std::uint64_t>(delta);
    std::memcpy(tampered.data() + at, &total, sizeof(total));
    fix_checksum(tampered, shape);
    return tampered;
  };

  // SHAPE totals disagree with the flat sections: one entry or one key
  // more or fewer than FLATSUB holds and FLATSLOT occupies.
  expect_bad_section(bump_shape(0, 1), "SHAPE entries + 1");
  expect_bad_section(bump_shape(0, -1), "SHAPE entries - 1");
  expect_bad_section(bump_shape(1, 1), "SHAPE keys + 1");
  expect_bad_section(bump_shape(1, -1), "SHAPE keys - 1");
  {
    // FLATSLOT payload not a multiple of the 16-byte slot.
    std::string tampered = bytes;
    const SectionLoc& slots = find("FLATSLOT");
    tampered.erase(slots.payload, 3);
    std::uint64_t new_size = slots.size - 3;
    std::memcpy(tampered.data() + slots.header + 8, &new_size,
                sizeof(new_size));
    SectionLoc shrunk = slots;
    shrunk.size = static_cast<std::size_t>(new_size);
    fix_checksum(tampered, shrunk);
    expect_bad_section(tampered, "FLATSLOT size % 16 != 0");
  }
  {
    // An occupied slot whose postings span runs past the end of FLATSUB.
    std::string tampered = bytes;
    const SectionLoc& slots = find("FLATSLOT");
    const std::size_t flatsub_size = find("FLATSUB").size / sizeof(io::SeqId);
    bool overran = false;
    for (std::size_t at = slots.payload; at < slots.payload + slots.size;
         at += sizeof(FlatSketchIndex::Slot)) {
      FlatSketchIndex::Slot slot;
      std::memcpy(&slot, tampered.data() + at, sizeof(slot));
      if (slot.count == 0) continue;
      slot.offset = static_cast<std::uint32_t>(flatsub_size - slot.count + 1);
      std::memcpy(tampered.data() + at, &slot, sizeof(slot));
      overran = true;
      break;
    }
    ASSERT_TRUE(overran);
    fix_checksum(tampered, slots);
    expect_bad_section(tampered, "slot postings overrun FLATSUB");
  }

  // Rewrites every u32 of a postings section with `rewrite(index, value)`.
  const auto rewrite_u32s = [&](std::string tampered, std::string_view tag,
                                const auto& rewrite) {
    const SectionLoc& loc = find(tag);
    for (std::size_t i = 0; i < loc.size / sizeof(std::uint32_t); ++i) {
      std::uint32_t value = 0;
      char* const at = tampered.data() + loc.payload + i * sizeof(value);
      std::memcpy(&value, at, sizeof(value));
      value = rewrite(i, value);
      std::memcpy(at, &value, sizeof(value));
    }
    fix_checksum(tampered, loc);
    return tampered;
  };
  // A subject id past the subject set would index the vote counter out of
  // bounds; a trial id past T would too.
  expect_bad_section(
      rewrite_u32s(bytes, "FLATSUB",
                   [](std::size_t, std::uint32_t) { return 50'000'000u; }),
      "FLATSUB subject id >= subject count");
  expect_bad_section(
      rewrite_u32s(bytes, "FLATSUB",
                   [&](std::size_t i, std::uint32_t value) {
                     return i == 0 ? static_cast<std::uint32_t>(
                                         subjects_.size())
                                   : value;
                   }),
      "FLATSUB subject id == subject count");
  expect_bad_section(
      rewrite_u32s(bytes, "FLATTRI",
                   [&](std::size_t i, std::uint32_t value) {
                     return i == 0 ? static_cast<std::uint32_t>(
                                         params_.trials)
                                   : value;
                   }),
      "FLATTRI trial id == T");
  {
    // A run of two or more postings whose second posting repeats its first
    // (trial, subject): not strictly ascending.
    std::size_t second = 0;
    const FlatSketchIndex& flat = mapper.table().flat();
    for (const FlatSketchIndex::Slot& slot : flat.slots()) {
      if (slot.count >= 2) {
        second = slot.offset + 1;
        break;
      }
    }
    ASSERT_GT(second, 0u) << "no run of two postings";
    std::string tampered = bytes;
    for (const std::string_view tag : {"FLATTRI", "FLATSUB"}) {
      const SectionLoc& loc = find(tag);
      std::memcpy(tampered.data() + loc.payload + second * 4,
                  tampered.data() + loc.payload + (second - 1) * 4, 4);
      fix_checksum(tampered, loc);
    }
    expect_bad_section(tampered, "run repeats a (trial, subject) posting");

    // The same two postings swapped: descending.
    tampered = bytes;
    for (const std::string_view tag : {"FLATTRI", "FLATSUB"}) {
      const SectionLoc& loc = find(tag);
      char* const at = tampered.data() + loc.payload + (second - 1) * 4;
      std::swap_ranges(at, at + 4, at + 4);
      fix_checksum(tampered, loc);
    }
    expect_bad_section(tampered, "run descends by (trial, subject)");
  }
  {
    // A capacity that is not a power of two, and one past the slot array.
    const SectionLoc& geo = find("FLATGEO");
    for (const std::uint64_t capacity :
         {std::uint64_t{3}, std::uint64_t{1} << 40}) {
      std::string tampered = bytes;
      std::memcpy(tampered.data() + geo.payload, &capacity,
                  sizeof(capacity));
      fix_checksum(tampered, geo);
      expect_bad_section(tampered, "FLATGEO capacity");
    }
  }
}

TEST_F(IndexSerdeTest, VersionTwoArtifactIsBadVersion) {
  // A version-2 artifact (one slot region per trial) is refused by its
  // version; jem map --load-index logs it and rebuilds from FASTA.
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);
  const std::uint32_t version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  EXPECT_EQ(reason_of([&] {
              (void)deserialize_index(bytes, params_, SketchScheme::kJem,
                                      subjects_);
            }),
            io::ArtifactReason::kBadVersion);
}

TEST_F(IndexSerdeTest, VersionOneArtifactIsBadVersion) {
  // An artifact in the earlier format (version field 1, which also carried
  // the CSR sections) is refused by its version before any section is
  // read; every caller treats that as "rebuild from FASTA".
  const JemMapper mapper(subjects_, params_, SketchScheme::kJem);
  std::string bytes =
      serialize_index(mapper.table(), params_, SketchScheme::kJem, subjects_);
  const std::uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  EXPECT_EQ(reason_of([&] {
              (void)deserialize_index(bytes, params_, SketchScheme::kJem,
                                      subjects_);
            }),
            io::ArtifactReason::kBadVersion);

  const std::string path = ::testing::TempDir() + "/jem_index_v1.jemidx";
  io::atomic_write_file(path, bytes);
  EXPECT_EQ(reason_of([&] {
              (void)load_index(path, params_, SketchScheme::kJem, subjects_);
            }),
            io::ArtifactReason::kBadVersion);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace jem::core
