#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "util/fault_plan.hpp"

namespace jem::io {
namespace {

constexpr std::size_t kHeaderSize = 56;
constexpr std::size_t kRecordSize = 40;

JournalFingerprint test_fp() {
  JournalFingerprint fp;
  fp.words = {0x1111, 0x2222, 0x3333, 0x4444};
  return fp;
}

JournalRecord make_record(std::uint64_t batch) {
  JournalRecord record;
  record.batch_index = batch;
  record.records_done = (batch + 1) * 10;
  record.output_bytes = (batch + 1) * 100;
  record.output_hash = 0xabc0 + batch;
  return record;
}

ArtifactReason reason_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ArtifactError& error) {
    return error.reason();
  }
  ADD_FAILURE() << "expected an ArtifactError";
  return ArtifactReason::kIoError;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/jem_journal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckpt";
    remove_journal(path_);
  }
  void TearDown() override { remove_journal(path_); }

  std::string path_;
};

TEST_F(CheckpointTest, FreshJournalResumesAtZero) {
  CheckpointWriter::create(path_, test_fp()).close();
  const ResumePoint resume = read_journal(path_, test_fp());
  EXPECT_TRUE(resume.fresh());
  EXPECT_EQ(resume.batches_done, 0u);
  EXPECT_EQ(resume.torn_records, 0u);
}

TEST_F(CheckpointTest, RecordsRoundTrip) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    for (std::uint64_t b = 0; b < 3; ++b) writer.append(make_record(b));
    EXPECT_EQ(writer.records_appended(), 3u);
  }
  const ResumePoint resume = read_journal(path_, test_fp());
  EXPECT_EQ(resume.batches_done, 3u);
  EXPECT_EQ(resume.records_done, 30u);
  EXPECT_EQ(resume.output_bytes, 300u);
  EXPECT_EQ(resume.output_hash, 0xabc2u);
  EXPECT_EQ(resume.torn_records, 0u);
}

TEST_F(CheckpointTest, MissingJournalIsOpenFailed) {
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kOpenFailed);
}

TEST_F(CheckpointTest, ForeignFileIsBadMagic) {
  overwrite(path_, std::string(kHeaderSize, 'x'));
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kBadMagic);
}

TEST_F(CheckpointTest, ShortHeaderIsTruncated) {
  overwrite(path_, "JEMCKPT1short");
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kTruncated);
}

TEST_F(CheckpointTest, CorruptHeaderFailsItsChecksum) {
  CheckpointWriter::create(path_, test_fp()).close();
  std::string bytes = slurp(path_);
  bytes[20] ^= char(0x01);  // inside the fingerprint words
  overwrite(path_, bytes);
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kChecksumMismatch);
}

TEST_F(CheckpointTest, WrongFingerprintIsStale) {
  CheckpointWriter::create(path_, test_fp()).close();
  JournalFingerprint other = test_fp();
  other.words[2] ^= 1;
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, other); }),
            ArtifactReason::kStaleJournal);
}

TEST_F(CheckpointTest, TornTailRecordIsDiscardedNotFatal) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    writer.append(make_record(0));
    writer.append(make_record(1));
  }
  // A crash mid-append leaves a short tail; whatever its length, the last
  // durable record wins.
  for (const std::size_t torn_len : {1ul, 17ul, kRecordSize - 1}) {
    std::string bytes = slurp(path_);
    bytes.resize(kHeaderSize + 2 * kRecordSize);  // reset to two records
    bytes.append(torn_len, '\x5a');
    overwrite(path_, bytes);
    const ResumePoint resume = read_journal(path_, test_fp());
    EXPECT_EQ(resume.batches_done, 2u) << "torn tail of " << torn_len;
    EXPECT_EQ(resume.torn_records, 1u);
    EXPECT_EQ(resume.output_bytes, 200u);
  }
}

TEST_F(CheckpointTest, FullSizeCorruptTailIsAlsoDiscarded) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    writer.append(make_record(0));
    writer.append(make_record(1));
  }
  std::string bytes = slurp(path_);
  bytes.back() ^= char(0x01);  // last record's checksum no longer matches
  overwrite(path_, bytes);
  const ResumePoint resume = read_journal(path_, test_fp());
  EXPECT_EQ(resume.batches_done, 1u);
  EXPECT_EQ(resume.torn_records, 1u);
}

TEST_F(CheckpointTest, MidFileCorruptionIsFatal) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    for (std::uint64_t b = 0; b < 3; ++b) writer.append(make_record(b));
  }
  std::string bytes = slurp(path_);
  bytes[kHeaderSize + kRecordSize + 3] ^= char(0x01);  // record #1, not tail
  overwrite(path_, bytes);
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kChecksumMismatch);
}

TEST_F(CheckpointTest, NonContiguousBatchesAreStale) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    writer.append(make_record(0));
    writer.append(make_record(2));  // batch 1 never journaled
  }
  EXPECT_EQ(reason_of([&] { (void)read_journal(path_, test_fp()); }),
            ArtifactReason::kStaleJournal);
}

TEST_F(CheckpointTest, ReopenContinuesOnARecordBoundary) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    writer.append(make_record(0));
    writer.append(make_record(1));
  }
  {  // simulate the crash remainder reopen() must truncate away
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("torn", 4);
  }
  const ResumePoint resume = read_journal(path_, test_fp());
  ASSERT_EQ(resume.batches_done, 2u);
  ASSERT_EQ(resume.torn_records, 1u);
  {
    CheckpointWriter writer =
        CheckpointWriter::reopen(path_, test_fp(), resume);
    EXPECT_EQ(writer.records_appended(), 2u);
    writer.append(make_record(2));
  }
  const ResumePoint after = read_journal(path_, test_fp());
  EXPECT_EQ(after.batches_done, 3u);
  EXPECT_EQ(after.torn_records, 0u);
  EXPECT_EQ(after.output_bytes, 300u);
}

TEST_F(CheckpointTest, ReopenRejectsAJournalThatChangedSinceValidation) {
  CheckpointWriter::create(path_, test_fp()).close();
  ResumePoint claimed;
  claimed.batches_done = 5;  // the journal on disk has zero records
  EXPECT_EQ(reason_of([&] {
              (void)CheckpointWriter::reopen(path_, test_fp(), claimed);
            }),
            ArtifactReason::kStaleJournal);
}

TEST_F(CheckpointTest, AppendAfterCloseIsIoError) {
  CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
  writer.close();
  EXPECT_EQ(reason_of([&] { writer.append(make_record(0)); }),
            ArtifactReason::kIoError);
}

TEST_F(CheckpointTest, OutputStateProviderFillsRecords) {
  {
    CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
    writer.set_output_state([] {
      return std::pair<std::uint64_t, std::uint64_t>{777, 0xdeadULL};
    });
    writer.append_batch(0, 12);
  }
  const ResumePoint resume = read_journal(path_, test_fp());
  EXPECT_EQ(resume.records_done, 12u);
  EXPECT_EQ(resume.output_bytes, 777u);
  EXPECT_EQ(resume.output_hash, 0xdeadULL);
}

// --- "ckpt.write" fault site -----------------------------------------------

TEST_F(CheckpointTest, AbortFaultTearsAPartialRecord) {
  util::FaultPlan plan;
  plan.abort_at(0, "ckpt.write", 1);
  util::FaultInjector injector(&plan, 0);

  CheckpointWriter writer = CheckpointWriter::create(path_, test_fp());
  writer.set_fault_injector(&injector);
  writer.append(make_record(0));
  EXPECT_THROW(writer.append(make_record(1)), util::FaultAbort);
  writer.close();

  // Half a record reached the disk — exactly the crash artifact resume
  // tolerates.
  EXPECT_EQ(slurp(path_).size(), kHeaderSize + kRecordSize + kRecordSize / 2);
  const ResumePoint resume = read_journal(path_, test_fp());
  EXPECT_EQ(resume.batches_done, 1u);
  EXPECT_EQ(resume.torn_records, 1u);
}

}  // namespace
}  // namespace jem::io
