// rat.store.v1 journal: append/recover round trips, sequence-number
// discipline, tail truncation on reopen.
#include "store/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace rat::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_all(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

TEST(StoreJournal, MissingFileRecoversEmpty) {
  const fs::path dir = fresh_dir("store_journal_missing");
  const RecoveredJournal rec = recover_journal(dir / "journal");
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_EQ(rec.dropped_bytes, 0u);
  EXPECT_EQ(rec.last_seq, 0u);
}

TEST(StoreJournal, AppendThenRecoverRoundTrips) {
  const fs::path dir = fresh_dir("store_journal_roundtrip");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    EXPECT_EQ(w.append("alpha"), 1u);
    EXPECT_EQ(w.append(""), 2u);  // empty payloads are legal records
    EXPECT_EQ(w.append(std::string(1000, 'x')), 3u);
  }
  const RecoveredJournal rec = recover_journal(path);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[0].payload, "alpha");
  EXPECT_EQ(rec.records[0].seq, 1u);
  EXPECT_EQ(rec.records[1].payload, "");
  EXPECT_EQ(rec.records[2].payload, std::string(1000, 'x'));
  EXPECT_EQ(rec.last_seq, 3u);
  EXPECT_EQ(rec.dropped_bytes, 0u);
  EXPECT_EQ(rec.valid_bytes, fs::file_size(path));
}

TEST(StoreJournal, ReopenContinuesSequenceNumbers) {
  const fs::path dir = fresh_dir("store_journal_reopen");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    w.append("one");
    w.append("two");
  }
  RecoveredJournal rec;
  JournalWriter w(path, {}, &rec);
  EXPECT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(w.next_seq(), 3u);
  EXPECT_EQ(w.append("three"), 3u);
}

TEST(StoreJournal, MinLastSeqFloorsNumbering) {
  const fs::path dir = fresh_dir("store_journal_minseq");
  JournalWriter w(dir / "journal", {}, nullptr, /*min_last_seq=*/41);
  EXPECT_EQ(w.append("x"), 42u);
}

TEST(StoreJournal, AppendWithSeqKeepsOriginalNumbers) {
  const fs::path dir = fresh_dir("store_journal_explicit_seq");
  const fs::path path = dir / "journal";
  {
    JournalWriter w = JournalWriter::create(path);
    w.append_with_seq(5, "five");
    w.append_with_seq(9, "nine");  // gaps are legal
    w.sync();
  }
  const RecoveredJournal rec = recover_journal(path);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].seq, 5u);
  EXPECT_EQ(rec.records[1].seq, 9u);
  EXPECT_EQ(rec.last_seq, 9u);
}

TEST(StoreJournal, AppendWithRegressingSeqThrows) {
  const fs::path dir = fresh_dir("store_journal_regress");
  JournalWriter w = JournalWriter::create(dir / "journal");
  w.append_with_seq(5, "five");
  EXPECT_THROW(w.append_with_seq(5, "again"), StoreError);
  EXPECT_THROW(w.append_with_seq(4, "back"), StoreError);
}

TEST(StoreJournal, OversizedPayloadIsRejectedNotWritten) {
  const fs::path dir = fresh_dir("store_journal_oversize");
  const fs::path path = dir / "journal";
  JournalWriter w(path);
  w.append("ok");
  std::string huge;
  huge.resize(static_cast<std::size_t>(kMaxRecordBytes) + 1);
  EXPECT_THROW(w.append(huge), StoreError);
  // The rejected record must not have touched the file.
  const RecoveredJournal rec = recover_journal(path);
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.records[0].payload, "ok");
}

TEST(StoreJournal, CreateTruncatesExistingRecords) {
  const fs::path dir = fresh_dir("store_journal_create");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    w.append("stale");
  }
  {
    JournalWriter w = JournalWriter::create(path, {}, /*min_last_seq=*/10);
    w.append("fresh");
  }
  const RecoveredJournal rec = recover_journal(path);
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.records[0].payload, "fresh");
  EXPECT_EQ(rec.records[0].seq, 11u);
}

TEST(StoreJournal, OpeningTruncatesTornTail) {
  const fs::path dir = fresh_dir("store_journal_torn");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    w.append("kept");
    w.append("torn");
  }
  // Chop 3 bytes off the final record: a crashed mid-write.
  const std::uintmax_t size = fs::file_size(path);
  fs::resize_file(path, size - 3);
  RecoveredJournal rec;
  {
    JournalWriter w(path, {}, &rec);
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_EQ(rec.records[0].payload, "kept");
    EXPECT_GT(rec.dropped_bytes, 0u);
    // The writer physically removed the tail, and appends continue at 2.
    EXPECT_EQ(fs::file_size(path), rec.valid_bytes);
    EXPECT_EQ(w.append("replacement"), 2u);
  }
  const RecoveredJournal again = recover_journal(path);
  ASSERT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.records[1].payload, "replacement");
  EXPECT_EQ(again.dropped_bytes, 0u);
}

TEST(StoreJournal, BadMagicInvalidatesWholeFile) {
  const fs::path dir = fresh_dir("store_journal_magic");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    w.append("payload");
  }
  std::string bytes = read_all(path);
  bytes[0] = 'X';
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
  }
  const RecoveredJournal rec = recover_journal(path);
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.valid_bytes, 0u);
  EXPECT_EQ(rec.dropped_bytes, bytes.size());
}

TEST(StoreJournal, FrameRecordMatchesOnDiskBytes) {
  const fs::path dir = fresh_dir("store_journal_frame");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path);
    w.append("framed");
  }
  const std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), kJournalHeaderBytes);
  EXPECT_EQ(bytes.substr(kJournalHeaderBytes), frame_record(1, "framed"));
}

TEST(StoreJournal, MoveTransfersOwnership) {
  const fs::path dir = fresh_dir("store_journal_move");
  const fs::path path = dir / "journal";
  JournalWriter a(path);
  a.append("first");
  JournalWriter b(std::move(a));
  EXPECT_EQ(b.append("second"), 2u);
  b.sync();
  const RecoveredJournal rec = recover_journal(path);
  EXPECT_EQ(rec.records.size(), 2u);
}

TEST(StoreJournal, UnsyncedAppendsStillReadableAfterDestructor) {
  // sync_every_append=false defers fsync, but close still flushes the OS
  // buffer (write(2) already happened), so a clean shutdown loses nothing.
  const fs::path dir = fresh_dir("store_journal_nosync");
  const fs::path path = dir / "journal";
  {
    JournalWriter w(path, JournalWriter::Options{false});
    for (int i = 0; i < 100; ++i) w.append("r" + std::to_string(i));
  }
  EXPECT_EQ(recover_journal(path).records.size(), 100u);
}

}  // namespace
}  // namespace rat::store
