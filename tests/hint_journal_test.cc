// HintJournal: the hinted-handoff WAL behind the coordinator's quorum
// writes — append/retire bookkeeping, durability across reopen and
// power loss, torn tails, and compaction of applied history.

#include "serve/hint_journal.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "kv/env.h"
#include "kv/fault_injection_env.h"
#include "test_util.h"

namespace trass {
namespace serve {
namespace {

using core::Trajectory;

std::vector<Trajectory> Rows(uint64_t first_id, size_t count) {
  std::vector<Trajectory> rows(count);
  for (size_t i = 0; i < count; ++i) {
    rows[i].id = first_id + i;
    rows[i].points = {{0.1 * static_cast<double>(i + 1), 0.5}, {0.6, 0.7}};
  }
  return rows;
}

std::unique_ptr<HintJournal> OpenAt(const std::string& dir) {
  HintJournal::Options options;
  options.dir = dir;
  std::unique_ptr<HintJournal> journal;
  EXPECT_TRUE(HintJournal::Open(options, &journal).ok());
  return journal;
}

TEST(HintJournalTest, AppendPendingApplyLifecycle) {
  trass::testing::ScratchDir dir("hint_journal_basic");
  auto journal = OpenAt(dir.path() + "/hints");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->pending_records(), 0u);
  EXPECT_TRUE(journal->ShardsWithHints().empty());

  uint64_t seq_a = 0, seq_b = 0, seq_c = 0;
  ASSERT_TRUE(journal->Append(2, Rows(10, 3), &seq_a).ok());
  ASSERT_TRUE(journal->Append(0, Rows(20, 1), &seq_b).ok());
  ASSERT_TRUE(journal->Append(2, Rows(30, 2), &seq_c).ok());
  EXPECT_LT(seq_a, seq_b);
  EXPECT_LT(seq_b, seq_c);
  EXPECT_EQ(journal->pending_records(), 3u);
  EXPECT_EQ(journal->ShardsWithHints(), (std::vector<size_t>{0, 2}));

  // Per-shard snapshots come back oldest first with the rows intact.
  const auto shard2 = journal->Pending(2);
  ASSERT_EQ(shard2.size(), 2u);
  EXPECT_EQ(shard2[0].seq, seq_a);
  EXPECT_EQ(shard2[1].seq, seq_c);
  ASSERT_EQ(shard2[0].rows.size(), 3u);
  EXPECT_EQ(shard2[0].rows[1].id, 11u);
  ASSERT_EQ(shard2[0].rows[1].points.size(), 2u);
  EXPECT_DOUBLE_EQ(shard2[0].rows[1].points[0].x, 0.2);

  // Retiring hints removes them; unknown seqs are a harmless no-op.
  ASSERT_TRUE(journal->MarkApplied(seq_a).ok());
  EXPECT_TRUE(journal->MarkApplied(987654).ok());
  EXPECT_EQ(journal->pending_records(), 2u);
  EXPECT_EQ(journal->Pending(2).size(), 1u);

  const auto stats = journal->stats();
  EXPECT_EQ(stats.appended, 3u);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.pending, 2u);
  EXPECT_EQ(stats.pending_rows, 3u);  // 1 (shard 0) + 2 (shard 2)

  // An empty hint is a caller bug, not a record.
  EXPECT_TRUE(journal->Append(1, {}).IsInvalidArgument());
}

TEST(HintJournalTest, PendingHintsSurviveReopenAppliedDoNot) {
  trass::testing::ScratchDir dir("hint_journal_reopen");
  const std::string path = dir.path() + "/hints";
  uint64_t retired = 0;
  {
    auto journal = OpenAt(path);
    ASSERT_NE(journal, nullptr);
    ASSERT_TRUE(journal->Append(1, Rows(100, 2), &retired).ok());
    ASSERT_TRUE(journal->Append(0, Rows(200, 1)).ok());
    ASSERT_TRUE(journal->Append(1, Rows(300, 4)).ok());
    ASSERT_TRUE(journal->MarkApplied(retired).ok());
  }
  auto journal = OpenAt(path);
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->pending_records(), 2u);
  EXPECT_EQ(journal->stats().recovered, 2u);
  EXPECT_TRUE(journal->Pending(1).size() == 1 &&
              journal->Pending(1)[0].rows.size() == 4u)
      << "applied hint came back from the dead";
  // Sequence numbers keep advancing past everything recovered, so a
  // replayed MarkApplied can never retire a fresh hint by accident.
  uint64_t fresh = 0;
  ASSERT_TRUE(journal->Append(2, Rows(400, 1), &fresh).ok());
  EXPECT_GT(fresh, retired);
  EXPECT_EQ(journal->pending_records(), 3u);
}

// Append syncs every hint before it returns: a power loss right after
// the ack (every unsynced byte dropped) still leaves the hint pending.
TEST(HintJournalTest, AckedHintSurvivesPowerLoss) {
  trass::testing::ScratchDir dir("hint_journal_power_loss");
  kv::FaultInjectionEnv env(kv::Env::Default());
  HintJournal::Options options;
  options.env = &env;
  options.dir = dir.path() + "/hints";
  {
    std::unique_ptr<HintJournal> journal;
    ASSERT_TRUE(HintJournal::Open(options, &journal).ok());
    ASSERT_TRUE(journal->Append(3, Rows(700, 2)).ok());
    // Crash: the dying process can no longer write (so the destructor's
    // own sync cannot rescue the record), then unsynced data is lost.
    env.SetFilesystemActive(false);
    ASSERT_TRUE(env.DropUnsyncedData().ok());
  }
  env.SetFilesystemActive(true);
  std::unique_ptr<HintJournal> journal;
  ASSERT_TRUE(HintJournal::Open(options, &journal).ok());
  EXPECT_EQ(journal->pending_records(), 1u);
  const auto hints = journal->Pending(3);
  ASSERT_EQ(hints.size(), 1u);
  ASSERT_EQ(hints[0].rows.size(), 2u);
  EXPECT_EQ(hints[0].rows[0].id, 700u);
  EXPECT_EQ(hints[0].rows[1].id, 701u);
}

TEST(HintJournalTest, ToleratesATornTail) {
  trass::testing::ScratchDir dir("hint_journal_torn");
  const std::string path = dir.path() + "/hints";
  {
    auto journal = OpenAt(path);
    ASSERT_NE(journal, nullptr);
    ASSERT_TRUE(journal->Append(0, Rows(1, 2)).ok());
    ASSERT_TRUE(journal->Append(1, Rows(10, 2)).ok());
  }
  // Crash mid-append: chop bytes off the log's tail.
  kv::Env* env = kv::Env::Default();
  const std::string log = path + "/hints.log";
  uint64_t size = 0;
  ASSERT_TRUE(env->GetFileSize(log, &size).ok());
  ASSERT_GT(size, 6u);
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(log, &contents).ok());
  ASSERT_EQ(contents.size(), size);
  {
    std::unique_ptr<kv::WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(log, &file).ok());
    ASSERT_TRUE(file->Append(Slice(contents.data(), size - 5)).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto journal = OpenAt(path);
  ASSERT_NE(journal, nullptr);
  // The fully-synced first record survives; the torn second one is
  // dropped cleanly instead of poisoning recovery.
  EXPECT_EQ(journal->pending_records(), 1u);
  ASSERT_EQ(journal->Pending(0).size(), 1u);
  EXPECT_EQ(journal->Pending(0)[0].rows.size(), 2u);
}

TEST(HintJournalTest, DrainingTheBacklogCompactsTheLog) {
  trass::testing::ScratchDir dir("hint_journal_compact");
  const std::string path = dir.path() + "/hints";
  kv::Env* env = kv::Env::Default();
  auto journal = OpenAt(path);
  ASSERT_NE(journal, nullptr);
  std::vector<uint64_t> seqs(8);
  for (size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_TRUE(journal->Append(i % 3, Rows(i * 10, 2), &seqs[i]).ok());
  }
  uint64_t full_size = 0;
  ASSERT_TRUE(env->GetFileSize(path + "/hints.log", &full_size).ok());
  const uint64_t compactions_before = journal->stats().compactions;
  for (uint64_t seq : seqs) {
    ASSERT_TRUE(journal->MarkApplied(seq).ok());
  }
  // Backlog drained: the log was rewritten empty rather than keeping
  // the full hint + applied history around forever.
  EXPECT_GT(journal->stats().compactions, compactions_before);
  uint64_t drained_size = 0;
  ASSERT_TRUE(env->GetFileSize(path + "/hints.log", &drained_size).ok());
  EXPECT_LT(drained_size, full_size);
  EXPECT_EQ(journal->pending_records(), 0u);

  // The journal still accepts appends on the compacted file.
  ASSERT_TRUE(journal->Append(1, Rows(500, 1)).ok());
  EXPECT_EQ(journal->pending_records(), 1u);
}

TEST(HintJournalTest, OpenRequiresADirectory) {
  std::unique_ptr<HintJournal> journal;
  EXPECT_TRUE(HintJournal::Open(HintJournal::Options{}, &journal)
                  .IsInvalidArgument());
  EXPECT_EQ(journal, nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace trass
