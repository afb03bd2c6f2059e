// Unit and recovery tests for the durable-state subsystem
// (src/storage/): journal framing and scanning, checkpointing, crash-free
// recovery, replay determinism, and fault-injected append/checkpoint
// failures. The process-kill matrix lives in storage_crash_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/dump.h"
#include "storage/checkpoint.h"
#include "storage/fsck.h"
#include "storage/journal.h"
#include "storage/journaled_database.h"
#include "util/failpoint.h"
#include "util/io.h"

namespace logres {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures

const char* kSchema = R"(
  classes PERSON = (name: string);
  associations
    SEED = (name: string);
    KNOWS = (a: string, b: string);
)";

// Commits a tuple insertion (no oids).
const char* kTupleModule = R"(rules knows(a: "ann", b: "bob").)";

// Invents one PERSON object (consumes an oid), seeded from within the
// module so the whole change is journaled.
const char* kInventModule = R"(
  rules
    seed(name: "zoe").
    person(self P, name: N) <- seed(name: N).
)";

const char* kInventModule2 = R"(
  rules
    seed(name: "yan").
    person(self P, name: N) <- seed(name: N).
)";

std::string MakeTempDir() {
  std::string templ = ::testing::TempDir() + "logres_storage_XXXXXX";
  char* got = ::mkdtemp(templ.data());
  EXPECT_NE(got, nullptr);
  return templ;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Drops the "generator N;" line: a failed journal append rolls back the
// state triple but deliberately NOT the oid generator (consumed oids are
// never reused), so rollback assertions compare everything but it.
std::string StripGeneratorLine(const std::string& dump) {
  size_t pos = dump.find("generator ");
  if (pos == std::string::npos) return dump;
  size_t eol = dump.find('\n', pos);
  return dump.substr(0, pos) + dump.substr(eol + 1);
}

// ---------------------------------------------------------------------------
// Journal framing

TEST(JournalFormatTest, EncodeDecodeRoundTrip) {
  JournalRecord rec;
  rec.seq = 42;
  rec.mode = ApplicationMode::kRADV;
  rec.gen_before = 7;
  rec.gen_after = 9;
  rec.steps = 13;
  rec.facts = 101;
  rec.module_source = "rules knows(a: \"x\", b: \"y\").\n-- trailing";

  std::string frame = EncodeJournalRecord(rec);
  ASSERT_GT(frame.size(), 8u);
  // Strip the length+crc frame and decode the payload.
  auto decoded = DecodeJournalPayload(frame.substr(8));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->mode, ApplicationMode::kRADV);
  EXPECT_EQ(decoded->gen_before, 7u);
  EXPECT_EQ(decoded->gen_after, 9u);
  EXPECT_EQ(decoded->steps, 13u);
  EXPECT_EQ(decoded->facts, 101u);
  EXPECT_EQ(decoded->module_source, rec.module_source);
}

TEST(JournalFormatTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeJournalPayload("").ok());
  EXPECT_FALSE(DecodeJournalPayload("not a header\nrules").ok());
  EXPECT_FALSE(
      DecodeJournalPayload("apply seq=x mode=RIDI gen_before=0 "
                           "gen_after=0 steps=0 facts=0\n").ok());
}

TEST(JournalTest, OpenAppendScanRoundTrip) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/journal";
  {
    auto journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    JournalRecord rec;
    rec.seq = 1;
    rec.mode = ApplicationMode::kRIDV;
    rec.module_source = "rules knows(a: \"a\", b: \"b\").";
    ASSERT_TRUE(journal->Append(rec).ok());
    rec.seq = 2;
    ASSERT_TRUE(journal->Append(rec).ok());
    EXPECT_EQ(journal->live_records(), 2u);
  }
  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].seq, 1u);
  EXPECT_EQ(scan->records[1].seq, 2u);
  EXPECT_EQ(scan->torn_bytes, 0u);
  EXPECT_TRUE(scan->warnings.empty());

  // Reopening picks the records back up.
  auto reopened = Journal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->live_records(), 2u);
  EXPECT_EQ(reopened->recovered().records.size(), 2u);
}

TEST(JournalTest, TornSuffixIsTruncatedWithWarning) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/journal";
  {
    auto journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    JournalRecord rec;
    rec.seq = 1;
    rec.module_source = "rules knows(a: \"a\", b: \"b\").";
    ASSERT_TRUE(journal->Append(rec).ok());
  }
  // Simulate a crash mid-append: a partial frame at the tail (explicit
  // length — the bytes contain NULs).
  std::string bytes = ReadFile(path);
  WriteFile(path, bytes + std::string("\x30\x00\x00\x00\xde\xad", 6));

  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->torn_bytes, 6u);
  ASSERT_FALSE(scan->warnings.empty());

  // Open truncates the tail; the next scan is clean.
  auto reopened = Journal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->live_records(), 1u);
  auto rescan = ScanJournal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->torn_bytes, 0u);
  EXPECT_TRUE(rescan->warnings.empty());
}

TEST(JournalTest, CorruptCrcDropsRecordAndSuffix) {
  std::string dir = MakeTempDir();
  std::string path = dir + "/journal";
  uint64_t first_end = 0;
  {
    auto journal = Journal::Open(path);
    ASSERT_TRUE(journal.ok()) << journal.status();
    JournalRecord rec;
    rec.seq = 1;
    rec.module_source = "rules knows(a: \"a\", b: \"b\").";
    ASSERT_TRUE(journal->Append(rec).ok());
    first_end = journal->size_bytes();
    rec.seq = 2;
    ASSERT_TRUE(journal->Append(rec).ok());
  }
  // Flip one payload byte inside the FIRST record: both it and the
  // (intact) second record must be discarded — replay never jumps a gap.
  std::string bytes = ReadFile(path);
  bytes[first_end - 1] ^= 0x01;
  WriteFile(path, bytes);

  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records.size(), 0u);
  EXPECT_GT(scan->torn_bytes, 0u);
  EXPECT_FALSE(scan->warnings.empty());
}

// ---------------------------------------------------------------------------
// JournaledDatabase: lifecycle + recovery

TEST(JournaledDatabaseTest, CreateOpenRoundTrip) {
  std::string dir = MakeTempDir();
  std::string live_dump;
  {
    auto store = JournaledDatabase::Create(dir, kSchema);
    ASSERT_TRUE(store.ok()) << store.status();
    auto r1 = store->ApplySource(kTupleModule, ApplicationMode::kRIDV);
    ASSERT_TRUE(r1.ok()) << r1.status();
    auto r2 = store->ApplySource(kInventModule, ApplicationMode::kRIDV);
    ASSERT_TRUE(r2.ok()) << r2.status();
    live_dump = DumpDatabase(store->db());
    StorageStatus st = store->status();
    EXPECT_EQ(st.last_seq, 2u);
    EXPECT_EQ(st.checkpoint_seq, 0u);
    EXPECT_EQ(st.journal_records, 2u);
    EXPECT_GT(st.steps_total, 0u);
    EXPECT_GT(st.facts_last, 0u);
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
  StorageStatus st = reopened->status();
  EXPECT_EQ(st.last_seq, 2u);
  EXPECT_EQ(st.replayed_at_open, 2u);
  EXPECT_EQ(st.truncated_bytes_at_open, 0u);
}

// A state built through the host API may name an oid the generator has
// not issued (a dangling reference, which queries reject). Create
// acknowledges it, so Open must recover it.
TEST(JournaledDatabaseTest, HostStateNamingAnUnissuedOidRecovers) {
  auto db = Database::Create(R"(
    classes PERSON = (name: string);
    associations PARENT = (par: PERSON, chi: PERSON);
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  auto ann = db->InsertObject(
      "PERSON", Value::MakeTuple({{"name", Value::String("ann")}}));
  ASSERT_TRUE(ann.ok()) << ann.status();
  ASSERT_TRUE(db->InsertTuple(
                    "PARENT",
                    Value::MakeTuple({{"par", Value::MakeOid(*ann)},
                                      {"chi", Value::MakeOid(Oid{999})}}))
                  .ok());
  std::string dir = MakeTempDir();
  std::string live_dump;
  {
    auto store = JournaledDatabase::Create(dir, std::move(db).value());
    ASSERT_TRUE(store.ok()) << store.status();
    live_dump = DumpDatabase(store->db());
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
}

TEST(JournaledDatabaseTest, CreateRefusesExistingStore) {
  std::string dir = MakeTempDir();
  {
    auto store = JournaledDatabase::Create(dir, kSchema);
    ASSERT_TRUE(store.ok()) << store.status();
  }
  auto again = JournaledDatabase::Create(dir, kSchema);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST(JournaledDatabaseTest, OpenRefusesMissingStore) {
  std::string dir = MakeTempDir();
  auto store = JournaledDatabase::Open(dir + "/nothing_here");
  EXPECT_FALSE(store.ok());
}

TEST(JournaledDatabaseTest, ReplayIsDeterministicAcrossRejectedApplies) {
  // Rejected applications consume oids without being journaled; replay
  // must still reproduce the exact invented oids (via gen_before
  // fast-forwarding) and the exact final generator position.
  std::string dir = MakeTempDir();
  std::string live_dump;
  uint64_t live_issued = 0;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;  // keep everything in the journal
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    {
      // A failure after full evaluation: oids were consumed, nothing
      // committed, nothing journaled.
      ScopedFailpoint fp("db.apply.commit",
                         Status::ExecutionError("injected"));
      auto rejected =
          store->ApplySource(kInventModule2, ApplicationMode::kRIDV);
      ASSERT_FALSE(rejected.ok());
    }
    auto r = store->ApplySource(kInventModule2, ApplicationMode::kRIDV);
    ASSERT_TRUE(r.ok()) << r.status();
    live_dump = DumpDatabase(store->db());
    live_issued = store->db().oids_issued();
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
  EXPECT_EQ(reopened->db().oids_issued(), live_issued);
  EXPECT_TRUE(reopened->status().warnings.empty())
      << reopened->status().warnings[0];
}

TEST(JournaledDatabaseTest, CheckpointEmptiesJournalAndRecovers) {
  std::string dir = MakeTempDir();
  std::string live_dump;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_EQ(store->status().checkpoint_seq, 1u);
    EXPECT_EQ(store->status().journal_records, 0u);
    // One more commit after the checkpoint: replayed from the journal.
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    live_dump = DumpDatabase(store->db());
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
  EXPECT_EQ(reopened->status().replayed_at_open, 1u);
  EXPECT_EQ(reopened->status().checkpoint_seq, 1u);
}

TEST(JournaledDatabaseTest, AutoCheckpointAtInterval) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 2;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(
      store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  EXPECT_EQ(store->status().checkpoint_seq, 0u);
  ASSERT_TRUE(
      store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
  EXPECT_EQ(store->status().checkpoint_seq, 2u);
  EXPECT_EQ(store->status().journal_records, 0u);
  ASSERT_TRUE(
      store->ApplySource(kInventModule2, ApplicationMode::kRIDV).ok());
  EXPECT_EQ(store->status().checkpoint_seq, 2u);
  EXPECT_EQ(store->status().journal_records, 1u);
}

TEST(JournaledDatabaseTest, StaleJournalRecordsAreSkippedAfterCheckpointCrash) {
  // The crash window between the checkpoint rename and the journal reset
  // leaves a new CHECKPOINT alongside a journal that still holds the
  // records it covers. Recovery must skip them (warning, not error).
  std::string dir = MakeTempDir();
  std::string live_dump;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    {
      ScopedFailpoint fp("checkpoint.truncate",
                         Status::ExecutionError("injected"));
      EXPECT_FALSE(store->Checkpoint().ok());
    }
    live_dump = DumpDatabase(store->db());
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
  EXPECT_EQ(reopened->status().checkpoint_seq, 1u);
  EXPECT_EQ(reopened->status().replayed_at_open, 0u);
  ASSERT_FALSE(reopened->status().warnings.empty());
}

TEST(JournaledDatabaseTest, TornFinalRecordRecoversByTruncation) {
  std::string dir = MakeTempDir();
  std::string live_dump;
  {
    auto store = JournaledDatabase::Create(dir, kSchema);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    live_dump = DumpDatabase(store->db());
  }
  // A torn frame at the tail, as a crash mid-append would leave.
  std::string path = dir + "/journal";
  WriteFile(path,
            ReadFile(path) + std::string("\xff\x00\x00\x00garbage", 11));

  std::string dump2;
  {
    auto reopened = JournaledDatabase::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(DumpDatabase(reopened->db()), live_dump);
    EXPECT_GT(reopened->status().truncated_bytes_at_open, 0u);
    ASSERT_FALSE(reopened->status().warnings.empty());

    // The store is fully usable after truncation: commit again, reopen.
    ASSERT_TRUE(
        reopened->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    dump2 = DumpDatabase(reopened->db());
  }
  auto again = JournaledDatabase::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(DumpDatabase(again->db()), dump2);
  EXPECT_EQ(again->status().truncated_bytes_at_open, 0u);
}

// ---------------------------------------------------------------------------
// Fault-injected append failures: memory must never run ahead of disk.

TEST(JournaledDatabaseTest, FailedAppendRollsBackMemoryAndDisk) {
  for (const char* site : {"journal.append", "journal.fsync"}) {
    std::string dir = MakeTempDir();
    std::string pre_dump;
    {
      auto store = JournaledDatabase::Create(dir, kSchema);
      ASSERT_TRUE(store.ok()) << store.status();
      ASSERT_TRUE(
          store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
      pre_dump = DumpDatabase(store->db());
      uint64_t bytes_before = store->status().journal_bytes;
      {
        ScopedFailpoint fp(site, Status::ExecutionError("injected"));
        auto result =
            store->ApplySource(kInventModule, ApplicationMode::kRIDV);
        ASSERT_FALSE(result.ok()) << site;
        EXPECT_EQ(fp.hit_count(), 1u) << site;
      }
      // In-memory state rolled back (the generator stays forward: the
      // evaluation consumed oids, and consumed oids are never reused)...
      EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())),
                StripGeneratorLine(pre_dump))
          << site;
      EXPECT_GT(store->db().oids_issued(), 0u) << site;
      EXPECT_EQ(store->status().last_seq, 1u) << site;
      // ...and the journal file holds no partial frame.
      EXPECT_EQ(store->status().journal_bytes, bytes_before) << site;
      // The store keeps working after the fault.
      ASSERT_TRUE(
          store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok())
          << site;
    }
    auto reopened = JournaledDatabase::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->status().last_seq, 2u) << site;
  }
}

TEST(JournaledDatabaseTest, FailedAutoCheckpointIsAWarningNotAnError) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 1;  // checkpoint after every commit
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  {
    ScopedFailpoint fp("checkpoint.write",
                       Status::ExecutionError("injected"));
    // The commit itself must succeed; only the background checkpoint
    // fails, surfaced as a warning.
    auto result = store->ApplySource(kTupleModule, ApplicationMode::kRIDV);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(store->status().checkpoint_seq, 0u);
  ASSERT_FALSE(store->status().warnings.empty());
  EXPECT_NE(store->status().warnings.back().find("checkpoint"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Graceful degradation: persistent I/O faults flip the store read-only;
// clearing the fault and Reopen() resumes with nothing lost.

TEST(DegradedModeTest, PersistentEnospcEntersReadOnlyAndReopenResumes) {
  std::string dir = MakeTempDir();
  FaultyIo fio(FaultyIo::Config{});
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.io = &fio;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  std::string pre = StripGeneratorLine(DumpDatabase(store->db()));

  // The disk fills up: every write from here on fails with ENOSPC.
  fio.InjectErrno(FaultyIo::Op::kWrite, ENOSPC);
  auto failed = store->ApplySource(kInventModule, ApplicationMode::kRIDV);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store->degraded());
  EXPECT_FALSE(store->degraded_reason().ok());
  // The application was rolled back — memory never runs ahead of disk.
  EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())), pre);

  // Reads keep working; writes are refused up front with the root cause
  // and without touching the state (no oids consumed).
  uint64_t issued = store->db().oids_issued();
  auto refused = store->ApplySource(kInventModule2, ApplicationMode::kRIDV);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("degraded"), std::string::npos);
  EXPECT_EQ(store->db().oids_issued(), issued);
  EXPECT_FALSE(store->Checkpoint().ok());
  EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())), pre);

  StorageStatus status = store->status();
  EXPECT_TRUE(status.degraded);
  EXPECT_FALSE(status.degraded_reason.empty());
  ASSERT_FALSE(status.warnings.empty());

  // Recovery itself is read-only, so a full disk alone does not block
  // it — but a disk that cannot be *read* does: Reopen must fail and
  // leave the store degraded with its state intact.
  fio.InjectErrno(FaultyIo::Op::kRead, EIO);
  EXPECT_FALSE(store->Reopen().ok());
  EXPECT_TRUE(store->degraded());
  EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())), pre);

  // The disk comes back: recovery re-verifies the tail from a fresh
  // scan and the store resumes exactly where it acknowledged.
  fio.ClearInjected();
  Status resumed = store->Reopen();
  ASSERT_TRUE(resumed.ok()) << resumed;
  EXPECT_FALSE(store->degraded());
  EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())), pre);
  ASSERT_TRUE(store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok())
      << "resumed store must accept writes again";

  // And the post-resume commit is durable.
  std::string final_dump = StripGeneratorLine(DumpDatabase(store->db()));
  store = JournaledDatabase::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(StripGeneratorLine(DumpDatabase(store->db())), final_dump);
}

TEST(DegradedModeTest, ReopenOnHealthyStoreIsSafe) {
  std::string dir = MakeTempDir();
  auto store = JournaledDatabase::Create(dir, kSchema);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  std::string before = DumpDatabase(store->db());
  ASSERT_TRUE(store->Reopen().ok());
  EXPECT_FALSE(store->degraded());
  EXPECT_EQ(DumpDatabase(store->db()), before);
  EXPECT_TRUE(store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
}

// Failpoint-injected append failures model *logic* errors
// (ExecutionError), not media faults: they roll back but must NOT
// degrade the store — only kUnavailable does.
TEST(DegradedModeTest, InjectedExecutionErrorDoesNotDegrade) {
  std::string dir = MakeTempDir();
  auto store = JournaledDatabase::Create(dir, kSchema);
  ASSERT_TRUE(store.ok()) << store.status();
  {
    ScopedFailpoint fp("journal.append", Status::ExecutionError("boom"));
    EXPECT_FALSE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  }
  EXPECT_FALSE(store->degraded());
  EXPECT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
}

// ---------------------------------------------------------------------------
// Journal rotation on checkpoint.

TEST(RotationTest, CheckpointRotatesJournalAndPrunesOldFiles) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 2;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/journal." + std::to_string(seq) + ".old"))
        << "checkpoint " << seq;
  }
  // Only the newest `keep` rotated files survive pruning.
  EXPECT_FALSE(std::filesystem::exists(dir + "/journal.1.old"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/journal.2.old"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/journal.3.old"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/journal.4.old"));
  EXPECT_EQ(store->status().rotated_journals, 2u);
  EXPECT_EQ(store->status().journal_records, 0u);

  // Rotated journals are inert: recovery reads only CHECKPOINT + the
  // live journal.
  std::string final_dump = DumpDatabase(store->db());
  auto reopened = JournaledDatabase::Open(dir, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), final_dump);
  EXPECT_EQ(reopened->status().rotated_journals, 2u);
}

TEST(RotationTest, KeepZeroEmptiesInPlaceWithoutRotatedFiles) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 0;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/journal.1.old"));
  EXPECT_EQ(store->status().rotated_journals, 0u);
  EXPECT_EQ(store->status().journal_records, 0u);
}

// ---------------------------------------------------------------------------
// Module durability: dumps carry `module` blocks (v2), so ApplyByName
// works against a recovered store.

TEST(JournaledDatabaseTest, RegisteredModulesSurviveRecovery) {
  const char* schema_with_module = R"(
    classes PERSON = (name: string);
    associations
      SEED = (name: string);
      KNOWS = (a: string, b: string);
    module grow options RIDV
      rules
        knows(a: "m1", b: "m2").
    end
  )";
  std::string dir = MakeTempDir();
  std::string after_run;
  {
    auto store = JournaledDatabase::Create(dir, schema_with_module);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_EQ(store->db().registered_modules().size(), 1u);
    auto run = store->ApplyByName("grow");
    ASSERT_TRUE(run.ok()) << run.status();
    after_run = DumpDatabase(store->db());
  }
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->db().registered_modules().size(), 1u);
  EXPECT_EQ(reopened->db().registered_modules()[0].name, "grow");
  EXPECT_EQ(DumpDatabase(reopened->db()), after_run);
  // And the recovered registry still drives durable applications.
  EXPECT_TRUE(reopened->ApplyByName("grow").ok());
  EXPECT_FALSE(reopened->ApplyByName("nosuch").ok());
}

// ---------------------------------------------------------------------------
// Hostile reads: randomized corrupt-on-read/short-read/error-on-read
// schedules over recovery. Open may refuse, but must never crash; and
// because every journal record carries a CRC, anything a hostile scan
// destroys truncates to a recorded state — a clean reopen afterwards
// always lands on one of them.

TEST(HostileReadTest, RecoveryUnderCorruptReadsNeverCrashesOrHybrids) {
  std::string dir = MakeTempDir();
  std::vector<std::string> ladder;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ladder.push_back(StripGeneratorLine(DumpDatabase(store->db())));
    const char* mods[] = {kTupleModule, kInventModule, kInventModule2};
    for (const char* m : mods) {
      ASSERT_TRUE(store->ApplySource(m, ApplicationMode::kRIDV).ok());
      ladder.push_back(StripGeneratorLine(DumpDatabase(store->db())));
    }
  }
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    std::string work = MakeTempDir();
    std::filesystem::copy(dir, work,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);
    {
      FaultyIo::Config cfg;
      cfg.seed = seed;
      cfg.p_read_corrupt = 0.4;
      cfg.p_short_read = 0.4;
      cfg.p_read_error = 0.1;
      FaultyIo fio(cfg);
      StorageOptions opts;
      opts.checkpoint_interval = 0;
      opts.io = &fio;
      auto hostile = JournaledDatabase::Open(work, opts);
      (void)hostile;  // error or store — either is fine; crashing is not
    }
    auto clean = JournaledDatabase::Open(work);
    ASSERT_TRUE(clean.ok()) << "seed " << seed << ": " << clean.status();
    std::string got = StripGeneratorLine(DumpDatabase(clean->db()));
    bool on_ladder = false;
    for (const std::string& rung : ladder) on_ladder |= (got == rung);
    EXPECT_TRUE(on_ladder)
        << "seed " << seed
        << ": clean recovery after a hostile scan is not any recorded state";
  }
}

// ---------------------------------------------------------------------------
// Checkpoint format v2: self-verifying envelope, v1 compatibility.

TEST(CheckpointFormatTest, V2RoundTripVerifiesAndRejectsAnyDamage) {
  std::string text = EncodeCheckpoint(7, "schema PERSON;\nbody line\n");
  auto info = VerifyCheckpointText(text);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->seq, 7u);
  EXPECT_EQ(info->version, 2);
  EXPECT_TRUE(info->verified);
  EXPECT_EQ(info->bytes, text.size());

  // Any single flipped byte — header, body, or footer — must fail
  // verification, and so must truncation at any length: a truncated v2
  // file never passes itself off as a short v1.
  for (size_t off = 0; off < text.size(); ++off) {
    std::string bad = text;
    bad[off] = static_cast<char>(bad[off] ^ 0xFF);
    EXPECT_FALSE(VerifyCheckpointText(bad).ok()) << "flip at offset " << off;
  }
  for (size_t len = 0; len < text.size(); ++len) {
    EXPECT_FALSE(VerifyCheckpointText(text.substr(0, len)).ok())
        << "truncated to " << len;
  }
}

TEST(CheckpointFormatTest, V1ParsesButIsUnverified) {
  auto info = VerifyCheckpointText("-- logres checkpoint seq=3\nbody\n");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, 1);
  EXPECT_FALSE(info->verified);
  EXPECT_EQ(info->seq, 3u);
}

TEST(CheckpointGenerationTest, V1HeadCheckpointStillLoads) {
  std::string dir = MakeTempDir();
  std::string acked;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    acked = DumpDatabase(store->db());
  }
  // Rewrite HEAD as a pre-ladder v1 file: v1 header, no CRC footer.
  std::string text = ReadFile(dir + "/CHECKPOINT");
  auto info = VerifyCheckpointText(text);
  ASSERT_TRUE(info.ok()) << info.status();
  size_t body_start = text.find('\n') + 1;
  size_t footer = text.rfind("-- logres checkpoint-crc32 ");
  ASSERT_NE(footer, std::string::npos);
  WriteFile(dir + "/CHECKPOINT",
            "-- logres checkpoint seq=" + std::to_string(info->seq) + "\n" +
                text.substr(body_start, footer - body_start));

  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(DumpDatabase(reopened->db()), acked);
  EXPECT_EQ(reopened->status().recovered_fallback_depth, 0u);
  auto gens = reopened->Generations();
  ASSERT_FALSE(gens.empty());
  EXPECT_TRUE(gens[0].head);
  EXPECT_EQ(gens[0].version, 1);
  EXPECT_FALSE(gens[0].verified);
  EXPECT_TRUE(gens[0].usable);
}

TEST(CheckpointGenerationTest, GenerationsPruneInLockstepWithJournals) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 2;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok()) << "checkpoint " << seq;
  }
  // Generations prune with the same keep-count as rotated journals
  // (which the RotationTest above pins to {3,4}): every surviving
  // generation keeps the rotated chain that bridges it to HEAD.
  EXPECT_FALSE(std::filesystem::exists(dir + "/CHECKPOINT.0.old"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/CHECKPOINT.1.old"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/CHECKPOINT.2.old"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/CHECKPOINT.3.old"));
  EXPECT_EQ(store->status().checkpoint_generations, 2u);

  auto gens = store->Generations();
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_TRUE(gens[0].head);
  EXPECT_EQ(gens[0].seq, 4u);
  EXPECT_EQ(gens[1].seq, 3u);
  EXPECT_EQ(gens[2].seq, 2u);
  for (const auto& g : gens) {
    EXPECT_TRUE(g.verified) << "seq " << g.seq;
    EXPECT_TRUE(g.usable) << "seq " << g.seq;
    EXPECT_TRUE(g.chain_covered) << "seq " << g.seq;
  }
}

TEST(CheckpointGenerationTest, TmpDebrisIsRemovedWithWarning) {
  std::string dir = MakeTempDir();
  {
    auto store = JournaledDatabase::Create(dir, kSchema);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  }
  WriteFile(dir + "/CHECKPOINT.tmp", "half-written checkpoint");
  auto reopened = JournaledDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(std::filesystem::exists(dir + "/CHECKPOINT.tmp"));
  bool mentioned = false;
  for (const std::string& w : reopened->status().warnings) {
    mentioned |= w.find("CHECKPOINT.tmp") != std::string::npos;
  }
  EXPECT_TRUE(mentioned)
      << "tmp debris removal must be recorded, not silent";
}

// ---------------------------------------------------------------------------
// Hostile checkpoints: the recovery escalation ladder. Corrupting the
// live CHECKPOINT at ANY byte offset — or truncating it at ANY length —
// must fall back to the retained generation and chain-replay onto the
// byte-identical acknowledged state: a warning, never an error, never a
// hybrid.

TEST(HostileCheckpointTest, ByteFlipSweepFallsBackByteIdentical) {
  std::string dir = MakeTempDir();
  std::string acked;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    opts.rotated_journals_keep = 2;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    acked = DumpDatabase(store->db());
  }
  const std::string pristine = ReadFile(dir + "/CHECKPOINT");
  ASSERT_FALSE(pristine.empty());
  for (size_t off = 0; off < pristine.size(); ++off) {
    std::string bytes = pristine;
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
    WriteFile(dir + "/CHECKPOINT", bytes);
    auto reopened = JournaledDatabase::Open(dir);
    ASSERT_TRUE(reopened.ok())
        << "flip at offset " << off << ": " << reopened.status();
    EXPECT_FALSE(reopened->degraded()) << "offset " << off;
    EXPECT_EQ(DumpDatabase(reopened->db()), acked) << "offset " << off;
    EXPECT_EQ(reopened->status().recovered_fallback_depth, 1u)
        << "offset " << off;
    EXPECT_EQ(reopened->status().recovered_checkpoint_seq, 0u)
        << "offset " << off;
    EXPECT_FALSE(reopened->status().warnings.empty()) << "offset " << off;
  }
  WriteFile(dir + "/CHECKPOINT", pristine);
  auto clean = JournaledDatabase::Open(dir);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->status().recovered_fallback_depth, 0u);
}

TEST(HostileCheckpointTest, TruncationSweepFallsBackByteIdentical) {
  std::string dir = MakeTempDir();
  std::string acked;
  {
    StorageOptions opts;
    opts.checkpoint_interval = 0;
    opts.rotated_journals_keep = 2;
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    acked = DumpDatabase(store->db());
  }
  const std::string pristine = ReadFile(dir + "/CHECKPOINT");
  ASSERT_FALSE(pristine.empty());
  for (size_t len = 0; len < pristine.size(); ++len) {
    WriteFile(dir + "/CHECKPOINT", pristine.substr(0, len));
    auto reopened = JournaledDatabase::Open(dir);
    ASSERT_TRUE(reopened.ok())
        << "truncated to " << len << ": " << reopened.status();
    EXPECT_FALSE(reopened->degraded()) << "len " << len;
    EXPECT_EQ(DumpDatabase(reopened->db()), acked) << "len " << len;
    EXPECT_EQ(reopened->status().recovered_fallback_depth, 1u)
        << "len " << len;
    EXPECT_FALSE(reopened->status().warnings.empty()) << "len " << len;
  }
  WriteFile(dir + "/CHECKPOINT", pristine);
}

// A corrupt segment in the MIDDLE of the rotated-journal chain, with
// the newer checkpoint generations also gone: the ladder falls back to
// a generation whose chain breaks mid-replay. The store must open
// DEGRADED read-only on a prefix rung (never a hybrid, never a fork),
// and fsck --repair must rebuild a store that reopens clean.
TEST(HostileCheckpointTest, MiddleRotatedJournalCorruptionSweep) {
  namespace fs = std::filesystem;
  std::string dir = MakeTempDir();
  std::vector<std::string> ladder;
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 3;
  {
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ladder.push_back(DumpDatabase(store->db()));
    const char* mods[] = {kTupleModule, kInventModule, kInventModule2};
    for (const char* m : mods) {
      ASSERT_TRUE(store->ApplySource(m, ApplicationMode::kRIDV).ok());
      ladder.push_back(DumpDatabase(store->db()));
      ASSERT_TRUE(store->Checkpoint().ok());
    }
    ASSERT_TRUE(store
                    ->ApplySource(R"(rules knows(a: "tail", b: "bob").)",
                                  ApplicationMode::kRIDV)
                    .ok());
    ladder.push_back(DumpDatabase(store->db()));
  }
  // Layout now: HEAD seq 3, generations {0,1,2}, rotated {1,2,3}, one
  // live-journal record (seq 4).
  auto corrupt_middle = [](const std::string& path) {
    std::string bytes = ReadFile(path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
    WriteFile(path, bytes);
  };
  const std::string segment = ReadFile(dir + "/journal.2.old");
  ASSERT_FALSE(segment.empty());

  std::string work = MakeTempDir();
  for (size_t off = 0; off < segment.size(); ++off) {
    std::error_code ec;
    fs::remove_all(work, ec);
    fs::copy(dir, work, fs::copy_options::recursive, ec);
    ASSERT_FALSE(ec) << ec.message();
    // Kill HEAD and the newest retained generation so recovery must
    // traverse the corrupted middle segment.
    corrupt_middle(work + "/CHECKPOINT");
    corrupt_middle(work + "/CHECKPOINT.2.old");
    std::string bytes = segment;
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
    WriteFile(work + "/journal.2.old", bytes);

    auto broken = JournaledDatabase::Open(work, opts);
    ASSERT_TRUE(broken.ok())
        << "offset " << off << ": " << broken.status();
    EXPECT_TRUE(broken->degraded())
        << "offset " << off
        << ": a broken replay chain must degrade, not fork history";
    std::string got = DumpDatabase(broken->db());
    bool on_ladder = false;
    for (const std::string& rung : ladder) on_ladder |= (got == rung);
    EXPECT_TRUE(on_ladder) << "offset " << off << ": recovered a hybrid";

    auto detected = FsckStore(work);
    ASSERT_TRUE(detected.ok()) << detected.status();
    EXPECT_GT(detected->errors, 0u) << "offset " << off;

    FsckOptions repair;
    repair.repair = true;
    auto repaired = FsckStore(work, repair);
    ASSERT_TRUE(repaired.ok())
        << "offset " << off << ": " << repaired.status();
    EXPECT_EQ(repaired->errors, 0u) << "offset " << off;

    auto healed = JournaledDatabase::Open(work, opts);
    ASSERT_TRUE(healed.ok())
        << "offset " << off << ": " << healed.status();
    EXPECT_FALSE(healed->degraded()) << "offset " << off;
    got = DumpDatabase(healed->db());
    on_ladder = false;
    for (const std::string& rung : ladder) on_ladder |= (got == rung);
    EXPECT_TRUE(on_ladder) << "offset " << off << ": repair made a hybrid";
    EXPECT_TRUE(
        healed->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok())
        << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// Online scrub.

TEST(ScrubTest, CleanThenCorruptGeneration) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 2;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());

  ScrubReport clean = store->Scrub();
  EXPECT_TRUE(clean.ok());
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_FALSE(clean.files.empty());
  StorageStatus st = store->status();
  EXPECT_TRUE(st.scrubbed);
  EXPECT_TRUE(st.last_scrub_ok);
  EXPECT_FALSE(st.last_scrub_summary.empty());
  EXPECT_FALSE(st.last_scrub_time.empty());

  // A generation rots on disk behind the store's back: the next scrub
  // must find it, flip last_scrub_ok, and warn — while the store itself
  // keeps accepting writes (scrub is strictly read-only).
  std::string gen = dir + "/CHECKPOINT.0.old";
  std::string bytes = ReadFile(gen);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  WriteFile(gen, bytes);

  ScrubReport bad = store->Scrub();
  EXPECT_FALSE(bad.ok());
  EXPECT_GT(bad.errors, 0u);
  st = store->status();
  EXPECT_TRUE(st.scrubbed);
  EXPECT_FALSE(st.last_scrub_ok);
  EXPECT_FALSE(st.warnings.empty());
  EXPECT_TRUE(
      store->ApplySource(kInventModule2, ApplicationMode::kRIDV).ok());
}

// ---------------------------------------------------------------------------
// fsck as a library (the CLI battery lives in logres_fsck --selftest).

TEST(FsckTest, CleanStoreReportsArtifactsAndNoErrors) {
  std::string dir = MakeTempDir();
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 2;
  auto store = JournaledDatabase::Create(dir, kSchema, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());

  auto report = FsckStore(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->errors, 0u);
  EXPECT_TRUE(report->recoverable);
  bool saw_checkpoint = false, saw_generation = false, saw_journal = false;
  for (const StoreFileCheck& f : report->files) {
    saw_checkpoint |= f.kind == "checkpoint";
    saw_generation |= f.kind == "checkpoint-generation";
    saw_journal |= f.kind == "journal";
  }
  EXPECT_TRUE(saw_checkpoint);
  EXPECT_TRUE(saw_generation);
  EXPECT_TRUE(saw_journal);
  EXPECT_NE(report->ToText().find("fsck summary"), std::string::npos);
}

TEST(FsckTest, MissingHeadRecoversFromGeneration) {
  std::string dir = MakeTempDir();
  std::string acked;
  StorageOptions opts;
  opts.checkpoint_interval = 0;
  opts.rotated_journals_keep = 2;
  {
    auto store = JournaledDatabase::Create(dir, kSchema, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(
        store->ApplySource(kTupleModule, ApplicationMode::kRIDV).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(
        store->ApplySource(kInventModule, ApplicationMode::kRIDV).ok());
    acked = DumpDatabase(store->db());
  }
  ASSERT_TRUE(std::filesystem::remove(dir + "/CHECKPOINT"));

  auto report = FsckStore(dir);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->recoverable);

  auto reopened = JournaledDatabase::Open(dir, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE(reopened->degraded());
  EXPECT_EQ(DumpDatabase(reopened->db()), acked);
  EXPECT_GE(reopened->status().recovered_fallback_depth, 1u);
}

}  // namespace
}  // namespace logres
