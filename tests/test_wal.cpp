// Write-ahead log (store/wal.hpp): record codec round-trips, torn-tail and
// bit-flip tolerance of replay, append/truncate bookkeeping, and the
// SiteStore integration that makes every acknowledged mutation recoverable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "dist/site_server.hpp"
#include "net/inproc.hpp"
#include "store/site_store.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace hyperfile {
namespace {

std::string temp_path(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/hf_wal_tests";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Object sample_object(const ObjectId& id, int salt) {
  Object obj(id);
  obj.add(Tuple::keyword("hit"));
  obj.add(Tuple::pointer("Reference", ObjectId(2, 7 + salt)));
  return obj;
}

/// Structural equality via the codec: two records are the same iff they
/// encode identically (spares Object an operator==).
void expect_same_record(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(encode_wal_record(a), encode_wal_record(b));
}

std::vector<WalRecord> sample_records() {
  std::vector<WalRecord> recs;
  recs.push_back(WalRecord::put(sample_object(ObjectId(0, 1), 0), 2));
  recs.push_back(WalRecord::put(sample_object(ObjectId(0, 2), 1), 3));
  recs.push_back(WalRecord::erase(ObjectId(0, 1), 3));
  recs.push_back(WalRecord::bind_set("S", ObjectId(0, 2), 3));
  recs.push_back(WalRecord::set_append(
      ObjectId(0, 2), 2, {ObjectId(1, 4), ObjectId(2, 9)}, 3));
  return recs;
}

std::string fresh_log(const std::string& name,
                      const std::vector<WalRecord>& recs) {
  const std::string path = temp_path(name);
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  EXPECT_TRUE(replay.ok());
  auto wal = WriteAheadLog::open(path, replay.value());
  EXPECT_TRUE(wal.ok());
  for (const auto& rec : recs) {
    EXPECT_TRUE(wal.value().append(rec).ok());
  }
  return path;
}

TEST(WalCodec, RecordsRoundTrip) {
  for (const WalRecord& rec : sample_records()) {
    wire::Bytes payload = encode_wal_record(rec);
    auto back = decode_wal_record(payload);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value().op, rec.op);
    EXPECT_EQ(back.value().next_seq, rec.next_seq);
    expect_same_record(back.value(), rec);
  }
}

TEST(WalCodec, RejectsTruncatedAndCorruptPayloads) {
  wire::Bytes payload = encode_wal_record(sample_records()[0]);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    auto r = decode_wal_record(std::span(payload.data(), len));
    EXPECT_FALSE(r.ok()) << "truncated payload of " << len
                         << " bytes decoded anyway";
  }
  wire::Bytes bad = payload;
  bad[0] = 0x7f;  // no such opcode
  EXPECT_FALSE(decode_wal_record(bad).ok());
}

TEST(WalCodec, SetAppendRoundTripsAndRejectsTruncation) {
  const WalRecord rec = WalRecord::set_append(
      ObjectId(1, 3), 300, {ObjectId(0, 5), ObjectId(2, 8), ObjectId(1, 1)},
      9);
  const wire::Bytes payload = encode_wal_record(rec);
  auto back = decode_wal_record(payload);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().op, WalRecord::Op::kSetAppend);
  EXPECT_EQ(back.value().next_seq, 9u);
  EXPECT_EQ(back.value().id, rec.id);
  EXPECT_EQ(back.value().set_size, 300u);
  EXPECT_EQ(back.value().members, rec.members);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode_wal_record(std::span(payload.data(), len)).ok())
        << "truncated payload of " << len << " bytes decoded anyway";
  }
}

TEST(WalReplayTest, MissingFileIsEmptyLog) {
  const std::string path = temp_path("missing.wal");
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().valid_bytes, 0u);
  EXPECT_FALSE(replay.value().torn);
}

TEST(WalReplayTest, AppendedRecordsReplayInOrder) {
  const auto recs = sample_records();
  const std::string path = fresh_log("ordered.wal", recs);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), recs.size());
  EXPECT_FALSE(replay.value().torn);
  EXPECT_EQ(replay.value().valid_bytes, read_file(path).size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    expect_same_record(replay.value().records[i], recs[i]);
  }
}

TEST(WalReplayTest, ToleratesTornTailAtEveryTruncationPoint) {
  // A crash can cut the file anywhere. For every prefix: replay must
  // succeed, keep exactly the records that are fully on disk, and report
  // the tear unless the cut lands on a record boundary.
  const auto recs = sample_records();
  const std::string path = fresh_log("torn.wal", recs);
  const std::vector<std::uint8_t> bytes = read_file(path);

  // Record boundaries, recovered by replaying successively longer prefixes.
  std::vector<std::uint64_t> boundaries{0};
  {
    auto full = replay_wal(path);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.value().valid_bytes, bytes.size());
  }

  const std::string cut = temp_path("torn_cut.wal");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    write_file(cut, std::span(bytes.data(), len));
    auto replay = replay_wal(cut);
    ASSERT_TRUE(replay.ok()) << "replay errored at prefix " << len;
    const auto& got = replay.value();
    ASSERT_LE(got.records.size(), recs.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      expect_same_record(got.records[i], recs[i]);
    }
    EXPECT_LE(got.valid_bytes, len);
    if (got.valid_bytes == len) {
      EXPECT_FALSE(got.torn) << "clean cut at " << len << " reported torn";
      if (boundaries.back() != len) boundaries.push_back(len);
    } else {
      EXPECT_TRUE(got.torn) << "mid-record cut at " << len << " not reported";
    }

    // open() must truncate the tear away so appends extend a clean log.
    auto wal = WriteAheadLog::open(cut, got);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value().byte_size(), got.valid_bytes);
    EXPECT_EQ(read_file(cut).size(), got.valid_bytes);
  }
  // One boundary per record plus the empty prefix.
  EXPECT_EQ(boundaries.size(), recs.size() + 1);
}

TEST(WalReplayTest, BitFlipsNeverCrashAndKeepAPrefix) {
  const auto recs = sample_records();
  const std::string path = fresh_log("flip.wal", recs);
  const std::vector<std::uint8_t> bytes = read_file(path);
  const std::string flipped = temp_path("flip_cut.wal");
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[pos] ^= bit;
      write_file(flipped, corrupt);
      auto replay = replay_wal(flipped);
      ASSERT_TRUE(replay.ok())
          << "bit flip at " << pos << " made replay error";
      const auto& got = replay.value();
      // Whatever survives must be an untouched prefix of the true history.
      ASSERT_LE(got.records.size(), recs.size());
      for (std::size_t i = 0; i < got.records.size(); ++i) {
        expect_same_record(got.records[i], recs[i]);
      }
    }
  }
}

TEST(WriteAheadLogTest, TruncateDropsEverything) {
  const auto recs = sample_records();
  const std::string path = temp_path("trunc.wal");
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  auto wal = WriteAheadLog::open(path, replay.value());
  ASSERT_TRUE(wal.ok());
  for (const auto& rec : recs) ASSERT_TRUE(wal.value().append(rec).ok());
  EXPECT_EQ(wal.value().record_count(), recs.size());
  EXPECT_GT(wal.value().byte_size(), 0u);

  ASSERT_TRUE(wal.value().truncate().ok());
  EXPECT_EQ(wal.value().record_count(), 0u);
  EXPECT_EQ(wal.value().byte_size(), 0u);
  EXPECT_EQ(read_file(path).size(), 0u);

  // The log keeps working after a truncate.
  ASSERT_TRUE(wal.value().append(recs[0]).ok());
  auto again = replay_wal(path);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().records.size(), 1u);
  expect_same_record(again.value().records[0], recs[0]);
}

TEST(WriteAheadLogTest, ReopenAfterTornTailKeepsAppendsClean) {
  const auto recs = sample_records();
  const std::string path = fresh_log("reopen.wal", recs);
  // Tear mid-record.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(bytes.size() - 3);
  write_file(path, bytes);

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay.value().torn);
  ASSERT_EQ(replay.value().records.size(), recs.size() - 1);
  {
    auto wal = WriteAheadLog::open(path, replay.value());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(recs.back()).ok());
  }
  auto healed = replay_wal(path);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.value().torn);
  ASSERT_EQ(healed.value().records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    expect_same_record(healed.value().records[i], recs[i]);
  }
}

// --- SiteStore integration ---------------------------------------------

/// Recover a fresh store from the log, the way SiteServer does.
SiteStore recover(SiteId site, const std::string& path) {
  SiteStore store(site);
  auto replay = replay_wal(path);
  EXPECT_TRUE(replay.ok());
  for (const auto& rec : replay.value().records) {
    store.apply_wal_record(rec);
  }
  return store;
}

void expect_same_store(SiteStore& a, SiteStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const ObjectId& id : a.all_ids()) {
    const Object* oa = a.get(id);
    const Object* ob = b.get(id);
    ASSERT_NE(ob, nullptr) << id.to_string() << " lost";
    expect_same_record(WalRecord::put(*oa, 0), WalRecord::put(*ob, 0));
  }
  auto names_a = a.set_names();
  auto names_b = b.set_names();
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b);
  for (const auto& name : names_a) {
    EXPECT_EQ(*a.find_set(name), *b.find_set(name));
  }
  EXPECT_EQ(a.next_seq(), b.next_seq());
}

TEST(WalStoreIntegration, EveryMutationPathIsRecoverable) {
  const std::string path = temp_path("store.wal");
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  auto wal = WriteAheadLog::open(path, replay.value());
  ASSERT_TRUE(wal.ok());

  SiteStore store(0);
  store.attach_wal(&wal.value());
  std::vector<ObjectId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(store.allocate());
  for (int i = 0; i < 6; ++i) {
    store.put(sample_object(ids[i], i));
  }
  ASSERT_TRUE(store
                  .modify(ids[1],
                          [](Object& obj) { obj.add(Tuple::keyword("edited")); })
                  .ok());
  ASSERT_TRUE(store.add_tuple(ids[2], Tuple::keyword("extra")).ok());
  ASSERT_TRUE(store.erase(ids[3]));
  ASSERT_TRUE(store.take(ids[4]).has_value());
  store.create_set("S", std::span<const ObjectId>(ids.data(), 2));
  store.bind_set("Alias", ids[0]);

  SiteStore recovered = recover(0, path);
  expect_same_store(store, recovered);
  // The id allocator is part of the recovered state: a fresh id must not
  // collide with anything ever acknowledged.
  EXPECT_EQ(recovered.allocate(), store.allocate());
}

TEST(WalStoreIntegration, SetAppendReplayEqualsLive) {
  const std::string path = temp_path("set_append.wal");
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  auto wal = WriteAheadLog::open(path, replay.value());
  ASSERT_TRUE(wal.ok());

  SiteStore store(0);
  store.attach_wal(&wal.value());
  std::vector<ObjectId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(store.allocate());
  const ObjectId set =
      store.create_set("D", std::span<const ObjectId>(ids.data(), 2));
  const std::uint64_t records = wal.value().record_count();
  const std::uint64_t version = store.version();
  ASSERT_TRUE(
      store.append_to_set(set, std::span<const ObjectId>(ids.data() + 2, 3))
          .ok());
  ASSERT_TRUE(
      store.append_to_set(set, std::span<const ObjectId>(ids.data() + 5, 1))
          .ok());
  // One record per append, and the store's version moves like any mutator.
  EXPECT_EQ(wal.value().record_count(), records + 2);
  EXPECT_GT(store.version(), version);
  EXPECT_EQ(store.set_members("D").value(), ids);
  // A missing set object is an error, and logs nothing.
  EXPECT_FALSE(store.append_to_set(ids[0], ids).ok());
  EXPECT_EQ(wal.value().record_count(), records + 2);

  // Recovery and a replication shadow store both rebuild through
  // apply_wal_record, so one replay covers both.
  SiteStore recovered = recover(0, path);
  expect_same_store(store, recovered);
  EXPECT_EQ(recovered.set_members("D").value(), ids);

  // Replaying the log again over its own result changes nothing: each
  // append applies only at the set size it was logged at.
  auto again = replay_wal(path);
  ASSERT_TRUE(again.ok());
  for (const WalRecord& rec : again.value().records) {
    recovered.apply_wal_record(rec);
  }
  EXPECT_EQ(recovered.set_members("D").value(), ids);
}

TEST(WalStoreIntegration, RecoverySurvivesATornLastAppend) {
  const std::string path = temp_path("store_torn.wal");
  std::filesystem::remove(path);
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  auto wal = WriteAheadLog::open(path, replay.value());
  ASSERT_TRUE(wal.ok());

  SiteStore store(0);
  store.attach_wal(&wal.value());
  const ObjectId a = store.allocate();
  const ObjectId b = store.allocate();
  store.put(sample_object(a, 0));
  store.put(sample_object(b, 1));

  // Crash mid-append of a third mutation: chop bytes off the tail.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes.resize(bytes.size() - 2);
  write_file(path, bytes);

  SiteStore recovered = recover(0, path);
  EXPECT_EQ(recovered.size(), 1u);  // the torn record is lost...
  EXPECT_TRUE(recovered.contains(a));
  EXPECT_FALSE(recovered.contains(b));  // ...but nothing before it is
}

TEST(CheckpointCrashWindow, CrashBetweenRenameAndTruncateLosesNothing) {
  // do_checkpoint's publish order is: write tmp snapshot -> rename into
  // place -> fsync the parent directory -> only then truncate the WAL.
  // This test injects a crash inside that window: the new checkpoint is
  // durably installed but the WAL was never truncated, so recovery sees
  // the checkpoint AND every record it already subsumes. Replaying the
  // full log over the checkpoint must be a no-op-on-top, never a
  // corruption or a loss.
  const std::string dir = ::testing::TempDir() + "/hf_ckpt_crash";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SiteServerOptions options;
  options.wal_dir = dir;
  const std::string base = dir + "/site_0";

  InProcNetwork net(2);
  SiteStore reference(0);
  {
    SiteServer server(net.endpoint(0), SiteStore(0), options);
    std::vector<ObjectId> ids;
    for (int i = 0; i < 5; ++i) ids.push_back(server.store().allocate());
    for (int i = 0; i < 5; ++i) {
      server.store().put(sample_object(ids[i], i));
    }
    ASSERT_TRUE(server.store().erase(ids[4]));
    server.store().create_set("S", std::span<const ObjectId>(ids.data(), 2));

    // The crash-window disk state, built by hand: install the checkpoint
    // exactly as do_checkpoint would (tmp + rename + parent fsync) and
    // then "crash" — the server dies with the WAL untruncated.
    ASSERT_TRUE(save_snapshot(server.store(), base + ".ckpt.tmp").ok());
    ASSERT_EQ(std::rename((base + ".ckpt.tmp").c_str(),
                          (base + ".ckpt").c_str()),
              0);
    ASSERT_TRUE(fsync_parent_dir(base + ".ckpt").ok());
    ASSERT_GT(server.store().wal()->record_count(), 0u)
        << "crash window requires an untruncated WAL";
    reference = server.store();
    reference.attach_wal(nullptr);
  }

  // Recovery from the crash window: checkpoint loads, then the full WAL
  // replays on top of content it already contains.
  SiteServer revived(net.endpoint(1), SiteStore(0), options);
  expect_same_store(reference, revived.store());
  EXPECT_GT(metrics().counter("dist.crash_recoveries").value(), 0u);
}

TEST(CheckpointCrashWindow, SetAppendsAlreadyInTheCheckpointReplayAsNoOps) {
  // A count-only query's portion grows by appends across a checkpoint: the
  // first checkpoint truncates the WAL after create_set, appends follow,
  // and a second checkpoint is installed with the WAL left untruncated.
  // Recovery replays appends the checkpoint already holds; they must not
  // add the members a second time.
  const std::string dir = ::testing::TempDir() + "/hf_ckpt_append";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SiteServerOptions options;
  options.wal_dir = dir;
  const std::string base = dir + "/site_0";

  InProcNetwork net(2);
  SiteStore reference(0);
  {
    SiteServer server(net.endpoint(0), SiteStore(0), options);
    std::vector<ObjectId> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(server.store().allocate());
    const ObjectId set = server.store().create_set(
        "D", std::span<const ObjectId>(ids.data(), 2));
    ASSERT_TRUE(server.checkpoint().ok());
    ASSERT_TRUE(server.store()
                    .append_to_set(set, std::span<const ObjectId>(
                                            ids.data() + 2, 3))
                    .ok());
    ASSERT_TRUE(server.store()
                    .append_to_set(set, std::span<const ObjectId>(
                                            ids.data() + 5, 1))
                    .ok());

    ASSERT_TRUE(save_snapshot(server.store(), base + ".ckpt.tmp").ok());
    ASSERT_EQ(std::rename((base + ".ckpt.tmp").c_str(),
                          (base + ".ckpt").c_str()),
              0);
    ASSERT_TRUE(fsync_parent_dir(base + ".ckpt").ok());
    ASSERT_EQ(server.store().wal()->record_count(), 2u)
        << "crash window requires the two appends still in the WAL";
    reference = server.store();
    reference.attach_wal(nullptr);
    EXPECT_EQ(reference.set_members("D").value(), ids);
  }

  SiteServer revived(net.endpoint(1), SiteStore(0), options);
  expect_same_store(reference, revived.store());
}

TEST(CheckpointCrashWindow, CompletedCheckpointRecoversWithoutWal) {
  // Control for the test above: the same sequence with the truncate step
  // completed (a full SiteServer::checkpoint()) recovers from the
  // checkpoint alone — the WAL is empty and stays empty.
  const std::string dir = ::testing::TempDir() + "/hf_ckpt_done";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SiteServerOptions options;
  options.wal_dir = dir;

  InProcNetwork net(2);
  SiteStore reference(0);
  {
    SiteServer server(net.endpoint(0), SiteStore(0), options);
    std::vector<ObjectId> ids;
    for (int i = 0; i < 5; ++i) ids.push_back(server.store().allocate());
    for (int i = 0; i < 5; ++i) {
      server.store().put(sample_object(ids[i], i));
    }
    ASSERT_TRUE(server.checkpoint().ok());
    EXPECT_EQ(server.store().wal()->record_count(), 0u);
    reference = server.store();
    reference.attach_wal(nullptr);
  }

  SiteServer revived(net.endpoint(1), SiteStore(0), options);
  expect_same_store(reference, revived.store());
  EXPECT_EQ(revived.store().wal()->record_count(), 0u);
}

}  // namespace
}  // namespace hyperfile
