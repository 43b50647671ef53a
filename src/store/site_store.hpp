// Per-site main-memory object store.
//
// The 1991 prototype was a main-memory database ("we take advantage of large
// memories ... so that disk access is only required to obtain large items").
// SiteStore mirrors that: all objects live in memory; snapshot persistence
// (store/snapshot.hpp) exists for durability but is never on a query path.
//
// Named sets: HyperFile represents a set of objects as an ordinary object
// whose pointer tuples enumerate the members (paper Section 2). SiteStore
// keeps a name -> set-object binding so queries can start from "S" and bind
// results to "T".
//
// Thread safety: SiteStore is externally synchronized. The distributed
// runtime gives each site thread exclusive ownership; the shared-memory
// parallel engine performs concurrent *reads* only, which is safe as long as
// no writer runs concurrently.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "model/object.hpp"
#include "model/type_registry.hpp"

namespace hyperfile {

class WriteAheadLog;
struct WalRecord;

/// Tuple key used for set-membership pointers inside set objects.
inline constexpr const char* kSetMemberKey = "member";

struct StoreStats {
  std::size_t objects = 0;
  std::size_t tuples = 0;
  std::size_t bytes = 0;
  std::size_t named_sets = 0;
};

class SiteStore {
 public:
  explicit SiteStore(SiteId site) : site_(site) {}

  SiteId site() const { return site_; }

  /// Fresh id born at this site. The presumed site starts equal to the
  /// birth site.
  ObjectId allocate() { return ObjectId(site_, next_seq_++); }

  /// Sequence-counter access for snapshot restore.
  LocalSeq next_seq() const { return next_seq_; }
  void set_next_seq(LocalSeq seq) { next_seq_ = seq; }

  /// Monotonic mutation counter: bumped by every mutator (put / erase /
  /// take / modify / bind_set / replayed WAL records). Derived structures
  /// (index caches, site summaries) key their freshness on it — equal
  /// version means provably unchanged content.
  std::uint64_t version() const { return version_; }

  /// Store `obj`. If its id is invalid a fresh local id is assigned.
  /// Returns the id under which the object is stored. Overwrites any
  /// existing object with the same id (HyperFile edits replace tuples).
  HF_EVENT_LOOP_ONLY ObjectId put(Object obj);

  /// As put(), but first checks the object against the registered type
  /// conventions (model/type_registry.hpp). Nothing is stored on failure.
  HF_EVENT_LOOP_ONLY Result<ObjectId> put_validated(
      Object obj, const TypeRegistry& registry);

  bool contains(const ObjectId& id) const { return objects_.count(id) != 0; }
  const Object* get(const ObjectId& id) const;
  HF_EVENT_LOOP_ONLY bool erase(const ObjectId& id);

  /// Remove an object and hand it to the caller (used by object migration).
  HF_EVENT_LOOP_ONLY std::optional<Object> take(const ObjectId& id);

  /// In-place edit: apply `mutator` to the stored object. This is the
  /// "limited editing" a back-end data server wants to support without a
  /// full read-modify-write round trip (paper Section 1). The object id is
  /// immutable; mutator changes to it are discarded.
  HF_EVENT_LOOP_ONLY Result<void> modify(
      const ObjectId& id, const std::function<void(Object&)>& mutator);

  /// Tuple-level conveniences built on modify().
  Result<void> add_tuple(const ObjectId& id, Tuple t);
  /// Replace all (type, key) tuples with a single new value; appends if
  /// none existed.
  Result<void> set_tuple(const ObjectId& id, const std::string& type,
                         const std::string& key, Value value);
  /// Remove all (type, key) tuples. Returns the number removed.
  Result<std::size_t> remove_tuples(const ObjectId& id, const std::string& type,
                                    const std::string& key);

  std::size_t size() const { return objects_.size(); }
  StoreStats stats() const;
  std::vector<ObjectId> all_ids() const;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, obj] : objects_) fn(obj);
  }

  // --- named sets -------------------------------------------------------
  /// Materialize a set object with pointer tuples to `members` and bind it
  /// under `name` (replacing any previous binding).
  HF_EVENT_LOOP_ONLY ObjectId create_set(const std::string& name,
                                         std::span<const ObjectId> members);

  /// Add `members` to the set object `set` (as create_set returned it).
  /// Logs only the new members (WalRecord::kSetAppend), so a set grown in
  /// n steps costs O(total members) of WAL, not O(n × size). kNotFound when
  /// the object is gone, e.g. erased by a later create_set of its name.
  HF_EVENT_LOOP_ONLY Result<void> append_to_set(
      const ObjectId& set, std::span<const ObjectId> members);

  /// Bind `name` to an existing object that acts as a set.
  HF_EVENT_LOOP_ONLY void bind_set(const std::string& name,
                                   const ObjectId& id);

  std::optional<ObjectId> find_set(const std::string& name) const;

  /// Member ids of the named set (the pointer tuples of its set object).
  Result<std::vector<ObjectId>> set_members(const std::string& name) const;

  std::vector<std::string> set_names() const;

  // --- durability (store/wal.hpp, DESIGN.md §13) ------------------------
  /// Shadow every mutation into `wal` (non-owning; pass nullptr to detach).
  /// Detached by default — and during recovery, so replayed mutations are
  /// not re-logged. The WAL shares this store's external synchronization.
  void attach_wal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() const { return wal_; }

  /// Re-apply one replayed record. Used by recovery (detach the WAL first).
  HF_EVENT_LOOP_ONLY void apply_wal_record(const WalRecord& rec);

 private:
  void log_put(const Object& obj);
  void log_erase(const ObjectId& id);

  SiteId site_;
  LocalSeq next_seq_ = 1;
  std::uint64_t version_ = 0;
  std::unordered_map<ObjectId, Object> objects_;
  std::unordered_map<std::string, ObjectId> named_sets_;
  WriteAheadLog* wal_ = nullptr;
};

}  // namespace hyperfile
