#include "store/site_store.hpp"

#include "common/logging.hpp"
#include "store/wal.hpp"

namespace hyperfile {

// WAL shadowing: every mutator funnels its post-state through log_put /
// log_erase / bind_set, or its delta through append_to_set, so an attached
// log sees exactly the acknowledged mutations, in order. Append failures
// are surfaced as warnings rather than failing the mutation — the store
// stays authoritative in memory; a sick disk degrades durability, not
// availability (DESIGN.md §13).
void SiteStore::log_put(const Object& obj) {
  if (wal_ == nullptr) return;
  // hfverify: allow-blocking(wal-append): redo-before-ack — the mutation
  // must be durable before the loop acknowledges it (DESIGN.md §13).
  if (auto r = wal_->append(WalRecord::put(obj, next_seq_)); !r.ok()) {
    HF_WARN << "site " << site_ << ": WAL append failed: "
            << r.error().message;
  }
}

void SiteStore::log_erase(const ObjectId& id) {
  if (wal_ == nullptr) return;
  // hfverify: allow-blocking(wal-append): redo-before-ack (DESIGN.md §13).
  if (auto r = wal_->append(WalRecord::erase(id, next_seq_)); !r.ok()) {
    HF_WARN << "site " << site_ << ": WAL append failed: "
            << r.error().message;
  }
}

void SiteStore::apply_wal_record(const WalRecord& rec) {
  switch (rec.op) {
    case WalRecord::Op::kPut:
      objects_[rec.object.id()] = rec.object;
      break;
    case WalRecord::Op::kErase:
      objects_.erase(rec.id);
      break;
    case WalRecord::Op::kBindSet:
      named_sets_[rec.name] = rec.id;
      break;
    case WalRecord::Op::kSetAppend:
      // Positional: a set of any other size already holds these members (a
      // checkpoint taken after the append) or was rewritten by a later put.
      if (auto it = objects_.find(rec.id);
          it != objects_.end() && it->second.size() == rec.set_size) {
        for (const ObjectId& m : rec.members) {
          it->second.add(Tuple::pointer(kSetMemberKey, m));
        }
      }
      break;
  }
  // next_seq only ever moves forward: a record's snapshot of the allocator
  // never un-allocates ids handed out later.
  if (rec.next_seq > next_seq_) next_seq_ = rec.next_seq;
  ++version_;
}

ObjectId SiteStore::put(Object obj) {
  if (!obj.id().valid()) obj.set_id(allocate());
  const ObjectId id = obj.id();
  objects_[id] = std::move(obj);
  ++version_;
  log_put(objects_[id]);
  return id;
}

Result<ObjectId> SiteStore::put_validated(Object obj,
                                          const TypeRegistry& registry) {
  if (auto r = registry.validate(obj); !r.ok()) return r.error();
  return put(std::move(obj));
}

const Object* SiteStore::get(const ObjectId& id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

bool SiteStore::erase(const ObjectId& id) {
  if (objects_.erase(id) == 0) return false;
  ++version_;
  log_erase(id);
  return true;
}

std::optional<Object> SiteStore::take(const ObjectId& id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  Object obj = std::move(it->second);
  objects_.erase(it);
  ++version_;
  log_erase(id);
  return obj;
}

Result<void> SiteStore::modify(const ObjectId& id,
                               const std::function<void(Object&)>& mutator) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return make_error(Errc::kNotFound, "no object " + id.to_string());
  }
  mutator(it->second);
  it->second.set_id(id);  // identity is immutable
  ++version_;
  log_put(it->second);
  return {};
}

Result<void> SiteStore::add_tuple(const ObjectId& id, Tuple t) {
  return modify(id, [&](Object& obj) { obj.add(std::move(t)); });
}

Result<void> SiteStore::set_tuple(const ObjectId& id, const std::string& type,
                                  const std::string& key, Value value) {
  return modify(id, [&](Object& obj) {
    obj.remove(type, key);
    obj.add(Tuple(type, key, std::move(value)));
  });
}

Result<std::size_t> SiteStore::remove_tuples(const ObjectId& id,
                                             const std::string& type,
                                             const std::string& key) {
  std::size_t removed = 0;
  auto r = modify(id, [&](Object& obj) { removed = obj.remove(type, key); });
  if (!r.ok()) return r.error();
  return removed;
}

StoreStats SiteStore::stats() const {
  StoreStats s;
  s.objects = objects_.size();
  s.named_sets = named_sets_.size();
  for (const auto& [id, obj] : objects_) {
    s.tuples += obj.size();
    s.bytes += obj.byte_size();
  }
  return s;
}

std::vector<ObjectId> SiteStore::all_ids() const {
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, obj] : objects_) ids.push_back(id);
  return ids;
}

ObjectId SiteStore::create_set(const std::string& name,
                               std::span<const ObjectId> members) {
  // Rebinding a name garbage-collects the previous set *object*, but only
  // if (a) it is one we materialized for this name (application objects
  // merely bound via bind_set are left alone) and (b) no other name is
  // still bound to it.
  if (auto prev = find_set(name)) {
    bool bound_elsewhere = false;
    for (const auto& [other_name, other_id] : named_sets_) {
      if (other_name != name && other_id == *prev) {
        bound_elsewhere = true;
        break;
      }
    }
    const Object* obj = get(*prev);
    if (!bound_elsewhere && obj != nullptr) {
      const Tuple* tag = obj->find(tuple_types::kString, "set_name");
      if (tag != nullptr && tag->data.is_string() &&
          tag->data.as_string() == name) {
        erase(*prev);
      }
    }
  }
  Object set_obj(allocate());
  set_obj.add(Tuple::string("set_name", name));
  for (const ObjectId& m : members) {
    set_obj.add(Tuple::pointer(kSetMemberKey, m));
  }
  const ObjectId id = put(std::move(set_obj));
  bind_set(name, id);
  return id;
}

Result<void> SiteStore::append_to_set(const ObjectId& set,
                                      std::span<const ObjectId> members) {
  auto it = objects_.find(set);
  if (it == objects_.end()) {
    return make_error(Errc::kNotFound, "no set object " + set.to_string());
  }
  const std::uint64_t set_size = it->second.size();
  for (const ObjectId& m : members) {
    it->second.add(Tuple::pointer(kSetMemberKey, m));
  }
  ++version_;
  if (wal_ == nullptr) return {};
  // hfverify: allow-blocking(wal-append): redo-before-ack (DESIGN.md §13).
  if (auto r = wal_->append(WalRecord::set_append(
          set, set_size, std::vector<ObjectId>(members.begin(), members.end()),
          next_seq_));
      !r.ok()) {
    HF_WARN << "site " << site_ << ": WAL append failed: "
            << r.error().message;
  }
  return {};
}

void SiteStore::bind_set(const std::string& name, const ObjectId& id) {
  named_sets_[name] = id;
  ++version_;
  if (wal_ == nullptr) return;
  // hfverify: allow-blocking(wal-append): redo-before-ack (DESIGN.md §13).
  if (auto r = wal_->append(WalRecord::bind_set(name, id, next_seq_));
      !r.ok()) {
    HF_WARN << "site " << site_ << ": WAL append failed: "
            << r.error().message;
  }
}

std::optional<ObjectId> SiteStore::find_set(const std::string& name) const {
  auto it = named_sets_.find(name);
  if (it == named_sets_.end()) return std::nullopt;
  return it->second;
}

Result<std::vector<ObjectId>> SiteStore::set_members(const std::string& name) const {
  auto id = find_set(name);
  if (!id.has_value()) {
    return make_error(Errc::kNotFound, "no set named '" + name + "'");
  }
  const Object* obj = get(*id);
  if (obj == nullptr) {
    return make_error(Errc::kNotFound, "set object for '" + name + "' missing");
  }
  return obj->pointers(kSetMemberKey);
}

std::vector<std::string> SiteStore::set_names() const {
  std::vector<std::string> names;
  names.reserve(named_sets_.size());
  for (const auto& [name, id] : named_sets_) names.push_back(name);
  return names;
}

}  // namespace hyperfile
