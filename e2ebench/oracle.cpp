#include "oracle.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "model/tuple.hpp"
#include "workload/paper_workload.hpp"

namespace e2ebench {

using hyperfile::ObjectId;

namespace {

const hyperfile::Object* find_object(
    std::span<const hyperfile::SiteStore* const> stores, const ObjectId& id) {
  for (const hyperfile::SiteStore* s : stores) {
    if (const hyperfile::Object* o = s->get(id)) return o;
  }
  return nullptr;
}

}  // namespace

Oracle build_oracle(std::span<const hyperfile::SiteStore* const> stores,
                    const std::string& pointer_key) {
  std::deque<ObjectId> frontier;
  for (const hyperfile::SiteStore* s : stores) {
    auto members = s->set_members(hyperfile::workload::kRootSet);
    if (members.ok()) {
      for (const ObjectId& id : members.value()) frontier.push_back(id);
    }
  }
  if (frontier.empty()) throw std::runtime_error("oracle: no Root set");

  Oracle oracle;
  oracle.roots.assign(frontier.begin(), frontier.end());
  std::sort(oracle.roots.begin(), oracle.roots.end());
  std::unordered_set<ObjectId> seen(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    const ObjectId id = frontier.front();
    frontier.pop_front();
    const hyperfile::Object* obj = find_object(stores, id);
    if (obj == nullptr) {
      throw std::runtime_error("oracle: dangling pointer " + id.to_string());
    }
    oracle.closure.push_back(id);
    for (const hyperfile::Tuple& t : obj->tuples()) {
      if (t.type == hyperfile::tuple_types::kPointer && t.key == pointer_key &&
          t.data.is_pointer() && seen.insert(t.data.as_pointer()).second) {
        frontier.push_back(t.data.as_pointer());
      }
      if (t.type == hyperfile::workload::kSearchType &&
          t.key == hyperfile::workload::kRand10pKey && t.data.is_number()) {
        const std::int64_t v = t.data.as_number();
        if (v >= 1 && v <= kRand10pMax) oracle.by_rand10p[v].push_back(id);
      }
    }
  }
  std::sort(oracle.closure.begin(), oracle.closure.end());
  for (auto& ids : oracle.by_rand10p) std::sort(ids.begin(), ids.end());
  return oracle;
}

}  // namespace e2ebench
