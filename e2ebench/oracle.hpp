// The benchmark's own answer key. It is computed from the generated objects
// before any site starts, by a breadth-first walk written here rather than
// by the program's query engine, so a wrong answer from the runtime cannot
// also be the expected one.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "store/site_store.hpp"

namespace e2ebench {

/// Rand10p values are drawn from 1..10 by the paper workload generator.
inline constexpr std::int64_t kRand10pMax = 10;

struct Oracle {
  /// Members of the Root set; sorted.
  std::vector<hyperfile::ObjectId> roots;
  /// Every object reachable from the Root set over the pointer key,
  /// the Root members included; sorted.
  std::vector<hyperfile::ObjectId> closure;
  /// closure filtered on (skey, "Rand10p", v), for v in 1..kRand10pMax;
  /// sorted. Index 0 is unused.
  std::array<std::vector<hyperfile::ObjectId>, kRand10pMax + 1> by_rand10p;
};

/// Walk the closure of `pointer_key` pointers from the "Root" set over the
/// objects in `stores` (read through SiteStore::get).
Oracle build_oracle(std::span<const hyperfile::SiteStore* const> stores,
                    const std::string& pointer_key);

}  // namespace e2ebench
