// Per-object processing state (paper Section 3).
//
// While a query runs, each object in flight carries:
//   * id     — O.id, used to fetch the object;
//   * start  — O.start, the first filter to process the object (1 for the
//              initial set; dereferenced objects enter at the filter after
//              the dereference);
//   * next   — O.next, the next filter index to apply;
//   * iter   — O.iter#, the pointer-chain depth. The paper notes that with
//              nested iterators this is "actually a stack of iteration
//              numbers": the top entry is the innermost enclosing loop's
//              count; a dereference copies the stack and increments only the
//              top entry.
//   * mvars  — O.mvars, matching-variable bindings. Transient: bindings are
//              rebuilt on every processing pass ("O.mvars always starts as
//              {}"), which is what makes distribution cheap — a remote
//              dereference ships only (id, start, iter).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/value.hpp"

namespace hyperfile {

/// O.mvars: the values bound to each matching variable, as a flat list of
/// (variable, values) slots. A query names few variables, so a linear scan
/// beats hashing. clear() empties the slots but keeps them, names and
/// capacity included: a table reused across items (QueryExecution lends
/// one to each item it processes) binds without allocating once it has
/// seen the query's variables. A slot with no values is unbound.
class MatchBindings {
 public:
  /// Bind a value to `var` (set semantics: duplicates ignored).
  void bind(const std::string& var, const Value& v) {
    for (Slot& s : slots_) {
      if (s.var != var) continue;
      for (const auto& existing : s.values) {
        if (existing == v) return;
      }
      s.values.push_back(v);
      return;
    }
    slots_.push_back(Slot{var, {v}});
  }

  /// Values bound to `var`, or nullptr if none.
  const std::vector<Value>* lookup(const std::string& var) const {
    for (const Slot& s : slots_) {
      if (s.var == var) return s.values.empty() ? nullptr : &s.values;
    }
    return nullptr;
  }

  bool contains(const std::string& var, const Value& v) const {
    const auto* vals = lookup(var);
    if (vals == nullptr) return false;
    for (const auto& existing : *vals) {
      if (existing == v) return true;
    }
    return false;
  }

  void clear() {
    for (Slot& s : slots_) s.values.clear();
  }
  bool empty() const {
    for (const Slot& s : slots_) {
      if (!s.values.empty()) return false;
    }
    return true;
  }

 private:
  struct Slot {
    std::string var;
    std::vector<Value> values;
  };

  std::vector<Slot> slots_;  // one per variable ever bound here
};

struct WorkItem {
  ObjectId id;
  std::uint32_t start = 1;
  std::uint32_t next = 1;
  /// Iteration-number stack; back() is the innermost loop. Never empty once
  /// initialized (the base entry is the paper's flat iter# = 1).
  std::vector<std::uint32_t> iter_stack{1};
  MatchBindings mvars;

  static WorkItem initial(ObjectId id) {
    WorkItem w;
    w.id = id;
    return w;
  }

  std::uint32_t iter_top() const {
    return iter_stack.empty() ? 1 : iter_stack.back();
  }
};

}  // namespace hyperfile
