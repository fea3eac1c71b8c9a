// Per-file fact extraction for the whole-tree pass: function boundaries (a
// brace-matched scope tree with a backward classifier for the opening
// brace), RankedMutex/RankedConditionVariable declarations, lock / wait /
// submit / call / committed-write / verify-gate events positioned inside
// their enclosing function, switch sites with their case coverage, enum
// definitions, and the machine-readable rank table. Everything is lexical —
// no preprocessing, no type checking — which is exactly enough for the
// L/P rule families and degrades to "no facts" (not "wrong facts") on code
// shapes it does not understand.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "detlint/internal.h"

namespace detlint::facts {

// One X(sym, value, "name") entry of a HERE_LOCK_RANK_TABLE block.
struct RankEntry {
  std::string symbol;
  std::uint32_t value = 0;
  std::string wire_name;
  std::string path;
  int line = 0;
};

// RankedMutex <var>{LockRank::<sym>, "<name>"} (brace or paren form, or a
// static_cast<LockRank>(N) literal rank as the fixtures/tests use).
struct MutexDecl {
  std::string var;
  std::string rank_symbol;  // empty for cast form
  bool has_cast_value = false;
  std::uint32_t cast_value = 0;
  std::string name_literal;
  std::string path;
  std::size_t pos = 0;  // offset in the file's views (for scope resolution)
  int line = 0;
};

// A raw std::mutex / std::condition_variable declaration (L2 candidate;
// the tree pass applies the data-plane path gate).
struct RawMutexDecl {
  std::string type;  // "mutex", "condition_variable", ...
  std::string var;
  int line = 0;
};

struct EnumDef {
  std::string name;
  std::vector<std::string> enumerators;
  std::string path;
  int line = 0;
};

// Case labels of one switch, grouped by the enum they qualify with
// (`case wire::PageEncoding::kRaw:` files under "PageEncoding").
struct CaseGroup {
  std::string enum_name;
  std::vector<std::string> covered;  // sorted, unique
};

struct SwitchSite {
  int line = 0;
  bool has_default = false;
  std::vector<CaseGroup> groups;
};

enum class EventKind {
  kAcquire,  // guard construction or manual lock()/try_lock()
  kRelease,  // manual unlock() (folded into acquire intervals)
  kCall,     // plain call site: candidate call-graph edge
  kSubmit,   // ThreadPool::submit / parallel_for
  kWait,     // condition-variable wait
  kWrite,    // write to committed-image state (P2)
  kGate,     // digest/CRC verification call (P2)
};

struct Event {
  EventKind kind{};
  std::size_t pos = 0;  // offset in the code view
  int line = 0;
  std::string name;  // acquire: mutex var; call: callee; wait: cv var;
                     // write/gate: the matched identifier
  std::string arg;   // wait: the lock var passed in; acquire: the guard var;
                     // call: receiver encoding — "" free/self call,
                     // "v:<var>" obj.f()/obj->f(), "q:<Q>" Q::f(),
                     // "?" unresolvable receiver expression
  std::size_t release_pos = 0;  // acquire: where the hold provably ends
};

struct FunctionFact {
  std::string name;       // last component ("commit"); lambdas: "<lambda>"
  std::string qualifier;  // "ReplicaStaging" for members, else ""
  bool is_lambda = false;
  int line = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<Event> events;  // own body only, sorted by pos
  std::vector<internal::VerifiedBy> verified_by;  // P2 annotations on this fn
};

struct FileFacts {
  std::string path;
  std::vector<RankEntry> rank_table;  // only when the rank-table marker set
  std::vector<MutexDecl> mutex_decls;
  std::vector<std::string> cv_vars;
  std::vector<RawMutexDecl> raw_mutexes;
  std::vector<EnumDef> enums;
  std::vector<SwitchSite> switches;
  std::vector<FunctionFact> functions;
  // Names of the classes/structs/unions this file defines.
  std::set<std::string> classes;
  // Declared variable -> type-name tokens (last :: component), e.g.
  // {"disk_" -> {"VirtualDisk"}}. Used to type call receivers so that
  // `entries_.clear()` (a vector) never resolves to `PmlRing::clear`.
  std::map<std::string, std::set<std::string>> var_types;
};

[[nodiscard]] FileFacts extract_facts(const std::string& display_path,
                                      const internal::Views& views,
                                      const internal::FileDirectives& dirs);

}  // namespace detlint::facts
