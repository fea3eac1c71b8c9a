#include "detlint/tree_rules.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

namespace detlint::tree {

namespace {

using facts::Event;
using facts::EventKind;
using facts::FileFacts;
using facts::FunctionFact;
using facts::MutexDecl;
using facts::RankEntry;

// L2's data-plane path gate — raw std::mutex / std::condition_variable on
// these paths bypass the ranking table. (`// detlint: data-plane` arms the
// same checks for fixtures and opted-in files.)
const std::vector<std::string>& data_plane_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "src/replication/", "src/hv/", "src/common/thread_pool", "src/obs/"};
  return kPrefixes;
}

// P2's refuse-before-apply gate — files whose committed-image writes must
// be dominated by a verification. (`// detlint: staging` arms fixtures.)
const std::vector<std::string>& staging_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "src/replication/staging", "src/replication/durable_store"};
  return kPrefixes;
}

// P1's protocol enums: frame verdicts/encodings, fault kinds and the
// recovery and engine-lifecycle state machines. A switch over one of these
// that misses an enumerator is how the next wire kind silently falls through
// dispatch.
const std::set<std::string>& protocol_enums() {
  static const std::set<std::string> kEnums = {
      "FaultType",    "FaultKind",     "PageEncoding", "FrameVerdict",
      "EngineMode",   "RecoveryState", "WireKind",     "PrimaryPhase",
      "ReplicaPhase"};
  return kEnums;
}

struct HeldLock {
  std::uint32_t rank = 0;
  std::string label;
  int unit = -1;
  int decl = -1;  // index into units[unit].facts.mutex_decls
};

bool same_decl(const HeldLock& a, const HeldLock& b) {
  return a.unit == b.unit && a.decl == b.decl;
}

struct ResolvedMutex {
  int decl_index = -1;
  const MutexDecl* decl = nullptr;
  bool ranked = false;
  std::uint32_t rank = 0;
  std::string label;
  bool file_scope = true;  // not inside any function body
};

struct Unit {
  FileUnit* file = nullptr;
  // Headers whose declarations this unit sees: the matching X.h for X.cc,
  // then — when every function here is a member of one class — the header
  // defining that class (a class split across several TUs has one header).
  std::vector<int> headers;
  std::string module;
  bool data_plane = false;
  bool staging = false;
  bool in_src = false;
  std::vector<ResolvedMutex> mutexes;  // own-file declarations
  std::set<std::string> cv_vars;       // own declarations
};

struct FnRef {
  int unit = -1;
  int fn = -1;
  bool operator<(const FnRef& o) const {
    return unit != o.unit ? unit < o.unit : fn < o.fn;
  }
};

std::string module_of(const std::string& path) {
  const std::size_t first = path.find('/');
  if (first == std::string::npos) return path;
  const std::size_t second = path.find('/', first + 1);
  return second == std::string::npos ? path.substr(0, first)
                                     : path.substr(0, second);
}

std::string fn_display(const FunctionFact& fn) {
  if (fn.is_lambda) return "<lambda>";
  return fn.qualifier.empty() ? fn.name : fn.qualifier + "::" + fn.name;
}

class Analyzer {
 public:
  explicit Analyzer(std::vector<FileUnit>& files) : files_(files) {}

  std::vector<Finding> run() {
    link();
    check_rank_table();
    propagate();
    check_switches();
    check_verified_apply();
    std::vector<Finding> out;
    out.reserve(findings_.size());
    for (auto& [key, f] : findings_) out.push_back(std::move(f));
    return out;
  }

 private:
  void report(const std::string& path, int line, Rule rule,
              const std::string& message) {
    const auto key = std::make_tuple(path, line, static_cast<int>(rule));
    findings_.emplace(key, Finding{path, line, rule, message});
  }

  // -------------------------------------------------------------------
  // Linkage: rank table merge, per-unit mutex resolution, symbol tables.
  // -------------------------------------------------------------------
  void link() {
    std::map<std::string, int> by_path;
    for (std::size_t i = 0; i < files_.size(); ++i) {
      by_path[files_[i].path] = static_cast<int>(i);
    }
    // Merge the declared rank table (conflicting redeclaration = finding).
    for (FileUnit& f : files_) {
      for (const RankEntry& e : f.facts.rank_table) {
        auto it = table_.find(e.symbol);
        if (it == table_.end()) {
          table_.emplace(e.symbol, e);
        } else if (it->second.value != e.value) {
          report(e.path, e.line, Rule::kRankTable,
                 "rank table entry " + e.symbol +
                     " redeclared with a different value (" +
                     std::to_string(e.value) + " vs " +
                     std::to_string(it->second.value) + ")");
        }
      }
    }
    units_.resize(files_.size());
    for (std::size_t i = 0; i < files_.size(); ++i) {
      Unit& u = units_[i];
      u.file = &files_[i];
      u.module = module_of(files_[i].path);
      u.in_src = internal::has_prefix(files_[i].path, "src/");
      u.data_plane =
          files_[i].dirs->data_plane_marker ||
          internal::path_allowlisted(files_[i].path, data_plane_prefixes());
      u.staging =
          files_[i].dirs->staging_marker ||
          internal::path_allowlisted(files_[i].path, staging_prefixes());
      const std::string& path = files_[i].path;
      for (const char* ext : {".cc", ".cpp", ".cxx"}) {
        const std::size_t n = std::strlen(ext);
        if (path.size() > n && path.compare(path.size() - n, n, ext) == 0) {
          auto it = by_path.find(path.substr(0, path.size() - n) + ".h");
          if (it != by_path.end()) u.headers.push_back(it->second);
        }
      }
      for (const std::string& cv : files_[i].facts.cv_vars) {
        u.cv_vars.insert(cv);
      }
      // Resolve this unit's mutex declarations against the table.
      for (std::size_t d = 0; d < files_[i].facts.mutex_decls.size(); ++d) {
        const MutexDecl& decl = files_[i].facts.mutex_decls[d];
        ResolvedMutex r;
        r.decl_index = static_cast<int>(d);
        r.decl = &files_[i].facts.mutex_decls[d];
        for (const FunctionFact& fn : files_[i].facts.functions) {
          if (decl.pos > fn.body_begin && decl.pos < fn.body_end) {
            r.file_scope = false;
            break;
          }
        }
        if (decl.has_cast_value) {
          r.ranked = true;
          r.rank = decl.cast_value;
          r.label = decl.name_literal;
        } else if (!table_.empty()) {
          auto it = table_.find(decl.rank_symbol);
          if (it == table_.end()) {
            if (u.in_src || u.data_plane) {
              report(decl.path, decl.line, Rule::kRankTable,
                     "RankedMutex '" + decl.var + "' constructed with rank "
                     "symbol '" + decl.rank_symbol +
                         "' that is not in the declared rank table");
            }
          } else {
            constructed_.insert(decl.rank_symbol);
            r.ranked = true;
            r.rank = it->second.value;
            r.label = it->second.wire_name;
            if ((u.in_src || u.data_plane) &&
                decl.name_literal != it->second.wire_name) {
              report(decl.path, decl.line, Rule::kRankTable,
                     "RankedMutex '" + decl.var + "' name \"" +
                         decl.name_literal +
                         "\" contradicts the rank table, which names " +
                         decl.rank_symbol + " \"" + it->second.wire_name +
                         "\"");
            }
          }
        }
        u.mutexes.push_back(std::move(r));
      }
      // L2: raw mutexes on data-plane paths.
      if (u.data_plane) {
        for (const facts::RawMutexDecl& raw : files_[i].facts.raw_mutexes) {
          report(files_[i].path, raw.line, Rule::kRankTable,
                 "raw std::" + raw.type + " '" + raw.var +
                     "' on a data-plane path bypasses the lock-ranking "
                     "table — use common::RankedMutex / "
                     "RankedConditionVariable (src/common/lock_rank.h)");
        }
      }
      // Symbol tables: functions by last-component name; enums by name.
      for (std::size_t f = 0; f < files_[i].facts.functions.size(); ++f) {
        const FunctionFact& fn = files_[i].facts.functions[f];
        if (!fn.is_lambda) {
          fn_index_[fn.name].push_back({static_cast<int>(i),
                                        static_cast<int>(f)});
        }
      }
      for (const facts::EnumDef& e : files_[i].facts.enums) {
        enums_.emplace(e.name, e);  // first definition wins
      }
    }
    link_class_headers();
  }

  // A TU whose functions are all members of one class also sees that
  // class's header, so receivers and members declared there resolve in
  // every TU of a class split across files, not only in its sibling X.cc.
  void link_class_headers() {
    std::map<std::string, int> class_header;  // first definition wins
    for (std::size_t i = 0; i < files_.size(); ++i) {
      const std::string& path = files_[i].path;
      if (path.size() < 2 || path.compare(path.size() - 2, 2, ".h") != 0) {
        continue;
      }
      for (const std::string& c : files_[i].facts.classes) {
        class_header.emplace(c, static_cast<int>(i));
      }
    }
    for (std::size_t i = 0; i < units_.size(); ++i) {
      std::string owner;
      bool one_class = true;
      for (const FunctionFact& fn : files_[i].facts.functions) {
        if (fn.is_lambda) continue;
        const std::string cls = last_component(fn.qualifier);
        if (fn.qualifier.empty() || (!owner.empty() && cls != owner)) {
          one_class = false;
          break;
        }
        owner = cls;
      }
      if (!one_class || owner.empty()) continue;
      auto it = class_header.find(owner);
      std::vector<int>& headers = units_[i].headers;
      if (it != class_header.end() && it->second != static_cast<int>(i) &&
          std::find(headers.begin(), headers.end(), it->second) ==
              headers.end()) {
        headers.push_back(it->second);
      }
    }
  }

  void check_rank_table() {
    // Dead table entries: a declared rank no RankedMutex construction uses.
    // Only meaningful when constructions are visible in the scan set at all.
    if (table_.empty()) return;
    bool any_decl = false;
    for (const Unit& u : units_) any_decl |= !u.mutexes.empty();
    if (!any_decl) return;
    for (const auto& [symbol, entry] : table_) {
      if (constructed_.count(symbol) != 0) continue;
      report(entry.path, entry.line, Rule::kRankTable,
             "declared rank " + symbol + " (" + std::to_string(entry.value) +
                 ", \"" + entry.wire_name +
                 "\") is never constructed — dead table entry");
    }
  }

  // -------------------------------------------------------------------
  // Mutex variable resolution, scope-aware: a local declaration in the
  // same function wins over file/class scope, which wins over the unit's
  // headers (sibling first).
  // -------------------------------------------------------------------
  const ResolvedMutex* resolve_mutex(int unit, const FunctionFact& fn,
                                     const std::string& var,
                                     std::size_t before_pos) const {
    const Unit& u = units_[unit];
    const ResolvedMutex* best_local = nullptr;
    const ResolvedMutex* file_scope = nullptr;
    const ResolvedMutex* any = nullptr;
    int candidates = 0;
    for (const ResolvedMutex& r : u.mutexes) {
      if (r.decl->var != var) continue;
      ++candidates;
      any = &r;
      if (!r.file_scope && r.decl->pos > fn.body_begin &&
          r.decl->pos < fn.body_end && r.decl->pos < before_pos) {
        if (best_local == nullptr || r.decl->pos > best_local->decl->pos) {
          best_local = &r;
        }
      }
      if (r.file_scope && file_scope == nullptr) file_scope = &r;
    }
    if (best_local != nullptr) return best_local;
    if (file_scope != nullptr) return file_scope;
    for (const int h : u.headers) {
      for (const ResolvedMutex& r : units_[h].mutexes) {
        if (r.decl->var == var && r.file_scope) return &r;
      }
    }
    return candidates == 1 ? any : nullptr;
  }

  int unit_of_resolved(const ResolvedMutex* r, int home_unit) const {
    // The resolved decl lives either in home_unit or one of its headers.
    const Unit& u = units_[home_unit];
    for (const int h : u.headers) {
      for (const ResolvedMutex& m : units_[h].mutexes) {
        if (&m == r) return h;
      }
    }
    return home_unit;
  }

  // -------------------------------------------------------------------
  // Held-context propagation: L1 / L3 / L4.
  // -------------------------------------------------------------------
  struct State {
    FnRef fn;
    std::vector<HeldLock> ctx;  // sorted by (rank, label)
    std::string chain;
  };

  static std::string ctx_key(const std::vector<HeldLock>& ctx) {
    std::ostringstream os;
    for (const HeldLock& h : ctx) os << h.unit << ':' << h.decl << ';';
    return os.str();
  }

  static void normalize(std::vector<HeldLock>& ctx) {
    std::sort(ctx.begin(), ctx.end(),
              [](const HeldLock& a, const HeldLock& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                if (a.unit != b.unit) return a.unit < b.unit;
                return a.decl < b.decl;
              });
    ctx.erase(std::unique(ctx.begin(), ctx.end(),
                          [](const HeldLock& a, const HeldLock& b) {
                            return same_decl(a, b);
                          }),
              ctx.end());
  }

  static std::string last_component(const std::string& qualified) {
    const std::size_t sep = qualified.rfind("::");
    return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
  }

  std::vector<FnRef> resolve_callee(const Event& call, int from_unit) const {
    auto it = fn_index_.find(call.name);
    if (it == fn_index_.end()) return {};
    const std::vector<FnRef>& all = it->second;
    // Receiver-typed resolution first: `disk_.apply(...)` with a visible
    // `hv::VirtualDisk& disk_;` declaration must only edge into
    // VirtualDisk::apply — and a receiver whose type matches no scanned
    // class (std containers, atomics) contributes no edge at all.
    const auto with_qualifier = [&](const std::set<std::string>& types) {
      std::vector<FnRef> out;
      for (const FnRef& r : all) {
        const facts::FunctionFact& fn =
            files_[r.unit].facts.functions[r.fn];
        if (!fn.qualifier.empty() &&
            types.count(last_component(fn.qualifier)) != 0) {
          out.push_back(r);
        }
      }
      return out;
    };
    if (call.arg.rfind("v:", 0) == 0) {
      const std::string var = call.arg.substr(2);
      std::set<std::string> types;
      const auto add_types = [&](int unit) {
        auto vt = files_[unit].facts.var_types.find(var);
        if (vt != files_[unit].facts.var_types.end()) {
          types.insert(vt->second.begin(), vt->second.end());
        }
      };
      add_types(from_unit);
      for (const int h : units_[from_unit].headers) add_types(h);
      if (!types.empty()) {
        std::vector<FnRef> typed = with_qualifier(types);
        return typed.size() <= 8 ? typed : std::vector<FnRef>{};
      }
    } else if (call.arg.rfind("q:", 0) == 0) {
      std::vector<FnRef> typed = with_qualifier({call.arg.substr(2)});
      if (!typed.empty()) {
        return typed.size() <= 8 ? typed : std::vector<FnRef>{};
      }
      // A namespace (not class) qualifier: fall through to name-only
      // narrowing below.
    }
    std::vector<FnRef> same_file;
    std::vector<FnRef> same_module;
    const std::vector<int>& headers = units_[from_unit].headers;
    for (const FnRef& r : all) {
      if (r.unit == from_unit ||
          std::find(headers.begin(), headers.end(), r.unit) != headers.end()) {
        same_file.push_back(r);
      }
      if (units_[r.unit].module == units_[from_unit].module) {
        same_module.push_back(r);
      }
    }
    const std::vector<FnRef>& pick = !same_file.empty()    ? same_file
                                     : !same_module.empty() ? same_module
                                                            : all;
    // A very common name resolves everywhere and only adds noise.
    return pick.size() <= 8 ? pick : std::vector<FnRef>{};
  }

  void propagate() {
    std::deque<State> work;
    std::set<std::pair<FnRef, std::string>> visited;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      for (std::size_t f = 0; f < files_[i].facts.functions.size(); ++f) {
        const FnRef ref{static_cast<int>(i), static_cast<int>(f)};
        visited.insert({ref, ""});
        work.push_back({ref, {}, ""});
      }
    }
    int budget = 200000;  // defensive cap; never near it in practice
    while (!work.empty() && budget-- > 0) {
      State s = std::move(work.front());
      work.pop_front();
      simulate(s, work, visited);
    }
  }

  void simulate(const State& s, std::deque<State>& work,
                std::set<std::pair<FnRef, std::string>>& visited) {
    const FunctionFact& fn =
        files_[s.fn.unit].facts.functions[s.fn.fn];
    const std::string& path = files_[s.fn.unit].path;
    const std::string chain_suffix =
        s.chain.empty() ? "" : "; reached via " + s.chain;

    struct LocalAcq {
      std::size_t pos;
      std::size_t release;
      HeldLock lock;
    };
    std::vector<LocalAcq> acqs;
    for (const Event& e : fn.events) {
      if (e.kind != EventKind::kAcquire) continue;
      const ResolvedMutex* r =
          resolve_mutex(s.fn.unit, fn, e.name, e.pos + 1);
      if (r == nullptr || !r->ranked) continue;
      const int decl_unit = unit_of_resolved(r, s.fn.unit);
      acqs.push_back(
          {e.pos, e.release_pos,
           HeldLock{r->rank, r->label, decl_unit, r->decl_index}});
    }
    const auto held_at = [&](std::size_t pos) {
      std::vector<HeldLock> held = s.ctx;
      for (const LocalAcq& a : acqs) {
        if (a.pos < pos && pos < a.release) held.push_back(a.lock);
      }
      normalize(held);
      return held;
    };

    for (const Event& e : fn.events) {
      switch (e.kind) {
        case EventKind::kAcquire: {
          const ResolvedMutex* r =
              resolve_mutex(s.fn.unit, fn, e.name, e.pos + 1);
          if (r == nullptr || !r->ranked) break;
          const std::vector<HeldLock> held = held_at(e.pos);
          if (held.empty()) break;
          const HeldLock& top = held.back();  // max rank (sorted)
          if (r->rank <= top.rank) {
            report(path, e.line, Rule::kLockOrder,
                   "acquiring ranked mutex '" + r->label + "' (rank " +
                       std::to_string(r->rank) + ") while '" + top.label +
                       "' (rank " + std::to_string(top.rank) +
                       ") is held — ranks must be strictly increasing" +
                       chain_suffix);
          }
          break;
        }
        case EventKind::kSubmit: {
          const std::vector<HeldLock> held = held_at(e.pos);
          if (held.empty()) break;
          const HeldLock& top = held.back();
          report(path, e.line, Rule::kLockAcrossSubmit,
                 "ranked mutex '" + top.label + "' (rank " +
                     std::to_string(top.rank) +
                     ") held across a thread-pool submit — the queued task "
                     "runs on a worker that may need it" +
                     chain_suffix);
          break;
        }
        case EventKind::kWait: {
          const Unit& u = units_[s.fn.unit];
          bool ranked_cv = u.cv_vars.count(e.name) != 0;
          for (const int h : u.headers) {
            ranked_cv = ranked_cv || units_[h].cv_vars.count(e.name) != 0;
          }
          if (!ranked_cv) break;
          // The waited-on mutex: the guard variable passed to wait()
          // maps back to the mutex it guards, or is the mutex itself.
          const ResolvedMutex* waited = nullptr;
          for (const Event& a : fn.events) {
            if (a.kind == EventKind::kAcquire && a.arg == e.arg &&
                a.pos < e.pos) {
              waited = resolve_mutex(s.fn.unit, fn, a.name, a.pos + 1);
            }
          }
          if (waited == nullptr) {
            waited = resolve_mutex(s.fn.unit, fn, e.arg, e.pos);
          }
          std::vector<HeldLock> held = held_at(e.pos);
          if (waited != nullptr) {
            const int decl_unit = unit_of_resolved(waited, s.fn.unit);
            const HeldLock w{waited->rank, waited->label, decl_unit,
                             waited->decl_index};
            held.erase(std::remove_if(held.begin(), held.end(),
                                      [&](const HeldLock& h) {
                                        return same_decl(h, w);
                                      }),
                       held.end());
          }
          if (held.empty()) break;
          const HeldLock& top = held.back();
          report(path, e.line, Rule::kCvWaitHeld,
                 "condition-variable wait while '" + top.label + "' (rank " +
                     std::to_string(top.rank) +
                     ") is held in addition to the waited-on mutex — the "
                     "notify path may need it" +
                     chain_suffix);
          break;
        }
        case EventKind::kCall: {
          std::vector<HeldLock> ctx = held_at(e.pos);
          const std::vector<FnRef> callees = resolve_callee(e, s.fn.unit);
          for (const FnRef& callee : callees) {
            const std::string key = ctx_key(ctx);
            if (!visited.insert({callee, key}).second) continue;
            std::string chain = s.chain;
            // Cap the provenance text; propagation itself continues.
            if (std::count(chain.begin(), chain.end(), '>') < 4) {
              const std::string me = fn_display(fn);
              chain = chain.empty() ? me : chain + " -> " + me;
            }
            work.push_back({callee, ctx, chain});
          }
          break;
        }
        case EventKind::kRelease:
        case EventKind::kWrite:
        case EventKind::kGate:
          break;
      }
    }
  }

  // -------------------------------------------------------------------
  // P1: switch exhaustiveness over protocol enums.
  // -------------------------------------------------------------------
  void check_switches() {
    for (const FileUnit& f : files_) {
      for (const facts::SwitchSite& sw : f.facts.switches) {
        for (const facts::CaseGroup& g : sw.groups) {
          if (protocol_enums().count(g.enum_name) == 0) continue;
          auto it = enums_.find(g.enum_name);
          if (it == enums_.end()) continue;
          std::vector<std::string> missing;
          for (const std::string& e : it->second.enumerators) {
            if (!std::binary_search(g.covered.begin(), g.covered.end(), e)) {
              missing.push_back(e);
            }
          }
          if (missing.empty()) continue;
          std::string list;
          for (std::size_t i = 0; i < missing.size() && i < 4; ++i) {
            list += (i != 0 ? ", " : "") + missing[i];
          }
          if (missing.size() > 4) {
            list += ", … (" + std::to_string(missing.size()) + " total)";
          }
          report(f.path, sw.line, Rule::kExhaustiveSwitch,
                 "switch over protocol enum '" + g.enum_name +
                     "' misses enumerator(s): " + list +
                     " — handle them or waive with '// detlint: "
                     "allow(exhaustive) -- <why>'");
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // P2: refuse-before-apply for committed-image state.
  // -------------------------------------------------------------------
  bool target_verifies(const std::string& target, int depth) const {
    if (depth > 2) return false;
    // Optional qualifier: "ReplicaStaging::commit" restricts candidates.
    std::string qual;
    std::string name = target;
    const std::size_t sep = target.rfind("::");
    if (sep != std::string::npos) {
      qual = target.substr(0, sep);
      name = target.substr(sep + 2);
    }
    auto it = fn_index_.find(name);
    if (it == fn_index_.end()) return false;
    for (const FnRef& ref : it->second) {
      const FunctionFact& fn = files_[ref.unit].facts.functions[ref.fn];
      if (!qual.empty() && fn.qualifier != qual) continue;
      for (const Event& e : fn.events) {
        if (e.kind == EventKind::kGate) return true;
      }
      for (const internal::VerifiedBy& v : fn.verified_by) {
        if (target_verifies(v.target, depth + 1)) return true;
      }
    }
    return false;
  }

  void check_verified_apply() {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      if (!units_[i].staging) continue;
      const FileUnit& f = files_[i];
      for (const FunctionFact& fn : f.facts.functions) {
        bool has_write = false;
        for (const Event& e : fn.events) {
          has_write |= e.kind == EventKind::kWrite;
        }
        if (!has_write) continue;
        if (!fn.verified_by.empty()) {
          for (const internal::VerifiedBy& v : fn.verified_by) {
            if (!target_verifies(v.target, 0)) {
              report(f.path, v.line, Rule::kVerifiedApply,
                     "verified-by(" + v.target +
                         ") does not name a known function containing a "
                         "digest/CRC verification gate");
            }
          }
          continue;  // writes blessed by the annotation
        }
        bool gate_seen = false;
        for (const Event& e : fn.events) {
          if (e.kind == EventKind::kGate) gate_seen = true;
          if (e.kind == EventKind::kWrite && !gate_seen) {
            report(f.path, e.line, Rule::kVerifiedApply,
                   "write to committed-image state '" + e.name +
                       "' is not preceded by a digest/CRC verification in "
                       "this function — refuse before apply, or annotate "
                       "the blessed entry point with '// detlint: "
                       "verified-by(<fn>)'");
          }
        }
      }
    }
  }

  std::vector<FileUnit>& files_;
  std::vector<Unit> units_;
  std::map<std::string, RankEntry> table_;
  std::set<std::string> constructed_;
  std::map<std::string, std::vector<FnRef>> fn_index_;
  std::map<std::string, facts::EnumDef> enums_;
  std::map<std::tuple<std::string, int, int>, Finding> findings_;
};

}  // namespace

std::vector<Finding> run(std::vector<FileUnit>& units) {
  Analyzer analyzer(units);
  std::vector<Finding> findings = analyzer.run();
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  return findings;
}

}  // namespace detlint::tree
