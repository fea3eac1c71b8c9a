#include "detlint/facts.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <optional>
#include <regex>
#include <set>

namespace detlint::facts {

namespace {

using internal::LineIndex;

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

long skip_ws_back(const std::string& s, long j) {
  while (j >= 0 && std::isspace(static_cast<unsigned char>(s[j]))) --j;
  return j;
}

// Reads the identifier ending at j (inclusive); sets *start to its first
// character. Empty when s[j] is not an identifier character.
std::string word_back(const std::string& s, long j, long* start) {
  long b = j;
  while (b >= 0 && ident_char(s[b])) --b;
  *start = b + 1;
  if (*start > j) return "";
  return s.substr(static_cast<std::size_t>(*start),
                  static_cast<std::size_t>(j - *start + 1));
}

// s[j] must be `close`; returns the index of the matching `open`, or -1.
long match_back(const std::string& s, long j, char open, char close) {
  int depth = 0;
  for (; j >= 0; --j) {
    if (s[j] == close) {
      ++depth;
    } else if (s[j] == open) {
      if (--depth == 0) return j;
    }
  }
  return -1;
}

// pos must index `open`; returns the index of the matching `close`, or npos.
std::size_t match_forward(const std::string& s, std::size_t pos, char open,
                          char close) {
  int depth = 0;
  for (; pos < s.size(); ++pos) {
    if (s[pos] == open) {
      ++depth;
    } else if (s[pos] == close) {
      if (--depth == 0) return pos;
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Scope tree: every brace block, classified by looking backward from its
// opening '{'. Misclassification degrades to "no facts", never wrong facts:
// an unrecognized shape becomes a plain block and its events attach to the
// nearest enclosing *recognized* function (or are dropped at file scope).
// ---------------------------------------------------------------------------

struct Classified {
  enum Kind { kOther, kFunction, kLambda, kNamedScope } kind = kOther;
  std::string name;
  std::string qualifier;  // explicit X:: chain for out-of-line members
};

const std::set<std::string>& non_function_names() {
  static const std::set<std::string> kSet = {
      "if",     "for",   "while",  "switch",   "catch", "return",
      "sizeof", "new",   "delete", "alignof",  "co_await",
      "assert", "until", "not",    "decltype",
  };
  return kSet;
}

// Walks left from `p` — which points at ',' or the single ':' of a
// constructor initializer list — back through member-init groups
// (`ident(...)` / `ident{...}`) to the constructor's parameter list, and
// returns the position of the ')' closing it.
std::optional<long> ctor_params_close(const std::string& code, long p) {
  for (int guard = 0; guard < 64; ++guard) {
    if (p < 0) return std::nullopt;
    const char c = code[p];
    if (c == ':' && (p == 0 || code[p - 1] != ':')) {
      const long q = skip_ws_back(code, p - 1);
      if (q >= 0 && code[q] == ')') return q;
      return std::nullopt;
    }
    if (c != ',') return std::nullopt;
    long q = skip_ws_back(code, p - 1);
    if (q < 0) return std::nullopt;
    if (code[q] == ')') {
      const long lp = match_back(code, q, '(', ')');
      if (lp <= 0) return std::nullopt;
      q = lp - 1;
    } else if (code[q] == '}') {
      const long lb = match_back(code, q, '{', '}');
      if (lb <= 0) return std::nullopt;
      q = lb - 1;
    } else {
      return std::nullopt;
    }
    q = skip_ws_back(code, q);
    if (q < 0 || !ident_char(code[q])) return std::nullopt;
    long s;
    word_back(code, q, &s);
    p = skip_ws_back(code, s - 1);
  }
  return std::nullopt;
}

// Finishes classification once a candidate function name has been read
// (name ends just before `start`). Peels the explicit qualifier chain and
// detects the constructor-initializer-list shape, where the identifier we
// just read is really a member initializer, not the function name.
Classified finish_function(const std::string& code, const std::string& name,
                           long start, int depth) {
  Classified out;
  std::string qual;
  long k = start - 1;
  for (int guard = 0; guard < 16; ++guard) {
    const long k2 = skip_ws_back(code, k);
    if (k2 >= 1 && code[k2] == ':' && code[k2 - 1] == ':') {
      long j = skip_ws_back(code, k2 - 2);
      if (j >= 0 && code[j] == '>') {  // Foo<T>::name
        const long lt = match_back(code, j, '<', '>');
        if (lt < 0) break;
        j = skip_ws_back(code, lt - 1);
      }
      if (j < 0 || !ident_char(code[j])) break;
      long s;
      const std::string q = word_back(code, j, &s);
      qual = qual.empty() ? q : q + "::" + qual;
      k = s - 1;
      continue;
    }
    k = k2;
    break;
  }
  const long before = skip_ws_back(code, k);
  if (before >= 0 && depth < 2 &&
      (code[before] == ',' ||
       (code[before] == ':' && (before == 0 || code[before - 1] != ':')))) {
    // `Ctor(...) : a_(x), b_(y) {` — the candidate was a member init.
    if (const auto close = ctor_params_close(code, before)) {
      const long lp = match_back(code, *close, '(', ')');
      if (lp > 0) {
        const long nk = skip_ws_back(code, lp - 1);
        if (nk >= 0 && ident_char(code[nk])) {
          long ns;
          const std::string ctor = word_back(code, nk, &ns);
          if (!ctor.empty() && non_function_names().count(ctor) == 0) {
            return finish_function(code, ctor, ns, depth + 1);
          }
        }
      }
    }
    return out;  // unrecognized comma/colon shape: plain block
  }
  out.kind = Classified::kFunction;
  out.name = name;
  out.qualifier = qual;
  return out;
}

Classified classify_brace(const std::string& code, std::size_t brace_pos) {
  Classified out;
  long j = static_cast<long>(brace_pos) - 1;
  for (int guard = 0; guard < 64; ++guard) {
    j = skip_ws_back(code, j);
    if (j < 0) return out;
    const char c = code[j];
    if (ident_char(c)) {
      long start;
      const std::string w = word_back(code, j, &start);
      if (w == "const" || w == "noexcept" || w == "override" || w == "final" ||
          w == "mutable" || w == "try") {
        j = start - 1;
        continue;
      }
      if (w == "do" || w == "else") return out;
      // Trailing return type (`-> std::vector<int> {`)? Peel the qualified
      // name backward and look for the arrow.
      long k = start - 1;
      for (int g2 = 0; g2 < 16; ++g2) {
        const long k2 = skip_ws_back(code, k);
        if (k2 >= 1 && code[k2] == ':' && code[k2 - 1] == ':') {
          const long j2 = skip_ws_back(code, k2 - 2);
          if (j2 < 0 || !ident_char(code[j2])) break;
          long s2;
          word_back(code, j2, &s2);
          k = s2 - 1;
          continue;
        }
        k = k2;
        break;
      }
      k = skip_ws_back(code, k);
      if (k >= 1 && code[k] == '>' && code[k - 1] == '-') {
        j = k - 2;
        continue;
      }
      break;  // bare identifier before '{': named scope or brace init
    }
    if (c == '>') {
      if (j >= 1 && code[j - 1] == '-') {
        j -= 2;
        continue;
      }
      const long lt = match_back(code, j, '<', '>');
      if (lt < 0) return out;
      j = lt - 1;
      continue;
    }
    if (c == ']') {
      out.kind = Classified::kLambda;
      return out;
    }
    if (c == ')') {
      const long lp = match_back(code, j, '(', ')');
      if (lp <= 0) return out;
      const long k = skip_ws_back(code, lp - 1);
      if (k < 0) return out;
      if (code[k] == ']') {
        out.kind = Classified::kLambda;
        return out;
      }
      if (!ident_char(code[k])) return out;
      long start;
      const std::string name = word_back(code, k, &start);
      if (name.empty() || non_function_names().count(name) != 0) return out;
      if (name == "noexcept") {
        j = start - 1;
        continue;
      }
      return finish_function(code, name, start, 0);
    }
    return out;
  }
  // Named scope? (`class Foo : public Bar {`, `namespace x {`, ...)
  const std::size_t wstart = brace_pos > 240 ? brace_pos - 240 : 0;
  const std::string window = code.substr(wstart, brace_pos - wstart);
  static const std::regex kScope(
      R"((class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^;{}()]*)?$)");
  std::smatch m;
  if (std::regex_search(window, m, kScope)) {
    out.kind = Classified::kNamedScope;
    out.name = m[2].str();
  }
  return out;
}

struct Block {
  std::size_t open = 0;
  std::size_t close = 0;
  int parent = -1;
  Classified info;
  int fn_index = -1;  // into FileFacts::functions when function/lambda
};

std::vector<Block> build_blocks(const std::string& code) {
  std::vector<Block> blocks;
  std::vector<int> stack;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '{') {
      Block b;
      b.open = i;
      b.close = code.size();
      b.parent = stack.empty() ? -1 : stack.back();
      b.info = classify_brace(code, i);
      stack.push_back(static_cast<int>(blocks.size()));
      blocks.push_back(std::move(b));
    } else if (code[i] == '}') {
      if (!stack.empty()) {
        blocks[stack.back()].close = i;
        stack.pop_back();
      }
    }
  }
  return blocks;
}

// Innermost *any* block containing pos (for guard lifetimes).
int innermost_block(const std::vector<Block>& blocks, std::size_t pos) {
  int best = -1;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].open < pos && pos < blocks[i].close) {
      if (best < 0 || blocks[i].open > blocks[best].open) {
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

// Innermost function/lambda block containing pos, or -1 (file scope).
int innermost_function(const std::vector<Block>& blocks, std::size_t pos) {
  int best = -1;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].fn_index < 0) continue;
    if (blocks[i].open < pos && pos < blocks[i].close) {
      if (best < 0 || blocks[i].open > blocks[best].open) {
        best = static_cast<int>(i);
      }
    }
  }
  return best < 0 ? -1 : blocks[best].fn_index;
}

// Last identifier component of an argument expression:
// `g.mu` -> "mu", `this->mu_` -> "mu_", `*mu` -> "mu".
std::string last_ident(const std::string& expr) {
  long end = static_cast<long>(expr.size()) - 1;
  end = skip_ws_back(expr, end);
  if (end < 0 || !ident_char(expr[end])) return "";
  long start;
  return word_back(expr, end, &start);
}

// Splits `inside` (the text between balanced parens) at top-level commas.
std::vector<std::string> split_args(const std::string& inside) {
  std::vector<std::string> args;
  std::string cur;
  int depth = 0;
  for (const char c : inside) {
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      args.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  args.push_back(cur);
  return args;
}

}  // namespace

FileFacts extract_facts(const std::string& display_path,
                        const internal::Views& views,
                        const internal::FileDirectives& dirs) {
  FileFacts facts;
  facts.path = display_path;
  const std::string& code = views.code;
  const LineIndex lines(code);

  // --- Rank table (only when the file is marked as carrying one). ---
  if (dirs.rank_table_marker) {
    static const std::regex kEntry(
        R"re(\bX\(\s*(k\w+)\s*,\s*(\d+)\s*,\s*"([^"]*)"\s*\))re");
    for (auto it = std::sregex_iterator(views.code_strings.begin(),
                                        views.code_strings.end(), kEntry);
         it != std::sregex_iterator(); ++it) {
      RankEntry e;
      e.symbol = (*it)[1].str();
      e.value = static_cast<std::uint32_t>(std::stoul((*it)[2].str()));
      e.wire_name = (*it)[3].str();
      e.path = display_path;
      e.line = lines.line_of(static_cast<std::size_t>(it->position(0)));
      facts.rank_table.push_back(std::move(e));
    }
  }

  // --- RankedMutex / RankedConditionVariable declarations. ---
  {
    static const std::regex kMutexDecl(
        R"(\bRankedMutex\s+([A-Za-z_]\w*)\s*[{(]\s*)"
        R"((?:(?:[A-Za-z_]\w*\s*::\s*)*LockRank\s*::\s*([A-Za-z_]\w*))"
        R"re(|static_cast<\s*(?:[A-Za-z_]\w*\s*::\s*)*LockRank\s*>\s*\(\s*(\d+)\s*\))re"
        R"re()\s*,\s*"([^"]*)")re");
    for (auto it = std::sregex_iterator(views.code_strings.begin(),
                                        views.code_strings.end(), kMutexDecl);
         it != std::sregex_iterator(); ++it) {
      MutexDecl d;
      d.var = (*it)[1].str();
      d.rank_symbol = (*it)[2].str();
      if ((*it)[3].matched) {
        d.has_cast_value = true;
        d.cast_value =
            static_cast<std::uint32_t>(std::stoul((*it)[3].str()));
      }
      d.name_literal = (*it)[4].str();
      d.path = display_path;
      d.pos = static_cast<std::size_t>(it->position(0));
      d.line = lines.line_of(d.pos);
      facts.mutex_decls.push_back(std::move(d));
    }
    static const std::regex kCvDecl(
        R"(\bRankedConditionVariable\s+([A-Za-z_]\w*))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kCvDecl);
         it != std::sregex_iterator(); ++it) {
      facts.cv_vars.push_back((*it)[1].str());
    }
  }

  // --- Raw std::mutex / std::condition_variable declarations (L2). ---
  {
    static const std::regex kRaw(
        R"(\bstd\s*::\s*(mutex|recursive_mutex|timed_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any)\b\s+([A-Za-z_]\w*))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kRaw);
         it != std::sregex_iterator(); ++it) {
      RawMutexDecl d;
      d.type = (*it)[1].str();
      d.var = (*it)[2].str();
      d.line = lines.line_of(static_cast<std::size_t>(it->position(0)));
      facts.raw_mutexes.push_back(std::move(d));
    }
  }

  // --- Scoped enum definitions. ---
  {
    static const std::regex kEnum(
        R"(\benum\s+(?:class|struct)\s+([A-Za-z_]\w*)\s*(?::\s*[\w:]+(?:\s*::\s*\w+)*\s*)?\{)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kEnum);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open =
          static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
      const std::size_t close = match_forward(code, open, '{', '}');
      if (close == std::string::npos) continue;
      EnumDef def;
      def.name = (*it)[1].str();
      def.path = display_path;
      def.line = lines.line_of(static_cast<std::size_t>(it->position(0)));
      for (const std::string& piece :
           split_args(code.substr(open + 1, close - open - 1))) {
        // One enumerator per line is the common layout: skip the newline
        // (and indentation) before the name, not only blanks.
        std::size_t b = piece.find_first_not_of(" \t\r\n");
        if (b == std::string::npos) continue;
        std::size_t n = b;
        while (n < piece.size() && ident_char(piece[n])) ++n;
        if (n > b) def.enumerators.push_back(piece.substr(b, n - b));
      }
      if (!def.enumerators.empty()) facts.enums.push_back(std::move(def));
    }
  }

  // --- Switch sites with per-enum case coverage. ---
  {
    static const std::regex kSwitch(R"(\bswitch\s*\()");
    static const std::regex kCase(
        R"(\bcase\s+((?:[A-Za-z_]\w*\s*::\s*)+)([A-Za-z_]\w*)\s*:)");
    static const std::regex kDefault(R"(\bdefault\s*:)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kSwitch);
         it != std::sregex_iterator(); ++it) {
      const std::size_t lparen =
          static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
      const std::size_t rparen = match_forward(code, lparen, '(', ')');
      if (rparen == std::string::npos) continue;
      std::size_t b = rparen + 1;
      while (b < code.size() &&
             std::isspace(static_cast<unsigned char>(code[b]))) {
        ++b;
      }
      if (b >= code.size() || code[b] != '{') continue;
      const std::size_t close = match_forward(code, b, '{', '}');
      if (close == std::string::npos) continue;
      const std::string body = code.substr(b, close - b);
      SwitchSite site;
      site.line = lines.line_of(static_cast<std::size_t>(it->position(0)));
      site.has_default = std::regex_search(body, kDefault);
      std::map<std::string, std::set<std::string>> grouped;
      for (auto ct = std::sregex_iterator(body.begin(), body.end(), kCase);
           ct != std::sregex_iterator(); ++ct) {
        // Enum name = last component of the qualifier chain:
        // `case wire::PageEncoding::kRaw:` groups under "PageEncoding".
        static const std::regex kComponent(R"([A-Za-z_]\w*)");
        std::string qualifier = (*ct)[1].str();
        std::string enum_name;
        for (auto qt = std::sregex_iterator(qualifier.begin(),
                                            qualifier.end(), kComponent);
             qt != std::sregex_iterator(); ++qt) {
          enum_name = qt->str();
        }
        if (!enum_name.empty()) grouped[enum_name].insert((*ct)[2].str());
      }
      for (auto& [enum_name, covered] : grouped) {
        CaseGroup g;
        g.enum_name = enum_name;
        g.covered.assign(covered.begin(), covered.end());
        site.groups.push_back(std::move(g));
      }
      if (!site.groups.empty()) facts.switches.push_back(std::move(site));
    }
  }

  // --- Scope tree & functions. ---
  std::vector<Block> blocks = build_blocks(code);
  for (Block& b : blocks) {
    if (b.info.kind == Classified::kNamedScope) {
      facts.classes.insert(b.info.name);
    }
    if (b.info.kind != Classified::kFunction &&
        b.info.kind != Classified::kLambda) {
      continue;
    }
    FunctionFact fn;
    fn.is_lambda = b.info.kind == Classified::kLambda;
    fn.name = fn.is_lambda ? "<lambda>" : b.info.name;
    fn.qualifier = b.info.qualifier;
    if (fn.qualifier.empty() && !fn.is_lambda) {
      // Inline member: the nearest enclosing named class scope qualifies.
      for (int p = b.parent; p >= 0; p = blocks[p].parent) {
        if (blocks[p].info.kind == Classified::kNamedScope) {
          fn.qualifier = blocks[p].info.name;
          break;
        }
      }
    }
    fn.line = lines.line_of(b.open);
    fn.body_begin = b.open;
    fn.body_end = b.close;
    b.fn_index = static_cast<int>(facts.functions.size());
    facts.functions.push_back(std::move(fn));
  }

  // --- Events, attached to their innermost enclosing function. ---
  const auto add_event = [&](Event e) {
    const int fn = innermost_function(blocks, e.pos);
    if (fn < 0) return;
    e.line = lines.line_of(e.pos);
    facts.functions[fn].events.push_back(std::move(e));
  };

  // Guard constructions. The mutex argument list is balanced manually so
  // scoped_lock's multi-mutex form works.
  std::set<std::size_t> guard_spans;  // open-paren offsets already consumed
  {
    static const std::regex kGuard(
        R"(\b(?:std\s*::\s*)?(lock_guard|scoped_lock|unique_lock)\b\s*(?:<[^;{}]*?>)?\s*([A-Za-z_]\w*)\s*([({]))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kGuard);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position(3));
      const char open_ch = code[open];
      const std::size_t close = match_forward(
          code, open, open_ch, open_ch == '(' ? ')' : '}');
      if (close == std::string::npos) continue;
      guard_spans.insert(open);
      const int blk = innermost_block(blocks, open);
      const std::size_t release =
          blk < 0 ? code.size() : blocks[blk].close;
      for (const std::string& arg :
           split_args(code.substr(open + 1, close - open - 1))) {
        const std::string mutex_var = last_ident(arg);
        if (mutex_var.empty()) continue;
        Event e;
        e.kind = EventKind::kAcquire;
        e.pos = static_cast<std::size_t>(it->position(0));
        e.name = mutex_var;
        e.arg = (*it)[2].str();  // guard variable
        e.release_pos = release;
        add_event(std::move(e));
      }
    }
  }

  // Manual lock()/try_lock()/unlock() and condition-variable waits.
  {
    static const std::regex kManual(
        R"(\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(lock|try_lock|unlock|wait)\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kManual);
         it != std::sregex_iterator(); ++it) {
      const std::string op = (*it)[2].str();
      Event e;
      e.pos = static_cast<std::size_t>(it->position(0));
      e.name = (*it)[1].str();
      if (op == "wait") {
        const std::size_t open =
            static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
        const std::size_t close = match_forward(code, open, '(', ')');
        if (close == std::string::npos) continue;
        const std::vector<std::string> args =
            split_args(code.substr(open + 1, close - open - 1));
        if (args.empty()) continue;
        e.kind = EventKind::kWait;
        e.arg = last_ident(args[0]);
        add_event(std::move(e));
        continue;
      }
      e.kind = op == "unlock" ? EventKind::kRelease : EventKind::kAcquire;
      e.release_pos = code.size();  // paired into an interval by the caller
      add_event(std::move(e));
    }
  }

  // Thread-pool submits.
  {
    static const std::regex kSubmit(R"(\b(submit|parallel_for)\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kSubmit);
         it != std::sregex_iterator(); ++it) {
      Event e;
      e.kind = EventKind::kSubmit;
      e.pos = static_cast<std::size_t>(it->position(0));
      e.name = (*it)[1].str();
      add_event(std::move(e));
    }
  }

  // Committed-image writes and digest/CRC verification gates (P2).
  {
    static const std::regex kWrite(
        R"(\b(committed\w*)\s*((?:\[[^\][]*\]|\(\s*\))?)\s*)"
        R"((?:\.\s*(?:resize|push_back|emplace_back|clear|insert|erase|assign)\s*\(|\+\+|--|[+\-|&^]?=(?!=)))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kWrite);
         it != std::sregex_iterator(); ++it) {
      Event e;
      e.kind = EventKind::kWrite;
      e.pos = static_cast<std::size_t>(it->position(0));
      e.name = (*it)[1].str();
      add_event(std::move(e));
    }
    static const std::regex kGate(
        R"(\b(frame_intact|digest_fold|digest_init|receive_frame|expect_epoch|page_digest|region_digest|verify\w*|validate\w*|crc32c\w*)\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kGate);
         it != std::sregex_iterator(); ++it) {
      Event e;
      e.kind = EventKind::kGate;
      e.pos = static_cast<std::size_t>(it->position(0));
      e.name = (*it)[1].str();
      add_event(std::move(e));
    }
  }

  // Generic call sites (call-graph edges). Lock/wait/submit verbs are not
  // edges — they are modeled as their own event kinds above — and guard
  // constructions are skipped via guard_spans.
  {
    static const std::regex kCall(R"(\b([A-Za-z_]\w*)\s*\()");
    static const std::set<std::string> kReserved = {
        "lock",       "unlock",       "try_lock",   "wait",
        "submit",     "parallel_for", "notify_one", "notify_all",
        "lock_guard", "scoped_lock",  "unique_lock"};
    // Classifies what the callee name is invoked on, looking backward from
    // its first character: "" (free function or implicit this), "v:<var>"
    // (obj.f() / obj->f()), "q:<Q>" (Q::f()), "?" (a receiver expression
    // the scanner cannot name, e.g. make().f()).
    const auto receiver_of = [&code](std::size_t name_start) -> std::string {
      long j = skip_ws_back(code, static_cast<long>(name_start) - 1);
      if (j < 0) return "";
      if (code[j] == '.') {
        j = skip_ws_back(code, j - 1);
      } else if (j >= 1 && code[j] == '>' && code[j - 1] == '-') {
        j = skip_ws_back(code, j - 2);
      } else if (j >= 1 && code[j] == ':' && code[j - 1] == ':') {
        j = skip_ws_back(code, j - 2);
        long start = 0;
        const std::string q = word_back(code, j, &start);
        return q.empty() ? "?" : "q:" + q;
      } else {
        return "";
      }
      if (j < 0) return "?";
      long start = 0;
      const std::string v = word_back(code, j, &start);
      if (v.empty()) return "?";  // chained call or subscript result
      if (v == "this") return "";
      return "v:" + v;
    };
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kCall);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (kReserved.count(name) != 0 ||
          non_function_names().count(name) != 0) {
        continue;
      }
      const std::size_t open =
          static_cast<std::size_t>(it->position(0)) + it->length(0) - 1;
      if (guard_spans.count(open) != 0) continue;
      Event e;
      e.kind = EventKind::kCall;
      e.pos = static_cast<std::size_t>(it->position(0));
      e.name = name;
      e.arg = receiver_of(e.pos);
      add_event(std::move(e));
    }
  }

  // Variable -> type-name tokens, so the tree pass can type call receivers.
  // Lexical declarations only: `Type var;`, `ns::Type& var_;`,
  // `Type<...> var{...};`. The last :: component of the type is the token;
  // an unparseable or `auto` declaration simply leaves the var untyped
  // (untyped receivers fall back to name-only call resolution). An owning
  // smart pointer types as what it points to: `std::unique_ptr<ns::T> p_;`
  // and `std::shared_ptr<T> p_;` record T, so `p_->f()` edges into T::f.
  {
    static const std::regex kSmartPointee(
        R"(^<\s*(?:const\s+)?((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*>$)");
    static const std::regex kDecl(
        R"(\b((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*(<[^;{}<>()]*>)?)"
        R"re(((?:\s*[&*])+\s*|\s+)([A-Za-z_]\w*)\s*(?:;|=[^=]|\{))re");
    static const std::set<std::string> kNotTypes = {
        "auto",     "return",   "const",    "constexpr", "static",
        "mutable",  "virtual",  "inline",   "explicit",  "typename",
        "using",    "struct",   "class",    "enum",      "union",
        "namespace","template", "typedef",  "case",      "throw",
        "goto",     "new",      "delete",   "else",      "do",
        "public",   "private",  "protected","operator",  "sizeof",
        "unsigned", "signed",   "long",     "short",     "if",
        "while",    "for",      "switch",   "break",     "continue"};
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kDecl);
         it != std::sregex_iterator(); ++it) {
      std::string type = (*it)[1].str();
      const std::size_t sep = type.rfind("::");
      std::string head = type.substr(0, type.find_first_of(" \t:"));
      if (sep != std::string::npos) {
        type = internal::trim(type.substr(sep + 2));
      }
      if (kNotTypes.count(type) != 0 || kNotTypes.count(head) != 0) continue;
      std::smatch pointee;
      const std::string args = (*it)[2].str();
      if ((type == "unique_ptr" || type == "shared_ptr") &&
          std::regex_match(args, pointee, kSmartPointee)) {
        type = pointee[1].str();
        const std::size_t last = type.rfind("::");
        if (last != std::string::npos) type = internal::trim(type.substr(last + 2));
      }
      facts.var_types[(*it)[4].str()].insert(type);
    }
  }

  // Pair manual locks with their unlock (same variable, same function):
  // the hold interval runs to the first later unlock, else function end.
  // Guard-variable unlocks release the guarded mutex early.
  for (FunctionFact& fn : facts.functions) {
    std::sort(fn.events.begin(), fn.events.end(),
              [](const Event& a, const Event& b) {
                if (a.pos != b.pos) return a.pos < b.pos;
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
    for (Event& e : fn.events) {
      if (e.kind != EventKind::kAcquire) continue;
      for (const Event& r : fn.events) {
        if (r.kind != EventKind::kRelease || r.pos <= e.pos) continue;
        if (r.pos >= e.release_pos) continue;
        // `mu.unlock()` releases a manual lock of `mu`; `lk.unlock()`
        // releases the mutex guarded by unique_lock `lk`.
        if (r.name == e.name || (!e.arg.empty() && r.name == e.arg)) {
          e.release_pos = r.pos;
          break;
        }
      }
    }
  }

  // Attach verified-by annotations to the next function at/below them.
  for (const internal::VerifiedBy& v : dirs.verified_by) {
    FunctionFact* best = nullptr;
    for (FunctionFact& fn : facts.functions) {
      if (fn.is_lambda) continue;
      if (fn.line < v.line) continue;
      if (best == nullptr || fn.line < best->line ||
          (fn.line == best->line && fn.body_begin < best->body_begin)) {
        best = &fn;
      }
    }
    if (best != nullptr) best->verified_by.push_back(v);
  }

  return facts;
}

}  // namespace detlint::facts
