#include "lint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace provdb::lint {
namespace {

// ---------------------------------------------------------------------------
// Source preprocessing: split into lines, blank out comments and literal
// contents (so rule patterns never fire inside strings), and collect
// `lint:allow` pragmas from the comment text.
// ---------------------------------------------------------------------------

struct AnnotatedSource {
  std::vector<std::string> code;      // literals/comments blanked
  std::vector<std::string> comments;  // comment text, per line
};

/// Blanks comments and the *contents* of string/char literals with spaces,
/// preserving line structure and column positions. Handles //, /*...*/,
/// "..." with escapes, '...' with escapes, and R"delim(...)delim".
AnnotatedSource Annotate(const std::string& content) {
  AnnotatedSource out;
  std::string code_line;
  std::string comment_line;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_terminator;  // ")delim\"" for the active raw string

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    char c = content[i];
    char next = i + 1 < n ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (code_line.empty() ||
                    (!std::isalnum(static_cast<unsigned char>(
                         code_line.back())) &&
                     code_line.back() != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          size_t paren = content.find('(', i + 2);
          if (paren == std::string::npos) {
            code_line += c;
            break;
          }
          raw_terminator =
              ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
          state = State::kRawString;
          code_line.append(paren - i + 1, ' ');
          code_line[code_line.size() - (paren - i + 1)] = '"';
          i = paren;
        } else if (c == '"') {
          state = State::kString;
          code_line += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          state = State::kCode;
          code_line.append(raw_terminator.size(), ' ');
          code_line.back() = '"';
          i += raw_terminator.size() - 1;
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  flush_line();
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when `text` contains `token` as a whole word (not preceded or
/// followed by an identifier character).
bool ContainsWord(const std::string& text, const std::string& token,
                  size_t* pos_out = nullptr) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t end = pos + token.size();
    bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      if (pos_out != nullptr) *pos_out = pos;
      return true;
    }
    ++pos;
  }
  return false;
}

/// `token` as a whole word followed (after whitespace) by '(' — method
/// invocations included. Unlike ContainsCall, a '.', '->', or '::'
/// qualifier on the left counts: R09 hunts `wal.Sync()` and
/// `file->Append(...)`, exactly the spellings ContainsCall rejects.
bool ContainsInvocation(const std::string& text, const std::string& token,
                        size_t* pos_out = nullptr) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t end = pos + token.size();
    bool word_end = end >= text.size() || !IsIdentChar(text[end]);
    size_t after = end;
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after]))) {
      ++after;
    }
    if (left_ok && word_end && after < text.size() && text[after] == '(') {
      if (pos_out != nullptr) *pos_out = pos;
      return true;
    }
    pos = end;
  }
  return false;
}

/// `token` as a member call: preceded by '.' or '->', followed (after
/// whitespace) by '('. `guard.lock()` matches; the RAII declaration
/// `MutexLock lock(&mu_)` does not.
bool ContainsMemberCall(const std::string& text, const std::string& token) {
  size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    bool member =
        (pos > 0 && text[pos - 1] == '.') ||
        (pos > 1 && text[pos - 1] == '>' && text[pos - 2] == '-');
    size_t end = pos + token.size();
    bool word_end = end >= text.size() || !IsIdentChar(text[end]);
    size_t after = end;
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after]))) {
      ++after;
    }
    if (member && word_end && after < text.size() && text[after] == '(') {
      return true;
    }
    ++pos;
  }
  return false;
}

/// `token` as a whole word followed (after whitespace) by '('.
bool ContainsCall(const std::string& text, const std::string& token) {
  size_t pos = 0;
  std::string t = text;
  while ((pos = t.find(token, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || (!IsIdentChar(t[pos - 1]) && t[pos - 1] != ':' &&
                                t[pos - 1] != '.' && t[pos - 1] != '>');
    // Allow a std:: / :: qualifier on the left.
    if (!left_ok && pos >= 2 && t[pos - 1] == ':' && t[pos - 2] == ':') {
      left_ok = true;
    }
    size_t end = pos + token.size();
    while (end < t.size() &&
           std::isspace(static_cast<unsigned char>(t[end]))) {
      ++end;
    }
    if (left_ok && end < t.size() && t[end] == '(') return true;
    ++pos;
  }
  return false;
}

// --- Pragma handling -------------------------------------------------------

std::string CanonicalRule(std::string token) {
  for (char& c : token) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  for (const RuleInfo& rule : Rules()) {
    std::string id = rule.id;
    for (char& c : id) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    if (token == id || token == rule.name) return rule.id;
  }
  return "";
}

/// Per-line sets of suppressed rule ids. A pragma suppresses findings on
/// its own line and on the following line, so both trailing pragmas and
/// pragma-comment lines above the offending statement work.
std::vector<std::set<std::string>> ParseAllows(
    const std::vector<std::string>& comments) {
  std::vector<std::set<std::string>> allows(comments.size());
  for (size_t i = 0; i < comments.size(); ++i) {
    const std::string& comment = comments[i];
    size_t at = comment.find("lint:allow");
    if (at == std::string::npos) continue;
    size_t cursor = at + std::string("lint:allow").size();
    // Tokens: rule ids/names separated by commas or spaces, until a token
    // that is not a known rule (e.g. trailing prose).
    while (cursor < comment.size()) {
      while (cursor < comment.size() &&
             (std::isspace(static_cast<unsigned char>(comment[cursor])) ||
              comment[cursor] == ',')) {
        ++cursor;
      }
      size_t start = cursor;
      while (cursor < comment.size() &&
             (IsIdentChar(comment[cursor]) || comment[cursor] == '-')) {
        ++cursor;
      }
      if (cursor == start) break;
      std::string id = CanonicalRule(comment.substr(start, cursor - start));
      if (id.empty()) break;
      allows[i].insert(id);
      if (i + 1 < comments.size()) allows[i + 1].insert(id);
    }
  }
  return allows;
}

// --- Path scoping ----------------------------------------------------------

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Stem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool InDigestLayer(const std::string& path) {
  return StartsWith(path, "src/crypto/") || StartsWith(path, "src/provenance/");
}

// ---------------------------------------------------------------------------
// R01 nondet-iteration
// ---------------------------------------------------------------------------

/// Names declared (or returned) with an unordered container type. Scans a
/// three-line window so declarations split across lines still resolve.
std::set<std::string> CollectUnorderedNames(
    const std::vector<std::string>& code) {
  std::set<std::string> names;
  for (size_t i = 0; i < code.size(); ++i) {
    std::string window = code[i];
    for (size_t j = i + 1; j < code.size() && j < i + 3; ++j) {
      window += ' ';
      window += code[j];
    }
    size_t pos = 0;
    while (true) {
      size_t m = window.find("unordered_map<", pos);
      size_t s = window.find("unordered_set<", pos);
      size_t hit = std::min(m, s);
      if (hit == std::string::npos) break;
      size_t open = window.find('<', hit);
      int depth = 0;
      size_t cursor = open;
      for (; cursor < window.size(); ++cursor) {
        if (window[cursor] == '<') ++depth;
        if (window[cursor] == '>' && --depth == 0) break;
      }
      pos = hit + 1;
      if (cursor >= window.size()) continue;  // unbalanced in window
      ++cursor;
      while (cursor < window.size() &&
             (std::isspace(static_cast<unsigned char>(window[cursor])) ||
              window[cursor] == '*' || window[cursor] == '&')) {
        ++cursor;
      }
      if (cursor + 1 < window.size() && window[cursor] == ':' &&
          window[cursor + 1] == ':') {
        continue;  // ...>::iterator etc. — not a declaration
      }
      size_t id_start = cursor;
      while (cursor < window.size() && IsIdentChar(window[cursor])) ++cursor;
      if (cursor > id_start) {
        names.insert(window.substr(id_start, cursor - id_start));
      }
    }
  }
  return names;
}

/// Root identifier of an expression like `state.pre_hashes` or
/// `this->cache_` — the last '.'/'->' component, stripped of calls.
std::string LastComponent(std::string expr) {
  // Trim whitespace and trailing call parens.
  auto trim = [](std::string& s) {
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back()))) {
      s.pop_back();
    }
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front()))) {
      s.erase(s.begin());
    }
  };
  trim(expr);
  while (EndsWith(expr, "()")) expr.resize(expr.size() - 2);
  trim(expr);
  size_t dot = expr.find_last_of('.');
  size_t arrow = expr.rfind("->");
  size_t cut = std::string::npos;
  if (dot != std::string::npos) cut = dot + 1;
  if (arrow != std::string::npos &&
      (cut == std::string::npos || arrow + 2 > cut)) {
    cut = arrow + 2;
  }
  if (cut != std::string::npos && cut <= expr.size()) {
    expr = expr.substr(cut);
  }
  trim(expr);
  return expr;
}

void RunR01(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!InDigestLayer(path)) return;
  std::set<std::string> unordered = CollectUnorderedNames(code);
  for (size_t i = 0; i < code.size(); ++i) {
    size_t for_pos;
    if (!ContainsWord(code[i], "for", &for_pos)) continue;
    // Join a window so multi-line for-headers are matched.
    std::string window = code[i].substr(for_pos);
    for (size_t j = i + 1; j < code.size() && j < i + 3; ++j) {
      window += ' ';
      window += code[j];
    }
    size_t open = window.find('(');
    if (open == std::string::npos) continue;
    // Range-for: single ':' (not '::') at paren depth 1.
    int depth = 0;
    size_t colon = std::string::npos;
    size_t close = std::string::npos;
    for (size_t k = open; k < window.size(); ++k) {
      if (window[k] == '(') ++depth;
      if (window[k] == ')') {
        if (--depth == 0) {
          close = k;
          break;
        }
      }
      if (window[k] == ';') break;  // classic for loop
      if (window[k] == ':' && depth == 1 &&
          (k + 1 >= window.size() || window[k + 1] != ':') &&
          (k == 0 || window[k - 1] != ':') && colon == std::string::npos) {
        colon = k;
      }
    }
    std::string iterated;
    if (colon != std::string::npos && close != std::string::npos) {
      std::string range = window.substr(colon + 1, close - colon - 1);
      if (range.find("unordered_") != std::string::npos) {
        iterated = "an unordered container";
      } else {
        std::string root = LastComponent(range);
        if (unordered.count(root) > 0) iterated = "`" + root + "`";
      }
    }
    if (iterated.empty()) {
      // Iterator-style loop: for (auto it = x.begin(); ...).
      for (const std::string& name : unordered) {
        if (window.find(name + ".begin()") != std::string::npos ||
            window.find(name + "->begin()") != std::string::npos) {
          iterated = "`" + name + "`";
          break;
        }
      }
    }
    if (!iterated.empty()) {
      findings->push_back(Finding{
          "R01", "nondet-iteration", path, i + 1,
          "iterates " + iterated +
              " (unordered container) in hashing/serialization code; "
              "iteration order is nondeterministic, so any digest or "
              "wire encoding derived from it silently breaks R1-R4",
          "iterate a sorted view instead: copy the keys into a "
          "std::vector and std::sort, or use std::map/std::set when the "
          "container is iterated on the canonical path"});
    }
  }
}

// ---------------------------------------------------------------------------
// R02 banned-randomness / wall-clock
// ---------------------------------------------------------------------------

void RunR02(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  if (StartsWith(path, "src/common/rng.")) return;  // the sanctioned RNG
  struct Banned {
    const char* token;
    bool call_only;  // must be followed by '(' to count
  };
  static const Banned kBanned[] = {
      {"rand", true},          {"srand", true},   {"drand48", true},
      {"random_device", false}, {"time", true},    {"clock", true},
      {"gettimeofday", true},  {"localtime", true}, {"gmtime", true},
  };
  for (size_t i = 0; i < code.size(); ++i) {
    for (const Banned& banned : kBanned) {
      bool hit = banned.call_only ? ContainsCall(code[i], banned.token)
                                  : ContainsWord(code[i], banned.token);
      if (!hit) continue;
      findings->push_back(Finding{
          "R02", "banned-randomness", path, i + 1,
          std::string("uses `") + banned.token +
              "`: ambient randomness / wall-clock time makes workloads "
              "unreproducible and, if it reaches a hashed payload, makes "
              "digests nondeterministic",
          "take a provdb::Rng (src/common/rng.h) with an explicit seed, "
          "or a Stopwatch (steady_clock) for durations"});
      break;  // one finding per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// R03 raw-thread
// ---------------------------------------------------------------------------

void RunR03(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  if (StartsWith(path, "src/common/thread_pool.")) return;
  static const char* kBanned[] = {"std::thread", "std::jthread",
                                  "std::async", "pthread_create"};
  for (size_t i = 0; i < code.size(); ++i) {
    for (const char* token : kBanned) {
      size_t pos = code[i].find(token);
      if (pos == std::string::npos) continue;
      // Reject matches inside longer identifiers (std::this_thread is a
      // different token and allowed).
      size_t end = pos + std::string(token).size();
      if (end < code[i].size() && IsIdentChar(code[i][end])) continue;
      if (pos > 0 && IsIdentChar(code[i][pos - 1])) continue;
      findings->push_back(Finding{
          "R03", "raw-thread", path, i + 1,
          std::string("spawns `") + token +
              "` directly; ad-hoc threads bypass ParallelismConfig and "
              "the pool's deterministic result merge (reports must stay "
              "byte-identical to the sequential path)",
          "submit tasks to provdb::ThreadPool "
          "(src/common/thread_pool.h) instead"});
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// R04 ct-memcmp
// ---------------------------------------------------------------------------

void RunR04(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!InDigestLayer(path)) return;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!ContainsCall(code[i], "memcmp")) continue;
    findings->push_back(Finding{
        "R04", "ct-memcmp", path, i + 1,
        "calls `memcmp` in the digest/MAC layer; early-exit comparison "
        "leaks the length of the matching prefix (a remote timing "
        "oracle against checksum verification)",
        "use provdb::ConstantTimeEqual (src/common/bytes.h); ordering "
        "comparators may keep memcmp under `// lint:allow ct-memcmp`"});
  }
}

// ---------------------------------------------------------------------------
// R05 no-test
// ---------------------------------------------------------------------------

void RunR05(const std::string& path, const std::vector<TestFile>& corpus,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/") || !EndsWith(path, ".cc")) return;
  std::string stem = Stem(path);
  // The include spelling tests use: path relative to src/ with .h.
  std::string header_ref =
      "\"" + path.substr(std::string("src/").size(),
                         path.size() - std::string("src/").size() - 3) +
      ".h\"";
  std::string test_name = "/" + stem + "_test.cc";
  for (const TestFile& test : corpus) {
    if (EndsWith(test.path, test_name)) return;
    if (test.content.find(header_ref) != std::string::npos) return;
  }
  findings->push_back(Finding{
      "R05", "no-test", path, 1,
      "no test references this file: no tests/**/" + stem +
          "_test.cc and no test includes " + header_ref +
          " — untested code guarding tamper-evidence is unverified code",
      "add tests/<layer>/" + stem +
          "_test.cc (or include the header from an existing test); for "
          "genuinely untestable glue, annotate line 1 with "
          "// lint:allow no-test"});
}

// ---------------------------------------------------------------------------
// R06 raw-file-io
// ---------------------------------------------------------------------------

void RunR06(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  // The Env layer is the sanctioned owner of raw file primitives.
  if (StartsWith(path, "src/storage/env.")) return;
  struct Banned {
    const char* token;
    bool call_only;  // must be followed by '(' to count
  };
  static const Banned kBanned[] = {
      {"fopen", true},     {"freopen", true},   {"fdopen", true},
      {"tmpfile", true},   {"rename", true},    {"fsync", true},
      {"fdatasync", true}, {"ofstream", false}, {"ifstream", false},
      {"fstream", false},
  };
  for (size_t i = 0; i < code.size(); ++i) {
    for (const Banned& banned : kBanned) {
      bool hit = banned.call_only ? ContainsCall(code[i], banned.token)
                                  : ContainsWord(code[i], banned.token);
      if (!hit) continue;
      findings->push_back(Finding{
          "R06", "raw-file-io", path, i + 1,
          std::string("uses `") + banned.token +
              "` directly; persistence that bypasses storage::Env skips "
              "the fsync-before-rename / fsync-parent-dir durability "
              "protocol and is invisible to FaultInjectionEnv, so the "
              "crash-recovery suite cannot prove it loses nothing",
          "route file I/O through storage::Env (src/storage/env.h): "
          "NewWritableFile + Sync for writes, RenameFile for atomic "
          "publication, ReadFileToBytes for reads"});
      break;  // one finding per line is enough
    }
  }
}

// ---------------------------------------------------------------------------
// R07 adhoc-chrono
// ---------------------------------------------------------------------------

void RunR07(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  // The two sanctioned clock owners: Stopwatch wraps steady_clock for
  // inline duration measurement; the observability layer wraps it for
  // latency histograms and trace spans.
  if (StartsWith(path, "src/common/stopwatch.")) return;
  if (StartsWith(path, "src/observability/")) return;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!ContainsWord(code[i], "chrono")) continue;
    findings->push_back(Finding{
        "R07", "adhoc-chrono", path, i + 1,
        "uses std::chrono directly; ad-hoc timing scatters clock reads "
        "that observability cannot see and invites wall-clock types "
        "(system_clock) into code that must stay deterministic",
        "measure durations with provdb::Stopwatch "
        "(src/common/stopwatch.h) or record them into a metrics "
        "histogram via observability::ScopedLatencyTimer "
        "(src/observability/metrics.h)"});
  }
}

// ---------------------------------------------------------------------------
// R08 unannotated-mutex
// ---------------------------------------------------------------------------

/// Declared mutex member/variable on `line` after the type token ending
/// at `after`: skips '*', '&', cv-qualifiers, then takes the identifier,
/// and accepts it only when the declarator ends in ';', '{', or '=' —
/// so parameters (`Mutex* mu)`) and template arguments never count.
std::string MutexDeclName(const std::string& line, size_t after) {
  size_t cursor = after;
  while (cursor < line.size()) {
    char c = line[cursor];
    if (std::isspace(static_cast<unsigned char>(c)) || c == '*' ||
        c == '&') {
      ++cursor;
      continue;
    }
    if (line.compare(cursor, 5, "const") == 0 &&
        (cursor + 5 >= line.size() || !IsIdentChar(line[cursor + 5]))) {
      cursor += 5;
      continue;
    }
    break;
  }
  size_t start = cursor;
  while (cursor < line.size() && IsIdentChar(line[cursor])) ++cursor;
  if (cursor == start) return "";
  std::string name = line.substr(start, cursor - start);
  while (cursor < line.size() &&
         std::isspace(static_cast<unsigned char>(line[cursor]))) {
    ++cursor;
  }
  if (cursor < line.size() &&
      (line[cursor] == ';' || line[cursor] == '{' || line[cursor] == '=')) {
    return name;
  }
  return "";
}

void RunR08(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  // The annotation vocabulary itself wraps the raw primitive.
  if (StartsWith(path, "src/common/thread_annotations.h")) return;
  std::string joined;
  for (const std::string& line : code) {
    joined += line;
    joined += '\n';
  }
  for (size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    std::string name;
    size_t pos;
    if (ContainsWord(line, "Mutex", &pos)) {
      name = MutexDeclName(line, pos + std::string("Mutex").size());
    }
    if (name.empty() && ContainsWord(line, "mutex", &pos)) {
      // std::mutex / pthread-style lowercase spellings.
      name = MutexDeclName(line, pos + std::string("mutex").size());
    }
    if (name.empty()) continue;
    bool used =
        joined.find("PROVDB_GUARDED_BY(" + name + ")") != std::string::npos ||
        joined.find("PROVDB_PT_GUARDED_BY(" + name + ")") !=
            std::string::npos ||
        joined.find("PROVDB_REQUIRES(" + name + ")") != std::string::npos ||
        joined.find("PROVDB_REQUIRES(" + name + ",") != std::string::npos;
    if (used) continue;
    findings->push_back(Finding{
        "R08", "unannotated-mutex", path, i + 1,
        "declares mutex `" + name +
            "` but nothing in this file is PROVDB_GUARDED_BY(" + name +
            ") or PROVDB_REQUIRES(" + name +
            "); an unannotated mutex guards nothing the clang "
            "thread-safety analysis can check, so a forgotten lock "
            "compiles silently",
        "declare the mutex as provdb::Mutex "
        "(src/common/thread_annotations.h), mark every member it "
        "protects PROVDB_GUARDED_BY(" +
            name +
            "), and give lock-requiring helpers PROVDB_REQUIRES(" + name +
            ")"});
  }
}

// ---------------------------------------------------------------------------
// R09 io-under-lock
// ---------------------------------------------------------------------------

/// `code` joined with '\n'; `starts[i]` is the offset line i starts at.
std::string JoinLines(const std::vector<std::string>& code,
                      std::vector<size_t>* starts) {
  std::string text;
  for (const std::string& line : code) {
    starts->push_back(text.size());
    text += line;
    text += '\n';
  }
  return text;
}

size_t SkipSpace(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

/// Offset of the bracket closing the '(' or '{' at `open`, or npos.
size_t FindClose(const std::string& text, size_t open) {
  const char open_char = text[open];
  const char close_char = open_char == '(' ? ')' : '}';
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_char) ++depth;
    if (text[i] == close_char && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Offset of the '(' opening the ')' at `close`, or npos.
size_t FindOpen(const std::string& text, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (text[i] == ')') ++depth;
    if (text[i] == '(' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Words that may trail a function's parameter list before its body or
/// its terminating ';' (thread-safety annotations included).
bool IsTrailingQualifier(const std::string& word) {
  return word == "const" || word == "override" || word == "final" ||
         word == "noexcept" || StartsWith(word, "PROVDB_");
}

/// A class, struct or union body: the offsets of its braces and the
/// class's own (unqualified) name.
struct ClassScope {
  size_t open;
  size_t close;
  std::string name;
};

/// The class a '{' opens, judged from its head — the text since the
/// previous ';', '{' or '}' — or "" when it opens something else.
/// Preprocessor lines, access specifiers and a template<...> prefix are
/// skipped; the name is the last identifier before a base clause, so
/// `struct alignas(64) Slot` and `class Foo final : Bar` both resolve.
std::string ClassOpenedBy(const std::string& text, size_t open) {
  size_t begin = text.find_last_of(";{}", open == 0 ? 0 : open - 1);
  begin = begin == std::string::npos ? 0 : begin + 1;
  std::string head;
  std::istringstream lines(text.substr(begin, open - begin));
  for (std::string line; std::getline(lines, line);) {
    const size_t first = SkipSpace(line, 0);
    if (first < line.size() && line[first] == '#') continue;
    head += line;
    head += ' ';
  }
  size_t p = SkipSpace(head, 0);
  for (const char* access : {"public", "protected", "private"}) {
    const std::string word = access;
    if (head.compare(p, word.size(), word) == 0) {
      const size_t colon = SkipSpace(head, p + word.size());
      if (colon < head.size() && head[colon] == ':') {
        p = SkipSpace(head, colon + 1);
      }
    }
  }
  if (head.compare(p, 8, "template") == 0) {
    const size_t angle = SkipSpace(head, p + 8);
    if (angle >= head.size() || head[angle] != '<') return "";
    int depth = 0;
    size_t i = angle;
    for (; i < head.size(); ++i) {
      if (head[i] == '<') ++depth;
      if (head[i] == '>' && --depth == 0) break;
    }
    if (i >= head.size()) return "";
    p = SkipSpace(head, i + 1);
  }
  size_t key_end = p;
  while (key_end < head.size() && IsIdentChar(head[key_end])) ++key_end;
  const std::string keyword = head.substr(p, key_end - p);
  if (keyword != "class" && keyword != "struct" && keyword != "union") {
    return "";
  }
  // Up to the base clause: the first ':' that is not half of a '::'.
  size_t end = key_end;
  for (; end < head.size(); ++end) {
    if (head[end] != ':') continue;
    if (end + 1 < head.size() && head[end + 1] == ':') {
      ++end;
      continue;
    }
    break;
  }
  std::string name;
  for (size_t i = key_end; i < end;) {
    if (!IsIdentChar(head[i])) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < end && IsIdentChar(head[j])) ++j;
    const std::string word = head.substr(i, j - i);
    if (word != "final" && !std::isdigit(static_cast<unsigned char>(word[0]))) {
      name = word;
    }
    i = j;
  }
  return name;
}

/// Every class, struct and union body in `text`, in order of opening.
std::vector<ClassScope> ClassScopes(const std::string& text) {
  std::vector<ClassScope> scopes;
  std::vector<size_t> open;  // per open brace: index into scopes, or npos
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '{') {
      std::string name = ClassOpenedBy(text, i);
      if (name.empty()) {
        open.push_back(std::string::npos);
      } else {
        open.push_back(scopes.size());
        scopes.push_back(ClassScope{i, std::string::npos, std::move(name)});
      }
    } else if (text[i] == '}' && !open.empty()) {
      if (open.back() != std::string::npos) scopes[open.back()].close = i;
      open.pop_back();
    }
  }
  return scopes;
}

/// The class the function named at `at` belongs to: its explicit
/// qualifier (`Class::Name`, innermost component) when it has one, else
/// the innermost class body around it, else "" (a free function).
std::string OwnerOf(const std::string& text, size_t at,
                    const std::vector<ClassScope>& scopes) {
  size_t p = at;
  while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) --p;
  if (p >= 2 && text[p - 1] == ':' && text[p - 2] == ':') {
    p -= 2;
    while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
      --p;
    }
    size_t begin = p;
    while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
    return text.substr(begin, p - begin);
  }
  const ClassScope* owner = nullptr;
  for (const ClassScope& scope : scopes) {
    if (scope.open < at && at < scope.close) owner = &scope;  // innermost
  }
  return owner != nullptr ? owner->name : "";
}

/// Adds to `names` every function `code` declares (or defines) with
/// PROVDB_REQUIRES(...), as "Class::Name" — the identifier before the
/// parameter list the annotation trails, qualified by its class ("" for
/// a free function) so that same-named functions elsewhere stay apart.
void CollectLockRequiring(const std::vector<std::string>& code,
                          std::set<std::string>* names) {
  std::vector<size_t> starts;
  const std::string text = JoinLines(code, &starts);
  const std::vector<ClassScope> scopes = ClassScopes(text);
  const std::string macro = "PROVDB_REQUIRES";
  size_t pos = 0;
  while ((pos = text.find(macro, pos)) != std::string::npos) {
    const size_t at = pos;
    pos += macro.size();
    if ((at > 0 && IsIdentChar(text[at - 1])) ||
        (pos < text.size() && IsIdentChar(text[pos]))) {
      continue;
    }
    const size_t line_start = text.rfind('\n', at);
    const size_t first =
        SkipSpace(text, line_start == std::string::npos ? 0 : line_start + 1);
    if (text[first] == '#') continue;  // the macro's own definition
    // Walk back over trailing qualifiers to the parameter list.
    size_t p = at;
    for (;;) {
      while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1]))) {
        --p;
      }
      if (p == 0) break;
      if (text[p - 1] == ')') {
        const size_t open = FindOpen(text, p - 1);
        if (open == std::string::npos) break;
        size_t end = open;
        while (end > 0 &&
               std::isspace(static_cast<unsigned char>(text[end - 1]))) {
          --end;
        }
        size_t begin = end;
        while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
        const std::string word = text.substr(begin, end - begin);
        if (IsTrailingQualifier(word)) {
          p = begin;  // e.g. noexcept(...) or another annotation
          continue;
        }
        if (!word.empty() &&
            !std::isdigit(static_cast<unsigned char>(word[0]))) {
          names->insert(OwnerOf(text, begin, scopes) + "::" + word);
        }
        break;
      }
      size_t begin = p;
      while (begin > 0 && IsIdentChar(text[begin - 1])) --begin;
      if (begin == p || !IsTrailingQualifier(text.substr(begin, p - begin))) {
        break;
      }
      p = begin;
    }
  }
}

/// [open, close] brace offsets of every body in `text` that defines one
/// of `names` ("Class::Name", see CollectLockRequiring): the name, its
/// parameter list, trailing qualifiers, then '{', owned by that class.
/// Calls and declarations end in ';' or ')' instead and never match.
std::vector<std::pair<size_t, size_t>> LockRequiringBodies(
    const std::string& text, const std::set<std::string>& names) {
  std::vector<std::pair<size_t, size_t>> bodies;
  if (names.empty()) return bodies;
  const std::vector<ClassScope> scopes = ClassScopes(text);
  std::set<std::string> bare;
  for (const std::string& qualified : names) {
    bare.insert(qualified.substr(qualified.rfind("::") + 2));
  }
  for (const std::string& name : bare) {
    size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
      const size_t at = pos;
      pos += name.size();
      if ((at > 0 && IsIdentChar(text[at - 1])) ||
          (pos < text.size() && IsIdentChar(text[pos]))) {
        continue;
      }
      size_t p = SkipSpace(text, pos);
      if (p >= text.size() || text[p] != '(') continue;
      const size_t params_end = FindClose(text, p);
      if (params_end == std::string::npos) continue;
      p = params_end + 1;
      for (;;) {
        p = SkipSpace(text, p);
        size_t end = p;
        while (end < text.size() && IsIdentChar(text[end])) ++end;
        if (end == p || !IsTrailingQualifier(text.substr(p, end - p))) break;
        p = SkipSpace(text, end);
        if (p < text.size() && text[p] == '(') {
          const size_t args_end = FindClose(text, p);
          if (args_end == std::string::npos) break;
          p = args_end + 1;
        }
      }
      if (p >= text.size() || text[p] != '{') continue;
      if (names.count(OwnerOf(text, at, scopes) + "::" + name) == 0) continue;
      const size_t body_end = FindClose(text, p);
      if (body_end != std::string::npos) bodies.emplace_back(p, body_end);
    }
  }
  return bodies;
}

void RunR09(const std::string& path, const std::vector<std::string>& code,
            const std::set<std::string>& lock_requiring,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  // The Env layer owns the blocking primitives; its fault-injecting test
  // double deliberately holds a coarse lock across forwarded calls so
  // its bookkeeping matches the disk image (see its class comment).
  if (StartsWith(path, "src/storage/env.")) return;
  if (StartsWith(path, "src/storage/fault_injection_env.")) return;
  static const char* kGuards[] = {"lock_guard", "unique_lock",
                                  "scoped_lock", "MutexLock"};
  static const char* kBlocking[] = {"Sync",   "SyncDir",   "Flush",
                                    "Append", "RenameFile", "Rename"};
  // A PROVDB_REQUIRES function's caller holds the lock for its whole
  // body, so the body is a live lock scope with no guard in sight.
  std::vector<size_t> starts;
  const std::vector<std::pair<size_t, size_t>> bodies =
      LockRequiringBodies(JoinLines(code, &starts), lock_requiring);
  auto in_requires_body = [&](size_t offset) {
    for (const auto& [open, close] : bodies) {
      if (open < offset && offset < close) return true;
    }
    return false;
  };
  int depth = 0;
  std::vector<int> live;  // depth at which each live guard was declared
  for (size_t i = 0; i < code.size(); ++i) {
    const std::string& line = code[i];
    // Events in this line, processed left to right: braces move scope
    // depth, a guard declaration arms the lock, a blocking invocation
    // under an armed guard is the finding.
    struct Event {
      size_t pos;
      int kind;  // 0 = '{', 1 = '}', 2 = guard decl, 3 = blocking call
      const char* token;
    };
    std::vector<Event> events;
    for (size_t p = 0; p < line.size(); ++p) {
      if (line[p] == '{') events.push_back(Event{p, 0, nullptr});
      if (line[p] == '}') events.push_back(Event{p, 1, nullptr});
    }
    for (const char* guard : kGuards) {
      size_t pos;
      if (ContainsWord(line, guard, &pos)) {
        events.push_back(Event{pos, 2, guard});
      }
    }
    for (const char* token : kBlocking) {
      size_t pos;
      if (ContainsInvocation(line, token, &pos)) {
        events.push_back(Event{pos, 3, token});
        break;  // one finding per line is enough
      }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.pos < b.pos; });
    for (const Event& event : events) {
      switch (event.kind) {
        case 0:
          ++depth;
          break;
        case 1:
          --depth;
          while (!live.empty() && live.back() > depth) live.pop_back();
          break;
        case 2:
          live.push_back(depth);
          break;
        case 3:
          if (!live.empty()) {
            findings->push_back(Finding{
                "R09", "io-under-lock", path, i + 1,
                std::string("calls blocking `") + event.token +
                    "` inside a live lock scope; an fsync-class stall "
                    "under a mutex freezes every thread contending for "
                    "it (the latency cliff DESIGN.md's group-commit "
                    "design exists to avoid)",
                "move the I/O outside the critical section, or factor "
                "the locked part into a FooLocked() helper marked "
                "PROVDB_REQUIRES(mu) and do the I/O after release"});
          } else if (in_requires_body(starts[i] + event.pos)) {
            findings->push_back(Finding{
                "R09", "io-under-lock", path, i + 1,
                std::string("calls blocking `") + event.token +
                    "` in the body of a function declared "
                    "PROVDB_REQUIRES(...), so its caller holds the lock "
                    "across the stall and every thread contending for it "
                    "waits it out",
                "keep the PROVDB_REQUIRES helper to in-memory "
                "bookkeeping and do the I/O in the caller after the lock "
                "is released (e.g. take ownership of the state under the "
                "lock, then write with no lock held)"});
          }
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R10 naked-lock
// ---------------------------------------------------------------------------

void RunR10(const std::string& path, const std::vector<std::string>& code,
            std::vector<Finding>* findings) {
  if (!StartsWith(path, "src/")) return;
  // The annotated Mutex wrapper and the pool's wait loop are the two
  // sanctioned owners of bare lock()/unlock() plumbing.
  if (StartsWith(path, "src/common/thread_annotations.h")) return;
  if (StartsWith(path, "src/common/thread_pool.")) return;
  static const char* kNaked[] = {"lock", "unlock", "try_lock"};
  for (size_t i = 0; i < code.size(); ++i) {
    for (const char* token : kNaked) {
      if (!ContainsMemberCall(code[i], token)) continue;
      findings->push_back(Finding{
          "R10", "naked-lock", path, i + 1,
          std::string("calls `.") + token +
              "()` manually; a lock without RAII leaks on every early "
              "return and exception path, and the clang thread-safety "
              "analysis cannot pair manual acquire/release across "
              "branches",
          "hold the mutex with provdb::MutexLock "
          "(src/common/thread_annotations.h) — or std::lock_guard for "
          "a bare std::mutex — scoped to the critical section"});
      break;  // one finding per line is enough
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

std::string Finding::ToString(bool with_suggestion) const {
  std::ostringstream os;
  os << path << ":" << line << ": [" << rule_id << "/" << rule_name << "] "
     << message;
  if (with_suggestion && !suggestion.empty()) {
    os << "\n    fix: " << suggestion;
  }
  return os.str();
}

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* rules = new std::vector<RuleInfo>{
      {"R01", "nondet-iteration",
       "no unordered_map/unordered_set iteration in src/crypto/ or "
       "src/provenance/ (nondeterministic digest hazard)"},
      {"R02", "banned-randomness",
       "no rand()/time()/std::random_device outside src/common/rng.*"},
      {"R03", "raw-thread",
       "no std::thread/std::async outside src/common/thread_pool.*"},
      {"R04", "ct-memcmp",
       "no memcmp in the digest/MAC layer; use ConstantTimeEqual"},
      {"R05", "no-test",
       "every .cc under src/ needs a matching test reference"},
      {"R06", "raw-file-io",
       "no fopen/rename/fstream outside src/storage/env.*; all "
       "persistence goes through storage::Env"},
      {"R07", "adhoc-chrono",
       "no direct std::chrono outside src/common/stopwatch.* and "
       "src/observability/; time via Stopwatch or ScopedLatencyTimer"},
      {"R08", "unannotated-mutex",
       "every mutex declared in src/ needs a PROVDB_GUARDED_BY / "
       "PROVDB_REQUIRES user in the same file, so the clang "
       "thread-safety analysis has something to check"},
      {"R09", "io-under-lock",
       "no blocking file call (Sync/Flush/Append/Rename) lexically "
       "inside a live lock scope or a PROVDB_REQUIRES function body, "
       "outside src/storage/env.* and the fault-injection env"},
      {"R10", "naked-lock",
       "no manual .lock()/.unlock(); critical sections are held by RAII "
       "guards (MutexLock) outside src/common/thread_pool.* and "
       "thread_annotations.h"},
  };
  return *rules;
}

void Linter::AddLockRequiringDeclarations(const std::string& content) {
  CollectLockRequiring(Annotate(content).code, &lock_requiring_);
}

void Linter::SetTestCorpus(std::vector<TestFile> corpus) {
  corpus_ = std::move(corpus);
  has_corpus_ = true;
}

std::vector<Finding> Linter::LintContent(const std::string& path,
                                         const std::string& content) const {
  AnnotatedSource source = Annotate(content);
  std::vector<std::set<std::string>> allows = ParseAllows(source.comments);

  std::vector<Finding> findings;
  RunR01(path, source.code, &findings);
  RunR02(path, source.code, &findings);
  RunR03(path, source.code, &findings);
  RunR04(path, source.code, &findings);
  if (has_corpus_) RunR05(path, corpus_, &findings);
  RunR06(path, source.code, &findings);
  RunR07(path, source.code, &findings);
  RunR08(path, source.code, &findings);
  std::set<std::string> lock_requiring = lock_requiring_;
  CollectLockRequiring(source.code, &lock_requiring);
  RunR09(path, source.code, lock_requiring, &findings);
  RunR10(path, source.code, &findings);

  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& finding) {
                       size_t idx = finding.line - 1;
                       return idx < allows.size() &&
                              allows[idx].count(finding.rule_id) > 0;
                     }),
      findings.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule_id < b.rule_id;
            });
  return findings;
}

}  // namespace provdb::lint
