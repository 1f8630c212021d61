// odtn_lint — the determinism contract, machine-checked at the source level.
//
// The engine's headline guarantee is byte-identical results and metrics
// exports at any --threads count. Golden tests sample that property after
// the fact; this tool enforces its known preconditions before the fact, as
// named, individually suppressible rules over `src/`, `bench/`, `tools/`:
//
//   banned-api      std::lgamma outside analysis/lgamma_safe.hpp (the
//                   signgam data race PR 1 fixed), rand/srand,
//                   std::random_device, system_clock anywhere, and
//                   steady_clock outside annotated wall-clock sites.
//   unordered-iter  range-for / .begin() iteration over a variable declared
//                   as unordered_map/unordered_set in the same file must
//                   carry an allow(unordered-iter) justification: iteration
//                   order is a property of the hash function and load
//                   factor, not the program, so any fold, export, or RNG
//                   draw fed by it is one libstdc++ upgrade away from
//                   breaking byte-identity.
//   rng             every RNG engine construction must be seeded from a
//                   util::derive_seed expression (the (base seed, stream)
//                   discipline that makes runs thread-count independent) or
//                   carry an allow(rng) annotation saying why not.
//   include         no <ctime>/<time.h>/<cstdlib>/<stdlib.h> in src/ —
//                   the portals through which wall-clock time and libc
//                   rand/getenv reach deterministic code.
//   circuit-rng     crypto::Drbg constructions under src/circuit/ must seed
//                   from a util::derive_seed expression: the wire layer's
//                   nonce stream has to stay on its own sub-stream for
//                   wire-mode runs to be thread-count and resume invariant.
//
// Suppression syntax (same line, or a comment-only line directly above):
//   // odtn-lint: allow(<rule>) — <non-empty justification>
//   // odtn-lint: allow-file(<rule>) — <justification>   (whole file)
//
// The tool is a lightweight lexer, not a compiler: it strips comments and
// string literals, then matches identifier tokens. That keeps it
// dependency-free and fast (the whole tree lints in ~50ms) at the cost of
// per-file visibility — a container declared in one header and iterated in
// another translation unit is not seen. The golden byte-identity tests
// remain the backstop; this is the first, cheapest tripwire.
//
// Usage:
//   odtn_lint [--list-rules] [--fix-annotations] <file-or-dir>...
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

constexpr RuleInfo kRules[] = {
    {"banned-api",
     "lgamma outside lgamma_safe.hpp; rand/srand/random_device; "
     "system_clock; steady_clock outside annotated wall-clock sites"},
    {"unordered-iter",
     "iteration over unordered_map/unordered_set needs an "
     "allow(unordered-iter) order-insensitivity justification"},
    {"rng",
     "RNG engine constructions must seed from util::derive_seed or carry "
     "allow(rng)"},
    {"include",
     "no <ctime>/<time.h>/<cstdlib>/<stdlib.h> includes under src/"},
    {"circuit-rng",
     "Drbg constructions under src/circuit/ must seed from "
     "util::derive_seed (the circuit layer forks its own sub-stream)"},
};

bool is_known_rule(std::string_view id) {
  for (const auto& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// One source file, split by the lexer into a comment channel and a code
// channel, line by line. Code lines have comments and string/char literal
// contents replaced by spaces so token matching never fires inside either.
struct LexedFile {
  std::vector<std::string> code;      // 0-based; line i+1 of the file
  std::vector<std::string> comments;  // concatenated comment text per line
};

LexedFile lex(const std::string& text) {
  LexedFile out;
  std::string code_line;
  std::string comment_line;
  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    char c = text[i];
    char next = (i + 1 < n) ? text[i + 1] : '\0';
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
        } else if (c == '"') {
          // Raw string? The R must be its own token start (heuristic:
          // preceding char is not an identifier char other than R-prefix).
          if (!code_line.empty() && code_line.back() == 'R') {
            std::size_t j = i + 1;
            raw_delim.clear();
            while (j < n && text[j] != '(' && text[j] != '\n') {
              raw_delim += text[j];
              ++j;
            }
            if (j < n && text[j] == '(') {
              state = State::kRawString;
              code_line += ' ';
              // Mask the delimiter and '(' too.
              for (std::size_t k = i + 1; k <= j; ++k) code_line += ' ';
              i = j;
              break;
            }
          }
          state = State::kString;
          code_line += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += ' ';
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
          code_line += ' ';
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
          code_line += ' ';
        } else {
          code_line += ' ';
        }
        break;
      case State::kRawString: {
        std::string closer = ")" + raw_delim + "\"";
        if (text.compare(i, closer.size(), closer) == 0) {
          for (std::size_t k = 0; k < closer.size(); ++k) code_line += ' ';
          i += closer.size() - 1;
          state = State::kCode;
        } else {
          code_line += ' ';
        }
        break;
      }
    }
  }
  flush_line();
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// True if `line` contains `word` as a whole identifier token.
bool has_token(std::string_view line, std::string_view word) {
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    std::size_t end = pos + word.size();
    bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// Suppressions parsed from the comment channel.
struct Suppressions {
  // line (1-based) -> rules allowed on that line.
  std::map<std::size_t, std::set<std::string>> line_allows;
  std::set<std::string> file_allows;
  std::vector<Finding> malformed;  // bad annotations are findings themselves
};

Suppressions parse_suppressions(const std::string& file,
                                const LexedFile& lf) {
  Suppressions s;
  for (std::size_t i = 0; i < lf.comments.size(); ++i) {
    const std::string& c = lf.comments[i];
    std::size_t at = c.find("odtn-lint:");
    if (at == std::string::npos) continue;
    std::size_t pos = at + std::string_view("odtn-lint:").size();
    while (pos < c.size() && std::isspace(static_cast<unsigned char>(c[pos])))
      ++pos;
    bool file_scope = false;
    if (c.compare(pos, 10, "allow-file") == 0) {
      file_scope = true;
      pos += 10;
    } else if (c.compare(pos, 5, "allow") == 0) {
      pos += 5;
    } else {
      s.malformed.push_back({file, i + 1, "annotation",
                             "unrecognized odtn-lint directive (expected "
                             "allow(...) or allow-file(...))"});
      continue;
    }
    std::size_t open = c.find('(', pos);
    std::size_t close = open == std::string::npos ? std::string::npos
                                                  : c.find(')', open);
    if (open == std::string::npos || close == std::string::npos) {
      s.malformed.push_back({file, i + 1, "annotation",
                             "malformed allow(): missing parentheses"});
      continue;
    }
    // Split the rule list on commas.
    std::string list = c.substr(open + 1, close - open - 1);
    std::vector<std::string> rules;
    std::istringstream ls(list);
    std::string item;
    while (std::getline(ls, item, ',')) {
      item.erase(std::remove_if(item.begin(), item.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch);
                                }),
                 item.end());
      if (!item.empty()) rules.push_back(item);
    }
    if (rules.empty()) {
      s.malformed.push_back(
          {file, i + 1, "annotation", "allow() names no rules"});
      continue;
    }
    // Require a non-empty justification after the closing paren.
    std::string after = c.substr(close + 1);
    std::size_t words = 0;
    for (std::size_t p = 0; p < after.size();) {
      if (ident_char(after[p])) {
        ++words;
        while (p < after.size() && ident_char(after[p])) ++p;
      } else {
        ++p;
      }
    }
    if (words == 0) {
      s.malformed.push_back({file, i + 1, "annotation",
                             "allow(" + list +
                                 ") has no justification text after it"});
      continue;
    }
    for (const auto& r : rules) {
      // `<rule>`-style placeholders are documentation of the syntax (this
      // file's own header comment), not annotations.
      if (r.find('<') != std::string::npos) continue;
      if (!is_known_rule(r)) {
        s.malformed.push_back(
            {file, i + 1, "annotation", "allow() names unknown rule '" + r +
                                            "' (see --list-rules)"});
        continue;
      }
      if (file_scope) {
        s.file_allows.insert(r);
        continue;
      }
      s.line_allows[i + 1].insert(r);
      // A comment-only line covers the next line with code on it.
      bool code_here = lf.code[i].find_first_not_of(" \t") !=
                       std::string::npos;
      if (!code_here) {
        for (std::size_t j = i + 1; j < lf.code.size(); ++j) {
          if (lf.code[j].find_first_not_of(" \t") != std::string::npos) {
            s.line_allows[j + 1].insert(r);
            break;
          }
        }
      }
    }
  }
  return s;
}

bool allowed(const Suppressions& s, std::size_t line,
             const std::string& rule) {
  if (s.file_allows.count(rule)) return true;
  auto it = s.line_allows.find(line);
  return it != s.line_allows.end() && it->second.count(rule) > 0;
}

std::string basename_of(const std::string& path) {
  return fs::path(path).filename().string();
}

bool path_has_component(const std::string& path, std::string_view comp) {
  for (const auto& part : fs::path(path)) {
    if (part.string() == comp) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule: banned-api
// ---------------------------------------------------------------------------

void check_banned_api(const std::string& file, const LexedFile& lf,
                      const Suppressions& sup, std::vector<Finding>& out) {
  const std::string base = basename_of(file);
  const bool in_lgamma_safe = base == "lgamma_safe.hpp";
  static constexpr struct {
    std::string_view token;
    std::string_view why;
  } kBanned[] = {
      {"rand", "libc rand() is global-state, non-reproducible randomness; "
               "use util::Rng seeded via util::derive_seed"},
      {"srand", "libc srand() seeds process-global state; use util::Rng"},
      {"random_device", "std::random_device is nondeterministic by design; "
                        "derive seeds with util::derive_seed"},
      {"system_clock", "wall-clock time in results breaks run-to-run "
                       "byte-identity; thread timestamps through the config"},
  };
  for (std::size_t i = 0; i < lf.code.size(); ++i) {
    const std::string& line = lf.code[i];
    if (line.empty()) continue;
    for (const auto& b : kBanned) {
      if (has_token(line, b.token) &&
          !allowed(sup, i + 1, "banned-api")) {
        out.push_back({file, i + 1, "banned-api",
                       std::string(b.token) + ": " + std::string(b.why)});
      }
    }
    // lgamma family: lgamma, lgammaf, lgammal, lgamma_r — confined to
    // lgamma_safe.hpp, whose lgamma_r wrapper is the sanctioned spelling
    // (glibc lgamma writes the process-global signgam: a data race on
    // worker threads, the exact bug PR 1 fixed).
    if (!in_lgamma_safe) {
      for (std::string_view t : {"lgamma", "lgammaf", "lgammal",
                                 "lgamma_r"}) {
        if (has_token(line, t) && !allowed(sup, i + 1, "banned-api")) {
          out.push_back(
              {file, i + 1, "banned-api",
               std::string(t) +
                   ": call analysis::detail::lgamma_safe (lgamma_safe.hpp) "
                   "instead — glibc lgamma races on global signgam"});
        }
      }
    }
    // steady_clock is legitimate only at annotated wall-clock sites
    // (metrics phase timers, thread-pool stats, bench stopwatches), whose
    // outputs are excluded from deterministic export.
    if (has_token(line, "steady_clock") &&
        !allowed(sup, i + 1, "banned-api")) {
      out.push_back({file, i + 1, "banned-api",
                     "steady_clock outside an annotated wall-clock site; "
                     "wall-clock reads must stay out of exported results "
                     "(annotate allow(banned-api) if this is a wall-clock site)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

// Collects names declared (anywhere in this file) with a type mentioning
// unordered_map/unordered_set: after the template argument list closes, the
// next identifier is taken as the declared name. This deliberately also
// catches wrappers (vector<unordered_set<...>> v) — iterating the wrapper
// is harmless and simply never matches an iteration pattern in practice.
std::set<std::string> unordered_decls(const LexedFile& lf) {
  std::set<std::string> names;
  // Join the code channel so declarations spanning lines still parse.
  std::string all;
  for (const auto& l : lf.code) {
    all += l;
    all += '\n';
  }
  std::size_t pos = 0;
  while (pos < all.size()) {
    std::size_t um = all.find("unordered_map", pos);
    std::size_t us = all.find("unordered_set", pos);
    std::size_t at = std::min(um, us);
    if (at == std::string::npos) break;
    std::size_t p = at + std::string_view("unordered_map").size();
    // Token boundary check (e.g. skip my_unordered_map_thing).
    if ((at > 0 && ident_char(all[at - 1])) ||
        (p < all.size() && ident_char(all[p]))) {
      pos = p;
      continue;
    }
    // Balance the template argument list, if present.
    while (p < all.size() && std::isspace(static_cast<unsigned char>(all[p])))
      ++p;
    if (p < all.size() && all[p] == '<') {
      int depth = 0;
      while (p < all.size()) {
        if (all[p] == '<') ++depth;
        if (all[p] == '>') {
          --depth;
          if (depth == 0) {
            ++p;
            break;
          }
        }
        ++p;
      }
    }
    // Skip trailing closers/qualifiers of an enclosing template type.
    while (p < all.size()) {
      char c = all[p];
      if (c == '>' || c == '&' || c == '*' ||
          std::isspace(static_cast<unsigned char>(c))) {
        ++p;
      } else {
        break;
      }
    }
    // An identifier here is the declared variable/member name.
    std::size_t q = p;
    while (q < all.size() && ident_char(all[q])) ++q;
    if (q > p) {
      std::string name = all.substr(p, q - p);
      // `const` etc. between type and name.
      if (name == "const" || name == "mutable" || name == "static") {
        std::size_t r = q;
        while (r < all.size() &&
               std::isspace(static_cast<unsigned char>(all[r])))
          ++r;
        std::size_t r2 = r;
        while (r2 < all.size() && ident_char(all[r2])) ++r2;
        if (r2 > r) name = all.substr(r, r2 - r);
      }
      if (!name.empty()) names.insert(name);
    }
    pos = at + 1;
  }
  return names;
}

void check_unordered_iter(const std::string& file, const LexedFile& lf,
                          const Suppressions& sup,
                          std::vector<Finding>& out) {
  std::set<std::string> decls = unordered_decls(lf);
  if (decls.empty()) return;
  for (std::size_t i = 0; i < lf.code.size(); ++i) {
    const std::string& line = lf.code[i];
    if (line.empty()) continue;
    for (const auto& name : decls) {
      bool iterates = false;
      // for (... : name)  — range-for over the container.
      std::size_t colon = 0;
      while ((colon = line.find(':', colon)) != std::string::npos) {
        // skip '::'
        if (colon + 1 < line.size() && line[colon + 1] == ':') {
          colon += 2;
          continue;
        }
        if (colon > 0 && line[colon - 1] == ':') {
          ++colon;
          continue;
        }
        std::size_t p = colon + 1;
        while (p < line.size() &&
               std::isspace(static_cast<unsigned char>(line[p])))
          ++p;
        if (line.compare(p, name.size(), name) == 0) {
          std::size_t e = p + name.size();
          bool closed = e < line.size() && (line[e] == ')' || line[e] == ' ');
          if (closed && (p == 0 || !ident_char(line[p - 1])) &&
              !ident_char(line[e])) {
            iterates = true;
          }
        }
        ++colon;
      }
      // name.begin() / name.end() / cbegin / cend — explicit iterators,
      // including range-assign idioms like v.assign(s.begin(), s.end()).
      for (std::string_view m : {".begin(", ".end(", ".cbegin(", ".cend("}) {
        std::size_t at = 0;
        std::string pat = name + std::string(m);
        while ((at = line.find(pat, at)) != std::string::npos) {
          if (at == 0 || !ident_char(line[at - 1])) {
            iterates = true;
            break;
          }
          at += pat.size();
        }
      }
      if (iterates && !allowed(sup, i + 1, "unordered-iter")) {
        out.push_back(
            {file, i + 1, "unordered-iter",
             "iteration over unordered container '" + name +
                 "': order is hash-dependent; migrate to an ordered form "
                 "or annotate allow(unordered-iter) with why downstream "
                 "state is order-insensitive"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Construction scanner (rules rng and circuit-rng)
// ---------------------------------------------------------------------------

// Calls found(line_index, type, args, opens_body) for every construction of
// one of `types`: a temporary `T(args)` / `T{args}`, or a declaration
// `T name(args)`, `T name{args}` or `T name = ...`, and, when
// `bare_constructs`, `T name;` (default construction: the fixed default
// seed). Reference, pointer, scope and member uses are not constructions.
// `args` is the balanced argument list, or the `= ...` tail. `opens_body`
// is true when a '{' follows the balanced list, as in `T make(args) {`.
// A name followed by `()` may be a function declaration; it still counts
// (the codebase spells functions returning engines only inside rng.hpp).
template <typename Found>
void scan_constructions(const LexedFile& lf,
                        std::span<const std::string_view> types,
                        bool bare_constructs, Found&& found) {
  for (std::size_t i = 0; i < lf.code.size(); ++i) {
    const std::string& line = lf.code[i];
    if (line.empty()) continue;
    auto skip_space = [&](std::size_t p) {
      while (p < line.size() &&
             std::isspace(static_cast<unsigned char>(line[p])))
        ++p;
      return p;
    };
    for (std::string_view type : types) {
      std::size_t at = 0;
      while ((at = line.find(type, at)) != std::string::npos) {
        const std::size_t start = at;
        at += type.size();
        if ((start > 0 && ident_char(line[start - 1])) ||
            (at < line.size() && ident_char(line[at]))) {
          continue;
        }
        std::size_t p = skip_space(at);
        if (p >= line.size() || line[p] == '&' || line[p] == '*' ||
            line[p] == ':' || line[p] == '.' || line[p] == ',' ||
            line[p] == ')' || line[p] == '>' || line[p] == ';') {
          continue;
        }
        std::string args;
        std::size_t after_args = std::string::npos;
        auto capture_balanced = [&](std::size_t open_at) {
          char open = line[open_at];
          char close = open == '(' ? ')' : '}';
          int depth = 0;
          std::size_t q = open_at;
          while (q < line.size()) {
            if (line[q] == open) ++depth;
            if (line[q] == close && --depth == 0) break;
            ++q;
          }
          args = line.substr(open_at, q > open_at ? q - open_at : 0);
          after_args = q + 1;
        };
        if (line[p] == '(' || line[p] == '{') {
          capture_balanced(p);  // temporary
        } else if (ident_char(line[p])) {
          std::size_t q = p;
          while (q < line.size() && ident_char(line[q])) ++q;
          std::size_t r = skip_space(q);
          if (r < line.size() && (line[r] == '(' || line[r] == '{')) {
            capture_balanced(r);
          } else if (r < line.size() && line[r] == '=') {
            args = line.substr(r);
          } else if (!(bare_constructs && r < line.size() && line[r] == ';')) {
            continue;
          }
        } else {
          continue;
        }
        const std::size_t b =
            after_args == std::string::npos ? line.size()
                                            : skip_space(after_args);
        found(i, type, args, b < line.size() && line[b] == '{');
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: rng
// ---------------------------------------------------------------------------

void check_rng(const std::string& file, const LexedFile& lf,
               const Suppressions& sup, std::vector<Finding>& out) {
  const std::string base = basename_of(file);
  // The generator implementation itself (and its declarations of Rng
  // members/returns) is the one place engines exist unseeded.
  if (base == "rng.hpp" || base == "rng.cpp") return;
  static constexpr std::string_view kEngines[] = {
      "Rng",          "SplitMix64",     "mt19937",
      "mt19937_64",   "minstd_rand",    "minstd_rand0",
      "default_random_engine", "ranlux24_base", "ranlux48_base",
      "ranlux24",     "ranlux48",       "knuth_b",
  };
  scan_constructions(
      lf, kEngines, /*bare_constructs=*/true,
      [&](std::size_t i, std::string_view eng, const std::string& args,
          bool /*opens_body*/) {
        if (args.find("derive_seed") != std::string::npos ||
            allowed(sup, i + 1, "rng")) {
          return;
        }
        out.push_back(
            {file, i + 1, "rng",
             std::string(eng) +
                 " constructed without util::derive_seed: ad-hoc seeds "
                 "can collide across streams and are not part of the "
                 "(seed, stream) reproducibility discipline; derive the "
                 "seed or annotate allow(rng) with why this stream is "
                 "exempt"});
      });
}

// ---------------------------------------------------------------------------
// Rule: circuit-rng
// ---------------------------------------------------------------------------

// The circuit layer's wire nonces come from its own crypto::Drbg; if that
// DRBG were ever seeded ad hoc (instead of forked through util::derive_seed
// onto the circuit sub-stream), wire-mode runs would stop being bit
// identical across thread counts and checkpoint resume. Scope: src/circuit/
// only — the generic `rng` rule covers util::Rng engines tree-wide, this
// one covers the Drbg constructions the circuit layer adds. Bare member
// declarations (`crypto::Drbg drbg_;`) are seeded in the mem-init list, and
// a function returning a Drbg (`crypto::Drbg make_drbg(...) {`) constructs
// nothing.
void check_circuit_rng(const std::string& file, const LexedFile& lf,
                       const Suppressions& sup, std::vector<Finding>& out) {
  if (!path_has_component(file, "circuit") ||
      !path_has_component(file, "src")) {
    return;
  }
  static constexpr std::string_view kDrbg[] = {"Drbg"};
  scan_constructions(
      lf, kDrbg, /*bare_constructs=*/false,
      [&](std::size_t i, std::string_view, const std::string& args,
          bool opens_body) {
        if (opens_body || args.find("derive_seed") != std::string::npos ||
            allowed(sup, i + 1, "circuit-rng")) {
          return;
        }
        out.push_back(
            {file, i + 1, "circuit-rng",
             "Drbg constructed in src/circuit/ without util::derive_seed: "
             "the circuit layer must fork its DRBG onto a derive_seed "
             "sub-stream or wire-mode runs lose thread-count and "
             "checkpoint-resume bit-identity; derive the seed or annotate "
             "allow(circuit-rng) with why this stream is exempt"});
      });
}

// ---------------------------------------------------------------------------
// Rule: include
// ---------------------------------------------------------------------------

void check_include(const std::string& file, const LexedFile& lf,
                   const Suppressions& sup, std::vector<Finding>& out) {
  if (!path_has_component(file, "src")) return;
  static constexpr std::string_view kBannedHeaders[] = {
      "<ctime>", "<time.h>", "<cstdlib>", "<stdlib.h>"};
  for (std::size_t i = 0; i < lf.code.size(); ++i) {
    const std::string& line = lf.code[i];
    std::size_t h = line.find('#');
    if (h == std::string::npos) continue;
    if (line.find("include", h) == std::string::npos) continue;
    for (std::string_view hdr : kBannedHeaders) {
      if (line.find(hdr) != std::string::npos &&
          !allowed(sup, i + 1, "include")) {
        out.push_back(
            {file, i + 1, "include",
             std::string(hdr) +
                 " in src/: wall-clock and libc global-state entry points "
                 "are banned from deterministic code (std::from_chars and "
                 "util::Rng cover the legitimate uses)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       std::string& error) {
  std::vector<std::string> files;
  for (const auto& path : paths) {
    fs::path p(path);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p.string());
    } else {
      error = "odtn_lint: no such file or directory: " + path;
      return {};
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int lint_file(const std::string& file, std::vector<Finding>& findings) {
  std::ifstream in(file, std::ios::binary);
  if (!in.good()) {
    std::cerr << "odtn_lint: cannot read " << file << "\n";
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  LexedFile lf = lex(ss.str());
  Suppressions sup = parse_suppressions(file, lf);
  for (auto& m : sup.malformed) findings.push_back(std::move(m));
  check_banned_api(file, lf, sup, findings);
  check_unordered_iter(file, lf, sup, findings);
  check_rng(file, lf, sup, findings);
  check_circuit_rng(file, lf, sup, findings);
  check_include(file, lf, sup, findings);
  return 0;
}

// --fix-annotations: append a TODO suppression to each violating line so a
// human can fill in the justification (the lint still fails until the TODO
// has real words? no — TODO counts as text; the point is a reviewable diff,
// not an auto-pass: the reviewer owns turning TODO into a reason).
int fix_annotations(const std::vector<Finding>& findings) {
  std::map<std::string, std::map<std::size_t, std::set<std::string>>>
      by_file;
  for (const auto& f : findings) {
    if (f.rule == "annotation") continue;  // can't auto-fix a bad comment
    by_file[f.file][f.line].insert(f.rule);
  }
  for (const auto& [file, lines] : by_file) {
    std::ifstream in(file, std::ios::binary);
    if (!in.good()) {
      std::cerr << "odtn_lint: cannot read " << file << "\n";
      return 2;
    }
    std::vector<std::string> text;
    std::string line;
    while (std::getline(in, line)) text.push_back(line);
    in.close();
    for (const auto& [num, rules] : lines) {
      if (num == 0 || num > text.size()) continue;
      std::string joined;
      for (const auto& r : rules) {
        if (!joined.empty()) joined += ", ";
        joined += r;
      }
      text[num - 1] +=
          "  // odtn-lint: allow(" + joined + ") — TODO: justify";
    }
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    for (const auto& l : text) out << l << "\n";
    std::cout << "odtn_lint: annotated " << lines.size() << " line(s) in "
              << file << "\n";
  }
  return 0;
}

void print_usage(std::ostream& os) {
  os << "usage: odtn_lint [--list-rules] [--fix-annotations] "
        "<file-or-dir>...\n"
        "\n"
        "Checks the odtn determinism contract over C++ sources.\n"
        "  --list-rules       print the rule table and exit\n"
        "  --fix-annotations  append 'odtn-lint: allow(<rule>) — TODO: "
        "justify'\n"
        "                     to each violating line (review and fill in "
        "the why)\n"
        "\n"
        "Suppressions: '// odtn-lint: allow(<rule>) — <why>' on the "
        "violating\n"
        "line or a comment line directly above it; allow-file(<rule>) at "
        "any\n"
        "line exempts the whole file. Exit: 0 clean, 1 findings, 2 error.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool list_rules = false;
  bool fix = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--fix-annotations") {
      fix = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "odtn_lint: unknown option " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (list_rules) {
    std::cout << "odtn_lint rules (suppress with '// odtn-lint: "
                 "allow(<rule>) — <why>'):\n";
    for (const auto& r : kRules) {
      std::cout << "  " << r.id << "\n      " << r.summary << "\n";
    }
    return 0;
  }
  if (paths.empty()) {
    print_usage(std::cerr);
    return 2;
  }
  std::string error;
  std::vector<std::string> files = collect_files(paths, error);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return 2;
  }
  std::vector<Finding> findings;
  for (const auto& f : files) {
    if (int rc = lint_file(f, findings); rc != 0) return rc;
  }
  if (fix) {
    if (int rc = fix_annotations(findings); rc != 0) return rc;
    return 0;
  }
  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": error: [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!findings.empty()) {
    std::cout << "odtn_lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "odtn_lint: clean (" << files.size() << " files)\n";
  return 0;
}
