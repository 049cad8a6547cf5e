// cab_lint — static concurrency-rule pass over the scheduler's hot-path
// sources (DESIGN.md §6c). Four rules, all scoped so that only the code
// whose discipline they encode is checked:
//
//   seq-cst-justify   [deque/, runtime/, util/, svc/]
//       Every `memory_order_seq_cst` must carry a `// seq_cst:`
//       justification on the same line or in the 3 lines above it. The
//       fence dance in the Chase-Lev deque is the only place the paper's
//       protocol *needs* sequential consistency; anywhere else it is
//       usually a stand-in for an ordering argument nobody wrote down.
//
//   hot-field-padding [deque/, runtime/, util/, svc/ headers]
//       An atomic data member (std::atomic<>, Sync::atomic_t<>, Atomic<>)
//       must either be `alignas`-padded against false sharing or carry a
//       `// pad-ok:` comment arguing why sharing its line is fine (e.g.
//       fields only ever touched by one thread, or per-frame fields where
//       padding would blow up the Eq. 15 space bound). The alignas may
//       sit on the member line itself, on an earlier line of the same
//       (multi-line) declaration — the occupancy-mask shape, where the
//       alignas precedes a dependent-type member — or on the enclosing
//       struct/class head when the whole aggregate is padded.
//
//   worker-blocking   [runtime/worker.*, runtime/scheduler.*]
//       The worker loop must not block: sleep_for / sleep_until /
//       condition-variable waits need a `// blocking-ok:` comment naming
//       the idle/parked state that makes blocking correct there.
//
//   no-hot-path-alloc [runtime/]
//       The spawn path recycles frames through per-worker NUMA pools and
//       runs lazy children on LazyStack slots; a naked `new TaskFrame`,
//       `new LazyFrame`, raw `::operator new`, or a delete-expression in
//       runtime code is either a regression to the one-allocation-per-
//       spawn seed or a double-free hazard against the pool, unless an
//       `// alloc-ok:` comment names why the heap is correct there (slab
//       or slot carving, the --frame-pool=off ablation, a boxed oversize
//       callable).
//
// Justification comments are load-bearing: the lint turns "the author
// thought about this" into a greppable, CI-gated artifact.
//
// Usage:
//   cab_lint <path>... [--expect=N]
//
// Paths may be files or directories (scanned recursively for
// .hpp/.h/.cpp/.cc). Exit 0: no findings (or exactly N with --expect=N,
// used by the lint fixture tests); exit 1: findings; exit 2: usage or
// I/O error.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  const char* rule = nullptr;
  std::string message;
};

/// True if `path` has `component` as a whole directory component (so
/// "runtime" matches src/runtime/worker.cpp but not src/chk/runtime_x.cpp).
bool has_component(const fs::path& path, const char* component) {
  for (const auto& part : path) {
    if (part == component) return true;
  }
  return false;
}

bool is_source_file(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

bool is_header(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".hpp" || ext == ".h";
}

std::string_view trim_left(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  return b == std::string::npos ? std::string_view{}
                                : std::string_view(s).substr(b);
}

/// `needle` appears on `lines[i]` itself or anywhere in the contiguous
/// `//` comment block immediately above it — the justification must be
/// *attached* to the construct it justifies, not merely nearby.
bool justified(const std::vector<std::string>& lines, std::size_t i,
               const char* needle) {
  if (lines[i].find(needle) != std::string::npos) return true;
  for (std::size_t k = i; k-- > 0;) {
    if (trim_left(lines[k]).substr(0, 2) != "//") break;
    if (lines[k].find(needle) != std::string::npos) return true;
  }
  return false;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Heuristic: the line declares an atomic *data member* (as opposed to a
/// type alias, template parameter, function parameter or using-decl).
bool looks_like_atomic_member(const std::string& line) {
  if (!contains(line, "std::atomic<") && !contains(line, "atomic_t<") &&
      !contains(line, "Atomic<")) {
    return false;
  }
  // Declarations end in ';' — expressions like fetch_add(...) don't
  // carry the template-id and a terminating ';' on a comment-free prefix.
  const auto semi = line.rfind(';');
  if (semi == std::string::npos) return false;
  const auto comment = line.find("//");
  if (comment != std::string::npos && comment < semi) return false;
  // Aliases and templates are structure, not storage.
  if (contains(line, "using ") || contains(line, "typedef ") ||
      contains(line, "template")) {
    return false;
  }
  // `atomic<X>(...)` in a call position or a parameter list.
  if (contains(line, "return ")) return false;
  return true;
}

/// The line with any trailing `//` comment removed — alloc matching must
/// not fire on prose that merely mentions the constructs.
std::string strip_comment(const std::string& line) {
  const auto comment = line.find("//");
  return comment == std::string::npos ? line : line.substr(0, comment);
}

/// Heuristic: the line contains a delete-*expression* — `delete x` /
/// `delete[] x` with an actual operand. Deleted functions (`= delete`),
/// allocation-function names (`operator delete`) and comment text are
/// structure, not deallocation.
bool looks_like_delete_expr(const std::string& line) {
  const std::string code = strip_comment(line);
  auto is_ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  std::size_t pos = 0;
  while ((pos = code.find("delete", pos)) != std::string::npos) {
    const std::size_t after = pos + 6;
    const bool word = (pos == 0 || !is_ident(code[pos - 1])) &&
                      (after >= code.size() || !is_ident(code[after]));
    if (word) {
      std::size_t p = pos;
      while (p > 0 && (code[p - 1] == ' ' || code[p - 1] == '\t')) --p;
      const bool deleted_fn = p > 0 && code[p - 1] == '=';
      const bool op_name = p >= 8 && code.compare(p - 8, 8, "operator") == 0;
      if (!deleted_fn && !op_name) {
        std::size_t q = after;
        while (q < code.size() &&
               (code[q] == ' ' || code[q] == '[' || code[q] == ']')) {
          ++q;
        }
        if (q < code.size() &&
            (is_ident(code[q]) || code[q] == '*' || code[q] == '(')) {
          return true;
        }
      }
    }
    pos = after;
  }
  return false;
}

/// The member's `alignas` may sit on an earlier physical line: either the
/// declaration spans lines (alignas + qualifiers above, declarator below),
/// or the enclosing struct/class head is itself alignas-padded (the whole
/// aggregate is one padded unit, so its members need no per-field pad).
bool alignas_above(const std::vector<std::string>& lines, std::size_t i) {
  // Same declaration statement: walk up while the line above does not end
  // a statement or open/close a scope (';', '{', '}' as last code char).
  for (std::size_t k = i; k-- > 0;) {
    const std::string code = strip_comment(lines[k]);
    const std::size_t end = code.find_last_not_of(" \t");
    if (end == std::string::npos) break;  // blank or comment-only line
    const char last = code[end];
    if (last == ';' || last == '{' || last == '}') break;
    if (contains(lines[k], "alignas")) return true;
  }
  // Enclosing aggregate: the nearest struct/class head above, unless a
  // closing `};` intervenes (we would have left the aggregate).
  for (std::size_t k = i; k-- > 0;) {
    if (contains(strip_comment(lines[k]), "};")) break;
    if (contains(lines[k], "struct ") || contains(lines[k], "class ")) {
      return contains(lines[k], "alignas");
    }
  }
  return false;
}

void scan_file(const fs::path& path, std::vector<Finding>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cab_lint: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  // svc joined the hot set when the job service grew its tiered queue:
  // admission-side state is written from submitter threads *and* the
  // executor, the same cross-thread shape as the scheduler's own fields.
  const bool hot = has_component(path, "deque") ||
                   has_component(path, "runtime") ||
                   has_component(path, "util") ||
                   has_component(path, "svc");
  const std::string stem = path.stem().string();
  const bool worker_loop = has_component(path, "runtime") &&
                           (stem == "worker" || stem == "scheduler");

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];

    if (hot && contains(line, "memory_order_seq_cst") &&
        !justified(lines, i, "seq_cst:")) {
      out.push_back({path.string(), i + 1, "seq-cst-justify",
                     "memory_order_seq_cst without a `// seq_cst:` "
                     "justification comment"});
    }

    if (hot && is_header(path) && looks_like_atomic_member(line) &&
        !contains(line, "alignas") && !alignas_above(lines, i) &&
        !justified(lines, i, "pad-ok:")) {
      out.push_back({path.string(), i + 1, "hot-field-padding",
                     "atomic member without alignas padding or a "
                     "`// pad-ok:` justification comment"});
    }

    if (has_component(path, "runtime") &&
        (contains(strip_comment(line), "new TaskFrame") ||
         contains(strip_comment(line), "new LazyFrame") ||
         contains(strip_comment(line), "::operator new") ||
         looks_like_delete_expr(line)) &&
        !justified(lines, i, "alloc-ok:")) {
      out.push_back({path.string(), i + 1, "no-hot-path-alloc",
                     "frame allocation outside the pool / lazy slots "
                     "(new TaskFrame / new LazyFrame / ::operator new / "
                     "delete) without an `// alloc-ok:` justification "
                     "comment"});
    }

    if (worker_loop &&
        (contains(line, "sleep_for") || contains(line, "sleep_until") ||
         contains(line, ".wait(") || contains(line, ".wait_for(") ||
         contains(line, ".wait_until(")) &&
        !justified(lines, i, "blocking-ok:")) {
      out.push_back({path.string(), i + 1, "worker-blocking",
                     "blocking call in the worker loop without a "
                     "`// blocking-ok:` justification comment"});
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <path>... [--expect=N]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  long expect = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--expect=", 9) == 0) {
      char* end = nullptr;
      expect = std::strtol(argv[i] + 9, &end, 10);
      if (end == nullptr || *end != '\0' || expect < 0) return usage(argv[0]);
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      roots.emplace_back(argv[i]);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && is_source_file(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "cab_lint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }

  std::vector<Finding> findings;
  for (const auto& f : files) scan_file(f, findings);

  for (const auto& f : findings) {
    std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule,
                f.message.c_str());
  }
  std::printf("cab_lint: %zu finding(s) in %zu file(s)\n", findings.size(),
              files.size());
  if (expect >= 0) {
    if (static_cast<long>(findings.size()) != expect) {
      std::fprintf(stderr, "cab_lint: expected exactly %ld finding(s)\n",
                   expect);
      return 1;
    }
    return 0;
  }
  return findings.empty() ? 0 : 1;
}
