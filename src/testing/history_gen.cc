#include "src/testing/history_gen.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/support/rng.h"

namespace vc {
namespace testing {

namespace {

// Every module's peer function calls its callee this many times.
constexpr int kPeerSites = 4;

// Every third module is quiet: its peer function calls a helper of its own
// instead of the library function `peer_log`. A quiet module then shares no
// name with another module (glue.c aside), so a commit that edits one module
// leaves the other kind's finished results to carry, and an edit of a quiet
// module leaves every other module's.
bool Quiet(int module) { return module % 3 == 2; }

// Per-module mutable state. `version` selects the generated body, `touches`
// counts appended blank lines, `rename_gen` selects the file path,
// `entry_params` the arity of the module's stable export, and
// `peer_ignored` how many of its peer_log calls ignore the result.
struct ModuleState {
  int version = 0;
  int rename_gen = 0;
  int touches = 0;
  int entry_params = 1;  // 1 or 2
  int peer_ignored = 2;  // 2 or 3 of kPeerSites
};

std::string ModulePath(int module, int rename_gen) {
  std::string path = "mod" + std::to_string(module);
  if (rename_gen > 0) {
    path += "_r" + std::to_string(rename_gen);
  }
  return path + ".c";
}

std::string EntryName(int module) { return "mod" + std::to_string(module) + "_entry"; }

// Full module content for a state. Independent of rename_gen, so a rename
// moves byte-identical content to a new path.
std::string ModuleContent(const HistoryGenOptions& options, int module,
                          const ModuleState& state) {
  GenOptions gen = options.per_module;
  gen.min_files = 1;
  gen.max_files = 1;
  gen.ident_prefix =
      "m" + std::to_string(module) + "v" + std::to_string(state.version) + "_";
  uint64_t seed = options.seed;
  seed = seed * 0x100000001b3ULL + static_cast<uint64_t>(module) + 1;
  seed = seed * 0x100000001b3ULL + static_cast<uint64_t>(state.version) + 1;
  TestProgram program = GenerateProgram(seed, gen);
  std::string content = program.files.front().Content();
  // The stable export glue.c calls into. Its body depends on the version, so
  // a rewrite is also a cross-file callee edit from glue's point of view.
  content += "int " + EntryName(module) +
             (state.entry_params == 1 ? "(int a) {\n" : "(int a, int b) {\n");
  content += "  int acc = a + " + std::to_string(module + state.version) + ";\n";
  if (state.entry_params == 2) {
    content += "  acc = acc + b;\n";
  }
  content += "  return acc;\n}\n";
  // The peer sites. With two of four ignored in every module, exactly half
  // of peer_log's results are ignored: not customarily. One module ignoring
  // a third tips it past half (with more than ten sites), and every ignored
  // result in every module is then pruned as a peer definition. A quiet
  // module calls its own helper at the same sites.
  const std::string callee =
      Quiet(module) ? "mod" + std::to_string(module) + "_note" : std::string("peer_log");
  if (Quiet(module)) {
    content += "int " + callee + "(int v) {\n  return v + 1;\n}\n";
  }
  content += "int mod" + std::to_string(module) + "_peer(int x) {\n  int acc = x;\n";
  for (int i = 0; i < kPeerSites; ++i) {
    content += i < state.peer_ignored ? "  " + callee + "(acc);\n"
                                      : "  acc = acc + " + callee + "(acc);\n";
  }
  content += "  return acc;\n}\n";
  content.append(static_cast<size_t>(state.touches), '\n');
  return content;
}

// One caller per live module, matching each export's current arity.
std::string GlueContent(const std::map<int, ModuleState>& live) {
  std::string content;
  for (const auto& [module, state] : live) {
    content += "int glue_m" + std::to_string(module) + "(int x) {\n";
    content += "  int r = " + EntryName(module) +
               (state.entry_params == 1 ? "(x);\n" : "(x, x);\n");
    content += "  return r;\n}\n";
  }
  return content;
}

}  // namespace

Repository GenerateHistory(const HistoryGenOptions& options) {
  Repository repo;
  std::vector<AuthorId> authors;
  int author_count = options.authors > 0 ? options.authors : 1;
  for (int i = 0; i < author_count; ++i) {
    authors.push_back(repo.AddAuthor("dev" + std::to_string(i)));
  }

  Rng rng(options.seed ^ 0x68697374ULL);  // distinct stream from module bodies
  std::map<int, ModuleState> live;
  int next_module = 0;
  int64_t timestamp = 1'600'000'000;

  std::map<std::string, std::string> initial;
  for (int i = 0; i < options.initial_modules; ++i) {
    live[next_module] = ModuleState{};
    initial[ModulePath(next_module, 0)] = ModuleContent(options, next_module, live[next_module]);
    ++next_module;
  }
  initial["glue.c"] = GlueContent(live);
  repo.AddCommit(authors[0], timestamp, "initial import", std::move(initial));

  for (int c = 1; c < options.commits; ++c) {
    timestamp += rng.NextInRange(60, 3600);
    AuthorId author = authors[rng.NextBelow(authors.size())];
    std::map<std::string, std::string> files;
    std::set<std::string> deleted;
    std::string message;

    // Pick a live module up front; ops that can't run (add at max_modules,
    // remove at one module) fall back to a rewrite so every commit edits
    // something.
    auto pick = live.begin();
    std::advance(pick, static_cast<long>(rng.NextBelow(live.size())));
    int module = pick->first;
    ModuleState& state = pick->second;

    uint64_t op = rng.NextBelow(100);
    if (op < 45 && op >= 35) {
      // Peer flip: only this module changes, but peer_log's verdict can flip
      // at every other module's call sites (a quiet module's helper has too
      // few sites to flip).
      state.peer_ignored = 5 - state.peer_ignored;
      files[ModulePath(module, state.rename_gen)] = ModuleContent(options, module, state);
      message = "peer sites of mod" + std::to_string(module);
    } else if (op < 60 && op >= 45) {
      // Whitespace-only touch: hash changes, semantics don't.
      ++state.touches;
      files[ModulePath(module, state.rename_gen)] = ModuleContent(options, module, state);
      message = "tidy mod" + std::to_string(module);
    } else if (op < 70 && op >= 60 &&
               static_cast<int>(live.size()) < options.max_modules) {
      live[next_module] = ModuleState{};
      files[ModulePath(next_module, 0)] = ModuleContent(options, next_module, live[next_module]);
      files["glue.c"] = GlueContent(live);
      message = "add mod" + std::to_string(next_module);
      ++next_module;
    } else if (op < 80 && op >= 70 && live.size() > 1) {
      deleted.insert(ModulePath(module, state.rename_gen));
      live.erase(module);
      files["glue.c"] = GlueContent(live);
      message = "remove mod" + std::to_string(module);
    } else if (op < 90 && op >= 80) {
      // Rename: same bytes, new path.
      deleted.insert(ModulePath(module, state.rename_gen));
      ++state.rename_gen;
      files[ModulePath(module, state.rename_gen)] = ModuleContent(options, module, state);
      message = "move mod" + std::to_string(module);
    } else if (op >= 90) {
      // Signature change on the export; glue must follow.
      state.entry_params = 3 - state.entry_params;
      files[ModulePath(module, state.rename_gen)] = ModuleContent(options, module, state);
      files["glue.c"] = GlueContent(live);
      message = "change mod" + std::to_string(module) + " entry signature";
    } else {
      // Rewrite (the common case, and the fallback for blocked add/remove).
      ++state.version;
      state.touches = 0;
      files[ModulePath(module, state.rename_gen)] = ModuleContent(options, module, state);
      message = "rework mod" + std::to_string(module);
    }
    repo.AddCommit(author, timestamp, std::move(message), std::move(files),
                   std::move(deleted));
  }
  return repo;
}

}  // namespace testing
}  // namespace vc
