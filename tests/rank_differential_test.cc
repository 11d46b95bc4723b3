// Differential test of the rank stage. A run finishes each slice on its own —
// its survivors' familiarity and fingerprints (RankSlice) — and its findings
// are a view over every slice's survivors that SortRanked orders. Before,
// the run copied every survivor into one list, ranked the list and then
// fingerprinted it. That list path is kept verbatim below as
// ReferenceRankCandidates and ReferenceAssignFingerprints. The slice path
// must give the same ranked order, familiarity and fingerprints on the four
// generated apps and on hand-built slices whose same-key candidates share a
// location but not a familiarity, with ranking on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/fingerprint.h"
#include "src/core/ranking.h"
#include "src/corpus/generator.h"
#include "src/corpus/profile.h"
#include "src/familiarity/dok_model.h"
#include "src/familiarity/ea_model.h"
#include "src/support/string_util.h"

namespace vc {
namespace {

constexpr double kReferenceUnknownFamiliarity = 1e9;
constexpr uint64_t kReferenceFingerprintSeed = 1469598103934665603ull;

void ReferenceRankCandidates(std::vector<UnusedDefCandidate>& candidates, const Repository* repo,
                             const RankingOptions& options, RankStats* stats) {
  if (!options.enabled) {
    return;
  }
  RankStats local;
  for (UnusedDefCandidate& cand : candidates) {
    if (repo == nullptr || cand.responsible_author == kInvalidAuthor) {
      cand.familiarity = kReferenceUnknownFamiliarity;
      ++local.unknown;
      continue;
    }
    if (options.use_ea_model) {
      cand.familiarity = EaScoreFor(*repo, cand.responsible_author, cand.file);
    } else {
      cand.familiarity = DokScoreFor(*repo, cand.responsible_author, cand.file, options.weights);
    }
    ++local.scored;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const UnusedDefCandidate& a, const UnusedDefCandidate& b) {
                     if (a.familiarity != b.familiarity) {
                       return a.familiarity < b.familiarity;
                     }
                     if (a.file != b.file) {
                       return a.file < b.file;
                     }
                     return a.def_loc < b.def_loc;
                   });
  if (stats != nullptr) {
    *stats = local;
  }
}

std::string ReferenceHex16(uint64_t hash) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, hash >>= 4) {
    out[static_cast<size_t>(i)] = kDigits[hash & 0xF];
  }
  return out;
}

void ReferenceAssignFingerprints(std::vector<UnusedDefCandidate>& candidates) {
  struct Entry {
    uint64_t hash;
    std::string key;
    size_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::string key = FingerprintKey(candidates[i]);
    const uint64_t hash = Fnv1a(key, kReferenceFingerprintSeed);
    entries.push_back({hash, std::move(key), i});
  }
  auto order = [&](const Entry& e) {
    const SourceLoc& loc = candidates[e.index].def_loc;
    return std::make_tuple(loc.line, loc.column, e.index);
  };
  std::sort(entries.begin(), entries.end(), [&](const Entry& a, const Entry& b) {
    if (a.hash != b.hash) {
      return a.hash < b.hash;
    }
    if (const int c = a.key.compare(b.key); c != 0) {
      return c < 0;
    }
    return order(a) < order(b);
  });
  for (size_t begin = 0, end = 0; begin < entries.size(); begin = end) {
    const Entry& first = entries[begin];
    for (end = begin + 1;
         end < entries.size() && entries[end].hash == first.hash && entries[end].key == first.key;
         ++end) {
    }
    for (size_t k = begin; k < end; ++k) {
      const std::string suffix = "#" + std::to_string(k - begin + 1);
      candidates[entries[k].index].fingerprint = ReferenceHex16(Fnv1a(suffix, first.hash));
    }
  }
}

// The list the list path ranked: every slice's survivors in pool order, as
// detection and pruning left them (no familiarity, no fingerprint), ranked
// and then fingerprinted.
std::vector<UnusedDefCandidate> ReferenceFindings(const CandidateSlices& slices,
                                                  const Repository* repo,
                                                  const RankingOptions& options,
                                                  RankStats* stats) {
  std::vector<UnusedDefCandidate> list;
  for (const CandidateSlices::Slice& slice : slices.slices()) {
    for (uint32_t p : slice->survivors) {
      list.push_back(slice->candidates[p]);
      list.back().familiarity = 0.0;
      list.back().fingerprint.clear();
    }
  }
  ReferenceRankCandidates(list, repo, options, stats);
  ReferenceAssignFingerprints(list);
  return list;
}

void ExpectSameFindings(const FindingsView& findings,
                        const std::vector<UnusedDefCandidate>& reference,
                        const std::string& label) {
  ASSERT_EQ(findings.size(), reference.size()) << label;
  for (size_t i = 0; i < reference.size(); ++i) {
    const UnusedDefCandidate& got = findings[i];
    const UnusedDefCandidate& want = reference[i];
    EXPECT_EQ(got.file, want.file) << label << " #" << i;
    EXPECT_EQ(got.def_loc, want.def_loc) << label << " #" << i;
    EXPECT_EQ(got.function, want.function) << label << " #" << i;
    EXPECT_EQ(got.slot_name, want.slot_name) << label << " #" << i;
    EXPECT_EQ(got.familiarity, want.familiarity) << label << " #" << i;
    EXPECT_EQ(got.fingerprint, want.fingerprint) << label << " #" << i;
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(RankDifferential, GeneratedAppsMatchTheListPath) {
  const ProjectProfile profiles[] = {LinuxProfile(), NfsGaneshaProfile(), MysqlProfile(),
                                     OpensslProfile()};
  for (const ProjectProfile& profile : profiles) {
    const GeneratedApp app = GenerateApp(profile.Scaled(0.1));
    for (const bool enabled : {true, false}) {
      for (const bool ea : {false, true}) {
        if (!enabled && ea) {
          continue;
        }
        AnalysisOptions options;
        options.jobs = 4;
        options.ranking.enabled = enabled;
        options.ranking.use_ea_model = ea;
        const AnalysisReport report = Analysis(options).RunOnRepository(app.repo);
        RankStats stats;
        const std::vector<UnusedDefCandidate> reference =
            ReferenceFindings(report.raw_candidates, &app.repo, options.ranking, &stats);
        const std::string label = profile.name + (enabled ? (ea ? " ea" : " dok") : " unranked");
        ASSERT_FALSE(reference.empty()) << label;
        ExpectSameFindings(report.findings, reference, label);
        EXPECT_EQ(report.stages[Stage::kRank].counts[kRankScored],
                  static_cast<int64_t>(stats.scored))
            << label;
        EXPECT_EQ(report.stages[Stage::kRank].counts[kRankUnknown],
                  static_cast<int64_t>(stats.unknown))
            << label;
      }
    }
  }
}

// One file's candidate, all of one fingerprint key unless `slot` differs.
UnusedDefCandidate Candidate(const std::string& file, int line, int column, AuthorId author,
                             const std::string& slot = "ret") {
  UnusedDefCandidate cand;
  cand.file = file;
  cand.function = "handle";
  cand.slot_name = slot;
  cand.def_loc = {file == "z.c" ? 0 : 1, line, column};
  cand.kind = CandidateKind::kOverwrittenDef;
  cand.overwritten = true;
  cand.cross_scope = true;
  cand.responsible_author = author;
  return cand;
}

std::shared_ptr<CandidateSlice> Slice(std::vector<UnusedDefCandidate> candidates,
                                      std::vector<uint32_t> survivors) {
  auto slice = std::make_shared<CandidateSlice>();
  slice->candidates = std::move(candidates);
  slice->survivors = std::move(survivors);
  return slice;
}

TEST(RankDifferential, SameKeyFindingsAtOneLocationMatchTheListPath) {
  // Four authors commit to both files in different numbers, so each has a
  // different familiarity with each.
  Repository repo;
  const AuthorId alice = repo.AddAuthor("alice");
  const AuthorId bob = repo.AddAuthor("bob");
  const AuthorId carol = repo.AddAuthor("carol");
  const AuthorId dave = repo.AddAuthor("dave");
  repo.AddCommit(alice, 1, "create", {{"z.c", "int z;\n"}, {"a.c", "int a;\n"}});
  repo.AddCommit(bob, 2, "fix z", {{"z.c", "int z2;\n"}});
  repo.AddCommit(bob, 3, "fix z again", {{"z.c", "int z3;\n"}});
  repo.AddCommit(carol, 4, "edit both", {{"z.c", "int z4;\n"}, {"a.c", "int a2;\n"}});
  repo.AddCommit(dave, 5, "refactor a", {{"a.c", "int a3;\n"}});

  for (const bool enabled : {true, false}) {
    // Unit order need not be path order: z.c's slice comes first. Same-key
    // candidates share (7, 3) in z.c and (4, 9) in a.c, out of familiarity
    // order; a.c's position 2 is pruned, and unknown authors tie across
    // files.
    const std::shared_ptr<CandidateSlice> fresh[] = {
        Slice({Candidate("z.c", 7, 3, carol), Candidate("z.c", 7, 3, alice),
               Candidate("z.c", 2, 1, bob, "other"), Candidate("z.c", 7, 3, bob),
               Candidate("z.c", 7, 3, kInvalidAuthor), Candidate("z.c", 7, 3, dave)},
              {0, 1, 2, 3, 4, 5}),
        Slice({Candidate("a.c", 4, 9, dave), Candidate("a.c", 4, 9, kInvalidAuthor),
               Candidate("a.c", 4, 9, alice), Candidate("a.c", 4, 9, carol)},
              {0, 1, 3})};

    RankingOptions options;
    options.enabled = enabled;
    CandidateSlices slices;
    FindingsView findings;
    uint64_t scored = 0;
    uint64_t unknown = 0;
    for (const std::shared_ptr<CandidateSlice>& slice : fresh) {
      RankSlice(*slice, &repo, options);
      scored += slice->scored;
      unknown += slice->unknown;
      for (uint32_t p : slice->survivors) {
        findings.positions().push_back(&slice->candidates[p]);
      }
      slices.push_back(slice);
    }
    if (enabled) {
      SortRanked(findings.positions());
    }

    RankStats stats;
    const std::vector<UnusedDefCandidate> reference =
        ReferenceFindings(slices, &repo, options, &stats);
    const std::string label = enabled ? "ranked" : "unranked";
    ExpectSameFindings(findings, reference, label);
    EXPECT_EQ(scored, stats.scored) << label;
    EXPECT_EQ(unknown, stats.unknown) << label;
    if (enabled) {
      // The case this test is for: same-key findings at one location whose
      // familiarity differs.
      std::vector<double> at_7_3;
      for (const UnusedDefCandidate& cand : findings) {
        if (cand.file == "z.c" && cand.def_loc.line == 7) {
          at_7_3.push_back(cand.familiarity);
        }
      }
      std::sort(at_7_3.begin(), at_7_3.end());
      ASSERT_EQ(at_7_3.size(), 5u);
      EXPECT_EQ(std::unique(at_7_3.begin(), at_7_3.end()), at_7_3.end());
    }
  }
}

}  // namespace
}  // namespace vc
