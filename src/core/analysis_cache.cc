#include "src/core/analysis_cache.h"

#include <filesystem>
#include <fstream>
#include <optional>

#include "src/support/file_util.h"
#include "src/support/json_reader.h"
#include "src/support/json_writer.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"

namespace vc {

namespace {

// Hex rendering for the content hash: JSON numbers lose precision past 2^53,
// so hashes travel as strings.
std::string HashHex(uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

void WriteLoc(JsonWriter& json, const SourceLoc& loc) {
  json.BeginObject()
      .Int("line", loc.line)
      .Int("col", loc.column)
      .EndObject();
}

SourceLoc ReadLoc(const JsonValue& value) {
  SourceLoc loc;
  // FileId is rebound against the live module; the serialized form is
  // file-relative by construction (one entry per source path).
  loc.file = kInvalidFileId;
  loc.line = static_cast<int32_t>(value.GetInt("line"));
  loc.column = static_cast<int32_t>(value.GetInt("col"));
  return loc;
}

// Serializes the detector-filled candidate fields. Pointer fields (var,
// ir_func) and the def_loc/overwriter FileIds are rebound on load;
// authorship/prune/rank fields are recomputed every commit, so caching them
// would be wasted bytes.
void WriteCandidate(JsonWriter& json, const UnusedDefCandidate& cand) {
  json.BeginObject()
      .String("function", cand.function)
      .String("slot_name", cand.slot_name)
      .String("file", cand.file);
  json.Key("def_loc");
  WriteLoc(json, cand.def_loc);
  json.Int("slot", cand.slot)
      .Bool("is_param", cand.is_param)
      .Bool("is_synthetic", cand.is_synthetic)
      .Bool("is_field_slot", cand.is_field_slot)
      .Bool("overwritten", cand.overwritten);
  json.Key("overwriter_locs").BeginArray();
  for (const SourceLoc& loc : cand.overwriter_locs) {
    WriteLoc(json, loc);
  }
  json.EndArray();
  json.String("callee_name", cand.callee_name)
      .Bool("is_increment", cand.is_increment)
      .Int("increment_amount", cand.increment_amount)
      .Int("kind", static_cast<int>(cand.kind))
      .String("checker", cand.checker)
      .String("fingerprint_ns", cand.fingerprint_ns)
      .Bool("from_baseline", cand.from_baseline)
      .String("note", cand.note)
      .EndObject();
}

UnusedDefCandidate ReadCandidate(const JsonValue& value) {
  UnusedDefCandidate cand;
  cand.function = value.GetString("function");
  cand.slot_name = value.GetString("slot_name");
  cand.file = value.GetString("file");
  cand.def_loc = ReadLoc(value.Get("def_loc"));
  cand.slot = static_cast<SlotId>(value.GetInt("slot", kInvalidSlot));
  cand.is_param = value.GetBool("is_param");
  cand.is_synthetic = value.GetBool("is_synthetic");
  cand.is_field_slot = value.GetBool("is_field_slot");
  cand.overwritten = value.GetBool("overwritten");
  for (const JsonValue& loc : value.Get("overwriter_locs").Items()) {
    cand.overwriter_locs.push_back(ReadLoc(loc));
  }
  cand.callee_name = value.GetString("callee_name");
  cand.is_increment = value.GetBool("is_increment");
  cand.increment_amount = value.GetInt("increment_amount");
  cand.kind = static_cast<CandidateKind>(value.GetInt("kind"));
  cand.checker = value.GetString("checker");
  cand.fingerprint_ns = value.GetString("fingerprint_ns");
  cand.from_baseline = value.GetBool("from_baseline");
  cand.note = value.GetString("note");
  return cand;
}

// Restores the pointer fields of a loaded result against the live module:
// the function's IR, each candidate's slot-table VarDecl, and the FileId of
// every location.
void RebindFunctionDetect(FunctionDetect& detect, const IrFunction& func, FileId file) {
  for (UnusedDefCandidate& cand : detect.candidates) {
    cand.ir_func = &func;
    cand.var = (cand.slot != kInvalidSlot && cand.slot < func.slots.size())
                   ? func.slots[cand.slot].var
                   : nullptr;
    cand.def_loc.file = file;
    for (SourceLoc& loc : cand.overwriter_locs) {
      loc.file = file;
    }
  }
}

// A result is disk-serializable only when rebinding can reproduce it exactly:
// every candidate's VarDecl must be reachable through its slot. The clang and
// infer baselines attach AST VarDecls without a slot; their files stay in the
// memory tier (pointers remain valid there) and re-detect across processes.
bool DiskSafe(const FunctionDetect& detect, const IrFunction& func) {
  for (const UnusedDefCandidate& cand : detect.candidates) {
    if (cand.var == nullptr) {
      continue;
    }
    if (cand.slot == kInvalidSlot || cand.slot >= func.slots.size() ||
        func.slots[cand.slot].var != cand.var) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t HashContent(std::string_view text) { return Fnv1a(text); }

AnalysisCache::AnalysisCache(std::string cache_dir, std::string config_key)
    : cache_dir_(std::move(cache_dir)), config_key_(std::move(config_key)) {
  if (!cache_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir_, ec);
  }
}

std::string AnalysisCache::DiskPath(const std::string& path) const {
  // Sanitized basename plus a path hash: readable when debugging, collision
  // free when two paths sanitize identically.
  std::string name;
  name.reserve(path.size());
  for (char c : path) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    name.push_back(keep ? c : '_');
  }
  return (std::filesystem::path(cache_dir_) / (name + "-" + HashHex(HashContent(path)) + ".json"))
      .string();
}

bool AnalysisCache::LoadFromDisk(const std::string& path, uint64_t content_hash,
                                 const IrModule& module, std::vector<FunctionDetect>& out,
                                 std::vector<QuarantinedUnit>& quarantine) {
  if (cache_dir_.empty()) {
    return false;
  }
  std::optional<std::string> text = ReadWholeFile(DiskPath(path));
  if (!text.has_value()) {
    return false;  // plain miss: never cached
  }
  const auto corrupt = [&](const std::string& why) {
    ++stats_.disk_corrupt;
    quarantine.push_back({path, "", "cache", "corrupt cache entry: " + why, ""});
    return false;
  };
  std::string error;
  std::optional<JsonValue> doc = ParseJson(*text, &error);
  if (!doc || !doc->IsObject()) {
    return corrupt(error.empty() ? "not an object" : error);
  }
  if (doc->GetInt("schema_version") != kCacheSchemaVersion ||
      doc->GetString("config_key") != config_key_ ||
      doc->GetString("content_hash") != HashHex(content_hash)) {
    return false;  // stale: configuration or content moved on
  }
  const JsonValue& functions = doc->Get("functions");
  if (!functions.IsArray()) {
    return corrupt("missing functions array");
  }
  // The records must name the module's functions, in order: anything else is
  // outside input that no longer describes this content.
  if (functions.Items().size() != module.functions.size()) {
    return corrupt("function count differs from the compiled file");
  }
  std::vector<FunctionDetect> loaded(module.functions.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const JsonValue& fn = functions.Items()[i];
    const IrFunction& func = *module.functions[i];
    if (!fn.IsObject() || fn.GetString("name") != func.name) {
      return corrupt("function record " + std::to_string(i) + " does not name '" + func.name +
                     "'");
    }
    for (const JsonValue& cand : fn.Get("candidates").Items()) {
      loaded[i].candidates.push_back(ReadCandidate(cand));
    }
    for (const JsonValue& unit : fn.Get("quarantined").Items()) {
      loaded[i].quarantined.push_back({unit.GetString("path"), unit.GetString("function"),
                                       unit.GetString("stage"), unit.GetString("reason"),
                                       unit.GetString("checker")});
    }
    RebindFunctionDetect(loaded[i], func, module.file);
  }
  out = std::move(loaded);
  ++stats_.disk_loads;
  return true;
}

void AnalysisCache::StoreToDisk(const std::string& path, const FileCacheEntry& entry,
                                const IrModule& module) {
  if (cache_dir_.empty() || entry.functions.size() != module.functions.size()) {
    return;
  }
  for (size_t i = 0; i < entry.functions.size(); ++i) {
    if (!DiskSafe(entry.functions[i], *module.functions[i])) {
      return;
    }
  }
  JsonWriter json;
  json.BeginObject()
      .Int("schema_version", kCacheSchemaVersion)
      .String("config_key", config_key_)
      .String("path", path)
      .String("content_hash", HashHex(entry.content_hash));
  json.Key("functions").BeginArray();
  for (size_t i = 0; i < entry.functions.size(); ++i) {
    const FunctionDetect& detect = entry.functions[i];
    json.BeginObject().String("name", module.functions[i]->name);
    json.Key("candidates").BeginArray();
    for (const UnusedDefCandidate& cand : detect.candidates) {
      WriteCandidate(json, cand);
    }
    json.EndArray();
    json.Key("quarantined").BeginArray();
    for (const QuarantinedUnit& unit : detect.quarantined) {
      json.BeginObject()
          .String("path", unit.path)
          .String("function", unit.function)
          .String("stage", unit.stage)
          .String("reason", unit.reason)
          .String("checker", unit.checker)
          .EndObject();
    }
    json.EndArray().EndObject();
  }
  json.EndArray().EndObject();

  const std::string disk_path = DiskPath(path);
  const std::string tmp = disk_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return;  // unwritable cache dir degrades to no disk tier
    }
    out << json.str();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, disk_path, ec);
  if (!ec) {
    ++stats_.disk_stores;
  }
}

void AnalysisCache::PublishMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto bump = [&registry](const char* name, uint64_t now, uint64_t& before) {
    if (now > before) {
      registry.GetCounter(name).Add(static_cast<int64_t>(now - before));
    }
    before = now;
  };
  bump("cache.parse.hits", stats_.parse_hits, published_.parse_hits);
  bump("cache.parse.misses", stats_.parse_misses, published_.parse_misses);
  bump("cache.detect.carried", stats_.detect_carried, published_.detect_carried);
  bump("cache.detect.recomputed", stats_.detect_recomputed, published_.detect_recomputed);
  bump("cache.disk.loads", stats_.disk_loads, published_.disk_loads);
  bump("cache.disk.stores", stats_.disk_stores, published_.disk_stores);
  bump("cache.disk.corrupt", stats_.disk_corrupt, published_.disk_corrupt);
  registry.GetGauge("cache.files").Set(static_cast<int64_t>(files_.size()));
  uint64_t functions = 0;
  for (const auto& [path, entry] : files_) {
    functions += entry.functions.size();
  }
  registry.GetGauge("cache.functions").Set(static_cast<int64_t>(functions));
}

}  // namespace vc
