//===- bench/BenchJson.cpp ------------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace lalrcex;
using namespace lalrcex::bench;

void JsonWriter::raw(const std::string &S) { Out += S; }

void JsonWriter::separate() {
  if (PendingKey) {
    PendingKey = false;
    return; // value follows its key; no comma
  }
  if (!NeedComma.empty()) {
    if (NeedComma.back())
      Out += ",";
    NeedComma.back() = true;
  }
}

JsonWriter &JsonWriter::beginObject() {
  separate();
  raw("{");
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  NeedComma.pop_back();
  raw("}");
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  separate();
  raw("[");
  NeedComma.push_back(false);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  NeedComma.pop_back();
  raw("]");
  return *this;
}

static std::string escaped(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

JsonWriter &JsonWriter::key(const std::string &K) {
  separate();
  raw("\"" + escaped(K) + "\":");
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(const std::string &S) {
  separate();
  raw("\"" + escaped(S) + "\"");
  return *this;
}

JsonWriter &JsonWriter::value(const char *S) { return value(std::string(S)); }

JsonWriter &JsonWriter::value(double D) {
  separate();
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", D);
  raw(Buf);
  return *this;
}

JsonWriter &JsonWriter::value(size_t N) {
  separate();
  raw(std::to_string(N));
  return *this;
}

JsonWriter &JsonWriter::value(unsigned N) {
  separate();
  raw(std::to_string(N));
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  separate();
  raw(B ? "true" : "false");
  return *this;
}

std::string lalrcex::bench::benchJsonPath(const std::string &Tool) {
  // Default artifacts to bench/out/ so repeated runs never litter the
  // source tree root; committed reference runs live in bench/baselines/.
  std::string Dir = "bench/out";
  if (const char *Env = std::getenv("LALRCEX_BENCH_DIR"))
    Dir = Env;
  std::string File = "BENCH_" + Tool + ".json";
  if (Dir.empty())
    return File;
  if (Dir.back() != '/')
    Dir += '/';
  return Dir + File;
}

std::string
lalrcex::bench::writeBenchRecords(const std::string &Tool,
                                  const std::vector<BenchRecord> &Records) {
  JsonWriter W;
  W.beginObject();
  W.field("tool", Tool);
  W.field("schema", size_t(8));
  // The measuring machine's parallel width: speedup gates consult this to
  // decide whether a parallel-vs-serial ratio is meaningful here at all.
  W.field("cpus", std::max(1u, std::thread::hardware_concurrency()));
  W.key("records").beginArray();
  for (const BenchRecord &R : Records) {
    W.beginObject();
    W.field("name", R.Name);
    W.field("grammar", R.Grammar);
    W.field("conflicts", R.Conflicts);
    W.field("jobs", R.Jobs);
    W.field("jobs_inner", R.JobsInner);
    if (R.WallMsSerial >= 0)
      W.field("wall_ms_serial", R.WallMsSerial);
    if (R.WallMsParallel >= 0)
      W.field("wall_ms_parallel", R.WallMsParallel);
    if (R.WallMsCold >= 0)
      W.field("wall_ms_cold", R.WallMsCold);
    if (R.WallMsWarm >= 0)
      W.field("wall_ms_warm", R.WallMsWarm);
    if (R.CacheHits >= 0)
      W.field("cache_hits", size_t(R.CacheHits));
    if (R.CacheMisses >= 0)
      W.field("cache_misses", size_t(R.CacheMisses));
    if (R.ConflictsReused >= 0)
      W.field("conflicts_reused", size_t(R.ConflictsReused));
    if (R.ConflictsRecomputed >= 0)
      W.field("conflicts_recomputed", size_t(R.ConflictsRecomputed));
    if (R.ConflictsRemapped >= 0)
      W.field("conflicts_remapped", size_t(R.ConflictsRemapped));
    if (!R.Edit.empty())
      W.field("edit", R.Edit);
    if (R.StatesReused >= 0)
      W.field("states_reused", size_t(R.StatesReused));
    if (R.StatesRebuilt >= 0)
      W.field("states_rebuilt", size_t(R.StatesRebuilt));
    W.field("configurations", R.Configurations);
    W.field("peak_bytes", R.PeakBytes);
    if (!R.Metrics.empty()) {
      W.key("metrics").beginObject();
      for (const auto &M : R.Metrics)
        W.field(M.first, size_t(M.second));
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();

  std::string Path = benchJsonPath(Tool);
  std::error_code Ec;
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty())
    std::filesystem::create_directories(Parent, Ec); // best-effort; open fails below
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS) {
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    return std::string();
  }
  OS << W.str() << "\n";
  if (!OS.flush()) {
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    return std::string();
  }
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return Path;
}
