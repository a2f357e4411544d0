//===- bench/BenchJson.h - Machine-readable bench output -------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BENCH_*.json emission: every benchmark tool writes one machine-readable
/// file next to its human-readable output, so each PR's perf numbers can
/// be compared against the recorded trajectory instead of eyeballed.
///
/// Schema (version 8), documented in README.md:
///
///   {
///     "tool": "<tool name>",
///     "schema": 8,
///     "cpus": <hardware concurrency of the measuring machine>,
///     "records": [
///       {
///         "name": "<benchmark / section name>",
///         "grammar": "<corpus grammar>",
///         "conflicts": <reported conflict count>,
///         "jobs": <job count used for wall_ms_parallel>,
///         "jobs_inner": <intra-conflict workers used for wall_ms_parallel>,
///         "wall_ms_serial": <examineAll wall ms with Jobs = 1>,
///         "wall_ms_parallel": <examineAll wall ms with Jobs = jobs>,
///         "wall_ms_cold": <wall ms with an empty analysis cache>,
///         "wall_ms_warm": <wall ms re-run against the populated cache>,
///         "cache_hits": <analysis-cache blob hits>,
///         "cache_misses": <analysis-cache blob misses/degradations>,
///         "conflicts_reused": <conflict reports re-served fine-grained>,
///         "conflicts_recomputed": <conflicts examined cold>,
///         "conflicts_remapped": <old-generation reports re-served via
///                                the structural remap layer>,
///         "edit": "<edit-loop edit description>",
///         "states_reused": <new states kernel-matched to an old state>,
///         "states_rebuilt": <new states with no old counterpart>,
///         "configurations": <configurations explored>,
///         "peak_bytes": <peak guard-accounted bytes>,
///         "metrics": { "<dotted metric name>": <value>, ... }
///       }, ...
///     ]
///   }
///
/// Unmeasured wall and cache fields (negative in BenchRecord) are omitted
/// from the record, "edit" is omitted when empty, and "metrics" is
/// omitted when the record carries none (the usual flattened
/// MetricsSnapshot of the measured run); schemas 4–7 were pure field
/// additions (schema 4 added the top-level "cpus" and per-record
/// "jobs_inner", so speedup gates can tell whether the measuring machine
/// could physically show a speedup; schema 5 added "conflicts_reused" /
/// "conflicts_recomputed" / "edit" for batch_analyze's -edit-loop
/// incremental-reuse records; schema 6 added "states_reused" /
/// "states_rebuilt" / "conflicts_remapped" for the dirty-state automaton
/// patch; schema 7 added "table_rows_*" / "graph_rows_*" for the
/// row-level patch). Schema 8 drops the row fields with the patch itself
/// and redefines "states_reused" / "states_rebuilt" as the session's
/// matched / unmatched states.
/// Files are written as BENCH_<tool>.json in $LALRCEX_BENCH_DIR, or under
/// bench/out/ relative to the working directory when the variable is
/// unset (the directory is created on demand and gitignored; committed
/// reference runs live in bench/baselines/).
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_BENCH_BENCHJSON_H
#define LALRCEX_BENCH_BENCHJSON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lalrcex {
namespace bench {

/// Minimal streaming JSON writer; supports exactly the shapes the bench
/// schema needs (nested objects/arrays of string and number fields).
class JsonWriter {
public:
  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();
  JsonWriter &key(const std::string &K);
  JsonWriter &value(const std::string &S);
  JsonWriter &value(const char *S);
  JsonWriter &value(double D);
  JsonWriter &value(size_t N);
  JsonWriter &value(unsigned N);
  JsonWriter &value(bool B);

  template <typename T> JsonWriter &field(const std::string &K, T V) {
    key(K);
    return value(V);
  }

  const std::string &str() const { return Out; }

private:
  void separate();
  void raw(const std::string &S);

  std::string Out;
  std::vector<bool> NeedComma; // one flag per open object/array
  bool PendingKey = false;
};

/// One measurement row of the schema above.
struct BenchRecord {
  std::string Name;
  std::string Grammar;
  size_t Conflicts = 0;
  unsigned Jobs = 1;
  /// Intra-conflict workers used for WallMsParallel (schema 4).
  unsigned JobsInner = 1;
  double WallMsSerial = -1;   // < 0: not measured, omitted
  double WallMsParallel = -1; // < 0: not measured, omitted
  double WallMsCold = -1;     // < 0: not measured, omitted
  double WallMsWarm = -1;     // < 0: not measured, omitted
  long CacheHits = -1;        // < 0: not counted, omitted
  long CacheMisses = -1;      // < 0: not counted, omitted
  /// Conflict-level reuse counters of the measured run (schema 5);
  /// < 0: not counted, omitted.
  long ConflictsReused = -1;
  long ConflictsRecomputed = -1;
  /// Old-generation reports re-served through the structural remap layer
  /// (schema 6, a subset of ConflictsReused); < 0: not counted, omitted.
  long ConflictsRemapped = -1;
  /// Edit description for -edit-loop records (schema 5); empty: omitted.
  std::string Edit;
  /// New states kernel-matched / unmatched to the previous generation's
  /// (schema 8); < 0: no state map (invalid delta) or not an edit,
  /// omitted.
  long StatesReused = -1;
  long StatesRebuilt = -1;
  size_t Configurations = 0;
  size_t PeakBytes = 0;
  /// Flattened MetricsSnapshot of the measured run (name, value) pairs;
  /// empty vectors omit the "metrics" object entirely.
  std::vector<std::pair<std::string, uint64_t>> Metrics;
};

/// Resolved output path for a tool: $LALRCEX_BENCH_DIR/BENCH_<tool>.json,
/// or bench/out/BENCH_<tool>.json (relative to the working directory)
/// when the variable is unset. writeBenchRecords creates the directory.
std::string benchJsonPath(const std::string &Tool);

/// Writes BENCH_<tool>.json with the schema envelope above; returns the path
/// written, or an empty string (with a note on stderr) on I/O failure.
std::string writeBenchRecords(const std::string &Tool,
                              const std::vector<BenchRecord> &Records);

} // namespace bench
} // namespace lalrcex

#endif // LALRCEX_BENCH_BENCHJSON_H
