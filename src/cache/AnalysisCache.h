//===- cache/AnalysisCache.h - Persistent analysis cache -------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed persistent cache for conflict reports. A grammar
/// author's workflow is iterative — re-run the analyzer after every small
/// edit — and this layer makes the "nothing changed" (or "only this part
/// changed") hot path skip the searches, which is where a run spends its
/// time. The automaton, parse table and state-item graph are always built
/// from the grammar: building them is cheaper than reading and validating
/// a stored copy (DESIGN.md §5d).
///
/// Addressing. The cache holds one blob per (options, grammar structure):
///
///   <key>.rep   key = reportBlobKey(): the format-version salt,
///               optionsFingerprint() (every FinderOptions field that can
///               change report content), the automaton kind, and the
///               grammar's shape by id (terminal and symbol counts, every
///               production's lhs and rhs ids)
///
/// The blob holds every report stored for that structure, sorted by
/// conflict record, each with the graph nodes its search read. A report
/// depends only on the options and its conflict record within one
/// automaton (the paper explains each conflict on its own), and the
/// automaton is a function of the shape and the kind. So names,
/// precedence and %expect stay out of the key: names are re-rendered from
/// the live grammar, and precedence only selects which conflicts are
/// reported, with which resolution — and the full record is what an entry
/// is looked up by. After a rename or a precedence edit every
/// still-reported conflict is found in the same blob; after a rule edit
/// the shape moves, the key misses, and the run recomputes (or, with an
/// IncrementalSession handoff, remaps from the previous structure's blob)
/// — never a stale report. A finite cumulative budget couples the
/// conflicts of one run (later ones see what earlier ones consumed), so
/// the key then also folds the ordered list of reported conflict records
/// and a blob is served only whole.
///
/// Invalidation is therefore structural: nothing is ever updated in
/// place, and bumping FormatVersion re-salts every key, orphaning all old
/// blobs at once.
///
/// Housekeeping. Orphaned blobs accumulate as grammars are edited;
/// collectGarbage() bounds the directory to a byte budget by evicting
/// oldest-first (and sweeping stray temp files). Files of older layouts
/// (`.crep`, `.art`, `.sig`) are never opened and are evicted like any
/// other file.
///
/// Robustness. Blobs are untrusted input. Every file carries a magic tag,
/// the version salt, its own key, and a trailing checksum of all prior
/// bytes; loads verify all four and then bounds-check and range-check
/// every field while reconstructing (cache/Serialization.h), including
/// the entry order. Any mismatch — truncation, bit rot, a hostile file —
/// degrades to a cold recompute of that structure's conflicts, reported
/// through the existing FailureReason machinery, never a crash. Stores
/// write to a temp file and rename, so concurrent batch workers and
/// crashed runs can never publish a half-written blob.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_CACHE_ANALYSISCACHE_H
#define LALRCEX_CACHE_ANALYSISCACHE_H

#include "counterexample/CounterexampleFinder.h"
#include "support/Hash.h"

#include <memory>
#include <string>
#include <vector>

namespace lalrcex {
namespace cache {

/// Bump whenever a blob layout or a fingerprinted field set changes; it
/// salts every fingerprint, so stale blobs miss instead of misparsing.
/// v2: `.crep` blobs carry the search's graph-node touched set (the
/// verification input for post-edit conflict-report remapping).
/// v3: the unifying search charges 48 bytes per item-sequence entry and
/// 40 per alias, and creates one entry per prepend, so cached PeakBytes
/// and MemoryLimit verdicts computed under the old charges are stale.
/// v4: one `.rep` blob per (options, grammar structure) holds every
/// stored report with its touched set; the exact-grammar `.rep` and the
/// per-conflict `.crep` blobs are gone.
/// v5: a unifying search stops expanding once its queue holds every
/// configuration its step budget can still pop (saturation), so a
/// budget-stopped search creates fewer item-sequence entries and
/// admissions: cached PeakBytes, and MemoryLimit verdicts, are stale.
/// v6: the finder options no longer carry a wall-clock poll period, so
/// the options fingerprint hashes one field fewer.
constexpr uint32_t FormatVersion = 6;

/// How a cache probe concluded.
enum class CacheOutcome : uint8_t {
  Hit,             ///< blob found, verified, and reconstructed
  Disabled,        ///< no cache directory configured
  Miss,            ///< no blob for this key
  VersionMismatch, ///< blob written under a different FormatVersion
  KeyMismatch,     ///< blob's embedded key disagrees with its file name
  Corrupt,         ///< checksum, bounds, or semantic validation failed
  IoError,         ///< file unreadable / unwritable
  Stored,          ///< (store probes) blob written successfully
};

/// Short name for diagnostics ("hit", "corrupt", ...).
const char *toString(CacheOutcome O);

/// Result of one load or store: the outcome plus a human-readable detail
/// for the degraded cases.
struct CacheProbe {
  CacheOutcome Outcome = CacheOutcome::Disabled;
  std::string Detail;

  bool hit() const { return Outcome == CacheOutcome::Hit; }
  /// True for the outcomes that indicate a damaged or unreadable blob —
  /// the ones worth surfacing as a FailureReason (a plain miss is not).
  bool degraded() const {
    return Outcome == CacheOutcome::VersionMismatch ||
           Outcome == CacheOutcome::KeyMismatch ||
           Outcome == CacheOutcome::Corrupt ||
           Outcome == CacheOutcome::IoError;
  }
};

/// Stable fingerprint of the grammar as a whole: every input of the
/// automaton, the parse table and its conflict resolution — symbols and
/// their names, productions in order, precedence, %expect — plus the
/// automaton kind and a format-version salt. No blob is keyed by it;
/// batch_analyze's edit loop compares it between its incremental and cold
/// legs. \p VersionSalt defaults to the current format version.
Fingerprint128 grammarFingerprint(const Grammar &G, AutomatonKind Kind,
                                  uint32_t VersionSalt = FormatVersion);

/// Stable fingerprint of every FinderOptions field that can change report
/// content (budgets, search mode). Jobs is deliberately excluded: reports
/// are byte-identical for every job count, so all job counts share one
/// cache entry.
Fingerprint128 optionsFingerprint(const FinderOptions &Opts,
                                  uint32_t VersionSalt = FormatVersion);

/// Stable hash of the automaton as the searches see it: the grammar's
/// shape by id (as in reportBlobKey) plus every state's items,
/// lookaheads and transitions. Excludes names, precedence, %expect, and
/// resolved actions. batch_analyze's edit loop compares it between its
/// incremental and cold legs.
Fingerprint128 automatonStructuralHash(const Automaton &M);

/// True when \p Opts sets a finite cumulative budget. Such a budget
/// couples the conflicts of one run — each conflict's effective budget
/// depends on what the conflicts before it consumed — so a report is no
/// longer a function of its own conflict record alone.
bool cumulativeBudgetCouples(const FinderOptions &Opts);

/// Orders conflict records by every field (state, token, kind,
/// productions, shift item, resolution): the order of a report blob's
/// entries.
bool conflictRecordLess(const Conflict &A, const Conflict &B);

/// The key of the report blob for \p G's structure under \p Opts (see
/// file comment). When cumulativeBudgetCouples(\p Opts), the ordered list
/// \p Reported — the run's reported conflicts — is folded in too; it is
/// ignored otherwise.
Fingerprint128 reportBlobKey(const Grammar &G, AutomatonKind Kind,
                             const FinderOptions &Opts,
                             const std::vector<Conflict> &Reported,
                             uint32_t VersionSalt = FormatVersion);

/// One stored report and the state-item-graph nodes its search read
/// (GraphTouchRecorder::sortedNodes, strictly ascending). A later run
/// remaps the report across a grammar edit only when that set verifies
/// node for node (IncrementalSession.h); an empty set (none recorded) is
/// served on exact lookups only.
struct StoredReport {
  ConflictReport Report;
  std::vector<uint32_t> Touched;
};

/// The entry of \p Entries (sorted by conflictRecordLess, as a loaded
/// blob is) whose conflict record equals \p C, or null.
const StoredReport *findStoredReport(const std::vector<StoredReport> &Entries,
                                     const Conflict &C);

//===----------------------------------------------------------------------===//
// In-memory (de)serialization. The round-trip tests hit these directly;
// AnalysisCache adds the file naming, checksum-at-rest, and atomic-rename
// layer on top.
//===----------------------------------------------------------------------===//

/// Serializes \p Entries as the report blob keyed by \p Key, in
/// conflict-record order whatever their order in \p Entries. Their
/// records must be distinct: the reader rejects a blob that repeats one.
std::string serializeReportBlob(Fingerprint128 Key,
                                const std::vector<StoredReport> &Entries,
                                uint32_t VersionSalt = FormatVersion);

/// Reconstructs a report blob's entries, every field validated against
/// \p G. Besides the header and checksum, the reader requires the entry
/// count to fit the bytes that follow it, the entries to be strictly
/// ascending by conflict record, each touched set to be strictly
/// ascending, and no trailing bytes. \p Out is assigned only on a hit.
CacheProbe deserializeReportBlob(const std::string &Blob, Fingerprint128 Key,
                                 const Grammar &G,
                                 std::vector<StoredReport> &Out,
                                 uint32_t VersionSalt = FormatVersion);

//===----------------------------------------------------------------------===//
// The on-disk cache.
//===----------------------------------------------------------------------===//

/// One content-addressed cache directory (created on first store).
/// Stateless between calls; any number of AnalysisCache objects — across
/// threads and processes — may share a directory, because files are only
/// ever published complete via rename and never modified in place. Two
/// writers of one key race benignly: each merges what it loaded with what
/// it computed and publishes a complete blob, so the rename that lands
/// last wins and the other writer's new entries are lost — a later run
/// misses on them and recomputes, never reads a torn or wrong report.
class AnalysisCache {
public:
  explicit AnalysisCache(std::string Dir,
                         uint32_t VersionSalt = FormatVersion)
      : Dir(std::move(Dir)), Salt(VersionSalt) {}

  const std::string &directory() const { return Dir; }

  /// Loads the report blob keyed by \p Key (a reportBlobKey) into \p Out.
  CacheProbe load(Fingerprint128 Key, const Grammar &G,
                  std::vector<StoredReport> &Out) const;
  /// Publishes \p Entries as the report blob keyed by \p Key.
  CacheProbe store(Fingerprint128 Key,
                   const std::vector<StoredReport> &Entries) const;

  /// The file path of the report blob keyed by \p Key.
  std::string blobPath(Fingerprint128 Key) const;

  /// What one collectGarbage() pass saw and removed.
  struct GcStats {
    uint64_t ScannedFiles = 0;
    uint64_t ScannedBytes = 0;
    uint64_t RemovedFiles = 0;
    uint64_t RemovedBytes = 0;
  };

  /// Bounds the cache directory to \p MaxBytes: stray temp files are
  /// always removed, then whole blobs are evicted oldest-first (by
  /// modification time, file name as tie-break) until the remaining
  /// bytes fit. Blobs are only ever whole files, so eviction can never
  /// corrupt a surviving entry; an evicted blob simply misses and is
  /// recomputed. No-op (beyond the temp sweep) when the directory
  /// already fits or does not exist.
  GcStats collectGarbage(uint64_t MaxBytes) const;

private:
  CacheProbe readBlob(const std::string &Path, std::string &Out) const;
  CacheProbe writeBlob(const std::string &Path,
                       const std::string &Blob) const;

  std::string Dir;
  uint32_t Salt;
};

//===----------------------------------------------------------------------===//
// Batch-driver convenience.
//===----------------------------------------------------------------------===//

/// Owns one grammar's full analysis pipeline up to the parse table: the
/// grammar analysis, the automaton and the table, always built from the
/// grammar. Report reuse happens in the finder (FinderOptions::CachePath).
class AnalysisSession {
public:
  /// \p Cache is unused: nothing up to the parse table is cached any more.
  /// The parameter remains so existing callers that pass one still
  /// compile. \p Metrics and \p Trace are optional observability sinks
  /// threaded into the grammar analysis and automaton construction.
  AnalysisSession(Grammar G, AutomatonKind Kind, const AnalysisCache *Cache,
                  MetricsRegistry *Metrics = nullptr,
                  TraceRecorder *Trace = nullptr);

  const Grammar &grammar() const { return G; }
  const GrammarAnalysis &analysis() const { return A; }
  const Automaton &automaton() const { return *M; }
  const ParseTable &table() const { return *T; }

private:
  Grammar G;
  GrammarAnalysis A;
  std::unique_ptr<Automaton> M;
  std::unique_ptr<ParseTable> T;
};

} // namespace cache
} // namespace lalrcex

#endif // LALRCEX_CACHE_ANALYSISCACHE_H
