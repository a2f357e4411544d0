//===- cache/AnalysisCache.h - Persistent analysis cache -------*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed persistent cache for complete conflict-report sets
/// and for single conflict reports. A grammar author's workflow is
/// iterative — re-run the analyzer after every small edit — and this layer
/// makes the "nothing changed" (or "only this grammar changed") hot path
/// skip the searches, which is where a run spends its time. The automaton,
/// parse table and state-item graph are always built from the grammar:
/// building them is cheaper than reading and validating a stored copy
/// (DESIGN.md §5d).
///
/// Addressing. Every blob file is named by a stable 128-bit fingerprint
/// (support/Hash.h) of its inputs:
///
///   <gfp>-<ofp>.rep  conflict reports    gfp = grammarFingerprint():
///              symbols, productions, precedence/associativity, %expect,
///              automaton kind, and a format-version salt;
///              ofp = optionsFingerprint(): every FinderOptions field that
///              can change report content
///   <cfp>.crep  one conflict report      cfp = conflictFingerprint():
///              per-conflict key over (automaton structure, options, the
///              conflict record, the id-bound hash of its supporting
///              grammar slice) — see ConflictKeyContext
///
/// Invalidation is therefore structural: editing the grammar (reordering
/// productions, flipping a precedence declaration, renaming a symbol)
/// changes the fingerprint and the next run simply misses and recomputes;
/// nothing is ever updated in place. Bumping FormatVersion re-salts every
/// fingerprint, orphaning all old blobs at once.
///
/// Conflict-level reuse. The whole-set keys above move on *any* grammar
/// edit; `.crep` blobs are the fine-grained layer under incremental
/// re-analysis. Their key deliberately excludes symbol names, precedence
/// tables, and %expect: a conflict report's content is a pure function of
/// automaton structure (names are re-rendered from the live grammar;
/// precedence only selects *which* conflicts get reported, and the full
/// conflict record is in the key). After a rename or precedence edit the
/// automaton structure is unchanged, so every still-reported conflict's
/// key matches and its report is re-served; after a rule edit the
/// production indexing shifts, every key misses, and the run falls back
/// to a cold recompute — never a stale report. The per-conflict keys form
/// the sub-fingerprint index: no directory or manifest is needed, the
/// content address *is* the index. Reuse is only eligible when no finite
/// cumulative budget is configured: a binding cumulative budget couples
/// conflicts (later ones see what earlier ones consumed), so per-conflict
/// reports stop being pure functions of their key and the finder skips
/// this layer rather than risk diverging from a cold recompute.
///
/// Housekeeping. Orphaned old-fingerprint blobs accumulate as grammars
/// are edited; collectGarbage() bounds the directory to a byte budget by
/// evicting oldest-first (and sweeping stray temp files).
///
/// Robustness. Blobs are untrusted input. Every file carries a magic tag,
/// the version salt, its own key, and a trailing checksum of all prior
/// bytes; loads verify all four and then bounds-check and range-check
/// every field while reconstructing (cache/Serialization.h). Any
/// mismatch — truncation, bit rot, a hostile file — degrades to a cold
/// recompute reported through the existing FailureReason machinery, never
/// a crash. Stores write to a temp file and rename, so concurrent batch
/// workers and crashed runs can never publish a half-written blob.
///
//===----------------------------------------------------------------------===//

#ifndef LALRCEX_CACHE_ANALYSISCACHE_H
#define LALRCEX_CACHE_ANALYSISCACHE_H

#include "counterexample/CounterexampleFinder.h"
#include "grammar/SubGrammar.h"
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
constexpr uint32_t FormatVersion = 3;

/// How a cache probe concluded.
enum class CacheOutcome : uint8_t {
  Hit,             ///< blob found, verified, and reconstructed
  Disabled,        ///< no cache directory configured
  Miss,            ///< no blob for this fingerprint (a cold key)
  VersionMismatch, ///< blob written under a different FormatVersion
  KeyMismatch,     ///< blob's embedded key disagrees with its file name
  Corrupt,         ///< checksum, bounds, or semantic validation failed
  IoError,         ///< file unreadable / unwritable
  Stored,          ///< (store probes) blob written successfully
  NotStored,       ///< (store probes) skipped, e.g. a cancelled run
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

/// Stable fingerprint of the grammar as a whole-set report blob depends on
/// it: every input of the automaton, the parse table and its conflict
/// resolution (see file comment). \p VersionSalt defaults to the current
/// format version; tests override it to prove version bumps invalidate.
Fingerprint128 grammarFingerprint(const Grammar &G, AutomatonKind Kind,
                                  uint32_t VersionSalt = FormatVersion);

/// Stable fingerprint of every FinderOptions field that can change report
/// content (budgets, search mode). Jobs is deliberately excluded: reports
/// are byte-identical for every job count, so all job counts share one
/// cache entry.
Fingerprint128 optionsFingerprint(const FinderOptions &Opts,
                                  uint32_t VersionSalt = FormatVersion);

/// Stable hash of the automaton as the searches see it: symbol/production
/// shape by id, states (items, lookaheads, transitions). Deliberately
/// excludes names, precedence, %expect, and resolved actions — two
/// grammars differing only in those have identical search behaviour per
/// conflict, which is what makes conflict-level reuse sound. Pins the id
/// universe for ConflictKeyContext.
Fingerprint128 automatonStructuralHash(const Automaton &M);

/// Precomputed state for per-conflict cache keys over one automaton:
/// a base fingerprint (format salt, automaton kind, options, structural
/// automaton hash) plus a SubGrammarIndex for supporting-slice hashes.
/// conflictFingerprint(C) keys the `.crep` blob for conflict \p C as
/// (base, conflict record, id-bound hash of the slice reachable from the
/// nonterminals of C's state's items).
class ConflictKeyContext {
public:
  ConflictKeyContext(const Automaton &M, const FinderOptions &Opts,
                     uint32_t VersionSalt = FormatVersion);

  const Automaton &automaton() const { return M; }
  Fingerprint128 base() const { return Base; }

  /// The `.crep` key for \p C, which must be a conflict of this context's
  /// automaton.
  Fingerprint128 conflictFingerprint(const Conflict &C) const;

  /// The nonterminals rooting \p C's supporting slice: every nonterminal
  /// appearing in (either side of) a production of some item of C's
  /// state, ascending id order.
  std::vector<Symbol> sliceRoots(const Conflict &C) const;

  const SubGrammarIndex &slices() const { return Slices; }

private:
  const Automaton &M;
  SubGrammarIndex Slices;
  Fingerprint128 Base;
};

//===----------------------------------------------------------------------===//
// In-memory (de)serialization. The round-trip tests hit these directly;
// AnalysisCache adds the file naming, checksum-at-rest, and atomic-rename
// layer on top.
//===----------------------------------------------------------------------===//

std::string serializeReports(const Grammar &G, AutomatonKind Kind,
                             const FinderOptions &Opts,
                             const std::vector<ConflictReport> &Reports,
                             uint32_t VersionSalt = FormatVersion);

CacheProbe deserializeReports(const std::string &Blob, const Grammar &G,
                              AutomatonKind Kind, const FinderOptions &Opts,
                              std::vector<ConflictReport> &Out,
                              uint32_t VersionSalt = FormatVersion);

/// Serializes one conflict report into a `.crep` blob keyed by \p Key
/// (a ConflictKeyContext::conflictFingerprint). \p Touched, when
/// non-null, is the sorted set of state-item-graph nodes the search read
/// while producing \p Rep (GraphTouchRecorder::sortedNodes); it rides in
/// the blob so a later run can verify the read set survived a grammar
/// edit and re-serve the report remapped. Blobs without a touched set
/// are served on exact-key hits only.
std::string serializeConflictReport(
    Fingerprint128 Key, const ConflictReport &Rep,
    uint32_t VersionSalt = FormatVersion,
    const std::vector<uint32_t> *Touched = nullptr);

/// Reconstructs one conflict report. Besides the usual header/checksum
/// verification, the payload's conflict record must equal \p Expected —
/// the live conflict the caller is keying for — so a fingerprint
/// collision degrades to KeyMismatch (a recompute), never a wrong report.
/// \p TouchedOut, when non-null, receives the blob's touched set (empty
/// when the blob was stored without one).
CacheProbe deserializeConflictReport(const std::string &Blob,
                                     Fingerprint128 Key, const Grammar &G,
                                     const Conflict &Expected,
                                     ConflictReport &Out,
                                     uint32_t VersionSalt = FormatVersion,
                                     std::vector<uint32_t> *TouchedOut =
                                         nullptr);

//===----------------------------------------------------------------------===//
// The on-disk cache.
//===----------------------------------------------------------------------===//

/// One content-addressed cache directory (created on first store).
/// Stateless between calls; any number of AnalysisCache objects — across
/// threads and processes — may share a directory, because files are only
/// ever published complete via rename and never modified in place.
class AnalysisCache {
public:
  explicit AnalysisCache(std::string Dir,
                         uint32_t VersionSalt = FormatVersion)
      : Dir(std::move(Dir)), Salt(VersionSalt) {}

  const std::string &directory() const { return Dir; }

  CacheProbe loadReports(const Grammar &G, AutomatonKind Kind,
                         const FinderOptions &Opts,
                         std::vector<ConflictReport> &Out) const;
  CacheProbe storeReports(const Grammar &G, AutomatonKind Kind,
                          const FinderOptions &Opts,
                          const std::vector<ConflictReport> &Reports) const;

  /// Loads the `.crep` blob for per-conflict key \p Key; \p Expected is
  /// the live conflict being probed for (see deserializeConflictReport).
  /// \p TouchedOut, when non-null, receives the stored touched set.
  CacheProbe loadConflictReport(Fingerprint128 Key, const Grammar &G,
                                const Conflict &Expected,
                                ConflictReport &Out,
                                std::vector<uint32_t> *TouchedOut =
                                    nullptr) const;
  CacheProbe storeConflictReport(Fingerprint128 Key,
                                 const ConflictReport &Rep,
                                 const std::vector<uint32_t> *Touched =
                                     nullptr) const;

  /// The file path of the `.rep` blob for (\p G, \p Kind, \p Opts), for
  /// tests that corrupt blobs deliberately.
  std::string blobPath(const Grammar &G, AutomatonKind Kind,
                       const FinderOptions &Opts) const;

  /// The file path of the `.crep` blob for per-conflict key \p Key.
  std::string conflictBlobPath(Fingerprint128 Key) const;

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
