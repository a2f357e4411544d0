//===- cache/AnalysisCache.cpp ---------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Layout of a report blob: a 28-byte header (8-byte magic, u32 version
// salt, 16-byte key), a u32 entry count, the entries (a report, then its
// touched set as a u32 count and strictly ascending u32 node ids) strictly
// ascending by conflict record, and a trailing 16-byte checksum
// (Fingerprint128 of all preceding bytes). Loads verify checksum, magic,
// salt, and key before parsing, then range-check every decoded field;
// the reader reports both syntactic and semantic damage through its
// sticky failure, so a single check at the end of each section decides
// Corrupt.
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"

#include "cache/Serialization.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <tuple>

using namespace lalrcex;
using namespace lalrcex::cache;

const char *lalrcex::cache::toString(CacheOutcome O) {
  switch (O) {
  case CacheOutcome::Hit:
    return "hit";
  case CacheOutcome::Disabled:
    return "disabled";
  case CacheOutcome::Miss:
    return "miss";
  case CacheOutcome::VersionMismatch:
    return "version-mismatch";
  case CacheOutcome::KeyMismatch:
    return "key-mismatch";
  case CacheOutcome::Corrupt:
    return "corrupt";
  case CacheOutcome::IoError:
    return "io-error";
  case CacheOutcome::Stored:
    return "stored";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

Fingerprint128 lalrcex::cache::grammarFingerprint(const Grammar &G,
                                                  AutomatonKind Kind,
                                                  uint32_t VersionSalt) {
  StableHasher H;
  H.addString("lalrcex-grammar");
  H.addU32(VersionSalt);
  H.addU32(uint32_t(Kind));

  H.addU32(G.numTerminals());
  H.addU32(G.numSymbols());
  for (unsigned S = 0; S != G.numSymbols(); ++S)
    H.addString(G.name(Symbol(int32_t(S))));
  H.addU32(uint32_t(G.startSymbol().id()));
  H.addU32(uint32_t(G.augmentedStart().id()));
  H.addU32(G.augmentedProduction());

  // Productions in declaration order: reordering them changes the
  // fingerprint even when the rule set is identical, because conflict
  // resolution and report order are order-sensitive.
  H.addU32(G.numProductions());
  for (unsigned P = 0; P != G.numProductions(); ++P) {
    const Production &Prod = G.production(P);
    H.addU32(uint32_t(Prod.Lhs.id()));
    H.addU32(uint32_t(Prod.Rhs.size()));
    for (Symbol S : Prod.Rhs)
      H.addU32(uint32_t(S.id()));
    H.addU32(Prod.PrecSym.valid() ? uint32_t(Prod.PrecSym.id()) : ~0u);
  }

  for (unsigned T = 0; T != G.numTerminals(); ++T) {
    Symbol S{int32_t(T)};
    H.addU32(uint32_t(G.precedenceLevel(S)));
    H.addU8(uint8_t(G.associativity(S)));
  }
  H.addU32(uint32_t(G.expectedShiftReduce()));
  H.addU32(uint32_t(G.expectedReduceReduce()));
  return H.finish();
}

Fingerprint128 lalrcex::cache::optionsFingerprint(const FinderOptions &Opts,
                                                  uint32_t VersionSalt) {
  StableHasher H;
  H.addString("lalrcex-finder-options");
  H.addU32(VersionSalt);
  // Every field that can change report content. Jobs is excluded
  // (reports are byte-identical for every worker count); Cancellation is
  // excluded (a cancelled run is never stored).
  H.addF64(Opts.ConflictTimeLimitSeconds);
  H.addF64(Opts.CumulativeTimeLimitSeconds);
  H.addU8(Opts.ExtendedSearch);
  H.addU8(Opts.UnifyingEnabled);
  H.addU64(Opts.MaxConfigurations);
  H.addU64(Opts.CumulativeMaxConfigurations);
  H.addU64(Opts.MemoryLimitBytes);
  return H.finish();
}

namespace {

/// The grammar's shape by id: terminal and symbol counts, then every
/// production's lhs and rhs ids. No names, no precedence, no %expect; the
/// augmented production S' -> S is production 0, so the start symbol is
/// in it too.
void addGrammarShape(StableHasher &H, const Grammar &G) {
  H.addU32(G.numTerminals());
  H.addU32(G.numSymbols());
  H.addU32(G.numProductions());
  for (unsigned P = 0; P != G.numProductions(); ++P) {
    const Production &Prod = G.production(P);
    H.addU32(uint32_t(Prod.Lhs.id()));
    H.addU32(uint32_t(Prod.Rhs.size()));
    for (Symbol S : Prod.Rhs)
      H.addU32(uint32_t(S.id()));
  }
}

/// Every field of a conflict record, in entry order: the one list both
/// the blob key's record fold and conflictRecordLess are built from.
auto recordFields(const Conflict &C) {
  return std::make_tuple(C.State, C.Token.id(), C.K, C.ReduceProd,
                         C.OtherProd, C.ShiftItm.Prod, C.ShiftItm.Dot, C.R);
}

void addConflictRecord(StableHasher &H, const Conflict &C) {
  std::apply([&](auto... Field) { (H.addU32(uint32_t(Field)), ...); },
             recordFields(C));
}

} // namespace

Fingerprint128 lalrcex::cache::automatonStructuralHash(const Automaton &M) {
  StableHasher H;
  H.addString("lalrcex-automaton-structure");
  addGrammarShape(H, M.grammar());

  H.addU32(uint32_t(M.kind()));
  H.addU32(M.numStates());
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    H.addU32(uint32_t(St.Items.size()));
    H.addU32(St.NumKernel);
    for (const Item &I : St.Items) {
      H.addU32(I.Prod);
      H.addU32(I.Dot);
    }
    for (const IndexSet &L : St.Lookaheads) {
      H.addU32(L.count());
      L.forEach([&](unsigned E) { H.addU32(E); });
    }
    H.addU32(uint32_t(St.Transitions.size()));
    for (const auto &[Sym, Target] : St.Transitions) {
      H.addU32(uint32_t(Sym.id()));
      H.addU32(Target);
    }
  }
  return H.finish();
}

bool lalrcex::cache::cumulativeBudgetCouples(const FinderOptions &Opts) {
  return Opts.CumulativeMaxConfigurations != ResourceLimits::Unlimited ||
         Opts.CumulativeTimeLimitSeconds != 0;
}

bool lalrcex::cache::conflictRecordLess(const Conflict &A, const Conflict &B) {
  return recordFields(A) < recordFields(B);
}

Fingerprint128 lalrcex::cache::reportBlobKey(
    const Grammar &G, AutomatonKind Kind, const FinderOptions &Opts,
    const std::vector<Conflict> &Reported, uint32_t VersionSalt) {
  StableHasher H;
  H.addString("lalrcex-report-blob");
  H.addU32(VersionSalt);
  Fingerprint128 O = optionsFingerprint(Opts, VersionSalt);
  H.addU64(O.Lo);
  H.addU64(O.Hi);
  // The automaton is a function of the kind and the shape, and every
  // search over it of the options and its conflict record, so this key
  // groups conflicts exactly as a key over the whole automaton would.
  H.addU32(uint32_t(Kind));
  addGrammarShape(H, G);
  if (cumulativeBudgetCouples(Opts)) {
    H.addU32(uint32_t(Reported.size()));
    for (const Conflict &C : Reported)
      addConflictRecord(H, C);
  }
  return H.finish();
}

const StoredReport *
lalrcex::cache::findStoredReport(const std::vector<StoredReport> &Entries,
                                 const Conflict &C) {
  auto It = std::lower_bound(Entries.begin(), Entries.end(), C,
                             [](const StoredReport &E, const Conflict &C) {
                               return conflictRecordLess(E.Report.TheConflict,
                                                         C);
                             });
  if (It == Entries.end() || conflictRecordLess(C, It->Report.TheConflict))
    return nullptr;
  return &*It;
}

//===----------------------------------------------------------------------===//
// Header helpers
//===----------------------------------------------------------------------===//

namespace {

constexpr char Magic[8] = {'L', 'C', 'E', 'X', 'R', 'E', 'P', '1'};

void writeHeader(BlobWriter &W, uint32_t Salt, Fingerprint128 Key) {
  W.bytes(Magic, 8);
  W.u32(Salt);
  W.u64(Key.Lo);
  W.u64(Key.Hi);
}

std::string sealed(BlobWriter &&W) {
  std::string Blob = W.take();
  Fingerprint128 Sum = fingerprintBytes(Blob.data(), Blob.size());
  BlobWriter Tail;
  Tail.u64(Sum.Lo);
  Tail.u64(Sum.Hi);
  Blob += Tail.take();
  return Blob;
}

/// Verifies checksum + header and positions \p R (created by the caller
/// over the whole blob) at the payload. Returns a non-Hit probe on any
/// mismatch; Hit means "go parse the payload".
CacheProbe openBlob(const std::string &Blob, BlobReader &R, uint32_t Salt,
                    Fingerprint128 Key) {
  constexpr size_t HeaderSize = 8 + 4 + 16;
  constexpr size_t ChecksumSize = 16;
  if (Blob.size() < HeaderSize + ChecksumSize)
    return {CacheOutcome::Corrupt, "blob shorter than header"};

  Fingerprint128 Sum =
      fingerprintBytes(Blob.data(), Blob.size() - ChecksumSize);
  BlobReader Tail(Blob.data() + Blob.size() - ChecksumSize, ChecksumSize);
  if (Sum.Lo != Tail.u64() || Sum.Hi != Tail.u64())
    return {CacheOutcome::Corrupt, "checksum mismatch"};

  char FileMagic[8];
  for (char &C : FileMagic)
    C = char(R.u8());
  if (std::memcmp(FileMagic, Magic, 8) != 0)
    return {CacheOutcome::Corrupt, "bad magic"};
  if (R.u32() != Salt)
    return {CacheOutcome::VersionMismatch, "format version differs"};
  Fingerprint128 FileKey{R.u64(), R.u64()};
  if (FileKey != Key)
    return {CacheOutcome::KeyMismatch, "blob keyed for other content"};
  return {CacheOutcome::Hit, ""};
}

CacheProbe corrupt(const BlobReader &R) {
  return {CacheOutcome::Corrupt, R.error()};
}

void writeItem(BlobWriter &W, const Item &I) {
  W.u32(I.Prod);
  W.u32(I.Dot);
}

/// Reads an item, validated against \p G; invalid-by-design items (the
/// default Item{0,0} is a real item, so reduce/reduce conflicts reuse it)
/// are always in range for any grammar.
Item readItem(BlobReader &R, const Grammar &G) {
  uint32_t Prod = R.u32(), Dot = R.u32();
  if (Prod >= G.numProductions() ||
      Dot > G.production(Prod).Rhs.size()) {
    R.fail("item out of range");
    return Item();
  }
  return Item(Prod, Dot);
}

Symbol readSymbol(BlobReader &R, const Grammar &G) {
  uint32_t Id = R.u32();
  if (Id >= G.numSymbols()) {
    R.fail("symbol id out of range");
    return Symbol();
  }
  return Symbol(int32_t(Id));
}

} // namespace

//===----------------------------------------------------------------------===//
// Report blobs
//===----------------------------------------------------------------------===//

namespace {

/// Reads a conflict record. Its state number refers to an automaton the
/// reader cannot see; it is left unchecked (the renderer only prints it)
/// and everything grammar-relative is range-checked exactly.
bool readConflict(BlobReader &R, const Grammar &G, Conflict &C) {
  C.K = Conflict::Kind(R.u8());
  C.State = R.u32();
  Symbol Token = readSymbol(R, G);
  C.ReduceProd = R.u32();
  C.OtherProd = R.u32();
  C.ShiftItm = readItem(R, G);
  uint8_t Res = R.u8();
  if (R.failed())
    return false;
  if (C.K > Conflict::ReduceReduce || Res > Conflict::PrecError ||
      !G.isTerminal(Token) ||
      C.ReduceProd >= G.numProductions() ||
      C.OtherProd >= G.numProductions()) {
    R.fail("conflict record out of range");
    return false;
  }
  C.Token = Token;
  C.R = Conflict::Resolution(Res);
  return true;
}

void writeDerivation(BlobWriter &W, const DerivPtr &D) {
  if (D->isDot()) {
    W.u8(0);
    return;
  }
  if (D->isLeaf()) {
    W.u8(1);
    W.u32(uint32_t(D->symbol().id()));
    return;
  }
  W.u8(2);
  W.u32(uint32_t(D->symbol().id()));
  W.u32(D->productionIndex());
  W.u32(uint32_t(D->children().size()));
  for (const DerivPtr &C : D->children())
    writeDerivation(W, C);
}

/// Depth-capped so a hostile blob cannot overflow the stack; every node
/// is validated against the grammar before Derivation::node's asserts
/// could see it.
DerivPtr readDerivation(BlobReader &R, const Grammar &G, unsigned Depth) {
  if (Depth > 4096) {
    R.fail("derivation nested too deeply");
    return nullptr;
  }
  switch (R.u8()) {
  case 0:
    return Derivation::dot();
  case 1: {
    Symbol S = readSymbol(R, G);
    return R.failed() ? nullptr : Derivation::leaf(S);
  }
  case 2: {
    Symbol Lhs = readSymbol(R, G);
    uint32_t Prod = R.u32();
    uint32_t NumChildren = R.u32();
    if (R.failed() || Prod >= G.numProductions() ||
        NumChildren > R.remaining()) {
      R.fail("derivation node out of range");
      return nullptr;
    }
    const Production &P = G.production(Prod);
    if (P.Lhs != Lhs) {
      R.fail("derivation node disagrees with production");
      return nullptr;
    }
    std::vector<DerivPtr> Children;
    Children.reserve(NumChildren);
    std::vector<Symbol> ChildSyms;
    for (uint32_t I = 0; I != NumChildren; ++I) {
      DerivPtr C = readDerivation(R, G, Depth + 1);
      if (!C)
        return nullptr;
      if (!C->isDot())
        ChildSyms.push_back(C->symbol());
      Children.push_back(std::move(C));
    }
    if (ChildSyms.size() != P.Rhs.size() ||
        !std::equal(ChildSyms.begin(), ChildSyms.end(), P.Rhs.begin())) {
      R.fail("derivation children do not spell the production");
      return nullptr;
    }
    return Derivation::node(Lhs, Prod, std::move(Children));
  }
  default:
    R.fail("unknown derivation tag");
    return nullptr;
  }
}

bool readDerivList(BlobReader &R, const Grammar &G,
                   std::vector<DerivPtr> &Out) {
  uint32_t N = R.u32();
  if (R.failed() || N > R.remaining()) {
    R.fail("derivation list too long");
    return false;
  }
  for (uint32_t I = 0; I != N; ++I) {
    DerivPtr D = readDerivation(R, G, 0);
    if (!D)
      return false;
    Out.push_back(std::move(D));
  }
  return true;
}

void writeReport(BlobWriter &W, const ConflictReport &Rep) {
  const Conflict &C = Rep.TheConflict;
  W.u8(C.K);
  W.u32(C.State);
  W.u32(uint32_t(C.Token.id()));
  W.u32(C.ReduceProd);
  W.u32(C.OtherProd);
  writeItem(W, C.ShiftItm);
  W.u8(C.R);

  W.u8(uint8_t(Rep.Status));
  writeItem(W, Rep.ShiftItem);
  W.f64(Rep.Seconds);
  W.u64(Rep.Configurations);
  W.u64(Rep.PeakBytes);

  W.u8(Rep.UnifyingOutcome.has_value());
  if (Rep.UnifyingOutcome)
    W.u8(uint8_t(*Rep.UnifyingOutcome));

  W.u8(Rep.Failure.has_value());
  if (Rep.Failure) {
    W.u8(Rep.Failure->K);
    W.str(Rep.Failure->Stage);
    W.str(Rep.Failure->Detail);
  }

  W.u8(Rep.Example.has_value());
  if (Rep.Example) {
    const Counterexample &Ex = *Rep.Example;
    W.u8(Ex.Unifying);
    W.u32(uint32_t(Ex.Root.id()));
    W.u8(Ex.PrefixShared);
    W.u32(uint32_t(Ex.Derivs1.size()));
    for (const DerivPtr &D : Ex.Derivs1)
      writeDerivation(W, D);
    W.u32(uint32_t(Ex.Derivs2.size()));
    for (const DerivPtr &D : Ex.Derivs2)
      writeDerivation(W, D);
  }
}

bool readReport(BlobReader &R, const Grammar &G, ConflictReport &Rep) {
  if (!readConflict(R, G, Rep.TheConflict))
    return false;

  uint8_t Status = R.u8();
  Rep.ShiftItem = readItem(R, G);
  Rep.Seconds = R.f64();
  Rep.Configurations = size_t(R.u64());
  Rep.PeakBytes = size_t(R.u64());
  if (R.failed() || Status > uint8_t(CounterexampleStatus::Failed)) {
    R.fail("report status out of range");
    return false;
  }
  Rep.Status = CounterexampleStatus(Status);

  if (R.u8()) {
    uint8_t U = R.u8();
    if (R.failed() || U > uint8_t(UnifyingStatus::Error)) {
      R.fail("unifying outcome out of range");
      return false;
    }
    Rep.UnifyingOutcome = UnifyingStatus(U);
  }

  if (R.u8()) {
    FailureReason F;
    uint8_t K = R.u8();
    if (R.failed() || K > FailureReason::PathUnavailable) {
      R.fail("failure kind out of range");
      return false;
    }
    F.K = FailureReason::Kind(K);
    F.Stage = R.str();
    F.Detail = R.str();
    if (R.failed())
      return false;
    Rep.Failure = std::move(F);
  }

  if (R.u8()) {
    Counterexample Ex;
    Ex.Unifying = R.u8() != 0;
    Ex.Root = readSymbol(R, G);
    Ex.PrefixShared = R.u8() != 0;
    if (R.failed() || !readDerivList(R, G, Ex.Derivs1) ||
        !readDerivList(R, G, Ex.Derivs2))
      return false;
    Rep.Example = std::move(Ex);
  }
  return !R.failed();
}

} // namespace

std::string lalrcex::cache::serializeReportBlob(
    Fingerprint128 Key, const std::vector<StoredReport> &Entries,
    uint32_t VersionSalt) {
  std::vector<const StoredReport *> Sorted;
  Sorted.reserve(Entries.size());
  for (const StoredReport &E : Entries)
    Sorted.push_back(&E);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const StoredReport *A, const StoredReport *B) {
              return conflictRecordLess(A->Report.TheConflict,
                                        B->Report.TheConflict);
            });

  BlobWriter W;
  writeHeader(W, VersionSalt, Key);
  W.u32(uint32_t(Sorted.size()));
  for (const StoredReport *E : Sorted) {
    writeReport(W, E->Report);
    W.u32(uint32_t(E->Touched.size()));
    for (uint32_t N : E->Touched)
      W.u32(N);
  }
  return sealed(std::move(W));
}

CacheProbe lalrcex::cache::deserializeReportBlob(
    const std::string &Blob, Fingerprint128 Key, const Grammar &G,
    std::vector<StoredReport> &Out, uint32_t VersionSalt) {
  BlobReader R(Blob);
  CacheProbe Open = openBlob(Blob, R, VersionSalt, Key);
  if (!Open.hit())
    return Open;

  // Every entry encodes at least MinEntryBytes (writeReport: the 26-byte
  // conflict record, then status, shift item, seconds, configurations,
  // peak bytes and three presence flags; then the touched-set count), so
  // a count the remaining bytes cannot hold is rejected before it sizes
  // the vector.
  constexpr size_t MinEntryBytes = 26 + 36 + 4;
  uint32_t N = R.u32();
  if (R.failed() || N > R.remaining() / MinEntryBytes)
    return {CacheOutcome::Corrupt, "entry count exceeds blob"};
  std::vector<StoredReport> Entries(N);
  for (uint32_t I = 0; I != N; ++I) {
    StoredReport &E = Entries[I];
    if (!readReport(R, G, E.Report))
      return corrupt(R);
    // Strictly ascending records: lookups bisect, and no record can
    // appear twice with two different reports.
    if (I != 0 && !conflictRecordLess(Entries[I - 1].Report.TheConflict,
                                      E.Report.TheConflict))
      return {CacheOutcome::Corrupt, "entries not ascending"};
    uint32_t T = R.u32();
    if (R.failed() || T > R.remaining() / 4)
      return {CacheOutcome::Corrupt, "touched set exceeds blob"};
    E.Touched.reserve(T);
    for (uint32_t J = 0; J != T; ++J) {
      uint32_t Node = R.u32();
      // Node ids are graph-relative and the graph is not at hand here;
      // the remap layer bounds-checks them against the old graph. Enforce
      // only the canonical strictly-ascending order.
      if (!E.Touched.empty() && Node <= E.Touched.back())
        return {CacheOutcome::Corrupt, "touched set not ascending"};
      E.Touched.push_back(Node);
    }
  }
  if (R.failed())
    return corrupt(R);
  if (R.remaining() != 16)
    return {CacheOutcome::Corrupt, "trailing bytes after payload"};
  Out = std::move(Entries);
  return {CacheOutcome::Hit, ""};
}

//===----------------------------------------------------------------------===//
// File layer
//===----------------------------------------------------------------------===//

std::string AnalysisCache::blobPath(Fingerprint128 Key) const {
  return Dir + "/" + Key.hex() + ".rep";
}

CacheProbe AnalysisCache::readBlob(const std::string &Path,
                                   std::string &Out) const {
  if (Dir.empty())
    return {CacheOutcome::Disabled, ""};
  if (LALRCEX_FAULT_FIRES(CacheCorrupt, 0))
    return {CacheOutcome::Corrupt, "injected cache corruption"};
  std::error_code Ec;
  if (!std::filesystem::exists(Path, Ec))
    return {CacheOutcome::Miss, ""};
  // One sized read: a blob is a few hundred KB, and reading it a
  // character at a time costs several times the read itself. A path that
  // is no regular file (a directory, say) has no size.
  const std::uintmax_t Size = std::filesystem::file_size(Path, Ec);
  if (Ec)
    return {CacheOutcome::IoError, "cannot size " + Path + ": " + Ec.message()};
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {CacheOutcome::IoError, "cannot open " + Path};
  std::string Blob(size_t(Size), '\0');
  if (!In.read(Blob.data(), std::streamsize(Size)))
    return {CacheOutcome::IoError, "cannot read " + Path};
  Out = std::move(Blob);
  return {CacheOutcome::Hit, ""};
}

CacheProbe AnalysisCache::writeBlob(const std::string &Path,
                                    const std::string &Blob) const {
  if (Dir.empty())
    return {CacheOutcome::Disabled, ""};
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return {CacheOutcome::IoError, "cannot create " + Dir};
  // Publish atomically: a temp file unique to this thread, then rename.
  // Concurrent writers of the same key race benignly (see the class
  // comment): the last rename wins, and every published body is whole.
  std::string Tmp =
      Path + ".tmp." +
      std::to_string(uint64_t(
          std::hash<std::thread::id>()(std::this_thread::get_id())));
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return {CacheOutcome::IoError, "cannot create " + Tmp};
    OS.write(Blob.data(), std::streamsize(Blob.size()));
    OS.flush();
    if (!OS) {
      OS.close();
      std::filesystem::remove(Tmp, Ec);
      return {CacheOutcome::IoError, "cannot write " + Tmp};
    }
  }
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return {CacheOutcome::IoError, "cannot publish " + Path};
  }
  return {CacheOutcome::Stored, ""};
}

CacheProbe AnalysisCache::load(Fingerprint128 Key, const Grammar &G,
                               std::vector<StoredReport> &Out) const {
  std::string Blob;
  CacheProbe P = readBlob(blobPath(Key), Blob);
  if (!P.hit())
    return P;
  return deserializeReportBlob(Blob, Key, G, Out, Salt);
}

CacheProbe
AnalysisCache::store(Fingerprint128 Key,
                     const std::vector<StoredReport> &Entries) const {
  return writeBlob(blobPath(Key), serializeReportBlob(Key, Entries, Salt));
}

AnalysisCache::GcStats AnalysisCache::collectGarbage(uint64_t MaxBytes) const {
  GcStats Stats;
  if (Dir.empty())
    return Stats;
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::directory_iterator It(Dir, Ec);
  if (Ec)
    return Stats; // directory absent: nothing cached, nothing to collect

  struct Entry {
    fs::file_time_type Mtime;
    std::string Name; // deterministic tie-break for equal mtimes
    std::string Path;
    uint64_t Size;
  };
  std::vector<Entry> Blobs;
  for (const fs::directory_entry &E : It) {
    if (!E.is_regular_file(Ec) || Ec)
      continue;
    std::string Name = E.path().filename().string();
    uint64_t Size = E.file_size(Ec);
    if (Ec)
      continue;
    ++Stats.ScannedFiles;
    Stats.ScannedBytes += Size;
    // Temp files are abandoned work from a crashed or interrupted run
    // (live writers rename within the same call); sweep them outright.
    if (Name.find(".tmp.") != std::string::npos) {
      if (fs::remove(E.path(), Ec) && !Ec) {
        ++Stats.RemovedFiles;
        Stats.RemovedBytes += Size;
      }
      continue;
    }
    fs::file_time_type Mtime = E.last_write_time(Ec);
    if (Ec)
      continue;
    Blobs.push_back({Mtime, std::move(Name), E.path().string(), Size});
  }

  uint64_t LiveBytes = 0;
  for (const Entry &B : Blobs)
    LiveBytes += B.Size;
  if (LiveBytes <= MaxBytes)
    return Stats;

  std::sort(Blobs.begin(), Blobs.end(), [](const Entry &A, const Entry &B) {
    if (A.Mtime != B.Mtime)
      return A.Mtime < B.Mtime;
    return A.Name < B.Name;
  });
  for (const Entry &B : Blobs) {
    if (LiveBytes <= MaxBytes)
      break;
    if (fs::remove(B.Path, Ec) && !Ec) {
      LiveBytes -= B.Size;
      ++Stats.RemovedFiles;
      Stats.RemovedBytes += B.Size;
    }
  }
  return Stats;
}

//===----------------------------------------------------------------------===//
// AnalysisSession
//===----------------------------------------------------------------------===//

AnalysisSession::AnalysisSession(Grammar InG, AutomatonKind Kind,
                                 const AnalysisCache *,
                                 MetricsRegistry *Metrics,
                                 TraceRecorder *Trace)
    : G(std::move(InG)), A(G, Metrics, Trace) {
  AutomatonOptions MOpts;
  MOpts.Kind = Kind;
  MOpts.Metrics = Metrics;
  MOpts.Trace = Trace;
  M = std::make_unique<Automaton>(G, A, MOpts);
  T = std::make_unique<ParseTable>(*M);
}
