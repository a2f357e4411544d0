//===- cache/AnalysisCache.cpp ---------------------------------*- C++ -*-===//
//
// Part of lalrcex.
//
// Layout of every blob: a 44-byte header (8-byte magic, u32 version salt,
// 16-byte primary key, 16-byte secondary key — zero except for report
// blobs), a kind-specific payload, and a trailing 16-byte checksum
// (Fingerprint128 of all preceding bytes). Loads verify checksum, magic,
// salt, and key before parsing, then range-check every decoded field;
// deserializers report both syntactic and semantic damage through the
// reader's sticky failure, so a single check at the end of each section
// decides Corrupt.
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"

#include "cache/Serialization.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

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
  case CacheOutcome::NotStored:
    return "not-stored";
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
  // Every field that can change report content. Jobs and JobsInner are
  // excluded (reports are byte-identical for every worker count at both
  // scheduler levels); Cancellation is excluded (a cancelled run is
  // never stored).
  H.addF64(Opts.ConflictTimeLimitSeconds);
  H.addF64(Opts.CumulativeTimeLimitSeconds);
  H.addU8(Opts.ExtendedSearch);
  H.addU8(Opts.UnifyingEnabled);
  H.addU64(Opts.MaxConfigurations);
  H.addU64(Opts.CumulativeMaxConfigurations);
  H.addU64(Opts.MemoryLimitBytes);
  H.addU32(Opts.WallPollPeriod);
  return H.finish();
}

Fingerprint128 lalrcex::cache::automatonStructuralHash(const Automaton &M) {
  const Grammar &G = M.grammar();
  StableHasher H;
  H.addString("lalrcex-automaton-structure");

  // Grammar shape by id only: no names, no precedence, no %expect. Two
  // grammars with the same shape produce byte-identical search behaviour
  // per conflict, which is exactly the equivalence this hash must induce.
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

ConflictKeyContext::ConflictKeyContext(const Automaton &InM,
                                       const FinderOptions &Opts,
                                       uint32_t VersionSalt)
    : M(InM), Slices(InM.grammar()) {
  StableHasher H;
  H.addString("lalrcex-conflict-base");
  H.addU32(VersionSalt);
  Fingerprint128 O = optionsFingerprint(Opts, VersionSalt);
  H.addU64(O.Lo);
  H.addU64(O.Hi);
  Fingerprint128 A = automatonStructuralHash(M);
  H.addU64(A.Lo);
  H.addU64(A.Hi);
  Base = H.finish();
}

std::vector<Symbol> ConflictKeyContext::sliceRoots(const Conflict &C) const {
  const Grammar &G = M.grammar();
  std::vector<Symbol> Roots;
  for (const Item &I : M.state(C.State).Items) {
    const Production &Prod = G.production(I.Prod);
    Roots.push_back(Prod.Lhs);
    for (Symbol S : Prod.Rhs)
      if (G.isNonterminal(S))
        Roots.push_back(S);
  }
  std::sort(Roots.begin(), Roots.end(),
            [](Symbol A, Symbol B) { return A.id() < B.id(); });
  Roots.erase(std::unique(Roots.begin(), Roots.end()), Roots.end());
  return Roots;
}

Fingerprint128
ConflictKeyContext::conflictFingerprint(const Conflict &C) const {
  StableHasher H;
  H.addString("lalrcex-conflict");
  H.addU64(Base.Lo);
  H.addU64(Base.Hi);
  // The full conflict record: the same state can host several conflicts,
  // and a precedence edit may re-report a conflict with a different
  // resolution.
  H.addU8(uint8_t(C.K));
  H.addU32(C.State);
  H.addU32(uint32_t(C.Token.id()));
  H.addU32(C.ReduceProd);
  H.addU32(C.OtherProd);
  H.addU32(C.ShiftItm.Prod);
  H.addU32(C.ShiftItm.Dot);
  H.addU8(uint8_t(C.R));
  // The supporting slice (redundant relative to the base's global hash,
  // but it makes the key self-describing per the sub-fingerprint design
  // and keeps room for future slice-relative keying).
  Fingerprint128 S = Slices.idBoundSliceHash(sliceRoots(C));
  H.addU64(S.Lo);
  H.addU64(S.Hi);
  return H.finish();
}

//===----------------------------------------------------------------------===//
// Header helpers
//===----------------------------------------------------------------------===//

namespace {

constexpr char MagicAnalysis[8] = {'L', 'C', 'E', 'X', 'A', 'R', 'T', '1'};
constexpr char MagicGraph[8] = {'L', 'C', 'E', 'X', 'S', 'I', 'G', '1'};
constexpr char MagicReports[8] = {'L', 'C', 'E', 'X', 'R', 'E', 'P', '1'};
constexpr char MagicConflict[8] = {'L', 'C', 'E', 'X', 'C', 'R', 'P', '1'};

void writeHeader(BlobWriter &W, const char (&Magic)[8], uint32_t Salt,
                 Fingerprint128 Primary, Fingerprint128 Secondary) {
  W.bytes(Magic, 8);
  W.u32(Salt);
  W.u64(Primary.Lo);
  W.u64(Primary.Hi);
  W.u64(Secondary.Lo);
  W.u64(Secondary.Hi);
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
CacheProbe openBlob(const std::string &Blob, BlobReader &R,
                    const char (&Magic)[8], uint32_t Salt,
                    Fingerprint128 Primary, Fingerprint128 Secondary) {
  constexpr size_t HeaderSize = 8 + 4 + 16 + 16;
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
  Fingerprint128 Key{R.u64(), R.u64()};
  Fingerprint128 Key2{R.u64(), R.u64()};
  if (Key != Primary || Key2 != Secondary)
    return {CacheOutcome::KeyMismatch, "blob keyed for other content"};
  return {CacheOutcome::Hit, ""};
}

CacheProbe corrupt(const BlobReader &R) {
  return {CacheOutcome::Corrupt, R.error()};
}

void writeIndexSet(BlobWriter &W, const IndexSet &S) {
  W.u32(S.count());
  S.forEach([&](unsigned E) { W.u32(E); });
}

IndexSet readIndexSet(BlobReader &R, unsigned Universe) {
  IndexSet S(Universe);
  uint32_t N = R.u32();
  if (N > Universe) {
    R.fail("index set larger than universe");
    return S;
  }
  for (uint32_t I = 0; I != N && !R.failed(); ++I) {
    uint32_t E = R.u32();
    if (E >= Universe) {
      R.fail("index set element outside universe");
      return S;
    }
    S.insert(E);
  }
  return S;
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
// Private-member access for restores
//===----------------------------------------------------------------------===//

namespace lalrcex {
namespace cache {

/// The one friend the artifact classes grant the cache layer: reads the
/// private tables for serialization and fills them on restore.
struct ArtifactAccess {
  static std::unique_ptr<Automaton> restoreAutomaton(
      const Grammar &G, const GrammarAnalysis &A, AutomatonKind Kind,
      std::vector<Automaton::State> States) {
    std::unique_ptr<Automaton> M(
        new Automaton(G, A, Kind, Automaton::RestoreTag{}));
    M->States = std::move(States);
    return M;
  }

  static const std::vector<Action> &actions(const ParseTable &T) {
    return T.Actions;
  }

  static std::unique_ptr<ParseTable>
  restoreTable(const Automaton &M, std::vector<Action> Actions,
               std::vector<Conflict> Conflicts) {
    std::unique_ptr<ParseTable> T(
        new ParseTable(M, ParseTable::RestoreTag{}));
    T->Actions = std::move(Actions);
    T->Conflicts = std::move(Conflicts);
    return T;
  }

  static void serializeGraphTables(BlobWriter &W,
                                   const StateItemGraph &Graph) {
    W.u32(uint32_t(Graph.Nodes.size()));
    for (const auto &N : Graph.Nodes) {
      W.u32(N.State);
      W.u32(N.ItemIndex);
      writeItem(W, N.Itm);
    }
    W.u32(uint32_t(Graph.StateOffset.size()));
    for (unsigned O : Graph.StateOffset)
      W.u32(O);
    for (StateItemGraph::NodeId N : Graph.Fwd)
      W.u32(N);
    for (const StateItemGraph::Csr *C :
         {&Graph.ProdSteps, &Graph.RevTransitions, &Graph.RevProdSteps}) {
      W.u32(uint32_t(C->Begin.size()));
      for (uint32_t B : C->Begin)
        W.u32(B);
      W.u32(uint32_t(C->Data.size()));
      for (StateItemGraph::NodeId V : C->Data)
        W.u32(V);
    }
  }

  static std::optional<StateItemGraph>
  deserializeGraphTables(BlobReader &R, const Automaton &M) {
    const Grammar &G = M.grammar();
    StateItemGraph Graph(M, StateItemGraph::RestoreTag{});

    uint32_t NumNodes = R.u32();
    if (R.failed() || NumNodes > R.remaining())
      return std::nullopt; // each node needs >= 1 byte; cap preallocation
    Graph.Nodes.reserve(NumNodes);
    for (uint32_t I = 0; I != NumNodes && !R.failed(); ++I) {
      StateItemGraph::NodeData N;
      N.State = R.u32();
      N.ItemIndex = R.u32();
      N.Itm = readItem(R, G);
      if (R.failed())
        break;
      if (N.State >= M.numStates() ||
          N.ItemIndex >= M.state(N.State).Items.size() ||
          M.state(N.State).Items[N.ItemIndex] != N.Itm) {
        R.fail("graph node disagrees with automaton");
        break;
      }
      Graph.Nodes.push_back(N);
    }

    // Node ids are fixed by the automaton: state S's items, in order,
    // starting at the sum of the item counts of the states before it. An
    // offset table or node list that disagrees would send nodeFor() and
    // every accessor after it outside the tables.
    uint32_t NumOffsets = R.u32();
    if (!R.failed() && NumOffsets != M.numStates() + 1)
      R.fail("state offset table has wrong size");
    size_t Expected = 0;
    for (uint32_t S = 0; S != NumOffsets && !R.failed(); ++S) {
      uint32_t O = R.u32();
      if (R.failed())
        break;
      if (O != Expected) {
        R.fail("state offset disagrees with automaton");
        break;
      }
      Graph.StateOffset.push_back(O);
      if (S != M.numStates())
        Expected += M.state(S).Items.size();
    }
    if (!R.failed() && Expected != NumNodes)
      R.fail("node count disagrees with automaton");
    for (uint32_t I = 0; I != NumNodes && !R.failed(); ++I) {
      const StateItemGraph::NodeData &N = Graph.Nodes[I];
      if (Graph.StateOffset[N.State] + N.ItemIndex != I)
        R.fail("graph node out of state order");
    }

    for (uint32_t I = 0; I != NumNodes && !R.failed(); ++I) {
      uint32_t N = R.u32();
      if (N != StateItemGraph::InvalidNode && N >= NumNodes)
        R.fail("forward transition out of range");
      else
        Graph.Fwd.push_back(N);
    }

    for (StateItemGraph::Csr *C :
         {&Graph.ProdSteps, &Graph.RevTransitions, &Graph.RevProdSteps}) {
      uint32_t N = R.u32();
      if (!R.failed() && N != NumNodes + 1)
        R.fail("adjacency offset table has wrong size");
      uint32_t Prev = 0;
      for (uint32_t I = 0; I != N && !R.failed(); ++I) {
        uint32_t O = R.u32();
        if (I == 0 ? O != 0 : O < Prev)
          R.fail("adjacency offsets not prefix sums");
        else
          C->Begin.push_back(Prev = O);
      }
      uint32_t Len = R.u32();
      if (!R.failed() && (Len > R.remaining() / 4 || Len != Prev))
        R.fail("adjacency data length mismatch");
      for (uint32_t I = 0; I != Len && !R.failed(); ++I) {
        uint32_t Node = R.u32();
        if (Node >= NumNodes)
          R.fail("adjacency target out of range");
        else
          C->Data.push_back(Node);
      }
    }

    if (R.failed())
      return std::nullopt;
    // Tables validated against the automaton: derive the pooled node
    // lookahead ids exactly as the build path does (ids are in-memory
    // only; blobs stay structural, so fingerprints are unaffected).
    Graph.internNodeLookaheads();
    return Graph;
  }
};

} // namespace cache
} // namespace lalrcex

//===----------------------------------------------------------------------===//
// Automaton + parse table blobs
//===----------------------------------------------------------------------===//

std::string lalrcex::cache::serializeAnalysis(const ParseTable &T,
                                              uint32_t VersionSalt) {
  const Automaton &M = T.automaton();
  const Grammar &G = M.grammar();
  BlobWriter W;
  writeHeader(W, MagicAnalysis, VersionSalt,
              grammarFingerprint(G, M.kind(), VersionSalt),
              Fingerprint128{});

  W.u32(uint32_t(M.kind()));
  W.u32(M.numStates());
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    W.u32(uint32_t(St.Items.size()));
    W.u32(St.NumKernel);
    for (const Item &I : St.Items)
      writeItem(W, I);
    for (const IndexSet &L : St.Lookaheads)
      writeIndexSet(W, L);
    W.u32(uint32_t(St.Transitions.size()));
    for (const auto &[Sym, Target] : St.Transitions) {
      W.u32(uint32_t(Sym.id()));
      W.u32(Target);
    }
  }

  const std::vector<Action> &Actions = ArtifactAccess::actions(T);
  W.u64(Actions.size());
  for (const Action &A : Actions) {
    W.u8(A.K);
    W.u32(A.Target);
  }
  const std::vector<Conflict> &Conflicts = T.conflicts();
  W.u32(uint32_t(Conflicts.size()));
  for (const Conflict &C : Conflicts) {
    W.u8(C.K);
    W.u32(C.State);
    W.u32(uint32_t(C.Token.id()));
    W.u32(C.ReduceProd);
    W.u32(C.OtherProd);
    writeItem(W, C.ShiftItm);
    W.u8(C.R);
  }
  return sealed(std::move(W));
}

namespace {

bool readConflict(BlobReader &R, const Grammar &G, unsigned NumStates,
                  Conflict &C) {
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
      C.State >= NumStates || !G.isTerminal(Token) ||
      C.ReduceProd >= G.numProductions() ||
      C.OtherProd >= G.numProductions()) {
    R.fail("conflict record out of range");
    return false;
  }
  C.Token = Token;
  C.R = Conflict::Resolution(Res);
  return true;
}

} // namespace

CacheProbe lalrcex::cache::deserializeAnalysis(
    const std::string &Blob, const Grammar &G, const GrammarAnalysis &A,
    AutomatonKind Kind, RestoredAnalysis &Out, uint32_t VersionSalt) {
  BlobReader R(Blob);
  CacheProbe Open =
      openBlob(Blob, R, MagicAnalysis, VersionSalt,
               grammarFingerprint(G, Kind, VersionSalt), Fingerprint128{});
  if (!Open.hit())
    return Open;

  if (AutomatonKind(R.u32()) != Kind)
    return {CacheOutcome::KeyMismatch, "automaton kind differs"};

  uint32_t NumStates = R.u32();
  if (R.failed() || NumStates > R.remaining())
    return {CacheOutcome::Corrupt, "state count exceeds blob"};
  std::vector<Automaton::State> States;
  States.reserve(NumStates);
  for (uint32_t S = 0; S != NumStates; ++S) {
    Automaton::State St;
    uint32_t NumItems = R.u32();
    St.NumKernel = R.u32();
    if (R.failed() || NumItems > R.remaining() / 8 ||
        St.NumKernel > NumItems) {
      R.fail("state item count out of range");
      break;
    }
    St.Items.reserve(NumItems);
    for (uint32_t I = 0; I != NumItems && !R.failed(); ++I)
      St.Items.push_back(readItem(R, G));
    St.Lookaheads.reserve(NumItems);
    for (uint32_t I = 0; I != NumItems && !R.failed(); ++I)
      St.Lookaheads.push_back(readIndexSet(R, G.numTerminals()));
    uint32_t NumTrans = R.u32();
    if (R.failed() || NumTrans > R.remaining() / 8) {
      R.fail("transition count out of range");
      break;
    }
    for (uint32_t T = 0; T != NumTrans && !R.failed(); ++T) {
      Symbol Sym = readSymbol(R, G);
      uint32_t Target = R.u32();
      if (Target >= NumStates) {
        R.fail("transition target out of range");
        break;
      }
      St.Transitions.emplace_back(Sym, Target);
    }
    if (R.failed())
      break;
    States.push_back(std::move(St));
  }
  if (R.failed())
    return corrupt(R);

  uint64_t NumActions = R.u64();
  if (R.failed() ||
      NumActions != uint64_t(NumStates) * G.numTerminals() ||
      NumActions > R.remaining() / 5)
    return {CacheOutcome::Corrupt, "action table has wrong size"};
  std::vector<Action> Actions;
  Actions.reserve(size_t(NumActions));
  for (uint64_t I = 0; I != NumActions && !R.failed(); ++I) {
    Action Act;
    Act.K = Action::Kind(R.u8());
    Act.Target = R.u32();
    bool Ok = true;
    switch (Act.K) {
    case Action::Error:
    case Action::Accept:
      break;
    case Action::Shift:
      Ok = Act.Target < NumStates;
      break;
    case Action::Reduce:
      Ok = Act.Target < G.numProductions();
      break;
    default:
      Ok = false;
    }
    if (!Ok) {
      R.fail("action out of range");
      break;
    }
    Actions.push_back(Act);
  }

  uint32_t NumConflicts = R.u32();
  if (!R.failed() && NumConflicts > R.remaining() / 22)
    R.fail("conflict count exceeds blob");
  std::vector<Conflict> Conflicts;
  Conflicts.reserve(NumConflicts);
  for (uint32_t I = 0; I != NumConflicts && !R.failed(); ++I) {
    Conflict C;
    if (readConflict(R, G, NumStates, C))
      Conflicts.push_back(C);
  }
  if (R.failed() || R.remaining() != 16)
    return R.failed() ? corrupt(R)
                      : CacheProbe{CacheOutcome::Corrupt,
                                   "trailing bytes after payload"};

  Out.M = ArtifactAccess::restoreAutomaton(G, A, Kind, std::move(States));
  Out.T = ArtifactAccess::restoreTable(*Out.M, std::move(Actions),
                                       std::move(Conflicts));
  return {CacheOutcome::Hit, ""};
}

//===----------------------------------------------------------------------===//
// State-item graph blobs
//===----------------------------------------------------------------------===//

std::string lalrcex::cache::serializeGraph(const StateItemGraph &Graph,
                                           uint32_t VersionSalt) {
  const Automaton &M = Graph.automaton();
  BlobWriter W;
  writeHeader(W, MagicGraph, VersionSalt,
              grammarFingerprint(M.grammar(), M.kind(), VersionSalt),
              Fingerprint128{});
  ArtifactAccess::serializeGraphTables(W, Graph);
  return sealed(std::move(W));
}

CacheProbe lalrcex::cache::deserializeGraph(const std::string &Blob,
                                            const Automaton &M,
                                            std::optional<StateItemGraph> &Out,
                                            uint32_t VersionSalt) {
  BlobReader R(Blob);
  CacheProbe Open = openBlob(
      Blob, R, MagicGraph, VersionSalt,
      grammarFingerprint(M.grammar(), M.kind(), VersionSalt),
      Fingerprint128{});
  if (!Open.hit())
    return Open;

  // StateItemGraph holds a reference member (not assignable), so the
  // parsed value moves into Out via emplace rather than operator=.
  std::optional<StateItemGraph> Parsed =
      ArtifactAccess::deserializeGraphTables(R, M);
  if (!Parsed)
    return R.failed() ? corrupt(R)
                      : CacheProbe{CacheOutcome::Corrupt, "malformed graph"};
  if (R.remaining() != 16)
    return {CacheOutcome::Corrupt, "trailing bytes after payload"};
  Out.emplace(std::move(*Parsed));
  return {CacheOutcome::Hit, ""};
}

//===----------------------------------------------------------------------===//
// Conflict-report blobs
//===----------------------------------------------------------------------===//

namespace {

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
  // Conflict records in reports reference automaton state numbers the
  // reader cannot see; bound them loosely (the renderer only prints the
  // number) and range-check everything grammar-relative exactly.
  if (!readConflict(R, G, ~0u, Rep.TheConflict))
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

std::string lalrcex::cache::serializeReports(
    const Grammar &G, AutomatonKind Kind, const FinderOptions &Opts,
    const std::vector<ConflictReport> &Reports, uint32_t VersionSalt) {
  BlobWriter W;
  writeHeader(W, MagicReports, VersionSalt,
              grammarFingerprint(G, Kind, VersionSalt),
              optionsFingerprint(Opts, VersionSalt));
  W.u32(uint32_t(Reports.size()));
  for (const ConflictReport &Rep : Reports)
    writeReport(W, Rep);
  return sealed(std::move(W));
}

CacheProbe lalrcex::cache::deserializeReports(
    const std::string &Blob, const Grammar &G, AutomatonKind Kind,
    const FinderOptions &Opts, std::vector<ConflictReport> &Out,
    uint32_t VersionSalt) {
  BlobReader R(Blob);
  CacheProbe Open = openBlob(Blob, R, MagicReports, VersionSalt,
                             grammarFingerprint(G, Kind, VersionSalt),
                             optionsFingerprint(Opts, VersionSalt));
  if (!Open.hit())
    return Open;

  uint32_t N = R.u32();
  if (R.failed() || N > R.remaining())
    return {CacheOutcome::Corrupt, "report count exceeds blob"};
  std::vector<ConflictReport> Reports(N);
  for (uint32_t I = 0; I != N; ++I)
    if (!readReport(R, G, Reports[I]))
      return corrupt(R);
  if (R.remaining() != 16)
    return {CacheOutcome::Corrupt, "trailing bytes after payload"};
  Out = std::move(Reports);
  return {CacheOutcome::Hit, ""};
}

std::string lalrcex::cache::serializeConflictReport(
    Fingerprint128 Key, const ConflictReport &Rep, uint32_t VersionSalt,
    const std::vector<uint32_t> *Touched) {
  BlobWriter W;
  writeHeader(W, MagicConflict, VersionSalt, Key, Fingerprint128{});
  writeReport(W, Rep);
  // v2 trailer: the search's graph-node read set, when one was recorded.
  // Ascending and duplicate-free (GraphTouchRecorder::sortedNodes), which
  // the reader enforces as the canonical form.
  W.u8(Touched != nullptr);
  if (Touched) {
    W.u32(uint32_t(Touched->size()));
    for (uint32_t N : *Touched)
      W.u32(N);
  }
  return sealed(std::move(W));
}

CacheProbe lalrcex::cache::deserializeConflictReport(
    const std::string &Blob, Fingerprint128 Key, const Grammar &G,
    const Conflict &Expected, ConflictReport &Out, uint32_t VersionSalt,
    std::vector<uint32_t> *TouchedOut) {
  BlobReader R(Blob);
  CacheProbe Open =
      openBlob(Blob, R, MagicConflict, VersionSalt, Key, Fingerprint128{});
  if (!Open.hit())
    return Open;

  ConflictReport Rep;
  if (!readReport(R, G, Rep))
    return corrupt(R);

  std::vector<uint32_t> Touched;
  if (R.u8()) {
    uint32_t N = R.u32();
    if (R.failed() || N > R.remaining() / 4)
      return {CacheOutcome::Corrupt, "touched set exceeds blob"};
    Touched.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Node = R.u32();
      // Node ids are graph-relative and the graph is not at hand here;
      // the remap layer bounds-checks them against the old graph. Enforce
      // only the canonical strictly-ascending order.
      if (!Touched.empty() && Node <= Touched.back())
        return {CacheOutcome::Corrupt, "touched set not ascending"};
      Touched.push_back(Node);
    }
  }
  if (R.failed())
    return corrupt(R);
  if (R.remaining() != 16)
    return {CacheOutcome::Corrupt, "trailing bytes after payload"};

  // The content address is a hash; the payload must actually describe the
  // conflict being probed for, or a collision would serve a wrong report.
  const Conflict &C = Rep.TheConflict;
  if (C.K != Expected.K || C.State != Expected.State ||
      C.Token != Expected.Token || C.ReduceProd != Expected.ReduceProd ||
      C.OtherProd != Expected.OtherProd ||
      C.ShiftItm != Expected.ShiftItm || C.R != Expected.R)
    return {CacheOutcome::KeyMismatch,
            "blob's conflict record disagrees with probe"};

  Out = std::move(Rep);
  if (TouchedOut)
    *TouchedOut = std::move(Touched);
  return {CacheOutcome::Hit, ""};
}

//===----------------------------------------------------------------------===//
// File layer
//===----------------------------------------------------------------------===//

std::string AnalysisCache::blobPath(const Grammar &G, AutomatonKind Kind,
                                    const char *Extension,
                                    const FinderOptions *Opts) const {
  std::string Name = grammarFingerprint(G, Kind, Salt).hex();
  if (Opts)
    Name += "-" + optionsFingerprint(*Opts, Salt).hex();
  return Dir + "/" + Name + "." + Extension;
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
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {CacheOutcome::IoError, "cannot open " + Path};
  std::string Blob((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  if (In.bad())
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
  // Concurrent writers of the same key race benignly — both bodies are
  // byte-identical by construction.
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

CacheProbe AnalysisCache::loadAnalysis(const Grammar &G,
                                       const GrammarAnalysis &A,
                                       AutomatonKind Kind,
                                       RestoredAnalysis &Out) const {
  std::string Blob;
  CacheProbe P = readBlob(blobPath(G, Kind, "art"), Blob);
  if (!P.hit())
    return P;
  return deserializeAnalysis(Blob, G, A, Kind, Out, Salt);
}

CacheProbe AnalysisCache::storeAnalysis(const ParseTable &T) const {
  const Automaton &M = T.automaton();
  return writeBlob(blobPath(M.grammar(), M.kind(), "art"),
                   serializeAnalysis(T, Salt));
}

CacheProbe AnalysisCache::loadGraph(const Automaton &M,
                                    std::optional<StateItemGraph> &Out) const {
  std::string Blob;
  CacheProbe P = readBlob(blobPath(M.grammar(), M.kind(), "sig"), Blob);
  if (!P.hit())
    return P;
  return deserializeGraph(Blob, M, Out, Salt);
}

CacheProbe AnalysisCache::storeGraph(const StateItemGraph &Graph) const {
  const Automaton &M = Graph.automaton();
  return writeBlob(blobPath(M.grammar(), M.kind(), "sig"),
                   serializeGraph(Graph, Salt));
}

CacheProbe AnalysisCache::loadReports(const Grammar &G, AutomatonKind Kind,
                                      const FinderOptions &Opts,
                                      std::vector<ConflictReport> &Out) const {
  std::string Blob;
  CacheProbe P = readBlob(blobPath(G, Kind, "rep", &Opts), Blob);
  if (!P.hit())
    return P;
  return deserializeReports(Blob, G, Kind, Opts, Out, Salt);
}

CacheProbe
AnalysisCache::storeReports(const Grammar &G, AutomatonKind Kind,
                            const FinderOptions &Opts,
                            const std::vector<ConflictReport> &Reports) const {
  return writeBlob(blobPath(G, Kind, "rep", &Opts),
                   serializeReports(G, Kind, Opts, Reports, Salt));
}

std::string AnalysisCache::conflictBlobPath(Fingerprint128 Key) const {
  return Dir + "/" + Key.hex() + ".crep";
}

CacheProbe
AnalysisCache::loadConflictReport(Fingerprint128 Key, const Grammar &G,
                                  const Conflict &Expected,
                                  ConflictReport &Out,
                                  std::vector<uint32_t> *TouchedOut) const {
  std::string Blob;
  CacheProbe P = readBlob(conflictBlobPath(Key), Blob);
  if (!P.hit())
    return P;
  return deserializeConflictReport(Blob, Key, G, Expected, Out, Salt,
                                   TouchedOut);
}

CacheProbe
AnalysisCache::storeConflictReport(Fingerprint128 Key,
                                   const ConflictReport &Rep,
                                   const std::vector<uint32_t> *Touched) const {
  return writeBlob(conflictBlobPath(Key),
                   serializeConflictReport(Key, Rep, Salt, Touched));
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
                                 const AnalysisCache *Cache,
                                 MetricsRegistry *Metrics,
                                 TraceRecorder *Trace)
    : G(std::move(InG)), A(G, Metrics, Trace) {
  if (Cache) {
    RestoredAnalysis Restored;
    {
      ScopedTimer LoadTimer(Metrics, metric::TimeCacheLoadNs);
      Probe = Cache->loadAnalysis(G, A, Kind, Restored);
    }
    if (Probe.hit()) {
      if (Metrics)
        Metrics->add(metric::CacheHits);
      M = std::move(Restored.M);
      T = std::move(Restored.T);
      return;
    }
    if (Metrics) {
      Metrics->add(metric::CacheMisses);
      if (Probe.degraded())
        Metrics->add(metric::CacheDegradations);
    }
  }
  AutomatonOptions MOpts;
  MOpts.Kind = Kind;
  MOpts.Metrics = Metrics;
  MOpts.Trace = Trace;
  M = std::make_unique<Automaton>(G, A, MOpts);
  T = std::make_unique<ParseTable>(*M);
  if (Cache) {
    ScopedTimer StoreTimer(Metrics, metric::TimeCacheStoreNs);
    Cache->storeAnalysis(*T);
    if (Metrics)
      Metrics->add(metric::CacheStores);
  }
}
