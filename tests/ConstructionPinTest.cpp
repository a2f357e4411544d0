//===- tests/ConstructionPinTest.cpp - pinned construction ----*- C++ -*-===//
//
// Part of lalrcex.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what construction produces: for every corpus grammar, the two
/// example grammars and 200 random grammars, a StableHasher fingerprint of
/// the LALR(1) automaton (every state's items, kernel size, lookahead
/// elements and transitions), the ACTION table (every cell), the conflict
/// list (in order, every field) and the state-item graph (every node's
/// state, item and forward node, and its three rows in order), and the
/// same for canonical LR(1) on every grammar but sql.y and
/// worst-case-conflict.
///
/// expectSameAutomaton / expectSameTable / expectSameGraph compare two
/// builds made by one binary, so a change that moves both sides passes
/// them. These constants were computed once and must stay as they are: a
/// rewrite of the construction that claims identical structures has to
/// leave every fingerprint unchanged.
///
//===----------------------------------------------------------------------===//

#include "counterexample/StateItemGraph.h"
#include "lr/ParseTable.h"

#include "RandomGrammar.h"
#include "corpus/Corpus.h"
#include "grammar/GrammarParser.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace lalrcex;

namespace {

void foldAutomaton(StableHasher &H, const Automaton &M) {
  H.addU32(M.numStates());
  for (unsigned S = 0; S != M.numStates(); ++S) {
    const Automaton::State &St = M.state(S);
    H.addU32(uint32_t(St.Items.size()));
    H.addU32(St.NumKernel);
    for (size_t I = 0; I != St.Items.size(); ++I) {
      H.addU32(St.Items[I].Prod);
      H.addU32(St.Items[I].Dot);
      const IndexSet &L = St.Lookaheads[I];
      H.addU32(L.count());
      L.forEach([&H](unsigned T) { H.addU32(T); });
    }
    H.addU32(uint32_t(St.Transitions.size()));
    for (const auto &[Sym, Target] : St.Transitions) {
      H.addU32(uint32_t(Sym.id()));
      H.addU32(Target);
    }
  }
}

void foldTable(StableHasher &H, const ParseTable &T) {
  const Automaton &M = T.automaton();
  for (unsigned S = 0; S != M.numStates(); ++S) {
    for (unsigned Tok = 0; Tok != M.grammar().numTerminals(); ++Tok) {
      Action A = T.action(S, Symbol(int32_t(Tok)));
      H.addU8(A.K);
      H.addU32(A.Target);
    }
  }
  H.addU32(uint32_t(T.conflicts().size()));
  for (const Conflict &C : T.conflicts()) {
    H.addU8(C.K);
    H.addU32(C.State);
    H.addU32(uint32_t(C.Token.id()));
    H.addU32(C.ReduceProd);
    H.addU32(C.OtherProd);
    H.addU32(C.ShiftItm.Prod);
    H.addU32(C.ShiftItm.Dot);
    H.addU8(C.R);
  }
}

void foldGraph(StableHasher &H, const StateItemGraph &Graph) {
  auto foldRow = [&H](StateItemGraph::NodeRange R) {
    H.addU32(uint32_t(R.size()));
    for (StateItemGraph::NodeId N : R)
      H.addU32(N);
  };
  H.addU32(Graph.numNodes());
  for (StateItemGraph::NodeId N = 0; N != Graph.numNodes(); ++N) {
    H.addU32(Graph.stateOf(N));
    H.addU32(Graph.itemOf(N).Prod);
    H.addU32(Graph.itemOf(N).Dot);
    H.addU32(Graph.forwardTransition(N));
    foldRow(Graph.productionSteps(N));
    foldRow(Graph.reverseTransitions(N));
    foldRow(Graph.reverseProductionSteps(N));
  }
}

/// Folds \p G's automaton of kind \p Kind, its table and its graph.
void foldConstruction(StableHasher &H, const Grammar &G,
                      const GrammarAnalysis &A, AutomatonKind Kind) {
  Automaton M(G, A, Kind);
  ParseTable T(M);
  StateItemGraph Graph(M);
  foldAutomaton(H, M);
  foldTable(H, T);
  foldGraph(H, Graph);
}

/// Fingerprints of one grammar's construction: LALR(1), and canonical
/// LR(1) or "-".
struct Pin {
  std::string Name;
  std::string Lalr1;
  std::string Canonical;
};

Pin pinOf(const std::string &Name, const Grammar &G, bool WithCanonical) {
  GrammarAnalysis A(G);
  Pin P;
  P.Name = Name;
  StableHasher H;
  foldConstruction(H, G, A, AutomatonKind::Lalr1);
  P.Lalr1 = H.finish().hex();
  P.Canonical = "-";
  if (WithCanonical) {
    StableHasher HC;
    foldConstruction(HC, G, A, AutomatonKind::Canonical);
    P.Canonical = HC.finish().hex();
  }
  return P;
}

Grammar loadExampleGrammar(const std::string &Name) {
  std::ifstream In(std::string(LALRCEX_EXAMPLE_GRAMMARS) + "/" + Name,
                   std::ios::binary);
  EXPECT_TRUE(In) << Name;
  std::stringstream Buf;
  Buf << In.rdbuf();
  GrammarParseResult R = parseGrammar(Buf.str());
  EXPECT_TRUE(R.ok()) << Name;
  return std::move(*R.G);
}

/// Fingerprints computed before any of the construction was rewritten:
/// name, LALR(1), canonical LR(1) ("-" where it is not built).
const Pin Pins[] = {
    {"figure1", "c0c41238baacff44e09e34dd141dacb9",
     "3790f68c9d200553f06641ef13f302d0"},
    {"figure3", "2960c96e02a8ffdcc2cfb1081d8ac0f3",
     "2960c96e02a8ffdcc2cfb1081d8ac0f3"},
    {"figure7", "ef7540c491844e4850dc386c8a792f1d",
     "337eb7ae54094d3ed9685a36107a4960"},
    {"expr_prec_resolved", "f0a9397893d6238b249374d4e441c997",
     "f0a9397893d6238b249374d4e441c997"},
    {"expr_prec_unresolved", "95f69bc23fd68fd0c3a2d09ef3a3f684",
     "95f69bc23fd68fd0c3a2d09ef3a3f684"},
    {"ambfailed01", "fa2677d988eab3738179818e5dbef6b4",
     "9e175e1071e2b3079be54f724f8fc86e"},
    {"abcd", "87c74092567f4b29bb83d9c53fd4f699",
     "87c74092567f4b29bb83d9c53fd4f699"},
    {"simp2", "43b495981c7b0c50bdd83589aa76db32",
     "460d12da745fe3686c590cb71fe8b701"},
    {"xi", "bc5ca36f18195d418e62c6a0692130eb",
     "4a26f1b587b37aca1adec8a8fd3cb916"},
    {"eqn", "52a1c47fb952c12985993bf477245a84",
     "0583c29c7c7e4835e7e067b68da7534e"},
    {"stackexc01", "58e900ff14ea06ab9b8c2c275caa8655",
     "58e900ff14ea06ab9b8c2c275caa8655"},
    {"stackexc02", "8eb7601cad7a7526c09db8b3f1e65053",
     "8eb7601cad7a7526c09db8b3f1e65053"},
    {"stackovf01", "ece74dbd292aceb5f888032828b17912",
     "ece74dbd292aceb5f888032828b17912"},
    {"stackovf02", "cbadf5f2f313d06b3b3fd675f5210129",
     "cbadf5f2f313d06b3b3fd675f5210129"},
    {"stackovf03", "9db839f1d90778f659b8bac6617a139c",
     "01e311467c54312170a02a443f7186f6"},
    {"stackovf04", "7865dbe8120bc8e20ea519037f8a5d88",
     "7865dbe8120bc8e20ea519037f8a5d88"},
    {"stackovf05", "958ad6a55c655c40e71af5f21ff65fac",
     "baa745ea41e4ce0a32d97a8f9bb8a2f2"},
    {"stackovf06", "e0970e5128060aa01fbeb3531a524cc4",
     "e0970e5128060aa01fbeb3531a524cc4"},
    {"stackovf07", "5f3237d76cd1658f01e66216ed363a4a",
     "6549886b367e70134a0a8103ca0affd3"},
    {"stackovf08", "0fbe2518a9dd8f8cf382deacc819546e",
     "8b96d2c327d498c65f4138d3e2a2ff26"},
    {"stackovf09", "2ddc3efe048e0f5f0801f6da03716250",
     "2ddc3efe048e0f5f0801f6da03716250"},
    {"stackovf10", "6e33981abba383814389ed18bd7d761e",
     "318a8b03849bf9049b7273a62b3378f8"},
    {"SQL.base", "fa6bea6acd0996372468089b73840782",
     "93b17b31c91d47392f20d2a94c4e72e0"},
    {"SQL.1", "6208d930f95c049ef50fffc6bfbfe3d8",
     "a327a1f7b7c16c0b6a287db3f2812827"},
    {"SQL.2", "0641dfe1925d736cd1113212639c22c9",
     "9d07f632e51c6891fcd5995b3877e1ec"},
    {"SQL.3", "704bd4a7189da7037fb26d60210f5099",
     "25d94afc57876d0ff4be86260648ae97"},
    {"SQL.4", "4cf8ee880c10268ee6ef92572e65764e",
     "00e734ed1dd6b21222a10ff8eb09b1da"},
    {"SQL.5", "aa8e667e509e20f079dbe531cb5e3c05",
     "adc5d46fc8597247548ceda0abbec121"},
    {"Pascal.base", "a8600d94ca74619cff3939a822acf77f",
     "ca71ee2cf1d663ea6e4143b0178d1660"},
    {"Pascal.1", "8ead7d93be8c9ddc852376e60a81e478",
     "c86c76ecec1aa600fd3b1ad2ffe145e2"},
    {"Pascal.2", "7aa9cabf8f5f55b4b1631da215aae8b5",
     "35bb26fdf6ff23fd9f68f649f85f3ff8"},
    {"Pascal.3", "96109eaff1f9fdc3c2eedb446c46f603",
     "b51ee42e7e0bd71060753a6844ed05b8"},
    {"Pascal.4", "91afabf925c593f0e55406d8ebba837b",
     "e68cb5cd27ee721d4d4a8b4ebe0563b8"},
    {"Pascal.5", "80736cd9973a49362f934b2547271c9b",
     "ac602ddbb548f76071500d0e492f7592"},
    {"C.base", "02eef04044ea605121259fd7cdc51cd0",
     "46ce04829be8e8cdb9abbadf5bc43789"},
    {"C.1", "429047ce90d60002f38c4cd3eebef425",
     "69e3f2c6b3e5bffbb0b1efe1dde3723b"},
    {"C.2", "7a7e242ac06bdda4186cf0fec2f94cb1",
     "6cac71b04c45df04fc0979a7640e14e6"},
    {"C.3", "e30cf7b89b9c9d7d980aa3481ee9e3a9",
     "2bb1770af9f045b963e450f03626c741"},
    {"C.4", "c31447a1b77fef6eef032efb5c977872",
     "18675f503e6715250f3989372fa5267f"},
    {"C.5", "74fead509e403b93aced99fb2188f0e4",
     "d1f26f4fefe5f90a9dd5c2fc90f130a3"},
    {"Java.base", "c225d2208d8f8ff26651dd594531d92b",
     "37fe4569493323518ed10f6edd7fefc5"},
    {"Java.1", "50fb79e412e501457d58a81024806a50",
     "6deb0cf0ccd44200c433d6d6ebc6177a"},
    {"Java.2", "57d90b461b3131ea02a7a9dca3da88fa",
     "afe5ef04871d5f8ac174d739f3c20e8c"},
    {"Java.3", "fd951f8caca27f9b15c7cce2ba91c4a3",
     "b7bf028d313f13fe761799d8aa68113b"},
    {"Java.4", "a67424c71e8949f056e108f79064878f",
     "238ea1d39ee4df7549324327b6d845a4"},
    {"Java.5", "78a83171412e3d491a65505d1e13e9a4",
     "03f0be75c9949a582452864c0c4494b4"},
    {"java-ext1", "0df91a91f227eacb5656f4f6f0fc4800",
     "05da7172f843c181da2827b795d3ff91"},
    {"java-ext2", "0ab9d54d974412340598e412a6e209aa",
     "6dff78d2f306aa931466d7e007b414de"},
    {"worst-case-conflict", "1acc79ee7d98ec1afa2b295ebc6224b8",
     "-"},
    {"ansi_c.y", "f8cf682ab781c62b1b1b7ad650760fcd",
     "44ee90651d6c238a203cc39aebdd735c"},
    {"sql.y", "bb0b96a7f9b0f680711b494882f93244",
     "-"},
    {"random-200", "022b15c4a2b6733a49c02ccef029c7a9",
     "54b1a509c24c73de13f96bd25115017e"},
};

void expectPinned(const Pin &Got) {
  const Pin *Want =
      std::find_if(std::begin(Pins), std::end(Pins),
                   [&](const Pin &P) { return P.Name == Got.Name; });
  ASSERT_NE(Want, std::end(Pins))
      << "no pin for {\"" << Got.Name << "\", \"" << Got.Lalr1 << "\", \""
      << Got.Canonical << "\"}";
  EXPECT_EQ(Got.Lalr1, Want->Lalr1) << Got.Name << " LALR(1)";
  EXPECT_EQ(Got.Canonical, Want->Canonical) << Got.Name << " canonical";
}

TEST(ConstructionPinTest, CorpusGrammars) {
  for (const CorpusEntry &E : corpus())
    expectPinned(pinOf(E.Name, loadCorpusGrammar(E.Name),
                       E.Name != "worst-case-conflict"));
}

TEST(ConstructionPinTest, ExampleGrammars) {
  expectPinned(pinOf("ansi_c.y", loadExampleGrammar("ansi_c.y"), true));
  expectPinned(pinOf("sql.y", loadExampleGrammar("sql.y"), false));
}

TEST(ConstructionPinTest, RandomGrammars) {
  // One fingerprint per kind over all 200 grammars; a seed whose text
  // does not build folds a marker instead.
  StableHasher Lalr1, Canonical;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    std::optional<Grammar> G =
        parseGrammarText(lalrcex::testing::randomGrammarText(
            Seed, 4 + unsigned(Seed % 5), 3 + unsigned(Seed % 4)));
    Lalr1.addU8(G.has_value());
    Canonical.addU8(G.has_value());
    if (!G)
      continue;
    GrammarAnalysis A(*G);
    foldConstruction(Lalr1, *G, A, AutomatonKind::Lalr1);
    foldConstruction(Canonical, *G, A, AutomatonKind::Canonical);
  }
  expectPinned(
      Pin{"random-200", Lalr1.finish().hex(), Canonical.finish().hex()});
}

} // namespace
