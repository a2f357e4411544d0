//===- corpus/CorpusSynthetic.cpp - java-ext + scalability -----*- C++ -*-===//
//
// Part of lalrcex.
//
// Stand-ins for the paper's proprietary java-ext1/java-ext2 grammars (the
// rows whose every conflict exceeds the 5-second unifying budget), plus
// the generated grammar family behind the scalability measurements.
//
// Table 1 marks java-ext1/2 as UNAMBIGUOUS grammars whose conflicts all
// exceed the per-conflict budget. The java-ext entries therefore extend
// the Java base with extra surface syntax and embed an unambiguous
// repetition gadget: two statement lists with co-prime periods and a
// shared follow token, disambiguated only after the conflict terminal.
// The reduce/reduce conflict is not an ambiguity, and because the
// repetition pumps forever, the product-parser search can always grow
// configurations backward and never exhausts — it runs until the time
// budget expires, exactly the paper's T/L behavior.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusInternal.h"

#include <cassert>
#include <string>

using namespace lalrcex;

namespace {

std::string patch(std::string Text, const std::string &From,
                  const std::string &To) {
  size_t Pos = Text.find(From);
  assert(Pos != std::string::npos && "corpus patch target missing");
  Text.replace(Pos, From.size(), To);
  return Text;
}

/// An unambiguous repetition gadget: NameA matches (';')^{pk} BREAK
/// (k >= 1) and NameB matches (';')^{qm} BREAK (m >= 1). Used as "OPEN NameA THIS ';'" vs
/// "OPEN NameB THIS THIS ';'": after BREAK both reductions compete under
/// THIS (a reduce/reduce conflict), but the sentence is disambiguated two
/// tokens later, so the grammar is unambiguous and not LALR(1) — and the
/// unifying search can pump the repetitions backward forever.
std::string gadget(const std::string &NameA, const std::string &NameB,
                   unsigned P, unsigned Q) {
  auto semis = [](unsigned N) {
    std::string S;
    for (unsigned I = 0; I != N; ++I)
      S += "';' ";
    return S;
  };
  std::string Out;
  Out += NameA + " : " + semis(P) + NameA + " | " + semis(P) + "BREAK ;\n";
  Out += NameB + " : " + semis(Q) + NameB + " | " + semis(Q) + "BREAK ;\n";
  return Out;
}

/// Extra syntax shared by the java-ext grammars: closures, tuple
/// expressions, a match statement, and resource-try.
const char *JavaExtCommon = R"(
closure_expression : ARROW '(' formal_parameter_list ')' block
                   | ARROW '(' ')' block ;
tuple_expression : '#' '(' argument_list ')' ;
match_statement : MATCH '(' expression ')' '{' match_arms '}' ;
match_arms : match_arm | match_arms match_arm ;
match_arm : CASE pattern ARROW block ;
pattern : literal | IDENTIFIER | IDENTIFIER '(' pattern_list ')' | '_' ;
pattern_list : pattern | pattern_list ',' pattern ;
resource_try : TRY '(' local_variable_declaration ')' block ;
)";

} // namespace

void corpus_detail::addSyntheticGrammars(std::vector<CorpusEntry> &Out) {
  std::string JavaBase = corpus_detail_javaBaseForExtensions();

  // java-ext1: Java + closures/match + two unambiguous gadgets.
  {
    std::string Text = patch(JavaBase,
                             "statement : statement_without_trailing_substatement",
                             "statement : '@' deep_list_a THIS ';'\n"
                             "          | '@' deep_list_b THIS THIS ';'\n"
                             "          | '&' deep_list_c THIS ';'\n"
                             "          | '&' deep_list_d THIS THIS ';'\n"
                             "          | match_statement\n"
                             "          | statement_without_trailing_substatement");
    Text = patch(Text,
                 "primary_no_new_array : literal",
                 "primary_no_new_array : closure_expression\n"
                 "                     | tuple_expression\n"
                 "                     | literal");
    Text = patch(Text, "%token LSHIFT RSHIFT URSHIFT",
                 "%token LSHIFT RSHIFT URSHIFT ARROW MATCH");
    Text += JavaExtCommon;
    Text += gadget("deep_list_a", "deep_list_b", 5, 7);
    Text += gadget("deep_list_c", "deep_list_d", 3, 11);
    Out.push_back({"java-ext1", "synthetic", Text, false, 2});
  }

  // java-ext2: java-ext1's syntax plus resource-try, with one gadget.
  {
    std::string Text = patch(JavaBase,
                             "statement : statement_without_trailing_substatement",
                             "statement : '@' deep_list_a THIS ';'\n"
                             "          | '@' deep_list_b THIS THIS ';'\n"
                             "          | match_statement\n"
                             "          | statement_without_trailing_substatement");
    Text = patch(Text,
                 "try_statement : TRY block catches",
                 "try_statement : resource_try\n"
                 "              | TRY block catches");
    Text = patch(Text,
                 "primary_no_new_array : literal",
                 "primary_no_new_array : closure_expression\n"
                 "                     | tuple_expression\n"
                 "                     | literal");
    Text = patch(Text, "%token LSHIFT RSHIFT URSHIFT",
                 "%token LSHIFT RSHIFT URSHIFT ARROW MATCH");
    Text += JavaExtCommon;
    Text += gadget("deep_list_a", "deep_list_b", 13, 17);
    Out.push_back({"java-ext2", "synthetic", Text, false, 1});
  }

  // worst-case-conflict: ONE reduce/reduce conflict whose unifying search
  // frontier is as wide as the gadget can make it. The two repetition
  // lists use large co-prime periods (23 and 29), so the product-parser
  // search pumping both lists backward reaches up to 23 x 29 distinct
  // item-pair combinations, with two reverse-production choices per
  // period boundary on each side: the Dial cost buckets fill with
  // hundreds of same-cost configurations. The grammar is still
  // unambiguous — the search never exhausts, so a fixed
  // MaxConfigurations budget measures pure search throughput
  // deterministically.
  {
    std::string Text = "%token BREAK THIS\n%%\n"
                       "start : '@' deep_list_a THIS ';'\n"
                       "      | '@' deep_list_b THIS THIS ';' ;\n";
    Text += gadget("deep_list_a", "deep_list_b", 23, 29);
    Out.push_back({"worst-case-conflict", "synthetic", Text, false, 1});
  }
}

std::string lalrcex::scalabilityGrammarText(unsigned Levels) {
  assert(Levels >= 1 && "need at least one operator level");
  std::string Out = "%%\n";
  // Ambiguous top level (the single constant conflict).
  Out += "e0 : e0 amb e0 | e1 ;\n";
  for (unsigned L = 1; L != Levels; ++L) {
    std::string This = "e" + std::to_string(L);
    std::string Next = "e" + std::to_string(L + 1);
    Out += This + " : " + This + " op" + std::to_string(L) + " " + Next +
           " | " + Next + " ;\n";
  }
  std::string Last = "e" + std::to_string(Levels);
  Out += Last + " : lparen e0 rparen | id" + " ;\n";
  return Out;
}
