// Hand-worked cases for the benchmark's own checks: the reference path
// evaluator, the DTD content-model validator and the majority-schema
// check. Every run executes them before it measures anything.
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {

namespace {

// <r val="Top">
//   <A val="Alpha one"> <B val="beta"/> <C val="Gamma"> <B val="deep BETA"/> </C> </A>
//   <B val="other"/>
// </r>
// Pre-order positions: r=0, A=1, B=2, C=3, B=4, B=5.
std::unique_ptr<webre::Node> QueryFixture() {
  auto r = webre::Node::MakeElement("r");
  r->set_val("Top");
  webre::Node* a = r->AddElement("A");
  a->set_val("Alpha one");
  a->AddElement("B")->set_val("beta");
  webre::Node* c = a->AddElement("C");
  c->set_val("Gamma");
  c->AddElement("B")->set_val("deep BETA");
  r->AddElement("B")->set_val("other");
  return r;
}

std::vector<uint32_t> Positions(const std::string& query, const RefDoc& doc,
                                bool* parsed) {
  std::vector<RefStep> steps;
  *parsed = ParseRefQuery(query, steps);
  std::vector<uint32_t> out;
  if (!*parsed) return out;
  for (const RefMatch& match : RefEvaluate(steps, doc)) {
    out.push_back(match.pos);
  }
  return out;
}

void TestEvaluator(std::vector<std::string>& failures) {
  const auto root = QueryFixture();
  const RefDoc doc = LowerDocument(*root);
  const struct {
    const char* query;
    std::vector<uint32_t> want;
  } kCases[] = {
      {"/r", {0}},
      {"/r/A/B", {2}},
      {"//B", {2, 4, 5}},
      {"/r//B", {2, 4, 5}},
      {"/r/*", {1, 5}},
      {"//B[val~\"BETA\"]", {2, 4}},
      {"/r/A//B[val~\"deep\"]", {4}},
      {"//*[val~\"a\"]/B", {2, 4}},
      {"//A//B", {2, 4}},
      {"//*//B", {2, 4, 5}},
      {"/r/A/B/C", {}},
      {"/x", {}},
  };
  for (const auto& c : kCases) {
    bool parsed = false;
    const std::vector<uint32_t> got = Positions(c.query, doc, &parsed);
    if (!parsed || got != c.want) {
      failures.push_back(std::string("reference evaluator: ") + c.query);
    }
  }
  for (const char* bad : {"r/A", "/r[val~\"x\"", "//", "/r[val=\"x\"]", ""}) {
    std::vector<RefStep> steps;
    if (ParseRefQuery(bad, steps)) {
      failures.push_back(std::string("reference parser accepted: ") + bad);
    }
  }
  std::vector<RefStep> steps;
  bool parsed = ParseRefQuery("//B[val~\"BETA\"]", steps);
  if (!parsed || RefEvaluate(steps, doc)[1].val != "deep BETA" ||
      RefEvaluate(steps, doc)[1].name != "B") {
    failures.push_back("reference evaluator: match name/val");
  }
}

// r: (#PCDATA, A+, B?)   A: (#PCDATA, (B | C)*)   B: (#PCDATA)
// C: (#PCDATA, B)
webre::Dtd ValidatorFixture() {
  using webre::ContentParticle;
  using webre::Occurrence;
  webre::Dtd dtd;
  dtd.set_root("r");
  webre::ElementDecl r{"r", false,
                       ContentParticle::Sequence(
                           {ContentParticle::Pcdata(),
                            ContentParticle::Element("A", Occurrence::kPlus),
                            ContentParticle::Element("B",
                                                     Occurrence::kOptional)})};
  webre::ElementDecl a{
      "A", false,
      ContentParticle::Sequence(
          {ContentParticle::Pcdata(),
           ContentParticle::Choice({ContentParticle::Element("B"),
                                    ContentParticle::Element("C")},
                                   Occurrence::kStar)})};
  webre::ElementDecl b{"B", true, {}};
  webre::ElementDecl c{"C", false,
                       ContentParticle::Sequence(
                           {ContentParticle::Pcdata(),
                            ContentParticle::Element("B")})};
  for (auto& decl : {r, a, b, c}) dtd.AddElement(decl);
  return dtd;
}

// Builds a tree from a compact spec: "r(A(B,C(B)),B)".
std::unique_ptr<webre::Node> Tree(const std::string& spec, size_t& at) {
  size_t begin = at;
  while (at < spec.size() && spec[at] != '(' && spec[at] != ',' &&
         spec[at] != ')') {
    ++at;
  }
  auto node = webre::Node::MakeElement(spec.substr(begin, at - begin));
  if (at < spec.size() && spec[at] == '(') {
    ++at;
    for (;;) {
      node->AddChild(Tree(spec, at));
      if (spec[at] == ',') {
        ++at;
        continue;
      }
      ++at;  // ')'
      break;
    }
  }
  return node;
}

std::unique_ptr<webre::Node> Tree(const std::string& spec) {
  size_t at = 0;
  return Tree(spec, at);
}

void TestValidator(std::vector<std::string>& failures) {
  const webre::Dtd dtd = ValidatorFixture();
  const struct {
    const char* doc;
    bool conforms;
  } kCases[] = {
      {"r(A(B,C(B)),B)", true},
      {"r(A,A,B)", true},
      {"r(A)", true},
      {"r(A(C(B),C(B),B))", true},
      {"r(B)", false},         // A+ needs one A
      {"r(A,B,B)", false},     // B? allows one B
      {"r(B,A)", false},       // order
      {"r(A(C))", false},      // C needs its B
      {"r(A(B(C(B))))", false},  // B is (#PCDATA)
      {"r(A(D))", false},      // D undeclared
      {"q", false},            // wrong root
  };
  for (const auto& c : kCases) {
    const bool conforms = CheckConforms(*Tree(c.doc), dtd).empty();
    if (conforms != c.conforms) {
      failures.push_back(std::string("content-model validator: ") + c.doc);
    }
  }
}

webre::SchemaNode SchemaTree(const std::string& spec) {
  const auto tree = Tree(spec);
  struct Convert {
    static webre::SchemaNode Run(const webre::Node& node) {
      webre::SchemaNode out;
      out.label = std::string(node.name());
      for (const auto& child : node.children()) {
        out.children.push_back(Run(*child));
      }
      return out;
    }
  };
  return Convert::Run(*tree);
}

void TestSchemaCheck(std::vector<std::string>& failures) {
  // Four documents: r/A/B + r/C, r/A, r/A/B, r/C. With sup = ratio =
  // 0.5: r 1.0, r/A 0.75, r/A/B 0.5 (ratio 0.67), r/C 0.5 (ratio 0.5).
  std::vector<std::unique_ptr<webre::Node>> owned;
  for (const char* spec : {"r(A(B),C)", "r(A)", "r(A(B))", "r(C)"}) {
    owned.push_back(Tree(spec));
  }
  std::vector<const webre::Node*> docs;
  for (const auto& doc : owned) docs.push_back(doc.get());
  auto violations = [&](const char* schema, double sup) {
    return CheckMajoritySchema(docs,
                               webre::MajoritySchema(SchemaTree(schema)), sup,
                               0.5, nullptr)
        .size();
  };
  if (violations("r(A(B),C)", 0.5) != 0) {
    failures.push_back("schema check rejects the right schema");
  }
  if (violations("r(A(B))", 0.5) != 1) {
    failures.push_back("schema check misses a missing frequent path");
  }
  if (violations("r(A(B),C,D)", 0.5) != 1) {
    failures.push_back("schema check misses a path with no support");
  }
  if (violations("r(A(B))", 0.6) != 1) {
    failures.push_back("schema check misses a path below supThreshold");
  }
  if (violations("r(A)", 0.6) != 0) {
    failures.push_back("schema check rejects the sup=0.6 schema");
  }
}

}  // namespace

void SelfTest(std::vector<std::string>& failures) {
  TestEvaluator(failures);
  TestValidator(failures);
  TestSchemaCheck(failures);
}

}  // namespace e2e
