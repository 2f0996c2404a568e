#include "reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace e2e {

namespace {

char LowerChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string LowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = LowerChar(c);
  return out;
}

bool StepTest(const RefStep& step, const RefDoc& doc, uint32_t e) {
  if (step.name != "*" && doc.names[e] != step.name) return false;
  return step.needle.empty() ||
         doc.vals_lower[e].find(step.needle) != std::string::npos;
}

}  // namespace

bool ParseRefQuery(std::string_view text, std::vector<RefStep>& steps) {
  steps.clear();
  size_t i = 0;
  while (i < text.size()) {
    RefStep step;
    if (text.compare(i, 2, "//") == 0) {
      step.descendant = true;
      i += 2;
    } else if (text[i] == '/') {
      i += 1;
    } else {
      return false;
    }
    const size_t name_begin = i;
    while (i < text.size() && text[i] != '/' && text[i] != '[') ++i;
    if (i == name_begin) return false;
    step.name = std::string(text.substr(name_begin, i - name_begin));
    if (i < text.size() && text[i] == '[') {
      constexpr std::string_view kOpen = "[val~\"";
      if (text.compare(i, kOpen.size(), kOpen) != 0) return false;
      i += kOpen.size();
      const size_t close = text.find('"', i);
      if (close == std::string_view::npos ||
          text.compare(close, 2, "\"]") != 0 || close == i) {
        return false;
      }
      step.needle = LowerAscii(text.substr(i, close - i));
      i = close + 2;
    }
    steps.push_back(std::move(step));
  }
  return !steps.empty();
}

RefDoc LowerDocument(const webre::Node& root) {
  RefDoc doc;
  // Pre-order over elements only, iteratively; subtree_end is filled
  // when an element's last descendant has been numbered.
  struct Frame {
    const webre::Node* node;
    uint32_t index;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto visit = [&](const webre::Node* node) {
    const uint32_t index = static_cast<uint32_t>(doc.names.size());
    doc.names.emplace_back(node->name());
    doc.vals.emplace_back(node->val());
    doc.vals_lower.push_back(LowerAscii(node->val()));
    doc.subtree_end.push_back(0);
    stack.push_back(Frame{node, index, 0});
  };
  visit(&root);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == top.node->child_count()) {
      doc.subtree_end[top.index] = static_cast<uint32_t>(doc.names.size());
      stack.pop_back();
      continue;
    }
    const webre::Node* child = top.node->child(top.next_child++);
    if (child->is_element()) visit(child);
  }
  return doc;
}

std::vector<RefMatch> RefEvaluate(const std::vector<RefStep>& steps,
                                  const RefDoc& doc) {
  const uint32_t n = static_cast<uint32_t>(doc.names.size());
  std::vector<uint32_t> frontier;
  if (n == 0 || steps.empty()) return {};
  if (steps[0].descendant) {
    for (uint32_t e = 0; e < n; ++e) {
      if (StepTest(steps[0], doc, e)) frontier.push_back(e);
    }
  } else if (StepTest(steps[0], doc, 0)) {
    frontier.push_back(0);
  }
  std::vector<char> marked(n);
  for (size_t s = 1; s < steps.size() && !frontier.empty(); ++s) {
    std::fill(marked.begin(), marked.end(), 0);
    for (uint32_t from : frontier) {
      const uint32_t end = doc.subtree_end[from];
      if (steps[s].descendant) {
        for (uint32_t e = from + 1; e < end; ++e) {
          if (StepTest(steps[s], doc, e)) marked[e] = 1;
        }
      } else {
        // Direct children: hop from one child to the next sibling by
        // skipping the child's subtree.
        for (uint32_t e = from + 1; e < end; e = doc.subtree_end[e]) {
          if (StepTest(steps[s], doc, e)) marked[e] = 1;
        }
      }
    }
    frontier.clear();
    for (uint32_t e = 0; e < n; ++e) {
      if (marked[e]) frontier.push_back(e);
    }
  }
  std::vector<RefMatch> out;
  out.reserve(frontier.size());
  for (uint32_t e : frontier) {
    out.push_back(RefMatch{e, doc.names[e], doc.vals[e]});
  }
  return out;
}

namespace {

using PositionSet = std::vector<char>;  // index i = "matched up to i"

PositionSet Advance(const webre::ContentParticle& particle,
                    const std::vector<std::string_view>& children,
                    const PositionSet& from);

PositionSet AdvanceOnce(const webre::ContentParticle& particle,
                        const std::vector<std::string_view>& children,
                        const PositionSet& from) {
  using Kind = webre::ContentParticle::Kind;
  const size_t n = children.size();
  PositionSet out(n + 1, 0);
  switch (particle.kind) {
    case Kind::kPcdata:
      return from;
    case Kind::kElement:
      for (size_t i = 0; i < n; ++i) {
        if (from[i] && children[i] == particle.name) out[i + 1] = 1;
      }
      return out;
    case Kind::kSequence: {
      PositionSet at = from;
      for (const webre::ContentParticle& child : particle.children) {
        at = Advance(child, children, at);
      }
      return at;
    }
    case Kind::kChoice:
      for (const webre::ContentParticle& child : particle.children) {
        const PositionSet reached = Advance(child, children, from);
        for (size_t i = 0; i <= n; ++i) out[i] |= reached[i];
      }
      return out;
  }
  return out;
}

// The set of positions reachable from `from` by matching `particle`
// with its occurrence indicator applied.
PositionSet Advance(const webre::ContentParticle& particle,
                    const std::vector<std::string_view>& children,
                    const PositionSet& from) {
  using webre::Occurrence;
  const size_t n = children.size();
  PositionSet once = AdvanceOnce(particle, children, from);
  if (particle.occurrence == Occurrence::kOne) return once;
  PositionSet reached =
      particle.occurrence == Occurrence::kPlus ? once : PositionSet(n + 1, 0);
  if (particle.occurrence != Occurrence::kPlus) {
    for (size_t i = 0; i <= n; ++i) reached[i] = from[i] | once[i];
  }
  if (particle.occurrence == Occurrence::kOptional) return reached;
  // * and +: repeat until no new position appears.
  PositionSet frontier = reached;
  for (;;) {
    const PositionSet next = AdvanceOnce(particle, children, frontier);
    bool grew = false;
    for (size_t i = 0; i <= n; ++i) {
      frontier[i] = next[i] && !reached[i];
      if (frontier[i]) {
        reached[i] = 1;
        grew = true;
      }
    }
    if (!grew) return reached;
  }
}

std::string CheckElement(const webre::Node& element, const webre::Dtd& dtd) {
  const webre::ElementDecl* decl = dtd.Find(element.name());
  if (decl == nullptr) {
    return "undeclared element <" + std::string(element.name()) + ">";
  }
  std::vector<std::string_view> names;
  for (const auto& child : element.children()) {
    if (child->is_element()) names.push_back(child->name());
  }
  if (decl->pcdata_only) {
    if (!names.empty()) {
      return "<" + std::string(element.name()) +
             "> is (#PCDATA) but has child <" + std::string(names[0]) + ">";
    }
  } else {
    PositionSet start(names.size() + 1, 0);
    start[0] = 1;
    if (!Advance(decl->content, names, start)[names.size()]) {
      std::string seq;
      for (std::string_view name : names) {
        seq += seq.empty() ? "" : ",";
        seq += name;
      }
      return "<" + std::string(element.name()) + "> children (" + seq +
             ") do not match " + decl->content.ToString();
    }
  }
  for (const auto& child : element.children()) {
    if (!child->is_element()) continue;
    std::string violation = CheckElement(*child, dtd);
    if (!violation.empty()) return violation;
  }
  return "";
}

}  // namespace

std::string CheckConforms(const webre::Node& doc, const webre::Dtd& dtd) {
  if (doc.name() != dtd.root()) {
    return "root <" + std::string(doc.name()) + "> is not the DTD root <" +
           dtd.root() + ">";
  }
  return CheckElement(doc, dtd);
}

std::vector<std::string> CheckMajoritySchema(
    const std::vector<const webre::Node*>& docs,
    const webre::MajoritySchema& schema, double sup, double ratio,
    const webre::ConstraintSet* constraints) {
  using Path = std::vector<std::string>;
  std::map<Path, size_t> doc_count;
  for (const webre::Node* root : docs) {
    std::set<Path> seen;
    Path path;
    // Depth-first over elements, collecting each distinct label path.
    std::vector<std::pair<const webre::Node*, size_t>> stack = {{root, 0}};
    while (!stack.empty()) {
      auto [node, depth] = stack.back();
      stack.pop_back();
      path.resize(depth);
      path.emplace_back(node->name());
      seen.insert(path);
      for (size_t i = node->child_count(); i-- > 0;) {
        if (node->child(i)->is_element()) {
          stack.emplace_back(node->child(i), depth + 1);
        }
      }
    }
    for (const Path& p : seen) ++doc_count[p];
  }

  const double total = static_cast<double>(docs.size());
  auto support = [&](const Path& p) {
    auto it = doc_count.find(p);
    return it == doc_count.end() ? 0.0 : static_cast<double>(it->second) / total;
  };
  auto support_ratio = [&](const Path& p) {
    if (p.size() <= 1) return 1.0;
    const Path parent(p.begin(), p.end() - 1);
    return support(p) / support(parent);
  };

  std::vector<std::string> violations;
  for (const Path& p : schema.AllPaths()) {
    const double s = support(p);
    const double r = support_ratio(p);
    if (s < sup || r < ratio) {
      violations.push_back("schema path " + webre::JoinLabelPath(p) +
                           " has support " + std::to_string(s) +
                           ", ratio " + std::to_string(r));
    }
  }
  // std::map orders every path after its prefixes, so parents are
  // decided before their children.
  std::map<Path, bool> qualifies;
  for (const auto& [p, count] : doc_count) {
    bool ok = support(p) >= sup && support_ratio(p) >= ratio &&
              (constraints == nullptr || constraints->PathAllowed(p));
    if (ok && p.size() > 1) {
      auto parent = qualifies.find(Path(p.begin(), p.end() - 1));
      ok = parent != qualifies.end() && parent->second;
    }
    qualifies[p] = ok;
    if (ok && !schema.ContainsPath(p)) {
      violations.push_back("frequent path " + webre::JoinLabelPath(p) +
                           " (support " + std::to_string(support(p)) +
                           ") is missing from the schema");
    }
  }
  return violations;
}

}  // namespace e2e
