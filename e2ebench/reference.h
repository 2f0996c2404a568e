// Checks computed apart from the program: a reference evaluator for the
// path grammar, a DTD content-model validator, and the majority-schema
// threshold check. None of them calls the repository's query engine,
// the DTD validator or the miner; they read only trees and declarations.
#ifndef WEBRE_E2EBENCH_REFERENCE_H_
#define WEBRE_E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "concepts/constraints.h"
#include "schema/majority_schema.h"
#include "xml/dtd.h"
#include "xml/node.h"

namespace e2e {

/// One step of a reference query: `/name` or `//name`, name may be
/// `*`, with an optional case-insensitive `[val~"needle"]`.
struct RefStep {
  bool descendant = false;
  std::string name;
  std::string needle;  ///< ASCII lower-case; empty = no predicate
};

/// Parses the grammar of docs/CLI.md's path queries. Returns false on
/// a syntax error.
bool ParseRefQuery(std::string_view text, std::vector<RefStep>& steps);

/// One match: the element's pre-order position among the document's
/// elements (root = 0), its name and its val.
struct RefMatch {
  uint32_t pos = 0;
  std::string name;
  std::string val;
};

/// A document lowered to pre-order element arrays once, so many
/// queries can be evaluated over it cheaply.
struct RefDoc {
  std::vector<std::string> names;
  std::vector<std::string> vals;
  std::vector<std::string> vals_lower;
  std::vector<uint32_t> subtree_end;   ///< one past the last descendant
};

RefDoc LowerDocument(const webre::Node& root);

/// Evaluates `steps` over `doc`: the first step tests the root (`/`)
/// or the root and every descendant (`//`); each later step moves to
/// children or descendants of the previous step's matches. Matches are
/// deduplicated and returned in document order.
std::vector<RefMatch> RefEvaluate(const std::vector<RefStep>& steps,
                                  const RefDoc& doc);

/// Returns "" when `doc` conforms to `dtd`, else the first violation:
/// the root is the DTD's root, every element is declared, a (#PCDATA)
/// element has no element children, and every other element's child
/// names match its content model (#PCDATA matches the empty sequence;
/// text lives in the val attribute).
std::string CheckConforms(const webre::Node& doc, const webre::Dtd& dtd);

/// Returns every violation of the majority-schema definition found by
/// counting root-emanating label paths over `docs`: each schema path
/// must have support >= sup and supportRatio >= ratio, and each path
/// that meets both thresholds, whose ancestors all do too, and that
/// the domain's concept constraints allow (the miner prunes the rest
/// by definition; null = no constraints) must be in the schema. Empty
/// = the schema is right.
std::vector<std::string> CheckMajoritySchema(
    const std::vector<const webre::Node*>& docs,
    const webre::MajoritySchema& schema, double sup, double ratio,
    const webre::ConstraintSet* constraints);

}  // namespace e2e

#endif  // WEBRE_E2EBENCH_REFERENCE_H_
